"""Exception hierarchy shared across the package."""


class MvaError(Exception):
    """Base class for all library errors."""


# --- expressions ---

class ExprSyntaxError(MvaError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DomainError(MvaError):
    """Evaluation left the natural domain (log of nonpositive, division by zero, ...)."""


class OrderOverflow(MvaError):
    """Requested jet order exceeds expr.MAX_JET_ORDER."""


# --- solver ---

class NotContraction(MvaError):
    """Sampled Lipschitz estimate of the fixed-point map is >= 1."""


class EscapesInterval(MvaError):
    """A fixed-point iterate left the interval I."""


class MaxIterExceeded(MvaError):
    pass


class DegenerateFy(MvaError):
    """F_y vanishes at the base point; the implicit function theorem does not apply."""


class CannotCertify(MvaError):
    """No contraction neighborhood found after the maximum number of halvings."""


# --- problem model ---

class EndpointCollision(MvaError):
    """b collided with the left endpoint a0 (removable singularity of F)."""


class DegenerateProblem(MvaError):
    """F(b, .) vanishes identically (linear/constant function)."""


# --- classification ---

class NotASolution(MvaError):
    """The supplied (b0, c0) does not satisfy the mean value condition."""


class OutsideNeighborhood(MvaError):
    """Point lies outside the region where the coordinate change is defined."""


# --- continuation ---

class SeedNotRegular(MvaError):
    """Seed classification does not admit the requested branch direction."""


class SeedSearchFailed(MvaError):
    """Could not bracket post-degeneracy branch seeds."""
