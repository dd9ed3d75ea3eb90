"""Full zero-set scans of F(b, c) over a b-grid, plus CSV/JSON/SVG output.

The columns share one grid of f' over [a0, b_max] (see mvt.solve_columns),
but no continuity assumption: each column's roots are bracketed and refined
on their own, so the scanner doubles as an oracle for the continuation
module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import mvt
from .continuation import MAX_POINTS  # the most columns, as a branch's most points
from .errors import MvaError

CSV_HEADER = "b,c,residual,column"

_SVG_W, _SVG_H = 800, 600
_SVG_MARGIN = 40


@dataclass(frozen=True, eq=False)
class ScanResult(mvt.Points):
    """A scan's points, sorted by (column, c): mvt.Points' read-only arrays
    and column, each point's index on the b-grid; with the grid, and the
    columns on which F(b, .) vanishes identically."""

    expression: str
    a0: float
    domain: tuple
    b_min: float
    b_max: float
    b_count: int
    c_grid_n: int
    tol: float
    column: np.ndarray
    degenerate_columns: list = field(default_factory=list)

    _ARRAYS = {**mvt.Points._ARRAYS, "column": np.int64}

    @property
    def columns(self):
        """Each point's column, as a list."""
        return self.column.tolist()

    def _head(self):
        return {
            "expression": self.expression,
            "a0": self.a0,
            "domain": list(self.domain),
            "b_grid": {"min": self.b_min, "max": self.b_max, "count": self.b_count},
            "c_grid_n": self.c_grid_n,
            "tol": self.tol,
            "degenerate_columns": self.degenerate_columns,
        }


def scan(p: mvt.Problem, b_min: float, b_max: float, b_count: int,
         c_grid_n: int = mvt.DEFAULT_GRID_N, tol: float = mvt.DEFAULT_TOL) -> ScanResult:
    """All abscissae for each b on a uniform grid of b_count columns: the
    arrays of mvt.solve_columns, with each point's b read from the grid."""
    if not (p.a0 < b_min < b_max < np.inf):
        raise ValueError("need finite a0 < b_min < b_max, "
                         f"got a0={p.a0!r}, b_min={b_min!r}, b_max={b_max!r}")
    if not 2 <= b_count <= MAX_POINTS:
        raise ValueError(f"b_count must be >= 2 and <= {MAX_POINTS}, got {b_count!r}")
    p = p.covering(p.domain[0], max(b_max, p.domain[1]))
    bs = np.linspace(b_min, b_max, b_count)
    live, column, c, residual = mvt.solve_columns(p, bs, tol=tol, grid_n=c_grid_n)
    return ScanResult(b=bs[column], c=c, residual=residual, column=column,
                      expression=p.expression, a0=p.a0, domain=p.domain, b_min=b_min,
                      b_max=b_max, b_count=b_count, c_grid_n=c_grid_n, tol=tol,
                      degenerate_columns=np.flatnonzero(~live).tolist())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_csv(obj) -> str:
    """CSV with header b,c,residual,column; LF endings; one trailing LF."""
    texts = obj._texts
    return (CSV_HEADER + "\n" + "%s,%s,%s,%s\n" * (len(texts) // 4)) % texts


def to_json(obj) -> str:
    """json.dumps(obj.to_dict(), indent=2) and a trailing LF, byte for byte.

    The points are the last key of to_dict().  Where they are all finite,
    json.dumps would write b, c and residual as the texts of to_csv and a
    column as its int, so one template sets those into the indented layout
    of the other keys.
    """
    keys = list(obj._ARRAYS)
    if not (obj.b.size and all(np.isfinite(getattr(obj, k)).all() for k in keys)):
        return json.dumps(obj.to_dict(), indent=2) + "\n"
    texts = obj._texts
    # "%.0s" sets a Branch's column, its point index, as ""
    item = ",\n".join(f'      "{k}": %s' for k in keys) + "%.0s" * (4 - len(keys))
    items = [f"    {{\n{item}\n    }}"] * (len(texts) // 4)
    head = json.dumps({**obj._head(), "points": []}, indent=2)[:-len("[]\n}")]
    items[0] = head.replace("%", "%%") + "[\n" + items[0]
    items[-1] += "\n  ]\n}\n"
    return ",\n".join(items) % texts


def _padded(lo, hi):
    """[lo, hi] as floats, widened on each side by 5 % of its width, or, for
    a single value, by 0.5 or by the spacing of floats at lo where 0.5 is
    too little to move it: the plot divides by the width."""
    lo, hi = float(lo), float(hi)
    pad = 0.05 * (hi - lo) or max(0.5, math.ulp(lo))
    return lo - pad, hi + pad


def to_svg(obj) -> str:
    """Standalone SVG 1.1 plot: shaded c >= b region, family polylines, markers.

    Family k joins the points of c-rank k in their columns, in column order."""
    bs = obj.b.tolist() or [0.0, 1.0]
    cs = obj.c.tolist() or [0.0, 1.0]
    xmin, xmax = _padded(min(bs), max(bs))
    ymin, ymax = _padded(min(cs), max(cs))

    def px(x):
        return _SVG_MARGIN + (x - xmin) / (xmax - xmin) * (_SVG_W - 2 * _SVG_MARGIN)

    def py(y):
        return _SVG_H - _SVG_MARGIN - (y - ymin) / (ymax - ymin) * (_SVG_H - 2 * _SVG_MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
    ]

    # shaded half-plane c >= b clipped to the data box
    corners = [(xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)]
    poly = _clip_halfplane(corners)
    if poly:
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in poly)
        parts.append(f'<polygon points="{pts}" fill="#d0d0d0"/>')

    # axes
    parts.append(
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_H - _SVG_MARGIN}" '
        f'x2="{_SVG_W - _SVG_MARGIN}" y2="{_SVG_H - _SVG_MARGIN}" stroke="black"/>')
    parts.append(
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_MARGIN}" '
        f'x2="{_SVG_MARGIN}" y2="{_SVG_H - _SVG_MARGIN}" stroke="black"/>')
    for label, x, y, anchor in (
            (round(xmin, 6), px(xmin), _SVG_H - _SVG_MARGIN + 15, "start"),
            (round(xmax, 6), px(xmax), _SVG_H - _SVG_MARGIN + 15, "end"),
            (round(ymin, 6), _SVG_MARGIN - 5, py(ymin), "end"),
            (round(ymax, 6), _SVG_MARGIN - 5, py(ymax), "end")):
        parts.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="10" '
                     f'text-anchor="{anchor}">{float(label)!r}</text>')

    if obj.b.size:
        # overflow and inf - inf give inf and nan without a warning, as on Python floats
        with np.errstate(over="ignore", invalid="ignore"):
            xy = np.column_stack((px(obj.b), py(obj.c)))
        parts += _point_parts(xy, obj.c, np.asarray(obj.columns))
    parts.append("</svg>\n")
    return "\n".join(parts)


def _point_parts(xy, c, cols):
    """The family polylines and the markers of the points at the plot
    coordinates xy, of ordinates c in columns cols.  Each point's
    coordinates are formatted once, as the text between its marker's cx="
    and the end of its cy=", which its polyline writes x,y."""
    sep, end = '" cy="', '" r="1.5" fill="#1f3fb2"/>'
    pairs = ("\n".join([f"%.2f{sep}%.2f"] * len(xy)) % tuple(xy.ravel().tolist())).split("\n")
    # sorted by column, then by c: a point's rank is its place in its column
    order = np.lexsort((c, cols))
    rank = np.arange(len(xy)) - np.searchsorted(cols[order], cols[order])
    by_rank = order[np.argsort(rank, kind="stable")]
    out, ranked = [], np.array(pairs, dtype=object)[by_rank]
    for family in np.split(ranked, np.cumsum(np.bincount(rank))[:-1]):
        if len(family) >= 2:
            pts = " ".join(family.tolist()).replace(sep, ",")
            out.append(f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="1"/>')
    # the markers, a line each: the pairs joined by the text from the end of
    # one marker to the cx=" of the next
    pairs[0] = '<circle cx="' + pairs[0]
    pairs[-1] += end
    out.append(f'{end}\n<circle cx="'.join(pairs))
    return out


def _clip_halfplane(corners):
    """Clip the region c - b >= 0 against the data box (Sutherland-Hodgman)."""
    def inside(pt):
        return pt[1] - pt[0] >= 0

    def intersect(p1, p2):
        # intersection of segment with the line c = b
        d1 = p1[1] - p1[0]
        d2 = p2[1] - p2[0]
        t = d1 / (d1 - d2)
        return (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))

    out = []
    n = len(corners)
    for i in range(n):
        cur, nxt = corners[i], corners[(i + 1) % n]
        if inside(cur):
            out.append(cur)
            if not inside(nxt):
                out.append(intersect(cur, nxt))
        elif inside(nxt):
            out.append(intersect(cur, nxt))
    return out


def emit(obj, fmt: str, path: str) -> None:
    """Write a ScanResult or Branch as csv, json, or svg."""
    if fmt == "csv":
        text = to_csv(obj)
    elif fmt == "json":
        text = to_json(obj)
    elif fmt == "svg":
        text = to_svg(obj)
    else:
        raise MvaError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
