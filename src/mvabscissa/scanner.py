"""Full zero-set scans of F(b, c) over a b-grid, plus CSV/JSON/SVG output.

The columns share one grid of f' over [a0, b_max] (see mvt.solve_columns),
but no continuity assumption: each column's roots are bracketed and refined
on their own, so the scanner doubles as an oracle for the continuation
module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter

import numpy as np

from . import mvt
from .errors import MvaError

CSV_HEADER = "b,c,residual,column"
_JSON_KEYS = ("b", "c", "residual", "column")
_NON_FINITE = {"nan", "inf", "-inf"}

_SVG_W, _SVG_H = 800, 600
_SVG_MARGIN = 40


@dataclass
class ScanResult:
    expression: str
    a0: float
    domain: tuple
    b_min: float
    b_max: float
    b_count: int
    c_grid_n: int
    tol: float
    points: list = field(default_factory=list)      # SolutionPoint, sorted by (b, c)
    columns: list = field(default_factory=list)     # per-point column index
    degenerate_columns: list = field(default_factory=list)

    def to_dict(self):
        return {
            "expression": self.expression,
            "a0": self.a0,
            "domain": list(self.domain),
            "b_grid": {"min": self.b_min, "max": self.b_max, "count": self.b_count},
            "c_grid_n": self.c_grid_n,
            "tol": self.tol,
            "degenerate_columns": self.degenerate_columns,
            "points": [{"b": q.b, "c": q.c, "residual": q.residual, "column": col}
                       for q, col in zip(self.points, self.columns)],
        }


def scan(p: mvt.Problem, b_min: float, b_max: float, b_count: int,
         c_grid_n: int = mvt.DEFAULT_GRID_N, tol: float = mvt.DEFAULT_TOL) -> ScanResult:
    """All abscissae for each b on a uniform grid of b_count columns."""
    if not (p.a0 < b_min < b_max < np.inf):
        raise ValueError("need finite a0 < b_min < b_max, "
                         f"got a0={p.a0!r}, b_min={b_min!r}, b_max={b_max!r}")
    if b_count < 2:
        raise ValueError("b_count must be >= 2")
    p = p.covering(p.domain[0], max(b_max, p.domain[1]))

    result = ScanResult(expression=p.expression, a0=p.a0, domain=p.domain,
                        b_min=b_min, b_max=b_max, b_count=b_count,
                        c_grid_n=c_grid_n, tol=tol)
    columns = mvt.solve_columns(p, np.linspace(b_min, b_max, b_count),
                                tol=tol, grid_n=c_grid_n)
    for col, points in enumerate(columns):
        if points is None:
            result.degenerate_columns.append(col)
            continue
        result.points.extend(points)
        result.columns.extend([col] * len(points))
    return result


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _texts(obj):
    """The fields of to_csv: repr(float(v)) of the points' b, c and residual,
    c and residual made as they are read, and the columns.  b is formatted
    once per run of points that share one b object, as a scan's column does."""
    points = obj.points
    bs, last = [], object()
    for q in points:
        if q.b is not last:
            last, text = q.b, repr(float(q.b))
        bs.append(text)
    cs, rs = (map(repr, map(float, map(attrgetter(k), points))) for k in ("c", "residual"))
    return bs, cs, rs, obj.columns if isinstance(obj, ScanResult) else range(len(points))


def to_csv(obj) -> str:
    """CSV with header b,c,residual,column; LF endings; one trailing LF."""
    flat = tuple(chain.from_iterable(zip(*_texts(obj))))
    return (CSV_HEADER + "\n" + "%s,%s,%s,%s\n" * (len(flat) // 4)) % flat


def to_json(obj) -> str:
    """json.dumps(obj.to_dict(), indent=2) and a trailing LF, byte for byte.

    The points are the last key of to_dict().  When their b, c and residual
    are all finite floats and their columns ints, json.dumps would write
    them as the texts of to_csv, so one template sets those texts into the
    indented layout of the other keys.
    """
    values = chain.from_iterable(map(attrgetter("b", "c", "residual"), obj.points))
    if set(map(type, values)) == {float}:
        *fields, columns = _texts(obj)
        if isinstance(obj, ScanResult):
            fields.append(columns)
        flat = tuple(chain.from_iterable(zip(*fields)))
        if _NON_FINITE.isdisjoint(flat) and set(map(type, columns)) <= {int}:
            item = ",\n".join(f'      "{k}": %s' for k in _JSON_KEYS[:len(fields)])
            body = (f"    {{\n{item}\n    }},\n" * (len(flat) // len(fields)))[:-2]
            head = json.dumps(replace(obj, points=[]).to_dict(), indent=2)[:-len("[]\n}")]
            return f"{head}[\n{body % flat}\n  ]\n}}\n"
    return json.dumps(obj.to_dict(), indent=2) + "\n"


def to_svg(obj) -> str:
    """Standalone SVG 1.1 plot: shaded c >= b region, family polylines, markers.

    Family k joins the points of c-rank k in their columns, in column order."""
    points = obj.points
    n = len(points)
    bs = [q.b for q in points] or [0.0, 1.0]
    cs = [q.c for q in points] or [0.0, 1.0]
    xmin, xmax = min(bs), max(bs)
    ymin, ymax = min(cs), max(cs)
    xpad = 0.05 * (xmax - xmin) or 0.5
    ypad = 0.05 * (ymax - ymin) or 0.5
    xmin, xmax = xmin - xpad, xmax + xpad
    ymin, ymax = ymin - ypad, ymax + ypad

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

    if n:
        c = np.array(cs, dtype=float)
        # overflow and inf - inf give inf and nan without a warning, as on Python floats
        with np.errstate(over="ignore", invalid="ignore"):
            xy = np.column_stack((px(np.array(bs, dtype=float)), py(c)))
        # sorted by column, then by c: a point's rank is its place in its column
        cols = np.asarray(obj.columns if isinstance(obj, ScanResult) else range(n))
        order = np.lexsort((c, cols))
        rank = np.arange(n) - np.searchsorted(cols[order], cols[order])
        by_rank = order[np.argsort(rank, kind="stable")]
        for family in np.split(xy[by_rank], np.cumsum(np.bincount(rank))[:-1]):
            if len(family) >= 2:
                pts = " ".join(["%.2f,%.2f"] * len(family)) % tuple(family.ravel().tolist())
                parts.append(f'<polyline points="{pts}" fill="none" '
                             f'stroke="#1f6fb2" stroke-width="1"/>')
        parts.append("\n".join(['<circle cx="%.2f" cy="%.2f" r="1.5" fill="#1f3fb2"/>'] * n)
                     % tuple(xy.ravel().tolist()))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
