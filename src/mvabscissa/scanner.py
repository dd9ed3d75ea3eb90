"""Full zero-set scans of F(b, c) over a b-grid, plus CSV/JSON/SVG output.

The columns share one grid of f' over [a0, b_max] (see mvt.solve_columns),
but no continuity assumption: each column's roots are bracketed and refined
on their own, so the scanner doubles as an oracle for the continuation
module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import mvt
from .errors import MvaError

CSV_HEADER = "b,c,residual,column"

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
    if not (p.a0 < b_min < b_max):
        raise ValueError("need a0 < b_min < b_max")
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

def fmt_float(v: float) -> str:
    """Canonical shortest round-trip decimal form."""
    return repr(float(v))


def _point_rows(obj):
    if isinstance(obj, ScanResult):
        return [(q.b, q.c, q.residual, col)
                for q, col in zip(obj.points, obj.columns)]
    return [(q.b, q.c, q.residual, i) for i, q in enumerate(obj.points)]


def to_csv(obj) -> str:
    """CSV with header b,c,residual,column; LF endings; one trailing LF."""
    lines = [CSV_HEADER]
    for b, c, r, col in _point_rows(obj):
        lines.append(f"{fmt_float(b)},{fmt_float(c)},{fmt_float(r)},{col}")
    return "\n".join(lines) + "\n"


def to_json(obj) -> str:
    """json.dumps(obj.to_dict(), indent=2) and a trailing LF, byte for byte.

    The points are the last key of to_dict().  When there are points and
    their values are all floats and ints, the values are written by one
    json.dumps call without indent, about twice as fast, and set into the
    indented layout.
    """
    d = obj.to_dict()
    points = d["points"]
    values = [v for q in points for v in q.values()]
    if not points or not set(map(type, values)) <= {float, int}:
        return json.dumps(d, indent=2) + "\n"
    del d["points"]
    texts = iter(json.dumps(values)[1:-1].split(", "))
    prefixes, items = {}, []
    for q in points:
        keys = tuple(q)
        if keys not in prefixes:
            prefixes[keys] = [f"      {json.dumps(k)}: " for k in keys]
        fields = ",\n".join(map(str.__add__, prefixes[keys], islice(texts, len(keys))))
        items.append(f"    {{\n{fields}\n    }}")
    head = json.dumps(d, indent=2)[:-2]
    body = ",\n".join(items)
    return f'{head},\n  "points": [\n{body}\n  ]\n}}\n'


def _families(rows):
    """Group points into polyline families by their c-rank within each column."""
    by_col = {}
    for b, c, r, col in rows:
        by_col.setdefault(col, []).append((b, c))
    families = {}
    for col in sorted(by_col):
        for rank, (b, c) in enumerate(sorted(by_col[col], key=lambda t: t[1])):
            families.setdefault(rank, []).append((b, c))
    return [families[r] for r in sorted(families)]


def to_svg(obj) -> str:
    """Standalone SVG 1.1 plot: shaded c >= b region, family polylines, markers."""
    rows = _point_rows(obj)
    bs = [r[0] for r in rows] or [0.0, 1.0]
    cs = [r[1] for r in rows] or [0.0, 1.0]
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
            (fmt_float(round(xmin, 6)), px(xmin), _SVG_H - _SVG_MARGIN + 15, "start"),
            (fmt_float(round(xmax, 6)), px(xmax), _SVG_H - _SVG_MARGIN + 15, "end"),
            (fmt_float(round(ymin, 6)), _SVG_MARGIN - 5, py(ymin), "end"),
            (fmt_float(round(ymax, 6)), _SVG_MARGIN - 5, py(ymax), "end")):
        parts.append(f'<text x="{x:.2f}" y="{y:.2f}" font-size="10" '
                     f'text-anchor="{anchor}">{label}</text>')

    for fam in _families(rows):
        if len(fam) >= 2:
            pts = " ".join(f"{px(b):.2f},{py(c):.2f}" for b, c in fam)
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="#1f6fb2" stroke-width="1"/>')
    for b, c, _r, _col in rows:
        parts.append(f'<circle cx="{px(b):.2f}" cy="{py(c):.2f}" r="1.5" '
                     f'fill="#1f3fb2"/>')
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
