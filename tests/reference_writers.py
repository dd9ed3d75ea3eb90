"""The per-point CSV and SVG writers that `scanner.to_csv` and
`scanner.to_svg` replaced, kept as the reference they must match byte for
byte.

Each number goes through its own Python-level call, and the SVG families
come from dicts and `sorted`.  The code is the original's, except that the
SVG works on float(v) and pads a box of one value until its ends differ.
It shares with the library only the plot's constants and
`_clip_halfplane`, which did not change.  JSON's reference is
`json.dumps(obj.to_dict(), indent=2) + "\\n"`.
"""

import math

from mvabscissa import scanner
from mvabscissa.scanner import (_SVG_H, _SVG_MARGIN, _SVG_W, CSV_HEADER,
                                _clip_halfplane)


def fmt_float(v: float) -> str:
    """Canonical shortest round-trip decimal form."""
    return repr(float(v))


def _point_rows(obj):
    if isinstance(obj, scanner.ScanResult):
        return [(q.b, q.c, q.residual, col)
                for q, col in zip(obj.points, obj.columns)]
    return [(q.b, q.c, q.residual, i) for i, q in enumerate(obj.points)]


def to_csv(obj) -> str:
    """CSV with header b,c,residual,column; LF endings; one trailing LF."""
    lines = [CSV_HEADER]
    for b, c, r, col in _point_rows(obj):
        lines.append(f"{fmt_float(b)},{fmt_float(c)},{fmt_float(r)},{col}")
    return "\n".join(lines) + "\n"


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
    # on Python floats, which give inf - inf as nan without a warning
    rows = [(float(b), float(c), r, col) for b, c, r, col in _point_rows(obj)]
    bs = [r[0] for r in rows] or [0.0, 1.0]
    cs = [r[1] for r in rows] or [0.0, 1.0]
    xmin, xmax = min(bs), max(bs)
    ymin, ymax = min(cs), max(cs)
    # a single value is padded by 0.5, or by its float spacing where 0.5
    # does not move it
    xpad = 0.05 * (xmax - xmin) or max(0.5, math.ulp(xmin))
    ypad = 0.05 * (ymax - ymin) or max(0.5, math.ulp(ymin))
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
