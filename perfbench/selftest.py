"""Show that every check of the benchmark accepts the program's answer and
rejects it when one number in it is moved by 1e-6 (relative above 1).

    python3 perfbench/selftest.py [--seed 1]

Exits 0 when every check behaves so, 1 otherwise.  The README command
``scan --format svg`` is the exception: its SVG rounds coordinates to
0.01 px, so its check counts markers and cannot see such a change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def nudge(x):
    return x + 1e-6 * max(1.0, abs(x))


def nudge_text(text, old):
    """text with the first occurrence of repr(old) replaced by its nudge."""
    assert repr(old) in text, old
    return text.replace(repr(old), repr(nudge(old)), 1)


def _first_row_c(csv_text):
    return float(csv_text.split("\n")[1].split(",")[1])


def variants(name, answer):
    """Copies of answer with one number moved by 1e-6."""
    if name.startswith("scan "):
        csv_text, json_text, svg_text = answer
        c = _first_row_c(csv_text)
        return [(nudge_text(csv_text, c), nudge_text(json_text, c), svg_text)]
    if name.startswith("abscissae "):
        return [(nudge(answer[0]),) + answer[1:]] if answer else []
    if name.startswith("trace"):
        (b, c), *rest = answer
        return [((b, nudge(c)), *rest)]
    if name.startswith("guaranteed "):
        c0, pts, case = answer
        i = len(pts) - 1
        moved = pts[:i] + ((pts[i][0], nudge(pts[i][1])),)
        return [(nudge(c0), pts, case), (c0, moved, case)]
    if name == "branch seeds quintic":
        pair, branches = answer
        (b, c), other = pair
        first = branches[0]
        moved = first[:-1] + ((first[-1][0], nudge(first[-1][1])),)
        return [(((b, nudge(c)), other), branches), (pair, (moved,) + branches[1:])]
    if name.startswith("classify "):
        report, wx, wy, x, back = answer
        moved = report[:3] + (nudge(report[3]),) + report[4:]
        return [(moved, wx, wy, x, back), (report, wx, wy, x, nudge(back))]
    if name == "implicit_solve cubic":
        return [nudge(answer)]
    if name == "cli trace":
        rc, out, csv_text = answer
        return [(rc, out, nudge_text(csv_text, _first_row_c(csv_text)))]
    if name == "cli abscissae":
        rc, out, text = answer
        first = out.split()[0]
        return [(rc, out.replace(first, repr(nudge(float(first))), 1), text)]
    if name == "cli classify":
        rc, out, text = answer
        d = json.loads(out)
        d["alpha0"] = nudge(d["alpha0"])
        return [(rc, json.dumps(d), text)]
    if name == "cli scan":
        return []
    raise KeyError(name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    import mvabscissa
    import mvabscissa.cli  # noqa: F401  (the workloads call mva.cli)
    import oracles
    import workloads

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    bad = 0
    for workload in ("scan", "trace", "point"):
        spec = workloads.inputs(workload, args.seed)
        for op in workloads.build(workload, mvabscissa, spec, out):
            answer, aux = op.call()
            try:
                op.check(answer, aux)
                verdict = "accepted"
            except oracles.NoAnswer as e:
                verdict = f"failed ({e})"
            except oracles.Mismatch as e:
                verdict, bad = f"WRONG ({e})", bad + 1
            rejected = 0
            moved = variants(op.name, answer) if verdict == "accepted" else []
            for v in moved:
                try:
                    op.check(v, aux)
                except oracles.Mismatch:
                    rejected += 1
            bad += len(moved) - rejected
            print(f"{workload:5s} {op.name[:58]:58s} {verdict[:60]}; "
                  f"rejected {rejected} of {len(moved)} nudged copies")
    print("self-test " + ("passed" if not bad else f"FAILED: {bad} problems"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
