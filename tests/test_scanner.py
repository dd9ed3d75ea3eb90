"""Full zero-set scans and CSV/JSON/SVG serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvabscissa as mva
import reference_writers
from mvabscissa import continuation, mvt, scanner
from mvabscissa.errors import MvaError

from conftest import (cubic_lower, cubic_upper, grid_sign_change_roots,
                      read_csv, x_fourth_branch)


@pytest.fixture
def parabola_scan(parabola):
    return scanner.scan(parabola, 0.05, 4.0, 80)


@pytest.fixture
def cubic_scan(cubic):
    return scanner.scan(cubic, 0.5, 3.0, 60, c_grid_n=1024)


class TestScan:
    def test_parabola_points_on_half_line(self, parabola_scan):
        assert len(parabola_scan.points) == 80
        for q in parabola_scan.points:
            assert abs(q.c - q.b / 2.0) <= 1e-6

    def test_cubic_families_match_closed_forms(self, cubic_scan):
        for q in cubic_scan.points:
            err = min(abs(q.c - cubic_lower(q.b)), abs(q.c - cubic_upper(q.b)))
            assert err <= 1e-6

    def test_every_column_has_a_point(self, parabola_scan):
        assert sorted(set(parabola_scan.columns)) == list(range(80))

    def test_points_sorted_by_b_then_c(self, cubic_scan):
        keys = [(q.b, q.c) for q in cubic_scan.points]
        assert keys == sorted(keys)

    def test_no_points_in_upper_half_plane(self, cubic_scan):
        assert all(q.c < q.b for q in cubic_scan.points)

    def test_degenerate_column_is_recorded(self):
        # 40 columns fill more than two blocks of the default grid
        p = mva.Problem(mva.parse("x"), 0.0, 1.0)
        for count in (5, 40):
            res = scanner.scan(p, 0.2, 1.0, count)
            assert res.degenerate_columns == list(range(count))
            assert res.points == []

    def test_a_constant_up_to_rounding_is_degenerate(self):
        # F of sin^2 + cos^2 is rounding noise next to f(a0) / (b - a0),
        # one of the terms of its secant slope
        p = mva.Problem(mva.parse("sin(x)^2 + cos(x)^2"), 0.0, 1.0)
        res = scanner.scan(p, 0.2, 1.0, 5)
        assert res.degenerate_columns == list(range(5)) and res.points == []

    def test_degenerate_and_live_columns_share_a_block(self):
        # f = 0 for x <= 0 and x^2 after: F(b, .) vanishes for b < 0, and for
        # b > 0 the one abscissa is c = b^2 / (2 (b + 1)).  Columns 16-19 are
        # degenerate and 20-23 live in the third block.
        p = mva.Problem(mva.parse("(x + sqrt(x^2))^2/4"), -1.0, 1.0)
        res = scanner.scan(p, -0.9, 0.9, 40)
        assert res.degenerate_columns == list(range(20))
        assert res.columns == list(range(20, 40))
        for q in res.points:
            assert abs(q.c - q.b ** 2 / (2.0 * (q.b + 1.0))) <= 1e-12

    def test_column_near_a0_beside_a_far_column(self, parabola):
        # b = 1e-11 is clear of a0 = 0 on its own scale, whatever the other
        # columns hold
        res = scanner.scan(parabola, 1e-11, 100.0, 2)
        assert res.columns == [0, 1]
        for q in res.points:
            assert abs(q.c - q.b / 2.0) <= 1e-12 * max(1.0, q.b)

    def test_x_fourth_scan_completes(self, x_fourth):
        res = scanner.scan(x_fourth, -0.9, 2.0, 400)
        assert res.columns == list(range(400))
        for q in res.points:
            t = x_fourth_branch(q.b) ** 3
            assert abs(q.c ** 3 - t) <= 1e-12 * max(1.0, abs(t))

    def test_bad_grid_rejected(self, parabola):
        with pytest.raises(ValueError):
            scanner.scan(parabola, -1.0, 2.0, 10)
        with pytest.raises(ValueError):
            scanner.scan(parabola, 0.5, 2.0, 1)

    def test_non_finite_b_range_names_its_bound(self, parabola):
        # b_max = inf was refused by Problem.covering, with a message that
        # named neither b_max nor its value
        for b_min, b_max, shown in ((0.1, math.inf, "b_max=inf"), (0.1, math.nan, "b_max=nan"),
                                    (math.nan, 2.0, "b_min=nan")):
            with pytest.raises(ValueError, match=f"need finite a0 < b_min < b_max, got .*{shown}"):
                scanner.scan(parabola, b_min, b_max, 10)

    def test_completeness_against_finer_oracle(self, cubic):
        res = scanner.scan(cubic, 0.5, 3.0, 12, c_grid_n=512)
        for col, b in enumerate(np.linspace(0.5, 3.0, 12)):
            b = float(b)
            oracle = grid_sign_change_roots(
                lambda cs: mvt.big_f(cubic, b, cs)[0],
                cubic.a0 + 1e-9, b - 1e-9, 5121)
            mine = [q.c for q, cc in zip(res.points, res.columns) if cc == col]
            c_res = (b - cubic.a0) / 512
            for r in oracle:
                assert any(abs(c - r) <= c_res for c in mine)


class TestCsv:
    def test_round_trip_is_byte_identical(self, parabola_scan):
        text = scanner.to_csv(parabola_scan)
        rows = read_csv(text)
        points = [mvt.SolutionPoint(b, c, r) for b, c, r, _k in rows]
        columns = [k for _b, _c, _r, k in rows]
        clone = scanner.ScanResult(
            expression=parabola_scan.expression, a0=parabola_scan.a0,
            domain=parabola_scan.domain, b_min=parabola_scan.b_min,
            b_max=parabola_scan.b_max, b_count=parabola_scan.b_count,
            c_grid_n=parabola_scan.c_grid_n, tol=parabola_scan.tol,
            points=points, columns=columns)
        assert scanner.to_csv(clone) == text

    def test_header_and_line_endings(self, parabola_scan):
        text = scanner.to_csv(parabola_scan)
        assert text.startswith("b,c,residual,column\n")
        assert "\r" not in text
        assert text.endswith("\n") and not text.endswith("\n\n")

    def test_determinism_across_runs(self, parabola):
        a = scanner.to_csv(scanner.scan(parabola, 0.05, 4.0, 40))
        b = scanner.to_csv(scanner.scan(parabola, 0.05, 4.0, 40))
        assert a == b

    def test_first_row_parses_to_first_point(self, cubic_scan):
        text = scanner.to_csv(cubic_scan)
        q = cubic_scan.points[0]
        assert read_csv(text)[0] == (q.b, q.c, q.residual, cubic_scan.columns[0])

    def test_empty_branch_is_header_only(self):
        assert scanner.to_csv(continuation.Branch()) == "b,c,residual,column\n"


class TestJson:
    def test_fields(self, cubic_scan):
        d = json.loads(scanner.to_json(cubic_scan))
        assert d["a0"] == 0.0
        assert d["b_grid"] == {"min": 0.5, "max": 3.0, "count": 60}
        assert len(d["points"]) == len(cubic_scan.points)
        first = d["points"][0]
        assert sorted(first) == ["b", "c", "column", "residual"]

    def test_matches_reference(self, cubic_scan, parabola):
        # a corpus scan, an all-degenerate scan with no points, a traced
        # branch, whose points have no "column", and an empty branch
        no_points = scanner.scan(mva.Problem(mva.parse("x"), 0.0, 1.0), 0.2, 1.0, 5)
        branch = continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.0, 3.0), step=0.05)
        assert branch.points and not no_points.points
        for obj in (cubic_scan, no_points, branch, continuation.Branch()):
            assert scanner.to_json(obj) == json.dumps(obj.to_dict(), indent=2) + "\n"

    def test_hand_built_results_match_reference(self):
        for values in ([(math.nan, 0.5, 0.0), (1.0, -0.0, math.inf), (2.0, -math.inf, 1e-300)],
                       [(np.float64(1.5), 0.75, 0.0), (2.0, 1.0, np.float64(-0.0))],
                       [(1, True, None)]):
            points = [mvt.SolutionPoint(*v) for v in values]
            res = scanner.ScanResult(
                expression="x", a0=-0.0, domain=(-math.inf, math.nan), b_min=0.0,
                b_max=1.0, b_count=2, c_grid_n=64, tol=1e-10, points=points,
                columns=list(range(len(points))), degenerate_columns=[3])
            for obj in (res, continuation.Branch(points=points)):
                assert scanner.to_json(obj) == json.dumps(obj.to_dict(), indent=2) + "\n"


class TestSvg:
    def test_cubic_plot_structure(self, cubic_scan):
        svg = scanner.to_svg(cubic_scan)
        assert svg.startswith("<svg ")
        assert 'width="800" height="600"' in svg
        # one polyline per column-rank family, one shaded polygon
        assert svg.count("<polyline") == 2
        assert svg.count("<polygon") == 1
        assert svg.count("<circle") == len(cubic_scan.points)

    def test_branch_plot(self, parabola):
        br = continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.0, 3.0), step=0.05)
        svg = scanner.to_svg(br)
        assert svg.count("<polyline") == 1
        assert svg.count("<circle") == len(br.points)

    def test_no_external_references(self, cubic_scan):
        svg = scanner.to_svg(cubic_scan)
        assert "href" not in svg
        assert "url(" not in svg


# Hand-built results for the writers' oracle.  Their values are finite
# floats, as in a scan, or also NaN (optional) and infinities, or also numpy
# float64s and None, which float() refuses; their columns are ints, or also
# numpy int64s and bools.  b is drawn from a small pool, so that points
# share one b object or hold equal b values as distinct objects; signed
# zeros are drawn often, and the points come in any order.
def _values(kind, nan=True):
    floats = st.floats(allow_nan=nan and kind != "finite", allow_infinity=kind != "finite")
    values = st.one_of(floats, st.sampled_from([0.0, -0.0, 1.0]))
    return values if kind != "any" else st.one_of(values, floats.map(np.float64), st.none())


@st.composite
def _writer_inputs(draw, c_nan=True):
    kind = draw(st.sampled_from(["finite", "float", "any"]))
    pool = draw(st.lists(_values(kind), min_size=1, max_size=4))
    points = []
    for _ in range(draw(st.integers(0, 24))):
        b = draw(st.sampled_from(pool))
        if b is not None and draw(st.booleans()):
            b = float(repr(float(b)))   # equal value, another object
        points.append(mvt.SolutionPoint(b, draw(_values(kind, c_nan)), draw(_values(kind))))
    if draw(st.booleans()):
        return continuation.Branch(points=points, parameter=draw(st.sampled_from("bc")))
    kinds = st.sampled_from(draw(st.sampled_from([[int], [int, np.int64, lambda k: k == 1]])))
    columns = [draw(kinds)(draw(st.integers(0, 3))) for _ in points]
    return scanner.ScanResult(
        expression="x", a0=0.0, domain=(0.0, 1.0), b_min=0.1, b_max=1.0, b_count=4,
        c_grid_n=64, tol=1e-10, points=points, columns=columns,
        degenerate_columns=draw(st.lists(st.integers(0, 3), max_size=2)))


def _assert_same_output(write, reference, obj):
    """write(obj) is reference(obj) byte for byte, or raises as it does."""
    try:
        want = reference(obj)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        with pytest.raises(type(e)):
            write(obj)
    else:
        assert write(obj) == want


def _json_reference(obj):
    return json.dumps(obj.to_dict(), indent=2) + "\n"


_COLUMN_PAIRS = scanner.ScanResult(
    expression="x", a0=0.0, domain=(0.0, 1.0), b_min=0.1, b_max=1.0, b_count=4,
    c_grid_n=64, tol=1e-10, columns=[1, 0, 1, 1, 0],
    points=[mvt.SolutionPoint(b, c, 0.0) for b, c in
            ((0.5, 0.0), (0.25, 0.1), (0.5, -0.0), (0.5, -0.2), (0.25, 0.1))])


class TestWritersMatchReference:
    """The bulk writers against the per-point writers they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_writer_inputs())
    @example(continuation.Branch())
    @example(_COLUMN_PAIRS)
    @example(continuation.Branch(points=[mvt.SolutionPoint(math.nan, 0.5, 0.0)]))
    @example(continuation.Branch(points=[mvt.SolutionPoint(1.0, -math.inf, 0.0)]))
    @example(continuation.Branch(points=[mvt.SolutionPoint(1.0, 0.5, math.inf)]))
    def test_csv_and_json(self, obj):
        _assert_same_output(scanner.to_csv, reference_writers.to_csv, obj)
        _assert_same_output(scanner.to_json, _json_reference, obj)

    # the SVG ranks c by np.lexsort, which puts NaN last where sorted()
    # leaves it in place, so c is drawn without NaN; no scan holds a NaN
    @settings(max_examples=300, deadline=None)
    @given(_writer_inputs(c_nan=False))
    @example(continuation.Branch())
    @example(_COLUMN_PAIRS)
    def test_svg(self, obj):
        _assert_same_output(scanner.to_svg, reference_writers.to_svg, obj)

    def test_scans_and_branches(self, cubic_scan, parabola):
        branch = continuation.trace_c_of_b(parabola, 2.0, 1.0, (1.0, 3.0), step=0.05)
        for obj in (cubic_scan, branch):
            assert scanner.to_csv(obj) == reference_writers.to_csv(obj)
            assert scanner.to_svg(obj) == reference_writers.to_svg(obj)


@pytest.mark.parametrize("write", [scanner.to_csv, scanner.to_json, scanner.to_svg])
@pytest.mark.parametrize("residual", [0.0, None], ids=["floats", "not floats"])
@pytest.mark.parametrize("columns", [[1, 0, 1, 1], [1, 0, 1, 1, 0, 2]], ids=repr)
def test_writers_refuse_a_column_per_point_too_few_or_many(write, residual, columns):
    # to_csv and to_json wrote the shorter of the two, and to_svg raised
    # from np.lexsort
    obj = dataclasses.replace(_COLUMN_PAIRS, columns=columns, points=[
        dataclasses.replace(q, residual=residual) for q in _COLUMN_PAIRS.points])
    with pytest.raises(ValueError, match=f"^ScanResult has 5 points but {len(columns)} columns$"):
        write(obj)


class TestEmit:
    def test_formats(self, tmp_path, parabola_scan):
        for fmt in ("csv", "json", "svg"):
            path = tmp_path / f"out.{fmt}"
            scanner.emit(parabola_scan, fmt, str(path))
            assert path.read_bytes()
        csv_bytes = (tmp_path / "out.csv").read_bytes()
        assert csv_bytes == scanner.to_csv(parabola_scan).encode()

    def test_unknown_format(self, tmp_path, parabola_scan):
        with pytest.raises(MvaError):
            scanner.emit(parabola_scan, "png", str(tmp_path / "x.png"))
