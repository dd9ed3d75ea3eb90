"""Full zero-set scans and CSV/JSON/SVG serialization."""

import copy
import dataclasses
import json
import math
import pickle
import tracemalloc

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

    @pytest.mark.parametrize("solve", [
        lambda p: scanner.scan(p, 0.1, 3.5, continuation.MAX_POINTS + 1),
        lambda p: scanner.scan(p, 0.1, 3.5, 10, c_grid_n=mvt.MAX_GRID_N + 1),
        lambda p: mvt.abscissae(p, 2.5, grid_n=mvt.MAX_GRID_N + 1),
    ])
    def test_sizes_above_their_caps_are_refused_before_any_array(self, cubic, solve):
        # 10^8 columns were killed from outside, out of memory
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="must be >= "):
                solve(cubic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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
    # a numpy float64 beside an infinity: the reference computed inf - inf
    # on numpy scalars, which warns
    @example(continuation.Branch(points=[
        mvt.SolutionPoint(0.0, c, 0.0) for c in (0.0, np.float64(0.0), 0.0, math.inf)]))
    def test_svg(self, obj):
        _assert_same_output(scanner.to_svg, reference_writers.to_svg, obj)

    @pytest.mark.parametrize("big", [4503599627370498.0, np.float64(4503599627370498.0)],
                             ids=["float", "float64"])
    def test_svg_of_a_box_that_padding_by_half_cannot_widen(self, big):
        # big +/- 0.5 rounds back to big, so the box had no height or width
        for b, c in ((0.0, big), (big, 0.0), (big, big)):
            obj = continuation.Branch(points=[mvt.SolutionPoint(b, c, 0.0)])
            svg = scanner.to_svg(obj)
            assert svg == reference_writers.to_svg(obj)
            assert '<circle cx="400.00" cy="300.00"' in svg

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


_WRITERS = {"csv": (scanner.to_csv, reference_writers.to_csv),
            "json": (scanner.to_json, _json_reference),
            "svg": (scanner.to_svg, reference_writers.to_svg)}


def _change(data, obj):
    """One change made in place to obj between two writes: a point replaced
    by an equal-valued copy or by another value, a point appended or
    removed, one column changed, points rebound to a new list of the same
    objects, a text holding "%" set, or none."""
    points, scan = obj.points, isinstance(obj, scanner.ScanResult)
    kinds = ["none", "append", "rebind", "percent"]
    kinds += ["copy", "value", "remove"] + ["column"] * scan if points else []
    kind = data.draw(st.sampled_from(kinds))
    i = data.draw(st.integers(0, len(points) - 1)) if points else 0
    # c without NaN, as for test_svg
    value_kind = data.draw(st.sampled_from(["finite", "float", "any"]))
    values, cs = _values(value_kind), _values(value_kind, nan=False)
    column = st.builds(lambda make, k: make(k), st.sampled_from([int, np.int64, lambda k: k == 1]),
                       st.integers(0, 3))
    if kind == "copy":
        points[i] = dataclasses.replace(points[i])
    elif kind == "value":
        points[i] = dataclasses.replace(points[i], **data.draw(
            st.fixed_dictionaries({}, optional={"b": values, "c": cs, "residual": values})))
    elif kind == "append":
        b = data.draw(st.one_of(values, st.sampled_from([q.b for q in points] or [0.5])))
        points.append(mvt.SolutionPoint(b, data.draw(cs), data.draw(values)))
        if scan:
            obj.columns.append(data.draw(column))
    elif kind == "remove":
        del points[i]
        if scan:
            del obj.columns[i]
    elif kind == "column":
        obj.columns[i] = data.draw(column)
    elif kind == "rebind":
        obj.points = list(points)
    elif kind == "percent":
        setattr(obj, "expression" if scan else "seed_case", data.draw(st.sampled_from(
            ["x%s", "%(b)s % 100%%", "%"])))


def _same_fields(a, b):
    """a and b have equal fields, NaN and numpy values compared by repr."""
    return type(a) is type(b) and repr(a) == repr(b) and repr(a.to_dict()) == repr(b.to_dict())


class TestStoredTexts:
    """The texts a write keeps on a result, and the writes that reuse them."""

    @settings(max_examples=300, deadline=None)
    @given(_writer_inputs(c_nan=False), st.data())
    def test_writes_between_changes_match_reference(self, obj, data):
        for _ in range(data.draw(st.integers(1, 8))):
            name = data.draw(st.sampled_from(sorted(_WRITERS)))
            _assert_same_output(*_WRITERS[name], obj)
            _change(data, obj)
        unwritten = dataclasses.replace(obj)
        assert obj == unwritten and _same_fields(obj, unwritten)
        for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert _same_fields(twin, unwritten)
            for name in sorted(_WRITERS):
                _assert_same_output(*_WRITERS[name], twin)

    def test_csv_json_csv_format_each_float_once(self, cubic_scan, monkeypatch):
        want = (scanner.to_csv(dataclasses.replace(cubic_scan)),
                _json_reference(cubic_scan))
        formatted = []

        def counting(v):
            formatted.append(v)
            return repr(v)

        monkeypatch.setattr(scanner, "repr", counting, raising=False)
        writes = (scanner.to_csv, scanner.to_json, scanner.to_csv)
        assert [w(cubic_scan) for w in writes] == [want[0], want[1], want[0]]
        once = len(formatted)
        # c and residual once a point, b once a column
        assert once == 2 * len(cubic_scan.points) + len(set(cubic_scan.columns))
        cubic_scan.points[7] = dataclasses.replace(cubic_scan.points[7])
        assert [w(cubic_scan) for w in writes] == [want[0], want[1], want[0]]
        assert len(formatted) == 2 * once

    def test_an_equal_column_of_another_type_is_written_anew(self, cubic_scan):
        # 0 == False == 0.0 == np.int64(0), but each is written its own way
        assert cubic_scan.columns[0] == 0
        for column in (False, 0.0, np.int64(0), 0):
            scanner.to_csv(cubic_scan)
            cubic_scan.columns[0] = column
            _assert_same_output(scanner.to_csv, reference_writers.to_csv, cubic_scan)
            _assert_same_output(scanner.to_json, _json_reference, cubic_scan)

    def test_a_written_result_is_equal_to_an_unwritten_one(self, cubic_scan):
        unwritten = copy.deepcopy(cubic_scan)
        text = scanner.to_csv(cubic_scan)
        scanner.to_json(cubic_scan)
        assert cubic_scan == unwritten and repr(cubic_scan) == repr(unwritten)
        assert cubic_scan.to_dict() == unwritten.to_dict()
        assert dataclasses.replace(cubic_scan, tol=1.0) == dataclasses.replace(unwritten, tol=1.0)
        assert dataclasses.fields(cubic_scan) == dataclasses.fields(unwritten)
        assert scanner.to_csv(unwritten) == text


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
