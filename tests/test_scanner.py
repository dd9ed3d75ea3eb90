"""Full zero-set scans and CSV/JSON/SVG serialization."""

import json
import math

import numpy as np
import pytest

import mvabscissa as mva
from mvabscissa import continuation, mvt, scanner
from mvabscissa.errors import MvaError

from conftest import (cubic_lower, cubic_upper, grid_sign_change_roots,
                      x_fourth_branch)


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
        points, columns = scanner.read_csv(text)
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
        points, _ = scanner.read_csv(text)
        assert points[0] == cubic_scan.points[0]

    def test_empty_branch_is_header_only(self):
        assert scanner.to_csv(continuation.Branch()) == "b,c,residual,column\n"

    def test_bad_header_rejected(self):
        with pytest.raises(MvaError):
            scanner.read_csv("a,b,c\n1,2,3\n")


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
