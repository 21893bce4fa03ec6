import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import wedgepower
import wedgepower.cornercut as cornercut_module
import wedgepower.wedge as wedge_module
from wedgepower import BudgetError, SubsetSumTable, exceptional_triangle, truncated_quadrant
from wedgepower.cli import main
from wedgepower.jsonio import parse_point_config

import oracles

DATA = Path(__file__).parent / "data"
FIRST_EXCEPTION_JSON = '{"dim": 2, "points": [[0, 1], [1, 0], [-1, -1], [0, 0]]}'
THIRD_EXCEPTION = [[0, 1], [-1, -1], [0, 0], [1, 0], [2, 0], [3, 0]]


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.json"
    path.write_text(FIRST_EXCEPTION_JSON)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWedgeCommand:
    def test_pair_sums_and_convexity_pipeline(self, capsys, tmp_path, e1_file):
        out_path = tmp_path / "w2.json"
        code, _, _ = run(capsys, "wedge", "--input", e1_file, "-p", "2", "--output", out_path)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload == {
            "dim": 2,
            "points": [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]],
            "in_range": True,
        }
        code, out, _ = run(capsys, "check-convex", "--input", out_path)
        assert code == 2
        report = json.loads(out)
        assert report["convex"] is False
        assert report["missing"] == [[0, 0]]

    def test_round_trip_is_lossless(self, capsys, e1_file, tmp_path):
        out_path = tmp_path / "echo.json"
        code, _, _ = run(capsys, "wedge", "--input", e1_file, "-p", "1", "--output", out_path)
        assert code == 0
        assert parse_point_config(out_path.read_text()) == parse_point_config(FIRST_EXCEPTION_JSON)

    def test_out_of_range_size(self, capsys, e1_file):
        code, out, err = run(capsys, "wedge", "--input", e1_file, "-p", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["points"] == []
        assert payload["in_range"] is False
        assert "no subsets" in err

    def test_wedge_prints_the_pinned_bytes(self, capsys):
        # written when every wedge power was read from a table of all layers, fed in input order
        code, out, _ = run(capsys, "wedge", "--input", DATA / "truncated-quadrant-8.json", "-p", "40")
        assert code == 0
        assert out == (DATA / "wedge-truncated-quadrant-8-p40.json").read_text()

    def test_method_flag_is_a_usage_error(self, capsys, e1_file):
        # bitset tables are the one way to a wedge power; there is no method to choose
        code, out, err = run(capsys, "wedge", "--input", e1_file, "-p", "2", "--method", "naive")
        assert (code, out) == (1, "")
        assert "--method" in err

    def test_table_budget_exceeded(self, capsys, tmp_path):
        far = tmp_path / "far.json"
        far.write_text(json.dumps({"dim": 3, "points": [[10000, 0, 0], [0, 9999, 1], [1, 2, 10000]]}))
        code, out, err = run(capsys, "wedge", "--input", far, "-p", "3")
        assert (code, out) == (1, "")
        assert "table budget" in err

    def test_far_translate_is_accepted(self, capsys, tmp_path):
        # a one-layer table's box is as wide as its layers, wherever the set lies: 2 x 2 cells
        far = tmp_path / "far.json"
        far.write_text(json.dumps({"dim": 2, "points": [[10**12, 5], [10**12 + 1, 5], [10**12, 6]]}))
        code, out, _ = run(capsys, "wedge", "--input", far, "-p", "2")
        assert code == 0
        assert json.loads(out) == {
            "dim": 2,
            "points": [[2 * 10**12, 11], [2 * 10**12 + 1, 10], [2 * 10**12 + 1, 11]],
            "in_range": True,
        }

    def test_out_of_memory(self, capsys, monkeypatch, e1_file):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(wedge_module, "SubsetSumTable", exhausted)
        code, out, err = run(capsys, "wedge", "--input", e1_file, "-p", "2")
        assert (code, out) == (1, "")
        assert "error: out of memory" in err


class TestVerificationCommands:
    def test_verify_polygon_conforms(self, capsys, e1_file):
        code, out, _ = run(capsys, "verify-polygon", "--input", e1_file)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "conforms"
        assert payload["exception_k"] == 1

    def test_verify_polygon_refuses_a_non_lattice_convex_input(self, capsys, tmp_path):
        # outside the theorem's hypothesis, so an input error rather than a counterexample
        hexagon = tmp_path / "hexagon.json"
        hexagon.write_text('{"dim": 2, "points": [[0, 0], [2, 0], [3, 1], [1, 3], [-1, 1], [1, 1]]}')
        code, out, err = run(capsys, "verify-polygon", "--input", hexagon)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {hexagon}: the configuration is not lattice-convex: "
            "its hull also holds (0, 1), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2)\n"
        )

    @pytest.mark.parametrize("name", ["exceptional-triangle-3", "truncated-quadrant-8"])
    def test_verify_polygon_prints_the_pinned_bytes(self, capsys, name):
        # the expected files were written by the full-depth reading, so they
        # pin the reflected missing lists of the sizes above N//2 too
        code, out, _ = run(capsys, "verify-polygon", "--input", DATA / f"{name}.json")
        assert code == 0
        assert out == (DATA / f"verify-polygon-{name}.json").read_text()

    @pytest.mark.parametrize("shift", [10**12, 10**30], ids=["12", "30"])  # by its power of ten
    @pytest.mark.parametrize(
        "command", [["verify-polygon"], ["p-good", "-p", "2"], ["wedge", "-p", "3"]], ids=["polygon", "p-good", "wedge"]
    )
    def test_far_translate_prints_the_near_output_moved(self, capsys, tmp_path, command, shift):
        # each layer's box starts at its own least sums, so a set moved by (shift, shift) costs
        # what it does near the origin; points of size p move by p times the shift
        near, far = tmp_path / "near.json", tmp_path / "far.json"
        near.write_text(json.dumps({"dim": 2, "points": THIRD_EXCEPTION}))
        far.write_text(json.dumps({"dim": 2, "points": [[x + shift for x in p] for p in THIRD_EXCEPTION]}))
        code, near_out, _ = run(capsys, command[0], "--input", near, *command[1:])
        assert code == 0
        code, far_out, _ = run(capsys, command[0], "--input", far, *command[1:])
        assert code == 0

        def back(point, size):
            return [x - size * shift for x in point]

        moved = json.loads(far_out)
        if "witness" in moved:
            moved["witness"] = back(moved["witness"], moved["p"])
        elif "base" in moved:
            moved["base"]["points"] = [back(p, 1) for p in moved["base"]["points"]]
            for entry in moved["per_p"]:
                entry["missing"] = [back(m, entry["p"]) for m in entry["missing"]]
        else:
            moved["points"] = [back(p, 3) for p in moved["points"]]
        assert moved == json.loads(near_out)

    def test_verify_polygon_over_the_table_budget_is_refused_before_allocating(self, capsys, tmp_path):
        # depth 1 over a primitive segment: 2 x (3e9 + 1) cells in 2 + 2 layers, above 2^33 bits
        far = tmp_path / "far.json"
        far.write_text('{"dim": 2, "points": [[0, 0], [1, 3000000000]]}')
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "verify-polygon", "--input", far)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert "table budget" in err
        assert peak < 1 << 20

    def test_verify_polygon_budget_applies_at_half_depth(self, capsys, monkeypatch):
        quadrant = truncated_quadrant(8)  # 45 points: a depth-22 table, where a depth-45 one was read
        half = SubsetSumTable(quadrant.points, 22)  # charged 23 layers and 2 for a shifted OR
        monkeypatch.setattr(wedge_module, "TABLE_BIT_BUDGET", half.total_cells * 25)
        with pytest.raises(BudgetError, match="table budget"):
            oracles.full_depth_verify_polygon(quadrant)
        code, out, _ = run(capsys, "verify-polygon", "--input", DATA / "truncated-quadrant-8.json")
        assert code == 0
        assert out == (DATA / "verify-polygon-truncated-quadrant-8.json").read_text()
        monkeypatch.setattr(wedge_module, "TABLE_BIT_BUDGET", half.total_cells * 25 - 1)
        code, out, err = run(capsys, "verify-polygon", "--input", DATA / "truncated-quadrant-8.json")
        assert (code, out) == (1, "")
        assert "table budget" in err

    def test_verify_grid(self, capsys):
        code, out, _ = run(capsys, "verify-grid", "--grid", "1x1")
        assert code == 0
        payload = json.loads(out)
        assert payload["configs"] == 10
        assert payload["violations"] == []

    def test_verify_grid_jobs_identical_output(self, capsys):
        _, sequential, _ = run(capsys, "verify-grid", "--grid", "2x1")
        _, parallel, _ = run(capsys, "verify-grid", "--grid", "2x1", "--jobs", "2")
        assert sequential == parallel

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_verify_grid_jobs_out_of_range(self, capsys, jobs):
        code, out, err = run(capsys, "verify-grid", "--grid", "1x1", "--jobs", jobs)
        assert code == 1
        assert out == ""
        assert "jobs must be between 1 and the CPU count" in err

    def test_p_good_exit_codes(self, capsys, e1_file, tmp_path):
        code, out, _ = run(capsys, "p-good", "--input", e1_file, "-p", "2")
        assert code == 2
        assert json.loads(out) == {"p": 2, "p_good": False, "witness": None}
        five = tmp_path / "five.json"
        five.write_text(json.dumps(
            {"dim": 2, "points": [[0, 0], [0, 1], [1, 0], [2, 0], [3, 0]]}
        ))
        code, out, _ = run(capsys, "p-good", "--input", five, "-p", "2")
        assert code == 0
        assert json.loads(out)["witness"] == [3, 0]

    @pytest.mark.parametrize(
        "command",
        [["p-good", "-p", "2"], ["check-convex"], ["verify-polygon"], ["equivalent", "--input", "square.json"]],
        ids=["p-good", "check-convex", "verify-polygon", "equivalent"],
    )
    def test_p_good_refuses_3d(self, capsys, tmp_path, monkeypatch, command):
        # planar proof steps: a 3D input is an input error, not a verdict, and the
        # error names its file (for equivalent the second, after a planar first)
        monkeypatch.chdir(tmp_path)
        Path("simplex.json").write_text('{"dim": 3, "points": [[0, 0, 0], [3, 0, 0], [0, 3, 0], [0, 0, 3], [1, 1, 1]]}')
        Path("square.json").write_text('{"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}')
        code, out, err = run(capsys, *command, "--input", "simplex.json")
        assert (code, out) == (1, "")
        assert err.startswith("error: simplex.json: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) < 200

    def test_cornercut_cell(self, capsys):
        code, out, _ = run(capsys, "cornercut", "-d", "2", "-B", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["convex"] is True
        assert payload["missing"] == []
        assert payload["wedge_size"] == 12

    def test_cornercut_above_the_bound_limit_is_refused_before_listing_points(self, capsys, monkeypatch):
        # -B 10^6 would list about 5e11 quadrant points
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "cornercut", "-d", "1", "-B", "1000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == "error: bound 1000000 is above the corner-cut bound limit of 1000\n"
        assert peak < 1 << 20
        monkeypatch.setattr(cornercut_module, "BOUND_LIMIT", 4)
        assert run(capsys, "cornercut", "-d", "2", "-B", "4")[0] == 0
        code, out, err = run(capsys, "cornercut", "-d", "2", "-B", "5")
        assert (code, out) == (1, "")
        assert "bound limit of 4" in err

    @pytest.mark.parametrize("d, bound", [(1, 2), (3, 4), (10, 12), (10, 3)])
    def test_cornercut_prints_the_pinned_bytes(self, capsys, d, bound):
        # written when every verdict compared a layer with its hull fill, before hull lattice
        # points were counted by Pick's theorem
        code, out, _ = run(capsys, "cornercut", "-d", d, "-B", bound)
        assert code == 0
        assert out == (DATA / f"cornercut-d{d}-B{bound}.json").read_text()

    def test_check_convex_prints_the_pinned_missing_corners(self, capsys):
        # a fill is built only to list what a layer misses, as the 2x2 square's corners do
        code, out, _ = run(capsys, "check-convex", "--input", DATA / "square-2-corners.json")
        assert code == 2
        assert out == (DATA / "check-convex-square-2-corners.json").read_text()

    def test_counterexample3d_report(self, capsys):
        code, out, _ = run(capsys, "counterexample3d")
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == [40, 40, 4]
        assert payload["witness"] == [49, 66, 29]
        assert payload["witness_in_wedge"] is False
        assert payload["witness_in_hull"] is True
        assert payload["slice_size"] == 6
        assert payload["min_level_attained"] == 712
        # written when the witness table held all 43 layers, fed in input order
        assert out == (DATA / "counterexample3d.json").read_text()


class TestEquivalentCommand:
    def test_translated_pair(self, capsys, e1_file, tmp_path):
        moved = tmp_path / "moved.json"
        moved.write_text(json.dumps(
            {"dim": 2, "points": [[1, 2], [2, 1], [0, 0], [1, 1]]}
        ))
        code, out, _ = run(capsys, "equivalent", "--input", e1_file, "--input", moved)
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert payload["map"]["matrix"] == [[1, 0], [0, 1]]
        assert payload["map"]["translation"] == [1, 1]

    def test_inequivalent_pair(self, capsys, e1_file, tmp_path):
        square = tmp_path / "square.json"
        square.write_text(json.dumps(
            {"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
        ))
        code, out, _ = run(capsys, "equivalent", "--input", e1_file, "--input", square)
        assert code == 2
        assert json.loads(out) == {"equivalent": False, "map": None}

    def test_sheared_square_prints_its_frozen_map(self, capsys, tmp_path):
        # the square has eight symmetries, so eight maps carry it onto its image
        square, sheared = tmp_path / "square.json", tmp_path / "sheared.json"
        square.write_text(json.dumps({"dim": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
        # the image under x -> ((1, 1), (0, 1)) x + (3, -2)
        sheared.write_text(json.dumps({"dim": 2, "points": [[3, -2], [4, -2], [4, -1], [5, -1]]}))
        code, out, _ = run(capsys, "equivalent", "--input", square, "--input", sheared)
        assert code == 0
        assert out == (
            '{\n  "equivalent": true,\n  "map": {\n    "matrix": [\n      [1, 1],\n'
            '      [1, 0]\n    ],\n    "translation": [3, -2]\n  }\n}\n'
        )

    def test_equivalent_prints_the_pinned_bytes(self, capsys):
        # the image is the triangle under x -> ((2, 1), (1, 1)) x + (5, -3); the expected
        # file was written when every frame's image was held in one list
        code, out, _ = run(capsys, "equivalent", "--input", DATA / "exceptional-triangle-3.json",
                           "--input", DATA / "exceptional-triangle-3-image.json")
        assert code == 0
        assert out == (DATA / "equivalent-exceptional-triangle-3.json").read_text()

    @pytest.mark.parametrize("name", ["triangle-4", "collinear-3"])
    def test_equivalent_prints_the_bytes_pinned_before_frames_were_keyed(self, capsys, name):
        # only one of the triangle's three corners has the least key, so only its frames
        # are read now; a collinear set keeps its two frames.  The expected files were
        # written when every corner's frames were read, both ways round
        code, out, _ = run(capsys, "equivalent", "--input", DATA / f"{name}.json",
                           "--input", DATA / f"{name}-image.json")
        assert code == 0
        assert out == (DATA / f"equivalent-{name}.json").read_text()

    def test_large_inequivalent_triangles(self, capsys, tmp_path):
        # 120 points and three corners each, but no map between them
        quadrant, thin = tmp_path / "quadrant.json", tmp_path / "thin.json"
        for path, config in ((quadrant, truncated_quadrant(14)), (thin, exceptional_triangle(117))):
            assert len(config) == 120
            path.write_text(json.dumps({"dim": 2, "points": [list(p) for p in config]}))
        code, out, _ = run(capsys, "equivalent", "--input", quadrant, "--input", thin)
        assert code == 2
        assert out == '{\n  "equivalent": false,\n  "map": null\n}\n'

    def test_needs_two_inputs(self, capsys, e1_file):
        code, _, err = run(capsys, "equivalent", "--input", e1_file)
        assert code == 1
        assert "two" in err


class TestRenderCommand:
    def test_byte_identical_runs(self, capsys, e1_file):
        code, first, _ = run(capsys, "render", "--input", e1_file, "--hull")
        assert code == 0
        _, second, _ = run(capsys, "render", "--input", e1_file, "--hull")
        assert first == second
        assert first.startswith("<?xml")
        assert first.count("<circle") == 4
        assert "<polygon" in first

    def test_without_hull(self, capsys, e1_file):
        _, out, _ = run(capsys, "render", "--input", e1_file)
        assert "<polygon" not in out
        assert out.count("<circle") == 4

    @pytest.mark.parametrize("name", ["exceptional-triangle-3", "single-point"])
    def test_hull_prints_the_pinned_bytes(self, capsys, name):
        # a polygon with points on its edges draws only its corners; a single point draws no hull
        code, out, _ = run(capsys, "render", "--input", DATA / f"{name}.json", "--hull")
        assert code == 0
        assert out == (DATA / f"render-hull-{name}.svg").read_text()

    def test_collinear_hull_is_a_frozen_polyline(self, capsys, tmp_path):
        diagonal = tmp_path / "diagonal.json"
        diagonal.write_text('{"dim": 2, "points": [[0, 0], [1, 1], [2, 2]]}')
        code, out, _ = run(capsys, "render", "--input", diagonal, "--hull")
        assert code == 0
        assert out == (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" width="140" height="140" viewBox="0 0 140 140">\n'
            '<rect width="140" height="140" fill="white"/>\n'
            '<polyline points="30,110 110,30" fill="none" stroke="black" stroke-width="2"/>\n'
            '<circle cx="30" cy="110" r="5" fill="black"/>\n'
            '<circle cx="70" cy="70" r="5" fill="black"/>\n'
            '<circle cx="110" cy="30" r="5" fill="black"/>\n'
            "</svg>\n"
        )

    def test_singleton(self, capsys, tmp_path):
        one = tmp_path / "one.json"
        one.write_text('{"dim": 2, "points": [[0, 0]]}')
        code, out, _ = run(capsys, "render", "--input", one)
        assert code == 0
        assert out.count("<circle") == 1

    def test_a_size_past_the_digit_limit_is_refused(self, capsys, tmp_path):
        # 4,299 nines make a drawing 4,301 digits wide, which the interpreter will not print;
        # 4,299 ones make one of 4,300 digits, which it will
        limit = sys.get_int_max_str_digits()
        wide, widest = tmp_path / "wide.json", tmp_path / "widest.json"
        wide.write_text('{"dim": 2, "points": [[' + "1" * 4299 + ", 0], [0, 0]]}")
        widest.write_text('{"dim": 2, "points": [[' + "9" * 4299 + ", 0], [0, 0]]}")
        code, out, _ = run(capsys, "render", "--input", wide)
        assert code == 0
        assert f'width="{int("1" * 4299) * 40 + 60}"' in out
        code, out, err = run(capsys, "render", "--input", widest)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {widest}:") and f"more than {limit} digits" in err
        assert len(err.encode()) < 200

    def test_rejects_3d(self, capsys, tmp_path):
        solid = tmp_path / "solid.json"
        solid.write_text('{"dim": 3, "points": [[0, 0, 0]]}')
        code, _, err = run(capsys, "render", "--input", solid)
        assert code == 1
        assert "planar" in err


class TestJsonSchema:
    @pytest.mark.parametrize(
        "payload",
        [
            {"dim": 1, "points": [[0], [3], [-2]]},
            {"dim": 2, "points": []},
            {"dim": 3, "points": [[1, 2, 3], [0, 0, 0]]},
        ],
    )
    def test_round_trip_across_dimensions(self, payload):
        from wedgepower.jsonio import config_to_json, dumps

        config = parse_point_config(json.dumps(payload))
        assert parse_point_config(dumps(config_to_json(config))) == config

    def test_extra_keys_are_tolerated(self):
        config = parse_point_config('{"dim": 2, "points": [[0, 0]], "in_range": true}')
        assert config.points == ((0, 0),)


class TestErrorHandling:
    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dim": 2, "points": [[0, 1],')
        code, _, err = run(capsys, "check-convex", "--input", bad)
        assert code == 1
        assert "line" in err and "column" in err

    def test_deeply_nested_json(self, tmp_path):
        # past the JSON decoder's recursion limit: a named cause, not a traceback
        deep = tmp_path / "deep.json"
        deep.write_text('{"dim": 2, "points": ' + "[" * 200_000 + "]" * 200_000 + "}")
        result = _run_python(["-m", "wedgepower", "check-convex", "--input", str(deep)])
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.startswith("error:") and "nested too deeply" in result.stderr
        assert "Traceback" not in result.stderr

    def test_over_long_integer_names_the_file(self, capsys, tmp_path):
        # past the interpreter's limit on digits in an integer literal
        long = tmp_path / "long.json"
        long.write_text('{"dim": 2, "points": [[' + "1" * 5000 + ", 0]]}")
        code, out, err = run(capsys, "check-convex", "--input", long)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {long}:") and "digits" in err

    def test_huge_cell_count_is_abridged(self, capsys, tmp_path):
        # a 4,001-digit cell count, printed in full, made a 4 kB message
        far = tmp_path / "far.json"
        far.write_text('{"dim": 2, "points": [[0, 0], [1' + "0" * 4000 + ", 1]]}")
        code, out, err = run(capsys, "check-convex", "--input", far)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 200
        assert "table budget" in err and "(4001 digits)" in err

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["cornercut", "-d", "1", "-B", "1" + "0" * 4000], "bound 1000... (4001 digits) is above"),
            (["verify-grid", "--grid", "1" + "0" * 4000 + "x1"], "grid has 2000... (4001 digits) cells"),
        ],
        ids=["cornercut-bound", "grid-cells"],
    )
    def test_huge_bound_and_grid_are_abridged(self, capsys, argv, cause):
        # printed in full, each number made a 4 kB message
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 200
        assert err.startswith("error: ") and cause in err

    @pytest.mark.parametrize(
        "argv, cause",
        [
            (["cornercut", "-d", "1", "-B", "1" + "0" * 5000], "-B: invalid int value: '1000... (5001 digits)'"),
            (["verify-grid", "--grid", "1" + "0" * 5000 + "x1"], "got '1000... (5001 digits)x1'"),
            (["verify-grid", "--grid", "1x1", "--jobs", "1" + "0" * 5000], "--jobs: invalid int value: '1000..."),
            (["verify-grid", "--grid", "1x1", "--jobs", "1" + "0" * 4000], "CPU count (1), got 1000... (4001 digits)"),
            (["verify-grid", "--grid", "1x1", "--jobs", "-1" + "0" * 4000], "got -1000... (4001 digits)"),
            (["p-good", "--input", DATA / "single-point.json", "-p", "1" + "0" * 5000], "invalid int value: '1000..."),
            # long text is cut to its first 32 characters and its length
            (["verify-grid", "--grid", "a" * 5000], "got '" + "a" * 32 + "... (5000 characters)'"),
            (["cornercut", "-d", "1", "-B", "a" * 5000], "-B: invalid int value: '" + "a" * 32 + "... (5000 characters)'"),
            (["check-convex", "--input", "a" * 5000], "File name too long: '" + "a" * 32 + "... (5000 characters)'"),
        ],
        ids=[
            "cornercut-bound", "grid", "jobs-unparsed", "jobs", "jobs-negative", "p-good-size",
            "grid-letters", "cornercut-bound-letters", "input-path",
        ],
    )
    def test_huge_numbers_are_echoed_abridged(self, capsys, monkeypatch, argv, cause):
        # printed in full, each number or text made a 4 to 5 kB line; past 4,300 digits
        # the interpreter will not convert a number, so it is abridged as text
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 200
        assert cause in err

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["verify-grid", "--grid", " ".join(["a"] * 2500)], "--grid expects WxH with integers, got 'a a a"),
            (["cornercut", "-d", "1", "-B", " ".join(["1"] * 2500)], "wedgepower cornercut: argument -B: invalid int"),
        ],
        ids=["grid-words", "cornercut-bound-words"],
    )
    def test_long_lines_of_short_words_are_cut(self, capsys, argv, start):
        # 2,500 one-character words hold no long run, yet made a 5 kB line
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 200
        assert err.startswith(start) and err.endswith(" characters)\n")

    @pytest.mark.parametrize(
        "grid, cut",
        [
            ("\U0001F600" * 128, "got '" + "\U0001F600" * 8 + "... (128 characters)'\n"),
            (" ".join(["\U0001F600"] * 2500), "\U0001F600 ... (5039 characters)\n"),
        ],
        ids=["emoji-run", "emoji-words"],
    )
    def test_wide_characters_are_cut_by_their_encoded_length(self, capsys, grid, cut):
        # counted in characters, 128 four-byte emoji made no long run and printed 553 bytes,
        # and 2,500 of them between spaces made a line that printed 365 bytes
        code, out, err = run(capsys, "verify-grid", "--grid", grid)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 200
        assert err.startswith("--grid expects WxH with integers, got '") and err.endswith(cut)

    def test_long_string_coordinate_is_echoed_abridged(self, capsys, tmp_path):
        wordy = tmp_path / "wordy.json"
        wordy.write_text('{"dim": 2, "points": [["' + "a" * 5000 + '", 0]]}')
        code, out, err = run(capsys, "check-convex", "--input", wordy)
        assert (code, out) == (1, "")
        assert len(err.encode()) < 200
        assert err.startswith(f"error: {wordy}: points[0] has non-integer coordinate 'aaaa")
        assert "(5000 characters)" in err

    def test_huge_size_note_is_abridged(self, capsys, e1_file):
        code, out, err = run(capsys, "wedge", "--input", e1_file, "-p", "1" + "0" * 4000)
        assert code == 0 and json.loads(out)["in_range"] is False
        assert len(err.encode()) < 200
        assert err == "note: no subsets of size 1000... (4001 digits) in a 4-point set; emitting the empty set\n"

    @pytest.mark.parametrize(
        "argv",
        [["verify-grid", "--grid", "1x1"], ["cornercut", "-d", "1", "-B", "2"], ["counterexample3d"]],
        ids=["verify-grid", "cornercut", "counterexample3d"],
    )
    def test_input_is_a_usage_error_where_nothing_is_read(self, capsys, e1_file, argv):
        code, out, err = run(capsys, *argv, "--input", e1_file)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --input" in err

    @pytest.mark.parametrize(
        "argv",
        [["wedge", "-p", "2"], ["check-convex"], ["verify-polygon"], ["p-good", "-p", "2"], ["equivalent"], ["render"]],
        ids=["wedge", "check-convex", "verify-polygon", "p-good", "equivalent", "render"],
    )
    def test_an_undecodable_file_names_itself(self, capsys, tmp_path, e1_file, argv):
        # a UTF-16 byte-order mark is not UTF-8; the codec's own message named no file
        undecodable = tmp_path / "undecodable.json"
        undecodable.write_bytes(b"\xff\xfe" + FIRST_EXCEPTION_JSON.encode("utf-16-le"))
        second = ["--input", e1_file] if argv[0] == "equivalent" else []
        code, out, err = run(capsys, argv[0], "--input", undecodable, *second, *argv[1:])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {undecodable}:") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_duplicate_point_named(self, capsys, tmp_path):
        dup = tmp_path / "dup.json"
        dup.write_text('{"dim": 2, "points": [[0, 1], [0, 1]]}')
        code, _, err = run(capsys, "check-convex", "--input", dup)
        assert code == 1
        assert "duplicate point [0, 1]" in err

    def test_non_integer_coordinates(self, capsys, tmp_path):
        messy = tmp_path / "messy.json"
        messy.write_text('{"dim": 2, "points": [[0.5, 1]]}')
        code, _, err = run(capsys, "check-convex", "--input", messy)
        assert code == 1
        assert "non-integer" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "check-convex", "--input", "does-not-exist.json")
        assert code == 1

    def test_unknown_flag(self, capsys, e1_file):
        code, _, err = run(capsys, "check-convex", "--input", e1_file, "--frobnicate")
        assert code == 1

    def test_bad_grid_spec(self, capsys):
        code, _, err = run(capsys, "verify-grid", "--grid", "banana")
        assert code == 1
        assert "WxH" in err

    def test_negative_grid_extent(self, capsys):
        code, out, err = run(capsys, "verify-grid", "--grid=-1x2")
        assert code == 1
        assert out == ""
        assert "grid extents must be nonnegative" in err
        assert "WxH" not in err

    def test_grid_budget(self, capsys):
        code, _, err = run(capsys, "verify-grid", "--grid", "9x9")
        assert code == 1
        assert "budget" in err


def _run_python(args, timeout=120, **kwargs):
    """Run a fresh interpreter on this checkout's wedgepower."""
    env = dict(os.environ, PYTHONPATH=str(Path(wedgepower.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout, **kwargs)


PLANAR_RUNS = """
import contextlib, io, json, sys
import wedgepower
from wedgepower import exceptional_triangle
from wedgepower.cli import main
from wedgepower.jsonio import config_to_json, dumps

def write(name, points):
    path = f"{sys.argv[1]}/{name}.json"
    with open(path, "w") as handle:
        handle.write(dumps(config_to_json(wedgepower.PointConfig.of(points, dim=2))))
    return path

e1 = write("e1", exceptional_triangle(1).points)
gap = write("gap", [(0, 0), (2, 0)])
pentagon = write("pentagon", [(0, 0), (2, 0), (3, 1), (1, 3), (-1, 1), (1, 1)])
runs = [
    ["verify-grid", "--grid", "2x2"],
    ["verify-polygon", "--input", e1],
    ["check-convex", "--input", gap],
    ["p-good", "--input", pentagon, "-p", "2"],
    ["cornercut", "-d", "2", "-B", "3"],
    ["equivalent", "--input", e1, "--input", e1],
    ["render", "--input", e1, "--hull"],
    ["wedge", "--input", e1, "-p", "2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(json.dumps({"codes": codes, "numpy_loaded": "numpy" in sys.modules}))
"""


def test_planar_commands_never_load_numpy(tmp_path):
    # only SubsetSumTable.coords and layer digests need numpy; no planar command calls them
    result = _run_python(["-c", PLANAR_RUNS, str(tmp_path)])
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout)
    assert outcome["codes"] == [0, 0, 2, 0, 0, 0, 0, 0]
    assert not outcome["numpy_loaded"]


SERIAL_RUN = """
import contextlib, io, json, sys
import wedgepower.cli
at_import = "multiprocessing" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = wedgepower.cli.main(["verify-grid", "--grid", "2x2", "--jobs", "1"])
print(json.dumps({"code": code, "at_import": at_import, "after_run": "multiprocessing" in sys.modules}))
"""


def test_serial_runs_never_load_multiprocessing():
    # its import costs milliseconds of every command's start; only a worker pool needs it
    result = _run_python(["-c", SERIAL_RUN])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"code": 0, "at_import": False, "after_run": False}


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_worker_pool_prints_the_pinned_grid_bytes(capsys, jobs):
    # 1,522 orbits, so a pool gets many chunks of them; the expected file was written when
    # orbits were grouped by normal form and every deletion table was built from its own points
    code, out, _ = run(capsys, "verify-grid", "--grid", "4x4", "--jobs", jobs)
    assert code == 0
    assert out == (DATA / "verify-grid-4x4.json").read_text()


BUDGET = r"error: .*(bound|budget)"
BAD_BOUND = "wedgepower cornercut: argument -B: invalid int value"
BAD_GRID = "--grid expects WxH"
HUGE, LONG = "1" + "0" * 4000, "1" + "0" * 5000
EMOJI = "\U0001F600"
# the files the hostile runs read, by name
HOSTILE_FILES = {
    # a segment 10^4000 long: 2 x (10^4000 + 1) cells
    "far.json": b'{"dim": 2, "points": [[0, 0], [1' + b"0" * 4000 + b", 1]]}",
    # a 5,000-digit integer, past the interpreter's limit on integer literals
    "long.json": b'{"dim": 2, "points": [[' + b"1" * 5000 + b", 0]]}",
    "wordy.json": b'{"dim": 2, "points": [["' + b"a" * 5000 + b'", 0]]}',
    "undecodable.json": b"\xff\xfe" + FIRST_EXCEPTION_JSON.encode("utf-16-le"),
    # a drawing 4,301 digits wide
    "wide.json": b'{"dim": 2, "points": [[' + b"9" * 4299 + b", 0], [0, 0]]}",
}
HOSTILE_RUNS = [
    pytest.param(["cornercut", "-d", "1", "-B", "1000000"], BUDGET, id="cornercut-bound"),
    pytest.param(["verify-grid", "--grid", "6x5"], BUDGET, id="grid-6x5"),
    pytest.param(["check-convex", "--input", "far.json"], BUDGET, id="far-segment"),
    pytest.param(["check-convex", "--input", "long.json"], "error: long.json: ", id="long-integer"),
    # a 4,001-digit bound and grid width
    pytest.param(["cornercut", "-d", "1", "-B", HUGE], BUDGET, id="bound-4001-digits"),
    pytest.param(["verify-grid", "--grid", HUGE + "x1"], BUDGET, id="grid-4001-digits"),
    # echoed numbers: a 5,000-digit bound and grid width, past the interpreter's limit on
    # converting digits, and a 4,001-digit worker count
    pytest.param(["cornercut", "-d", "1", "-B", LONG], BAD_BOUND, id="bound-5001-digits"),
    pytest.param(["verify-grid", "--grid", LONG + "x1"], BAD_GRID, id="grid-5001-digits"),
    pytest.param(
        ["verify-grid", "--grid", "1x1", "--jobs", HUGE], "error: jobs must be between 1 and the CPU count", id="jobs"
    ),
    # long text: 5,000 letters as a grid, a bound, a file name and a coordinate
    pytest.param(["verify-grid", "--grid", "a" * 5000], BAD_GRID, id="grid-letters"),
    pytest.param(["cornercut", "-d", "1", "-B", "a" * 5000], BAD_BOUND, id="bound-letters"),
    pytest.param(["check-convex", "--input", "a" * 5000], "error: .*File name too long", id="path-letters"),
    pytest.param(
        ["check-convex", "--input", "wordy.json"],
        r"error: wordy.json: points\[0\] has non-integer coordinate",
        id="coordinate-letters",
    ),
    # 2,500 one-character words as a grid and a bound: no run is long, but the line is
    pytest.param(["verify-grid", "--grid", " ".join(["a"] * 2500)], BAD_GRID, id="grid-words"),
    pytest.param(["cornercut", "-d", "1", "-B", " ".join(["1"] * 2500)], BAD_BOUND, id="bound-words"),
    # four-byte characters: 128 emoji as one run, and 2,500 of them as words
    pytest.param(["verify-grid", "--grid", EMOJI * 128], BAD_GRID, id="grid-emoji-run"),
    pytest.param(["verify-grid", "--grid", " ".join([EMOJI] * 2500)], BAD_GRID, id="grid-emoji-words"),
    pytest.param(["check-convex", "--input", "undecodable.json"], "error: undecodable.json: ", id="undecodable-file"),
    pytest.param(["render", "--input", "wide.json"], "error: wide.json: ", id="render-too-wide"),
]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1_000_000 * 1024, 1_000_000 * 1024))


@pytest.mark.parametrize("argv, pattern", HOSTILE_RUNS)
def test_hostile_input_exits_1_under_a_memory_and_time_cap(tmp_path, argv, pattern):
    # each input is refused by a named bound or budget before it allocates, or, for a
    # malformed file, by an error naming the file: "error: out of memory", a timeout or
    # any output fails.  The cap is the child's own, set after it forks
    for name in set(argv) & HOSTILE_FILES.keys():
        (tmp_path / name).write_bytes(HOSTILE_FILES[name])
    result = _run_python(["-m", "wedgepower", *argv], timeout=30, cwd=tmp_path, preexec_fn=_cap_address_space)
    assert (result.returncode, result.stdout) == (1, ""), result.stderr
    assert re.match(pattern, result.stderr), result.stderr
    assert result.stderr.count("\n") == 1 and len(result.stderr.encode()) < 200
