import json

from click.testing import CliRunner

from setavg.cli import main


def invoke(args, **kwargs):
    return CliRunner().invoke(main, args, **kwargs)


def assert_usage_error(res, message):
    """Exit code 2, the library's message on the terminal, no traceback."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert message in res.output
    assert "Traceback" not in res.output


def write_sets(tmp_path, sets):
    path = tmp_path / "sets.json"
    path.write_text(json.dumps(sets))
    return str(path)


class TestAverage:
    def test_half_half(self, tmp_path):
        path = write_sets(tmp_path, [[["0", "1"]], [["0", "2"]]])
        res = invoke(["average", "--sets", path, "--weights", "1/2,1/2"])
        assert res.exit_code == 0
        assert '[["0", "3/2"]]' in res.output
        assert "measure: 1.5" in res.output

    def test_exact_flag(self, tmp_path):
        path = write_sets(tmp_path, [[["0", "1"]], [["0", "2"]]])
        res = invoke(["--exact", "average", "--sets", path, "--weights", "1/2,1/2"])
        assert "measure: 3/2" in res.output

    def test_fixed_ref_point(self, tmp_path):
        path = write_sets(tmp_path, [[["0", "2"]], [["0", "0"]]])
        res = invoke(["--ref-point", "0", "average", "--sets", path,
                      "--weights", "1/2,1/2"])
        assert res.exit_code == 0
        assert '[["0", "1"]]' in res.output

    def test_bad_weights(self, tmp_path):
        path = write_sets(tmp_path, [[["0", "1"]], [["0", "2"]]])
        res = invoke(["average", "--sets", path, "--weights", "1/2,1/4"])
        assert_usage_error(res, "sum to 1")

    def test_weight_count_mismatch_is_usage_error(self, tmp_path):
        path = write_sets(tmp_path, [[["0", "1"]], [["0", "2"]]])
        res = invoke(["average", "--sets", path, "--weights", "1/3,1/3,1/3"])
        assert_usage_error(res, "one weight per input")


class TestOperators:
    def test_bernstein_reports_distances(self):
        res = invoke(["bernstein", "--svf", "grow", "--n", "2", "--x", "1/2"])
        assert res.exit_code == 0
        assert "measure:" in res.output
        assert "d(F(0), result)" in res.output
        assert "d(F(1), result)" in res.output

    def test_decasteljau_naive_flag_changes_output(self):
        base = ["--svf", "split", "--n", "3", "--x", "1/3"]
        plain = invoke(["decasteljau"] + base)
        naive = invoke(["decasteljau"] + base + ["--naive"])
        assert plain.exit_code == naive.exit_code == 0
        assert plain.output != naive.output

    def test_operator_pl_matches_bernstein_at_node(self):
        args = ["--svf", "grow", "--n", "4", "--x", "1/2"]
        pl = invoke(["operator", "--scheme", "pl"] + args)
        bern = invoke(["bernstein"] + args)
        assert pl.exit_code == bern.exit_code == 0
        # both interpolate at a node of the pl scheme, sets differ in general
        assert pl.output.splitlines()[0].startswith("[[")
        assert bern.output.splitlines()[0].startswith("[[")

    def test_degree_zero_is_usage_error(self):
        for command in ("bernstein", "decasteljau"):
            res = invoke([command, "--svf", "grow", "--n", "0", "--x", "1/2"])
            assert_usage_error(res, "degree must be >= 1")

    def test_unknown_svf_rejected(self):
        res = invoke(["bernstein", "--svf", "nope", "--n", "2", "--x", "0"])
        assert res.exit_code != 0


class TestConverge:
    def test_csv_shape_and_determinism(self):
        args = ["converge", "--svf", "grow", "--n-list", "1,2", "--grid-points", "3"]
        first = invoke(args)
        second = invoke(args)
        assert first.exit_code == 0
        assert first.output == second.output
        lines = first.output.strip().splitlines()
        assert lines[0] == "operator,n,x,error,bound,measure"
        assert len(lines) == 1 + 2 * 3

    def test_errors_within_bound(self):
        res = invoke(["converge", "--svf", "slide", "--operator", "decasteljau",
                      "--n-list", "2,8", "--grid-points", "5"])
        for line in res.output.strip().splitlines()[1:]:
            _, _, _, err, bound, _ = line.split(",")
            assert float(err) <= float(bound) + 1e-9


class TestMonotone:
    def test_grow_passes(self):
        res = invoke(["monotone", "--svf", "grow", "--n", "3", "--grid-points", "5"])
        assert res.exit_code == 0
        assert "containment chain: ok" in res.output

    def test_split_bernstein_passes(self):
        res = invoke(["monotone", "--svf", "split", "--scheme", "bernstein",
                      "--n", "4", "--grid-points", "5"])
        assert res.exit_code == 0


class TestMultivar:
    def test_csv_rows(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[0, 0], [1, 0], [0, 1], [1, 1]]))
        res = invoke(["multivar", "--points", str(path), "--levels", "2",
                      "--query", "3/10,7/10"])
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == "level,Delta,query_x,query_y,error,bound"
        assert len(lines) == 4  # header + levels 0..2
        for line in lines[1:]:
            _, _, _, _, err, bound = line.split(",")
            assert float(err) <= float(bound) + 1e-9


    def test_negative_levels_is_usage_error(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text(json.dumps([[0, 0], [1, 0], [0, 1], [1, 1]]))
        res = invoke(["multivar", "--points", str(path), "--levels", "-1",
                      "--query", "3/10,7/10"])
        assert_usage_error(res, "levels must be >= 0, got -1")
        assert "level,Delta" not in res.output


class TestRaster:
    SHAPES = [
        {"type": "triangle", "points": [[1, 1], [9, 2], [4, 8]]},
        {"type": "rectangle", "corners": [[3, 5], [11, 9]]},
        {"type": "ellipse", "center": [8, 4], "semi_axes": [4, 2]},
    ]

    def test_partition_output(self, tmp_path):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps(self.SHAPES))
        out = tmp_path / "partition.pgm"
        res = invoke(["raster", "--shapes", str(shapes), "--weights", "1/3,1/3,1/3",
                      "--h", "13/50", "--out", str(out)])
        assert res.exit_code == 0
        assert out.read_bytes().startswith(b"P5\n50 50\n255\n")

    def test_empty_union_is_usage_error(self, tmp_path):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps([{"type": "rectangle", "corners": [[1, 1], [2, 2]]}]))
        res = invoke(["raster", "--shapes", str(shapes), "--weights", "1",
                      "--h", "13/2", "--out", str(tmp_path / "avg.pgm")])
        assert_usage_error(res, "no grid cell")

    def test_nonpositive_cell_size_is_usage_error(self, tmp_path):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps(self.SHAPES))
        for h in ("0", "-1/2"):
            res = invoke(["raster", "--shapes", str(shapes), "--weights", "1/3,1/3,1/3",
                          "--h", h, "--out", str(tmp_path / "avg.pgm")])
            assert_usage_error(res, "--h must be positive")

    def test_shape_missing_key_is_usage_error(self, tmp_path):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps([{"type": "triangle"}]))
        res = invoke(["raster", "--shapes", str(shapes), "--weights", "1",
                      "--h", "13/50", "--out", str(tmp_path / "avg.pgm")])
        assert_usage_error(res, "lacks the key 'points'")

    def test_average_output_reports_measure(self, tmp_path):
        shapes = tmp_path / "shapes.json"
        shapes.write_text(json.dumps(self.SHAPES))
        out = tmp_path / "avg.pgm"
        res = invoke(["raster", "--shapes", str(shapes), "--weights", "1/3,1/3,1/3",
                      "--h", "13/50", "--out", str(out)])
        assert res.exit_code == 0
        assert "measure:" in res.output
        assert out.exists()
