import argparse
import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from loire import (FactorizationConfig, FrameStack, LoireConfig, SimSpec, baseline_lad, cli,
                   default_zero_tol, generate_sim, linalg, read_pgm, rrf_solve, write_pgm)
from loire.cli import REPORT_COLUMNS, _read_regression_csv, main


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def outlier_csv(tmp_path):
    # A = ones(4x1) via --intercept on a predictor-free file is awkward;
    # encode the constant column explicitly
    path = tmp_path / "data.csv"
    write_csv(path, ["c", "y"], [[1, 1], [1, 1], [1, 1], [1, 11]])
    return path


@pytest.fixture
def corrupted_fixture(tmp_path):
    # synthetic line y = 1 + 2.5 x with three planted gross outliers
    rng = np.random.default_rng(99)
    x = rng.uniform(0, 10, size=40)
    y = 1.0 + 2.5 * x + rng.normal(0, 0.1, size=40)
    outliers = [3, 17, 31]
    y[outliers] += [25.0, -30.0, 40.0]
    path = tmp_path / "corrupted.csv"
    write_csv(path, ["x", "y"], list(zip(x, y)))
    clean = np.setdiff1d(np.arange(40), outliers)
    design = np.column_stack([x[clean], np.ones(clean.size)])
    clean_slope = np.linalg.lstsq(design, y[clean], rcond=None)[0][0]
    return path, clean_slope


def load_solution(out_dir):
    with open(out_dir / "solution.json") as fh:
        doc = json.load(fh)
    return {e["method"]: e for e in doc["methods"]}


class TestRegress:
    def test_appbem_flags_the_outlier_row(self, outlier_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["regress", str(outlier_csv), "--target", "y", "--lambda", "1",
                   "--out", str(out)])
        assert rc == 0
        entry = load_solution(out)["appbem"]
        assert entry["support"] == [3]
        assert entry["x"] == pytest.approx([1.0])
        assert entry["converged"]

    def test_ols_matches_loire_on_clean_data(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=20)
        y = 3.0 * x + 0.5
        path = tmp_path / "clean.csv"
        write_csv(path, ["x", "y"], list(zip(x, y)))
        out = tmp_path / "out"
        rc = main(["regress", str(path), "--target", "y", "--intercept",
                   "--method", "ols,loire", "--out", str(out)])
        assert rc == 0
        sols = load_solution(out)
        assert sols["ols"]["x"] == pytest.approx(sols["loire"]["x"], abs=1e-8)
        assert sols["loire"]["b"] == pytest.approx([0.0] * 20)

    def test_corrupted_fixture_slope(self, corrupted_fixture, tmp_path):
        path, clean_slope = corrupted_fixture
        out = tmp_path / "out"
        rc = main(["regress", str(path), "--target", "y", "--intercept",
                   "--method", "appbem,ols", "--out", str(out)])
        assert rc == 0
        sols = load_solution(out)
        slope = sols["appbem"]["x"][0]
        assert abs(slope - clean_slope) <= 0.05 * abs(clean_slope)

    def test_oracle_on_small_instance(self, outlier_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["regress", str(outlier_csv), "--target", "y", "--lambda", "1",
                   "--method", "oracle", "--radius", "0.1", "--out", str(out)])
        assert rc == 0
        entry = load_solution(out)["oracle"]
        assert entry["support"] == [3]
        assert entry["x"] == pytest.approx([1.0])

    def test_oracle_at_the_appbem_radius_flags_the_same_rows(self, tmp_path):
        # without --radius the oracle searches within 1.05 times appBEM's
        # residual norm: 12 rows of a line with gross errors on rows 2 and 9
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 10, 12)
        y = 1 + 2.5 * x + rng.normal(0, 0.1, 12)
        y[[2, 9]] += [40, -30]
        path = tmp_path / "two.csv"
        write_csv(path, ["x", "y"], list(zip(x, y)))
        out = tmp_path / "out"
        assert main(["regress", str(path), "--target", "y", "--intercept",
                     "--method", "appbem,oracle", "--max-support", "3", "--timing", "none",
                     "--out", str(out)]) == 0
        sols = load_solution(out)
        assert sols["appbem"]["support"] == sols["oracle"]["support"] == [2, 9]

    def test_oracle_refused_above_enumeration_guard(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [(float(v), float(2 * v)) for v in rng.uniform(size=40)]
        path = tmp_path / "big.csv"
        write_csv(path, ["x", "y"], rows)
        rc = main(["regress", str(path), "--target", "y", "--method", "oracle",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_oracle_refusal_is_bounded_on_many_rows(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = [(float(v), float(2 * v)) for v in rng.uniform(size=5000)]
        path = tmp_path / "big.csv"
        write_csv(path, ["x", "y"], rows)
        rc = main(["regress", str(path), "--target", "y", "--method", "oracle",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "more than 1000000 candidate supports" in err and len(err) < 200

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n1.0,oops\n")
        rc = main(["regress", str(path), "--target", "y", "--out", str(tmp_path)])
        assert rc == 2
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "row-by-row"])
    @pytest.mark.parametrize("column", [0, 1], ids=["predictor", "target"])
    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "Infinity"])
    def test_nonfinite_field_reports_line(self, tmp_path, capsys, field, column, quoted):
        rows = [["1", "2"], ["2", "3.5"], ["3", "5"], ["4", "6.5"]]
        rows[2][column] = field  # line 4, after the header
        if quoted:  # quotes send the whole file down the row-by-row read
            rows = [[f'"{c}"' for c in row] for row in rows]
        path = tmp_path / "nonfinite.csv"
        path.write_text("x,y\n" + "".join(",".join(row) + "\n" for row in rows))
        out = tmp_path / "out"
        rc = main(["regress", str(path), "--target", "y", "--out", str(out)])
        assert rc == 2
        assert f"loire: error: {path}:4: non-finite field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "x,y\n1,2\n3,4.5\n",                 # bulk parse
        "x,y\r\n1,2\r\n3,4.5\r\n",
        "x,y\n1,2\n\n , \n3,4.5\n",          # blank rows: row-by-row read
        'x,y\n"1",2\n3,"4.5"\n',
        "\ufeffx,y\n1,2\n3,4.5\n",         # a byte-order mark: bulk parse
        "\ufeffx,y\n1,2\n\n3,4.5\n",       # and the row-by-row read after the header
    ])
    def test_csv_layouts_read_alike(self, tmp_path, text):
        path = tmp_path / "layout.csv"
        path.write_bytes(text.encode("utf-8"))
        out = tmp_path / "out"
        assert main(["regress", str(path), "--target", "y", "--method", "ols",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "solution.json").read_text())
        assert doc["predictors"] == ["x"]
        assert doc["methods"][0]["x"] == pytest.approx([1.55])  # (1*2 + 3*4.5) / (1 + 9)

    @pytest.mark.parametrize("text", ["y,x\n2,1\n4.5,3\n", "y,x\n2,1\n\n4.5,3\n"])
    def test_target_column_owns_its_memory(self, tmp_path, text):
        # a view of the parsed table would keep all of it alive through every
        # solve, from the bulk parse and the row-by-row read alike; A comes
        # column-major, the layout every solve takes without a copy
        path = tmp_path / "target_first.csv"
        path.write_text(text)
        a, y, names = _read_regression_csv(str(path), "y", intercept=False)
        assert y.base is None and a.flags.f_contiguous
        assert y.tolist() == [2.0, 4.5] and a.tolist() == [[1.0], [3.0]] and names == ["x"]
        a, _, names = _read_regression_csv(str(path), "y", intercept=True)
        assert a.flags.f_contiguous and a.tolist() == [[1.0, 1.0], [3.0, 1.0]]
        assert names == ["x", "(intercept)"]

    def test_missing_target_column(self, outlier_csv, tmp_path):
        rc = main(["regress", str(outlier_csv), "--target", "nope",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_all_rows_outliers_is_data_error(self, tmp_path):
        path = tmp_path / "split.csv"
        write_csv(path, ["c", "y"], [[1, -5], [1, 5]])
        rc = main(["regress", str(path), "--target", "y", "--lambda", "10",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_unconverged_solve_warns(self, corrupted_fixture, tmp_path, capsys):
        path, _ = corrupted_fixture
        # each capped method warns once, in order, and ols, which iterates none, not at all
        args = ["regress", str(path), "--target", "y", "--intercept",
                "--method", "loire,appbem,lad,ols", "--timing", "none"]
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        assert "warning" not in capsys.readouterr().err
        assert main(args + ["--max-iter", "1", "--tol", "1e-300",
                            "--out", str(tmp_path / "capped")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "warning" in line]
        assert len(warnings) == 3
        assert all(line.startswith("loire: warning: regress method=") and "max_iter=1" in line
                   for line in warnings)
        for line, method in zip(warnings, ("loire", "appbem", "lad")):
            assert f"method={method}:" in line
        entries = load_solution(tmp_path / "capped")
        assert not any(entries[k]["converged"] for k in ("loire", "appbem", "lad"))

    def test_lad_runs(self, corrupted_fixture, tmp_path):
        path, clean_slope = corrupted_fixture
        out = tmp_path / "out"
        rc = main(["regress", str(path), "--target", "y", "--intercept",
                   "--method", "lad", "--out", str(out)])
        assert rc == 0
        slope = load_solution(out)["lad"]["x"][0]
        assert abs(slope - clean_slope) <= 0.1 * abs(clean_slope)

    def test_lad_default_max_iter_is_the_loire_default(self, corrupted_fixture, tmp_path,
                                                       capsys, monkeypatch):
        # regress caps every method at LoireConfig's 1000, baseline_lad's
        # default too; LAD certifies this fit long before, so it does not warn
        caps = []
        monkeypatch.setattr(cli, "baseline_lad",
                            lambda a, y, max_iter: caps.append(max_iter)
                            or baseline_lad(a, y, max_iter=max_iter))
        path, _ = corrupted_fixture
        out = tmp_path / "out"
        assert main(["regress", str(path), "--target", "y", "--intercept",
                     "--method", "lad", "--out", str(out)]) == 0
        default = inspect.signature(baseline_lad).parameters["max_iter"].default
        assert caps == [LoireConfig.max_iter] == [default] == [1000]
        entry = load_solution(out)["lad"]
        assert entry["converged"] and entry["iterations"] < 1000
        assert "warning" not in capsys.readouterr().err

    def test_lad_stops_on_its_gap_and_warns_with_it(self, corrupted_fixture, tmp_path, capsys):
        # LAD stops on a vertex its dual proves optimal, so a capped LAD
        # names the gap of its last vertex, not the tol it ignores
        path, _ = corrupted_fixture
        args = ["regress", str(path), "--target", "y", "--intercept", "--method", "lad"]
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        assert "warning" not in capsys.readouterr().err
        entry = load_solution(tmp_path / "default")["lad"]
        assert entry["converged"] and 1 < entry["iterations"] < 1000
        assert abs(entry["gap"]) <= 1e-12
        assert main(args + ["--max-iter", "1", "--out", str(tmp_path / "capped")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        capped = load_solution(tmp_path / "capped")["lad"]
        assert len(warnings) == 1 and "tol=" not in warnings[0]
        assert warnings[0] == ("loire: warning: regress method=lad: solve stopped at "
                               "max_iter=1 without reaching a vertex its dual proves optimal; "
                               f"(f - f*)/f <= {capped['gap']:.3g}")
        assert not capped["converged"] and capped["gap"] > 1e-12

    def test_every_entry_has_a_gap_and_lad_its_trace(self, corrupted_fixture, tmp_path):
        # gap is LAD's relative duality gap, null for every other method, and
        # LAD's b is y - A x
        path, _ = corrupted_fixture
        args = ["regress", str(path), "--target", "y", "--intercept", "--timing", "none",
                "--method", "loire,appbem,ols,lad"]
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        entries = load_solution(tmp_path / "default")
        assert [entries[k]["gap"] for k in ("loire", "appbem", "ols")] == [None] * 3
        lad = entries["lad"]
        assert lad["converged"] and abs(lad["gap"]) <= 1e-12
        assert len(lad["objective_trace"]) == lad["iterations"] > 0
        a, y, _ = _read_regression_csv(str(path), "y", True)
        b = y - a @ np.array(lad["x"])
        np.testing.assert_allclose(lad["b"], b, rtol=0, atol=1e-9 * (1 + np.abs(y).max()))
        # capped at the start vertex, LAD still reports its dual's gap
        assert main(args + ["--max-iter", "1", "--out", str(tmp_path / "capped")]) == 0
        lad = load_solution(tmp_path / "capped")["lad"]
        assert lad["gap"] > 0 and len(lad["objective_trace"]) == 1 and not lad["converged"]


class TestSimulate:
    def test_zero_density_perfect_scores(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--n", "30", "--density", "0", "--out", str(out),
                   "--timing", "none"])
        assert rc == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["DR"]) == 1.0
        assert float(rows[0]["Pre"]) == 1.0
        assert float(rows[0]["F"]) == 1.0

    def test_deterministic_report_bytes(self, tmp_path):
        # a converged report, and one capped before it converges
        for run, flags in enumerate((["--n", "40", "--seed", "7"],
                                     ["--n", "30", "--max-iter", "3", "--tol", "1e-300"])):
            args = ["simulate", *flags, "--timing", "none"]
            out1, out2 = tmp_path / f"r{run}a", tmp_path / f"r{run}b"
            assert main(args + ["--out", str(out1)]) == 0
            assert main(args + ["--out", str(out2)]) == 0
            assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_rows_parse_back_to_reports(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--n", "30,40", "--num-seeds", "2",
                   "--out", str(out), "--timing", "none"])
        assert rc == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(int(r["N"]), int(r["seed"])) for r in rows] \
            == [(30, 0), (30, 1), (40, 0), (40, 1)]
        assert REPORT_COLUMNS == ("method", "N", "seed", "lambda", "tol", "iterations", "DR",
                                  "Pre", "F", "wall_time_s", "converged")
        for row in rows:
            assert tuple(row) == REPORT_COLUMNS
            for k in ("lambda", "tol", "DR", "Pre", "F", "wall_time_s"):
                assert repr(float(row[k])) == row[k]
            assert int(row["iterations"]) >= 1
            assert row["method"] == "rrf"
            assert row["converged"] in ("true", "false")

    def test_default_lambda_detects_spikes(self, tmp_path):
        # the default is rrf_solve's own lam=None rule; the old
        # sqrt(N)/||Y||_F default shrank B to 0 and reported F 0
        out = tmp_path / "out"
        assert main(["simulate", "--n", "30", "--num-seeds", "2", "--timing", "none",
                     "--out", str(out)]) == 0
        with open(out / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for seed, row in enumerate(rows):
            spec = SimSpec(n=30, seed=seed)
            lam = rrf_solve(generate_sim(spec).y, FactorizationConfig(rank=spec.rank)).lam
            assert float(row["F"]) > 0.5 and row["lambda"] == repr(lam)

    def test_out_of_range_data_is_data_error(self, tmp_path, capsys):
        rc = main(["simulate", "--n", "30", "--dense-scale", "1e200", "--amplitude", "1e201",
                   "--out", str(tmp_path)])
        assert rc == 2 and "overflow" in capsys.readouterr().err

    def test_lambda_mult_rejected(self, tmp_path):
        assert main(["simulate", "--n", "30", "--lambda-mult", "2", "--out", str(tmp_path)]) == 1

    def test_unconverged_solve_warns(self, tmp_path, capsys):
        # criterion 5's lambda, which keeps the capped solve from converging
        args = ["simulate", "--n", "30", "--num-seeds", "2", "--lambda", "0.625",
                "--timing", "none"]
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        assert "warning" not in capsys.readouterr().err
        assert main(args + ["--max-iter", "1", "--tol", "1e-300",
                            "--out", str(tmp_path / "capped")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "warning" in line]
        assert len(warnings) == 2
        assert all("max_iter=1" in line for line in warnings)
        for run, converged in (("default", "true"), ("capped", "false")):
            with open(tmp_path / run / "report.csv") as fh:
                assert [row["converged"] for row in csv.DictReader(fh)] == [converged] * 2

    def test_unknown_method_rejected(self, tmp_path):
        rc = main(["simulate", "--method", "rpca", "--out", str(tmp_path)])
        assert rc == 1

    def test_bad_n_rejected(self, tmp_path):
        rc = main(["simulate", "--n", "abc", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("dims", ["0", "20,0"])
    def test_bad_n_rejected_before_any_solve(self, tmp_path, capsys, monkeypatch, dims):
        # the whole --n x seed grid is checked before the first solve
        solves = []
        monkeypatch.setattr("loire.cli.rrf_solve", lambda *args: solves.append(args))
        out = tmp_path / "out"
        assert main(["simulate", "--n", dims, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "loire: error: n=0 must be a positive integer\n"
        assert solves == [] and not out.exists()


class TestBgmodel:
    def test_identical_frames_recovered_exactly(self, tmp_path):
        rng = np.random.default_rng(0)
        frame = rng.integers(0, 256, size=(12, 10)).astype(np.uint8)
        for j in range(10):
            write_pgm(tmp_path / f"frame_{j:03d}.pgm", frame)
        out = tmp_path / "out"
        rc = main(["bgmodel", str(tmp_path / "frame_*.pgm"), "--rank", "1",
                   "--out", str(out)])
        assert rc == 0
        for j in range(10):
            np.testing.assert_array_equal(read_pgm(out / f"background_{j:04d}.pgm"),
                                          frame)
            assert read_pgm(out / f"foreground_{j:04d}.pgm").max() == 0
        with open(out / "timing.json") as fh:
            timing = json.load(fh)
        assert timing["frames"] == 10
        assert timing["converged"]

    def test_unconverged_solve_warns(self, tmp_path, capsys):
        # static texture with a square moving across it
        rng = np.random.default_rng(1)
        background = rng.integers(40, 120, size=(12, 12)).astype(np.uint8)
        for j in range(8):
            frame = background.copy()
            frame[j:j + 3, j:j + 3] = 250
            write_pgm(tmp_path / f"frame_{j:03d}.pgm", frame)
        args = ["bgmodel", str(tmp_path / "frame_*.pgm"), "--lambda", "0.1"]
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        assert "warning" not in capsys.readouterr().err
        assert main(args + ["--max-iter", "1", "--tol", "1e-300",
                            "--out", str(tmp_path / "capped")]) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if "warning" in line]
        assert len(warnings) == 1 and "bgmodel" in warnings[0]
        with open(tmp_path / "capped" / "timing.json") as fh:
            assert not json.load(fh)["converged"]

    @staticmethod
    def _moving_square(tmp_path):
        # a 3x3 square moving across a static 40x40 texture
        rng = np.random.default_rng(2)
        background = rng.integers(40, 120, size=(40, 40)).astype(np.uint8)
        for j in range(10):
            frame = background.copy()
            frame[3 * j:3 * j + 3, 3 * j:3 * j + 3] = 250
            write_pgm(tmp_path / f"frame_{j:03d}.pgm", frame)
        return background

    @staticmethod
    def _assert_square_foregrounds(out):
        for j in range(10):
            fg = read_pgm(out / f"foreground_{j:04d}.pgm")
            square = np.zeros((40, 40), dtype=bool)
            square[3 * j:3 * j + 3, 3 * j:3 * j + 3] = True
            assert np.array_equal(fg > 0, square)

    def test_small_foreground_is_visible(self, tmp_path):
        # a 3x3 square is 0.56% of a 40x40 frame, so the 99th percentile of
        # |B| over all pixels is 0; the scale comes from the nonzero |B|
        self._moving_square(tmp_path)
        out = tmp_path / "out"
        assert main(["bgmodel", str(tmp_path / "frame_*.pgm"), "--lambda", "0.1",
                     "--out", str(out)]) == 0
        self._assert_square_foregrounds(out)

    def test_default_lambda_separates_the_square(self, tmp_path):
        # the old sqrt(max(m, n))/||Y||_F default left blank foregrounds and
        # a background that kept part of the square
        background = self._moving_square(tmp_path)
        out = tmp_path / "out"
        assert main(["bgmodel", str(tmp_path / "frame_*.pgm"), "--out", str(out)]) == 0
        self._assert_square_foregrounds(out)
        for j in range(10):
            np.testing.assert_array_equal(read_pgm(out / f"background_{j:04d}.pgm"),
                                          background)

    @staticmethod
    def _two_tile_square(tmp_path):
        # an 8x8 square moving down 2 and right 3 pixels a frame across a
        # static 64x64 texture: 20 frames, 81920 entries
        background = np.random.default_rng(4).integers(40, 120, size=(64, 64)).astype(np.uint8)
        for j in range(20):
            frame = background.copy()
            frame[2 * j:2 * j + 8, 3 * j:3 * j + 8] = 250
            write_pgm(tmp_path / f"frame_{j:03d}.pgm", frame)

    def test_frames_match_the_full_array_formula(self, tmp_path):
        # frame j is A X[:, j] and |B[:, j]| scaled, without a full-size A X or
        # |B|; a run writes those frames and timing.json alone, and repeats
        # byte for byte.  The second stack spans two tiles of the shrink sweep
        for case, write, lam in (("square", self._moving_square, 0.1),
                                 ("tiles", self._two_tile_square, None)):
            frames = tmp_path / case
            frames.mkdir()
            write(frames)
            paths = sorted(frames.glob("frame_*.pgm"))
            args = ["bgmodel", str(frames / "frame_*.pgm"), "--rank", "2", "--timing", "none"]
            args += [] if lam is None else ["--lambda", str(lam)]
            out, again = tmp_path / f"{case}-out", tmp_path / f"{case}-again"
            assert main(args + ["--out", str(out)]) == 0
            assert main(args + ["--out", str(again)]) == 0
            names = [f"{kind}_{j:04d}.pgm" for kind in ("background", "foreground")
                     for j in range(len(paths))] + ["timing.json"]
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (again / name).read_bytes()
            stack = FrameStack.from_frames(read_pgm(p) for p in paths)
            assert (stack.matrix.size > linalg.TILE) == (case == "tiles")
            sol = rrf_solve(stack.matrix, FactorizationConfig(rank=2, lam=lam))
            background = sol.a @ sol.x
            fg = np.abs(sol.b)
            fg *= 255.0 / float(np.percentile(fg[fg > 0], 99.0))
            np.clip(fg, 0, 255, out=fg)
            for j in range(len(paths)):
                want_bg = np.clip(np.rint(stack.column_to_frame(background[:, j])), 0, 255)
                want_fg = np.rint(stack.column_to_frame(fg[:, j]))
                assert (read_pgm(out / f"background_{j:04d}.pgm").tobytes()
                        == want_bg.astype(np.uint8).tobytes())
                assert (read_pgm(out / f"foreground_{j:04d}.pgm").tobytes()
                        == want_fg.astype(np.uint8).tobytes())
            assert np.count_nonzero(fg) > 0

    @pytest.mark.parametrize("flag", ["--lambda-mult", "--zero-tol"])
    def test_removed_flags_rejected(self, tmp_path, flag):
        # a usage error (1) before the empty glob would give a data error (2)
        assert main(["bgmodel", str(tmp_path / "*.pgm"), flag, "0.5"]) == 1

    def test_dimension_mismatch_names_offending_file(self, tmp_path, capsys):
        write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
        write_pgm(tmp_path / "b.pgm", np.zeros((5, 4), dtype=np.uint8))
        rc = main(["bgmodel", str(tmp_path / "*.pgm"), "--out", str(tmp_path)])
        assert rc == 2
        assert "b.pgm" in capsys.readouterr().err

    def test_too_few_frames(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
        rc = main(["bgmodel", str(tmp_path / "*.pgm"), "--out", str(tmp_path)])
        assert rc == 2


# The values each numeric flag's library object rejects.  A missing CSV or
# an empty glob is a data error (2), so exit 1 shows the check ran before any
# input was read; simulate, which reads none, must not generate an instance.
BAD_VALUES = {
    "--lambda": ["0", "-1", "nan", "inf"],
    "--tol": ["0", "-1", "nan", "inf"],
    "--max-iter": ["0", "-1"],
    "--zero-tol": ["-1", "nan", "-inf"],
    "--radius": ["-1", "nan", "-inf"],
    "--max-support": ["-1"],
    "--rank": ["0", "-1"],
    "--rank-frac": ["0", "-1", "1.5", "nan", "inf"],
    "--density": ["-0.1", "1.5", "nan", "inf"],
    "--dense-scale": ["-2", "nan", "inf"],
    "--amplitude": ["-1", "nan", "inf"],
    "--n": ["0", "-5", "20,0"],
}
COMMAND_FLAGS = {
    "regress": ["--lambda", "--tol", "--max-iter", "--zero-tol", "--radius", "--max-support"],
    "simulate": ["--lambda", "--tol", "--max-iter", "--zero-tol", "--rank-frac", "--density",
                 "--dense-scale", "--amplitude", "--n"],
    "bgmodel": ["--lambda", "--tol", "--max-iter", "--rank"],
}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, flags in COMMAND_FLAGS.items()
    for flag in flags for value in BAD_VALUES[flag]])
def test_bad_setting_is_usage_error_before_input(tmp_path, capsys, monkeypatch,
                                                 command, flag, value):
    def no_instance(spec):
        raise AssertionError("simulate generated an instance before checking its settings")
    monkeypatch.setattr("loire.cli.generate_sim", no_instance)
    lead = {"regress": [str(tmp_path / "missing.csv"), "--target", "y"],
            "simulate": [], "bgmodel": [str(tmp_path / "*.pgm")]}[command]
    out = tmp_path / "out"
    assert main([command, *lead, f"{flag}={value}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("loire: error: ") and err.count("\n") == 1
    assert not out.exists()


PGM_2X2 = b"P5\n2 2\n255\n\x01\x02\x03\x04"
REGRESS = ["regress", "d.csv", "--target", "y"]


# Checks no library object holds: the input's shape and the CLI's own list
# flags.  Each case: files written first, arguments, exit code, message.
@pytest.mark.parametrize("files, argv, code, message", [
    ({"f0.pgm": PGM_2X2, "f1.pgm": PGM_2X2}, ["bgmodel", "*.pgm", "--rank", "3"], 1,
     "--rank 3 out of range for a 4x2 stack"),
    ({"d.csv": b"x,y\n1,2\n3\n"}, REGRESS, 2, "d.csv:3: expected 2 fields, got 1"),
    ({"d.csv": b""}, REGRESS, 2, "d.csv: empty file"),
    ({"d.csv": b"x,y\n"}, REGRESS, 2, "d.csv: no data rows"),
    ({}, REGRESS, 2, "d.csv: [Errno 2]"),
    ({}, REGRESS + ["--method", "loire,nope"], 1, "unknown method 'nope'"),
    ({}, REGRESS + ["--method", ","], 1, "--method must name at least one method"),
    ({}, REGRESS + ["--method", "ols,lad,ols"], 1, "--method names 'ols' more than once"),
    ({"d.csv": b"x,y,y\n1,2,3\n"}, REGRESS, 2, "d.csv: column 'y' repeated in header"),
    ({}, ["simulate", "--n", ","], 1, "--n must name at least one dimension"),
    ({}, ["simulate", "--num-seeds", "0"], 1, "--num-seeds must be at least 1"),
    ({"d.csv": b"x,y\n1,\xff\n"}, REGRESS, 2, "d.csv: 'utf-8' codec can't decode byte 0xff"),
], ids=["rank-above-frames", "short-row", "empty-file", "header-only", "unreadable",
        "unknown-method", "empty-method", "repeated-method", "repeated-column", "empty-n",
        "zero-seeds", "not-utf-8"])
def test_error_exit(tmp_path, capsys, monkeypatch, files, argv, code, message):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main([*argv, "--out", "out"]) == code
    err = capsys.readouterr().err
    assert err.startswith("loire: error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


# An OSError met after the settings are checked: --out naming a file, which
# each command meets only after its solve, and a frame glob matching a
# directory.  Each case: files written first, arguments, message
@pytest.mark.parametrize("files, argv, message", [
    ({"d.csv": b"x,y\n1,2\n2,4\n3,7\n", "out": b""}, REGRESS + ["--out", "out"],
     "[Errno 17] File exists: 'out'"),
    ({"out": b""}, ["simulate", "--n", "10", "--out", "out"], "[Errno 17] File exists: 'out'"),
    ({"f0.pgm": PGM_2X2, "f1.pgm": PGM_2X2, "out": b""}, ["bgmodel", "*.pgm", "--out", "out"],
     "[Errno 17] File exists: 'out'"),
    ({"d.pgm": None, "f0.pgm": PGM_2X2, "f1.pgm": PGM_2X2}, ["bgmodel", "*.pgm", "--out", "out"],
     "[Errno 21] Is a directory: 'd.pgm'"),
], ids=["regress-out-is-a-file", "simulate-out-is-a-file", "bgmodel-out-is-a-file",
        "bgmodel-frame-is-a-directory"])
def test_os_error_is_data_error(tmp_path, capsys, monkeypatch, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        if data is None:
            (tmp_path / name).mkdir()
        else:
            (tmp_path / name).write_bytes(data)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("loire: error: ") and err.count("\n") == 1
    assert message in err


NUMPY_OOM = "Unable to allocate 373. GiB for an array with shape (223607, 223607) and data type float64"


@pytest.mark.parametrize("error, message", [(MemoryError(NUMPY_OOM), NUMPY_OOM),
                                            (MemoryError(), "out of memory")],
                         ids=["numpy", "bare"])
def test_out_of_memory_is_data_error(tmp_path, capsys, monkeypatch, error, message):
    # an instance too large to allocate is the input's fault, reported on
    # one line with the data-error code; nothing is allocated for real
    def too_large(spec):
        raise error
    monkeypatch.setattr("loire.cli.generate_sim", too_large)
    out = tmp_path / "out"
    assert main(["simulate", "--n", "1000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"loire: error: {message}\n"
    assert not out.exists()


def test_module_entry_reports_a_bad_setting_without_a_traceback(tmp_path):
    # `python -m loire.cli` exits with main's code: one stderr line, exit 1,
    # and no output directory
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = tmp_path / "out"
    run = subprocess.run([sys.executable, "-m", "loire.cli", "simulate", "--n", "0",
                          "--out", str(out)], capture_output=True, text=True, env=env,
                         timeout=60)
    assert run.returncode == 1
    assert run.stderr == "loire: error: n=0 must be a positive integer\n"
    assert not out.exists()


def test_simulate_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # tol is REL_TOL * ||Y||_F, so ||Y||² must not be summed by BLAS, whose
    # sum splits across threads and rounds differently at 1 and 2
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = tmp_path / threads
        run = subprocess.run([sys.executable, "-m", "loire.cli", "simulate", "--n", "200",
                              "--seed", "1", "--num-seeds", "5", "--max-iter", "1",
                              "--timing", "none", "--out", str(out)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def _as_lists(value):
    """*value* with each ndarray given as its .tolist(), as json.dumps takes it."""
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _dumped(value):
    fh = io.StringIO()
    cli._dump(value, fh)
    return fh.getvalue()


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7, 0.1]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | st.text()


@st.composite
def _arrays(draw):
    """A 1-d float or int array whose length sits at a chunk boundary of the
    writer, filled from a drawn seed with a few drawn floats planted in it."""
    n = draw(st.sampled_from([0, 1, cli.JSON_CHUNK - 1, cli.JSON_CHUNK, cli.JSON_CHUNK + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.integers(-2**62, 2**62, size=n)
    # magnitudes from subnormal to near overflow, and -0.0 where they underflow
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-330, 300, size=n)
    for v in draw(st.lists(FLOATS, max_size=4)) if n else []:
        a[draw(st.integers(0, n - 1))] = v
    return a


JSON_VALUES = st.recursive(
    SCALARS | _arrays(),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=10)


class TestJsonLayout:
    @given(JSON_VALUES)
    @example({"ключ": [*SPECIAL_FLOATS, -1, 0, True, False, None, "é\n\"", {}, [], ()],
              "x": np.array(SPECIAL_FLOATS), "support": np.arange(3), "empty": np.zeros(0)})
    @settings(deadline=None)
    def test_dump_is_json_indent_2(self, value):
        # an array's chunks are joined and laid out as json lays out its list
        assert _dumped(value) == json.dumps(_as_lists(value), indent=2)

    @pytest.mark.parametrize("timing", ["none", "wall"])
    def test_cli_outputs_are_json_indent_2(self, tmp_path, timing):
        # 12 rows of y = 1 + 2.5x with two gross outliers: few enough rows
        # for the oracle; and a 3x3 square moving over 8 frames of 12x12
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, size=12)
        y = 1.0 + 2.5 * x + rng.normal(0, 0.1, size=12)
        y[[2, 9]] += [20.0, -15.0]
        write_csv(tmp_path / "d.csv", ["x", "y"], list(zip(x, y)))
        background = rng.integers(40, 120, size=(12, 12)).astype(np.uint8)
        for j in range(8):
            frame = background.copy()
            frame[j:j + 3, j:j + 3] = 250
            write_pgm(tmp_path / f"frame_{j:03d}.pgm", frame)
        out = tmp_path / "out"
        assert main(["regress", str(tmp_path / "d.csv"), "--target", "y", "--intercept",
                     "--method", ",".join(cli.REGRESS_METHODS), "--timing", timing,
                     "--out", str(out)]) == 0
        assert main(["bgmodel", str(tmp_path / "frame_*.pgm"), "--timing", timing,
                     "--out", str(out)]) == 0
        for name in ("solution.json", "timing.json"):
            data = (out / name).read_bytes()
            assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()
        assert [e["method"] for e in load_solution(out).values()] == list(cli.REGRESS_METHODS)

    def test_regress_csv_scale_solution_without_python_lists(self, tmp_path, traced_peak):
        # the regress-csv workload's shape: 50000 x 20, 5% gross outliers,
        # appbem and lad.  Their b as Python lists held 100000 floats, 3.2 MB
        # traced; the writer holds one chunk's numbers and text at a time
        rng = np.random.default_rng(0)
        m, n = 50000, 20
        a = np.asfortranarray(rng.normal(size=(m, n)))
        rows = rng.random(m) < 0.05
        y = a @ rng.normal(size=n) + rng.normal(size=m) + np.where(
            rows, rng.choice([-1.0, 1.0], size=m) * rng.uniform(10, 50, size=m), 0.0)
        args = argparse.Namespace(timing="none", max_support=None, radius=None)
        zero_tol = default_zero_tol(y)
        value = {"predictors": [f"a{i}" for i in range(n)],
                 "methods": [cli._regress_one(method, a, y, LoireConfig(), zero_tol, args)
                             for method in ("appbem", "lad")]}
        t0 = time.perf_counter()
        cli._write_json(str(tmp_path / "new.json"), value)
        new_s = time.perf_counter() - t0
        _, peak = traced_peak(lambda: cli._write_json(str(tmp_path / "traced.json"), value))
        listed = _as_lists(value)
        t0 = time.perf_counter()
        with open(tmp_path / "old.json", "w", encoding="utf-8") as fh:
            json.dump(listed, fh, indent=2)
            fh.write("\n")
        old_s = time.perf_counter() - t0
        print(f"\nsolution.json of appbem,lad on 50000x20: writer {new_s:.3f} s "
              f"(traced peak {peak / 1e6:.2f} MB), json.dump(indent=2) {old_s:.3f} s")
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
        assert peak < 400_000


class TestMiscCommands:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_help_subcommand(self):
        assert main(["help"]) == 0

    def test_no_command_prints_help(self):
        assert main([]) == 0

    def test_unknown_flag_nonzero(self):
        assert main(["version", "--bogus"]) == 1

    def test_unknown_command_nonzero(self):
        assert main(["frobnicate"]) == 1

    def test_version_json_schema(self, capsys):
        assert main(["version", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"name", "version"}
        assert doc["name"] == "loire"

    def test_version_plain(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.startswith("loire ")

    def test_invalid_numeric_flag(self, tmp_path):
        rc = main(["simulate", "--lambda", "-3", "--out", str(tmp_path)])
        assert rc == 1
