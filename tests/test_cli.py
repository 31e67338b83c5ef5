import csv
import json

import numpy as np
import pytest

from loire import read_pgm, write_pgm
from loire.benchmark import BenchmarkReport
from loire.cli import main


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

    def test_oracle_refused_above_enumeration_guard(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [(float(v), float(2 * v)) for v in rng.uniform(size=40)]
        path = tmp_path / "big.csv"
        write_csv(path, ["x", "y"], rows)
        rc = main(["regress", str(path), "--target", "y", "--method", "oracle",
                   "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n1.0,oops\n")
        rc = main(["regress", str(path), "--target", "y", "--out", str(tmp_path)])
        assert rc == 2
        assert ":3:" in capsys.readouterr().err

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

    def test_lad_runs(self, corrupted_fixture, tmp_path):
        path, clean_slope = corrupted_fixture
        out = tmp_path / "out"
        rc = main(["regress", str(path), "--target", "y", "--intercept",
                   "--method", "lad", "--out", str(out)])
        assert rc == 0
        slope = load_solution(out)["lad"]["x"][0]
        assert abs(slope - clean_slope) <= 0.1 * abs(clean_slope)


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
        args = ["simulate", "--n", "40", "--seed", "7", "--timing", "none"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
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
        assert len(rows) == 4
        for row in rows:
            assert BenchmarkReport.from_row(row).to_row() == row

    def test_unconverged_solve_warns(self, tmp_path, capsys):
        # the default lambda shrinks everything to B = 0 in one step, which
        # converges at once; criterion 5's lambda gives a real solve
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

    def test_unknown_method_rejected(self, tmp_path):
        rc = main(["simulate", "--method", "rpca", "--out", str(tmp_path)])
        assert rc == 1

    def test_bad_n_rejected(self, tmp_path):
        rc = main(["simulate", "--n", "abc", "--out", str(tmp_path)])
        assert rc == 1


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
