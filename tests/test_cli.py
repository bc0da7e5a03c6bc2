"""Command-line surface: ingestion, subcommands, exit codes, formats."""

import json

import numpy as np
import pytest

from depthwl import (
    DepthMethod,
    DprConfig,
    EstimatorConfig,
    GaussianParams,
    RootSet,
    WeightSpec,
    kl_gaussian,
    mle_fit,
)
from depthwl import cli
from depthwl.cli import CsvError, load_csv_dataset, main


def write_csv(path, rows, header=None):
    lines = [] if header is None else [header]
    lines += [",".join(f"{v}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def clean_csv(tmp_path):
    rng = np.random.default_rng(100)
    return write_csv(tmp_path / "clean.csv", rng.standard_normal((60, 2)))


class TestCsvIngestion:
    def test_plain_numeric(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [[1.0, 2.0], [3.0, 4.0]])
        data = load_csv_dataset(path)
        assert data.shape == (2, 2)

    def test_header_autodetected(self, tmp_path):
        path = write_csv(tmp_path / "b.csv", [[1.0, 2.0]], header="x,y")
        assert load_csv_dataset(path).shape == (1, 2)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(CsvError, match="line 2"):
            load_csv_dataset(str(p))

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(CsvError, match="line 2"):
            load_csv_dataset(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(CsvError):
            load_csv_dataset(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CsvError):
            load_csv_dataset(str(tmp_path / "nope.csv"))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\nnan,4\n")
        with pytest.raises(CsvError, match="line 2"):
            load_csv_dataset(str(p))


class TestFitCommand:
    def test_two_clusters_multiple_roots(self, tmp_path, capsys):
        rng = np.random.default_rng(101)
        shift = 6.0 / np.sqrt(2)
        data = np.vstack(
            [rng.standard_normal((150, 2)),
             shift + rng.standard_normal((150, 2))]
        )
        path = write_csv(tmp_path / "two.csv", data)
        out = tmp_path / "roots.json"
        code = main([
            "fit", "--input", path, "--subsamples", "200",
            "--seed", "5", "--output", str(out),
        ])
        assert code == 0
        blob = json.loads(out.read_text())
        assert len(blob["roots"]) >= 2
        assert blob["selected"] is not None
        assert len(blob["roots"][0]["weights"]) == 300

    def test_alpha_zero_rejected(self, clean_csv):
        assert main(["fit", "--input", clean_csv, "--alpha", "0"]) == 1

    def test_clean_defaults_close_to_mle(self, clean_csv, tmp_path):
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--input", clean_csv, "--subsamples", "50",
            "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        blob = json.loads(out.read_text())
        best = GaussianParams.from_dict(
            blob["roots"][blob["selected"]]["params"]
        )
        mle = mle_fit(load_csv_dataset(clean_csv))
        assert kl_gaussian(best, mle) < 0.5

    def test_ragged_csv_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        assert main(["fit", "--input", str(p)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_no_converged_root_exit_2(self, tmp_path):
        path = write_csv(tmp_path / "flat.csv", [[1.0, 1.0]] * 12)
        init = tmp_path / "init.json"
        init.write_text(json.dumps(GaussianParams.standard(2).to_dict()))
        code = main([
            "fit", "--input", path, "--init", "file",
            "--init-file", str(init),
        ])
        assert code == 2

    def test_init_depth(self, clean_csv, tmp_path):
        out = tmp_path / "d.json"
        code = main([
            "fit", "--input", clean_csv, "--init", "depth",
            "--output", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["roots"]

    def test_round_trip_serialization(self, clean_csv, tmp_path):
        out = tmp_path / "fit.json"
        main([
            "fit", "--input", clean_csv, "--subsamples", "20",
            "--seed", "2", "--output", str(out),
        ])
        text = out.read_text()
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == text


def fit_config(monkeypatch, csv_path, *flags) -> EstimatorConfig:
    """The EstimatorConfig that ``depthwl fit`` builds from ``flags``."""
    seen = []

    def fake_find_roots(data, cfg, inits):
        seen.append(cfg)
        return RootSet(roots=(), selected=None, diagnostics={})

    monkeypatch.setattr(cli, "find_roots", fake_find_roots)
    code = main(["fit", "--input", csv_path, "--init", "depth", *flags])
    assert code == 2
    (cfg,) = seen
    return cfg


class TestFitWeightFlags:
    @pytest.mark.parametrize("alpha", [0.25, 0.3, 0.5, 0.75, 1.0])
    def test_alpha_selects_calibrated_table(self, monkeypatch, clean_csv, alpha):
        cfg = fit_config(monkeypatch, clean_csv, "--alpha", str(alpha))
        assert cfg == EstimatorConfig(
            dpr=DprConfig(alpha),
            weights=WeightSpec.optimal(alpha),
            depth_method=DepthMethod.exact_2d(),
        )

    def test_smooth_family_takes_table_xi(self, monkeypatch, clean_csv):
        cfg = fit_config(
            monkeypatch, clean_csv, "--family", "smooth", "--alpha", "0.75"
        )
        assert cfg.weights == WeightSpec.smooth_exp(0.05, trim_xi=5.0)
        assert cfg.dpr == DprConfig(0.75)

    def test_overrides_applied(self, monkeypatch, clean_csv):
        cfg = fit_config(
            monkeypatch, clean_csv, "--delta1", "1.5", "--xi", "inf"
        )
        assert cfg.weights == WeightSpec.piecewise(
            1.5, 9.0, 0.3, trim_xi=float("inf")
        )

    def test_invalid_override_rejected(self, clean_csv):
        assert main(["fit", "--input", clean_csv, "--delta1", "10"]) == 1


class TestDepthCommand:
    def test_univariate_self_depths(self, tmp_path, capsys):
        path = write_csv(tmp_path / "u.csv", [[1.0], [2.0], [3.0]])
        assert main(["depth", "--input", path]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "row_index,depth"
        assert out[1:] == ["0,0.3333", "1,0.6667", "2,0.3333"]

    def test_out_of_hull_query(self, tmp_path, capsys):
        path = write_csv(tmp_path / "u.csv", [[1.0], [2.0], [3.0]])
        q = write_csv(tmp_path / "q.csv", [[10.0]])
        assert main(["depth", "--input", path, "--query", q]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[1] == "0,0.0000"

    def test_projection_direction_count_monotone(self, tmp_path):
        rng = np.random.default_rng(102)
        path = write_csv(tmp_path / "p5.csv", rng.standard_normal((40, 5)))
        few_p = tmp_path / "few.csv"
        many_p = tmp_path / "many.csv"
        main(["depth", "--input", path, "--directions", "10",
              "--seed", "3", "--output", str(few_p)])
        main(["depth", "--input", path, "--directions", "10000",
              "--seed", "3", "--output", str(many_p)])
        few = [float(l.split(",")[1]) for l in few_p.read_text().strip().split("\n")[1:]]
        many = [float(l.split(",")[1]) for l in many_p.read_text().strip().split("\n")[1:]]
        assert all(f >= m for f, m in zip(few, many))


class TestSimulateCommand:
    def grid_blob(self, **overrides):
        blob = {
            "dims": [2],
            "size_factors": [2],
            "epsilons": [0.0, 0.2],
            "mu_cs": [5.0],
            "sigma_cs": [1.0],
            "reps": 1,
            "seed": 3,
            "init": {"strategy": "truth"},
        }
        blob.update(overrides)
        return blob

    def test_smoke_grid(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(self.grid_blob()))
        outdir = tmp_path / "out"
        assert main(["simulate", "--grid", str(grid),
                     "--output-dir", str(outdir)]) == 0
        lines = (outdir / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2  # header + one row per cell
        assert (outdir / "summary.json").exists()
        assert "max_mse" in capsys.readouterr().out

    def test_byte_identical_runs(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(self.grid_blob(reps=2)))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--grid", str(grid), "--output-dir", str(out1)])
        main(["simulate", "--grid", str(grid), "--output-dir", str(out2)])
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_malformed_config_names_field(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        blob = self.grid_blob()
        del blob["reps"]
        grid.write_text(json.dumps(blob))
        assert main(["simulate", "--grid", str(grid),
                     "--output-dir", str(tmp_path / "x")]) == 1
        assert "reps" in capsys.readouterr().err


class TestBreakdownCommand:
    def test_no_outliers(self, tmp_path):
        out = tmp_path / "b.json"
        code = main([
            "breakdown", "--p", "2", "--n", "50", "--m", "0",
            "--distance", "1e6", "--seed", "1", "--output", str(out),
        ])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["displacement"] < 1e-6

    def test_far_outliers(self, tmp_path):
        out = tmp_path / "b.json"
        code = main([
            "breakdown", "--p", "2", "--n", "50", "--m", "20",
            "--distance", "1e6", "--seed", "2", "--output", str(out),
        ])
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["outlier_weight_sum"] == 0.0
        assert blob["displacement"] < 0.5

    def test_small_n_rejected(self, capsys):
        assert main(["breakdown", "--p", "5", "--n", "10", "--m", "1",
                     "--distance", "1e3", "--seed", "1"]) == 1
        assert "n > 2*p" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["fit"]) == 1


class TestDeterminism:
    def test_fit_byte_identical_given_flags(self, clean_csv, tmp_path):
        o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
        flags = ["fit", "--input", clean_csv, "--subsamples", "30", "--seed", "6"]
        main(flags + ["--output", str(o1)])
        main(flags + ["--output", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_exact_depth_rejected_above_2d(self, tmp_path):
        rng = np.random.default_rng(103)
        path = write_csv(tmp_path / "p5.csv", rng.standard_normal((30, 5)))
        assert main(["depth", "--input", path, "--depth-method", "exact"]) == 1
