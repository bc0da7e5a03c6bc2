"""Command-line surface: ingestion, subcommands, exit codes, formats."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depthwl import (
    DepthMethod,
    EstimatorConfig,
    GaussianParams,
    RootSet,
    WeightSpec,
    depth_init,
    empirical_depths,
    find_roots,
    kl_gaussian,
    mle_fit,
)
from depthwl import cli, depth
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

    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark, which
    # is not part of the first line: that line is data, or still a header.
    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,7\n")
        assert np.array_equal(load_csv_dataset(str(p)), [[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])

    def test_byte_order_mark_before_header(self, tmp_path):
        p = tmp_path / "bom_header.csv"
        p.write_bytes(b"\xef\xbb\xbfx,y\n1,2\n3,4\n")
        assert np.array_equal(load_csv_dataset(str(p)), [[1.0, 2.0], [3.0, 4.0]])

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

    # Blank lines are skipped but still counted.
    @pytest.mark.parametrize("contents, line", [("1,2\nnan,4\n", 2), ("x,y\n1,2\n\n3,inf\n", 4)],
                             ids=["nan", "inf-after-blank-line"])
    def test_non_finite_rejected(self, tmp_path, contents, line):
        p = tmp_path / "f.csv"
        p.write_text(contents)
        with pytest.raises(CsvError, match=rf"^{re.escape(str(p))}: line {line}: non-finite value$"):
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

    @pytest.mark.parametrize("alpha", ["-0.1", "-1e-1"])
    def test_negative_alpha_rejected_by_name(self, clean_csv, capsys, alpha):
        # -1e-1 is read as a value, not as an option, as -0.1 is
        assert main(["fit", "--input", clean_csv, "--alpha", alpha]) == 1
        assert capsys.readouterr().err == "error: alpha must lie in (0, 1]\n"

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

    def test_non_finite_init_file_exit_1(self, clean_csv, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text('{"mu": [NaN, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}')
        code = main([
            "fit", "--input", clean_csv, "--init", "file",
            "--init-file", str(init),
        ])
        assert code == 1
        assert "finite" in capsys.readouterr().err

    def test_integer_too_large_for_a_float_init_file_exit_1(self, clean_csv, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text('{"mu": [1%s, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}' % ("0" * 400))
        code = main([
            "fit", "--input", clean_csv, "--init", "file",
            "--init-file", str(init),
        ])
        assert code == 1
        assert "mu holds an integer too large for a float" in capsys.readouterr().err

    @pytest.mark.parametrize("blob, problem", [
        ({"sigma": [[1.0, 0.0], [0.0, 1.0]]}, "missing fields: ['mu']"),
        ({"mu": {"a": 1}, "sigma": [[1.0, 0.0], [0.0, 1.0]]},
         "mu must be a rectangular array of real numbers"),
        ([5], "expected a JSON object, got 5"),
        # the file's own keys, not the flags
        ({"mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]], "B": 3}, "unknown fields: ['B']"),
    ])
    def test_malformed_init_file_exit_1(self, clean_csv, tmp_path, capsys, blob, problem):
        init = tmp_path / "init.json"
        init.write_text(json.dumps(blob))
        code = main([
            "fit", "--input", clean_csv, "--init", "file",
            "--init-file", str(init),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and problem in err

    @pytest.mark.parametrize("contents, message", [
        (None, "error: cannot read init file: "),
        ("{'mu': [0.0]}", "error: init file is not valid JSON: "),
    ], ids=["missing", "malformed"])
    def test_unreadable_init_file_named(self, clean_csv, tmp_path, capsys, contents, message):
        init = tmp_path / "init.json"
        if contents is not None:
            init.write_text(contents)
        code = main(["fit", "--input", clean_csv, "--init", "file", "--init-file", str(init)])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("flags, message", [
        (["--init", "subsample", "--init-file", "START"],
         "--init-file do not apply to --init subsample"),
        (["--init", "depth", "--init-file", "START"], "--init-file do not apply to --init depth"),
        (["--init", "depth", "--subsamples", "10"], "--subsamples do not apply to --init depth"),
        (["--init", "file", "--init-file", "START", "--subsamples", "10"],
         "--subsamples do not apply to --init file"),
        (["--init", "depth", "--init-file", "START", "--subsamples", "10"],
         "--subsamples, --init-file do not apply to --init depth"),
    ], ids=["file-with-subsample", "file-with-depth", "subsamples-with-depth",
            "subsamples-with-file", "both-with-depth"])
    def test_start_flag_of_another_strategy_rejected(self, clean_csv, tmp_path, capsys,
                                                     flags, message):
        start = tmp_path / "start.json"
        start.write_text(json.dumps(GaussianParams.standard(2).to_dict()))
        flags = [str(start) if flag == "START" else flag for flag in flags]
        assert main(["fit", "--input", clean_csv, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--subsamples", "0"], "--subsamples must be an integer >= 1, got 0"),
        (["--xi", "0"], "--xi must be positive"),
        (["--init", "file", "--init-file", "EMPTY"],
         "--init file requires at least one parameter set"),
        (["--family", "smooth", "--a", "-1"], "--family smooth requires a >= 0"),
        (["--directions", "0"], "--directions must be an integer >= 1, got 0"),
    ], ids=["subsamples", "xi", "empty-init-file", "smooth-a", "directions"])
    def test_bad_flag_value_named(self, clean_csv, tmp_path, capsys, flags, message):
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        flags = [str(empty) if flag == "EMPTY" else flag for flag in flags]
        assert main(["fit", "--input", clean_csv, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_init_file_strategy_requires_the_flag(self, clean_csv, capsys):
        assert main(["fit", "--input", clean_csv, "--init", "file"]) == 1
        assert capsys.readouterr().err == "error: --init file requires --init-file PATH\n"

    def test_subsample_count_defaults_to_init_spec(self, clean_csv, tmp_path):
        outs = []
        for flags in ([], ["--subsamples", "500"]):
            out = tmp_path / f"{len(outs)}.json"
            assert main(["fit", "--input", clean_csv, "--init", "subsample", *flags,
                         "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_seed_seeds_the_directions_of_a_depth_start(self, clean_csv, tmp_path):
        # --seed is a depth flag as well, so a start of another strategy takes it.
        out = tmp_path / "roots.json"
        assert main(["fit", "--input", clean_csv, "--init", "depth", "--depth-method",
                     "projection", "--directions", "50", "--seed", "3",
                     "--output", str(out)]) == 0
        data = load_csv_dataset(clean_csv)
        cfg = EstimatorConfig(depth_method=DepthMethod.projection(50, seed=3))
        want = find_roots(data, cfg, [depth_init(data, cfg.depth_method)])
        assert out.read_text() == cli._json_dumps(want.to_dict())

    def test_init_depth(self, clean_csv, tmp_path):
        out = tmp_path / "d.json"
        code = main([
            "fit", "--input", clean_csv, "--init", "depth",
            "--output", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text())["roots"]

    def test_init_depth_one_depth_pass(self, clean_csv, tmp_path, monkeypatch):
        calls = []

        def counting(queries, data, method):
            calls.append(method)
            return empirical_depths(queries, data, method)

        monkeypatch.setattr(cli, "empirical_depths", counting)
        monkeypatch.setattr(depth, "empirical_depths", counting)
        out = tmp_path / "d.json"
        assert main(["fit", "--input", clean_csv, "--init", "depth",
                     "--output", str(out)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        # The output of a depth start and a fit that each compute the depths.
        data = load_csv_dataset(clean_csv)
        want = find_roots(data, EstimatorConfig(), [depth_init(data)])
        assert out.read_text() == cli._json_dumps(want.to_dict())

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

    def fake_find_roots(data, cfg, inits, emp_depths=None):
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
            weights=WeightSpec.optimal(alpha),
            depth_method=DepthMethod(),
        )

    def test_smooth_family_takes_table_xi(self, monkeypatch, clean_csv):
        cfg = fit_config(
            monkeypatch, clean_csv, "--family", "smooth", "--alpha", "0.75"
        )
        assert cfg.weights == WeightSpec.smooth_exp(0.05, trim_xi=5.0, alpha=0.75)

    def test_overrides_applied(self, monkeypatch, clean_csv):
        cfg = fit_config(
            monkeypatch, clean_csv, "--delta1", "1.5", "--xi", "inf"
        )
        assert cfg.weights == WeightSpec.piecewise(
            1.5, 9.0, 0.3, trim_xi=float("inf")
        )

    def test_invalid_override_rejected(self, clean_csv):
        assert main(["fit", "--input", clean_csv, "--delta1", "10"]) == 1

    def test_smooth_decay_flag_applied(self, monkeypatch, clean_csv):
        cfg = fit_config(
            monkeypatch, clean_csv, "--family", "smooth", "--a", "0.2", "--xi", "3"
        )
        assert cfg.weights == WeightSpec.smooth_exp(0.2, trim_xi=3.0)

    @pytest.mark.parametrize("flags, message", [
        (["--family", "smooth", "--delta1", "3"], "do not apply to --family smooth"),
        (["--a", "7"], "--a does not apply to --family piecewise"),
    ])
    def test_inapplicable_flag_rejected(self, clean_csv, capsys, flags, message):
        assert main(["fit", "--input", clean_csv, *flags]) == 1
        assert message in capsys.readouterr().err


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

    def test_query_matrix_against_one_column_rejected(self, tmp_path, capsys):
        # three columns against one-column data: one query of the wrong
        # dimension, not three one-dimensional queries
        path = write_csv(tmp_path / "u.csv", [[1.0], [2.0], [3.0]])
        q = write_csv(tmp_path / "q.csv", [[1.0, 2.0, 3.0]])
        assert main(["depth", "--input", path, "--query", q]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: query dimension does not match data dimension\n")

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

    @pytest.mark.parametrize("flags, message", [
        (["--depth-method", "exact", "--directions", "10"],
         "--directions applies only to auto and projection"),
        (["--directions", "0"], "--directions must be an integer >= 1, got 0"),
    ], ids=["with-exact", "zero"])
    def test_bad_directions_named(self, clean_csv, capsys, flags, message):
        assert main(["depth", "--input", clean_csv, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("contents, message", [
        (None, "error: cannot read grid config: "),
        ('{"dims": [2],}', "error: grid config is not valid JSON: "),
    ], ids=["missing", "malformed"])
    def test_unreadable_grid_named(self, tmp_path, capsys, contents, message):
        grid = tmp_path / "grid.json"
        if contents is not None:
            grid.write_text(contents)
        outdir = tmp_path / "out"
        assert main(["simulate", "--grid", str(grid), "--output-dir", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not outdir.exists()

    def test_inapplicable_weight_field_rejected(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        weights = {"family": "smooth_exp", "a": 0.1, "delta1": 2.0, "alpha": 0.5}
        grid.write_text(json.dumps(self.grid_blob(estimator={"weights": weights})))
        assert main(["simulate", "--grid", str(grid),
                     "--output-dir", str(tmp_path / "x")]) == 1
        assert "invalid field: estimator" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code", [("exact", 0), ("exact-1d", 1), ("exact-2d", 1)],
                             ids=["exact", "exact-1d", "exact-2d"])
    def test_exact_kind_spelling(self, tmp_path, capsys, kind, code):
        grid = tmp_path / "grid.json"
        weights = {"family": "piecewise", "delta1": 2, "delta2": 9,
                   "gamma": 0.3, "xi": 1, "alpha": 0.5}
        estimator = {"weights": weights, "depth_method": {"kind": kind}}
        grid.write_text(json.dumps(self.grid_blob(estimator=estimator)))
        assert main(["simulate", "--grid", str(grid),
                     "--output-dir", str(tmp_path / "x")]) == code
        if code:
            assert "unknown depth method kind" in capsys.readouterr().err

    def test_non_integral_directions_exit_1(self, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        weights = {"family": "piecewise", "delta1": 2, "delta2": 9,
                   "gamma": 0.3, "xi": 1, "alpha": 0.5}
        estimator = {"weights": weights,
                     "depth_method": {"kind": "projection", "n_directions": 100.5}}
        grid.write_text(json.dumps(self.grid_blob(estimator=estimator)))
        assert main(["simulate", "--grid", str(grid),
                     "--output-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_directions must be an integer" in err

    WEIGHTS = {"family": "piecewise", "delta1": 2, "delta2": 9, "gamma": 0.3, "alpha": 0.5}

    @pytest.mark.parametrize("overrides, field", [
        ({"reps": 2.5}, "reps"),
        ({"reps": True}, "reps"),
        ({"seed": 1.9}, "seed"),
        ({"dims": [2.7]}, "dims"),
        ({"dims": [0]}, "dims"),
        ({"size_factors": [0]}, "size_factors"),
        ({"epsilons": [1.5]}, "epsilon"),
        ({"mu_cs": [float("inf")]}, "mu_c"),
        ({"mu_cs": [float("nan")]}, "mu_c"),
        ({"sigma_cs": [-1]}, "sigma_c"),
        ({"init": {"strategy": "subsample", "B": 10.9}}, "B"),
        ({"init": {"strategy": "truth", "B": 10}}, "B"),
        ({"init": {"strategy": "subsample",
                   "params_list": [GaussianParams.standard(2).to_dict()]}}, "params_list"),
        ({"estimator": {"weights": WEIGHTS, "max_iter": 10.5}}, "max_iter"),
        ({"dims": 3}, "dims must be a list"),
        ({"epsilons": 0.2}, "epsilons must be a list"),
        ({"estimator": {"weights": WEIGHTS, "tol": "x"}}, "tol must be a real number"),
        ({"estimator": {"weights": {**WEIGHTS, "alpha": "0.5"}}},
         "alpha must be a real number"),
        ({"estimator": {"weights": {**WEIGHTS, "delta2": "9"}}},
         "delta2 must be a real number"),
        ({"mu_cs": [10**400]}, "mu_cs"),
        ({"estimator": {"weights": {**WEIGHTS, "delta2": 10**400}}}, "delta2"),
        ({"dims": [3], "init": {"strategy": "custom",
                                "params_list": [GaussianParams.standard(2).to_dict()]}}, "init"),
        ({"size_factors": [1], "init": {"strategy": "subsample"}}, "init"),
        ({"sigma_cs": []}, "sigma_cs must be nonempty"),
    ])
    def test_bad_value_exits_1_at_load(self, tmp_path, capsys, monkeypatch, overrides, field):
        ran = []
        monkeypatch.setattr(cli, "run_grid", lambda cfg: ran.append(cfg))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(self.grid_blob(**overrides)))
        outdir = tmp_path / "out"
        assert main(["simulate", "--grid", str(grid), "--output-dir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert "invalid field" in err and field in err
        assert not ran and not outdir.exists()


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

    @pytest.mark.parametrize("flag, value, message", [
        ("--m", "-1", "m must be an integer >= 0, got -1"),
        ("--p", "0", "p must be an integer >= 1, got 0"),
        ("--distance", "nan", "distance must be finite, got nan"),
        ("--distance", "-inf", "distance must be finite, got -inf"),
        ("--xi", "0", "--xi must be positive"),
        ("--a", "7", "--a does not apply to --family piecewise"),
    ], ids=["m", "p", "distance", "distance-negative-inf", "xi", "a"])
    def test_bad_input_named(self, capsys, flag, value, message):
        args = {"--p": "2", "--n": "20", "--m": "2", "--distance": "1e3", flag: value}
        assert main(["breakdown", *(x for kv in args.items() for x in kv)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_negative_exponent_distance_is_a_value(self, tmp_path):
        outs = []
        for distance in (["--distance", "-1e3"], ["--distance=-1e3"]):
            out = tmp_path / f"{len(outs)}.json"
            assert main(["breakdown", "--p", "1", "--n", "20", "--m", "2", *distance,
                         "--seed", "0", "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_small_n_rejected(self, capsys):
        assert main(["breakdown", "--p", "5", "--n", "10", "--m", "1",
                     "--distance", "1e3", "--seed", "1"]) == 1
        assert "n > 2*p" in capsys.readouterr().err

    def test_clean_fit_failure_reported(self, capsys):
        assert main(["breakdown", "--p", "5", "--n", "30", "--m", "5",
                     "--distance", "50", "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: clean fit failed: effective sample size")


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["fit"]) == 1

    def test_module_runs_the_commands(self, capsys):
        # python -m depthwl.cli is the console script: same bytes, same exit codes
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv, code in [
            (["breakdown", "--p", "1", "--n", "20", "--m", "0", "--distance", "1", "--seed", "0"], 0),
            (["breakdown", "--p", "1", "--n", "20", "--m", "-1", "--distance", "1"], 1),
        ]:
            assert main(argv) == code
            want = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "depthwl.cli", *argv],
                                  capture_output=True, env=env)
            assert proc.returncode == code
            assert proc.stdout == want.out.encode()
            assert proc.stderr == want.err.encode()


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


class TestImports:
    def test_no_scipy_on_the_import_path(self, tmp_path):
        # a fresh interpreter: the CLI's start-up cost includes every
        # import, and each command then runs with scipy blocked
        src = str(Path(cli.__file__).resolve().parents[1])
        data = write_csv(tmp_path / "d.csv", np.random.default_rng(7).standard_normal((12, 2)))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"dims": [1, 2], "size_factors": [2], "epsilons": [0.0],
                                    "mu_cs": [5.0], "sigma_cs": [1.0], "reps": 2, "seed": 0}))
        runs = [
            ["fit", "--input", data, "--subsamples", "5", "--output", str(tmp_path / "f.json")],
            ["depth", "--input", data, "--output", str(tmp_path / "d.out")],
            ["depth", "--input", data, "--depth-method", "projection", "--directions", "20",
             "--output", str(tmp_path / "p.out")],
            ["simulate", "--grid", str(grid), "--output-dir", str(tmp_path / "sim")],
            ["breakdown", "--p", "1", "--n", "12", "--m", "2", "--distance", "50",
             "--output", str(tmp_path / "b.json")],
        ]
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import depthwl, depthwl.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "sys.modules['scipy'] = None; "
            "print([depthwl.cli.main(argv) for argv in json.loads(sys.argv[2])])"
        )
        proc = subprocess.run([sys.executable, "-c", code, src, json.dumps(runs)],
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "[0, 0, 0, 0, 0]", proc.stderr
