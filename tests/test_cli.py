"""Command-line pipeline: subcommands, config handling, exit codes, determinism."""

import dataclasses
import functools
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tritterlab.calibration
import tritterlab.cli
import tritterlab.interference
import tritterlab.tomography
from tritterlab import (CountsTable, DipScan, GaussianFit, MonteCarloResult, ReconstructionResult, WitnessReport,
                        canonical_state, monte_carlo_uncertainty, purity, simulate_counts, witness_report)
from tritterlab.cli import _HOM_MAX_POINTS, ExperimentConfig, build_parser, main, run_generate
from tritterlab.interference import fourier_unitary, matrix_to_pairs
from tritterlab.tomography import MC_MAX_RESAMPLES, MLE_TOL, reconstruct_mle

TABLE1_CSV = (
    "Output 1 (%),Output 2 (%),Output 3 (%),Insertion loss (dB)\n"
    "32.01,30.24,29.86,0.356\n"
    "33.05,29.18,29.75,0.363\n"
    "32.97,27.92,29.94,0.409\n"
)

RESOLVED = "interferometer.resolved_from"
#: the record generate writes there for a csv source
RESOLVED_FROM = {"source": "csv", "path": "table1.csv", "max_adjustment": 0.01}


def _matrix_source(resolved_from) -> dict:
    """A config whose splitter is the ideal tritter's matrix, echoed with ``resolved_from``."""
    matrix = matrix_to_pairs(fourier_unitary(3).matrix)
    return {"interferometer": {"source": "matrix", "matrix": matrix, "resolved_from": resolved_from}}


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _small_counts_csv(tmp_path) -> str:
    assert main(["generate", "--state", "w", "--shots", "300", "--seed", "1",
                 "--resamples", "2", "--out", str(tmp_path / "small.json")]) == 0
    return str(tmp_path / "small.counts.csv")


class TestGenerate:
    def test_ideal_w_run(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            ["generate", "--state", "w", "--shots", "2000", "--seed", "7",
             "--resamples", "4", "--out", str(out)]
        )
        assert rc == 0
        report = _read_json(out)
        assert report["noisy"]["probability"] == pytest.approx(1 / 9, abs=1e-12)
        assert report["noisy"]["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert report["ideal"]["expected_probability"] == [1, 9]
        assert report["tomography"]["reconstruction"]["fidelity"] > 0.98
        assert report["witness"]["w_witness_pass"] is True
        assert report["witness"]["genuine_tripartite_pass"] is True
        assert "timestamp_utc" not in report["provenance"]
        counts_csv = tmp_path / "report.counts.csv"
        assert counts_csv.exists()
        assert counts_csv.read_text(encoding="utf-8").startswith("setting,outcome,count")

    def test_ideal_ghzprime_probability_and_class(self, tmp_path):
        out = tmp_path / "ghz.json"
        rc = main(
            ["generate", "--state", "ghzprime", "--shots", "2000", "--seed", "3",
             "--resamples", "4", "--out", str(out)]
        )
        assert rc == 0
        report = _read_json(out)
        assert report["noisy"]["probability"] == pytest.approx(1 / 12, abs=1e-12)
        assert report["witness"]["ghz_class_pass"] is True

    def test_byte_identical_reports_for_same_config(self, tmp_path):
        args = ["generate", "--state", "gprime", "--shots", "1000", "--seed", "5",
                "--resamples", "4"]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_different_seed_changes_tomography(self, tmp_path):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--state", "w", "--shots", "500", "--seed", "1",
              "--resamples", "4", "--out", str(out_a)])
        main(["generate", "--state", "w", "--shots", "500", "--seed", "2",
              "--resamples", "4", "--out", str(out_b)])
        a, b = _read_json(out_a), _read_json(out_b)
        assert a["tomography"]["reconstruction"]["log_likelihood"] != (
            b["tomography"]["reconstruction"]["log_likelihood"]
        )

    def test_config_file_with_flag_override(self, tmp_path):
        config = {
            "state": "w",
            "noise": {"white_noise": 0.2},
            "tomography": {"shots": 800, "resamples": 4, "seed": 9},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "report.json"
        rc = main(["generate", "--config", str(cfg_path), "--state", "ghzprime",
                   "--out", str(out)])
        assert rc == 0
        report = _read_json(out)
        assert report["config"]["state"] == "ghzprime"  # flag wins
        assert report["config"]["noise"]["white_noise"] == 0.2
        # white noise degrades fidelity below the pure-state value
        assert report["noisy"]["fidelity"] < 0.9

    def test_noise_knobs_reduce_fidelity(self, tmp_path):
        out = tmp_path / "noisy.json"
        gram = [[1, 1, 0.9778], [1, 1, 0.9778], [0.9778, 0.9778, 1]]
        rc = main(
            ["generate", "--state", "w", "--shots", "1500", "--seed", "11",
             "--resamples", "4", "--gram", json.dumps(gram),
             "--extinction-ratio", "335", "--white-noise", "0.02", "--out", str(out)]
        )
        assert rc == 0
        report = _read_json(out)
        assert 0.85 < report["noisy"]["fidelity"] < 0.99
        assert report["noisy"]["purity"] < 1.0

    def test_gram_file_matches_inline_gram(self, tmp_path):
        gram = [[1, 1, 0.9778], [1, 1, 0.9778], [0.9778, 0.9778, 1]]
        gram_path = tmp_path / "noise.json"
        gram_path.write_text(json.dumps(gram), encoding="utf-8")
        args = ["generate", "--state", "ghzprime", "--shots", "500", "--seed", "3", "--resamples", "2"]
        assert main(args + ["--gram", str(gram_path), "--out", str(tmp_path / "file.json")]) == 0
        assert main(args + ["--gram", json.dumps(gram), "--out", str(tmp_path / "inline.json")]) == 0
        assert (tmp_path / "file.json").read_bytes() == (tmp_path / "inline.json").read_bytes()

    def test_invalid_inline_gram_exits_2(self, tmp_path, capsys):
        assert main(["generate", "--gram", "[[1,", "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("configuration error: noise.gram: inline JSON invalid")
        assert not (tmp_path / "x.json").exists()

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # spreadsheet and editor "UTF-8 with BOM" files start with one
        config = json.dumps({"state": "gprime", "tomography": {"shots": 300, "resamples": 2, "seed": 4}})
        (tmp_path / "plain.json").write_text(config, encoding="utf-8")
        (tmp_path / "bom.json").write_text("\ufeff" + config, encoding="utf-8")
        for name in ("plain", "bom"):
            assert main(["generate", "--config", str(tmp_path / f"{name}.json"),
                         "--out", str(tmp_path / f"{name}-report.json")]) == 0
        assert (tmp_path / "bom-report.json").read_bytes() == (tmp_path / "plain-report.json").read_bytes()

    def test_interferometer_from_csv(self, tmp_path):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        out = tmp_path / "report.json"
        rc = main(["generate", "--state", "w", "--shots", "500", "--seed", "2",
                   "--resamples", "4", "--interferometer-csv", str(csv_path),
                   "--out", str(out)])
        assert rc == 0
        report = _read_json(out)
        assert report["config"]["interferometer"]["resolved_from"]["source"] == "csv"
        assert report["config"]["interferometer"]["resolved_from"]["max_adjustment"] > 0
        # echoed config embeds the resolved matrix, not the file path
        assert report["config"]["interferometer"]["source"] == "matrix"
        assert report["noisy"]["probability"] != pytest.approx(1 / 9, abs=1e-6)

    def test_report_counts_unconverged_resamples(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["generate", "--state", "w", "--shots", "1000", "--seed", "4",
                     "--resamples", "3", "--out", str(out)]) == 0
        tomo = _read_json(out)["tomography"]
        assert 0.0 <= tomo["reconstruction"]["gap"] <= MLE_TOL
        for block in (tomo["monte_carlo"]["fidelity"], tomo["monte_carlo"]["purity"]):
            assert block["failures"] == 0
            assert block["unconverged"] == 0
            assert 1 <= block["iterations_max"] <= block["iterations"] <= 3 * block["iterations_max"]
            assert 0.0 <= block["gap_max"] <= MLE_TOL

    def test_unconverged_resamples_exit_3(self, tmp_path, monkeypatch, capsys):
        # only the resample fits: cli holds its own reference for the main fit; a warm resample
        # fit can converge in one iteration, so none may take any
        monkeypatch.setattr(
            tritterlab.tomography,
            "reconstruct_mle",
            functools.partial(reconstruct_mle, max_iter=0),
        )
        rc = main(["generate", "--state", "w", "--shots", "1000", "--seed", "4",
                   "--resamples", "3", "--out", str(tmp_path / "x.json")])
        assert rc == 3
        assert "unconverged" in capsys.readouterr().err

    def test_invalid_white_noise_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "--state", "w", "--white-noise", "1.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "noise.white_noise" in capsys.readouterr().err

    def test_non_psd_gram_exits_2_naming_field(self, tmp_path, capsys):
        rc = main(["generate", "--state", "w",
                   "--gram", "[[1,2,0],[2,1,0],[0,0,1]]",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "noise.gram" in capsys.readouterr().err

    def test_nan_gram_exits_2_naming_the_failed_check(self, tmp_path, capsys):
        # json reads NaN; it used to pass every Gram check and stall the eigensolver
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"state": "w", "noise": {"gram": [[1, NaN, 1], [NaN, 1, 1], [1, 1, 1]]}}',
                            encoding="utf-8")
        rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: noise.gram: Gram matrix must be Hermitian")

    def test_extinction_ratio_below_one_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "--state", "w", "--extinction-ratio", "0.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "noise.extinction_ratio" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, flags",
        [("{}", ["--extinction-ratio", "inf"]), ('{"noise": {"extinction_ratio": 1e309}}', []),
         ('{"noise": {"extinction_ratio": [2, NaN, 3]}}', [])],
        ids=["flag-inf", "config-1e309", "config-nan"],
    )
    def test_non_finite_extinction_ratio_exits_2_naming_field(self, tmp_path, capsys, config, flags):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(config, encoding="utf-8")
        rc = main(["generate", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: noise.extinction_ratio: ")

    @pytest.mark.parametrize(
        "section, key", [("noise", "white_nosie"), ("tomography", "shot"), ("interferometer", "dim")]
    )
    def test_unknown_field_exits_2_naming_it(self, tmp_path, capsys, section, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"state": "w", section: {key: 3}}), encoding="utf-8")
        assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "x.json")]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["generate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err.startswith("validation error: config file not found: ")
        assert list(tmp_path.iterdir()) == []

    def test_four_port_csv_source_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "four.csv"
        csv_path.write_text("24,24,24,24\n" * 4, encoding="utf-8")
        rc = main(["generate", "--state", "w", "--interferometer-csv", str(csv_path),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "interferometer.path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, flags, field",
        [
            ({"noise": {"white_noise": "abc"}}, [], "noise.white_noise"),
            ({"tomography": {"shots": "many"}}, [], "tomography.shots"),
            ([{"state": "w"}], [], "config"),
            ([{"state": "w"}], ["--state", "w"], "config"),
            ({"noise": 5}, [], "noise"),
            ({"noise": {"gram": [[1, 1, "a"], [1, 1, 1], ["a", 1, 1]]}}, [], "noise.gram"),
            ({"tomography": {"seed": -1}}, [], "tomography.seed"),
            ({"tomography": {"shots": 200.7}}, [], "tomography.shots"),
            ({"tomography": {"resamples": 2.9}}, [], "tomography.resamples"),
            ({"tomography": {"seed": 7.5}}, [], "tomography.seed"),
            ({"tomography": {"shots": True}}, [], "tomography.shots"),
            ({"tomography": {"seed": False}}, [], "tomography.seed"),
            ({"noise": {"white_noise": True}}, [], "noise.white_noise"),
            ({"noise": {"gram": [[1, 1, 1], [1, True, 1], [1, 1, 1]]}}, [], "noise.gram"),
            ({"tomography": {"shots": "200"}}, [], "tomography.shots"),
            ({"tomography": {"resamples": "2"}}, [], "tomography.resamples"),
            ({"tomography": {"seed": "3"}}, [], "tomography.seed"),
            ({"noise": {"white_noise": "0.5"}}, [], "noise.white_noise"),
            ({"noise": {"extinction_ratio": "335"}}, [], "noise.extinction_ratio"),
            ({"noise": {"gram": [[1, 1, 1], [1, "1", 1], [1, 1, 1]]}}, [], "noise.gram"),
            (_matrix_source(dict(RESOLVED_FROM, max_adjustment="abc")), [], f"{RESOLVED}.max_adjustment"),
            (_matrix_source(dict(RESOLVED_FROM, max_adjustment=[1])), [], f"{RESOLVED}.max_adjustment"),
            (_matrix_source(dict(RESOLVED_FROM, max_adjustment=None)), [], f"{RESOLVED}.max_adjustment"),
            (_matrix_source(dict(RESOLVED_FROM, max_adjustment=-1.0)), [], f"{RESOLVED}.max_adjustment"),
            (_matrix_source(dict(RESOLVED_FROM, max_adjustment=True)), [], f"{RESOLVED}.max_adjustment"),
            (_matrix_source(dict(RESOLVED_FROM, source=5)), [], f"{RESOLVED}.source"),
            (_matrix_source({"source": "csv", "max_adjustment": 0.01}), [], f"{RESOLVED}.path"),
            (_matrix_source(dict(RESOLVED_FROM, tag=1)), [], f"{RESOLVED}.tag"),
            ({"interferometer": {"source": "csv"}}, [], "interferometer.path"),
            ({"interferometer": {"source": "matrix"}}, [], "interferometer.matrix"),
        ],
        ids=["white_noise", "shots", "array", "array-with-state", "noise", "gram", "seed",
             # whole-number fields take no fractions or booleans, number fields no booleans
             "fractional-shots", "fractional-resamples", "fractional-seed", "bool-shots", "bool-seed",
             "bool-white-noise", "bool-gram",
             # number fields take JSON numbers only, not numeric strings
             "text-shots", "text-resamples", "text-seed", "text-white-noise", "text-extinction-ratio",
             "text-gram",
             # a matrix source's resolved_from is only the record generate writes for a csv source
             "text-adjustment", "list-adjustment", "null-adjustment", "negative-adjustment",
             "bool-adjustment", "resolved-source", "resolved-no-path", "resolved-unknown-key",
             # a csv source reads a file and a matrix source a matrix: neither has a default
             "csv-no-path", "matrix-no-matrix"],
    )
    def test_malformed_config_exits_2_naming_field(self, tmp_path, capsys, config, flags, field):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        rc = main(["generate", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    @pytest.mark.parametrize("flags", [[], ["--resamples", str(MC_MAX_RESAMPLES + 1)]], ids=["config", "flag"])
    def test_resamples_above_the_bound_exit_2_naming_the_field(self, tmp_path, capsys, flags):
        # a resample pass draws every table at once; without this check the pass itself would reject the count
        # after the 300-shot main fit, as a validation error that names no field
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"tomography": {"shots": 300, "resamples": MC_MAX_RESAMPLES + 1}}),
                            encoding="utf-8")
        rc = main(["generate", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == (f"configuration error: tomography.resamples: {MC_MAX_RESAMPLES + 1} "
                                           f"lies outside [2, {MC_MAX_RESAMPLES}]\n")
        assert list(tmp_path.iterdir()) == [cfg_path]
        assert ExperimentConfig.from_dict({"tomography": {"resamples": MC_MAX_RESAMPLES}}).resamples == MC_MAX_RESAMPLES

    @pytest.mark.parametrize("flags", [[], ["--shots", str(2**63)]], ids=["config", "flag"])
    def test_shots_above_int64_exit_2(self, tmp_path, capsys, flags):
        # numpy's multinomial takes at most 2**63 - 1 trials
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"tomography": {"shots": 1e30}}), encoding="utf-8")
        rc = main(["generate", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("configuration error: tomography.shots: ")
        assert ExperimentConfig.from_dict({"tomography": {"shots": 2**63 - 1}}).shots == 2**63 - 1
        assert type(ExperimentConfig.from_dict({"tomography": {"shots": 1e4}}).shots) is int

    def test_null_field_reads_as_default(self):
        config = ExperimentConfig.from_dict(
            {"state": None, "noise": {"white_noise": None}, "tomography": None}
        )
        assert config.to_dict() == ExperimentConfig.from_dict({}).to_dict()

    def test_cancelled_coincidence_exits_3(self, tmp_path, capsys):
        # a 50:50 splitter on ports 1 and 2 plus a bare port 3: the W recipe's two H photons bunch,
        # so with identical spectra (the default Gram matrix) no three-fold coincidence is left
        s = 2**-0.5
        matrix = matrix_to_pairs(np.array([[s, s, 0], [s, -s, 0], [0, 0, 1]]))
        config = tmp_path / "bunched.json"
        config.write_text(json.dumps({"state": "w", "interferometer": {"source": "matrix", "matrix": matrix}}),
                          encoding="utf-8")
        assert main(["generate", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 3
        assert "post-selection probability vanished" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]

    def test_unknown_state_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--state", "bogus", "--out", str(tmp_path / "x.json")])

    def test_state_flag_read_in_any_case(self, tmp_path):
        # as the config and tomo --target read a state name
        assert build_parser().parse_args(["generate", "--state", "GHZPrime"]).state == "ghzprime"
        reports = []
        for state in ("W", "w"):
            out = tmp_path / f"{state}.json"
            assert main(["generate", "--state", state, "--shots", "300", "--resamples", "2", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestCalibrate:
    def test_published_table(self, tmp_path):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--input", str(csv_path), "--out", str(out)]) == 0
        cal = _read_json(out)
        display = np.array(
            [[0.987, 1.02, 0.997], [1.00, 0.999, 0.997], [1.01, 0.984, 1.01]]
        )
        assert np.abs(np.array(cal["magnitudes_scaled"]) - display).max() < 0.01
        assert np.abs(np.array(cal["insertion_loss_db"]) - [0.356, 0.363, 0.409]).max() < 0.02
        assert cal["doubly_stochastic_residual"] < 1e-9

    def test_uniform_table_gives_exact_balanced_matrix(self, tmp_path):
        csv_path = tmp_path / "uniform.csv"
        csv_path.write_text("33.0,33.0,33.0\n33.0,33.0,33.0\n33.0,33.0,33.0\n", encoding="utf-8")
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--input", str(csv_path), "--out", str(out)]) == 0
        cal = _read_json(out)
        assert np.abs(np.array(cal["magnitudes"]) - 1 / np.sqrt(3)).max() < 1e-12

    def test_four_port_table(self, tmp_path):
        csv_path = tmp_path / "four.csv"
        csv_path.write_text("24,24,24,24,0.18\n" * 4, encoding="utf-8")
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--input", str(csv_path), "--out", str(out)]) == 0
        cal = _read_json(out)
        assert np.abs(np.array(cal["magnitudes"]) - 0.5).max() < 1e-12
        assert np.abs(np.array(cal["magnitudes_scaled"]) - 1.0).max() < 1e-12
        assert cal["printed_loss_db"] == [0.18] * 4

    def test_malformed_csv_exits_2_naming_row(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("33,33,33\nbad,33,33\n33,33,33\n", encoding="utf-8")
        assert main(["calibrate", "--input", str(csv_path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["calibrate", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_stdout_is_the_file_out_writes(self, tmp_path, capsys):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--input", str(csv_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["calibrate", "--input", str(csv_path)]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_non_convergence_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tritterlab.calibration, "SINKHORN_MAX_ITER", 1)
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        assert main(["calibrate", "--input", str(csv_path)]) == 3

    def test_sweep_limit_is_not_a_flag(self, tmp_path):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--input", str(csv_path), "--max-iter", "1"])
        assert exc.value.code == 2

    def test_non_finite_loss_exits_2(self, tmp_path, capsys):
        # a NaN loss would otherwise reach the report, which strict JSON parsers reject
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV.replace("0.363", "nan"), encoding="utf-8")
        assert main(["calibrate", "--input", str(csv_path)]) == 2
        assert "insertion-loss column contains non-finite" in capsys.readouterr().err


class TestHom:
    def test_full_overlap_visibility_near_half(self, tmp_path):
        prefix = str(tmp_path / "dip")
        rc = main(["hom", "--overlap", "1.0", "--rate", "45000", "--points", "101",
                   "--seed", "4", "--out", prefix])
        assert rc == 0
        fit = _read_json(tmp_path / "dip.fit.json")
        assert fit["visibility"] == pytest.approx(0.5, abs=0.005)
        scan_lines = (tmp_path / "dip.scan.csv").read_text(encoding="utf-8").splitlines()
        assert scan_lines[0] == "delay,counts"
        assert len(scan_lines) == 102

    def test_partial_overlap_visibility(self, tmp_path):
        prefix = str(tmp_path / "dip")
        rc = main(["hom", "--overlap", "0.956", "--rate", "45000", "--points", "101",
                   "--seed", "4", "--out", prefix])
        assert rc == 0
        fit = _read_json(tmp_path / "dip.fit.json")
        assert fit["visibility"] == pytest.approx(0.478, abs=0.005)

    def test_noiseless_flag(self, tmp_path):
        prefix = str(tmp_path / "dip")
        rc = main(["hom", "--overlap", "1.0", "--rate", "9000", "--no-poisson",
                   "--out", prefix])
        assert rc == 0
        fit = _read_json(tmp_path / "dip.fit.json")
        assert fit["visibility"] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_fit_at_any_coherence_is_the_unit_fit_scaled(self, tmp_path, power):
        # the overlap reads delays in coherence units and the fit rescales them by a power of two, so at coherence
        # 2**power, where delays**2 underflows to 0 or overflows, the fit is the coherence-1 fit scaled exactly
        fits = []
        for coherence in (1.0, 2.0**power):
            assert main(["hom", "--rate", "1e4", "--overlap", "0.956", "--coherence", repr(coherence),
                         "--out", str(tmp_path / f"dip{len(fits)}")]) == 0
            fits.append(_read_json(tmp_path / f"dip{len(fits)}.fit.json"))
        unit, scaled = fits
        assert scaled == unit | {key: unit[key] * 2.0**power for key in ("center", "width", "coherence")}

    def test_zero_rate_exits_2(self, tmp_path):
        assert main(["hom", "--rate", "0", "--out", str(tmp_path / "z")]) == 2

    def test_too_few_points_exit_2(self, tmp_path, capsys):
        assert main(["hom", "--rate", "100", "--points", "4", "--out", str(tmp_path / "z")]) == 2
        assert capsys.readouterr().err == "validation error: need at least 5 scan points\n"

    def test_overlap_above_one_exits_2(self, tmp_path):
        assert main(["hom", "--overlap", "1.5", "--rate", "100",
                     "--out", str(tmp_path / "z")]) == 2

    def test_negative_points_exit_2_writing_nothing(self, tmp_path, capsys):
        # the five-point minimum also keeps np.linspace from a negative count, a ValueError with exit 1
        assert main(["hom", "--rate", "100", "--points", "-3", "--out", str(tmp_path / "z")]) == 2
        assert capsys.readouterr().err == "validation error: need at least 5 scan points\n"
        assert list(tmp_path.iterdir()) == []

    def test_points_above_the_bound_exit_2_writing_nothing(self, tmp_path, capsys):
        # without this check the scan and its fit would hold about 14 MiB, for well under a second
        points = str(_HOM_MAX_POINTS + 1)
        assert main(["hom", "--rate", "100", "--points", points, "--out", str(tmp_path / "z")]) == 2
        assert capsys.readouterr().err == f"validation error: --points must be at most {_HOM_MAX_POINTS}, got {points}\n"
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_rate_exits_2_with_the_scan_message(self, tmp_path, capsys):
        # hom_scan is the one check of the rate
        assert main(["hom", "--rate", "nan", "--out", str(tmp_path / "z")]) == 2
        assert capsys.readouterr().err == "validation error: count rate must be positive and finite, got nan\n"

    @pytest.mark.parametrize("flag, value", [("--span", "0"), ("--span", "-4"), ("--coherence", "0"),
                                             ("--coherence", "-1")])
    def test_non_positive_coherence_or_span_exits_2_naming_it(self, tmp_path, capsys, flag, value):
        assert main(["hom", "--rate", "1e4", flag, value, "--out", str(tmp_path / "z")]) == 2
        assert capsys.readouterr().err == f"validation error: {flag} must be positive and finite, got {float(value)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--span", "1e-320", "--points", "5"], ["--span", "1e301"]],
                             ids=["floor-only", "one-point-in-dip"])
    def test_unresolved_dip_exits_3_writing_nothing(self, tmp_path, capsys, flags):
        # a scan of the dip's floor alone, or with one point inside the dip, fits a width below half the spacing
        assert main(["hom", "--rate", "1e4", *flags, "--out", str(tmp_path / "dip")]) == 3
        assert "is outside the scan's resolved range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_dip_fit_prints_its_residual(self, tmp_path, capsys, monkeypatch):
        # a ramp has no dip: its fit width runs past the span, and the message states the residual in counts
        scan = DipScan(np.linspace(-4.0, 4.0, 9), np.linspace(10.0, 50.0, 9))
        monkeypatch.setattr(tritterlab.cli, "hom_scan", lambda *args, **kwargs: scan)
        assert main(["hom", "--rate", "100", "--out", str(tmp_path / "dip")]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"numerical failure: dip width \S+ is outside the scan's resolved range "
                            r"\[\S+, 8\] \(residual \d\.\d{3}e[+-]\d+\)\n", err), err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [["--rate", "nan"], ["--rate", "inf"], ["--rate", "1e20"], ["--rate", "1", "--coherence", "inf"],
         ["--rate", "1", "--span", "nan"], ["--rate", "nan", "--no-poisson"], ["--rate", "1", "--span", "1e308"]],
        ids=["rate-nan", "rate-inf", "rate-beyond-poisson", "coherence-inf", "span-nan", "rate-nan-expected",
             "range-beyond-floats"],
    )
    def test_non_finite_or_oversized_arguments_exit_2(self, tmp_path, capsys, flags):
        assert main(["hom", *flags, "--out", str(tmp_path / "z")]) == 2
        assert capsys.readouterr().err.startswith("validation error: ")
        assert list(tmp_path.iterdir()) == []


class TestTomo:
    def test_reconstruct_from_counts_csv(self, tmp_path):
        out = tmp_path / "report.json"
        main(["generate", "--state", "w", "--shots", "3000", "--seed", "7",
              "--resamples", "4", "--out", str(out)])
        recon_out = tmp_path / "recon.json"
        rc = main(["tomo", "--counts", str(tmp_path / "report.counts.csv"),
                   "--target", "w", "--resamples", "4", "--out", str(recon_out)])
        assert rc == 0
        payload = _read_json(recon_out)
        recon = payload["tomography"]["reconstruction"]
        assert recon["fidelity"] > 0.98
        assert recon["converged"] is True
        assert "monte_carlo" in payload["tomography"]
        assert len(payload["rho"]) == 8
        assert 0.0 <= recon["gap"] <= MLE_TOL
        mc = payload["tomography"]["monte_carlo"]["fidelity"]
        assert 1 <= mc["iterations_max"] <= mc["iterations"] <= 4 * mc["iterations_max"]
        assert 0.0 <= mc["gap_max"] <= MLE_TOL

    def test_resamples_above_the_bound_exit_2(self, tmp_path, capsys):
        # one count per setting: nearly every resample draws an empty setting and fails at once, so without
        # the bound the pass would take a few seconds and tens of MiB, then exit 3
        counts = np.zeros((27, 8), dtype=np.int64)
        counts[:, 0] = 1
        CountsTable(counts).to_csv(tmp_path / "sparse.csv")
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(tmp_path / "sparse.csv"), "--target", "w",
                     "--resamples", str(MC_MAX_RESAMPLES + 1), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"validation error: resamples {MC_MAX_RESAMPLES + 1} "
                                           f"lies outside [2, {MC_MAX_RESAMPLES}]\n")
        assert not out.exists()

    @pytest.mark.parametrize("resamples", [1, MC_MAX_RESAMPLES + 1, -2])
    def test_resamples_outside_the_bound_exit_2_before_any_fit(self, tmp_path, capsys, monkeypatch, resamples):
        # the count is checked by the pass's own rule, before the main fit
        counts = _small_counts_csv(tmp_path)
        fits = []
        monkeypatch.setattr(tritterlab.cli, "reconstruct_mle", lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", counts, "--target", "w", "--resamples", str(resamples),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"validation error: resamples {resamples} lies outside [2, 10000]\n"
        assert fits == []
        assert not out.exists()

    @pytest.mark.parametrize("resamples", [[], ["--resamples", "2"]], ids=["fit", "passes"])
    def test_target_of_another_qubit_count_exits_2_before_any_fit(self, tmp_path, capsys, monkeypatch, resamples):
        counts = tmp_path / "one-qubit.csv"
        counts.write_text("setting,outcome,count\nX,0,60\nX,1,40\nY,0,55\nY,1,45\nZ,0,70\nZ,1,30\n",
                          encoding="utf-8")
        fits = []
        monkeypatch.setattr(tritterlab.cli, "reconstruct_mle", lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(counts), "--target", "w", *resamples, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "validation error: --target has 8 amplitudes, the counts 2 outcomes\n"
        assert fits == []
        assert not out.exists()

    def test_resamples_without_target_give_purity_alone(self, tmp_path):
        counts = tmp_path / "one-qubit.csv"
        counts.write_text("setting,outcome,count\nX,0,60\nX,1,40\nY,0,55\nY,1,45\nZ,0,70\nZ,1,30\n",
                          encoding="utf-8")
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(counts), "--resamples", "5", "--out", str(out)]) == 0
        payload = _read_json(out)
        assert set(payload) == {"rho", "tomography"}  # the witnesses are of 3 qubits
        assert "fidelity" not in payload["tomography"]["reconstruction"]
        assert set(payload["tomography"]["monte_carlo"]) == {"purity"}

    def test_purity_pass_is_the_same_with_or_without_target(self, tmp_path):
        # on the README GHZ' counts the purity pass keeps its own seed, whether a fidelity pass runs beside it or not
        assert main(["generate", "--state", "ghzprime", "--gram", "[[1,1,0.9778],[1,1,0.9778],[0.9778,0.9778,1]]",
                     "--white-noise", "0.02", "--extinction-ratio", "335", "--resamples", "2", "--seed", "1",
                     "--out", str(tmp_path / "report.json")]) == 0
        blocks = []
        for target in ([], ["--target", "ghzprime"]):
            out = tmp_path / f"recon{len(blocks)}.json"
            assert main(["tomo", "--counts", str(tmp_path / "report.counts.csv"), *target, "--resamples", "10",
                         "--seed", "1", "--out", str(out)]) == 0
            blocks.append(_read_json(out)["tomography"]["monte_carlo"])
        alone, beside = blocks
        assert set(alone) == {"purity"} and set(beside) == {"fidelity", "purity"}
        assert json.dumps(alone["purity"], sort_keys=True) == json.dumps(beside["purity"], sort_keys=True)

    def test_monte_carlo_block_counts_unconverged(self, tmp_path):
        main(["generate", "--state", "w", "--shots", "1000", "--seed", "2",
              "--resamples", "2", "--out", str(tmp_path / "report.json")])
        recon_out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(tmp_path / "report.counts.csv"),
                     "--target", "w", "--resamples", "3", "--out", str(recon_out)]) == 0
        assert _read_json(recon_out)["tomography"]["monte_carlo"]["fidelity"]["unconverged"] == 0

    @pytest.mark.parametrize("seed", ["1", "7"])
    @pytest.mark.parametrize("state, noise, resamples", [
        ("w", [], "50"),
        ("ghzprime", ["--gram", "[[1,1,0.9778],[1,1,0.9778],[0.9778,0.9778,1]]", "--white-noise", "0.02",
                      "--extinction-ratio", "335"], "4"),
    ], ids=["ideal-w", "readme-ghzprime"])
    def test_report_counts_give_the_report_blocks(self, tmp_path, state, noise, resamples, seed):
        # one analysis of a counts table: tomo on a report's counts, given its state, resamples and seed, writes the
        # report's own tomography and witness blocks, byte for byte
        run = ["--resamples", resamples, "--seed", seed]
        assert main(["generate", "--state", state, *noise, *run, "--out", str(tmp_path / "report.json")]) == 0
        assert main(["tomo", "--counts", str(tmp_path / "report.counts.csv"), "--target", state, *run,
                     "--out", str(tmp_path / "recon.json")]) == 0
        report, recon = _read_json(tmp_path / "report.json"), _read_json(tmp_path / "recon.json")
        assert set(recon) == {"rho", "target", "tomography", "witness"}
        for block in ("tomography", "witness"):
            assert json.dumps(recon[block], sort_keys=True) == json.dumps(report[block], sort_keys=True)

    def test_counts_out_path_holds_the_table_tomo_analyses(self, tmp_path):
        # --counts-out moves the counts CSV from its default path beside the report; the table there is the report's
        run = ["--resamples", "3", "--seed", "5"]
        counts = tmp_path / "table.csv"
        assert main(["generate", "--state", "w", "--shots", "2000", *run, "--out", str(tmp_path / "report.json"),
                     "--counts-out", str(counts)]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["report.json", "table.csv"]
        assert main(["tomo", "--counts", str(counts), "--target", "w", *run,
                     "--out", str(tmp_path / "recon.json")]) == 0
        report, recon = _read_json(tmp_path / "report.json"), _read_json(tmp_path / "recon.json")
        assert {block: recon[block] for block in ("tomography", "witness")} == {
            block: report[block] for block in ("tomography", "witness")
        }

    def test_repeated_counts_row_exits_2(self, tmp_path, capsys):
        counts = _small_counts_csv(tmp_path)
        with open(counts, "a", encoding="utf-8") as fh:
            fh.write("XXX,000,99999\n")
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", counts, "--target", "w", "--out", str(out)]) == 2
        assert "line 218" in capsys.readouterr().err
        assert not out.exists()

    def test_setting_without_counts_exits_2_naming_it(self, tmp_path, capsys):
        counts = tmp_path / "one-qubit.csv"
        counts.write_text("setting,outcome,count\nZ,1,30\nX,0,60\n", encoding="utf-8")
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(counts), "--out", str(out)]) == 2
        assert "1 have none: ['Y']" in capsys.readouterr().err
        assert not out.exists()

    def test_non_digit_count_exits_2(self, tmp_path, capsys):
        counts = tmp_path / "one-qubit.csv"
        counts.write_text("setting,outcome,count\nX,0,6_0\nX,1,40\nY,0,55\nY,1,45\nZ,0,70\nZ,1,30\n",
                          encoding="utf-8")
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(counts), "--out", str(out)]) == 2
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "count, message", [(10**23, "line 2: count"), (2**63 - 1, "Poisson")], ids=["above-int64", "beyond-poisson"]
    )
    def test_oversized_count_exits_2(self, tmp_path, capsys, monkeypatch, count, message):
        # counts that the passes cannot resample exit 2 before the main fit
        counts = _small_counts_csv(tmp_path)
        lines = Path(counts).read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rpartition(",")[0] + f",{count}"
        Path(counts).write_text("\n".join(lines) + "\n", encoding="utf-8")
        fits = []
        monkeypatch.setattr(tritterlab.cli, "reconstruct_mle", lambda *args, **kwargs: fits.append(args))
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", counts, "--target", "w", "--resamples", "3", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert fits == []
        assert not out.exists()

    def test_counts_above_the_qubit_bound_exit_2(self, tmp_path, capsys):
        counts = tmp_path / "five-qubit.csv"
        rows = [f"{''.join(s)},{o:05b},1" for s in itertools.product("XYZ", repeat=5) for o in range(32)]
        counts.write_text("setting,outcome,count\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(counts), "--out", str(out)]) == 2
        assert "qubit count 5 exceeds bound 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", [[], ["--target", "w", "--resamples", "2"]], ids=["fit", "target"])
    def test_stdout_is_the_file_out_writes(self, tmp_path, capsys, target):
        counts = _small_counts_csv(tmp_path)
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", counts, *target, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["tomo", "--counts", counts, *target]) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_linalg_error_exits_3(self, tmp_path, capsys, monkeypatch):
        counts = _small_counts_csv(tmp_path)

        def failing(table, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(tritterlab.cli, "reconstruct_mle", failing)
        capsys.readouterr()
        assert main(["tomo", "--counts", counts]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: eigenvalues did not converge")

    def test_missing_counts_file_exits_2(self, tmp_path):
        assert main(["tomo", "--counts", str(tmp_path / "nope.csv")]) == 2

    def test_unknown_target_rejected_by_argparse(self, tmp_path):
        counts = _small_counts_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["tomo", "--counts", counts, "--target", "foo"])
        assert exc.value.code == 2
        assert build_parser().parse_args(["tomo", "--counts", counts, "--target", "W"]).target == "w"


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--state", "w", "--shots", "300", "--resamples", "2"],
        ["hom", "--rate", "100", "--points", "11"],
        ["tomo", "--target", "w", "--resamples", "3"],
    ],
    ids=["generate", "hom", "tomo"],
)
def test_negative_seed_rejected_by_argparse(tmp_path, capsys, argv):
    if argv[0] == "tomo":
        argv = argv + ["--counts", _small_counts_csv(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, text",
    [
        (["tomo", "--counts"], "setting,outcome,count\nZ,0,5\nZ,1,5\nX,0,5\nY,0,5\n"),
        (["calibrate", "--input"], TABLE1_CSV),
        (["generate", "--interferometer-csv"], TABLE1_CSV),
        (["generate", "--config"], '{"state": "w"}'),
        (["generate", "--gram"], "[[1, 1, 1], [1, 1, 1], [1, 1, 1]]"),
        (["report", "--input"], "{}"),
    ],
    ids=["counts", "ratios", "splitter", "config", "gram", "report"],
)
def test_utf16_file_exits_2_naming_it(tmp_path, capsys, flags, text):
    # spreadsheets save "Unicode text" as UTF-16, which starts with the bytes FF FE
    path = tmp_path / "export.txt"
    path.write_bytes(b"\xff\xfe" + text.encode("utf-16-le"))
    out = ["--out", str(tmp_path / "out.json")] if flags[0] != "report" else []
    assert main(flags + [str(path)] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "export.txt" in err and "utf-8" in err.lower()
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "flags, text",
    [(["tomo", "--counts"], "setting,outcome,count\nZ,0,{}\n"), (["calibrate", "--input"], "33,33,33\n33,{},33\n")],
    ids=["counts", "ratios"],
)
def test_csv_field_beyond_the_csv_module_limit_exits_2_naming_it(tmp_path, capsys, flags, text):
    # the csv module's default field limit is 2^17 characters
    path = tmp_path / "huge.csv"
    path.write_text(text.format('"' + "3" * 2**17 + '3"'), encoding="utf-8")
    assert main(flags + [str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert "huge.csv: line 2: field larger than field limit" in capsys.readouterr().err


class TestReport:
    def test_summary_and_check(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["generate", "--state", "gprime", "--shots", "800", "--seed", "13",
              "--resamples", "4", "--out", str(out)])
        capsys.readouterr()
        rc = main(["report", "--input", str(out), "--check"])
        out_text = capsys.readouterr().out
        assert rc == 0
        assert "gprime" in out_text
        assert "reproducible" in out_text

    def test_check_passes_for_csv_sourced_interferometer(self, tmp_path, capsys):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        out = tmp_path / "report.json"
        main(["generate", "--state", "w", "--shots", "400", "--seed", "6",
              "--resamples", "4", "--interferometer-csv", str(csv_path), "--out", str(out)])
        csv_path.unlink()  # closure: the echoed config must not need the file
        capsys.readouterr()
        assert main(["report", "--input", str(out), "--check"]) == 0
        assert "reproducible" in capsys.readouterr().out

    def test_check_detects_tampering(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["generate", "--state", "w", "--shots", "500", "--seed", "1",
              "--resamples", "4", "--out", str(out)])
        report = _read_json(out)
        report["noisy"]["probability"] = 0.25
        out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        assert main(["report", "--input", str(out), "--check"]) == 3

    @pytest.mark.parametrize("key, other, running", [("package_version", "0.27.0", tritterlab.__version__),
                                                      ("numpy_version", "1.25.2", np.__version__)],
                             ids=["package_version", "numpy_version"])
    def test_check_of_a_report_from_another_version_exits_2_naming_both(self, tmp_path, capsys, key, other, running):
        # another version of the package or of numpy may fit the same config to other bits, so regenerating it
        # proves nothing
        out = tmp_path / "report.json"
        main(["generate", "--state", "w", "--shots", "500", "--seed", "1",
              "--resamples", "4", "--out", str(out)])
        report = _read_json(out)
        report["provenance"][key] = other
        out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--input", str(out)]) == 0
        assert main(["report", "--input", str(out), "--check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: ") and other in err and running in err

    def test_process_exit_codes(self, tmp_path):
        # main() returns the code; entry() must hand it to the process, which is what scripts read
        out = tmp_path / "report.json"
        main(["generate", "--state", "w", "--shots", "500", "--seed", "1",
              "--resamples", "4", "--out", str(out)])
        tampered = tmp_path / "tampered.json"
        report = _read_json(out)
        report["noisy"]["probability"] = 0.25
        tampered.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        src = str(Path(tritterlab.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        codes = [subprocess.run([sys.executable, "-m", "tritterlab.cli", "report", "--input", str(path), "--check"],
                                capture_output=True, env=env).returncode
                 for path in (out, tmp_path / "missing.json", tampered)]
        assert codes == [0, 2, 3]

    def test_workflow_console_checks_pass(self, tmp_path):
        # the CI workflow runs ci/console.sh on the installed console script; the same checks run here on src/
        script = Path(__file__).resolve().parents[1] / "ci" / "console.sh"
        src = str(Path(tritterlab.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(["bash", "-e", str(script), f"{sys.executable} -m tritterlab.cli"], cwd=tmp_path,
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert "check:        reproducible" in result.stdout

    def test_malformed_report_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["report", "--input", str(bad)]) == 2

    def test_report_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("5\n", encoding="utf-8")
        assert main(["report", "--input", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("validation error: ")

    def test_report_with_empty_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(["generate", "--state", "w", "--shots", "300", "--seed", "1",
              "--resamples", "2", "--out", str(out)])
        report = _read_json(out)
        report["config"] = {}
        out.write_text(json.dumps(report), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--input", str(out)]) == 2
        assert capsys.readouterr().err.startswith("validation error: ")


#: the keys of each record block, pinned so that a field added to a record changes a report only on purpose
FIT_KEYS = {"rho", "log_likelihood", "iterations", "converged", "gap", "rank"}
MC_KEYS = {"mean", "std", "failures", "unconverged", "iterations", "iterations_max", "gap_max"}
WITNESS_KEYS = {"fidelity_w", "overlap_ghzprime", "w_witness_pass", "genuine_tripartite_pass", "ghz_class_pass"}
DIP_KEYS = {"amplitude", "center", "width", "offset", "residual_norm", "visibility", "peak_overlap_sq",
            "coherence", "rate", "seed", "floor_rate", "ceiling_rate"}


def test_record_blocks_keep_their_keys(tmp_path):
    counts = _small_counts_csv(tmp_path)
    report = _read_json(tmp_path / "small.json")
    assert set(report) == {"config", "ideal", "noisy", "tomography", "witness", "provenance"}
    assert set(report["tomography"]) == {"reconstruction", "monte_carlo"}
    assert set(report["tomography"]["reconstruction"]) == FIT_KEYS - {"rho"} | {"fidelity", "purity"}
    assert set(report["tomography"]["monte_carlo"]) == {"fidelity", "purity"}
    assert set(report["provenance"]) == {"package_version", "numpy_version"}
    assert set(report["tomography"]["monte_carlo"]["fidelity"]) == MC_KEYS
    assert set(report["tomography"]["monte_carlo"]["purity"]) == MC_KEYS
    assert set(report["witness"]) == WITNESS_KEYS

    # tomo writes its estimate beside the report's tomography and witness blocks: the fidelity needs a target,
    # the Monte-Carlo block resamples
    out = tmp_path / "recon.json"
    assert main(["tomo", "--counts", counts, "--out", str(out)]) == 0
    payload = _read_json(out)
    assert set(payload) == {"rho", "tomography", "witness"}
    assert set(payload["tomography"]) == {"reconstruction"}
    assert set(payload["tomography"]["reconstruction"]) == FIT_KEYS - {"rho"} | {"purity"}
    assert set(payload["witness"]) == WITNESS_KEYS
    assert main(["tomo", "--counts", counts, "--target", "w", "--out", str(out)]) == 0
    payload = _read_json(out)
    assert set(payload) == {"rho", "target", "tomography", "witness"}
    assert set(payload["tomography"]) == {"reconstruction"}
    assert set(payload["tomography"]["reconstruction"]) == set(report["tomography"]["reconstruction"])
    assert main(["tomo", "--counts", counts, "--target", "w", "--resamples", "2", "--out", str(out)]) == 0
    payload = _read_json(out)
    assert set(payload) == {"rho", "target", "tomography", "witness"}
    assert set(payload["tomography"]) == {"reconstruction", "monte_carlo"}
    assert set(payload["tomography"]["monte_carlo"]) == {"fidelity", "purity"}
    assert all(set(block) == MC_KEYS for block in payload["tomography"]["monte_carlo"].values())

    assert main(["hom", "--rate", "1e4", "--out", str(tmp_path / "dip")]) == 0
    assert set(_read_json(tmp_path / "dip.fit.json")) == DIP_KEYS


def test_record_encodes_every_field():
    # a record holds only what its report block shows: _record keeps out no field
    v = canonical_state("w")
    counts = simulate_counts(np.outer(v, v.conj()), 300, seed=1)
    recon = reconstruct_mle(counts)
    records = {
        ReconstructionResult: recon,
        MonteCarloResult: monte_carlo_uncertainty(counts, 2, purity, seed=0),
        WitnessReport: witness_report(recon.rho),
        GaussianFit: GaussianFit(amplitude=1.0, center=0.0, width=1.0, offset=2.0, residual_norm=0.0),
    }
    for kind, record in records.items():
        assert type(record) is kind
        assert list(tritterlab.cli._record(record)) == [f.name for f in dataclasses.fields(kind)]


class TestExperimentConfig:
    def test_round_trip_through_dict(self):
        config = ExperimentConfig.from_dict(
            {
                "state": "ghzprime",
                "noise": {"gram": np.eye(3).tolist(), "white_noise": 0.1},
                "tomography": {"shots": 123, "resamples": 5, "seed": 42},
            }
        )
        echoed = ExperimentConfig.from_dict(config.to_dict())
        assert echoed.to_dict() == config.to_dict()

    def test_unknown_section_rejected(self):
        with pytest.raises(Exception, match="unknown configuration section"):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_run_generate_is_deterministic_in_memory(self):
        config = ExperimentConfig.from_dict(
            {"state": "w", "tomography": {"shots": 400, "resamples": 4, "seed": 3}}
        )
        report_a, counts_a = run_generate(config)
        report_b, counts_b = run_generate(config)
        assert report_a == report_b
        assert np.array_equal(counts_a.counts, counts_b.counts)

    def test_run_generate_leaves_config_unchanged(self, tmp_path):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        config = ExperimentConfig.from_dict(
            {"interferometer": {"source": "csv", "path": str(csv_path)},
             "tomography": {"shots": 400, "resamples": 2, "seed": 3}}
        )
        before = config.to_dict()
        run_generate(config)
        assert config.to_dict() == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.interferometer = None

    @pytest.mark.parametrize("source", ["csv", "matrix"])
    def test_run_generate_checks_no_splitter_again(self, tmp_path, monkeypatch, source):
        # the config keeps the Interferometer it read, unitarity checked; run_generate uses that object
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        interferometer = {"source": "csv", "path": str(csv_path)}
        if source == "matrix":
            interferometer = ExperimentConfig.from_dict({"interferometer": interferometer}).to_dict()["interferometer"]
        checked = []
        check_unitary = tritterlab.interference.check_unitary

        def counting(m, name="matrix"):
            checked.append(np.array(m))
            check_unitary(m, name)

        monkeypatch.setattr(tritterlab.interference, "check_unitary", counting)
        config = ExperimentConfig.from_dict(
            {"interferometer": interferometer, "tomography": {"shots": 400, "resamples": 2, "seed": 3}}
        )
        assert any(np.array_equal(m, config.interferometer.matrix) for m in checked)
        checked.clear()
        run_generate(config)
        assert checked  # the ideal tritter is still built and checked
        assert not any(np.array_equal(m, config.interferometer.matrix) for m in checked)
