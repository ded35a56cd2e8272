"""Command-line pipeline: subcommands, config handling, exit codes, determinism."""

import dataclasses
import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import tritterlab.cli
import tritterlab.tomography
from tritterlab.cli import ExperimentConfig, build_parser, main, run_generate
from tritterlab.interference import fourier_unitary, matrix_to_pairs
from tritterlab.tomography import MLE_TOL, reconstruct_mle

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
        assert report["provenance"]["timestamp_utc"] is None
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
        # only the resample fits: cli holds its own reference for the main fit
        monkeypatch.setattr(
            tritterlab.tomography,
            "reconstruct_mle",
            functools.partial(reconstruct_mle, max_iter=2),
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
             "bool-adjustment", "resolved-source", "resolved-no-path", "resolved-unknown-key"],
    )
    def test_malformed_config_exits_2_naming_field(self, tmp_path, capsys, config, flags, field):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        rc = main(["generate", "--config", str(cfg_path), *flags, "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

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

    def test_non_convergence_exits_3(self, tmp_path):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        assert main(["calibrate", "--input", str(csv_path), "--max-iter", "1"]) == 3

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_no_sweeps_exits_2(self, tmp_path, capsys, max_iter):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        assert main(["calibrate", "--input", str(csv_path), "--max-iter", max_iter]) == 2
        assert "max_iter" in capsys.readouterr().err


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

    def test_zero_rate_exits_2(self, tmp_path):
        assert main(["hom", "--rate", "0", "--out", str(tmp_path / "z")]) == 2

    def test_too_few_points_exit_2(self, tmp_path, capsys):
        assert main(["hom", "--rate", "100", "--points", "4", "--out", str(tmp_path / "z")]) == 2
        assert capsys.readouterr().err == "validation error: need at least 5 scan points\n"

    def test_overlap_above_one_exits_2(self, tmp_path):
        assert main(["hom", "--overlap", "1.5", "--rate", "100",
                     "--out", str(tmp_path / "z")]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--rate", "nan"], ["--rate", "inf"], ["--rate", "1e20"], ["--rate", "1", "--coherence", "inf"],
         ["--rate", "1", "--span", "nan"], ["--rate", "nan", "--no-poisson"]],
        ids=["rate-nan", "rate-inf", "rate-beyond-poisson", "coherence-inf", "span-nan", "rate-nan-expected"],
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
        assert payload["fidelity"] > 0.98
        assert payload["converged"] is True
        assert "fidelity_mc" in payload
        assert len(payload["rho"]) == 8
        assert 0.0 <= payload["gap"] <= MLE_TOL
        mc = payload["fidelity_mc"]
        assert 1 <= mc["iterations_max"] <= mc["iterations"] <= 4 * mc["iterations_max"]
        assert 0.0 <= mc["gap_max"] <= MLE_TOL

    def test_resamples_without_target_exits_2(self, tmp_path, capsys):
        counts = tmp_path / "one-qubit.csv"
        counts.write_text("setting,outcome,count\nX,0,60\nX,1,40\nY,0,55\nY,1,45\nZ,0,70\nZ,1,30\n",
                          encoding="utf-8")
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(counts), "--resamples", "5", "--out", str(out)]) == 2
        assert "--target" in capsys.readouterr().err
        assert not out.exists()
        assert main(["tomo", "--counts", str(counts), "--out", str(out)]) == 0

    def test_monte_carlo_block_counts_unconverged(self, tmp_path):
        main(["generate", "--state", "w", "--shots", "1000", "--seed", "2",
              "--resamples", "2", "--out", str(tmp_path / "report.json")])
        recon_out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(tmp_path / "report.counts.csv"),
                     "--target", "w", "--resamples", "3", "--out", str(recon_out)]) == 0
        assert _read_json(recon_out)["fidelity_mc"]["unconverged"] == 0

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
    def test_oversized_count_exits_2(self, tmp_path, capsys, count, message):
        counts = _small_counts_csv(tmp_path)
        lines = Path(counts).read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rpartition(",")[0] + f",{count}"
        Path(counts).write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", counts, "--target", "w", "--resamples", "3", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
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
    assert set(report["tomography"]["monte_carlo"]) == {"fidelity", "purity"}
    assert set(report["provenance"]) == {"package_version", "numpy_version", "timestamp_utc"}
    assert set(report["tomography"]["monte_carlo"]["fidelity"]) == MC_KEYS
    assert set(report["tomography"]["monte_carlo"]["purity"]) == MC_KEYS
    assert set(report["witness"]) == WITNESS_KEYS

    out = tmp_path / "recon.json"
    assert main(["tomo", "--counts", counts, "--out", str(out)]) == 0
    assert set(_read_json(out)) == FIT_KEYS
    assert main(["tomo", "--counts", counts, "--target", "w", "--out", str(out)]) == 0
    assert set(_read_json(out)) == FIT_KEYS | {"target", "fidelity", "purity"}
    assert main(["tomo", "--counts", counts, "--target", "w", "--resamples", "2", "--out", str(out)]) == 0
    payload = _read_json(out)
    assert set(payload) == FIT_KEYS | {"target", "fidelity", "purity", "fidelity_mc"}
    assert set(payload["fidelity_mc"]) == MC_KEYS

    assert main(["hom", "--rate", "1e4", "--out", str(tmp_path / "dip")]) == 0
    assert set(_read_json(tmp_path / "dip.fit.json")) == DIP_KEYS


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
            config.interferometer_matrix = None
