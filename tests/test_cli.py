"""Command-line pipeline: subcommands, config handling, exit codes, determinism."""

import dataclasses
import functools
import json

import numpy as np
import pytest

import tritterlab.cli
from tritterlab.cli import ExperimentConfig, main, run_generate
from tritterlab.tomography import monte_carlo_uncertainty

TABLE1_CSV = (
    "Output 1 (%),Output 2 (%),Output 3 (%),Insertion loss (dB)\n"
    "32.01,30.24,29.86,0.356\n"
    "33.05,29.18,29.75,0.363\n"
    "32.97,27.92,29.94,0.409\n"
)


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


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

    def test_interferometer_from_csv(self, tmp_path):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        out = tmp_path / "report.json"
        rc = main(["generate", "--state", "w", "--shots", "500", "--seed", "2",
                   "--resamples", "4", "--interferometer-csv", str(csv_path),
                   "--out", str(out)])
        assert rc == 0
        report = _read_json(out)
        assert report["interferometer"]["source"] == "csv"
        assert report["interferometer"]["max_adjustment"] > 0
        # echoed config embeds the resolved matrix, not the file path
        assert report["config"]["interferometer"]["source"] == "matrix"
        assert report["noisy"]["probability"] != pytest.approx(1 / 9, abs=1e-6)

    def test_report_counts_unconverged_resamples(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["generate", "--state", "w", "--shots", "1000", "--seed", "4",
                     "--resamples", "3", "--out", str(out)]) == 0
        monte_carlo = _read_json(out)["tomography"]["monte_carlo"]
        for block in (monte_carlo["fidelity"], monte_carlo["purity"]):
            assert block["failures"] == 0
            assert block["unconverged"] == 0

    def test_unconverged_resamples_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            tritterlab.cli,
            "monte_carlo_uncertainty",
            functools.partial(monte_carlo_uncertainty, max_iter=2),
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

    def test_extinction_ratio_below_one_exits_2(self, tmp_path, capsys):
        rc = main(["generate", "--state", "w", "--extinction-ratio", "0.5",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "noise.extinction_ratio" in capsys.readouterr().err

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

    def test_non_convergence_exits_3(self, tmp_path):
        csv_path = tmp_path / "table1.csv"
        csv_path.write_text(TABLE1_CSV, encoding="utf-8")
        assert main(["calibrate", "--input", str(csv_path), "--max-iter", "1"]) == 3


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

    def test_overlap_above_one_exits_2(self, tmp_path):
        assert main(["hom", "--overlap", "1.5", "--rate", "100",
                     "--out", str(tmp_path / "z")]) == 2


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

    def test_monte_carlo_block_counts_unconverged(self, tmp_path):
        main(["generate", "--state", "w", "--shots", "1000", "--seed", "2",
              "--resamples", "2", "--out", str(tmp_path / "report.json")])
        recon_out = tmp_path / "recon.json"
        assert main(["tomo", "--counts", str(tmp_path / "report.counts.csv"),
                     "--target", "w", "--resamples", "3", "--out", str(recon_out)]) == 0
        assert _read_json(recon_out)["fidelity_mc"]["unconverged"] == 0

    def test_missing_counts_file_exits_2(self, tmp_path):
        assert main(["tomo", "--counts", str(tmp_path / "nope.csv")]) == 2


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
