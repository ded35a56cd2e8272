"""Splitter magnitudes, insertion loss, dip scans and Gaussian fits."""

import csv
import math
import warnings

import numpy as np
import pytest

import tritterlab.cli
from tritterlab import (
    ConvergenceError,
    DipScan,
    GaussianFit,
    IntensityTable,
    Interferometer,
    ValidationError,
    fit_gaussian,
    fourier_unitary,
    hom_scan,
    insertion_loss_db,
    interferometer_from_magnitudes,
    pair_coincidence_probability,
    sinkhorn_magnitudes,
    visibility,
)
from conftest import random_unitary

# measured splitting ratios (percent of input power) and printed losses
RATIOS = np.array(
    [
        [32.01, 30.24, 29.86],
        [33.05, 29.18, 29.75],
        [32.97, 27.92, 29.94],
    ]
)
PRINTED_LOSS_DB = np.array([0.356, 0.363, 0.409])
# published normalised magnitudes, scaled by sqrt(3)
DISPLAY_MAGNITUDES = np.array(
    [
        [0.987, 1.02, 0.997],
        [1.00, 0.999, 0.997],
        [1.01, 0.984, 1.01],
    ]
)


class TestSinkhorn:
    def test_uniform_table_gives_balanced_magnitudes(self):
        table = IntensityTable(np.full((3, 3), 33.33))
        mag = sinkhorn_magnitudes(table)
        assert np.abs(mag - 1 / np.sqrt(3)).max() < 1e-12

    def test_measured_table_matches_published_magnitudes(self):
        mag = sinkhorn_magnitudes(IntensityTable(RATIOS, PRINTED_LOSS_DB))
        assert np.abs(mag * np.sqrt(3) - DISPLAY_MAGNITUDES).max() < 0.01

    def test_squared_magnitudes_doubly_stochastic(self):
        mag = sinkhorn_magnitudes(IntensityTable(RATIOS), tol=1e-11)
        squared = mag**2
        assert np.abs(squared.sum(axis=0) - 1).max() < 1e-11
        assert np.abs(squared.sum(axis=1) - 1).max() < 1e-11

    def test_row_scaling_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            base = rng.uniform(0.5, 2.0, size=(3, 3))
            scales = rng.uniform(0.1, 1.0, size=(3, 1))
            # entries below 2 keep every row sum below 100 %
            a = sinkhorn_magnitudes(IntensityTable(base))
            b = sinkhorn_magnitudes(IntensityTable(base * scales))
            assert np.abs(a - b).max() < 1e-8

    def test_zero_entry_cannot_scale(self):
        bad = RATIOS.copy()
        bad[0, 1] = 0.0
        with pytest.raises(ValidationError, match="cannot scale"):
            sinkhorn_magnitudes(IntensityTable(bad))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_no_sweeps_rejected(self, max_iter):
        with pytest.raises(ValidationError, match="max_iter"):
            sinkhorn_magnitudes(IntensityTable(RATIOS), max_iter=max_iter)

    def test_non_convergence_reports_residual(self):
        with pytest.raises(ConvergenceError) as err:
            sinkhorn_magnitudes(IntensityTable(RATIOS), max_iter=1)
        assert err.value.residual is not None
        assert err.value.residual > 0


class TestInsertionLoss:
    def test_first_measured_row(self):
        # -10 log10(0.9211) = 0.35697 dB, printed as 0.356
        loss = insertion_loss_db(RATIOS[0])
        assert loss == pytest.approx(0.35697, abs=5e-5)
        assert abs(loss - PRINTED_LOSS_DB[0]) < 0.002

    def test_second_measured_row(self):
        assert insertion_loss_db(RATIOS[1]) == pytest.approx(0.363, abs=5e-4)

    def test_all_rows_within_printed_tolerance(self):
        for row, printed in zip(RATIOS, PRINTED_LOSS_DB):
            assert abs(insertion_loss_db(row) - printed) < 0.02

    def test_lossless_row(self):
        assert insertion_loss_db([100.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_dead_input_flagged_as_infinite(self):
        assert insertion_loss_db([0.0, 0.0, 0.0]) == math.inf

    def test_scaling_row_shifts_loss_logarithmically(self):
        base = insertion_loss_db(RATIOS[0])
        scaled = insertion_loss_db(RATIOS[0] * 0.5)
        assert scaled - base == pytest.approx(-10 * math.log10(0.5), abs=1e-12)

    def test_negative_fractions_rejected(self):
        with pytest.raises(ValidationError):
            insertion_loss_db([-1.0, 50.0, 50.0])


class TestVisibility:
    def test_balanced_splitter_maximum(self):
        assert visibility(2 / 9, 1 / 9) == pytest.approx(0.5, abs=1e-15)

    def test_flat_scan_has_zero_visibility(self):
        assert visibility(0.123, 0.123) == 0.0

    def test_partial_overlap_visibility(self):
        # dip floor (2 - 0.956)/9 reproduces the 47.80 percent heralded contrast
        assert visibility(2 / 9, (2 - 0.956) / 9) == pytest.approx(0.478, abs=1e-12)

    def test_zero_maximum_rejected(self):
        with pytest.raises(ValidationError, match="undefined"):
            visibility(0.0, 0.0)

    def test_min_above_max_rejected(self):
        with pytest.raises(ValidationError):
            visibility(1.0, 2.0)


class TestHomScan:
    def test_expected_counts_at_dip_and_shoulder(self, tritter):
        delays = np.linspace(-6, 6, 25)
        scan = hom_scan(tritter, (1, 2), (1, 2), delays, 1.0, 9000.0, seed=0, poisson=False)
        mid = np.argmin(np.abs(delays))
        assert scan.counts[mid] == pytest.approx(9000.0 / 9.0, abs=1e-9)
        assert scan.counts[0] == pytest.approx(9000.0 * 2.0 / 9.0, rel=1e-6)
        assert scan.floor_rate == pytest.approx(1000.0)
        assert scan.ceiling_rate == pytest.approx(2000.0)

    def test_every_delay_matches_pair_probability(self):
        u = Interferometer(random_unitary(4, np.random.default_rng(8)))
        delays = np.linspace(-3, 3, 13)
        scan = hom_scan(u, (2, 4), (1, 3), delays, 1.3, 7e3, seed=0, peak_overlap=0.8, poisson=False)
        overlaps = 0.8 * np.exp(-(delays**2) / (2 * 1.3**2))
        direct = [7e3 * pair_coincidence_probability(u, (2, 4), (1, 3), x) for x in overlaps]
        assert np.abs(scan.counts - direct).max() < 1e-9
        assert scan.floor_rate == pytest.approx(7e3 * pair_coincidence_probability(u, (2, 4), (1, 3), 0.8))

    def test_symmetric_grid_gives_symmetric_expectation(self, tritter):
        delays = np.linspace(-3, 3, 31)
        scan = hom_scan(tritter, (2, 3), (1, 3), delays, 0.7, 5e3, seed=0, poisson=False)
        assert np.abs(scan.counts - scan.counts[::-1]).max() < 1e-9

    def test_same_seed_reproduces_counts(self, tritter):
        delays = np.linspace(-3, 3, 21)
        a = hom_scan(tritter, (1, 2), (1, 2), delays, 1.0, 1e4, seed=42)
        b = hom_scan(tritter, (1, 2), (1, 2), delays, 1.0, 1e4, seed=42)
        assert np.array_equal(a.counts, b.counts)

    def test_empty_grid_rejected(self, tritter):
        with pytest.raises(ValidationError, match="empty"):
            hom_scan(tritter, (1, 2), (1, 2), [], 1.0, 1e4, seed=0)

    def test_bad_rate_and_coherence_rejected(self, tritter):
        with pytest.raises(ValidationError):
            hom_scan(tritter, (1, 2), (1, 2), [0.0, 1.0], 1.0, 0.0, seed=0)
        with pytest.raises(ValidationError):
            hom_scan(tritter, (1, 2), (1, 2), [0.0, 1.0], -1.0, 1e4, seed=0)

    @pytest.mark.parametrize(
        "delays, coherence, rate",
        [([0.0, np.nan], 1.0, 1e4), ([0.0, 1.0], np.inf, 1e4), ([0.0, 1.0], 1.0, np.nan), ([0.0, 1.0], 1.0, 1e20)],
        ids=["nan-delay", "inf-coherence", "nan-rate", "counts-beyond-poisson"],
    )
    def test_non_finite_or_oversized_inputs_rejected(self, tritter, delays, coherence, rate):
        with pytest.raises(ValidationError):
            hom_scan(tritter, (1, 2), (1, 2), delays, coherence, rate, seed=0)


class TestGaussianFit:
    def test_noiseless_recovery_is_exact(self, tritter):
        delays = np.linspace(-4, 4, 41)
        scan = hom_scan(tritter, (1, 2), (1, 2), delays, 1.0, 4.5e4, seed=0, poisson=False)
        fit = fit_gaussian(scan)
        assert fit.visibility == pytest.approx(0.5, abs=1e-6)
        assert fit.center == pytest.approx(0.0, abs=1e-9)
        # squaring the overlap halves the Gaussian variance
        assert fit.width == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-6)
        assert fit.residual_norm / scan.counts.max() < 1e-9

    def test_partial_peak_overlap_visibility(self, tritter):
        delays = np.linspace(-4, 4, 41)
        scan = hom_scan(
            tritter, (1, 2), (1, 2), delays, 1.0, 4.5e4, seed=0,
            peak_overlap=float(np.sqrt(0.9988)), poisson=False,
        )
        assert fit_gaussian(scan).visibility == pytest.approx(0.4994, abs=1e-6)

    def test_visibility_equals_half_squared_overlap(self, tritter):
        delays = np.linspace(-4, 4, 41)
        for overlap_sq in (1.0, 0.956, 0.8, 0.5):
            scan = hom_scan(
                tritter, (1, 2), (1, 2), delays, 1.0, 1e4, seed=0,
                peak_overlap=float(np.sqrt(overlap_sq)), poisson=False,
            )
            assert fit_gaussian(scan).visibility == pytest.approx(overlap_sq / 2, abs=1e-6)

    def test_poisson_noise_keeps_visibility_within_one_percent(self, tritter):
        # deterministic seed sweep; ceiling sits at 1e4 counts per point
        delays = np.linspace(-4, 4, 101)
        worst = 0.0
        for seed in range(100):
            scan = hom_scan(tritter, (1, 2), (1, 2), delays, 1.0, 4.5e4, seed=seed)
            worst = max(worst, abs(fit_gaussian(scan).visibility - 0.5))
        assert worst < 0.01

    def test_too_few_points_rejected(self):
        scan = DipScan(np.array([0.0, 1.0, 2.0, 3.0]), np.array([5.0, 1.0, 5.0, 5.0]))
        with pytest.raises(ValidationError, match="5 points"):
            fit_gaussian(scan)

    def test_degenerate_scan_rejected(self):
        scan = DipScan(np.linspace(0, 1, 8), np.full(8, 7.0))
        with pytest.raises(ConvergenceError, match="degenerate"):
            fit_gaussian(scan)

    def test_unphysical_fit_parameters_rejected(self):
        with pytest.raises(ValidationError):
            GaussianFit(amplitude=1.0, center=0.0, width=-1.0, offset=2.0, residual_norm=0.0)


def _dip_scans(poisson: bool):
    """120 seeded dip scans over point counts, coherences, rates and peak overlaps, each with
    its generating parameters (amplitude, center, width, offset)."""
    tritter = fourier_unitary(3)
    for seed in range(120):
        points, coherence = (21, 41, 101)[seed % 3], (0.5, 1.0, 2.0)[seed // 3 % 3]
        rate, overlap_sq = (1e3, 4.5e4, 1e6)[seed // 9 % 3], (1.0, 0.956, 0.8, 0.5)[seed % 4]
        delays = np.linspace(-4.0, 4.0, points)
        scan = hom_scan(tritter, (1, 2), (1, 2), delays, coherence, rate, seed=seed,
                        peak_overlap=math.sqrt(overlap_sq), poisson=poisson)
        # expected counts fall as exp(-d^2 / coherence^2): a Gaussian of width coherence / sqrt(2)
        truth = (scan.ceiling_rate - scan.floor_rate, 0.0, coherence / math.sqrt(2.0), scan.ceiling_rate)
        yield scan, np.array(truth)


def _residual_norm(scan, params) -> float:
    amplitude, center, width, offset = params
    model = offset - amplitude * np.exp(-((scan.delays - center) ** 2) / (2.0 * width**2))
    return float(np.linalg.norm(model - scan.counts))


class TestGaussianFitOptimality:
    @pytest.mark.parametrize("poisson", [True, False], ids=["poisson", "noiseless"])
    def test_residual_at_most_that_of_the_generating_parameters(self, poisson):
        for scan, truth in _dip_scans(poisson):
            fit = fit_gaussian(scan)
            fitted = _residual_norm(scan, (fit.amplitude, fit.center, fit.width, fit.offset))
            assert fitted <= _residual_norm(scan, truth) + 1e-12 * np.linalg.norm(scan.counts)
            assert fit.residual_norm == pytest.approx(fitted, rel=1e-9, abs=1e-9)

    def test_noiseless_scans_recover_the_generating_parameters(self):
        for scan, truth in _dip_scans(poisson=False):
            fit = fit_gaussian(scan)
            fitted = np.array([fit.amplitude, fit.center, fit.width, fit.offset])
            assert np.all(np.abs(fitted - truth) <= 1e-9 * np.maximum(np.abs(truth), 1.0))


#: counts with no dip to fit, over evenly spaced delays from -4 to 4
DEGENERATE_SCANS = {
    "single-point-spike": np.where(np.arange(9) == 4, 50.0, 5.0),
    "single-low-point": np.where(np.arange(9) == 4, 5.0, 50.0),
    "linear-ramp": np.linspace(10.0, 50.0, 9),
    "step": np.where(np.arange(9) < 4, 10.0, 50.0),
    # undamped, its normal equations turn singular
    "poisson-noise": np.random.default_rng(3).poisson(10.0, 101).astype(float),
}


@pytest.mark.parametrize("counts", DEGENERATE_SCANS.values(), ids=DEGENERATE_SCANS.keys())
def test_degenerate_scan_fits_or_raises_cleanly(counts, tmp_path, monkeypatch):
    scan = DipScan(np.linspace(-4.0, 4.0, counts.size), counts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow in the width step would warn
        try:
            fit = fit_gaussian(scan)
        except ConvergenceError:
            fit = None
    if fit is not None:
        assert fit.width > 0 and math.isfinite(fit.residual_norm)
    monkeypatch.setattr(tritterlab.cli, "hom_scan", lambda *args, **kwargs: scan)
    rc = tritterlab.cli.main(["hom", "--rate", "100", "--out", str(tmp_path / "dip")])
    assert rc == (3 if fit is None else 0)


@pytest.mark.parametrize("name", ["single-low-point", "linear-ramp", "poisson-noise"])
def test_runaway_width_ends_the_fit_early(name, monkeypatch):
    # without a dip to resolve, the width creeps below the delay spacing or past the span;
    # the fit names it within tens of steps instead of spending all its trial steps
    monkeypatch.setattr("tritterlab.calibration._DIP_MAX_STEPS", 50)
    counts = DEGENERATE_SCANS[name]
    with pytest.raises(ConvergenceError, match="dip width .* is outside the scan's resolved range"):
        fit_gaussian(DipScan(np.linspace(-4.0, 4.0, counts.size), counts))


class TestIntensityTableCsv:
    def test_reads_header_and_loss_column(self, tmp_path):
        path = tmp_path / "ratios.csv"
        path.write_text(
            "Output 1 (%),Output 2 (%),Output 3 (%),Insertion loss (dB)\n"
            "32.01,30.24,29.86,0.356\n"
            "33.05,29.18,29.75,0.363\n"
            "32.97,27.92,29.94,0.409\n",
            encoding="utf-8",
        )
        table = IntensityTable.from_csv(path)
        assert np.abs(table.fractions - RATIOS).max() == 0.0
        assert np.abs(table.loss_db - PRINTED_LOSS_DB).max() == 0.0

    def test_reads_headerless_three_columns(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("33,33,33\n33,33,33\n33,33,33\n", encoding="utf-8")
        table = IntensityTable.from_csv(path)
        assert table.loss_db is None

    def test_header_after_blank_lines_is_a_header(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text("\n\nOutput 1,Output 2,Output 3\n33,33,33\n33,33,33\n33,33,33\n", encoding="utf-8")
        table = IntensityTable.from_csv(path)
        assert np.array_equal(table.fractions, np.full((3, 3), 33.0))

    def test_reads_four_rows_with_loss_column(self, tmp_path):
        path = tmp_path / "four.csv"
        rows = [[24.0, 25.0, 23.5, 24.5, 0.1 * k] for k in range(1, 5)]
        path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
        table = IntensityTable.from_csv(path)
        assert np.array_equal(table.fractions, np.array(rows)[:, :4])
        assert np.array_equal(table.loss_db, np.array(rows)[:, 4])

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("33,33,33\n33,oops,33\n33,33,33\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            IntensityTable.from_csv(path)

    def test_reads_a_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + "".join(",".join(map(str, row)) + "\n" for row in RATIOS), encoding="utf-8")
        table = IntensityTable.from_csv(path)
        assert np.array_equal(table.fractions, RATIOS)
        assert table.loss_db is None

    def test_first_row_with_a_typo_is_not_a_header(self, tmp_path):
        # read as a header, the rest would be a 2-port table with a loss column
        path = tmp_path / "typo.csv"
        path.write_text("32.O1,30.24,29.86\n33.05,29.18,29.75\n32.97,27.92,29.94\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1: non-numeric cell"):
            IntensityTable.from_csv(path)

    @pytest.mark.parametrize(
        "cell", ["3_3", "\uff13\uff13", "\u0663\u0663"], ids=["underscore", "fullwidth", "arabic-indic"]
    )
    def test_non_ascii_number_names_line(self, tmp_path, cell):
        # float() reads each of these as 33.0
        path = tmp_path / "odd.csv"
        path.write_text(f"Output 1,Output 2,Output 3\n33,33,33\n33,{cell},33\n33,33,33\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 3"):
            IntensityTable.from_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [("Output 1,Output 2\n\n , \n", "no data rows"),
         ("33,33,33\n33,33\n33,33,33\n", r"inconsistent column counts \[2, 3\]")],
        ids=["header-only", "ragged"],
    )
    def test_malformed_table_names_the_fault(self, tmp_path, text, message):
        path = tmp_path / "table.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"table.csv: {message}"):
            IntensityTable.from_csv(path)

    def test_wrong_row_count_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        # a 3-port table with a loss column that lost a row
        path.write_text("33,33,33,0.3\n33,33,33,0.3\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="3 data rows"):
            IntensityTable.from_csv(path)

    def test_row_sum_above_hundred_rejected(self):
        with pytest.raises(ValidationError, match="exceed"):
            IntensityTable([[50, 40, 30], [33, 33, 33], [33, 33, 33]])


class TestDipScanCsv:
    def test_round_trip(self, tmp_path, tritter):
        # no reader: the csv module reads the writer's floats back exactly
        scan = hom_scan(tritter, (1, 2), (1, 2), np.linspace(-2, 2, 11), 1.0, 1e4, seed=9)
        path = tmp_path / "scan.csv"
        scan.to_csv(path)
        with path.open(newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["delay", "counts"]
        back = np.array(rows, dtype=float)
        assert np.array_equal(back[:, 0], scan.delays)
        assert np.array_equal(back[:, 1], scan.counts)

    def test_non_increasing_delays_rejected(self):
        with pytest.raises(ValidationError, match="increasing"):
            DipScan(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "delays, counts",
        [([0, 1, 2], [1, np.nan, 3]), ([0, 1, 2], [1, np.inf, 3]), ([0, 1, np.inf], [1, 2, 3])],
        ids=["nan-count", "inf-count", "inf-delay"],
    )
    def test_non_finite_values_rejected(self, delays, counts):
        with pytest.raises(ValidationError, match="finite"):
            DipScan(np.array(delays, dtype=float), np.array(counts, dtype=float))


class TestMagnitudesToUnitary:
    def test_ideal_magnitudes_recover_fourier_splitter(self, tritter):
        mag = np.full((3, 3), 1 / np.sqrt(3))
        unitary, adjustment = interferometer_from_magnitudes(mag)
        assert np.abs(unitary.matrix - tritter.matrix).max() < 1e-12
        assert adjustment < 1e-12

    def test_measured_magnitudes_project_to_nearby_unitary(self):
        mag = sinkhorn_magnitudes(IntensityTable(RATIOS))
        unitary, adjustment = interferometer_from_magnitudes(mag)
        assert unitary.dim == 3
        assert 0 < adjustment < 0.05
        dev = np.abs(unitary.matrix @ unitary.matrix.conj().T - np.eye(3)).max()
        assert dev < 1e-10
