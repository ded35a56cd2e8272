"""Pauli tomography: settings, Born rule, counts, MLE reconstruction, errors."""

import dataclasses
import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import tritterlab.cli
import tritterlab.tomography
from tritterlab import (
    ConvergenceError,
    CountsTable,
    ValidationError,
    born_probabilities,
    canonical_state,
    fidelity,
    measurement_settings,
    monte_carlo_uncertainty,
    purity,
    reconstruct_mle,
    simulate_counts,
)
from tritterlab.cli import ExperimentConfig, run_generate
from tritterlab.interference import matrix_from_pairs
from tritterlab.tomography import MLE_TOL

#: the README's noisy GHZ' generation config
NOISY_GHZPRIME = {
    "state": "ghzprime",
    "noise": {
        "gram": [[1, 1, 0.9778], [1, 1, 0.9778], [0.9778, 0.9778, 1]],
        "extinction_ratio": 335,
        "white_noise": 0.02,
    },
}

_PAULIS = [
    np.eye(2),
    np.array([[0, 1], [1, 0]]),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]),
]


def _trace_distance(a, b):
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


class TestMeasurementSettings:
    def test_single_qubit(self):
        assert measurement_settings(1) == [("X",), ("Y",), ("Z",)]

    def test_two_qubits_has_nine(self):
        assert len(measurement_settings(2)) == 9

    def test_three_qubits_lexicographic(self):
        settings = measurement_settings(3)
        assert len(settings) == 27
        assert settings[0] == ("X", "X", "X")
        assert settings[-1] == ("Z", "Z", "Z")
        assert settings == sorted(settings)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValidationError):
            measurement_settings(0)

    def test_qubit_count_above_bound_rejected(self):
        # at the bound + 1 a missing check builds a 127 MB Born matrix, not 2.85 GiB as at 6 qubits
        assert len(measurement_settings(4)) == 81
        with pytest.raises(ValidationError, match="qubit count 5 exceeds bound 4"):
            measurement_settings(5)
        with pytest.raises(ValidationError, match="qubit count 5 exceeds bound 4"):
            CountsTable(np.ones((3**5, 2**5), dtype=int))
        with pytest.raises(ValidationError, match="qubit count 5 exceeds bound 4"):
            simulate_counts(np.eye(32) / 32, 10, seed=0)


class TestBornProbabilities:
    def test_computational_basis_state(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        probs = born_probabilities(rho, ("Z", "Z", "Z"))
        assert probs[0] == pytest.approx(1.0, abs=1e-14)
        assert probs[1:].max() < 1e-14

    def test_ghzprime_zzz_outcomes(self):
        v = canonical_state("ghzprime")
        probs = born_probabilities(np.outer(v, v.conj()), ("Z", "Z", "Z"))
        for idx in (0b000, 0b011, 0b101, 0b110):
            assert probs[idx] == pytest.approx(0.25, abs=1e-14)
        for idx in (0b001, 0b010, 0b100, 0b111):
            assert probs[idx] == pytest.approx(0.0, abs=1e-14)

    def test_w_zzz_outcomes(self):
        v = canonical_state("w")
        probs = born_probabilities(np.outer(v, v.conj()), ("Z", "Z", "Z"))
        for idx in (0b001, 0b010, 0b100):
            assert probs[idx] == pytest.approx(1 / 3, abs=1e-14)

    def test_zzz_equals_squared_amplitudes_for_canonical_states(self):
        for kind in ("w", "wbar", "ghz", "g", "gprime", "ghzprime"):
            v = canonical_state(kind)
            probs = born_probabilities(np.outer(v, v.conj()), ("Z", "Z", "Z"))
            assert np.abs(probs - np.abs(v) ** 2).max() < 1e-14

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        for setting in measurement_settings(3):
            assert born_probabilities(rho, setting).sum() == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            born_probabilities(np.eye(4) / 4, ("Z", "Z", "Z"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_trace_with_pauli_projectors(self, n):
        # outcome projectors built independently: tensor products of (I + (-1)^bit sigma) / 2
        sigma = dict(zip("XYZ", _PAULIS[1:]))
        rng = np.random.default_rng(n)
        a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
        for setting in measurement_settings(n):
            probs = born_probabilities(rho, setting)
            for outcome, bits in enumerate(itertools.product((0, 1), repeat=n)):
                projector = functools.reduce(
                    np.kron, [(np.eye(2) + (-1) ** b * sigma[label]) / 2 for b, label in zip(bits, setting)]
                )
                assert abs(probs[outcome] - np.trace(projector @ rho).real) < 1e-14


class TestOutcomeVectors:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_joint_eigenvectors_of_the_paulis(self, n):
        # outcome o of a setting is the joint eigenvector with eigenvalue (-1)^bit of each qubit's Pauli
        sigma = dict(zip("XYZ", _PAULIS[1:]))
        vectors = tritterlab.tomography._outcome_vectors(n)
        assert vectors.shape == (3**n, 2**n, 2**n)
        for setting, row in zip(measurement_settings(n), vectors):
            for bits, v in zip(itertools.product((0, 1), repeat=n), row):
                assert abs(np.linalg.norm(v) - 1.0) <= 1e-15
                for qubit, (label, bit) in enumerate(zip(setting, bits)):
                    ops = [np.eye(2)] * n
                    ops[qubit] = sigma[label]
                    pauli = functools.reduce(np.kron, ops)
                    assert np.abs(pauli @ v - (-1) ** bit * v).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_flat_reshapes_are_views(self, n):
        # every fit reads the cached arrays flat; a non-contiguous layout copies them per fit
        vectors, born = tritterlab.tomography._outcome_vectors(n), tritterlab.tomography._born_matrix(n)
        assert vectors.flags.c_contiguous and born.flags.c_contiguous
        assert np.shares_memory(vectors.reshape(-1, 2**n), vectors)
        assert np.shares_memory(born.reshape(-1, 4**n), born)

    def test_warm_resample_fit_allocates_no_large_temporaries(self):
        # glibc serves blocks above 128 KiB by mmap once scipy's import no longer raises its
        # threshold, so every such per-fit temporary is mapped and page-faulted afresh
        counts = _source_counts("ideal-w")
        start = reconstruct_mle(counts).rho
        resample = CountsTable(np.random.default_rng(7).poisson(counts.counts))
        reconstruct_mle(resample, start=start)  # fills the caches
        tracemalloc.start()
        try:
            reconstruct_mle(resample, start=start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    @pytest.mark.parametrize("dim, rank", [(2, 1), (4, 1), (4, 3), (8, 1), (8, 6), (8, 7)])
    def test_tangent_jacobian_equals_the_kronecker_route(self, dim, rank):
        n = dim.bit_length() - 1
        born = tritterlab.tomography._born_matrix(n).reshape(-1, dim * dim)
        vectors = tritterlab.tomography._outcome_vectors(n).reshape(-1, dim)
        basis = _reference_tangent_basis(dim, rank)
        for frame in _random_frames(dim, rank, seed=dim + rank):
            reference = (born @ np.kron(frame, frame.conj()) @ basis).real
            jacobian = tritterlab.tomography._tangent_jacobian(vectors, frame, rank)
            assert jacobian.shape == reference.shape == (len(born), rank**2 - 1 + 2 * rank * (dim - rank))
            assert np.abs(jacobian - reference).max() <= 1e-12


def _reference_tangent_basis(dim, rank):
    """Columns vec(E) of the tangent directions in the eigenframe, built one direction at a time.

    Each (a, b) of _tangent_pairs gives E[a, b] = 1 then E[a, b] = i (with E[b, a] its
    conjugate); the traceless diagonal ones E[a, a] = 1, E[rank-1, rank-1] = -1 follow.
    """
    directions = []
    for a, b in tritterlab.tomography._tangent_pairs(dim, rank):
        for entry in (1.0, 1.0j):
            e = np.zeros((dim, dim), dtype=complex)
            e[a, b], e[b, a] = entry, np.conj(entry)
            directions.append(e)
    for a in range(rank - 1):
        e = np.zeros((dim, dim), dtype=complex)
        e[a, a], e[rank - 1, rank - 1] = 1.0, -1.0
        directions.append(e)
    return np.stack([e.ravel() for e in directions], axis=1)


def _random_frames(dim, rank, seed, count=5):
    """Eigenframes, support first as in the Newton step, of random rank-``rank`` states."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        yield np.linalg.eigh(a @ a.conj().T)[1][:, ::-1]


_NEWTON_SHAPES = [(2, 1), (4, 3), (4, 4), (8, 1), (8, 6), (8, 7)]


class TestNewtonClosedForms:
    """The Newton step's scatter and kernel curvature against direct evaluations."""

    @pytest.mark.parametrize("dim, rank", _NEWTON_SHAPES)
    def test_step_has_the_jacobians_born_rows(self, dim, rank):
        n = dim.bit_length() - 1
        born = tritterlab.tomography._born_matrix(n).reshape(-1, dim * dim)
        vectors = tritterlab.tomography._outcome_vectors(n).reshape(-1, dim)
        basis = _reference_tangent_basis(dim, rank)
        rng = np.random.default_rng(dim * rank)
        for frame in _random_frames(dim, rank, seed=dim - rank):
            x = rng.normal(size=basis.shape[1])
            factor = tritterlab.tomography._tangent_step(x, dim, rank)
            assert not factor[rank:].any()
            step = factor + factor.conj().T
            assert np.abs(step.ravel() - basis @ x).max() <= 1e-14
            rows = (born @ (frame @ step @ frame.conj().T).ravel()).real
            assert np.abs(rows - tritterlab.tomography._tangent_jacobian(vectors, frame, rank) @ x).max() <= 1e-12

    @pytest.mark.parametrize("dim, rank", _NEWTON_SHAPES)
    def test_kernel_curvature_is_the_quadratic_form(self, dim, rank):
        basis = _reference_tangent_basis(dim, rank)
        rng = np.random.default_rng(dim + 10 * rank)
        for _ in range(5):
            support = np.sort(rng.uniform(0.01, 1.0, size=rank))[::-1]
            a = rng.normal(size=(dim - rank,) * 2) + 1j * rng.normal(size=(dim - rank,) * 2)
            kernel = np.eye(dim - rank) - (a + a.conj().T) / 4.0  # Hermitian, as (I - R) on the kernel
            curvature = tritterlab.tomography._kernel_curvature(kernel, support)
            assert curvature.shape == (basis.shape[1],) * 2
            for _ in range(5):
                x = rng.normal(size=basis.shape[1])
                y = (basis @ x).reshape(dim, dim)[:rank, rank:]
                direct = 2.0 * np.trace(kernel @ y.conj().T @ np.diag(1.0 / support) @ y).real
                assert abs(x @ curvature @ x - direct) <= 1e-12 * max(1.0, abs(direct))


class TestSimulateCounts:
    def test_same_seed_gives_identical_tables(self):
        v = canonical_state("w")
        rho = np.outer(v, v.conj())
        a = simulate_counts(rho, 500, seed=11)
        b = simulate_counts(rho, 500, seed=11)
        assert np.array_equal(a.counts, b.counts)

    def test_frequencies_approach_probabilities(self):
        v = canonical_state("ghzprime")
        rho = np.outer(v, v.conj())
        counts = simulate_counts(rho, 1_000_000, seed=3)
        freq = counts.counts / 1_000_000
        for setting, row in zip(measurement_settings(3), freq):
            assert np.abs(row - born_probabilities(rho, setting)).max() < 0.005

    def test_zero_shots_rejected(self):
        rho = np.eye(2) / 2
        with pytest.raises(ValidationError):
            simulate_counts(rho, 0, seed=0)

    def test_last_bits_of_rho_change_no_count(self):
        # several noisy GHZ' settings have two outcomes of equal probability, where
        # sampling from unrounded probabilities mirrors its draw on the last bit of rho
        report, _ = _noisy_ghzprime_run()
        rho = matrix_from_pairs(report["noisy"]["rho"])
        reference = simulate_counts(rho, 10_000, seed=7).counts
        rng = np.random.default_rng(17)
        for _ in range(100):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            h = a + a.conj().T
            perturbed = rho + 1e-17 * h / np.abs(h).max()
            assert np.array_equal(simulate_counts(perturbed, 10_000, seed=7).counts, reference)


class TestReconstructMle:
    def test_noiseless_counts_recover_w_state(self):
        # counts from exact outcome probabilities, no sampling
        v = canonical_state("w")
        rho = np.outer(v, v.conj())
        settings = measurement_settings(3)
        shots = 1_000_000
        counts = np.array(
            [np.round(born_probabilities(rho, s) * shots) for s in settings]
        ).astype(np.int64)
        table = CountsTable(counts)
        result = reconstruct_mle(table)
        assert result.converged
        assert fidelity(result.rho, v) > 0.999

    def test_maximally_mixed_round_trip(self):
        mixed = np.eye(8) / 8
        counts = simulate_counts(mixed, 10_000, seed=31)
        result = reconstruct_mle(counts)
        # statistical floor at 1e4 shots/setting sits near 0.025 for 3 qubits
        assert _trace_distance(result.rho, mixed) < 0.035

    def test_estimate_is_physical_under_sampling_noise(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            counts = simulate_counts(rho, 200, seed=int(rng.integers(1 << 30)))
            result = reconstruct_mle(counts)
            est = result.rho
            assert np.abs(est - est.conj().T).max() < 1e-12
            assert np.trace(est).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(est).min() > -1e-10

    def test_log_likelihood_never_decreases(self):
        v = canonical_state("gprime")
        rho = np.outer(v, v.conj())
        counts = simulate_counts(rho, 2_000, seed=13)
        result = reconstruct_mle(counts)
        # the fit is deterministic: stopping it after k steps replays its first k
        history = np.array(
            [reconstruct_mle(counts, max_iter=k).log_likelihood for k in range(result.iterations + 1)]
        )
        assert history[-1] == result.log_likelihood
        slack = 1e-9 * (1.0 + np.abs(history[:-1]))
        assert np.all(np.diff(history) >= -slack)

    def test_incomplete_settings_rejected(self):
        counts = simulate_counts(np.eye(4) / 4, 100, seed=0).counts.copy()
        counts[[1, 4, 5, 6, 7, 8]] = 0
        with pytest.raises(ValidationError, match=r"6 have none: \['XY', 'YY', 'YZ', 'ZX', 'ZY'\]$"):
            reconstruct_mle(CountsTable(counts))

    def test_row_whose_int64_sum_wraps_still_fits(self):
        # four cells of 2^62 sum to 2^64, which wraps to 0 in int64
        settings = measurement_settings(2)
        counts = np.full((len(settings), 4), 2**60, dtype=np.int64)
        counts[settings.index(("Z", "Z"))] = 2**62
        result = reconstruct_mle(CountsTable(counts))
        assert result.converged
        assert np.allclose(result.rho, np.eye(4) / 4)

    def test_unconverged_flagged(self):
        v = canonical_state("w")
        counts = simulate_counts(np.outer(v, v.conj()), 1000, seed=5)
        result = reconstruct_mle(counts, max_iter=2)
        assert not result.converged
        assert result.iterations == 2

    def test_setting_order_does_not_matter(self, tmp_path):
        # a counts CSV's rows may come in any order: each lands in its setting's row
        v = canonical_state("w")
        counts = simulate_counts(np.outer(v, v.conj()), 1000, seed=9)
        path = tmp_path / "counts.csv"
        counts.to_csv(path)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
        path.write_text("\n".join([header, *shuffled]) + "\n", encoding="utf-8")
        back = CountsTable.from_csv(path)
        assert np.array_equal(back.counts, counts.counts)
        assert np.array_equal(reconstruct_mle(back).rho, reconstruct_mle(counts).rho)


def _noisy_ghzprime_run(resamples: int = 2, seed: int = 7):
    config = dict(NOISY_GHZPRIME, tomography={"shots": 10_000, "resamples": resamples, "seed": seed})
    return run_generate(ExperimentConfig.from_dict(config))


def _outcome_projectors(setting):
    """Projector of each outcome, expanded in Pauli strings via the Born rule alone."""
    n = len(setting)
    projectors = np.zeros((2**n, 2**n, 2**n), dtype=complex)
    for factors in itertools.product(_PAULIS, repeat=n):
        pauli = functools.reduce(np.kron, factors)
        projectors += born_probabilities(pauli, setting)[:, None, None] * pauli
    return projectors / 2**n


def _certified_shortfall(counts, rho):
    """N * (lambda_max(R) - 1) with R = sum_k (n_k / N) Pi_k / p_k over observed outcomes, N counts in all.

    With equal counts per setting, n_k / N = f_k / S for frequencies f_k per setting and S settings.
    """
    total = counts.counts.sum()
    r_op = np.zeros_like(rho)
    for setting, row in zip(measurement_settings(counts.n_qubits), counts.counts):
        probs = born_probabilities(rho, setting)
        seen = row > 0
        r_op += np.einsum("k,kab->ab", row[seen] / total / probs[seen], _outcome_projectors(setting)[seen])
    return total * (np.linalg.eigvalsh(r_op)[-1] - 1.0)


class TestMleCrossChecks:
    @pytest.mark.parametrize(
        "bloch", [(0.3, -0.2, 0.5), (0.0, 0.6, -0.7), (-0.55, 0.55, 0.55)]
    )
    def test_single_qubit_mle_is_physical_linear_inversion(self, bloch):
        # per-axis likelihoods are separable, so a physical linear-inversion
        # Bloch vector is the unconstrained, hence the constrained, optimum
        rho = (np.eye(2) + sum(r * p for r, p in zip(bloch, _PAULIS[1:]))) / 2
        counts = simulate_counts(rho, 2_000, seed=21)
        linear = (counts.counts[:, 0] - counts.counts[:, 1]) / counts.counts.sum(axis=1)
        assert np.linalg.norm(linear) < 1.0
        result = reconstruct_mle(counts, tol=1e-6)
        assert result.converged
        estimate = [np.trace(result.rho @ p).real for p in _PAULIS[1:]]
        assert np.abs(np.array(estimate) - linear).max() < 1e-6

    @pytest.mark.parametrize("source", ["ideal-w", "noisy-ghzprime"])
    def test_independent_certificate_within_tolerance(self, source):
        if source == "ideal-w":
            v = canonical_state("w")
            counts = simulate_counts(np.outer(v, v.conj()), 10_000, seed=7)
        else:
            _, counts = _noisy_ghzprime_run()
        result = reconstruct_mle(counts)
        assert result.converged
        shortfall = _certified_shortfall(counts, result.rho)
        assert -1e-6 < shortfall <= MLE_TOL
        # the certificate bounds the distance to a hundredfold tighter optimum
        tight = reconstruct_mle(counts, tol=1e-4)
        assert tight.converged
        assert -1e-4 <= tight.log_likelihood - result.log_likelihood <= shortfall + 1e-4

    def test_noisy_ghzprime_fits_converge_quickly(self, monkeypatch):
        fits = []

        def recording(counts, **kwargs):
            result = reconstruct_mle(counts, **kwargs)
            fits.append(result)
            return result

        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", recording)
        monkeypatch.setattr(tritterlab.cli, "reconstruct_mle", recording)
        _noisy_ghzprime_run(resamples=10)
        assert len(fits) == 21
        assert all(fit.converged for fit in fits)
        assert max(fit.iterations for fit in fits) <= 500

    def test_stalled_step_ends_unconverged(self, monkeypatch):
        # a projection that always lands on a state the counts rule out
        pure = np.diag([1.0, 0.0]).astype(complex)
        monkeypatch.setattr(tritterlab.tomography, "_project_to_states", lambda m: (pure, 1))
        counts = simulate_counts(np.eye(2) / 2, 500, seed=4)
        result = reconstruct_mle(counts)
        assert not result.converged
        assert result.iterations == 0
        assert result.log_likelihood == reconstruct_mle(counts, max_iter=0).log_likelihood


def _is_density_matrix(rho):
    return (np.abs(rho - rho.conj().T).max() < 1e-12 and abs(np.trace(rho).real - 1.0) < 1e-12
            and np.linalg.eigvalsh(rho).min() >= -1e-12)


class TestBoundaryFinish:
    """The README noisy GHZ' estimate has rank 7 of 8; Newton steps on the fixed-rank states finish it."""

    def test_main_fit_finishes_quickly(self):
        result = reconstruct_mle(_noisy_ghzprime_run()[1])
        # without Newton steps projected gradient takes 265 iterations and stops at a gap of 0.0098
        assert result.converged
        assert result.iterations <= 40
        assert result.gap <= 1e-3

    def test_replay_through_newton_steps_never_lowers_log_likelihood(self, monkeypatch):
        counts = _noisy_ghzprime_run()[1]
        ranks = []
        jacobian = tritterlab.tomography._tangent_jacobian
        monkeypatch.setattr(tritterlab.tomography, "_tangent_jacobian",
                            lambda v, frame, r: ranks.append(r) or jacobian(v, frame, r))
        result = reconstruct_mle(counts)
        assert ranks  # the fit took Newton steps
        fits = [reconstruct_mle(counts, max_iter=k) for k in range(result.iterations + 1)]
        history = np.array([fit.log_likelihood for fit in fits])
        assert history[-1] == result.log_likelihood
        slack = 1e-9 * (1.0 + np.abs(history[:-1]))
        assert np.all(np.diff(history) >= -slack)
        assert all(_is_density_matrix(fit.rho) for fit in fits)

    def test_failed_newton_solve_falls_back_to_projected_gradient(self, monkeypatch):
        counts = _noisy_ghzprime_run()[1]
        solves = []

        def singular(*args, **kwargs):
            solves.append(args)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        result = reconstruct_mle(counts)
        # every Newton step fails, so projected gradient alone reaches the tolerance, as the README says
        assert solves
        assert result.converged
        assert result.iterations == 265
        assert result.gap == pytest.approx(0.0098, abs=1e-4)

    @pytest.mark.parametrize("seed, w_rank, ghzprime_rank", [(7, 1, 7), (1, 1, 7), (2, 1, 6)])
    def test_reported_rank(self, seed, w_rank, ghzprime_rank):
        # the ideal W estimate is pure; the noisy GHZ' one sits on the boundary at rank 6 or 7 of 8
        w_run = run_generate(ExperimentConfig.from_dict({"state": "w", "tomography": {"resamples": 2, "seed": seed}}))
        for (report, counts), rank in ((w_run, w_rank), (_noisy_ghzprime_run(seed=seed), ghzprime_rank)):
            assert report["tomography"]["reconstruction"]["rank"] == rank
            # the estimate's own rank: the eigenvalues left out are zero up to rounding
            eigenvalues = np.linalg.eigvalsh(reconstruct_mle(counts).rho)
            assert np.count_nonzero(eigenvalues > 1e-12) == rank

    @pytest.mark.parametrize("seed", [7, 1])
    def test_tight_tolerance_fits_converge(self, seed, monkeypatch):
        counts = _noisy_ghzprime_run(seed=seed)[1]
        fits = [reconstruct_mle(counts, tol=1e-5, max_iter=150)]

        def recording(table, **kwargs):
            # the resample fits take the main fit's tolerance and limit
            result = reconstruct_mle(table, **kwargs, tol=1e-5, max_iter=150)
            fits.append(result)
            return result

        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", recording)
        monte_carlo_uncertainty(counts, 20, purity, seed=seed)
        assert len(fits) == 21
        assert all(fit.converged for fit in fits)

    def test_stalled_fit_ends_unconverged(self, monkeypatch):
        # below the certificate's float resolution: N * 2^-52 is 6e-11 on these 270k counts, so
        # a fit either reads a gap that rounds to <= 0 or stops after _MAX_IDLE idle iterations
        counts = _noisy_ghzprime_run()[1]
        result = reconstruct_mle(counts, tol=1e-12)
        assert result.iterations <= 100
        assert result.gap < 1e-6
        assert result.log_likelihood >= reconstruct_mle(counts).log_likelihood
        fits = []

        def recording(table, **kwargs):
            result = reconstruct_mle(table, **kwargs, tol=1e-12)
            fits.append((table, result))
            return result

        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", recording)
        monte_carlo_uncertainty(counts, 20, purity, seed=7)
        assert len(fits) == 20
        assert max(fit.iterations for _, fit in fits) <= 150
        # N * (lambda_max(R) - 1) rounds below 0 on some of these fits; the reported gap does not
        assert all(fit.gap >= 0.0 for _, fit in fits)
        idle_stops = 0
        for table, fit in fits:
            if not fit.converged:
                # the last _MAX_IDLE iterations accepted no step
                earlier = reconstruct_mle(table, tol=1e-12, max_iter=fit.iterations - tritterlab.tomography._MAX_IDLE)
                assert np.array_equal(earlier.rho, fit.rho)
                idle_stops += 1
        assert idle_stops >= 1

    @pytest.mark.parametrize("seed", [44, 62, 211, 214])
    def test_rejected_projected_step_hands_over_to_newton(self, seed):
        # random rank-2 two-qubit states whose projected steps stall between 1e-6 and 1e-5
        # unless each rejected one gives way to a Newton step on the current rank
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        rho = g @ g.conj().T
        result = reconstruct_mle(simulate_counts(rho / np.trace(rho).real, 10_000, seed=seed), tol=1e-6)
        assert result.converged


def _source_counts(source):
    """The ideal W counts (seed 7) or the README noisy GHZ' counts (tomography seed 7)."""
    if source == "ideal-w":
        v = canonical_state("w")
        return simulate_counts(np.outer(v, v.conj()), 10_000, seed=7)
    return _noisy_ghzprime_run()[1]


def _main_and_warm_fits(source, monkeypatch, resamples=5):
    """(counts, fit) of the main fit and of each resample fit started from its estimate."""
    counts = _source_counts(source)
    main = reconstruct_mle(counts)
    fits = [(counts, main)]

    def recording(table, **kwargs):
        result = reconstruct_mle(table, **kwargs)
        fits.append((table, result))
        return result

    monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", recording)
    monte_carlo_uncertainty(counts, resamples, purity, seed=7, start=main.rho)
    assert len(fits) == resamples + 1
    return fits


@pytest.mark.parametrize("source", ["ideal-w", "noisy-ghzprime"])
class TestWarmStart:
    def test_log_likelihood_is_that_of_the_estimate(self, source, monkeypatch):
        # the fit derives probabilities from earlier ones; the Born rule recomputes them from rho
        for counts, result in _main_and_warm_fits(source, monkeypatch):
            flat = counts.counts.reshape(-1)
            probs = np.concatenate([born_probabilities(result.rho, s) for s in measurement_settings(3)])
            seen = flat > 0
            assert abs(result.log_likelihood - flat[seen] @ np.log(probs[seen])) <= 1e-6

    def test_warm_fits_meet_independent_certificate(self, source, monkeypatch):
        for counts, result in _main_and_warm_fits(source, monkeypatch)[1:]:
            assert result.converged
            shortfall = _certified_shortfall(counts, result.rho)
            assert -1e-6 < shortfall <= MLE_TOL
            assert result.gap == pytest.approx(shortfall, abs=1e-6)


class TestStart:
    def test_default_is_the_maximally_mixed_state(self):
        counts = _source_counts("ideal-w")
        default, explicit = reconstruct_mle(counts), reconstruct_mle(counts, start=np.eye(8) / 8)
        assert np.array_equal(default.rho, explicit.rho)
        assert (default.iterations, default.gap) == (explicit.iterations, explicit.gap)

    @pytest.mark.parametrize(
        "start",
        [np.eye(4) / 4, np.eye(2), np.array([[0.5, 0.1], [0.0, 0.5]])],
        ids=["wrong-shape", "trace-2", "non-hermitian"],
    )
    def test_non_state_rejected(self, start):
        counts = simulate_counts(np.eye(2) / 2, 200, seed=3)
        with pytest.raises(ValidationError, match="start"):
            reconstruct_mle(counts, start=start)
        with pytest.raises(ValidationError, match="start"):
            monte_carlo_uncertainty(counts, 2, purity, seed=0, start=start)

    def test_warm_start_keeps_noisy_ghzprime_error_bar(self):
        counts = _source_counts("noisy-ghzprime")
        main = reconstruct_mle(counts)
        target = canonical_state("ghzprime")
        cold = monte_carlo_uncertainty(counts, 10, lambda r: fidelity(r, target), seed=7)
        warm = monte_carlo_uncertainty(counts, 10, lambda r: fidelity(r, target), seed=7, start=main.rho)
        assert warm.std == pytest.approx(cold.std, rel=0.01)
        assert warm.iterations < cold.iterations

    def test_warm_ideal_w_resamples_take_few_iterations(self):
        counts = _source_counts("ideal-w")
        main = reconstruct_mle(counts)
        mc = monte_carlo_uncertainty(counts, 50, purity, seed=7, start=main.rho)
        # cold fits take 10 at most on these counts; warm ones took at most 6 over seeds 1, 2 and 7
        assert mc.unconverged == 0
        assert mc.iterations_max <= 6


class TestMonteCarlo:
    def test_high_shot_counts_concentrate(self):
        v = canonical_state("w")
        counts = simulate_counts(np.outer(v, v.conj()), 100_000, seed=5)
        mc = monte_carlo_uncertainty(counts, 10, lambda r: fidelity(r, v), seed=17)
        assert mc.std < 0.01
        assert mc.failures == 0

    def test_std_decreases_with_shots(self):
        # partially mixed state so the functional is not boundary-saturated
        v = np.array([1.0, 1.0j]) / np.sqrt(2)
        rho = 0.7 * np.outer(v, v.conj()) + 0.3 * np.eye(2) / 2
        stds = []
        for shots in (100, 1000, 10_000):
            counts = simulate_counts(rho, shots, seed=2024)
            mc = monte_carlo_uncertainty(counts, 60, lambda r: fidelity(r, v), seed=99)
            stds.append(mc.std)
        assert stds[0] > stds[1] > stds[2]
        # net decade-to-decade shrink compatible with ~1/sqrt(shots)
        assert stds[0] / stds[2] > 5.0

    def test_purity_functional(self):
        v = canonical_state("ghzprime")
        counts = simulate_counts(np.outer(v, v.conj()), 50_000, seed=23)
        mc = monte_carlo_uncertainty(counts, 8, purity, seed=41)
        assert mc.mean == pytest.approx(1.0, abs=0.02)

    def test_single_resample_rejected(self):
        rho = np.eye(2) / 2
        counts = simulate_counts(rho, 100, seed=0)
        with pytest.raises(ValidationError, match="at least 2"):
            monte_carlo_uncertainty(counts, 1, purity, seed=0)

    def test_unconverged_resamples_raise(self, monkeypatch):
        v = canonical_state("w")
        counts = simulate_counts(np.outer(v, v.conj()), 1000, seed=5)
        capped = functools.partial(reconstruct_mle, max_iter=2)
        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", capped)
        with pytest.raises(ConvergenceError, match="4 unconverged"):
            monte_carlo_uncertainty(counts, 4, purity, seed=3)

    def test_unconverged_resamples_excluded_and_counted(self, monkeypatch):
        counts = simulate_counts(np.eye(2) / 2, 500, seed=1)
        reference = monte_carlo_uncertainty(counts, 6, purity, seed=4)
        calls = itertools.count()

        def every_other_unconverged(table, **kwargs):
            result = reconstruct_mle(table, **kwargs)
            return dataclasses.replace(result, converged=next(calls) % 2 == 0)

        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", every_other_unconverged)
        mc = monte_carlo_uncertainty(counts, 6, purity, seed=4)
        assert mc.unconverged == 3
        assert mc.failures == 0
        assert mc.values == reference.values[::2]

    def test_resamples_that_draw_no_x_count_fail_and_are_counted(self):
        counts = CountsTable([[1, 0], [40, 60], [70, 30]])
        # resample i draws with the i-th spawned generator; one that draws no X count cannot be fit
        no_x = sum(rng.poisson(counts.counts)[0].sum() == 0 for rng in np.random.default_rng(0).spawn(20))
        mc = monte_carlo_uncertainty(counts, 20, purity, seed=0)
        assert mc.failures == no_x > 0
        assert mc.failures + mc.unconverged + len(mc.values) == 20

    def test_iterations_cover_every_returned_fit(self, monkeypatch):
        counts = simulate_counts(np.eye(2) / 2, 500, seed=1)
        seen = []

        def every_other_unconverged(table, **kwargs):
            result = reconstruct_mle(table, **kwargs)
            if len(seen) % 2:
                result = dataclasses.replace(result, converged=False, iterations=1000 + len(seen))
            seen.append(result.iterations)
            return result

        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", every_other_unconverged)
        mc = monte_carlo_uncertainty(counts, 6, purity, seed=4)
        assert mc.unconverged == 3
        assert (mc.iterations, mc.iterations_max) == (sum(seen), 1005)

    def test_gap_max_is_the_largest_gap_of_every_returned_fit(self, monkeypatch):
        counts = simulate_counts(np.eye(2) / 2, 500, seed=1)
        gaps = []

        def every_other_unconverged(table, **kwargs):
            result = reconstruct_mle(table, **kwargs)
            if len(gaps) % 2:
                result = dataclasses.replace(result, converged=False, gap=1.0 + len(gaps))
            gaps.append(result.gap)
            return result

        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", every_other_unconverged)
        mc = monte_carlo_uncertainty(counts, 6, purity, seed=4)
        assert mc.gap_max == max(gaps) == 6.0
        assert tritterlab.cli._record(mc)["gap_max"] == mc.gap_max

    def test_deterministic_for_fixed_seed(self):
        rho = np.eye(2) / 2
        counts = simulate_counts(rho, 500, seed=1)
        a = monte_carlo_uncertainty(counts, 8, purity, seed=4)
        b = monte_carlo_uncertainty(counts, 8, purity, seed=4)
        assert a.values == b.values
        # generate passes SeedSequence children, tomo passes ints: both seed the same streams
        assert monte_carlo_uncertainty(counts, 8, purity, seed=np.random.SeedSequence(4)).values == a.values

    def test_counts_beyond_the_poisson_sampler_rejected(self):
        # numpy's Poisson sampler takes means up to 2**63 - 1 - 10 * sqrt(2**63 - 1) only
        counts = CountsTable(np.array([[2**63 - 1, 1], [1, 1], [1, 1]]))
        with pytest.raises(ValidationError, match="Poisson"):
            monte_carlo_uncertainty(counts, 3, purity, seed=0)


class TestCountsTableCsv:
    def test_round_trip(self, tmp_path):
        v = canonical_state("w")
        counts = simulate_counts(np.outer(v, v.conj()), 777, seed=2)
        path = tmp_path / "counts.csv"
        counts.to_csv(path)
        text = path.read_text(encoding="utf-8").splitlines()
        assert text[0] == "setting,outcome,count"
        assert text[1].startswith("XXX,000,")
        assert np.array_equal(CountsTable.from_csv(path).counts, counts.counts)

    def test_reads_a_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one
        counts = simulate_counts(np.eye(2) / 2, 50, seed=3)
        path = tmp_path / "bom.csv"
        counts.to_csv(path)
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert np.array_equal(CountsTable.from_csv(path).counts, counts.counts)

    def test_header_after_blank_lines_is_a_header(self, tmp_path):
        # the header is the first row with cells, wherever the file puts it
        path = tmp_path / "late.csv"
        path.write_text("\n , \nsetting,outcome,count\nZ,0,5\nZ,1,7\n", encoding="utf-8")
        assert CountsTable.from_csv(path).counts.tolist() == [[0, 0], [0, 0], [5, 7]]

    def test_bad_setting_label_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("setting,outcome,count\nQZZ,000,5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            CountsTable.from_csv(path)

    @pytest.mark.parametrize("repeat", ["ZZ,01,9", "zz,01,9"])
    def test_repeated_row_names_line(self, tmp_path, repeat):
        path = tmp_path / "repeat.csv"
        path.write_text(f"setting,outcome,count\nZZ,00,5\nZZ,01,7\n{repeat}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 4"):
            CountsTable.from_csv(path)

    @pytest.mark.parametrize(
        "first, bad",
        [
            ("ZZ,00,5", "ZZ,10,3_0"),
            ("ZZ,00,5", "ZZ,10,+3"),
            ("ZZ,00,5", "ZZ,10,\uff13"),
            ("ZZ,00,5", "ZZ,10,-3"),
            ("ZZ,00,5", "ZZ,10,3.0"),
            ("ZZ,00,5", "ZZ,+1,5"),
            ("ZZ,00,5", "ZZ,\u0661\u0660,5"),
            ("ZZZ,000,5", "ZZZ,0_1,5"),
            ("ZZZ,000,5", "ZZZ,0012,5"),
        ],
    )
    def test_non_digit_cells_name_line(self, tmp_path, first, bad):
        # int() would read all but 3.0 and 0012 as counts 30, 3, 3, -3 or outcomes 01, 10, 001
        path = tmp_path / "bad.csv"
        path.write_text(f"setting,outcome,count\n{first}\n{bad}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 3"):
            CountsTable.from_csv(path)

    def test_count_above_int64_names_line(self, tmp_path):
        path = tmp_path / "big.csv"
        # int() refuses strings of over 4300 digits with a ValueError of its own
        for value in (2**63, 10**23, "1" * 5000, "0" * 5000 + str(2**63)):
            path.write_text(f"setting,outcome,count\nZ,0,5\nZ,1,{value}\n", encoding="utf-8")
            with pytest.raises(ValidationError, match="line 3"):
                CountsTable.from_csv(path)
        path.write_text(f"setting,outcome,count\nZ,0,{'0' * 5000}\nZ,1,000{2**63 - 1}\n", encoding="utf-8")
        assert CountsTable.from_csv(path).counts.tolist() == [[0, 0], [0, 0], [0, 2**63 - 1]]

    def test_qubit_count_above_bound_names_first_row(self, tmp_path):
        # one 5-qubit row would otherwise load as a (1, 32) table; a 40-qubit one would ask for 2^40 counts
        path = tmp_path / "wide.csv"
        path.write_text("setting,outcome,count\nZZZZZ,00000,5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2: qubit count 5 exceeds bound 4"):
            CountsTable.from_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [("setting,outcome,count\nZZ,00,5,1\n", "line 2: expected 3 columns"),
         ("setting,outcome,count\nZZ,00,5\nZ,0,5\n", "line 3: inconsistent qubit count"),
         ("setting,outcome,count\n\n , ,\n", "no count rows found"),
         # the quoted count on line 2 runs onto line 3, so the faulty row is the file's line 4
         ('setting,outcome,count\nZ,0,"5\n"\nZ,1,x\n', "line 4: count 'x'")],
        ids=["four-columns", "mixed-qubit-counts", "header-only", "quoted-cell-spans-lines"],
    )
    def test_malformed_file_names_the_fault(self, tmp_path, text, message):
        path = tmp_path / "counts.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=f"counts.csv: {message}"):
            CountsTable.from_csv(path)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            CountsTable(np.array([[1, 1], [1, 1], [-1, 2]]))

    @pytest.mark.parametrize("value", [1.5, 0.7, 3.0, np.nan, np.inf])
    def test_non_integer_counts_rejected(self, value):
        # an int64 cast would truncate 1.5 and 0.7 to 1 and 0 and turn NaN into -2^63
        counts = np.ones((3, 2))
        counts[2, 0] = value
        with pytest.raises(ValidationError, match="integer array, got dtype float64"):
            CountsTable(counts)

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (9, 2), (1, 1), (0, 0), (3, 2, 1)], ids=str)
    def test_shape_other_than_the_complete_table_rejected(self, shape):
        with pytest.raises(ValidationError, match=r"shape \(3\^n, 2\^n\)"):
            CountsTable(np.ones(shape, dtype=int))

    def test_absent_settings_and_outcomes_read_as_zero(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("setting,outcome,count\nZZ,11,4\nxy,01,3\n", encoding="utf-8")
        expected = np.zeros((9, 4), dtype=int)
        expected[1, 1], expected[8, 3] = 3, 4
        assert np.array_equal(CountsTable.from_csv(path).counts, expected)

    def test_reconstruction_result_serializes(self):
        rho = np.eye(2) / 2
        counts = simulate_counts(rho, 2000, seed=6)
        result = reconstruct_mle(counts)
        payload = json.loads(json.dumps(tritterlab.cli._record(result)))
        assert payload["converged"] is True
        assert len(payload["rho"]) == 2
        assert len(payload["rho"][0][0]) == 2  # [re, im] pairs
