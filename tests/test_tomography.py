"""Pauli tomography: settings, Born rule, counts, MLE reconstruction, errors."""

import dataclasses
import functools
import itertools
import json
import re
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
from tritterlab.interference import matrix_from_pairs, matrix_to_pairs
from tritterlab.tomography import MAX_SHOTS, MLE_TOL

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

    def test_non_pauli_setting_rejected(self):
        with pytest.raises(ValidationError, match="Pauli labels"):
            born_probabilities(np.eye(2) / 2, ("Q",))

    def test_dimension_not_a_power_of_two_rejected(self):
        with pytest.raises(ValidationError, match=r"rho must be 2\^n x 2\^n, got \(3, 3\)"):
            born_probabilities(np.eye(3) / 3, ("Z",))
        # the sampler reads rho as a density matrix at its own row count before the Born rule sees it
        with pytest.raises(ValidationError, match=r"rho must be 2x2, got \(2, 3\)"):
            simulate_counts(np.ones((2, 3)) / 2, 100, seed=0)

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


class TestLinearInversion:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inversion_is_the_pseudo_inverse(self, n):
        inverse = tritterlab.tomography._inversion(n)
        assert not inverse.flags.writeable
        reference = np.linalg.pinv(tritterlab.tomography._born_matrix(n).reshape(-1, 4**n))
        assert inverse.shape == reference.shape == (4**n, 6**n)
        assert np.abs(inverse - reference).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_projected_estimate_is_a_density_matrix(self, n):
        # n = 3 is the ideal W counts, whose ZZZ setting never records outcomes 000, 011, 101, 110 and 111
        if n == 3:
            counts = _source_counts("ideal-w")
            assert (counts.counts[-1, [0, 3, 5, 6, 7]] == 0).all()
        else:
            v = np.ones(2**n) / 2 ** (n / 2)
            counts = simulate_counts(0.9 * np.outer(v, v) + 0.1 * np.eye(2**n) / 2**n, 200, seed=n)
        estimate = tritterlab.tomography._projected_estimate(counts)
        assert estimate.shape == (2**n, 2**n)
        assert _is_density_matrix(estimate)

    def test_projected_estimate_inverts_exact_probabilities(self):
        # frequencies equal to a state's outcome probabilities invert to that state; a complex one, so that
        # neither a transposed nor a conjugated estimate passes
        a = np.random.default_rng(5).normal(size=(8, 8)) + 1j * np.random.default_rng(6).normal(size=(8, 8))
        rho = 0.5 * a @ a.conj().T / np.trace(a @ a.conj().T).real + 0.5 * np.eye(8) / 8
        shots = 2**40  # a multiple of every probability's denominator on the grid below
        probabilities = np.round(tritterlab.tomography._born_rows(rho) * 2**20) / 2**20
        counts = CountsTable((probabilities * shots).astype(np.int64))
        assert np.abs(tritterlab.tomography._projected_estimate(counts) - rho).max() <= 1e-6


def _reference_tangent_basis(dim, rank):
    """Columns vec(E) of the tangent directions in the eigenframe, built one direction at a time.

    Each (a, b) of _tangent_pairs gives E[a, b] = 1 then E[a, b] = i (with E[b, a] its
    conjugate); the traceless diagonal ones E[a, a] = 1, E[rank-1, rank-1] = -1 follow.
    """
    directions = []
    for a, b in zip(*tritterlab.tomography._tangent_pairs(dim, rank)[:2]):
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

    def test_shots_above_the_multinomial_bound_rejected(self):
        # numpy's multinomial takes at most 2**63 - 1 trials and raises OverflowError beyond
        assert MAX_SHOTS == 2**63 - 1
        with pytest.raises(ValidationError, match=f"shots must lie in \\[1, {MAX_SHOTS}\\], got {2**63}"):
            simulate_counts(np.eye(2) / 2, 2**63, seed=0)
        assert simulate_counts(np.eye(2) / 2, MAX_SHOTS, seed=0).counts.sum(axis=1).tolist() == [MAX_SHOTS] * 3

    @pytest.mark.parametrize("rho, message", [
        (np.zeros((8, 8)), "rho trace deviates from 1 by 1.000e+00"),
        (np.eye(8), "rho trace deviates from 1 by 7.000e+00"),
        (np.diag([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]),
         "rho is not positive semidefinite: min eigenvalue = -1.000e+00"),
    ], ids=["zero", "identity", "indefinite"])
    def test_sampled_matrix_must_be_a_state(self, rho, message):
        # clipped and renormalized Born rows drew counts from any of these, or ended in numpy's ValueError
        with pytest.raises(ValidationError, match=re.escape(message)):
            simulate_counts(rho, 100, seed=0)

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

    def test_incomplete_settings_rejected(self, monkeypatch):
        counts = simulate_counts(np.eye(4) / 4, 100, seed=0).counts.copy()
        counts[[1, 4, 5, 6, 7, 8]] = 0
        # before the start's per-setting frequencies divide by a zero row sum
        estimates = []
        monkeypatch.setattr(tritterlab.tomography, "_projected_estimate", estimates.append)
        with pytest.raises(ValidationError, match=r"6 have none: \['XY', 'YY', 'YZ', 'ZX', 'ZY'\]$"):
            reconstruct_mle(CountsTable(counts))
        assert estimates == []

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
        result = reconstruct_mle(counts, start=np.eye(8) / 8)
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


def _source_counts(source, seed=7):
    """The ideal W counts or the README noisy GHZ' counts (tomography seed 7, or 2 for "noisy-ghzprime-2")."""
    if source == "ideal-w":
        v = canonical_state("w")
        return simulate_counts(np.outer(v, v.conj()), 10_000, seed=seed)
    return _noisy_ghzprime_run(seed=2 if source == "noisy-ghzprime-2" else seed)[1]


def _pass_fits(counts, resamples, seed, start, monkeypatch):
    """(table, start, fit) of each resample fit of one Monte-Carlo pass."""
    fits = []

    def recording(table, **kwargs):
        result = reconstruct_mle(table, **kwargs)
        fits.append((table, kwargs["start"], result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(tritterlab.tomography, "reconstruct_mle", recording)
        monte_carlo_uncertainty(counts, resamples, purity, seed=seed, start=start)
    return fits


def _recorded(functional):
    """``functional`` wrapped to append each value it returns to a list, and that list: a pass applies its
    functional to converged resamples only, in resample order."""
    values = []

    def recording(rho):
        values.append(float(functional(rho)))
        return values[-1]

    return recording, values


def _same_fit(a, b):
    """Whether two reconstructions are equal in every field, the estimate bit for bit."""
    return np.array_equal(a.rho, b.rho) and dataclasses.replace(a, rho=None) == dataclasses.replace(b, rho=None)


def _main_and_warm_fits(source, monkeypatch, resamples=5):
    """(counts, fit) of the main fit and of each resample fit started from its estimate."""
    counts = _source_counts(source)
    main = reconstruct_mle(counts)
    face = tritterlab.tomography._frozen_face(counts, main.rho)
    fits = _pass_fits(counts, resamples, 7, face, monkeypatch)
    for table, start, fit in fits:
        # the pass hands each fit its state after the accepted frozen step from the main estimate (the state that
        # the estimate's face reaches for that table alone, up to rounding), else no start: the fit is the default
        if isinstance(start, tritterlab.tomography._Moved):
            single = tritterlab.tomography._frozen_steps(face, table.counts[None])[0]
            assert isinstance(single, tritterlab.tomography._Moved)
            assert np.allclose(start.rho, single.rho, rtol=0.0, atol=1e-12)
        else:
            assert start is None
            assert _same_fit(fit, reconstruct_mle(table))
    assert len(fits) == resamples
    return [(counts, main)] + [(table, fit) for table, _, fit in fits]


# the GHZ' estimate at tomography seed 7 has a support eigenvalue within one standard error of zero, so its
# face carries no model; at seed 2 it does, and frozen steps that do not finish a fit hand over to Newton
@pytest.mark.parametrize("source", ["ideal-w", "noisy-ghzprime", "noisy-ghzprime-2"])
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
    @pytest.mark.parametrize("source", ["ideal-w", "noisy-ghzprime"])
    def test_default_is_the_projected_estimate(self, source):
        counts = _source_counts(source)
        explicit = reconstruct_mle(counts, start=tritterlab.tomography._projected_estimate(counts))
        assert _same_fit(reconstruct_mle(counts), explicit)

    @pytest.mark.parametrize("source, seed", [("noisy-ghzprime", 1), ("noisy-ghzprime", 2), ("noisy-ghzprime", 3),
                                              ("noisy-ghzprime", 7), ("noisy-ghzprime", 4242), ("ideal-w", 1),
                                              ("ideal-w", 2), ("ideal-w", 7), ("ideal-w", 4242)])
    def test_default_start_saves_iterations(self, source, seed):
        # the projected linear-inversion start takes GHZ' main fits from 17-34 iterations to 8-17 and W ones from
        # 7-8 to 4; the fidelity moves by at most 1.9e-7, inside the spread of estimates that MLE_TOL allows
        counts = _source_counts(source, seed=seed)
        default, mixed = reconstruct_mle(counts), reconstruct_mle(counts, start=np.eye(8) / 8)
        assert default.converged
        assert -1e-6 < _certified_shortfall(counts, default.rho) <= MLE_TOL
        assert default.iterations <= mixed.iterations
        target = canonical_state("w" if source == "ideal-w" else "ghzprime")
        assert abs(fidelity(default.rho, target) - fidelity(mixed.rho, target)) <= 1e-6

    @pytest.mark.parametrize(
        "start",
        [np.eye(4) / 4, np.eye(2), np.array([[0.5, 0.1], [0.0, 0.5]]), np.diag([1.5, -0.5])],
        ids=["wrong-shape", "trace-2", "non-hermitian", "negative-eigenvalue"],
    )
    def test_non_state_rejected(self, start):
        counts = simulate_counts(np.eye(2) / 2, 200, seed=3)
        with pytest.raises(ValidationError, match="start"):
            reconstruct_mle(counts, start=start)

    def test_warm_start_keeps_noisy_ghzprime_error_bar(self):
        # without a model at the main estimate (seed 7) every warm fit starts, as a cold one, from its own estimate
        target = canonical_state("ghzprime")
        for seed in (7, 2):
            counts = _source_counts("noisy-ghzprime", seed=seed)
            main = reconstruct_mle(counts)
            cold = monte_carlo_uncertainty(counts, 10, lambda r: fidelity(r, target), seed=7)
            face = tritterlab.tomography._frozen_face(counts, main.rho)
            warm = monte_carlo_uncertainty(counts, 10, lambda r: fidelity(r, target), seed=7, start=face)
            if seed == 7:
                assert warm == cold
            else:
                assert warm.std == pytest.approx(cold.std, rel=0.01)
                assert warm.iterations < cold.iterations

    def test_warm_ideal_w_resamples_take_few_iterations(self):
        # cold fits, each from its own projected estimate, take up to 5 on these counts; the frozen
        # Newton step from the main estimate finishes every one (seeds 1, 2 and 7, confirmed on 4242)
        for seed in (1, 2, 7, 4242):
            counts = _source_counts("ideal-w", seed=seed)
            main = reconstruct_mle(counts)
            mc = monte_carlo_uncertainty(counts, 50, purity, seed=seed,
                                         start=tritterlab.tomography._frozen_face(counts, main.rho))
            assert (mc.unconverged, mc.failures) == (0, 0)
            assert (mc.iterations, mc.iterations_max) == (50, 1)


class TestFrozenFace:
    """Resample fits handed the main estimate's face: one frozen Newton step, else their own default start."""

    @pytest.mark.parametrize("source, modelled", [("ideal-w", True), ("noisy-ghzprime", False),
                                                  ("noisy-ghzprime-2", True)])
    def test_model_only_where_the_rank_is_resolved(self, source, modelled):
        # the seed-7 GHZ' estimate's smallest eigenvalue, 1.5e-4, is 0.17 standard errors from zero
        counts = _source_counts(source)
        main = reconstruct_mle(counts)
        face = tritterlab.tomography._frozen_face(counts, main.rho)
        assert (face is not None) == modelled
        if modelled:
            assert face.rho is main.rho
            assert len(face.support) == main.rank

    def test_rejected_step_takes_the_matrix_start_path(self, monkeypatch):
        counts = _source_counts("noisy-ghzprime-2")
        main = reconstruct_mle(counts)
        face = tritterlab.tomography._frozen_face(counts, main.rho)
        calls = []
        project, jacobian = tritterlab.tomography._project_to_states, tritterlab.tomography._tangent_jacobian
        monkeypatch.setattr(tritterlab.tomography, "_project_to_states", lambda m: calls.append("project") or project(m))
        monkeypatch.setattr(tritterlab.tomography, "_tangent_jacobian",
                            lambda v, frame, r: calls.append("newton") or jacobian(v, frame, r))
        rejected = 0
        for rng in np.random.default_rng(7).spawn(12):
            table = CountsTable(rng.poisson(counts.counts))
            start = tritterlab.tomography._frozen_steps(face, table.counts[None])[0]
            calls.clear()
            fit = reconstruct_mle(table, start=start)
            # an accepted frozen step ends the fit or hands over to Newton; a rejected one to projected gradient
            if calls[:1] != ["project"]:
                assert isinstance(start, tritterlab.tomography._Moved)
                continue
            rejected += 1
            assert start is None
            assert _same_fit(fit, reconstruct_mle(table))
        assert 0 < rejected < 12

    def test_no_model_where_an_observed_outcome_has_no_probability(self):
        # the ideal W counts observe ZZZ outcome 001, which |000><000| gives probability 0: no model, so each
        # resample fit starts from its own projected estimate
        counts = _source_counts("ideal-w")
        start = np.zeros((8, 8))
        start[0, 0] = 1.0
        face = tritterlab.tomography._frozen_face(counts, start)
        assert face is None
        functional, values = _recorded(purity)
        mc = monte_carlo_uncertainty(counts, 4, functional, seed=7, start=face)
        assert (mc.failures, mc.unconverged, len(values)) == (0, 0, 4)

    def test_no_model_where_the_hessian_is_singular(self, monkeypatch):
        # the seed-2 GHZ' face has a model; with its Hessian taken as singular there is none, so each resample
        # fit starts from its own projected estimate, as in a pass with no start
        counts = _source_counts("noisy-ghzprime-2")
        main = reconstruct_mle(counts)
        inverted = []

        def singular(matrix):
            inverted.append(matrix)
            raise np.linalg.LinAlgError("Singular matrix")

        functional, values = _recorded(purity)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "inv", singular)
            face = tritterlab.tomography._frozen_face(counts, main.rho)
            mc = monte_carlo_uncertainty(counts, 10, functional, seed=5, start=face)
        assert face is None and len(inverted) == 1
        default_functional, default_values = _recorded(purity)
        default = monte_carlo_uncertainty(counts, 10, default_functional, seed=5)
        assert (mc.failures, mc.unconverged) == (0, 0)
        assert values == default_values and mc.iterations == default.iterations

    def test_generate_builds_one_face(self, monkeypatch):
        # both Monte-Carlo passes of generate start from the one face of the main estimate
        built = []
        frozen_face = tritterlab.tomography._frozen_face

        def counting(counts, rho):
            built.append(rho)
            return frozen_face(counts, rho)

        monkeypatch.setattr(tritterlab.tomography, "_frozen_face", counting)
        monkeypatch.setattr(tritterlab.cli, "_frozen_face", counting)
        config = {"state": "w", "tomography": {"shots": 2_000, "resamples": 3, "seed": 7}}
        report, _ = run_generate(ExperimentConfig.from_dict(config))
        assert len(built) == 1
        assert [block["failures"] for block in report["tomography"]["monte_carlo"].values()] == [0, 0]

    def test_matrix_start_keeps_its_path(self):
        # a public caller's matrix start takes no frozen step: the fit starts from 0.99 start + 0.01 I/d
        counts = _source_counts("ideal-w")
        main = reconstruct_mle(counts)
        table = CountsTable(np.random.default_rng(3).poisson(counts.counts))
        face = tritterlab.tomography._frozen_face(counts, main.rho)
        moved = tritterlab.tomography._frozen_steps(face, table.counts[None])[0]
        assert reconstruct_mle(table, start=moved).iterations == 1
        assert reconstruct_mle(table, start=main.rho).iterations > 1


#: iterations and rank of the first 20 resample fits of the README GHZ' passes at tomography seeds 2 and 4242
#: (started from the main estimate, resample seed equal to the tomography seed) when each fit took its own
#: frozen step (0.25.0); every one converged. They hold for the fits whose step was accepted: since 0.28.0 the
#: others start from their own projected estimate
_PER_FIT_STEP_FITS = {
    2: ([5, 9, 13, 6, 5, 7, 6, 6, 18, 5, 11, 4, 10, 5, 5, 5, 6, 16, 5, 9],
        [6, 5, 5, 6, 6, 6, 6, 6, 5, 6, 6, 6, 6, 6, 6, 6, 6, 5, 6, 6]),
    4242: ([5, 5, 5, 22, 7, 8, 6, 4, 10, 5, 4, 5, 6, 4, 5, 6, 4, 4, 5, 6],
           [6, 6, 6, 6, 6, 6, 6, 6, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6]),
}


class TestBatchedFrozenStep:
    """A pass takes every resample's frozen step at once, and each resample is still one reconstruct_mle fit."""

    @pytest.mark.parametrize("seed", [1, 2, 7, 4242])
    def test_settled_resamples_match_the_single_table_step(self, seed, monkeypatch):
        # the step taken for one table alone gives the same fit; the batched products round differently, by at most
        # 6.7e-16 in fidelity or purity over these four seeds
        counts = _source_counts("ideal-w", seed=seed)
        face = tritterlab.tomography._frozen_face(counts, reconstruct_mle(counts).rho)
        target = canonical_state("w")
        fits = _pass_fits(counts, 50, seed, face, monkeypatch)
        assert len(fits) == 50
        for table, start, batched in fits:
            assert isinstance(start, tritterlab.tomography._Moved)
            single = reconstruct_mle(table, start=tritterlab.tomography._frozen_steps(face, table.counts[None])[0])
            assert batched.iterations == single.iterations == 1 and batched.converged
            assert abs(fidelity(batched.rho, target) - fidelity(single.rho, target)) <= 1e-12
            assert abs(purity(batched.rho) - purity(single.rho)) <= 1e-12
            # a settled fit returns the moved state finished by the batch, bit for bit the fit's own finishing
            expected = (start.rho + start.rho.conj().T) / 2
            expected /= expected.trace().real
            assert batched.rho is start.finished and batched.rho.tobytes() == expected.tobytes()
            assert not batched.rho.flags.writeable
            assert (batched.log_likelihood, batched.gap, batched.rank) == (start.log_likelihood, max(start.gap, 0.0),
                                                                          start.rank)
        # a tolerance below the moved state's gap sends the fit on through the Newton loop
        for table, start, _ in fits[:5]:
            fit = reconstruct_mle(table, tol=start.gap / 2.0, start=start)
            assert fit.iterations > 1 and fit.converged and not fit.rho.flags.writeable

    @pytest.mark.parametrize("seed", [2, 4242])
    def test_moved_state_is_handed_on(self, seed, monkeypatch):
        # a fit that the step does not settle goes on from the moved state, so it takes the iterations it took
        # when it stepped itself, not one more
        counts = _source_counts("noisy-ghzprime", seed=seed)
        fits = _pass_fits(counts, 20, seed, tritterlab.tomography._frozen_face(counts, reconstruct_mle(counts).rho),
                          monkeypatch)
        assert all(fit.converged for _, _, fit in fits)
        moved = [isinstance(start, tritterlab.tomography._Moved) for _, start, _ in fits]
        iterations, ranks = (list(itertools.compress(pinned, moved)) for pinned in _PER_FIT_STEP_FITS[seed])
        assert [fit.iterations for _, _, fit in itertools.compress(fits, moved)] == iterations
        assert [fit.rank for _, _, fit in itertools.compress(fits, moved)] == ranks
        assert iterations and max(iterations) > 1

    def test_table_with_an_empty_setting_fails_its_fit(self):
        # one count in XXX: most resamples draw none there, take no step and fail; the others settle
        counts = _source_counts("ideal-w").counts.copy()
        counts[0] = 0
        counts[0, 0] = 1
        counts = CountsTable(counts)
        face = tritterlab.tomography._frozen_face(counts, reconstruct_mle(counts).rho)
        assert face is not None
        tables = np.array([rng.poisson(counts.counts) for rng in np.random.default_rng(3).spawn(20)])
        empty = tables[:, 0].sum(axis=1) == 0
        starts = tritterlab.tomography._frozen_steps(face, tables)
        assert [isinstance(start, tritterlab.tomography._Moved) for start in starts] == list(~empty)
        assert all(start is None for start in tritterlab.tomography._frozen_steps(face, tables[empty]))
        functional, values = _recorded(purity)
        mc = monte_carlo_uncertainty(counts, 20, functional, seed=3, start=face)
        assert mc.failures == empty.sum() > 0
        assert (mc.unconverged, len(values), mc.iterations_max) == (0, 20 - mc.failures, 1)

    def test_undrawn_outcome_does_not_reject_the_step(self, monkeypatch):
        # a step that takes an outcome's probability below 0 is rejected only if the table drew that outcome
        counts = _source_counts("ideal-w")
        face = tritterlab.tomography._frozen_face(counts, reconstruct_mle(counts).rho)
        table = counts.counts.copy()
        table.flat[np.flatnonzero(face.observed)[1]] = 0  # column 1 of the step's probabilities; column 0 stays drawn
        tables = np.array([table, table])
        reference = tritterlab.tomography._frozen_steps(face, tables)
        probabilities = tritterlab.tomography._probabilities

        def pushed_below_zero(born, rho):
            p = probabilities(born, rho)
            if rho.ndim == 3:  # the batched step's probabilities: row 0 at the undrawn outcome, row 1 at a drawn one
                p = p.copy()
                p[0, 1] = p[1, 0] = -2.0 * face.p.max()
            return p

        monkeypatch.setattr(tritterlab.tomography, "_probabilities", pushed_below_zero)
        kept, rejected = tritterlab.tomography._frozen_steps(face, tables)
        assert isinstance(reference[0], tritterlab.tomography._Moved)
        assert isinstance(kept, tritterlab.tomography._Moved)
        for name in ("rho", "p", "r"):
            assert np.array_equal(getattr(kept, name), getattr(reference[0], name)), name
        assert (kept.gap, kept.log_likelihood) == (reference[0].gap, reference[0].log_likelihood)
        assert rejected is None


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
        with pytest.raises(ValidationError, match=r"^resamples 1 lies outside \[2, 10000\]$"):
            monte_carlo_uncertainty(counts, 1, purity, seed=0)

    def test_functional_error_propagates(self):
        # a functional that rejects the estimate is the caller's error, not a failed fit
        counts = simulate_counts(np.eye(4) / 4, 500, seed=1)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            monte_carlo_uncertainty(counts, 4, lambda r: fidelity(r, canonical_state("w")), seed=3)

    def test_unconverged_resamples_raise(self, monkeypatch):
        v = canonical_state("w")
        counts = simulate_counts(np.outer(v, v.conj()), 1000, seed=5)
        capped = functools.partial(reconstruct_mle, max_iter=2)
        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", capped)
        with pytest.raises(ConvergenceError, match="4 unconverged"):
            monte_carlo_uncertainty(counts, 4, purity, seed=3)

    def test_unconverged_resamples_excluded_and_counted(self, monkeypatch):
        counts = simulate_counts(np.eye(2) / 2, 500, seed=1)
        reference, reference_values = _recorded(purity)
        monte_carlo_uncertainty(counts, 6, reference, seed=4)
        calls = itertools.count()

        def every_other_unconverged(table, **kwargs):
            result = reconstruct_mle(table, **kwargs)
            return dataclasses.replace(result, converged=next(calls) % 2 == 0)

        monkeypatch.setattr(tritterlab.tomography, "reconstruct_mle", every_other_unconverged)
        functional, values = _recorded(purity)
        mc = monte_carlo_uncertainty(counts, 6, functional, seed=4)
        assert mc.unconverged == 3
        assert mc.failures == 0
        assert values == reference_values[::2]

    def test_resamples_that_draw_no_x_count_fail_and_are_counted(self):
        counts = CountsTable([[1, 0], [40, 60], [70, 30]])
        # resample i draws with the i-th spawned generator; one that draws no X count cannot be fit
        no_x = sum(rng.poisson(counts.counts)[0].sum() == 0 for rng in np.random.default_rng(0).spawn(20))
        functional, values = _recorded(purity)
        mc = monte_carlo_uncertainty(counts, 20, functional, seed=0)
        assert mc.failures == no_x > 0
        assert mc.failures + mc.unconverged + len(values) == 20

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
        (fa, a), (fb, b), (fc, c) = _recorded(purity), _recorded(purity), _recorded(purity)
        assert monte_carlo_uncertainty(counts, 8, fa, seed=4) == monte_carlo_uncertainty(counts, 8, fb, seed=4)
        assert len(a) >= 2 and a == b
        # generate passes SeedSequence children, tomo passes ints: both seed the same streams
        monte_carlo_uncertainty(counts, 8, fc, seed=np.random.SeedSequence(4))
        assert c == a

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

    def test_reconstruction_result_serializes(self, tmp_path):
        # tomo writes the estimate as [re, im] pairs beside the fit's record, which holds numbers alone
        counts = simulate_counts(np.eye(2) / 2, 2000, seed=6)
        counts.to_csv(tmp_path / "counts.csv")
        assert tritterlab.cli.main(["tomo", "--counts", str(tmp_path / "counts.csv"),
                                    "--out", str(tmp_path / "recon.json")]) == 0
        payload = json.loads((tmp_path / "recon.json").read_text(encoding="utf-8"))
        assert payload["tomography"]["reconstruction"]["converged"] is True
        assert payload["rho"] == matrix_to_pairs(reconstruct_mle(counts).rho)
        assert len(payload["rho"]) == 2
        assert len(payload["rho"][0][0]) == 2  # [re, im] pairs
