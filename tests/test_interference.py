"""Interference engine: unitaries, permanents, distributions, post-selection."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tritterlab import (
    Interferometer,
    InternalState,
    InputConfiguration,
    ValidationError,
    fourier_unitary,
    matrix_from_pairs,
    matrix_to_pairs,
    output_distribution,
    pair_coincidence_probability,
    permanent,
    postselect_coincidence,
    purity,
    spectral_vectors_from_gram,
    witness_report,
)
from tritterlab import interference
from conftest import (
    exact_integer_permanent,
    gram_probabilities,
    oracle_coincidence,
    random_internal,
    random_unitary,
)

H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
DISTRIBUTION_NORM_TOL = 1e-9


def gram_of(states):
    """Gram matrix <phi_i|phi_j> of the photons' pol (x) spectral states."""
    pols = np.array([s.pol for s in states])
    specs = np.array([s.spectral for s in states])
    return (pols.conj() @ pols.T) * (specs.conj() @ specs.T)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Shapes of the arguments of every symmetrisation-kernel call made in the test."""
    kernel, calls = interference._symmetrized, []
    monkeypatch.setattr(interference, "_symmetrized", lambda v: calls.append(v.shape) or kernel(v))
    return calls


class TestFourierUnitary:
    def test_two_port_is_balanced_splitter(self):
        u = fourier_unitary(2)
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(u.matrix - expected).max() < 1e-12

    def test_three_port_matches_canonical_phases(self):
        u = fourier_unitary(3)
        w = np.exp(2j * np.pi / 3)
        expected = np.array([[1, 1, 1], [1, w, w**2], [1, w**2, w**4]]) / np.sqrt(3)
        assert np.abs(u.matrix - expected).max() < 1e-12

    def test_single_port_is_identity(self):
        assert np.abs(fourier_unitary(1).matrix - np.array([[1.0]])).max() < 1e-15

    def test_unitarity_up_to_dim_12(self):
        for n in range(1, 13):
            m = fourier_unitary(n).matrix
            assert np.abs(m @ m.conj().T - np.eye(n)).max() < 1e-10

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValidationError):
            fourier_unitary(0)

    def test_interferometer_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            Interferometer(np.array([[1.0, 0.0], [0.0, 2.0]]))


class TestPermanent:
    def test_identity(self):
        assert permanent(np.eye(3)) == pytest.approx(1.0)

    def test_all_ones_2x2(self):
        assert permanent(np.ones((2, 2))) == pytest.approx(2.0)

    def test_empty_matrix(self):
        # the empty product: no photons interfere with amplitude 1
        assert permanent(np.zeros((0, 0))) == 1.0

    def test_tritter_permanent(self, tritter):
        # six-term expansion gives -3 for the bare phase matrix, so -1/sqrt(3) overall
        value = permanent(tritter.matrix)
        assert value == pytest.approx(-1.0 / np.sqrt(3), abs=1e-12)
        naive = sum(
            np.prod([tritter.matrix[i, s[i]] for i in range(3)])
            for s in itertools.permutations(range(3))
        )
        assert value == pytest.approx(naive, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_exact_rational_oracle(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            re = rng.integers(-5, 6, size=(dim, dim))
            im = rng.integers(-5, 6, size=(dim, dim))
            exact_re, exact_im = exact_integer_permanent(
                [[(int(re[i, j]), int(im[i, j])) for j in range(dim)] for i in range(dim)]
            )
            got = permanent(re + 1j * im)
            assert got.real == pytest.approx(float(exact_re), abs=1e-9)
            assert got.imag == pytest.approx(float(exact_im), abs=1e-9)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_permutation_sum(self, dim):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rows = m.tolist()
        naive = sum(
            math.prod(rows[i][s[i]] for i in range(dim))
            for s in itertools.permutations(range(dim))
        )
        assert permanent(m) == pytest.approx(naive, rel=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            permanent(np.ones((2, 3)))

    def test_dimension_bound(self):
        with pytest.raises(ValidationError):
            permanent(np.eye(13))


def brute_symmetrized(v):
    """Sum over permutations s of (x)_k v[..., s(k), k], flattened slot-major, by enumeration."""
    *batch, p, _, m = v.shape
    perms = np.array(list(itertools.permutations(range(p))))
    rows = v[..., perms, np.arange(p), :]  # (..., p!, p, m): row k is v[s(k), k]
    out = rows[..., 0, :]
    for k in range(1, p):
        out = (out[..., :, None] * rows[..., k, None, :]).reshape(*batch, len(perms), -1)
    return out.sum(axis=-2)


class TestSymmetrized:
    """The split Glynn contraction against the enumerated permutation sum."""

    @pytest.mark.parametrize(
        "p, m", [(p, 2) for p in range(1, 8)] + [(p, 6) for p in range(1, 6)]
    )
    def test_matches_permutation_sum(self, p, m):
        rng = np.random.default_rng(10 * p + m)
        v = rng.normal(size=(p, p, m)) + 1j * rng.normal(size=(p, p, m))
        got, want = interference._symmetrized(v), brute_symmetrized(v)
        assert got.shape == (m**p,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("p, m", [(3, 6), (4, 2), (5, 2)])
    def test_batch_of_slot_lists(self, p, m):
        rng = np.random.default_rng(p + m)
        v = rng.normal(size=(2, 3, p, p, m)) + 1j * rng.normal(size=(2, 3, p, p, m))
        got, want = interference._symmetrized(v), brute_symmetrized(v)
        assert got.shape == (2, 3, m**p)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestInputValidation:
    def test_duplicate_ports_rejected(self):
        with pytest.raises(ValidationError):
            InputConfiguration([(1, InternalState(H)), (1, InternalState(V))])

    def test_port_zero_rejected(self):
        with pytest.raises(ValidationError):
            InputConfiguration([(0, InternalState(H))])

    def test_unnormalized_polarisation_rejected(self):
        with pytest.raises(ValidationError):
            InternalState(np.array([1.0, 1.0]))

    def test_unnormalized_spectral_rejected(self):
        with pytest.raises(ValidationError):
            InternalState(H, np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "pol, spectral",
        [([np.nan, 0.0], None), ([1.0, complex(0.0, np.nan)], None), ([1.0, 0.0], [np.nan])],
        ids=["pol", "pol-imaginary", "spectral"],
    )
    def test_nan_amplitudes_rejected(self, pol, spectral):
        # a NaN norm passes |norm - 1| > tol, and post-selection then returns a NaN rho
        with pytest.raises(ValidationError, match="not normalized"):
            InternalState(pol, spectral)

    def test_mismatched_spectral_dims_rejected(self):
        with pytest.raises(ValidationError):
            InputConfiguration(
                [(1, InternalState(H, [1.0])), (2, InternalState(V, [1.0, 0.0]))]
            )

    def test_port_beyond_interferometer_rejected(self, tritter):
        config = InputConfiguration([(4, InternalState(H))])
        with pytest.raises(ValidationError):
            output_distribution(tritter, config)

    def test_photon_count_above_bound_rejected(self):
        u = fourier_unitary(13)
        config = InputConfiguration([(port, InternalState(H)) for port in range(1, 14)])
        with pytest.raises(ValidationError, match="13 photons exceed"):
            postselect_coincidence(u, config, (1,) * 13)
        with pytest.raises(ValidationError, match="13 photons exceed"):
            output_distribution(u, config)


class TestOutputDistribution:
    def test_hom_suppression_on_balanced_splitter(self):
        u = fourier_unitary(2)
        config = InputConfiguration([(1, InternalState(H)), (2, InternalState(H))])
        dist = output_distribution(u, config)
        assert dist[(1, 1)] == pytest.approx(0.0, abs=1e-12)
        assert dist[(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(0, 2)] == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_pair_coincidence_on_tritter(self, tritter):
        config = InputConfiguration([(1, InternalState(H)), (2, InternalState(V))])
        dist = output_distribution(tritter, config)
        assert dist[(1, 1, 0)] == pytest.approx(2.0 / 9.0, abs=1e-12)

    def test_three_photon_distribution_normalized(self, tritter):
        config = InputConfiguration(
            [(1, InternalState(H)), (2, InternalState(H)), (3, InternalState(V))]
        )
        dist = output_distribution(tritter, config)
        assert len(dist) == 10
        assert sum(dist.values()) == pytest.approx(1.0, abs=DISTRIBUTION_NORM_TOL)

    def test_normalization_over_random_seeds(self):
        # randomized unitaries and internal states, >= 100 seeds
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 4))
            d = int(rng.integers(1, 3))
            p = int(rng.integers(1, n + 1))
            u = Interferometer(random_unitary(n, rng))
            ports = rng.choice(n, size=p, replace=False) + 1
            config = InputConfiguration(
                [(int(port), random_internal(rng, d)) for port in ports]
            )
            dist = output_distribution(u, config)
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "p, d, n, chunked",
        [(2, 1, 3, False), (3, 2, 3, False), (4, 1, 4, False), (2, 2, 4, False), (3, 2, 11, True)],
    )
    def test_every_pattern_matches_oracle(self, p, d, n, chunked, kernel_calls, monkeypatch):
        # bunched patterns included; 3 photons with D = 2 on 11 ports give 286 patterns,
        # more than one batched kernel call holds once the bound is lowered to 2^13
        # entries (about 41k are needed); the oracle is too slow for a case that
        # outgrows the shipped bound, which test_five_photons_match_gram_oracle covers
        rng = np.random.default_rng(100 * n + 10 * p + d)
        u = random_unitary(n, rng)
        ports = tuple(int(x) + 1 for x in rng.choice(n, size=p, replace=False))
        states = [random_internal(rng, d) for _ in ports]
        monkeypatch.setattr(interference, "_KERNEL_ENTRIES", 1 << 13)
        dist = output_distribution(Interferometer(u), InputConfiguration(list(zip(ports, states))))
        assert len(dist) == math.comb(n + p - 1, p)
        assert (len(kernel_calls) >= 2) == chunked
        pols, specs = [s.pol for s in states], [s.spectral for s in states]
        for counts, prob in dist.items():
            outs = tuple(j + 1 for j, c in enumerate(counts) for _ in range(c))
            weight = oracle_coincidence(u, ports, pols, specs, outs)[2]
            expected = weight / math.prod(math.factorial(c) for c in counts)
            assert prob == pytest.approx(expected, rel=1e-10, abs=1e-15)

    def test_gram_oracle_matches_vector_oracle(self):
        # the two oracles share nothing but the unitary, on every pattern of 3 photons
        rng = np.random.default_rng(33)
        u = random_unitary(3, rng)
        states = [random_internal(rng, 2) for _ in range(3)]
        pols, specs = [s.pol for s in states], [s.spectral for s in states]
        slot_lists = list(itertools.combinations_with_replacement((1, 2, 3), 3))
        got = gram_probabilities(u, (1, 2, 3), gram_of(states), slot_lists)
        for outs, prob in zip(slot_lists, got):
            weight = oracle_coincidence(u, (1, 2, 3), pols, specs, outs)[2]
            expected = weight / math.prod(math.factorial(outs.count(j)) for j in (1, 2, 3))
            assert prob == pytest.approx(expected, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("d, chunked", [(1, False), (2, True), (3, True)])
    def test_five_photons_match_gram_oracle(self, d, chunked, kernel_calls):
        # every pattern of 5 photons on 5 ports, bunched ones included: 126 patterns,
        # which outgrow one kernel call's bound from D = 2 on
        rng = np.random.default_rng(500 + d)
        states = [random_internal(rng, d) for _ in range(5)]
        ports = (1, 2, 3, 4, 5)
        config = InputConfiguration(list(zip(ports, states)))
        gram = gram_of(states)
        for u in (random_unitary(5, rng), fourier_unitary(5).matrix):
            kernel_calls.clear()
            dist = output_distribution(Interferometer(u), config)
            assert len(dist) == math.comb(9, 5)
            assert (len(kernel_calls) >= 2) == chunked
            slot_lists = [[j + 1 for j, c in enumerate(counts) for _ in range(c)] for counts in dist]
            expected = gram_probabilities(u, ports, gram, slot_lists)
            for prob, want in zip(dist.values(), expected):
                assert prob == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_four_photons_normalized(self):
        rng = np.random.default_rng(424)
        u = Interferometer(random_unitary(4, rng))
        config = InputConfiguration(
            [(port, random_internal(rng)) for port in (1, 2, 3, 4)]
        )
        assert sum(output_distribution(u, config).values()) == pytest.approx(1.0, abs=1e-9)


class TestPostselectCoincidence:
    def test_two_port_singlet(self):
        u = fourier_unitary(2)
        config = InputConfiguration([(1, InternalState(H)), (2, InternalState(V))])
        result = postselect_coincidence(u, config, (1, 1))
        assert result.probability == pytest.approx(0.5, abs=1e-12)
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        assert np.vdot(singlet, result.rho @ singlet).real == pytest.approx(1.0, abs=1e-12)

    def test_w_generation_amplitudes_match_oracle(self, tritter):
        pols = [H, H, V]
        specs = [np.array([1.0 + 0j])] * 3
        result = postselect_coincidence(
            tritter,
            InputConfiguration([(i + 1, InternalState(p)) for i, p in enumerate(pols)]),
            (1, 1, 1),
        )
        amps, rho_oracle, prob_oracle = oracle_coincidence(
            tritter.matrix, (1, 2, 3), pols, specs, (1, 2, 3)
        )
        assert result.probability == pytest.approx(prob_oracle, abs=1e-12)
        assert result.probability == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert np.abs(result.rho - rho_oracle).max() < 1e-12
        # each single-V coincidence amplitude equals -1/(3 sqrt(3))
        expected = -1.0 / (3.0 * np.sqrt(3.0))
        for pattern in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            assert amps[(pattern, (0, 0, 0))] == pytest.approx(expected, abs=1e-12)

    def test_distinguishable_photons_lose_coherence(self, tritter):
        specs = spectral_vectors_from_gram(np.eye(3))
        config = InputConfiguration(
            [
                (1, InternalState(H, specs[0])),
                (2, InternalState(H, specs[1])),
                (3, InternalState(V, specs[2])),
            ]
        )
        result = postselect_coincidence(tritter, config, (1, 1, 1))
        off_diag = result.rho - np.diag(np.diag(result.rho))
        assert np.abs(off_diag).max() < 1e-10
        # classical limit: sum over assignments of the transmission products
        classical = sum(
            np.prod([np.abs(tritter.matrix[j, s[j]]) ** 2 for j in range(3)])
            for s in itertools.permutations(range(3))
        )
        assert result.probability == pytest.approx(classical, abs=1e-12)
        _, rho_oracle, prob_oracle = oracle_coincidence(
            tritter.matrix, (1, 2, 3), [H, H, V], specs, (1, 2, 3)
        )
        assert np.abs(result.rho - rho_oracle).max() < 1e-12
        assert result.probability == pytest.approx(prob_oracle, abs=1e-12)

    def test_identical_photons_give_separable_state(self, tritter):
        for eta in (0.0, 0.5, 2.0, 0.3 + 0.4j):
            pol = np.array([1.0, eta], dtype=complex)
            pol /= np.linalg.norm(pol)
            config = InputConfiguration([(p, InternalState(pol)) for p in (1, 2, 3)])
            result = postselect_coincidence(tritter, config, (1, 1, 1))
            assert purity(result.rho) == pytest.approx(1.0, abs=1e-10)
            product = np.kron(np.kron(pol, pol), pol)
            overlap = np.vdot(product, result.rho @ product).real
            assert overlap == pytest.approx(1.0, abs=1e-10)
            report = witness_report(result.rho)
            assert not report.w_witness_pass
            assert not report.genuine_tripartite_pass
            assert not report.ghz_class_pass

    def test_probability_consistent_with_distribution(self):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            p = int(rng.integers(1, n + 1))
            u = Interferometer(random_unitary(n, rng))
            ports = rng.choice(n, size=p, replace=False) + 1
            config = InputConfiguration(
                [(int(port), random_internal(rng, d)) for port in ports]
            )
            outs = sorted(rng.choice(n, size=p, replace=False))
            pattern = tuple(1 if j in outs else 0 for j in range(n))
            dist = output_distribution(u, config)
            result = postselect_coincidence(u, config, pattern)
            assert result.probability == pytest.approx(dist[pattern], abs=1e-10)
            if result.state_defined:
                rho = result.rho
                assert np.abs(rho - rho.conj().T).max() < 1e-10
                assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
                assert np.linalg.eigvalsh(rho).min() > -1e-10

    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2])
    def test_random_unitaries_match_oracle(self, p, d):
        rng = np.random.default_rng(10 * p + d)
        n = p + 1
        u = random_unitary(n, rng)
        ports = tuple(int(x) + 1 for x in rng.choice(n, size=p, replace=False))
        outs = tuple(sorted(int(x) + 1 for x in rng.choice(n, size=p, replace=False)))
        states = [random_internal(rng, d) for _ in ports]
        config = InputConfiguration(list(zip(ports, states)))
        pattern = tuple(1 if j in outs else 0 for j in range(1, n + 1))
        result = postselect_coincidence(Interferometer(u), config, pattern)
        _, rho_oracle, prob_oracle = oracle_coincidence(
            u, ports, [s.pol for s in states], [s.spectral for s in states], outs
        )
        assert result.probability == pytest.approx(prob_oracle, rel=1e-10)
        assert np.abs(result.rho - rho_oracle).max() < 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_five_photons_match_gram_oracle(self, d):
        rng = np.random.default_rng(50 + d)
        for n in (5, 6, 7):
            u = random_unitary(n, rng)
            ports = tuple(int(x) + 1 for x in rng.choice(n, size=5, replace=False))
            outs = tuple(sorted(int(x) + 1 for x in rng.choice(n, size=5, replace=False)))
            states = [random_internal(rng, d) for _ in ports]
            pattern = tuple(1 if j in outs else 0 for j in range(1, n + 1))
            result = postselect_coincidence(
                Interferometer(u), InputConfiguration(list(zip(ports, states))), pattern
            )
            expected = gram_probabilities(u, ports, gram_of(states), [outs])[0]
            assert result.probability == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_balanced_five_port_matches_gram_oracle(self, d):
        # the multiport benchmark's 5-photon case, with partial distinguishability added
        rng = np.random.default_rng(5 + d)
        u = fourier_unitary(5)
        states = [random_internal(rng, d) for _ in range(5)]
        ports = (1, 2, 3, 4, 5)
        result = postselect_coincidence(u, InputConfiguration(list(zip(ports, states))), (1,) * 5)
        expected = gram_probabilities(u.matrix, ports, gram_of(states), [ports])[0]
        assert result.probability == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "p, d", [(p, 1) for p in range(1, 9)] + [(p, d) for p in range(1, 7) for d in (2, 3)]
    )
    def test_state_is_a_density_matrix(self, p, d):
        rng = np.random.default_rng(70 + 10 * p + d)
        for _ in range(3):
            n = p + int(rng.integers(0, 2))
            u = Interferometer(random_unitary(n, rng))
            ports = rng.choice(n, size=p, replace=False) + 1
            config = InputConfiguration([(int(port), random_internal(rng, d)) for port in ports])
            outs = set(rng.choice(n, size=p, replace=False).tolist())
            rho = postselect_coincidence(u, config, [int(j in outs) for j in range(n)]).rho
            assert rho.shape == (2**p, 2**p)
            assert np.abs(rho - rho.conj().T).max() <= 1e-15
            assert abs(np.trace(rho) - 1.0) <= 1e-14
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    @pytest.mark.parametrize("p, d, bound", [(8, 1, None), (6, 3, 2 * 2**20)])
    def test_allocation_peak(self, p, d, bound):
        # p = 8, D = 1: nothing beyond the state itself of note; p = 6, D = 3: the
        # amplitude tensor (46656 entries) and its regrouped copy, nothing of the
        # 2^(p-1) * (2D)^p Glynn working array
        rng = np.random.default_rng(p + d)
        u = fourier_unitary(p)
        config = InputConfiguration([(k, random_internal(rng, d)) for k in range(1, p + 1)])
        postselect_coincidence(u, config, (1,) * p)
        tracemalloc.start()
        try:
            rho = postselect_coincidence(u, config, (1,) * p).rho
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (bound or 1.25 * rho.nbytes)

    def test_zero_probability_is_flagged_not_raised(self):
        u = fourier_unitary(2)
        config = InputConfiguration([(1, InternalState(H)), (2, InternalState(H))])
        result = postselect_coincidence(u, config, (1, 1))
        assert result.probability == 0.0
        assert result.rho is None
        assert not result.state_defined

    def test_bunched_pattern_rejected(self, tritter):
        config = InputConfiguration([(1, InternalState(H)), (2, InternalState(V))])
        with pytest.raises(ValidationError, match="bunched"):
            postselect_coincidence(tritter, config, (2, 0, 0))

    def test_wrong_photon_count_rejected(self, tritter):
        config = InputConfiguration([(1, InternalState(H)), (2, InternalState(V))])
        with pytest.raises(ValidationError):
            postselect_coincidence(tritter, config, (1, 1, 1))

    def test_qubit_order_follows_output_ports(self, tritter):
        # photon with V polarisation forced into a known output via distinguishability
        specs = spectral_vectors_from_gram(np.eye(3))
        config = InputConfiguration(
            [
                (1, InternalState(V, specs[0])),
                (2, InternalState(H, specs[1])),
                (3, InternalState(H, specs[2])),
            ]
        )
        result = postselect_coincidence(tritter, config, (1, 1, 1))
        assert result.ports == (1, 2, 3)
        # diagonal weights live only on patterns with exactly one V
        diag = np.real(np.diag(result.rho))
        populated = {i for i, w in enumerate(diag) if w > 1e-12}
        assert populated == {int("100", 2), int("010", 2), int("001", 2)}


class TestPairCoincidence:
    def test_matches_closed_form_on_tritter(self, tritter):
        for x in np.linspace(0.0, 1.0, 11):
            for outs in [(1, 2), (1, 3), (2, 3)]:
                got = pair_coincidence_probability(tritter, (1, 2), outs, x)
                assert got == pytest.approx((2.0 - x**2) / 9.0, abs=1e-12)

    def test_visibility_bound(self, tritter):
        probs = [
            pair_coincidence_probability(tritter, (2, 3), (1, 2), x)
            for x in np.linspace(0, 1, 21)
        ]
        assert min(probs) >= 1.0 / 9.0 - 1e-12
        assert max(probs) <= 2.0 / 9.0 + 1e-12
        vis = (max(probs) - min(probs)) / max(probs)
        assert vis == pytest.approx(0.5, abs=1e-12)

    def test_complex_overlap_uses_magnitude(self, tritter):
        x = 0.6 * np.exp(1j * 0.7)
        got = pair_coincidence_probability(tritter, (1, 3), (2, 3), x)
        assert got == pytest.approx((2.0 - 0.36) / 9.0, abs=1e-12)

    def test_overlap_magnitude_above_one_rejected(self, tritter):
        with pytest.raises(ValidationError, match="overlap"):
            pair_coincidence_probability(tritter, (1, 2), (1, 2), 1.2)

    @pytest.mark.parametrize("overlap", [np.nan, complex(0.5, np.nan)], ids=["nan", "nan-imaginary"])
    def test_nan_overlap_rejected(self, tritter, overlap):
        with pytest.raises(ValidationError, match="overlap"):
            pair_coincidence_probability(tritter, (1, 2), (1, 2), overlap)

    def test_identical_ports_rejected(self, tritter):
        with pytest.raises(ValidationError):
            pair_coincidence_probability(tritter, (1, 1), (1, 2), 0.5)

    @pytest.mark.parametrize("ports", [(0, 2), (1, 4)])
    def test_input_port_out_of_range_rejected(self, tritter, ports):
        with pytest.raises(ValidationError):
            pair_coincidence_probability(tritter, ports, (1, 2), 0.5)


class TestSpectralVectors:
    def test_reproduces_random_gram(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            gram = z @ z.conj().T
            vecs = spectral_vectors_from_gram(gram)
            got = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
            assert np.abs(got - gram).max() < 1e-9

    def test_all_ones_gram_gives_identical_vectors(self):
        vecs = spectral_vectors_from_gram(np.ones((3, 3)))
        for v in vecs[1:]:
            assert abs(np.vdot(vecs[0], v)) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones_gram_gives_equal_vectors(self):
        # the roots of its zero eigenvalues, rounding noise of ~1e-17, would make them differ by ~3e-9
        vecs = spectral_vectors_from_gram(np.ones((3, 3)))
        assert np.array_equal(vecs[0], vecs[1]) and np.array_equal(vecs[0], vecs[2])

    def test_non_psd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValidationError, match="semidefinite"):
            spectral_vectors_from_gram(bad)

    def test_non_unit_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="diagonal"):
            spectral_vectors_from_gram(np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestMatrixSerialization:
    def test_round_trip(self, tritter):
        pairs = matrix_to_pairs(tritter.matrix)
        assert isinstance(pairs[0][0], list) and len(pairs[0][0]) == 2
        back = matrix_from_pairs(pairs)
        assert np.abs(back - tritter.matrix).max() == 0.0

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValidationError):
            matrix_from_pairs([[1.0, 2.0], [3.0]])
