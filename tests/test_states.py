"""Canonical states, recipes, local transforms, fidelity/purity, witnesses."""

from fractions import Fraction

import numpy as np
import pytest

import tritterlab.cli
from tritterlab import (
    GENERATED_KINDS,
    StateKind,
    ValidationError,
    apply_local_unitary,
    canonical_state,
    fidelity,
    local_transform,
    postselect_coincidence,
    purity,
    recipe,
    state_overlap,
    witness_report,
)
from conftest import oracle_coincidence

SQ3 = np.sqrt(3.0)


class TestCanonicalStates:
    def test_w(self):
        v = canonical_state(StateKind.W)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / SQ3
        assert np.abs(v - expected).max() < 1e-15

    def test_wbar(self):
        v = canonical_state("wbar")
        expected = np.zeros(8)
        expected[[3, 5, 6]] = 1 / SQ3
        assert np.abs(v - expected).max() < 1e-15

    def test_ghz(self):
        v = canonical_state("ghz")
        assert v[0] == pytest.approx(1 / np.sqrt(2))
        assert v[7] == pytest.approx(1 / np.sqrt(2))
        assert np.abs(v[1:7]).max() == 0.0

    def test_g_is_balanced_middle_shell(self):
        v = canonical_state(StateKind.G)
        expected = np.array([0, 1, 1, 1, 1, 1, 1, 0]) / np.sqrt(6)
        assert np.abs(v - expected).max() < 1e-15
        w = canonical_state("w")
        wbar = canonical_state("wbar")
        assert np.abs(v - (w + wbar) / np.sqrt(2)).max() < 1e-15

    def test_gprime(self):
        v = canonical_state("gprime")
        expected = np.zeros(8)
        expected[0] = 3
        expected[[3, 5, 6]] = -1
        expected /= 2 * SQ3
        assert np.abs(v - expected).max() < 1e-15

    def test_ghzprime(self):
        v = canonical_state("ghzprime")
        expected = np.zeros(8)
        expected[0] = 1
        expected[[3, 5, 6]] = -1
        expected /= 2
        assert np.abs(v - expected).max() < 1e-15

    def test_all_normalized(self):
        for kind in StateKind:
            assert np.linalg.norm(canonical_state(kind)) == pytest.approx(1.0, abs=1e-12)


class TestRecipes:
    @pytest.mark.parametrize(
        "kind,probability",
        [(StateKind.W, Fraction(1, 9)), (StateKind.GPRIME, Fraction(1, 9)),
         (StateKind.GHZPRIME, Fraction(1, 12))],
    )
    def test_recipe_reproduces_canonical_state(self, tritter, kind, probability):
        rec = recipe(kind)
        assert rec.expected_probability == probability
        result = postselect_coincidence(tritter, rec.input_configuration(), (1, 1, 1))
        target = canonical_state(kind)
        assert fidelity(result.rho, target) > 1 - 1e-10
        assert result.probability == pytest.approx(float(probability), abs=1e-12)

    @pytest.mark.parametrize("kind", GENERATED_KINDS)
    def test_recipe_state_matches_brute_force_oracle(self, tritter, kind):
        rec = recipe(kind)
        specs = [np.array([1.0 + 0j])] * 3
        _, rho_oracle, prob_oracle = oracle_coincidence(
            tritter.matrix, (1, 2, 3), list(rec.inputs), specs, (1, 2, 3)
        )
        target = canonical_state(kind)
        assert np.vdot(target, rho_oracle @ target).real > 1 - 1e-10
        assert prob_oracle == pytest.approx(float(rec.expected_probability), abs=1e-12)

    def test_recipe_vector_phase_convention(self, tritter):
        # the post-selected state is the canonical vector's projector, whatever its global phase
        rec = recipe("ghzprime")
        result = postselect_coincidence(tritter, rec.input_configuration(), (1, 1, 1))
        target = canonical_state("ghzprime")
        assert np.abs(result.rho - np.outer(target, target.conj())).max() < 1e-10

    def test_ghzprime_inputs_are_60_degree_linear(self):
        rec = recipe("ghzprime")
        for pol, angle in zip(rec.inputs, (0.0, np.pi / 3, -np.pi / 3)):
            expected = np.array([np.cos(angle), np.sin(angle)])
            assert np.abs(pol - expected).max() < 1e-12

    @pytest.mark.parametrize("kind", ["ghz", "g", "wbar", "bellsinglet"])
    def test_no_recipe_for_other_kinds(self, kind):
        with pytest.raises(ValidationError, match="no recipe"):
            recipe(kind)

    @pytest.mark.parametrize("kind", list(StateKind))
    def test_recipe_exists_exactly_for_generated_kinds(self, kind):
        if kind in GENERATED_KINDS:
            recipe(kind)
        else:
            with pytest.raises(ValidationError, match="no recipe"):
                recipe(kind)


class TestLocalTransforms:
    def test_gprime_transform_is_hadamard(self):
        m = local_transform(StateKind.GPRIME)
        assert np.abs(m - np.array([[1, 1], [1, -1]]) / np.sqrt(2)).max() < 1e-15

    def test_ghzprime_transform_matrix(self):
        m = local_transform(StateKind.GHZPRIME)
        assert np.abs(m - np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)).max() < 1e-15

    def test_transforms_map_primed_to_canonical(self):
        mapped = apply_local_unitary(canonical_state("gprime"), local_transform("gprime"))
        assert state_overlap(mapped, canonical_state("g")) > 1 - 1e-12
        mapped = apply_local_unitary(canonical_state("ghzprime"), local_transform("ghzprime"))
        assert state_overlap(mapped, canonical_state("ghz")) > 1 - 1e-12

    def test_state_dimension_not_a_power_of_two_rejected(self):
        with pytest.raises(ValidationError, match="state dimension 3 is not a power of 2"):
            apply_local_unitary(np.ones(3), np.eye(2))

    def test_empty_state_rejected(self):
        # log2(0) warned and then overflowed on its way to an int
        with pytest.raises(ValidationError, match="state dimension 0 is not a power of 2"):
            apply_local_unitary(np.zeros(0), np.eye(2))

    def test_single_qubit_unitary_must_be_two_by_two(self):
        with pytest.raises(ValidationError, match=r"single-qubit unitary must be 2x2, got \(3, 3\)"):
            apply_local_unitary(canonical_state("w"), np.eye(3))

    def test_no_transform_for_other_kinds(self):
        with pytest.raises(ValidationError, match="no local transform"):
            local_transform(StateKind.W)


class TestFidelityPurity:
    def test_pure_state_fidelity_is_one(self):
        w = canonical_state("w")
        assert fidelity(np.outer(w, w.conj()), w) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_fidelity(self):
        for kind in ("w", "ghz", "gprime"):
            assert fidelity(np.eye(8) / 8, canonical_state(kind)) == pytest.approx(1 / 8)

    def test_gprime_ghzprime_overlap_is_three_quarters(self):
        gp = canonical_state("gprime")
        assert fidelity(np.outer(gp, gp.conj()), canonical_state("ghzprime")) == pytest.approx(
            0.75, abs=1e-12
        )

    def test_fidelity_linear_in_rho(self):
        rng = np.random.default_rng(3)
        target = canonical_state("w")
        for _ in range(10):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho1 = a @ a.conj().T
            rho1 /= np.trace(rho1).real
            b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho2 = b @ b.conj().T
            rho2 /= np.trace(rho2).real
            lam = rng.uniform()
            mixed = lam * rho1 + (1 - lam) * rho2
            expected = lam * fidelity(rho1, target) + (1 - lam) * fidelity(rho2, target)
            assert fidelity(mixed, target) == pytest.approx(expected, abs=1e-12)

    def test_fidelity_invariant_under_global_phase(self):
        w = canonical_state("w")
        rho = np.outer(w, w.conj())
        assert fidelity(rho, np.exp(1.3j) * w) == pytest.approx(fidelity(rho, w), abs=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            fidelity(np.eye(4) / 4, canonical_state("w"))

    def test_purity_limits(self):
        w = canonical_state("w")
        assert purity(np.outer(w, w.conj())) == pytest.approx(1.0, abs=1e-13)
        assert purity(np.eye(8) / 8) == pytest.approx(1 / 8, abs=1e-14)

    def test_purity_of_white_noise_mixture(self):
        # trace algebra: (1-l)^2 + 2 (1-l) l / 8 + l^2 / 8 = 0.685 at l = 0.2
        lam = 0.2
        w = canonical_state("w")
        rho = (1 - lam) * np.outer(w, w.conj()) + lam * np.eye(8) / 8
        direct = np.trace(rho @ rho).real
        assert direct == pytest.approx(0.685, abs=1e-12)
        assert purity(rho) == pytest.approx(direct, abs=1e-14)

    def test_purity_rejects_non_square(self):
        with pytest.raises(ValidationError):
            purity(np.ones((2, 3)))

    def test_fidelity_rejects_non_square(self):
        with pytest.raises(ValidationError, match=r"rho must be square, got shape \(2, 3\)"):
            fidelity(np.ones((2, 3)), np.ones(2))

    def test_overlap_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="dimension mismatch: 8 vs 4"):
            state_overlap(canonical_state("w"), np.ones(4))


def _mix_with_identity(target_fidelity: float, state: np.ndarray) -> np.ndarray:
    # F((1-a) I/8 + a |s><s|, s) = a + (1 - a)/8
    a = (target_fidelity - 1 / 8) / (1 - 1 / 8)
    return a * np.outer(state, state.conj()) + (1 - a) * np.eye(8) / 8


class TestWitnesses:
    def test_w_fidelity_witness_passes_at_0873(self):
        rho = _mix_with_identity(0.873, canonical_state("w"))
        report = witness_report(rho)
        assert report.fidelity_w == pytest.approx(0.873, abs=1e-12)
        assert report.w_witness_pass
        assert report.genuine_tripartite_pass
        assert not report.ghz_class_pass

    def test_ghzprime_overlap_witness_passes_at_0572(self):
        rho = _mix_with_identity(0.572, canonical_state("ghzprime"))
        report = witness_report(rho)
        assert report.overlap_ghzprime == pytest.approx(0.572, abs=1e-12)
        assert report.genuine_tripartite_pass
        assert not report.w_witness_pass
        assert not report.ghz_class_pass

    def test_ghz_class_witness_passes_at_0788(self):
        rho = _mix_with_identity(0.788, canonical_state("ghzprime"))
        report = witness_report(rho)
        assert report.overlap_ghzprime == pytest.approx(0.788, abs=1e-12)
        assert report.ghz_class_pass
        assert report.genuine_tripartite_pass

    def test_maximally_mixed_fails_everything(self):
        report = witness_report(np.eye(8) / 8)
        assert report.fidelity_w == pytest.approx(1 / 8)
        assert not report.w_witness_pass
        assert not report.genuine_tripartite_pass
        assert not report.ghz_class_pass

    def test_ideal_w_is_not_ghz_class(self):
        w = canonical_state("w")
        report = witness_report(np.outer(w, w.conj()))
        assert report.w_witness_pass
        assert report.overlap_ghzprime == pytest.approx(0.0, abs=1e-14)
        assert not report.ghz_class_pass

    def test_gprime_sits_on_the_class_boundary(self):
        gp = canonical_state("gprime")
        report = witness_report(np.outer(gp, gp.conj()))
        assert report.overlap_ghzprime == pytest.approx(0.75, abs=1e-12)
        assert report.genuine_tripartite_pass

    def test_thresholds_are_strict(self):
        # values a hair below each threshold must not pass
        rho = _mix_with_identity(2 / 3 - 1e-9, canonical_state("w"))
        assert not witness_report(rho).w_witness_pass
        rho = _mix_with_identity(0.5 - 1e-9, canonical_state("ghzprime"))
        report = witness_report(rho)
        assert not report.genuine_tripartite_pass
        assert not report.ghz_class_pass
        rho = _mix_with_identity(0.75 - 1e-9, canonical_state("ghzprime"))
        assert not witness_report(rho).ghz_class_pass
        rho = _mix_with_identity(0.75 + 1e-9, canonical_state("ghzprime"))
        assert witness_report(rho).ghz_class_pass

    def test_white_noise_never_flips_fail_to_pass(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            base = witness_report(rho)
            for lam in (0.1, 0.5, 0.9, 1.0):
                mixed = (1 - lam) * rho + lam * np.eye(8) / 8
                noisy = witness_report(mixed)
                for flag in ("w_witness_pass", "genuine_tripartite_pass", "ghz_class_pass"):
                    if not getattr(base, flag):
                        assert not getattr(noisy, flag)

    def test_non_three_qubit_inputs_rejected(self):
        with pytest.raises(ValidationError):
            witness_report(np.eye(4) / 4)

    def test_json_dict_round_trips_through_json(self):
        import json

        report = witness_report(np.eye(8) / 8)
        payload = json.loads(json.dumps(tritterlab.cli._record(report)))
        assert payload["ghz_class_pass"] is False
        assert payload["w_witness_pass"] is False
