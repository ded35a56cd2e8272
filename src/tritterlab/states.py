"""Canonical tripartite entangled states, generation recipes and witnesses.

State vectors use qubit ordering |q1 q2 q3> with q1 leftmost and the
encoding H -> 0, V -> 1; post-selected qubits inherit the output-port order
1, 2, 3. Witness thresholds are strict inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .interference import InputConfiguration, InternalState
from .validation import ValidationError, as_complex_matrix, check_density_matrix

#: fidelity to a W-type target certifying genuine tripartite entanglement
W_FIDELITY_THRESHOLD = 2.0 / 3.0
#: overlap with a GHZ-type reference certifying genuine tripartite entanglement
GENUINE_OVERLAP_THRESHOLD = 0.5
#: overlap above which a state cannot belong to the W class
GHZ_CLASS_THRESHOLD = 0.75


class StateKind(str, Enum):
    W = "w"
    WBAR = "wbar"
    GHZ = "ghz"
    G = "g"
    GPRIME = "gprime"
    GHZPRIME = "ghzprime"
    BELL_SINGLET = "bellsinglet"


#: amplitudes of each canonical state up to normalisation, in qubit order |q1 q2 q3>
_AMPLITUDES = {
    StateKind.W: (0, 1, 1, 0, 1, 0, 0, 0),
    StateKind.WBAR: (0, 0, 0, 1, 0, 1, 1, 0),
    StateKind.GHZ: (1, 0, 0, 0, 0, 0, 0, 1),
    StateKind.G: (0, 1, 1, 1, 1, 1, 1, 0),
    StateKind.GPRIME: (3, 0, 0, -1, 0, -1, -1, 0),
    StateKind.GHZPRIME: (1, 0, 0, -1, 0, -1, -1, 0),
    StateKind.BELL_SINGLET: (0, 1, -1, 0),
}


def canonical_state(kind: StateKind) -> np.ndarray:
    """Exact amplitude vector of a canonical entangled state."""
    v = np.array(_AMPLITUDES[StateKind(kind)], dtype=complex)
    v /= np.linalg.norm(v)
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Recipe:
    """Input polarisations that generate a state kind on the balanced 3-port splitter.

    Feeding the three listed polarisations into ports 1..3 and post-selecting
    one photon per output port yields that kind's canonical state at exactly
    ``expected_probability``.
    """

    inputs: tuple[np.ndarray, np.ndarray, np.ndarray]
    expected_probability: Fraction

    def input_configuration(self) -> InputConfiguration:
        """Photons at ports 1..3 in the recipe's polarisations."""
        return InputConfiguration([(port, InternalState(pol)) for port, pol in zip((1, 2, 3), self.inputs)])


_H, _V = (1.0, 0.0), (0.0, 1.0)
_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)
#: input polarisations into ports 1..3 and success probability of each generated kind
_RECIPES = {
    StateKind.W: ((_H, _H, _V), Fraction(1, 9)),
    StateKind.GPRIME: ((_H, np.array([1.0, 1.0]) / _SQRT2, np.array([1.0, -1.0]) / _SQRT2), Fraction(1, 9)),
    # linear polarisations at 0 and +/- 60 degrees
    StateKind.GHZPRIME: ((_H, np.array([1.0, _SQRT3]) / 2.0, np.array([1.0, -_SQRT3]) / 2.0), Fraction(1, 12)),
}

#: kinds producible by a single-splitter recipe
GENERATED_KINDS = tuple(_RECIPES)

#: single-qubit unitaries up to the factor 1/sqrt(2), taking each primed state to its unprimed partner
_LOCAL_TRANSFORMS = {
    StateKind.GPRIME: ((1.0, 1.0), (1.0, -1.0)),
    StateKind.GHZPRIME: ((1.0, 1.0j), (1.0, -1.0j)),
}


def recipe(kind: StateKind) -> Recipe:
    """Input polarisations and success probability for a generated state kind."""
    kind = StateKind(kind)
    if kind not in _RECIPES:
        raise ValidationError(f"no recipe for state kind '{kind.value}'")
    pols, probability = _RECIPES[kind]
    return Recipe(tuple(np.array(pol, dtype=complex) for pol in pols), probability)


def local_transform(kind: StateKind) -> np.ndarray:
    """Single-qubit unitary mapping a primed state to its unprimed partner.

    Applied to every qubit it sends gprime -> g and ghzprime -> ghz up to a
    global phase.
    """
    kind = StateKind(kind)
    if kind not in _LOCAL_TRANSFORMS:
        raise ValidationError(f"no local transform for state kind '{kind.value}'")
    m = np.array(_LOCAL_TRANSFORMS[kind], dtype=complex) / _SQRT2
    m.setflags(write=False)
    return m


def fidelity(rho: np.ndarray, target: np.ndarray) -> float:
    """Overlap <psi| rho |psi> of a density matrix with a pure target."""
    rho = as_complex_matrix(rho, "rho")
    target = np.asarray(target, dtype=complex).reshape(-1)
    if rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"rho must be square, got shape {rho.shape}")
    if rho.shape[0] != target.size:
        raise ValidationError(f"dimension mismatch: rho is {rho.shape[0]}, target is {target.size}")
    return float(np.real(np.vdot(target, rho @ target)))


def purity(rho: np.ndarray) -> float:
    """trace(rho^2)."""
    rho = as_complex_matrix(rho, "rho")
    if rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"rho must be square, got shape {rho.shape}")
    return float(np.real(np.trace(rho @ rho)))


@dataclass(frozen=True)
class WitnessReport:
    """Witness values and strict-threshold verdicts for a 3-qubit state.

    ``fidelity_w`` and ``overlap_ghzprime`` feed the three verdicts, all
    linear in rho so white noise can only push them towards 1/8 (every
    threshold sits above that).
    """

    fidelity_w: float
    overlap_ghzprime: float
    w_witness_pass: bool
    genuine_tripartite_pass: bool
    ghz_class_pass: bool


def witness_report(rho: np.ndarray) -> WitnessReport:
    """Evaluate the three entanglement witnesses on a 3-qubit density matrix alone.

    Verdicts: the W-type fidelity witness passes iff F_W > 2/3; genuine
    tripartite entanglement passes iff either that holds or the overlap with
    the canonical ghzprime state exceeds 1/2; membership outside the W class
    passes iff that overlap exceeds 3/4.
    """
    rho = as_complex_matrix(rho, "rho")
    if rho.shape != (8, 8):
        raise ValidationError(f"witness_report needs a 3-qubit density matrix, got shape {rho.shape}")
    check_density_matrix(rho, name="rho")

    def _clip(x: float) -> float:
        return min(max(x, 0.0), 1.0)

    f_w = _clip(fidelity(rho, canonical_state(StateKind.W)))
    ov = _clip(fidelity(rho, canonical_state(StateKind.GHZPRIME)))
    w_pass = f_w > W_FIDELITY_THRESHOLD
    return WitnessReport(
        fidelity_w=f_w,
        overlap_ghzprime=ov,
        w_witness_pass=w_pass,
        genuine_tripartite_pass=w_pass or ov > GENUINE_OVERLAP_THRESHOLD,
        ghz_class_pass=ov > GHZ_CLASS_THRESHOLD,
    )


def apply_local_unitary(state: np.ndarray, single_qubit: np.ndarray) -> np.ndarray:
    """Apply the same single-qubit unitary to every qubit of a state vector."""
    v = np.asarray(state, dtype=complex).reshape(-1)
    n = int(np.log2(v.size))
    if 2**n != v.size:
        raise ValidationError(f"state dimension {v.size} is not a power of 2")
    u = as_complex_matrix(single_qubit, "single-qubit unitary")
    if u.shape != (2, 2):
        raise ValidationError(f"single-qubit unitary must be 2x2, got {u.shape}")
    full = u
    for _ in range(n - 1):
        full = np.kron(full, u)
    return full @ v


def state_overlap(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| between two pure states (global-phase free)."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.size != b.size:
        raise ValidationError(f"dimension mismatch: {a.size} vs {b.size}")
    return float(abs(np.vdot(a, b)))
