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


#: kinds producible by a single-splitter recipe
GENERATED_KINDS = (StateKind.W, StateKind.GPRIME, StateKind.GHZPRIME)

_SQRT3 = np.sqrt(3.0)


def canonical_state(kind: StateKind) -> np.ndarray:
    """Exact amplitude vector of a canonical entangled state."""
    kind = StateKind(kind)
    if kind is StateKind.W:
        v = np.zeros(8, dtype=complex)
        v[[1, 2, 4]] = 1.0 / _SQRT3
    elif kind is StateKind.WBAR:
        v = np.zeros(8, dtype=complex)
        v[[3, 5, 6]] = 1.0 / _SQRT3
    elif kind is StateKind.GHZ:
        v = np.zeros(8, dtype=complex)
        v[[0, 7]] = 1.0 / np.sqrt(2.0)
    elif kind is StateKind.G:
        v = np.zeros(8, dtype=complex)
        v[[1, 2, 3, 4, 5, 6]] = 1.0 / np.sqrt(6.0)
    elif kind is StateKind.GPRIME:
        v = np.zeros(8, dtype=complex)
        v[0] = 3.0
        v[[3, 5, 6]] = -1.0
        v /= 2.0 * _SQRT3
    elif kind is StateKind.GHZPRIME:
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        v[[3, 5, 6]] = -1.0
        v /= 2.0
    elif kind is StateKind.BELL_SINGLET:
        v = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    else:  # pragma: no cover - closed enum
        raise ValidationError(f"unknown state kind {kind!r}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Recipe:
    """Input polarisations that generate ``kind`` on the balanced 3-port splitter.

    Feeding the three listed polarisations into ports 1..3 and post-selecting
    one photon per output port yields the canonical state at exactly
    ``expected_probability``.
    """

    kind: StateKind
    inputs: tuple[np.ndarray, np.ndarray, np.ndarray]
    expected_probability: Fraction

    def input_configuration(self) -> InputConfiguration:
        """Photons at ports 1..3 in the recipe's polarisations."""
        return InputConfiguration([(port, InternalState(pol)) for port, pol in zip((1, 2, 3), self.inputs)])


def recipe(kind: StateKind) -> Recipe:
    """Input polarisations and success probability for a generated state kind."""
    kind = StateKind(kind)
    h = np.array([1.0, 0.0], dtype=complex)
    if kind is StateKind.W:
        v = np.array([0.0, 1.0], dtype=complex)
        return Recipe(kind, (h, h, v), Fraction(1, 9))
    if kind is StateKind.GPRIME:
        diag = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        anti = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
        return Recipe(kind, (h, diag, anti), Fraction(1, 9))
    if kind is StateKind.GHZPRIME:
        # linear polarisations at 0 and +/- 60 degrees
        plus = np.array([1.0, _SQRT3], dtype=complex) / 2.0
        minus = np.array([1.0, -_SQRT3], dtype=complex) / 2.0
        return Recipe(kind, (h, plus, minus), Fraction(1, 12))
    raise ValidationError(f"no recipe for state kind '{kind.value}'")


def local_transform(kind: StateKind) -> np.ndarray:
    """Single-qubit unitary mapping a primed state to its unprimed partner.

    Applied to every qubit it sends gprime -> g and ghzprime -> ghz up to a
    global phase.
    """
    kind = StateKind(kind)
    if kind is StateKind.GPRIME:
        m = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    elif kind is StateKind.GHZPRIME:
        m = np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / np.sqrt(2.0)
    else:
        raise ValidationError(f"no local transform for state kind '{kind.value}'")
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

    ``fidelity`` is the overlap with the claimed target; ``fidelity_w`` and
    ``overlap_ghzprime`` feed the three verdicts, all linear in rho so white
    noise can only push them towards 1/8 (every threshold sits above that).
    """

    kind: StateKind
    fidelity: float
    fidelity_w: float
    overlap_ghzprime: float
    w_witness_pass: bool
    genuine_tripartite_pass: bool
    ghz_class_pass: bool


def witness_report(rho: np.ndarray, claimed: StateKind) -> WitnessReport:
    """Evaluate the three entanglement witnesses against a claimed target.

    Verdicts: the W-type fidelity witness passes iff F_W > 2/3; genuine
    tripartite entanglement passes iff either that holds or the overlap with
    the canonical ghzprime state exceeds 1/2; membership outside the W class
    passes iff that overlap exceeds 3/4.
    """
    claimed = StateKind(claimed)
    if claimed is StateKind.BELL_SINGLET:
        raise ValidationError("witness thresholds are defined for 3-qubit states only")
    rho = as_complex_matrix(rho, "rho")
    if rho.shape != (8, 8):
        raise ValidationError(f"witness_report needs a 3-qubit density matrix, got shape {rho.shape}")
    check_density_matrix(rho, name="rho")

    def _clip(x: float) -> float:
        return min(max(x, 0.0), 1.0)

    f_claimed = _clip(fidelity(rho, canonical_state(claimed)))
    f_w = _clip(fidelity(rho, canonical_state(StateKind.W)))
    ov = _clip(fidelity(rho, canonical_state(StateKind.GHZPRIME)))
    w_pass = f_w > W_FIDELITY_THRESHOLD
    return WitnessReport(
        kind=claimed,
        fidelity=f_claimed,
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
