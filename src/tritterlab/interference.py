"""Multi-photon interference through spatial-mode unitaries.

Each photon occupies one input port and carries an internal state: a
polarisation qubit tensored with a spectral-mode vector in an orthonormal
auxiliary basis of dimension D. The interferometer mixes the spatial ports
and leaves the internal modes untouched.

Every amplitude comes from one first-quantised symmetrisation kernel. Send
p photons to p output slots (output ports, repeats allowed): photon j
reaching slot k carries the vector ``U[in_j, out_k] * (pol_j (x) spec_j)``
over the 2D internal modes, and the output amplitude tensor is the sum over
photon-to-slot assignments of the tensor product of these vectors (Tichy,
PRA 91, 022316 (2015)). The kernel evaluates that sum with Glynn's formula
(Eur. J. Combin. 31, 1887 (2010)) over the 2^(p-1) sign vectors, in a
working array of 2^(p-1) * (2D)^p complex entries; a permanent is the case
of one internal mode. Post-selected states and output-port probabilities
are read off the tensor, and tracing over the unobserved spectral labels is
what turns partial distinguishability into decoherence.

Conventions: ports are 1-based; ``matrix[k-1, j-1]`` is the amplitude from
input port k to output port j; polarisation index 0 is H and 1 is V.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .validation import (
    ValidationError,
    as_complex_matrix,
    check_gram,
    check_unitary,
)

UNITARITY_TOL = 1e-10
STATE_NORM_TOL = 1e-12

#: hard bound on permanent dimension and photon number so desk-scale runs
#: stay sub-second and the kernel's working array stays small
PERMANENT_MAX_DIM = 12

#: squared-amplitude totals below this are reported as zero-probability events
_ZERO_PROBABILITY = 1e-24


def _symmetrized(v: np.ndarray) -> np.ndarray:
    """Sum over permutations s of the tensor products (x)_k v[s(k), k], flattened.

    ``v`` has shape (p, p, m); the result has length m**p with slot 0 most
    significant. Glynn's formula: with sign vectors d in {+1, -1}^p, d_0 = +1,
    the sum is 2^-(p-1) sum_d (prod_i d_i) (x)_k (sum_i d_i v[i, k]), because
    averaging prod_i d_i prod_k d_(i_k) over the signs keeps exactly the index
    tuples (i_k) that are permutations.
    """
    p, _, m = v.shape
    bits = (np.arange(1 << (p - 1))[:, None] >> np.arange(p - 1)) & 1
    signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    sums = np.einsum("bi,ikm->bkm", signs, v)
    out = sums[:, 0]
    for k in range(1, p):
        out = (out[:, :, None] * sums[:, k, None, :]).reshape(len(signs), -1)
    return signs.prod(axis=1) @ out / (1 << (p - 1))


def permanent(m) -> complex:
    """Permanent of a square complex matrix.

    The symmetrisation kernel with one internal mode: Glynn's formula over
    the 2^(n-1) sign vectors, exact up to floating rounding. Dimensions
    above ``PERMANENT_MAX_DIM`` are rejected.
    """
    m = as_complex_matrix(m, "permanent argument")
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"permanent requires a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n > PERMANENT_MAX_DIM:
        raise ValidationError(f"permanent dimension {n} exceeds bound {PERMANENT_MAX_DIM}")
    if n == 0:
        return complex(1.0)
    return complex(_symmetrized(m[:, :, None])[0])


@dataclass(frozen=True)
class Interferometer:
    """Spatial-mode unitary; row = input port, column = output port."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix, "interferometer matrix")
        check_unitary(m, UNITARITY_TOL, "interferometer matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fourier_unitary(n: int) -> Interferometer:
    """Balanced n-port splitter: entry (k, j) = exp(2 pi i (k-1)(j-1) / n) / sqrt(n)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"invalid dimension {n!r}: port count must be a positive integer")
    k = np.arange(n)
    phases = np.exp(2j * np.pi * np.outer(k, k) / n)
    return Interferometer(phases / np.sqrt(n))


@dataclass(frozen=True)
class InternalState:
    """Single-photon internal state: polarisation qubit (x) spectral vector.

    Both factors must be normalized to within 1e-12. The spectral vector
    lives in an orthonormal auxiliary basis of dimension D >= 1 and carries
    any partial distinguishability between photons.
    """

    pol: np.ndarray
    spectral: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pol = np.array(self.pol, dtype=complex).reshape(-1)
        if pol.size != 2:
            raise ValidationError(f"polarisation must have 2 amplitudes, got {pol.size}")
        spectral = self.spectral
        spectral = np.array([1.0] if spectral is None else spectral, dtype=complex).reshape(-1)
        if spectral.size < 1:
            raise ValidationError("spectral vector must have dimension >= 1")
        for name, v in (("polarisation", pol), ("spectral vector", spectral)):
            norm = float(np.linalg.norm(v))
            if abs(norm - 1.0) > STATE_NORM_TOL:
                raise ValidationError(f"{name} is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        pol.setflags(write=False)
        spectral.setflags(write=False)
        object.__setattr__(self, "pol", pol)
        object.__setattr__(self, "spectral", spectral)

    @property
    def spectral_dim(self) -> int:
        return self.spectral.size


@dataclass(frozen=True)
class InputConfiguration:
    """One photon per listed input port; ports are distinct and 1-based."""

    photons: tuple

    def __init__(self, photons: Sequence[tuple[int, InternalState]]):
        entries = []
        if not photons:
            raise ValidationError("need at least one photon")
        for port, state in photons:
            port = int(port)
            if port < 1:
                raise ValidationError(f"input port {port} out of range: ports are 1-based")
            if not isinstance(state, InternalState):
                raise ValidationError("each photon needs an InternalState")
            entries.append((port, state))
        ports = [p for p, _ in entries]
        if len(set(ports)) != len(ports):
            raise ValidationError(f"duplicate input ports {ports}: at most one photon per port")
        dims = {s.spectral_dim for _, s in entries}
        if len(dims) > 1:
            raise ValidationError(f"photons have mismatched spectral dimensions {sorted(dims)}")
        object.__setattr__(self, "photons", tuple(entries))

    @property
    def ports(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.photons)

    @property
    def states(self) -> tuple[InternalState, ...]:
        return tuple(s for _, s in self.photons)

    @property
    def spectral_dim(self) -> int:
        return self.photons[0][1].spectral_dim

    def __len__(self) -> int:
        return len(self.photons)


@dataclass(frozen=True)
class PostSelectionResult:
    """Polarisation density matrix of coincident photons plus the event probability.

    ``rho`` is None when the selected pattern has zero probability, in which
    case the post-selected state is undefined (flagged rather than raised, so
    parameter scans can cross zeros).
    """

    rho: np.ndarray | None
    probability: float
    ports: tuple[int, ...]

    @property
    def state_defined(self) -> bool:
        return self.rho is not None


def _check_config(config: InputConfiguration, n: int) -> None:
    bad = [p for p in config.ports if p > n]
    if bad:
        raise ValidationError(f"input ports {bad} exceed interferometer dimension {n}")
    if len(config) > PERMANENT_MAX_DIM:
        raise ValidationError(f"{len(config)} photons exceed bound {PERMANENT_MAX_DIM}")


def _amplitudes(u: Interferometer, config: InputConfiguration, outs: Sequence[int]) -> np.ndarray:
    """Amplitude tensor for one photon in each slot of ``outs`` (1-based, may repeat).

    Flattened slot-major, each slot indexed by (polarisation, spectral label),
    so its length is (2D)**p.
    """
    rows = np.array(config.ports) - 1
    cols = np.array(outs) - 1
    internal = np.stack([np.kron(s.pol, s.spectral) for s in config.states])
    v = u.matrix[np.ix_(rows, cols)][:, :, None] * internal[:, None, :]
    return _symmetrized(v)


def output_distribution(
    u: Interferometer, config: InputConfiguration
) -> dict[tuple[int, ...], float]:
    """Probability of every output-port occupation pattern.

    For each multiset of output ports the kernel gives the amplitude tensor A
    over the internal modes of the ordered slots, in a working array of
    2^(p-1) * (2D)^p entries; the pattern's probability is
    ||A||^2 / prod_j n_j!, which marginalizes over the internal modes. The
    returned map covers every port pattern of the right photon number and
    sums to 1 within 1e-9. More than ``PERMANENT_MAX_DIM`` photons are
    rejected.
    """
    n = u.dim
    _check_config(config, n)
    ports = range(1, n + 1)
    result: dict[tuple[int, ...], float] = {}
    for outs in itertools.combinations_with_replacement(ports, len(config)):
        counts = tuple(outs.count(j) for j in ports)
        amps = _amplitudes(u, config, outs)
        weight = float(np.vdot(amps, amps).real)
        result[counts] = weight / math.prod(math.factorial(c) for c in counts)
    return result


def postselect_coincidence(
    u: Interferometer, config: InputConfiguration, pattern: Sequence[int]
) -> PostSelectionResult:
    """Polarisation state conditioned on a collision-free coincidence pattern.

    ``pattern`` gives the photon count per output port and must place exactly
    one photon in as many ports as there are input photons (bunched patterns
    are not supported here; their probabilities are available through
    ``output_distribution``). Qubits are ordered by increasing output port.
    The kernel's amplitude tensor, reshaped to a (2^p x D^p) matrix of
    polarisation by spectral patterns, gives the unnormalized state
    ``A A^dagger`` with the spectral labels traced out; its working array has
    2^(p-1) * (2D)^p entries. More than ``PERMANENT_MAX_DIM`` photons are
    rejected.
    """
    n = u.dim
    _check_config(config, n)
    pattern = tuple(int(c) for c in pattern)
    if len(pattern) != n:
        raise ValidationError(f"pattern length {len(pattern)} != port count {n}")
    if any(c < 0 for c in pattern):
        raise ValidationError("pattern counts must be non-negative")
    if any(c > 1 for c in pattern):
        raise ValidationError(f"unsupported pattern {pattern}: bunched outputs (count > 1)")
    p = len(config)
    if sum(pattern) != p:
        raise ValidationError(
            f"pattern {pattern} marks {sum(pattern)} ports for {p} photons; need exactly one each"
        )
    outs = tuple(j + 1 for j, c in enumerate(pattern) if c == 1)

    d = config.spectral_dim
    amps = _amplitudes(u, config, outs).reshape((2, d) * p)
    amps = amps.transpose(np.r_[0 : 2 * p : 2, 1 : 2 * p : 2]).reshape(2**p, d**p)

    rho = amps @ amps.conj().T
    prob = float(np.real(np.trace(rho)))
    if prob < _ZERO_PROBABILITY:
        return PostSelectionResult(rho=None, probability=0.0, ports=outs)
    rho = (rho + rho.conj().T) / (2.0 * prob)
    rho.setflags(write=False)
    return PostSelectionResult(rho=rho, probability=prob, ports=outs)


def pair_coincidence_probability(
    u: Interferometer,
    ports: tuple[int, int],
    outs: tuple[int, int],
    overlap: complex,
) -> float:
    """Two-photon coincidence probability for a given spectral overlap.

    The photons share the same polarisation and have spectral vectors with
    inner product ``overlap``. With the two assignment amplitudes
    a = U[j, x] U[k, y] and b = U[j, y] U[k, x] the probability is
    |a|^2 + |b|^2 + 2 Re(a conj(b)) |overlap|^2, affine in |overlap|^2; for
    the balanced 3-port splitter it is (2 - |overlap|^2) / 9 for any input
    pair and any output pair.
    """
    overlap = complex(overlap)
    if abs(overlap) > 1.0 + 1e-12:
        raise ValidationError(f"invalid overlap: magnitude {abs(overlap):.6f} exceeds 1")
    j, k = int(ports[0]), int(ports[1])
    x, y = int(outs[0]), int(outs[1])
    if j == k:
        raise ValidationError("input ports must be distinct")
    if x == y:
        raise ValidationError("output ports must be distinct")
    if not (1 <= j <= u.dim and 1 <= k <= u.dim):
        raise ValidationError(f"input ports {(j, k)} out of range 1..{u.dim}")
    if not (1 <= x <= u.dim and 1 <= y <= u.dim):
        raise ValidationError(f"output ports {(x, y)} exceed interferometer dimension {u.dim}")
    m = u.matrix
    a = m[j - 1, x - 1] * m[k - 1, y - 1]
    b = m[j - 1, y - 1] * m[k - 1, x - 1]
    return float(abs(a) ** 2 + abs(b) ** 2 + 2.0 * (a * b.conjugate()).real * abs(overlap) ** 2)


def spectral_vectors_from_gram(gram, tol: float = 1e-9) -> list[np.ndarray]:
    """Unit spectral vectors realizing a given pairwise-overlap Gram matrix.

    The Gram matrix must be Hermitian, positive semidefinite and have a unit
    diagonal; vector i reproduces <v_i|v_j> = gram[i, j] up to the validation
    tolerance. The vectors live in a basis of dimension = number of photons.
    """
    g = as_complex_matrix(gram, "gram")
    check_gram(g, tol, "gram")
    w, v = np.linalg.eigh((g + g.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    factors = np.sqrt(w)[None, :] * v.conj()  # row i is photon i's vector
    out = []
    for row in factors:
        out.append(row / np.linalg.norm(row))
    return out


def matrix_to_pairs(m: np.ndarray) -> list:
    """Serialize a complex matrix as nested JSON-ready [re, im] pairs."""
    arr = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_pairs(data) -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs`."""
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise ValidationError(f"malformed complex-matrix payload: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError("malformed complex-matrix payload: ragged rows")
    return np.array(rows, dtype=complex)
