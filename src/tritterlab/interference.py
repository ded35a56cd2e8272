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
(Eur. J. Combin. 31, 1887 (2010)): the table of its 2^(p-1) sign vectors is
built once per photon number p, the photons' signed sums are one matrix
product with it, and the tensor products over the first floor(p/2) and the
last ceil(p/2) slots, per sign vector, are contracted over the sign vectors
in one matrix product, in a working array of
2^(p-1) * ((2D)^floor(p/2) + (2D)^ceil(p/2)) + (2D)^p complex entries per
slot list; a permanent is the case of one internal mode. The photons'
internal vectors are built once per kernel call, and the kernel takes a
batch of slot lists at once: ``output_distribution`` evaluates its patterns
in chunks whose working array stays within 2^16 complex entries (1 MiB),
unless a single pattern needs more. Post-selected states and output-port
probabilities are read off the tensor, and tracing over the unobserved
spectral labels is what turns partial distinguishability into decoherence.

Conventions: ports are 1-based; ``matrix[k-1, j-1]`` is the amplitude from
input port k to output port j; polarisation index 0 is H and 1 is V.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .validation import (ValidationError, as_complex_matrix, as_integer, as_number, check_gram, check_square,
                         check_unitary)

STATE_NORM_TOL = 1e-12

#: hard bound on permanent dimension and photon number so desk-scale runs
#: stay sub-second and the kernel's working array stays small
PERMANENT_MAX_DIM = 12

#: squared-amplitude totals below this are reported as zero-probability events
_ZERO_PROBABILITY = 1e-24

#: bound on one batched kernel call's working array in complex entries (1 MiB)
_KERNEL_ENTRIES = 1 << 16


@functools.cache
def _glynn_signs(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sign vectors d in {+1, -1}^p, d_0 = +1, one per row, and their weights prod(d) / 2^(p-1)."""
    bits = (np.arange(1 << (p - 1))[:, None] >> np.arange(p - 1)) & 1
    signs = np.hstack([np.ones((len(bits), 1)), 1.0 - 2.0 * bits])
    weights = (signs.prod(axis=1) / (1 << (p - 1)))[:, None]
    signs.setflags(write=False), weights.setflags(write=False)
    return signs, weights


def _symmetrized(v: np.ndarray) -> np.ndarray:
    """Sum over permutations s of the tensor products (x)_k v[..., s(k), k], flattened.

    ``v`` has shape (..., p, p, m), any leading axes being a batch; the result
    has shape (..., m**p) with slot 0 most significant. Glynn's formula: with
    sign vectors d in {+1, -1}^p, d_0 = +1, the sum is
    2^-(p-1) sum_d (prod_i d_i) (x)_k (sum_i d_i v[i, k]), because averaging
    prod_i d_i prod_k d_(i_k) over the signs keeps exactly the index tuples
    (i_k) that are permutations. The sums over i are one matrix product with
    the sign table, built once per p. Per sign vector, ``left`` is the weighted
    tensor product over slots k < p//2 and ``right`` the one over the rest, so
    the sum over d is one matrix product left^T @ right; the working array
    has 2^(p-1) * (m^(p//2) + m^(p - p//2)) entries plus the m^p result.
    """
    *batch, p, _, m = v.shape
    signs, weights = _glynn_signs(p)
    sums = (signs @ v.reshape(*batch, p, p * m)).reshape(*batch, len(signs), p, m)

    def tensor(out, slots):
        for k in slots:
            out = (out[..., :, None] * sums[..., k, None, :]).reshape(*batch, len(signs), -1)
        return out

    left = tensor(weights, range(p // 2))
    right = tensor(sums[..., p // 2, :], range(p // 2 + 1, p))
    return (left.swapaxes(-1, -2) @ right).reshape(*batch, -1)


def permanent(m) -> complex:
    """Permanent of a square complex matrix.

    The symmetrisation kernel with one internal mode: Glynn's formula over
    the 2^(n-1) sign vectors, exact up to floating rounding. Dimensions
    above ``PERMANENT_MAX_DIM`` are rejected.
    """
    m = as_complex_matrix(m, "permanent argument")
    check_square(m, "permanent argument")
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
        check_unitary(m, "interferometer matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def fourier_unitary(n: int) -> Interferometer:
    """Balanced n-port splitter: entry (k, j) = exp(2 pi i (k-1)(j-1) / n) / sqrt(n)."""
    if (n := as_integer(n, "port count")) < 1:
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
            if not abs(norm - 1.0) <= STATE_NORM_TOL:  # a NaN norm fails too
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
            port = as_integer(port, "input port")
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


def _internal(config: InputConfiguration) -> np.ndarray:
    """(p, 2D) array whose row j is photon j's pol (x) spectral vector."""
    pols = np.array([s.pol for s in config.states])
    specs = np.array([s.spectral for s in config.states])
    return (pols[:, :, None] * specs[:, None, :]).reshape(len(config), -1)


def _amplitudes(u: Interferometer, config: InputConfiguration, outs: Sequence) -> np.ndarray:
    """Amplitude tensors for one photon in each slot of ``outs`` (1-based, may repeat).

    ``outs`` has shape (p,) or (T, p); each tensor is flattened slot-major,
    each slot indexed by (polarisation, spectral label), so the result has
    shape (..., (2D)**p).
    """
    rows = np.array(config.ports)[:, None] - 1
    cols = np.asarray(outs)[..., None, :] - 1
    v = u.matrix[rows, cols][..., None] * _internal(config)[:, None, :]
    return _symmetrized(v)


def output_distribution(
    u: Interferometer, config: InputConfiguration
) -> dict[tuple[int, ...], float]:
    """Probability of every output-port occupation pattern.

    For each multiset of output ports the kernel gives the amplitude tensor A
    over the internal modes of the ordered slots; the pattern's probability
    is ||A||^2 / prod_j n_j!, which marginalizes over the internal modes.
    Patterns are evaluated in chunks, so that each kernel call's working
    array holds at most 2^16 complex entries (1 MiB); a pattern whose own
    2^(p-1) * ((2D)^floor(p/2) + (2D)^ceil(p/2)) + (2D)^p entries exceed
    that runs alone. The returned map covers
    every port pattern of the right photon number and sums to 1 within 1e-9.
    More than ``PERMANENT_MAX_DIM`` photons are rejected.
    """
    n = u.dim
    _check_config(config, n)
    p = len(config)
    ports = np.arange(1, n + 1)
    patterns = np.array(list(itertools.combinations_with_replacement(ports.tolist(), p)))
    factorials = np.array([math.factorial(c) for c in range(p + 1)])
    m = 2 * config.spectral_dim
    entries = (1 << (p - 1)) * (m ** (p // 2) + m ** (p - p // 2)) + m**p
    chunk = max(1, _KERNEL_ENTRIES // entries)
    result: dict[tuple[int, ...], float] = {}
    for start in range(0, len(patterns), chunk):
        outs = patterns[start : start + chunk]
        weights = (np.abs(_amplitudes(u, config, outs)) ** 2).sum(axis=1)
        counts = (outs[:, :, None] == ports).sum(axis=1)
        multiplicities = factorials[counts].prod(axis=1)
        for occupation, weight, multiplicity in zip(counts.tolist(), weights.tolist(), multiplicities.tolist()):
            result[tuple(occupation)] = weight / multiplicity
    return result


def postselect_coincidence(
    u: Interferometer, config: InputConfiguration, pattern: Sequence[int]
) -> PostSelectionResult:
    """Polarisation state conditioned on a collision-free coincidence pattern.

    ``pattern`` gives the photon count per output port and must place exactly
    one photon in as many ports as there are input photons (bunched patterns
    are not supported here; their probabilities are available through
    ``output_distribution``). Qubits are ordered by increasing output port.
    The kernel's amplitude tensor, reshaped to a (2^p x D^p) matrix A of
    polarisation by spectral patterns, gives the probability ||A||^2 and,
    scaled to unit norm, the state ``A A^dagger`` with the spectral labels
    traced out, formed in one product; at D = 1 the 4^p-entry state outgrows
    the kernel's working array. More than ``PERMANENT_MAX_DIM`` photons are
    rejected.
    """
    n = u.dim
    _check_config(config, n)
    pattern = tuple(as_integer(c, "pattern count") for c in pattern)
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
    amps = amps.transpose([*range(0, 2 * p, 2), *range(1, 2 * p, 2)]).reshape(2**p, d**p)

    prob = float(np.vdot(amps, amps).real)
    if prob < _ZERO_PROBABILITY:
        return PostSelectionResult(rho=None, probability=0.0, ports=outs)
    amps /= math.sqrt(prob)
    rho = amps @ amps.conj().T
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
    if not abs(overlap) <= 1.0 + 1e-12:  # a NaN overlap fails too
        raise ValidationError(f"invalid overlap {overlap}: magnitude must be at most 1")
    j, k = as_integer(ports[0], "input port"), as_integer(ports[1], "input port")
    x, y = as_integer(outs[0], "output port"), as_integer(outs[1], "output port")
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


def spectral_vectors_from_gram(gram) -> list[np.ndarray]:
    """Unit spectral vectors realizing a given pairwise-overlap Gram matrix.

    The Gram matrix must be Hermitian, positive semidefinite and have a unit
    diagonal within ``check_gram``'s tolerance of 1e-9; vector i reproduces
    <v_i|v_j> = gram[i, j] to that tolerance. The vectors live in a basis of
    dimension = number of photons.
    """
    g = as_complex_matrix(gram, "gram")
    check_gram(g)
    w, v = np.linalg.eigh((g + g.conj().T) / 2)
    # a zero eigenvalue comes out as rounding noise, whose root (~3e-9) would tell identical photons apart
    w = np.where(w > 1e-12, w, 0.0)
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
    """Inverse of :func:`matrix_to_pairs`: each entry is exactly two numbers, its real and imaginary parts."""
    try:
        rows = [[complex(as_number(real), as_number(imag)) for real, imag in row] for row in data]
    except (TypeError, ValueError) as exc:  # an entry that is no pair, or a ValidationError from as_number
        raise ValidationError(f"malformed complex-matrix payload: {exc}") from exc
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError("malformed complex-matrix payload: ragged rows")
    return np.array(rows, dtype=complex)
