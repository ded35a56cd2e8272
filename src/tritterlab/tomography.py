"""Projective Pauli-basis tomography: simulation, likelihood reconstruction, errors.

One cached Born matrix per qubit count serves both sampling and fitting.
Counts are multinomial draws from each setting's probabilities rounded to a
2^-40 grid summing to exactly 1, so the last bits of rho change no count.
Density matrices are reconstructed by projected gradient on the negative
log-likelihood (Shang, Zhang & Ng, PRA 95, 062336 (2017)), with Newton steps
on the states of fixed rank for estimates on the boundary of the state space:
every iterate is a density matrix, the log-likelihood never decreases, and
the fit stops on a certified bound on its log-likelihood shortfall from the
optimum (Glancy, Knill & Girard, New J. Phys. 14, 095017 (2012)), which
holds from any start: a fit starts from the linear-inversion estimate
projected onto the states (Smolin, Gambetta & Smith, PRL 108, 070502 (2012)).
Uncertainties are propagated by Poisson resampling of the observed counts.
A pass draws all its resample tables first and moves each from the main
estimate by one Newton step of the main fit's frozen model (a chord step;
Kelley, Solving Nonlinear Equations with Newton's Method, SIAM 2003), all at
once, and fits each from there, or from its own projected estimate if the
step fails. Resamples whose fit does not converge are counted and left out.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .validation import (POISSON_MAX, STATE_TOL, ConvergenceError, ValidationError, as_complex_matrix,
                         as_density_matrix, as_integer, csv_cells, write_csv)

#: certified log-likelihood shortfall at which the reconstruction stops
MLE_TOL = 1e-2
MLE_MAX_ITER = 10_000
#: hard bound on the qubit count: the Born matrix has 3^n * 8^n complex entries
#: (5.3 MB at 4 qubits, 127 MB at 5)
TOMOGRAPHY_MAX_QUBITS = 4
#: most resamples a pass takes: it draws every table at once, about 12 KiB each on 3-qubit counts (120 MiB in all)
MC_MAX_RESAMPLES = 10_000
#: most shots a setting takes: numpy's multinomial sampler takes at most 2^63 - 1 trials
MAX_SHOTS = int(np.iinfo(np.int64).max)
#: step halvings before a likelihood step counts as stalled
_MAX_HALVINGS = 60
#: iterations in a row that accept no step before a fit counts as stalled
_MAX_IDLE = 20
#: accepted steps that keep the rank and the gap above half before a Newton step
_STEADY_STEPS = 3
#: sampled probabilities are multiples of 1 / _GRID
_GRID = 2.0**40

_SQ2 = np.sqrt(2.0)
#: columns are the (+1, -1) eigenvectors of each Pauli basis
_BASIS = {
    "X": np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQ2,
    "Y": np.array([[1.0, 1.0], [1.0j, -1.0j]], dtype=complex) / _SQ2,
    "Z": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
}

Setting = tuple[str, ...]


def measurement_settings(n: int) -> list[Setting]:
    """All 3^n Pauli basis-label tuples in lexicographic order (XX..X first).

    Every tomography path starts here, so ``n`` above ``TOMOGRAPHY_MAX_QUBITS``
    is rejected before any Born or outcome-vector array is built.
    """
    if (n := as_integer(n, "qubit count")) < 1:
        raise ValidationError(f"qubit count must be a positive integer, got {n!r}")
    if n > TOMOGRAPHY_MAX_QUBITS:
        raise ValidationError(f"qubit count {n} exceeds bound {TOMOGRAPHY_MAX_QUBITS}")
    return list(itertools.product("XYZ", repeat=n))


@functools.cache
def _outcome_vectors(n: int) -> np.ndarray:
    """Read-only unit vectors ``v`` of shape (3^n, 2^n, 2^n), one per outcome of each setting.

    ``v[s, o]`` is the joint eigenvector of outcome ``o`` (bit 0 = +1 eigenstate)
    of setting ``s`` in ``measurement_settings`` order.
    """
    # row o of each transpose is basis column o; np.array stores them C-contiguous, so flat reshapes are views
    vectors = np.array([functools.reduce(np.kron, [_BASIS[label] for label in s]).T
                        for s in measurement_settings(n)])
    vectors.setflags(write=False)
    return vectors


@functools.cache
def _born_matrix(n: int) -> np.ndarray:
    """Read-only Born rule ``B`` of shape (3^n, 2^n, 4^n): ``p = (B @ rho.ravel()).real``.

    ``B[s, o]`` is ``conj(v_a) v_b`` over ``(a, b)`` for ``v = _outcome_vectors(n)[s, o]``.
    """
    vectors = _outcome_vectors(n)
    born = (vectors.conj()[..., :, None] * vectors[..., None, :]).reshape(3**n, 2**n, 4**n)
    born.setflags(write=False)
    return born


@functools.cache
def _inversion(n: int) -> np.ndarray:
    """Read-only pseudo-inverse of the flat Born matrix, shape (4^n, 6^n): like that matrix, the Kronecker power
    of its one-qubit form with each qubit's indices put back in place."""
    single = np.linalg.pinv(_born_matrix(1).reshape(6, 4)).reshape(2, 2, 3, 2)
    power = functools.reduce(np.multiply.outer, [single] * n)  # axes (a, b, setting, outcome) per qubit
    inverse = power.transpose(np.arange(4 * n).reshape(n, 4).T.ravel()).reshape(4**n, 6**n)
    inverse.setflags(write=False)
    return inverse


def _born_rows(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of every setting for n-qubit ``rho``, one row each in ``measurement_settings`` order."""
    rho = as_complex_matrix(rho, "rho")
    n = len(rho).bit_length() - 1
    if rho.shape != (2**n, 2**n):
        raise ValidationError(f"rho must be 2^n x 2^n, got {rho.shape}")
    return (_born_matrix(n) @ rho.ravel()).real


def born_probabilities(rho: np.ndarray, setting: Setting) -> np.ndarray:
    """Outcome probabilities for one measurement setting, linear in ``rho``: they sum to 1 within 1e-10 for a density
    matrix, and ``rho`` may be any 2^n x 2^n matrix, such as a Pauli operator."""
    setting = tuple(setting)
    settings = measurement_settings(len(setting))
    if setting not in settings:
        raise ValidationError(f"setting must be a tuple of Pauli labels X, Y, Z, got {setting!r}")
    rows = _born_rows(rho)
    if len(rows) != len(settings):
        raise ValidationError(f"dimension mismatch: setting implies {2 ** len(setting)}, rho is {np.shape(rho)}")
    return rows[settings.index(setting)]


@dataclass(frozen=True)
class CountsTable:
    """Non-negative outcome counts of shape (3^n, 2^n); row ``s`` is setting ``measurement_settings(n)[s]``."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":  # floats, NaN included, would truncate or wrap
            raise ValidationError(f"counts must be an integer array, got dtype {counts.dtype}")
        counts = counts.astype(np.int64)  # a copy; uint64 counts of 2^63 and more wrap below 0
        n = counts.shape[-1].bit_length() - 1 if counts.ndim == 2 else 0
        if n < 1 or counts.shape != (3**n, 2**n):
            raise ValidationError(f"counts must have shape (3^n, 2^n) for n >= 1 qubits, got {counts.shape}")
        if n > TOMOGRAPHY_MAX_QUBITS:
            raise ValidationError(f"qubit count {n} exceeds bound {TOMOGRAPHY_MAX_QUBITS}")
        if (counts < 0).any():
            raise ValidationError("counts must lie in [0, 2^63)")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_qubits(self) -> int:
        return self.counts.shape[1].bit_length() - 1

    def to_csv(self, path) -> None:
        n = self.n_qubits
        write_csv(path, [("setting", "outcome", "count")] + [
            ("".join(setting), format(outcome, f"0{n}b"), int(value))
            for setting, row in zip(measurement_settings(n), self.counts) for outcome, value in enumerate(row)])

    @classmethod
    def from_csv(cls, path) -> "CountsTable":
        """Rows in any order; a setting or outcome the file leaves out reads as 0."""
        path = Path(path)
        index: dict[str, int] = {}
        table: np.ndarray | None = None
        seen: set[tuple[int, int]] = set()
        for i, (lineno, cells) in enumerate(csv_cells(path)):
            if i == 0 and cells[0].lower() == "setting":
                continue
            if len(cells) != 3:
                raise ValidationError(f"{path.name}: line {lineno}: expected 3 columns")
            label, outcome, value = cells
            setting = label.upper()
            if any(ch not in _BASIS for ch in setting):
                raise ValidationError(f"{path.name}: line {lineno}: bad setting '{label}'")
            n = len(setting)
            if table is None:
                if n > TOMOGRAPHY_MAX_QUBITS:  # before the 6^n table is built
                    raise ValidationError(
                        f"{path.name}: line {lineno}: qubit count {n} exceeds bound {TOMOGRAPHY_MAX_QUBITS}")
                index = {"".join(s): i for i, s in enumerate(measurement_settings(n))}
                table = np.zeros((3**n, 2**n), dtype=np.int64)
            elif setting not in index:
                raise ValidationError(f"{path.name}: line {lineno}: inconsistent qubit count")
            if len(outcome) != n or set(outcome) - {"0", "1"}:
                raise ValidationError(f"{path.name}: line {lineno}: outcome '{outcome}' invalid")
            digits = value.lstrip("0") or "0"
            if not (value.isascii() and value.isdigit()) or len(digits) > 19 or int(digits) >= 2**63:
                raise ValidationError(f"{path.name}: line {lineno}: count '{value}' is not an integer in [0, 2^63)")
            cell = (index[setting], int(outcome, 2))
            if cell in seen:
                raise ValidationError(f"{path.name}: line {lineno}: repeats setting {label} outcome {outcome}")
            seen.add(cell)
            table[cell] = int(digits)
        if table is None:
            raise ValidationError(f"{path.name}: no count rows found")
        return cls(table)


def simulate_counts(rho: np.ndarray, shots: int, seed) -> CountsTable:
    """Multinomial outcome counts of every setting for density matrix ``rho``; reproducible for a given seed.

    Each setting's probabilities are rounded to multiples of 2^-40 with the
    residual on the largest, so rows sum to exactly 1 and the sampler is exact.
    """
    if not 1 <= (shots := as_integer(shots, "shots")) <= MAX_SHOTS:
        raise ValidationError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    rho = as_complex_matrix(rho, "rho")
    p = np.clip(_born_rows(as_density_matrix(rho, len(rho))), 0.0, None)
    p = np.round(p / p.sum(axis=1, keepdims=True) * _GRID) / _GRID
    p[np.arange(len(p)), p.argmax(axis=1)] += 1.0 - p.sum(axis=1)
    counts = np.random.default_rng(seed).multinomial(shots, p)
    return CountsTable(counts)


@dataclass(frozen=True)
class ReconstructionResult:
    """Likelihood-reconstructed density matrix with convergence diagnostics."""

    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    #: certified log-likelihood shortfall from the optimum at stop
    gap: float
    #: rank kept by the last projection or Newton step (the dimension if none was accepted)
    rank: int


def _project_to_states(m: np.ndarray) -> tuple[np.ndarray, int]:
    """Nearest density matrix to Hermitian ``m`` in Frobenius norm, and its rank.

    Keeps the eigenvectors and projects the eigenvalues onto the unit simplex.
    """
    vals, vecs = np.linalg.eigh(m)
    top = vals[::-1]
    shifts = (top.cumsum() - 1.0) / np.arange(1, vals.size + 1)
    kept = np.count_nonzero(top > shifts)  # the condition holds on a prefix
    lam = np.maximum(vals - shifts[kept - 1], 0.0)
    return (vecs * lam) @ vecs.conj().T, int(kept)


def _likelihood_setup(counts: CountsTable) -> tuple:
    """The likelihood set-up of ``counts``, which leaves out every outcome with no count: the mask of the others,
    their counts as floats, the total, the frequencies and the outcome vectors."""
    observed = counts.counts.reshape(-1) > 0
    flat = counts.counts.reshape(-1)[observed].astype(float)
    total = float(flat.sum())
    return observed, flat, total, flat / total, _outcome_vectors(counts.n_qubits).reshape(len(observed), -1)[observed]


def _projected_estimate(counts: CountsTable) -> np.ndarray:
    """The density matrix nearest the linear-inversion estimate of ``counts``, every setting with a count."""
    table, dim = counts.counts.astype(float), counts.counts.shape[1]
    m = (_inversion(counts.n_qubits) @ (table / table.sum(axis=1, keepdims=True)).ravel()).reshape(dim, dim)
    return _project_to_states((m + m.conj().T) / 2.0)[0]


@functools.cache
def _tangent_pairs(dim: int, rank: int) -> tuple[np.ndarray, ...]:
    """Read-only index of the tangent directions, in order: rows ``a`` and columns ``b`` of the off-diagonal ones,
    ``a < b`` and ``a < rank``, then rows and columns of the diagonal, ``a = b < rank``."""
    pairs = np.array([(a, b) for a, b in itertools.combinations(range(dim), 2) if a < rank])
    diagonal = np.arange(rank)
    pairs.setflags(write=False), diagonal.setflags(write=False)
    return (*pairs.T, diagonal, diagonal)


def _tangent_step(x: np.ndarray, dim: int, rank: int) -> np.ndarray:
    """Factor ``Z`` (zero below row ``rank``) of direction ``Z + Z^H`` at coordinates ``x`` (or each row of ``x``),
    ordered as in ``_tangent_jacobian``: (re, im) per ``_tangent_pairs`` pair, then the traceless diagonal."""
    above, diagonal = x[..., :x.shape[-1] - rank + 1], x[..., x.shape[-1] - rank + 1:]
    index = _tangent_pairs(dim, rank)
    step = np.zeros((*x.shape[:-1], dim, dim), dtype=complex)
    step[(..., *index[:2])] = above.view(complex)
    step[(..., *index[2:])] = np.concatenate((diagonal, -diagonal.sum(-1, keepdims=True)), -1) / 2.0  # Z + Z^H doubles
    return step


def _retractions(x: np.ndarray, frame: np.ndarray, support: np.ndarray, scales):
    """Yield ``rho' - rho`` for each scale ``s`` of the Newton step at coordinates ``x`` (a stack gives a stack):
    ``rho'`` is the state that the ``_face_model`` retraction of ``s`` times the step reaches from ``rho``."""
    dim, rank = len(frame), len(support)
    factor, diagonal, frame_h = _tangent_step(x, dim, rank), (..., *_tangent_pairs(dim, rank)[2:]), frame.conj().T
    whitened = factor[..., :rank, :] / np.sqrt(support)[:, None]
    direction, grown = factor + factor.conj().swapaxes(-1, -2), whitened.conj().swapaxes(-1, -2) @ whitened
    for scale in scales:
        step = scale * direction + scale**2 * grown
        added = step.trace(axis1=-2, axis2=-1).real
        # the retracted state over its trace minus diag(S, 0), formed without cancellation
        step[diagonal] -= added[..., None] * support
        step = frame @ (step / (1.0 + added)[..., None, None]) @ frame_h
        yield (step + step.conj().swapaxes(-1, -2)) / 2.0


def _probabilities(born: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``(born @ rho.ravel()).real`` for a matrix ``rho``, or for each of a stack of them."""
    return ((rho.ravel() if rho.ndim == 2 else rho.reshape(len(rho), -1)) @ born.T).real


def _r_and_gap(scattered: np.ndarray, born: np.ndarray, total, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Minus the objective's gradient, the dim x dim ``R = sum_k s_k Pi_k`` for ``s = w / p`` (0 where w = 0),
    and the certified log-likelihood shortfall ``N * (lambda_max(R) - 1)`` for ``N = total`` counts; or both per
    row of ``s``."""
    r = (scattered @ born).conj().reshape(scattered.shape[:-1] + (dim, dim))
    return r, total * (np.linalg.eigvalsh(r).T[-1] - 1.0)  # eigvalsh sorts each row ascending


def _change(weights, p_from: np.ndarray, p_step: np.ndarray, trace) -> np.ndarray:
    """Objective change ``f(rho + step) - f(rho)`` for ``p_from = p(rho)``, ``p_step = p(step)``, ``trace = tr(step)``
    and tr(rho) = 1, or per row of stacks of them; inf where a probability would fall to 0 or below.

    The objective ``f = -sum_k w_k log(p_k / tr rho)`` is the negative log-likelihood per count on unit-trace
    states. Its scale invariance keeps the ~1e-16 trace error of a projected state out of the change, and
    evaluating the change from the step itself keeps its relative precision near the optimum, where it falls to
    ~1e-17 of ``f``. Either loss makes the descent stall at a gap near 1e-2 on 10k-shot counts.
    """
    ratio = p_step / p_from
    if (ratio <= -1.0).any():  # kept from log1p, which warns below -1, and put in the trace
        outside = (ratio <= -1.0).any(axis=-1)
        ratio[outside], trace = 0.0, np.where(outside, np.inf, trace)
    logs = np.log1p(ratio)
    # a stack takes a (1 x m) @ (m x 1) product per row, which numpy rounds as the dot of two vectors
    return np.log1p(trace) - (weights @ logs if logs.ndim == 1 else (weights[:, None, :] @ logs[:, :, None])[:, 0, 0])


@functools.cache
def _curvature_layout(rank: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat Hessian index of each support row's ``Y`` coordinates, and the gather of their real form,
    ``[[Re k, -Im k], [Im k, Re k]]`` per kernel entry ``k``, from ``[Re K^T, -Im K^T, Im K^T]``."""
    rows = np.flatnonzero(np.repeat(_tangent_pairs(rank + size, rank)[1] >= rank, 2)).reshape(rank, 2 * size)
    index = rows[:, :, None] * (rank**2 - 1 + 2 * rank * size) + rows[:, None, :]
    gather = (np.arange(size**2).reshape(size, 1, size, 1) + size**2 * np.array([[0, 1], [2, 0]])[:, None])
    index.setflags(write=False), gather.setflags(write=False)
    return index, gather.reshape(2 * size, 2 * size)


def _kernel_curvature(kernel: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Hessian of ``tr(K Y^H S^-1 Y)`` in tangent coordinates: the real 2x2 form of ``2 K^T / s_a`` on row ``a`` of ``Y``."""
    index, gather = _curvature_layout(len(support), len(kernel))
    real_form = np.concatenate((kernel.real.T.ravel(), -kernel.imag.T.ravel(), kernel.imag.T.ravel()))[gather]
    curvature = np.zeros((len(support) ** 2 - 1 + len(support) * len(gather),) * 2)
    curvature.flat[index] = (2.0 / support)[:, None, None] * real_form
    return curvature


def _tangent_jacobian(vectors: np.ndarray, frame: np.ndarray, rank: int) -> np.ndarray:
    """Column ``i``: the Born rows of ``vectors`` applied to ``frame @ (Z + Z^H) @ frame^H``, ``Z = _tangent_step(e_i)``.

    With ``u = frame^H v``: ``2 Re(conj(u_a) u_b)`` and ``-2 Im(conj(u_a) u_b)`` per pair,
    ``|u_a|^2 - |u_(rank-1)|^2`` per diagonal direction.
    """
    u = vectors @ frame.conj()
    first, second = _tangent_pairs(len(frame), rank)[:2]
    # 2 u_a conj(u_b) read as floats interleaves the real and imaginary columns of each pair
    pair = 2.0 * u.take(first, axis=1) * u.take(second, axis=1).conj()
    weight = u[:, :rank].real ** 2 + u[:, :rank].imag ** 2
    return np.concatenate([pair.view(float), weight[:, :-1] - weight[:, -1:]], axis=1)


def _face_model(vals, frame, rank, vectors, weights, p, r) -> tuple[np.ndarray, ...]:
    """Eigenframe, support, tangent Jacobian on ``vectors`` and Hessian of the Newton model of the rank-``rank``
    states through the density matrix ``rho`` that ``np.linalg.eigh`` decomposed into ``vals`` and ``frame``, for
    outcome weights ``weights`` (``w``) at probabilities ``p`` and ``R`` operator ``r``.

    In the eigenframe ``[V, V_perp]`` of ``rho = V S V^H`` a tangent direction ``Z + Z^H`` has a factor
    ``Z = [[X/2, Y], [0, 0]]``, ``X`` traceless. The step of scale ``s`` moves the factor ``[S^1/2; 0]`` of
    ``rho`` by ``s W^H``, ``W = S^-1/2 Z``, to the state ``rho + s (Z + Z^H) + s^2 W^H W`` over its trace:
    positive semidefinite of rank at most ``rank`` for every ``s`` (Burer & Monteiro, Math. Program. 95, 329
    (2003)). The quadratic model of ``f`` has gradient ``tr((I - R) D)``, Hessian ``G^T G``,
    ``G = diag(sqrt(w) / p) J`` for the tangent probabilities ``J`` from the outcome vectors in the eigenframe,
    plus the retraction's kernel curvature ``tr(K Y^H S^-1 Y)``, ``K = (I - R)_kernel``, in closed form.
    """
    frame, support = frame[:, ::-1], vals[::-1][:rank]
    jacobian = _tangent_jacobian(vectors, frame, rank)
    kernel = np.eye(len(frame) - rank) - (frame.conj().T @ r @ frame)[rank:, rank:]
    scaled = jacobian * (np.sqrt(weights) / p)[:, None]
    return frame, support, jacobian, scaled.T @ scaled + _kernel_curvature(kernel, support)


class _Face(NamedTuple):
    """A checked start ``rho`` for one counts table's resample fits with its outcome probabilities, Born rows and
    ``_face_model`` at the table's observed outcomes, Hessian inverted."""

    rho: np.ndarray
    p: np.ndarray
    observed: np.ndarray  # the outcomes with a count: the rows of ``p``, ``born`` and ``jacobian``
    born: np.ndarray
    frame: np.ndarray
    support: np.ndarray
    jacobian: np.ndarray  # the tangent Jacobian over ``p``: a table's gradient is ``weights @ jacobian``
    inverse: np.ndarray


def _frozen_face(counts: CountsTable, rho: np.ndarray) -> _Face | None:
    """The ``_Face`` of density matrix ``rho`` at the ``_likelihood_setup`` of ``counts`` on its eigenvalues above
    ``STATE_TOL``, or None, as if no start was given, if an observed outcome has no probability, if the Hessian is
    singular, or if a support eigenvalue ``s_a`` lies within one standard error ``1 / z_a`` of zero, from the
    observed information along the line to the state without it: most resample estimates then lie off the face."""
    observed, flat, _, weights, vectors = _likelihood_setup(counts)  # a Poisson resample draws no other outcome
    born = _born_matrix(counts.n_qubits).reshape(-1, len(rho) ** 2)
    p = _probabilities(born, rho)[observed]
    vals, frame = np.linalg.eigh(rho)
    rank = int(np.count_nonzero(vals > STATE_TOL))
    support = vals[::-1][:rank]
    u2 = np.abs(vectors @ frame[:, ::-1][:, :rank].conj()) ** 2
    if not (p > 0.0).all():
        return None
    # z_a^2 (1 - s_a)^2 / s_a^2 = sum_k n_k (1 - |u_ka|^2 / p_k)^2, compared as products: s_a = 1 at rank 1
    if (support**2 * (flat @ (1.0 - u2 / p[:, None]) ** 2) < (1.0 - support) ** 2).any():
        return None
    born = born[observed]  # the rows that every resample fit reads
    model = _face_model(vals, frame, rank, vectors, weights, p, _r_and_gap(weights / p, born, 1.0, len(rho))[0])
    try:
        return _Face(rho, p, observed, born, *model[:2], model[2] / p[:, None], np.linalg.inv(model[3]))
    except np.linalg.LinAlgError:
        return None


def _finished(rho: np.ndarray) -> np.ndarray:
    """A fit's read-only estimate from its last state ``rho``, or each of a stack: the Hermitian part over its trace."""
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2
    rho /= rho.trace(axis1=-2, axis2=-1).real[..., None, None]
    rho.setflags(write=False)
    return rho


#: a resample fit's start after its accepted frozen step from the main estimate: the moved state, its probabilities
#: at the fit's observed outcomes, ``R``, certified gap and log-likelihood, the face's rank, and its ``_finished`` state
_Moved = NamedTuple("_Moved", [("rho", np.ndarray), ("p", np.ndarray), ("r", np.ndarray), ("gap", float),
                               ("log_likelihood", float), ("rank", int), ("finished", np.ndarray)])


def _frozen_steps(face: _Face, tables: np.ndarray) -> list:
    """Each fit's start for a stack of Poisson resamples of the face's counts, which draw no outcome outside the
    face's: after the full step of the face's model from the table's own gradient, taken for all at once over the
    face's outcomes (an undrawn one at weight 0, which leaves its probability unmoved and its ``w / p`` at 0), the
    ``_Moved`` state, finished as an estimate for all at once, if the step keeps the log-likelihood and lowers the
    gap, else None, the fit's default start (always for a table with an empty setting, which its fit rejects)."""
    starts = [None] * len(tables)
    drawn = np.flatnonzero((tables > 0).any(axis=-1).all(axis=-1))
    if not drawn.size:
        return starts
    weights = tables[drawn].reshape(len(drawn), -1)[:, face.observed].astype(float)
    totals = weights.sum(axis=1)
    weights /= totals[:, None]
    gap = _r_and_gap((weights / face.p).astype(complex), face.born, totals, len(face.rho))[1]
    step, = _retractions((weights @ face.jacobian) @ face.inverse.T, face.frame, face.support, (1.0,))
    p_step = _probabilities(face.born, step) * (weights > 0.0)  # an outcome not drawn has no weight and no test
    descent = _change(weights, face.p, p_step, step.trace(axis1=-2, axis2=-1).real)
    p_step[descent > 0.0] = 0.0  # a rejected step is not taken: every weighted probability stays positive
    p_moved = face.p + p_step
    r_moved, gap_moved = _r_and_gap((weights / p_moved).astype(complex), face.born, totals, len(face.rho))
    log_likelihood = totals * (weights @ np.log(face.p) - descent)
    accepted = np.flatnonzero((descent <= 0.0) & (gap_moved < gap))
    moved = face.rho + step[accepted]
    for k, rho, finished in zip(accepted, moved, _finished(moved)):
        starts[drawn[k]] = _Moved(rho, p_moved[k, weights[k] > 0.0], r_moved[k], float(gap_moved[k]),
                                  float(log_likelihood[k]), len(face.support), finished)
    return starts


def reconstruct_mle(
    counts: CountsTable, tol: float = MLE_TOL, max_iter: int = MLE_MAX_ITER, start=None
) -> ReconstructionResult:
    """Maximum-likelihood density matrix from a complete Pauli counts table.

    Minimises the negative log-likelihood per count by projected gradient
    with backtracking from ``0.99 * start + 0.01 * I/d``, ``start`` a density
    matrix (default: the linear-inversion estimate projected onto the density
    matrices, ``_projected_estimate``). Each step moves along ``R`` from the
    current estimate, projects onto the density matrices by an
    eigendecomposition with the eigenvalues projected onto the unit simplex,
    and is kept only if it does not lower the log-likelihood. Once the
    projection has kept one rank for 3 accepted steps that each left over half
    the gap, or once a projected step is rejected (some fits stall above the
    certificate's resolution otherwise), the fit tries Newton steps on the
    states of that rank (see ``_face_model``) instead. A resample fit of
    ``monte_carlo_uncertainty`` instead gets a private record of its state
    after one full Newton step of the model frozen at the main estimate (see
    ``_frozen_steps``; none if the step was rejected). That step counts as
    its first iteration; a gap within ``tol`` returns the record's finished
    state before any ``_likelihood_setup``, else Newton steps follow.

    Stops once ``N * (lambda_max(R) - 1) <= tol``, where ``N`` is the total
    count and ``R = sum_k (n_k / N) Pi_k / p_k`` (with equal counts per
    setting, ``sum_k (f_k / p_k) Pi_k / S`` for per-setting frequencies
    ``f_k`` and ``S`` settings). By concavity this bounds
    ``logL(rho_ml) - logL(rho)`` from above, so ``tol`` is in log-likelihood
    units. The estimate is positive semidefinite with unit trace by
    construction; ``converged`` is False if ``max_iter`` steps end above
    ``tol``, or if a step can no longer be resolved in floating point or
    20 iterations in a row accept none.
    """
    if isinstance(start, _Moved) and start.gap <= tol:  # settled by the frozen step: nothing to set up
        return ReconstructionResult(start.finished, start.log_likelihood, 1, True, max(start.gap, 0.0), start.rank)
    n, dim = counts.n_qubits, counts.counts.shape[1]
    observed, flat_counts, total, weights, vectors = _likelihood_setup(counts)
    empty = np.flatnonzero(~observed.reshape(-1, dim).any(axis=1))  # an int64 row sum can wrap to 0
    if empty.size:
        names = ["".join(measurement_settings(n)[i]) for i in empty[:5]]
        raise ValidationError(f"every setting needs a recorded count; {empty.size} have none: {names}")

    born = _born_matrix(n).reshape(-1, dim * dim)  # the shared Born matrix is read, not copied
    scattered = np.zeros(len(born))  # weights / p at the observed outcomes, 0 elsewhere

    def r_and_gap(p: np.ndarray) -> tuple[np.ndarray, float]:
        """Minus the gradient of the objective at a state with probabilities ``p``, and the certified gap there."""
        scattered[observed] = weights / p
        r, gap = _r_and_gap(scattered, born, total, dim)
        return r, float(gap)

    def change(p_from: np.ndarray, step: np.ndarray) -> tuple[float, np.ndarray]:
        """``_change`` of ``step`` from a state with probabilities ``p_from``, and ``p(step)``."""
        p_step = _probabilities(born, step)[observed]
        return float(_change(weights, p_from, p_step, step.trace().real)), p_step

    def newton(rho: np.ndarray, p: np.ndarray, r: np.ndarray, rank: int, gap: float):
        """(rho, p, r, gap, change) of the first of the full, half and quarter Newton step of the rank-``rank``
        ``_face_model`` at ``rho`` that keeps the log-likelihood and lowers the gap, or None."""
        frame, support, jacobian, hessian = _face_model(*np.linalg.eigh(rho), rank, vectors, weights, p, r)
        try:
            x = np.linalg.solve(hessian, (weights / p) @ jacobian)
        except np.linalg.LinAlgError:
            return None
        for step in _retractions(x, frame, support, (1.0, 0.5, 0.25)):
            descent, p_step = change(p, step)
            if descent <= 0.0:
                p_moved = p + p_step
                r_moved, gap_moved = r_and_gap(p_moved)
                if gap_moved < gap:
                    return rho + step, p_moved, r_moved, gap_moved, descent
        return None

    if isinstance(start, _Moved):  # the frozen step counts as an iteration and hands over to Newton on its face
        rho, p, r, gap, log_likelihood, rank, _ = start
        iterations, steady = 1, _STEADY_STEPS
    else:
        start = _projected_estimate(counts) if start is None else as_density_matrix(start, dim, "start")
        rho = 0.99 * start + 0.01 * np.eye(dim, dtype=complex) / dim
        p = _probabilities(born, rho)[observed]
        r, gap = r_and_gap(p)
        log_likelihood = float(flat_counts @ np.log(p))  # plus each accepted change: never decreases
        iterations, rank, steady = 0, dim, 0  # accepted steps in a row that kept the rank and over half the gap
    step = 1.0
    idle = 0  # iterations in a row that accepted no step
    while gap > tol and iterations < max_iter and idle < _MAX_IDLE:
        if steady >= _STEADY_STEPS:
            newton_step = newton(rho, p, r, rank, gap)
            if newton_step is not None:
                iterations += 1
                idle = 0
                rho, p, r, gap, descent = newton_step
                log_likelihood -= total * descent
                continue
            steady = 0
        for _ in range(_MAX_HALVINGS):
            z, kept = _project_to_states(rho + step * r)
            dz = z - rho
            model = np.vdot(dz, dz).real / (2.0 * step) - np.vdot(r, dz).real + dz.trace().real
            descent, p_dz = change(p, dz)
            if descent <= model:
                break
            step /= 2.0
        else:
            break  # no step resolvable in floating point: stalled
        iterations += 1
        if descent <= 0.0:
            rho, p = z, p + p_dz
            log_likelihood -= total * descent
            previous_gap, (r, gap) = gap, r_and_gap(p)
            steady = steady + 1 if kept == rank and gap > previous_gap / 2.0 else 0
            rank = kept
            idle = 0
        else:
            idle += 1  # rho, and so r and gap, stay as they are
            steady = _STEADY_STEPS  # try Newton on the current rank next
        step *= 1.5

    return ReconstructionResult(
        rho=_finished(rho),
        log_likelihood=log_likelihood,
        iterations=iterations,
        converged=bool(gap <= tol),
        gap=max(gap, 0.0),  # N * (lambda_max(R) - 1) can round below 0 at N * 2^-52
        rank=rank,
    )


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample statistics of a state functional under Poisson count resampling.

    ``mean`` and ``std`` run over converged resamples only; ``failures`` counts
    resamples whose reconstruction raised and ``unconverged`` those that stopped
    short of the likelihood tolerance. ``iterations`` (total), ``iterations_max``
    and ``gap_max`` (the largest certified gap) run over every
    reconstruction that returned, converged or not.
    """

    mean: float
    std: float
    failures: int
    unconverged: int
    iterations: int
    iterations_max: int
    gap_max: float


def _check_pass(counts: CountsTable, resamples: int) -> int:
    """The input rules of a resampling pass, which the CLI also checks before its main fit; gives ``resamples``."""
    if not 2 <= (resamples := as_integer(resamples, "resamples")) <= MC_MAX_RESAMPLES:
        raise ValidationError(f"resamples {resamples} lies outside [2, {MC_MAX_RESAMPLES}]")
    if counts.counts.max() > POISSON_MAX:
        raise ValidationError(f"counts above {POISSON_MAX:.4e} exceed numpy's Poisson sampler")
    return resamples


def monte_carlo_uncertainty(
    counts: CountsTable,
    resamples: int,
    functional: Callable[[np.ndarray], float],
    seed,
    start: _Face | None = None,
) -> MonteCarloResult:
    """Poisson-resample counts, re-reconstruct, and evaluate a functional.

    Resample ``i`` draws every outcome count Poissonian around the observed
    value with the ``i``-th generator of ``np.random.default_rng(seed).spawn``,
    re-runs the likelihood reconstruction at its default tolerance and
    iteration limit and applies ``functional`` to the estimate. ``start`` is
    the main estimate's Newton model at ``counts`` (``_frozen_face``; the CLI
    builds one for both its passes) or None: the pass draws every table, takes
    that model's step and finishes each moved state for all at once
    (``_frozen_steps``), and fits each from there; a fit whose step was
    rejected, or with no model, starts from its own projected estimate
    (``reconstruct_mle``'s default). Fits that fail (``ValidationError`` for a
    setting that drew no count, ``LinAlgError``) or do not converge are counted
    and excluded; fewer than two converged resamples raise ``ConvergenceError``.
    An error ``functional`` raises is the caller's.
    """
    resamples = _check_pass(counts, resamples)
    values: list[float] = []
    failures = unconverged = 0
    iterations: list[int] = []
    gaps: list[float] = []
    tables = np.array([rng.poisson(counts.counts) for rng in np.random.default_rng(seed).spawn(resamples)])
    for table, fit_start in zip(tables, [start] * len(tables) if start is None else _frozen_steps(start, tables)):
        try:
            result = reconstruct_mle(CountsTable(table), start=fit_start)
        except (ValidationError, np.linalg.LinAlgError):
            failures += 1
            continue
        iterations.append(result.iterations)
        gaps.append(result.gap)
        if not result.converged:
            unconverged += 1
            continue
        values.append(float(functional(result.rho)))
    if len(values) < 2:
        raise ConvergenceError(
            f"only {len(values)} of {resamples} resamples reconstructed to convergence "
            f"({failures} failed, {unconverged} unconverged)"
        )
    arr = np.array(values)
    return MonteCarloResult(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)),
        failures=failures,
        unconverged=unconverged,
        iterations=sum(iterations),
        iterations_max=max(iterations),
        gap_max=max(gaps),
    )
