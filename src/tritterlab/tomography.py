"""Projective Pauli-basis tomography: simulation, likelihood reconstruction, errors.

One cached Born matrix per qubit count serves both sampling and fitting.
Counts are multinomial draws from each setting's probabilities rounded to a
2^-40 grid summing to exactly 1, so the last bits of rho change no count.
Density matrices are reconstructed by projected gradient on the negative
log-likelihood (Shang, Zhang & Ng, PRA 95, 062336 (2017)): every iterate is
a density matrix, the log-likelihood never decreases, and the fit stops on a
certified bound on its log-likelihood shortfall from the optimum (Glancy,
Knill & Girard, New J. Phys. 14, 095017 (2012)).
Estimates on the boundary of the state space (rank below the dimension)
make projected gradient crawl, so once its rank holds and the gap falls
slowly the fit takes Newton steps on the states of that rank, and falls
back to projected gradient when one fails. A projected step that rounding
rejects hands over to Newton on the current rank too, so a fit that stalls
above the certificate's resolution still tries it. A fit that accepts no
step for 20 iterations in a row ends unconverged.
The certificate does not depend on the start, so resample fits start from
the main estimate. p is linear in rho, so each accepted step adds the
step's probabilities to the current ones.
Uncertainties are propagated by Poisson resampling of the observed counts;
resamples whose fit does not converge are counted and left out.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .validation import POISSON_MAX, ConvergenceError, ValidationError, as_complex_matrix, check_density_matrix, csv_cells

#: certified log-likelihood shortfall at which the reconstruction stops
MLE_TOL = 1e-2
MLE_MAX_ITER = 10_000
#: hard bound on the qubit count: the Born matrix has 3^n * 8^n complex entries
#: (5.3 MB at 4 qubits, 127 MB at 5)
TOMOGRAPHY_MAX_QUBITS = 4
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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"qubit count must be a positive integer, got {n!r}")
    if n > TOMOGRAPHY_MAX_QUBITS:
        raise ValidationError(f"qubit count {n} exceeds bound {TOMOGRAPHY_MAX_QUBITS}")
    return list(itertools.product("XYZ", repeat=int(n)))


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


def _born_rows(rho: np.ndarray) -> np.ndarray:
    """Outcome probabilities of every setting for n-qubit ``rho``, one row each in ``measurement_settings`` order."""
    rho = as_complex_matrix(rho, "rho")
    n = len(rho).bit_length() - 1
    if rho.shape != (2**n, 2**n):
        raise ValidationError(f"rho must be 2^n x 2^n, got {rho.shape}")
    return (_born_matrix(n) @ rho.ravel()).real


def born_probabilities(rho: np.ndarray, setting: Setting) -> np.ndarray:
    """Outcome probabilities for one measurement setting; sums to 1 within 1e-10."""
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
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["setting", "outcome", "count"])
            for setting, row in zip(measurement_settings(n), self.counts):
                for outcome, value in enumerate(row):
                    writer.writerow(["".join(setting), format(outcome, f"0{n}b"), int(value)])

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
    """Multinomial outcome counts of every setting; reproducible for a given seed.

    Each setting's probabilities are rounded to multiples of 2^-40 with the
    residual on the largest, so rows sum to exactly 1 and the sampler is exact.
    """
    if int(shots) < 1:
        raise ValidationError("shots must be positive")
    p = np.clip(_born_rows(rho), 0.0, None)
    p = np.round(p / p.sum(axis=1, keepdims=True) * _GRID) / _GRID
    p[np.arange(len(p)), p.argmax(axis=1)] += 1.0 - p.sum(axis=1)
    counts = np.random.default_rng(seed).multinomial(int(shots), p)
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
    shifts = (np.cumsum(top) - 1.0) / np.arange(1, vals.size + 1)
    kept = np.count_nonzero(top > shifts)  # the condition holds on a prefix
    lam = np.maximum(vals - shifts[kept - 1], 0.0)
    return (vecs * lam) @ vecs.conj().T, int(kept)


@functools.cache
def _tangent_pairs(dim: int, rank: int) -> np.ndarray:
    """Read-only rows ``(a, b)``, ``a < b`` and ``a < rank``: the off-diagonal tangent directions, in order."""
    pairs = np.array([(a, b) for a, b in itertools.combinations(range(dim), 2) if a < rank])
    pairs.setflags(write=False)
    return pairs


def _tangent_step(x: np.ndarray, dim: int, rank: int) -> np.ndarray:
    """Factor ``Z`` (zero below row ``rank``) of direction ``Z + Z^H`` at coordinates ``x``, ordered as in
    ``_tangent_jacobian``: (re, im) per ``_tangent_pairs`` entry, then the traceless diagonal."""
    above, diagonal = x[:x.size - rank + 1], x[x.size - rank + 1:]
    step = np.zeros((dim, dim), dtype=complex)
    step[tuple(_tangent_pairs(dim, rank).T)] = above.view(complex)
    step[np.diag_indices(rank)] = np.concatenate((diagonal, [-diagonal.sum()])) / 2.0  # the Hermitian sum doubles it
    return step


def _kernel_curvature(kernel: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Hessian of ``tr(K Y^H S^-1 Y)`` in tangent coordinates: the real 2x2 form of ``2 K^T / s_a`` on row ``a`` of ``Y``."""
    rank, width = len(support), 2 * len(kernel)
    rows = np.flatnonzero(np.repeat(_tangent_pairs(rank + len(kernel), rank)[:, 1] >= rank, 2)).reshape(rank, width)
    real_form = (kernel.T[:, None, :, None] * np.array([[1, 1j], [-1j, 1]])[:, None]).real.reshape(width, width)
    curvature = np.zeros((rank**2 - 1 + rank * width,) * 2)
    curvature[rows[:, :, None], rows[:, None, :]] = (2.0 / support)[:, None, None] * real_form
    return curvature


def _tangent_jacobian(vectors: np.ndarray, frame: np.ndarray, rank: int) -> np.ndarray:
    """Column ``i``: the Born rows of ``vectors`` applied to ``frame @ (Z + Z^H) @ frame^H``, ``Z = _tangent_step(e_i)``.

    With ``u = frame^H v``: ``2 Re(conj(u_a) u_b)`` and ``-2 Im(conj(u_a) u_b)`` per pair,
    ``|u_a|^2 - |u_(rank-1)|^2`` per diagonal direction.
    """
    u = vectors @ frame.conj()
    first, second = _tangent_pairs(len(frame), rank).T
    # 2 u_a conj(u_b) read as floats interleaves the real and imaginary columns of each pair
    pair = 2.0 * u.take(first, axis=1) * u.take(second, axis=1).conj()
    weight = u[:, :rank].real ** 2 + u[:, :rank].imag ** 2
    return np.hstack([pair.view(float), weight[:, :-1] - weight[:, -1:]])


def _checked_start(start, dim: int) -> np.ndarray:
    """``start`` as a complex array after checking that it is a dim x dim density matrix."""
    start = as_complex_matrix(start, "start")
    if start.shape != (dim, dim):
        raise ValidationError(f"start must be {dim}x{dim}, got {start.shape}")
    check_density_matrix(start, name="start")
    return start


def reconstruct_mle(
    counts: CountsTable, tol: float = MLE_TOL, max_iter: int = MLE_MAX_ITER, start=None
) -> ReconstructionResult:
    """Maximum-likelihood density matrix from a complete Pauli counts table.

    Minimises the negative log-likelihood per count by projected gradient
    with backtracking from ``0.99 * start + 0.01 * I/d``, ``start`` a density
    matrix (default I/d). Each step moves along ``R`` from the current
    estimate, projects onto the density matrices by an eigendecomposition
    with the eigenvalues projected onto the unit simplex, and is kept only if
    it does not lower the log-likelihood. Once the projection has kept one
    rank for 3 accepted steps that each left over half the gap, or once a
    projected step is rejected, the fit tries Newton steps on the states of
    that rank (see ``newton``) instead. The hand-over on a rejected step lets
    fits that stall above the certificate's resolution, as some random rank-2
    two-qubit states do at gaps of 1e-6 to 1e-5 (10k shots), reach ``tol=1e-6``.

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
    n = counts.n_qubits
    dim = 2**n
    empty = np.flatnonzero((counts.counts == 0).all(axis=1))  # an int64 row sum can wrap to 0
    if empty.size:
        settings = measurement_settings(n)
        names = ["".join(settings[i]) for i in empty[:5]]
        raise ValidationError(f"every setting needs a recorded count; {empty.size} have none: {names}")
    mixed = np.eye(dim, dtype=complex) / dim
    start = mixed if start is None else _checked_start(start, dim)

    # only observed outcomes enter the likelihood; the shared Born matrix is read, not copied
    flat_counts = counts.counts.reshape(-1).astype(float)
    observed = flat_counts > 0
    born = _born_matrix(n).reshape(-1, dim * dim)
    vectors = _outcome_vectors(n).reshape(-1, dim)[observed]
    flat_counts = flat_counts[observed]
    total = float(flat_counts.sum())
    weights = flat_counts / total
    scattered = np.zeros(len(born))  # weights / p at the observed outcomes, 0 elsewhere

    def probabilities(rho: np.ndarray) -> np.ndarray:
        return (born @ rho.ravel()).real[observed]

    def r_operator(p: np.ndarray) -> np.ndarray:
        """Minus the gradient of the objective at a state with probabilities ``p``."""
        scattered[observed] = weights / p
        return (scattered @ born).conj().reshape(dim, dim)

    def change(p_from: np.ndarray, step: np.ndarray) -> tuple[float, np.ndarray]:
        """Objective change ``f(rho + step) - f(rho)`` for ``p_from = p(rho)``, tr(rho) = 1.

        The objective ``f = -sum_k w_k log(p_k / tr rho)`` is the negative
        log-likelihood per count on unit-trace states. Its scale invariance
        keeps the ~1e-16 trace error of a projected state out of the change,
        and evaluating the change from the step itself keeps its relative
        precision near the optimum, where it falls to ~1e-17 of ``f``. Either
        loss makes the descent stall at a gap near 1e-2 on 10k-shot counts.
        Also returns ``p(step)``.
        """
        p_step = probabilities(step)
        ratio = p_step / p_from
        if (ratio <= -1.0).any():
            return np.inf, p_step
        return float(np.log1p(np.trace(step).real) - weights @ np.log1p(ratio)), p_step

    def shortfall(r: np.ndarray) -> float:
        return float(total * (np.linalg.eigvalsh(r)[-1] - 1.0))

    def newton(rho: np.ndarray, p: np.ndarray, r: np.ndarray, rank: int, gap: float):
        """Newton step on the rank-``rank`` states through ``rho``, or None if none lowers the gap.

        In the eigenframe ``[V, V_perp]`` of ``rho = V S V^H`` a tangent
        direction ``Z + Z^H`` has a factor ``Z = [[X/2, Y], [0, 0]]``, ``X`` traceless.
        The step of scale ``s`` moves the factor ``[S^1/2; 0]`` of ``rho`` by ``s W^H``,
        ``W = S^-1/2 Z``, to the state ``rho + s (Z + Z^H) + s^2 W^H W`` over its trace:
        positive semidefinite of rank at most ``rank`` for every ``s`` (Burer & Monteiro,
        Math. Program. 95, 329 (2003)). The quadratic model of ``f`` has gradient
        ``tr((I - R) D)``, Hessian ``G^T G``, ``G = diag(sqrt(w) / p) J`` for the tangent
        probabilities ``J`` from the outcome vectors in the eigenframe, plus the retraction's
        kernel curvature ``tr(K Y^H S^-1 Y)``, ``K = (I - R)_kernel``, in closed form. Tries the
        full, half and quarter step; returns (rho, p, r, gap, change) of the first that keeps
        the log-likelihood and lowers the gap.
        """
        vals, frame = np.linalg.eigh(rho)
        frame, support = frame[:, ::-1], vals[::-1][:rank]
        jacobian = _tangent_jacobian(vectors, frame, rank)
        kernel = np.eye(dim - rank) - (frame.conj().T @ r @ frame)[rank:, rank:]
        scaled = jacobian * (np.sqrt(weights) / p)[:, None]
        hessian = scaled.T @ scaled + _kernel_curvature(kernel, support)
        try:
            factor = _tangent_step(np.linalg.solve(hessian, (weights / p) @ jacobian), dim, rank)
        except np.linalg.LinAlgError:
            return None
        whitened = factor[:rank] / np.sqrt(support)[:, None]
        direction, grown = factor + factor.conj().T, whitened.conj().T @ whitened
        for scale in (1.0, 0.5, 0.25):
            step = scale * direction + scale**2 * grown
            added = np.trace(step).real
            # the retracted state over its trace minus diag(S, 0), formed without cancellation
            step[np.diag_indices(rank)] -= added * support
            step = frame @ (step / (1.0 + added)) @ frame.conj().T
            step = (step + step.conj().T) / 2.0
            descent, p_step = change(p, step)
            if descent <= 0.0:
                p_moved = p + p_step
                r_moved = r_operator(p_moved)
                gap_moved = shortfall(r_moved)
                if gap_moved < gap:
                    return rho + step, p_moved, r_moved, gap_moved, descent
        return None

    # from the maximally mixed start this is I/d exactly in float for d = 2, 4, 8, 16
    rho = 0.99 * start + 0.01 * mixed
    p = probabilities(rho)
    r = r_operator(p)
    gap = shortfall(r)
    # the initial log-likelihood plus each accepted change: never decreases
    log_likelihood = float(flat_counts @ np.log(p))
    step = 1.0
    iterations = 0
    rank, steady = dim, 0  # accepted steps in a row that kept the rank and over half the gap
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
            model = np.vdot(dz, dz).real / (2.0 * step) - np.vdot(r, dz).real + np.trace(dz).real
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
            r = r_operator(p)
            gap, previous_gap = shortfall(r), gap
            steady = steady + 1 if kept == rank and gap > previous_gap / 2.0 else 0
            rank = kept
            idle = 0
        else:
            idle += 1  # rho, and so r and gap, stay as they are
            steady = _STEADY_STEPS  # try Newton on the current rank next
        step *= 1.5

    rho = (rho + rho.conj().T) / 2
    rho /= np.real(np.trace(rho))
    rho.setflags(write=False)
    return ReconstructionResult(
        rho=rho,
        log_likelihood=log_likelihood,
        iterations=iterations,
        converged=bool(gap <= tol),
        gap=max(gap, 0.0),  # N * (lambda_max(R) - 1) can round below 0 at N * 2^-52
        rank=rank,
    )


@dataclass(frozen=True)
class MonteCarloResult:
    """Sample statistics of a state functional under Poisson count resampling.

    ``values`` holds converged resamples only and is declared ``repr=False``,
    which keeps it out of reports; ``failures`` counts resamples
    whose reconstruction raised and ``unconverged`` those that stopped short
    of the likelihood tolerance. ``iterations`` (total), ``iterations_max``
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
    values: tuple[float, ...] = field(repr=False, default=())


def monte_carlo_uncertainty(
    counts: CountsTable,
    resamples: int,
    functional: Callable[[np.ndarray], float],
    seed,
    start=None,
) -> MonteCarloResult:
    """Poisson-resample counts, re-reconstruct, and evaluate a functional.

    Resample ``i`` draws every outcome count Poissonian around the observed
    value with the ``i``-th generator of ``np.random.default_rng(seed).spawn``,
    re-runs the likelihood reconstruction from ``start`` at its default
    tolerance and iteration limit (see ``reconstruct_mle``) and applies
    ``functional`` to the estimate. Failed fits (``ValidationError``, as when a
    setting drew no count, or ``LinAlgError``) and unconverged ones are counted
    and excluded; fewer than two converged resamples raise ``ConvergenceError``.
    """
    if int(resamples) < 2:
        raise ValidationError("resamples must be at least 2")
    if counts.counts.max() > POISSON_MAX:
        raise ValidationError(f"counts above {POISSON_MAX:.4e} exceed numpy's Poisson sampler")
    if start is not None:  # a bad start is the caller's error, not a failed resample
        start = _checked_start(start, 2**counts.n_qubits)
    values: list[float] = []
    failures = 0
    unconverged = 0
    iterations: list[int] = []
    gaps: list[float] = []
    for rng in np.random.default_rng(seed).spawn(int(resamples)):
        try:
            result = reconstruct_mle(CountsTable(rng.poisson(counts.counts)), start=start)
            iterations.append(result.iterations)
            gaps.append(result.gap)
            if not result.converged:
                unconverged += 1
                continue
            values.append(float(functional(result.rho)))
        except (ValidationError, np.linalg.LinAlgError):
            failures += 1
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
        values=tuple(values),
    )
