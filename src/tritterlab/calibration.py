"""Splitter characterization from classical intensities and two-photon dips.

Covers magnitude reconstruction of the transfer matrix from measured
splitting ratios (alternating row/column rescaling to a doubly stochastic
power matrix), insertion loss, simulated coincidence-dip scans against a
delay-dependent spectral overlap, and Gaussian dip fitting.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .interference import Interferometer, fourier_unitary, pair_coincidence_probability
from .validation import POISSON_MAX, ConvergenceError, ValidationError, csv_cells

SINKHORN_TOL = 1e-9
SINKHORN_MAX_ITER = 10_000
#: trial steps of the dip fit before it counts as not converged
_DIP_MAX_STEPS = 500


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class IntensityTable:
    """Measured power fractions: entry (k, j) is percent of input-k power at output j."""

    fractions: np.ndarray
    loss_db: np.ndarray | None = None

    def __post_init__(self):
        frac = np.array(self.fractions, dtype=float)
        if frac.ndim != 2 or frac.shape[0] != frac.shape[1] or frac.size == 0:
            raise ValidationError(f"intensity table must be square, got shape {frac.shape}")
        if not np.all(np.isfinite(frac)):
            raise ValidationError("intensity table contains non-finite entries")
        if (frac < 0).any():
            raise ValidationError("intensity table entries must be non-negative")
        sums = frac.sum(axis=1)
        if (sums > 100.0 + 1e-9).any():
            raise ValidationError(f"row power sums exceed 100%: {sums.tolist()}")
        frac.setflags(write=False)
        object.__setattr__(self, "fractions", frac)
        if self.loss_db is not None:
            loss = np.array(self.loss_db, dtype=float).reshape(-1)
            if loss.size != len(frac):
                raise ValidationError(
                    f"insertion-loss column must have {len(frac)} entries, got {loss.size}"
                )
            loss.setflags(write=False)
            object.__setattr__(self, "loss_db", loss)

    @classmethod
    def from_csv(cls, path) -> "IntensityTable":
        """Read n rows of n or n + 1 comma-separated columns; a first row with no numeric cell is a header."""
        path = Path(path)
        rows: list[list[float]] = []
        for i, (lineno, cells) in enumerate(csv_cells(path)):
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                if i == 0 and not any(map(_is_number, cells)):
                    continue  # header row
                raise ValidationError(f"{path.name}: line {lineno}: non-numeric cell in {cells}")
            # float() also reads 3_3 as 33 and takes non-ASCII digits
            if not all(c.isascii() and "_" not in c for c in cells):
                raise ValidationError(f"{path.name}: line {lineno}: cells must be plain ASCII numbers, got {cells}")
        if not rows:
            raise ValidationError(f"{path.name}: no data rows")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ValidationError(f"{path.name}: inconsistent column counts {sorted(widths)}")
        n, width = len(rows), widths.pop()
        if width not in (n, n + 1):
            raise ValidationError(
                f"{path.name}: {n} data rows of {width} columns; a table needs {width} data rows,"
                f" or {width - 1} data rows and an insertion-loss column"
            )
        arr = np.array(rows, dtype=float)
        return cls(arr[:, :n], arr[:, n] if width > n else None)


def sinkhorn_magnitudes(
    table: IntensityTable, tol: float = SINKHORN_TOL, max_iter: int = SINKHORN_MAX_ITER
) -> np.ndarray:
    """Transfer-matrix magnitudes from the splitting ratios of a checked table.

    The row-normalized power matrix (losses drop out) is rescaled alternately
    along rows and columns until doubly stochastic within ``tol``; the
    element-wise square root is returned, so a perfectly balanced device
    yields all entries 1/sqrt(n).
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if int(max_iter) < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    frac = table.fractions
    if (frac <= 0).any():
        raise ValidationError("cannot scale: ratio matrix has a non-positive entry")
    s = frac / frac.sum(axis=1, keepdims=True)
    residual = math.inf
    for _ in range(int(max_iter)):
        s = s / s.sum(axis=1, keepdims=True)
        s = s / s.sum(axis=0, keepdims=True)
        residual = max(
            float(np.abs(s.sum(axis=1) - 1.0).max()),
            float(np.abs(s.sum(axis=0) - 1.0).max()),
        )
        if residual < tol:
            return np.sqrt(s)
    raise ConvergenceError(
        f"row/column rescaling did not reach tol {tol:.1e} in {max_iter} sweeps"
        f" (residual {residual:.3e})",
        residual=residual,
    )


def insertion_loss_db(row: Sequence[float]) -> float:
    """-10 log10 of the total transmitted power fraction; inf flags a dead input."""
    arr = np.asarray(row, dtype=float).reshape(-1)
    if (arr < 0).any():
        raise ValidationError("intensity fractions must be non-negative")
    total = float(arr.sum()) / 100.0
    if total == 0.0:
        return math.inf
    return -10.0 * math.log10(total)


def visibility(n_max: float, n_min: float) -> float:
    """Dip visibility (N_max - N_min) / N_max."""
    if n_max <= 0:
        raise ValidationError("undefined visibility: n_max must be positive")
    if not 0 <= n_min <= n_max:
        raise ValidationError(f"need 0 <= n_min <= n_max, got n_min={n_min}, n_max={n_max}")
    return (n_max - n_min) / n_max


@dataclass(frozen=True)
class DipScan:
    """Coincidence counts versus relative delay, plus scan metadata."""

    delays: np.ndarray
    counts: np.ndarray
    floor_rate: float | None = None
    ceiling_rate: float | None = None

    def __post_init__(self):
        delays = np.array(self.delays, dtype=float).reshape(-1)
        counts = np.array(self.counts, dtype=float).reshape(-1)
        if delays.size == 0:
            raise ValidationError("empty delay grid")
        if delays.size != counts.size:
            raise ValidationError(f"{delays.size} delays but {counts.size} count values")
        if not (np.isfinite(delays).all() and np.isfinite(counts).all()):
            raise ValidationError("delays and counts must be finite")
        if not np.all(np.diff(delays) > 0):
            raise ValidationError("delays must be strictly increasing")
        if (counts < 0).any():
            raise ValidationError("counts must be non-negative")
        delays.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "counts", counts)

    def to_csv(self, path) -> None:
        with Path(path).open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delay", "counts"])
            for d, c in zip(self.delays, self.counts):
                writer.writerow([repr(float(d)), repr(float(c))])


def hom_scan(
    u: Interferometer,
    pair: tuple[int, int],
    outs: tuple[int, int],
    delays: Sequence[float],
    coherence: float,
    rate: float,
    seed: int,
    peak_overlap: float = 1.0,
    poisson: bool = True,
) -> DipScan:
    """Simulate a two-photon coincidence dip over a delay grid.

    The spectral overlap at delay d is ``peak_overlap * exp(-d^2 / (2 coherence^2))``
    and counts are drawn Poissonian around rate * probability (seeded, so the
    scan is reproducible); ``poisson=False`` returns the expected counts.
    """
    if not 0 < coherence < np.inf:
        raise ValidationError(f"coherence scale must be positive and finite, got {coherence}")
    if not 0 < rate < np.inf:
        raise ValidationError(f"count rate must be positive and finite, got {rate}")
    if not 0.0 <= peak_overlap <= 1.0:
        raise ValidationError(f"peak overlap {peak_overlap} outside [0, 1]")
    delays = np.array(delays, dtype=float).reshape(-1)
    if delays.size == 0 or not np.isfinite(delays).all():
        raise ValidationError("delay grid must be non-empty and finite")
    # the coincidence probability is affine in |overlap|^2, so its two ends give every delay
    ceiling = rate * pair_coincidence_probability(u, pair, outs, 0.0)
    slope = rate * pair_coincidence_probability(u, pair, outs, 1.0) - ceiling
    overlaps_sq = peak_overlap**2 * np.exp(-(delays**2) / coherence**2)
    expected = ceiling + slope * overlaps_sq
    if poisson:
        if expected.max() > POISSON_MAX:
            raise ValidationError(f"expected counts above {POISSON_MAX:.4e} exceed numpy's Poisson sampler")
        rng = np.random.default_rng(seed)
        counts = rng.poisson(expected).astype(float)
    else:
        counts = expected
    floor = ceiling + slope * peak_overlap**2
    return DipScan(delays, counts, floor_rate=floor, ceiling_rate=ceiling)


@dataclass(frozen=True)
class GaussianFit:
    """Least-squares fit of offset - amplitude * exp(-(d - center)^2 / (2 width^2))."""

    amplitude: float
    center: float
    width: float
    offset: float
    residual_norm: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValidationError(f"fitted width must be positive, got {self.width}")
        if self.offset < 0:
            raise ValidationError(f"fitted offset must be non-negative, got {self.offset}")

    @property
    def visibility(self) -> float:
        return self.amplitude / self.offset


def fit_gaussian(scan: DipScan) -> GaussianFit:
    """Fit an inverted Gaussian to a dip scan, initialized from moments.

    Levenberg-Marquardt (Marquardt, J. SIAM 11, 431 (1963)) on the analytic Jacobian, damped by the
    largest diagonal of ``J^T J`` seen so far times a factor that follows each step's gain ratio
    (Nielsen, IMM-REP-1999-05); a step may shrink the width at most tenfold. Stops once a step lowers
    the squared residual by at most 1e-10 of itself, or once no resolvable step lowers it. Raises once a
    step takes the width below a fifth of the smallest delay spacing or above the span: no dip resolved.
    """
    x, y = scan.delays, scan.counts
    if x.size < 5:
        raise ValidationError(f"need at least 5 points spanning the dip, got {x.size}")
    if float(np.ptp(y)) == 0.0:
        raise ConvergenceError("degenerate scan: counts have zero variance")

    offset0 = float(y.max())
    amp0 = float(y.max() - y.min())
    center0 = float(x[int(np.argmin(y))])
    half_depth = offset0 - amp0 / 2.0
    below = x[y <= half_depth]
    if below.size >= 2 and float(below.max() - below.min()) > 0:
        # half-width at half depth -> Gaussian sigma
        width0 = float(below.max() - below.min()) / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    else:
        width0 = float(x.max() - x.min()) / 4.0

    def evaluate(params):
        """Model minus counts, its squared norm, the Gaussian ``g`` and ``t = (x - center) / width``."""
        t = (x - params[1]) / params[2]
        g = np.exp(-0.5 * t * t)
        residual = params[3] - params[0] * g - y
        return residual, float(residual @ residual), g, t

    narrowest, span = float(np.diff(x).min()) / 5.0, float(x[-1] - x[0])
    params = np.array([amp0, center0, width0, offset0])
    fit = evaluate(params)
    jac = np.ones((4, x.size))  # row k: d(model)/d(params[k]); the offset's row stays 1
    scale = np.zeros(4)
    damping, growth, accepted = 1e-3, 2.0, True
    for _ in range(_DIP_MAX_STEPS):
        if accepted:
            residual, cost, g, t = fit
            jac[0] = -g
            jac[1] = (-params[0] / params[2]) * g * t
            jac[2] = jac[1] * t
            normal, gradient = jac @ jac.T, jac @ residual
            scale = np.maximum(scale, normal.diagonal())
        damped = damping * scale
        step = np.linalg.solve(normal + np.diag(damped), -gradient)
        trial = params + step
        trial_fit = evaluate(trial) if trial[2] > params[2] / 10.0 else None
        accepted = trial_fit is not None and trial_fit[1] < cost
        if accepted:
            decrease = cost - trial_fit[1]
            # actual over predicted decrease (above 1 acts as 1); the floor keeps the solve nonsingular
            gain = min(decrease / float(step @ (damped * step - gradient)), 1.0)
            damping, growth = max(damping * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 1e-7), 2.0
            params, fit = trial, trial_fit
            if not narrowest <= params[2] <= span:
                raise ConvergenceError(f"dip width {params[2]:.3g} is outside the scan's resolved range "
                                       f"[{narrowest:.3g}, {span:.3g}]", residual=math.sqrt(fit[1]))
            if decrease <= 1e-10 * cost:
                break
        else:
            damping, growth = damping * growth, 2.0 * growth
            if damping > 1e12:
                break
    else:
        raise ConvergenceError(f"dip fit did not converge in {_DIP_MAX_STEPS} steps", residual=math.sqrt(fit[1]))
    amplitude, center, width, offset = (float(v) for v in params)
    residual = math.sqrt(fit[1])
    if offset <= 0:
        raise ConvergenceError(f"unphysical fit: offset {offset:.3g}, width {width:.3g}", residual=residual)
    return GaussianFit(amplitude, center, width, offset, residual)


def interferometer_from_magnitudes(magnitudes) -> tuple[Interferometer, float]:
    """Unitary closest to measured magnitudes dressed with balanced-splitter phases.

    The measured magnitude matrix fixes |U| only; the canonical discrete
    Fourier phases are attached and the result is projected to the nearest
    unitary (polar decomposition). Returns the interferometer and the largest
    element-wise adjustment the projection applied.
    """
    mag = np.array(magnitudes, dtype=float)
    if mag.ndim != 2 or mag.shape[0] != mag.shape[1]:
        raise ValidationError(f"magnitude matrix must be square, got shape {mag.shape}")
    if (mag < 0).any():
        raise ValidationError("magnitudes must be non-negative")
    phases = np.exp(1j * np.angle(fourier_unitary(mag.shape[0]).matrix))
    raw = mag * phases
    left, _, right = np.linalg.svd(raw)
    unitary = left @ right
    adjustment = float(np.abs(raw - unitary).max())
    return Interferometer(unitary), adjustment
