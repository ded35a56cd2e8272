"""Splitter characterization from classical intensities and two-photon dips.

Covers magnitude reconstruction of the transfer matrix from measured
splitting ratios (alternating row/column rescaling to a doubly stochastic
power matrix), insertion loss, simulated coincidence-dip scans against a
delay-dependent spectral overlap, and Gaussian dip fitting.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .interference import Interferometer, fourier_unitary, pair_coincidence_probability
from .validation import ConvergenceError, ValidationError

SINKHORN_TOL = 1e-9
SINKHORN_MAX_ITER = 10_000


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
        """Read n rows of n or n + 1 comma-separated columns; a header row is optional."""
        path = Path(path)
        rows: list[list[float]] = []
        with path.open(newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                cells = [c.strip() for c in row if c.strip() != ""]
                if not cells:
                    continue
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    if lineno == 1 and not rows:
                        continue  # header row
                    raise ValidationError(f"{path.name}: line {lineno}: non-numeric cell in {cells}")
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
    table, tol: float = SINKHORN_TOL, max_iter: int = SINKHORN_MAX_ITER
) -> np.ndarray:
    """Transfer-matrix magnitudes from splitting ratios.

    The row-normalized power matrix (losses drop out) is rescaled alternately
    along rows and columns until doubly stochastic within ``tol``; the
    element-wise square root is returned, so a perfectly balanced device
    yields all entries 1/sqrt(n).
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    frac = table.fractions if isinstance(table, IntensityTable) else np.array(table, dtype=float)
    if frac.ndim != 2 or frac.shape[0] != frac.shape[1]:
        raise ValidationError(f"need a square ratio matrix, got shape {frac.shape}")
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

    @classmethod
    def from_csv(cls, path) -> "DipScan":
        path = Path(path)
        delays, counts = [], []
        with path.open(newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                cells = [c.strip() for c in row if c.strip() != ""]
                if not cells:
                    continue
                try:
                    d, c = float(cells[0]), float(cells[1])
                except (ValueError, IndexError):
                    if lineno == 1 and not delays:
                        continue  # header
                    raise ValidationError(f"{path.name}: line {lineno}: expected 'delay,counts'")
                delays.append(d)
                counts.append(c)
        return cls(np.array(delays), np.array(counts))


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
    if coherence <= 0:
        raise ValidationError("coherence scale must be positive")
    if rate <= 0:
        raise ValidationError("count rate must be positive")
    if not 0.0 <= peak_overlap <= 1.0:
        raise ValidationError(f"peak overlap {peak_overlap} outside [0, 1]")
    delays = np.array(delays, dtype=float).reshape(-1)
    if delays.size == 0:
        raise ValidationError("empty delay grid")
    # the coincidence probability is affine in |overlap|^2, so its two ends give every delay
    ceiling = rate * pair_coincidence_probability(u, pair, outs, 0.0)
    slope = rate * pair_coincidence_probability(u, pair, outs, 1.0) - ceiling
    overlaps_sq = peak_overlap**2 * np.exp(-(delays**2) / coherence**2)
    expected = ceiling + slope * overlaps_sq
    if poisson:
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

    def to_json_dict(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "center": self.center,
            "width": self.width,
            "offset": self.offset,
            "residual_norm": self.residual_norm,
            "visibility": self.visibility,
        }


def _dip_model(x, amplitude, center, width, offset):
    return offset - amplitude * np.exp(-((x - center) ** 2) / (2.0 * width**2))


def fit_gaussian(scan: DipScan) -> GaussianFit:
    """Fit an inverted Gaussian to a dip scan, initialized from moments."""
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
    try:
        with warnings.catch_warnings():
            # noiseless scans fit exactly, making the (unused) covariance singular
            warnings.simplefilter("ignore", OptimizeWarning)
            params, _ = curve_fit(
                _dip_model, x, y, p0=[amp0, center0, width0, offset0], maxfev=20_000
            )
    except RuntimeError as exc:
        raise ConvergenceError(f"dip fit did not converge: {exc}") from exc
    amplitude, center, width, offset = (float(v) for v in params)
    width = abs(width)
    residual = float(np.linalg.norm(_dip_model(x, amplitude, center, width, offset) - y))
    if offset <= 0 or width == 0.0:
        raise ConvergenceError(
            f"unphysical fit: offset {offset:.3g}, width {width:.3g}", residual=residual
        )
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
