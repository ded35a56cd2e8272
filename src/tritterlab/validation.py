"""Error hierarchy, validation helpers and the CSV row reader shared across the package."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterator

import numpy as np

#: the largest mean that numpy's Poisson sampler takes
POISSON_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)
#: entry-wise tolerance of the unitarity and density-matrix checks
_STATE_TOL = 1e-10
#: entry-wise tolerance of the Gram-matrix check
_GRAM_TOL = 1e-9


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class ConfigError(ValidationError):
    """A run configuration failed validation; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ConvergenceError(RuntimeError):
    """An iterative numerical procedure failed (no convergence, bad fit, ...)."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex128 array with finite entries."""
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def check_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")


def check_unitary(m: np.ndarray, name: str = "matrix") -> None:
    """Element-wise max deviation of m @ m^dagger from the identity at most 1e-10."""
    check_square(m, name)
    dev = np.abs(m @ m.conj().T - np.eye(m.shape[0])).max()
    if not dev <= _STATE_TOL:  # a NaN entry fails too
        raise ValidationError(f"{name} is not unitary: max |U U^dag - I| = {dev:.3e} > {_STATE_TOL:.0e}")


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> None:
    """Hermitian, unit trace and positive semidefinite within 1e-10."""
    check_square(rho, name)
    herm = np.abs(rho - rho.conj().T).max()
    if not herm <= _STATE_TOL:  # a NaN entry fails too
        raise ValidationError(f"{name} is not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = complex(np.trace(rho))
    if not abs(tr - 1.0) <= _STATE_TOL:
        raise ValidationError(f"{name} trace deviates from 1 by {abs(tr - 1.0):.3e}")
    lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if not -lo <= _STATE_TOL:
        raise ValidationError(f"{name} is not positive semidefinite: min eigenvalue = {lo:.3e}")


def check_gram(g: np.ndarray, name: str = "gram") -> None:
    """Hermitian, unit diagonal, positive semidefinite within 1e-9."""
    check_square(g, name)
    if not np.abs(g - g.conj().T).max() <= _GRAM_TOL:  # a NaN entry fails too
        raise ValidationError(f"{name} must be Hermitian")
    if not np.abs(np.diagonal(g) - 1.0).max() <= _GRAM_TOL:
        raise ValidationError(f"{name} must have unit diagonal")
    lo = float(np.linalg.eigvalsh((g + g.conj().T) / 2).min())
    if not -lo <= _GRAM_TOL:
        raise ValidationError(f"{name} is not positive semidefinite: min eigenvalue = {lo:.3e}")


def csv_cells(path) -> Iterator[tuple[int, list[str]]]:
    """``(line number, cells)`` of each row of a UTF-8 CSV file that may start with a byte-order mark.

    A row is numbered by the file line it starts on, so a quoted cell spanning lines does not shift
    later numbers. Cells are stripped and blank ones dropped; a row left with none is skipped. A file
    that is not UTF-8 or that the csv module rejects is a ValidationError naming it.
    """
    path = Path(path)
    last = 0  # the file line the previous row ended on
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for row in reader:
                start, last = last + 1, reader.line_num
                if cells := [c.strip() for c in row if c.strip()]:
                    yield start, cells
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path.name}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path.name}: line {last + 1}: {exc}") from None
