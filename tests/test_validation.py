"""Shared validation helpers: a non-finite entry fails a check as an out-of-tolerance one does."""

import re

import numpy as np
import pytest

from tritterlab.validation import (ValidationError, as_complex_matrix, as_density_matrix, check_gram, check_unitary,
                                   csv_cells)


@pytest.mark.parametrize("index", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
@pytest.mark.parametrize(
    "check, valid, message",
    [
        (check_unitary, np.eye(2), "is not unitary"),
        (lambda m: as_density_matrix(m, 2), np.eye(2) / 2, "contains non-finite entries"),
        (check_gram, np.ones((2, 2)), "must be Hermitian"),
        (as_complex_matrix, np.eye(2), "contains non-finite entries"),
    ],
    ids=["unitary", "density-matrix", "gram", "complex-matrix"],
)
def test_nan_entry_rejected(check, valid, message, index):
    # NaN compares False with everything, so a test written as `x > tol` let it through
    m = np.array(valid, dtype=complex)
    check(m)
    m[index] = np.nan
    with pytest.raises(ValidationError, match=message):
        check(m)


@pytest.mark.parametrize(
    "check, shape, message",
    [
        pytest.param(check_unitary, (2, 3), "must be square, got shape (2, 3)", id="rectangular-check_unitary"),
        pytest.param(check_gram, (2, 3), "must be square, got shape (2, 3)", id="rectangular-check_gram"),
        pytest.param(as_density_matrix, (2, 3), "rho must be 2x2, got (2, 3)", id="rectangular-check_density_matrix"),
        pytest.param(check_unitary, (4,), "must be square, got shape (4,)", id="vector-check_unitary"),
        pytest.param(check_gram, (4,), "must be square, got shape (4,)", id="vector-check_gram"),
        # as_complex_matrix rejects a 1-d input before the density-matrix reader compares the shape
        pytest.param(as_density_matrix, (4,), "rho must be 2-dimensional, got ndim=1",
                     id="vector-check_density_matrix"),
    ],
)
def test_non_square_rejected(check, shape, message):
    args = (np.ones(shape), 2) if check is as_density_matrix else (np.ones(shape),)
    with pytest.raises(ValidationError, match=re.escape(message)):
        check(*args)


@pytest.mark.parametrize("data", [[1.0, 0.0], [[[1.0]]]], ids=["vector", "3-d"])
def test_complex_matrix_must_be_2d(data):
    with pytest.raises(ValidationError, match="must be 2-dimensional"):
        as_complex_matrix(data)


def test_density_matrix_reader_casts_and_checks_the_dimension():
    rho = as_density_matrix([[0.5, 0.0], [0.0, 0.5]], 2, "start")
    assert rho.dtype == complex and rho.shape == (2, 2)
    with pytest.raises(ValidationError, match=re.escape("start must be 4x4, got (2, 2)")):
        as_density_matrix(rho, 4, "start")
    with pytest.raises(ValidationError, match=re.escape("start must be 2x2, got (2, 3)")):
        as_density_matrix(np.ones((2, 3)), 2, "start")


def test_csv_cells_strips_cells_and_skips_blank_rows(tmp_path):
    # line numbers count every row, blank ones too, so messages point at the file's own lines
    path = tmp_path / "rows.csv"
    path.write_text('\ufeff a , b ,\n\n , \n c,"d "\n', encoding="utf-8")
    assert list(csv_cells(path)) == [(1, ["a", "b"]), (4, ["c", "d"])]
