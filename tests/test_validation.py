"""Shared validation helpers: a non-finite entry fails a check as an out-of-tolerance one does."""

import numpy as np
import pytest

from tritterlab.validation import ValidationError, check_density_matrix, check_gram, check_unitary, csv_cells


@pytest.mark.parametrize("index", [(0, 1), (1, 1)], ids=["off-diagonal", "diagonal"])
@pytest.mark.parametrize(
    "check, valid, message",
    [
        (check_unitary, np.eye(2), "is not unitary"),
        (check_density_matrix, np.eye(2) / 2, "is not Hermitian"),
        (check_gram, np.ones((2, 2)), "must be Hermitian"),
    ],
    ids=["unitary", "density-matrix", "gram"],
)
def test_nan_entry_rejected(check, valid, message, index):
    # NaN compares False with everything, so a test written as `x > tol` let it through
    m = np.array(valid, dtype=complex)
    check(m)
    m[index] = np.nan
    with pytest.raises(ValidationError, match=message):
        check(m)


def test_csv_cells_strips_cells_and_skips_blank_rows(tmp_path):
    # line numbers count every row, blank ones too, so messages point at the file's own lines
    path = tmp_path / "rows.csv"
    path.write_text('\ufeff a , b ,\n\n , \n c,"d "\n', encoding="utf-8")
    assert list(csv_cells(path)) == [(1, ["a", "b"]), (4, ["c", "d"])]
