"""Shared validation helpers: a non-finite entry fails a check as an out-of-tolerance one does."""

import numpy as np
import pytest

from tritterlab.validation import ValidationError, check_density_matrix, check_gram, check_unitary


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
