"""Shared validation helpers: a non-finite entry fails a check as an out-of-tolerance one does."""

import re

import numpy as np
import pytest

from tritterlab import (InputConfiguration, InternalState, fourier_unitary, measurement_settings,
                        monte_carlo_uncertainty, pair_coincidence_probability, postselect_coincidence, purity, recipe,
                        simulate_counts)
from tritterlab.cli import ExperimentConfig
from tritterlab.validation import (ValidationError, as_complex_matrix, as_density_matrix, as_integer, as_number,
                                   check_gram, check_unitary, csv_cells, write_csv)


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


def test_csv_writer_output_reads_back_cell_for_cell(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, [("a", "b"), ("1,5", 'say "x"'), (2, 0.5)])
    assert path.read_bytes() == b'a,b\r\n"1,5","say ""x"""\r\n2,0.5\r\n'
    assert list(csv_cells(path)) == [(1, ["a", "b"]), (2, ["1,5", 'say "x"']), (3, ["2", "0.5"])]


@pytest.mark.parametrize("raw", [0, -3, 2**70, np.int64(5), np.uint8(7), 4.0, np.float64(-2.0), 1e20])
def test_whole_numbers_read_as_ints(raw):
    value = as_integer(raw)
    assert type(value) is int and value == raw


@pytest.mark.parametrize("raw", [0, -3, 2**70, np.int64(5), 1.5, np.float32(2.5), np.nan, np.inf])
def test_real_numbers_read_as_floats(raw):
    value = as_number(raw)
    assert type(value) is float and (value == raw or np.isnan(raw))


@pytest.mark.parametrize("raw", [True, np.bool_(False), "3", None, 2 + 0j, np.complex128(1), [1.0]])
def test_other_values_are_not_numbers(raw):
    with pytest.raises(ValidationError, match=re.escape(f"{raw!r} is not a number")):
        as_number(raw)


@pytest.mark.parametrize("raw", [True, np.bool_(False), 1.5, np.nan, np.inf, "3", None, 2 + 0j, np.float32(2.0)])
def test_other_values_are_not_integers(raw):
    # nothing is rounded, truncated or parsed
    with pytest.raises(ValidationError, match=re.escape(f"count must be an integer, got {raw!r}")):
        as_integer(raw, "count")


_H = InternalState([1.0, 0.0])
_W_INPUTS = recipe("w").input_configuration()
_ONE_QUBIT = simulate_counts(np.eye(2) / 2, 1000, seed=0)
#: every whole-number argument of the library and of the config, as a call taking that argument alone, and a value
#: that the call accepts
WHOLE_NUMBER_ARGUMENTS = {
    "fourier_unitary": (fourier_unitary, 3),
    "measurement_settings": (measurement_settings, 2),
    "input_port": (lambda port: InputConfiguration([(port, _H)]), 2),
    "pattern": (lambda count: postselect_coincidence(fourier_unitary(3), _W_INPUTS, (count, 1, 1)), 1),
    "pair_input_port": (lambda port: pair_coincidence_probability(fourier_unitary(3), (port, 3), (1, 2), 1.0), 2),
    "pair_output_port": (lambda port: pair_coincidence_probability(fourier_unitary(3), (1, 3), (2, port), 1.0), 3),
    "shots": (lambda shots: simulate_counts(np.eye(2) / 2, shots, seed=0), 3),
    "resamples": (lambda resamples: monte_carlo_uncertainty(_ONE_QUBIT, resamples, purity, seed=0), 2),
    **{f"tomography.{key}": (lambda value, key=key: ExperimentConfig.from_dict({"tomography": {key: value}}), value)
       for key, value in (("shots", 100), ("resamples", 3), ("seed", 1))},
}


@pytest.mark.parametrize("name", WHOLE_NUMBER_ARGUMENTS)
def test_whole_number_arguments_read_by_one_rule(name):
    # a fraction used to be truncated (port 1.7 became port 1, 2.7 shots drew 2) and a boolean read as 0 or 1
    call, valid = WHOLE_NUMBER_ARGUMENTS[name]
    call(np.int64(valid))
    for raw in (valid + 0.5, True):
        with pytest.raises(ValidationError, match=re.escape(f"must be an integer, got {raw!r}")):
            call(raw)
