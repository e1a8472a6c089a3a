"""Dataset container invariants."""

import numpy as np
import pytest

from normreg.dataset import BINARY, CONTINUOUS, Dataset, infer_kinds
from normreg.errors import DimensionMismatchError, DomainError


def test_infer_kinds():
    x = np.array([[0.0, 0.0, 1.5], [1.0, 2.0, -0.5], [0.0, 1.0, 0.0]])
    assert infer_kinds(x) == (BINARY, CONTINUOUS, CONTINUOUS)


def test_zero_two_coded_column_is_continuous():
    x = np.array([[0.0], [2.0], [0.0]])
    assert infer_kinds(x) == (CONTINUOUS,)


def test_length_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(4))


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        Dataset(x=np.array([[np.nan], [1.0]]), y=np.zeros(2))
    with pytest.raises(DomainError):
        Dataset(x=np.ones((2, 1)), y=np.array([0.0, np.inf]))


def test_storage_is_fortran_and_readonly():
    data = Dataset(x=np.arange(6.0).reshape(3, 2), y=np.zeros(3))
    assert data.x.flags["F_CONTIGUOUS"]
    assert not data.x.flags["WRITEABLE"]
    assert not data.y.flags["WRITEABLE"]
    with pytest.raises(ValueError):
        data.x[0, 0] = 5.0


def test_default_names_and_shapes():
    data = Dataset(x=np.zeros((4, 3)), y=np.zeros(4))
    assert data.names == ("x1", "x2", "x3")
    assert (data.n, data.p) == (4, 3)
    assert np.array_equal(data.column(1), np.zeros(4))


@pytest.mark.parametrize(
    "x, names, message",
    [
        (np.zeros(4), (), r"x must be 2-d, got shape \(4,\)"),
        (np.zeros((4, 3)), ("a", "b"), "names has 2 entries for 3 columns"),
    ],
    ids=["one-dimensional-x", "too-few-names"],
)
def test_a_dataset_refuses_a_flat_x_and_the_wrong_number_of_names(x, names, message):
    with pytest.raises(DimensionMismatchError, match=message):
        Dataset(x=x, y=np.zeros(4), names=names)


def test_a_dataset_refuses_a_design_with_no_rows():
    # no row has a mean: a fit would report a NaN intercept as certified
    with pytest.raises(DimensionMismatchError, match=r"at least one row, got shape \(0, 2\)"):
        Dataset(x=np.zeros((0, 2)), y=np.zeros(0))


@pytest.mark.parametrize("stored", [True, False], ids=["stored-form", "converted"])
def test_a_dataset_freezes_the_arrays_it_keeps_and_copies_the_others(stored):
    # an F-ordered float64 x and a contiguous float64 y are kept as they are,
    # so the caller's own arrays become read-only; a C-ordered x and a
    # strided y are copied, and the caller's arrays stay writable
    x = np.arange(12.0).reshape(4, 3)
    y = np.arange(8.0)
    x, y = (np.asfortranarray(x), y[:4]) if stored else (x, y[::2])
    data = Dataset(x=x, y=y)
    assert np.shares_memory(data.x, x) == np.shares_memory(data.y, y) == stored
    assert x.flags["WRITEABLE"] == y.flags["WRITEABLE"] == (not stored)
    assert not data.x.flags["WRITEABLE"] and not data.y.flags["WRITEABLE"]
