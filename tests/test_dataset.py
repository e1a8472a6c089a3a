"""Dataset container invariants."""

import re

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


def test_a_new_response_keeps_x_and_is_stored_as_the_constructor_stores_one():
    data = Dataset(x=np.arange(12.0).reshape(4, 3), y=np.zeros(4), names=("a", "b", "c"))
    y = np.arange(8.0)[::2]
    refit = data.with_response(y)
    assert refit.x is data.x and not refit.x.flags.writeable
    assert refit.names == data.names
    # a strided y is copied, as the constructor copies one
    assert np.array_equal(refit.y, y) and not np.shares_memory(refit.y, y)
    assert not refit.y.flags.writeable and y.flags.writeable


@pytest.mark.parametrize(
    "y",
    [np.zeros(5), np.zeros((4, 1)), np.array([0.0, np.nan, 1.0, 2.0]), np.full(4, -np.inf)],
    ids=["too-long", "two-dimensional", "nan", "infinite"],
)
def test_a_new_response_is_refused_as_the_constructor_refuses_it(y):
    x = np.ones((4, 2))
    with pytest.raises((DimensionMismatchError, DomainError)) as fresh:
        Dataset(x=x, y=y)
    with pytest.raises(type(fresh.value), match=re.escape(str(fresh.value))):
        Dataset(x=x, y=np.zeros(4)).with_response(y)


def test_a_head_is_a_read_only_view_of_the_first_columns_with_the_same_response():
    data = Dataset(x=np.arange(12.0).reshape(4, 3), y=np.arange(4.0), names=("a", "b", "c"))
    for p in range(4):
        head = data.head(p)
        assert head.names == data.names[:p] and head.y is data.y
        assert np.shares_memory(head.x, data.x) or p == 0
        assert np.array_equal(head.x, data.x[:, :p])
        assert head.x.flags["F_CONTIGUOUS"] and not head.x.flags["WRITEABLE"]
    for p in (-1, 4):
        with pytest.raises(DimensionMismatchError, match=f"head takes 0 to 3 columns, got {p}"):
            data.head(p)
