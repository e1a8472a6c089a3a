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


def test_kinds_width_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        Dataset(x=np.zeros((3, 2)), y=np.zeros(3), kinds=(BINARY,))


def test_binary_tag_validated():
    x = np.array([[0.5], [1.0]])
    with pytest.raises(DomainError):
        Dataset(x=x, y=np.zeros(2), kinds=(BINARY,))


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
