"""Dataset container: a dense design matrix, response and column names.

A column's kind is a function of its values: it is binary iff every value is
0 or 1. Rules that treat binary columns differently read the kind off the
values with infer_kinds, so no stored tag can disagree with them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, DomainError

BINARY = "binary"
CONTINUOUS = "continuous"


def infer_kinds(x: np.ndarray) -> tuple[str, ...]:
    """Tag each column: binary iff its values are a subset of {0, 1}."""
    x = np.asarray(x)
    binary = np.all((x == 0.0) | (x == 1.0), axis=0)
    return tuple(BINARY if b else CONTINUOUS for b in binary)


@lru_cache(maxsize=8)
def _default_names(p: int) -> tuple[str, ...]:
    """x1 ... xp, built once per p: a simulation makes many datasets of one width."""
    return tuple(f"x{j + 1}" for j in range(p))


@dataclass(frozen=True)
class Dataset:
    """Immutable regression data.

    x is stored column-major (feature columns are contiguous) and both arrays
    are marked read-only after construction. names are optional labels
    carried through to outputs.

    An argument already in the stored form, an F-ordered float64 x or a
    contiguous float64 y, is kept without a copy, so the caller's own array
    becomes read-only too. Any other (a C-ordered or non-float x, a strided
    y) is converted into a copy, and the caller's array stays writable.
    Copying always would add a design-sized array per Dataset: 8 MB for
    power-fdr's 10,000 x 100 design, whose nested designs are heads of it.

    with_response and head make a Dataset of this one's x, neither copied
    nor checked again. Each keeps, as _source, the Dataset whose x it begins
    with, which never has a _source of its own, so the solver sets that
    design up once for all of them (see solver._Moments).
    """

    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        x = np.asfortranarray(np.asarray(self.x, dtype=np.float64))
        if x.ndim != 2:
            raise DimensionMismatchError(f"x must be 2-d, got shape {x.shape}")
        if not x.shape[0]:
            # no row has a mean: a fit would report NaN as a certified optimum
            raise DimensionMismatchError(f"x must have at least one row, got shape {x.shape}")
        y = _response(self.y, x.shape[0])
        # the ufunc's reduce, without np.all's Python-level dispatch
        if not np.logical_and.reduce(np.isfinite(x), axis=None):
            raise DomainError(_FINITE)
        names = tuple(self.names) if self.names else _default_names(x.shape[1])
        if len(names) != x.shape[1]:
            raise DimensionMismatchError(
                f"names has {len(names)} entries for {x.shape[1]} columns"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", names)

    def with_response(self, y) -> Dataset:
        """This design with response y, which the constructor's rule checks
        and stores; x is this Dataset's own array."""
        return self._derive(self.x, _response(y, self.n), self.names)

    def head(self, p: int) -> Dataset:
        """The first p columns, a read-only view of x, with the same y.

        The solver slices this Dataset's set-up of x for it. On a design of
        integers, such as a binary one, every sum in it is exact and the fits
        equal a fresh Dataset's bit for bit; on other designs the sliced
        Gram and means agree with fresh ones only to round-off.
        """
        if not 0 <= p <= self.p:
            raise DimensionMismatchError(f"head takes 0 to {self.p} columns, got {p!r}")
        return self._derive(self.x[:, :p], self.y, self.names[:p])

    def _derive(self, x: np.ndarray, y: np.ndarray, names: tuple) -> Dataset:
        """A Dataset of checked arrays, made without the constructor, in
        PenaltySpec._at's idiom, that shares this one's source."""
        y.setflags(write=False)
        data = object.__new__(Dataset)
        data.__dict__.update(
            x=x, y=y, names=names, _source=self.__dict__.get("_source", self)
        )
        return data

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.x[:, j]


_FINITE = "x and y must be finite"


def _response(y, n: int) -> np.ndarray:
    """y as a contiguous, finite float64 array of length n: the one rule for
    a response, the constructor's and with_response's."""
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    if y.ndim != 1 or y.shape[0] != n:
        raise DimensionMismatchError(f"y must be 1-d with length {n}, got shape {y.shape}")
    if not np.logical_and.reduce(np.isfinite(y)):
        raise DomainError(_FINITE)
    return y
