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
    power-fdr's 10,000 x 100 design.
    """

    x: np.ndarray
    y: np.ndarray
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        x = np.asfortranarray(np.asarray(self.x, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=np.float64))
        if x.ndim != 2:
            raise DimensionMismatchError(f"x must be 2-d, got shape {x.shape}")
        if not x.shape[0]:
            # no row has a mean: a fit would report NaN as a certified optimum
            raise DimensionMismatchError(f"x must have at least one row, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DimensionMismatchError(
                f"y must be 1-d with length {x.shape[0]}, got shape {y.shape}"
            )
        # the ufunc's reduce, without np.all's Python-level dispatch
        if not (
            np.logical_and.reduce(np.isfinite(x), axis=None)
            and np.logical_and.reduce(np.isfinite(y))
        ):
            raise DomainError("x and y must be finite")
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

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.x[:, j]
