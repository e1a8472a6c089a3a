"""Dataset container: a dense design matrix, response, and column kinds."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, DomainError

BINARY = "binary"
CONTINUOUS = "continuous"
_KINDS = (BINARY, CONTINUOUS)


def infer_kinds(x: np.ndarray) -> tuple[str, ...]:
    """Tag each column: binary iff its values are a subset of {0, 1}."""
    kinds = []
    for j in range(x.shape[1]):
        col = x[:, j]
        kinds.append(BINARY if np.all((col == 0.0) | (col == 1.0)) else CONTINUOUS)
    return tuple(kinds)


@dataclass(frozen=True)
class Dataset:
    """Immutable regression data.

    x is stored column-major (feature columns are contiguous) and both arrays
    are marked read-only after construction. kinds has one tag per column;
    names are optional labels carried through to outputs.
    """

    x: np.ndarray
    y: np.ndarray
    kinds: tuple[str, ...] = ()
    names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        x = np.asfortranarray(np.asarray(self.x, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=np.float64))
        if x.ndim != 2:
            raise DimensionMismatchError(f"x must be 2-d, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DimensionMismatchError(
                f"y must be 1-d with length {x.shape[0]}, got shape {y.shape}"
            )
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise DomainError("x and y must be finite")
        kinds = tuple(self.kinds) if self.kinds else infer_kinds(x)
        if len(kinds) != x.shape[1]:
            raise DimensionMismatchError(
                f"kinds has {len(kinds)} entries for {x.shape[1]} columns"
            )
        for j, kind in enumerate(kinds):
            if kind not in _KINDS:
                raise DomainError(f"unknown column kind {kind!r} at column {j}")
            if kind == BINARY and not np.all((x[:, j] == 0.0) | (x[:, j] == 1.0)):
                raise DomainError(f"column {j} tagged binary but has values outside {{0, 1}}")
        names = tuple(self.names) if self.names else tuple(f"x{j + 1}" for j in range(x.shape[1]))
        if len(names) != x.shape[1]:
            raise DimensionMismatchError(
                f"names has {len(names)} entries for {x.shape[1]} columns"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.x[:, j]
