"""Deterministic random streams.

A RandomStream names a substream of a master seed. Streams with distinct ids
are statistically independent and their draws do not depend on the order in
which other streams are created or consumed, so replications can be assigned
ids arithmetically and run (or re-run) in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class RandomStream:
    """A (master seed, stream id) pair addressing one independent substream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if value < 0:
                raise DomainError(f"{name} must be non-negative, got {value!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this substream.

        Calling twice yields bit-identical sequences.
        """
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, stream_id: int) -> "RandomStream":
        """Sibling stream under the same master seed."""
        return RandomStream(self.master_seed, stream_id)
