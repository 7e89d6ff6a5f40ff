"""Counter-based random streams: every random draw in the package comes
from :func:`philox_stream`, so all stream keys are decided here."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["philox_stream", "philox_chunks"]


def philox_stream(seed: int, index: int) -> np.random.Generator:
    """The generator on Philox key (seed mod 2**64, index)."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, index], dtype=np.uint64))
    )


def philox_chunks(seed: int, count: int, rows: int) -> Iterator[tuple[np.random.Generator, int]]:
    """(generator, rows to draw) for chunks c = 0, 1, ... on keys (seed, c).

    The chunks cover ``count`` rows, ``rows`` each but the last, so a
    stream read in chunk order does not depend on how the work is split.
    """
    for index, start in enumerate(range(0, count, rows)):
        yield philox_stream(seed, index), min(rows, count - start)
