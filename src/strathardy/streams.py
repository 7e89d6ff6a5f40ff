"""Counter-based random streams: every random draw in the package comes
from :func:`philox_stream`, so all stream keys are decided here.

A key is (seed mod 2**64, domain * 2**32 + index): each purpose draws
from a domain of its own, so streams that serve different purposes never
share a key (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11).  Domain 0 holds the key in use before domains existed, trial
placement on index 2.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

__all__ = ["BASE", "FUZZER", "IDENTITIES", "MONTE_CARLO", "philox_key", "philox_stream", "philox_chunks"]

# the key domains
BASE = 0
FUZZER = 1
IDENTITIES = 2
MONTE_CARLO = 3

_INDICES = 1 << 32


def philox_key(seed: int, index: int, domain: int = BASE) -> tuple[int, int]:
    """The Philox key of stream ``index`` in ``domain`` for ``seed``."""
    if not 0 <= index < _INDICES:
        raise ValueError(f"stream index {index} is outside [0, 2**32)")
    return seed % 2**64, domain * _INDICES + index


def philox_stream(seed: int, index: int, domain: int = BASE) -> np.random.Generator:
    """The generator on the key :func:`philox_key` gives."""
    key = np.array(philox_key(seed, index, domain), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def philox_chunks(
    seed: int, count: int, rows: int, domain: int = BASE
) -> Iterator[tuple[np.random.Generator, int]]:
    """(generator, rows to draw) for chunks c = 0, 1, ... on the streams
    of index c in ``domain``.

    The chunks cover ``count`` rows, ``rows`` each but the last, so a
    stream read in chunk order does not depend on how the work is split.
    """
    for index, start in enumerate(range(0, count, rows)):
        yield philox_stream(seed, index, domain), min(rows, count - start)
