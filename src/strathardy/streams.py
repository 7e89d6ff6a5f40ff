"""Counter-based random streams: every random draw in the package comes
from :func:`philox_stream`, so all stream keys are decided here."""

from __future__ import annotations

import numpy as np

__all__ = ["philox_stream"]


def philox_stream(seed: int, index: int) -> np.random.Generator:
    """The generator on Philox key (seed mod 2**64, index)."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, index], dtype=np.uint64))
    )
