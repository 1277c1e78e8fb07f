"""Integer-bitset helpers for the clique/covering hot path.

Python ints are arbitrary-width bit vectors with O(word) AND/OR/NOT,
which makes them the natural dense-set representation for clique
covering (paper, IV-C): a set of task ids is the int with those bits set.
These helpers are the only place the bit twiddling lives; everything
else manipulates masks through them or through plain ``& | ~``.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, List

if sys.version_info >= (3, 10):

    def popcount(mask: int) -> int:
        """Number of set bits."""
        return mask.bit_count()

else:  # pragma: no cover - exercised only on 3.9

    def popcount(mask: int) -> int:
        """Number of set bits."""
        return bin(mask).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits(mask: int) -> List[int]:
    """The set bit positions of ``mask``, ascending."""
    return list(iter_bits(mask))


def mask_of(positions: Iterable[int]) -> int:
    """The int with exactly the given bit positions set."""
    mask = 0
    for position in positions:
        mask |= 1 << position
    return mask
