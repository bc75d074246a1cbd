"""The group Z_t x Z_2 x Z_2 and its fixed element ordering.

Elements are triples (a, b, c) with a taken mod t and b, c taken mod 2.
Every matrix in this package indexes rows and columns 1..4t through the
bijection i = 4a + offset(b, c) + 1, where offset runs through the bit
pairs in the order (0,0), (1,0), (0,1), (1,1).  Consecutive blocks of
four indices therefore share the Z_t coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

# Bit pairs (b, c) in index order within each block of four.
_BIT_PAIRS = ((0, 0), (1, 0), (0, 1), (1, 1))
_BIT_OFFSET = {pair: k for k, pair in enumerate(_BIT_PAIRS)}


def validate_t(t: int) -> None:
    """Raise ValueError unless t is an odd integer >= 3.

    numpy integers pass; a float does not, even when integral.
    """
    if not isinstance(t, Integral):
        raise ValueError(f"t must be an integer, got {t!r}")
    if t < 3 or t % 2 == 0:
        raise ValueError(f"t must be odd and >= 3, got {t}")


class GroupElement(NamedTuple):
    a: int
    b: int
    c: int


@dataclass(frozen=True)
class GroupContext:
    """Carries the odd parameter t >= 3; the group has order 4t."""

    t: int

    def __post_init__(self) -> None:
        validate_t(self.t)

    @property
    def order(self) -> int:
        return 4 * self.t


def identity(ctx: GroupContext) -> GroupElement:
    return GroupElement(0, 0, 0)


def index_element(ctx: GroupContext, i: int) -> GroupElement:
    """Element sitting at 1-based position i of the ordering."""
    if not 1 <= i <= ctx.order:
        raise ValueError(f"index {i} outside [1, {ctx.order}]")
    a, r = divmod(i - 1, 4)
    b, c = _BIT_PAIRS[r]
    return GroupElement(a, b, c)


def element_index(ctx: GroupContext, g: GroupElement) -> int:
    """1-based position of g; inverse of index_element."""
    a, b, c = g
    if not (0 <= a < ctx.t and b in (0, 1) and c in (0, 1)):
        raise ValueError(f"element {g!r} invalid for t={ctx.t}")
    return 4 * a + _BIT_OFFSET[(b, c)] + 1


def multiply(ctx: GroupContext, g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement((g.a + h.a) % ctx.t, g.b ^ h.b, g.c ^ h.c)


def inverse(ctx: GroupContext, g: GroupElement) -> GroupElement:
    # b and c are self-inverse; only the Z_t coordinate flips.
    return GroupElement((ctx.t - g.a) % ctx.t, g.b, g.c)
