"""Row-budget distributions over the four residue classes.

A class holding k of the t available positions contributes exactly
k (t - k) / 2 chain heads in total across the rows congruent to 1, and
a Hadamard subset needs t heads on each of the (t - 1) / 2 such rows,
hence a total budget of t (t - 1) / 2 split over the classes.  Each
class budget k (t - k) / 2 falls short of the per-class maximum
(t^2 - 1) / 8 by the triangular number ((t - 2k)^2 - 1) / 8, so the
admissible budget 4-tuples correspond to the ways of writing (t - 1) / 2
as an ordered sum of four triangular numbers.  This cuts the search
space long before any mask is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from math import isqrt

from .group import validate_t


def is_triangular(x: int) -> tuple[bool, int | None]:
    """Whether x = m (m + 1) / 2 for some m >= 0, and that m."""
    if x < 0:
        return False, None
    m = (isqrt(8 * x + 1) - 1) // 2
    if m * (m + 1) // 2 == x:
        return True, m
    return False, None


def class_budget(t: int, k: int) -> int:
    """Chain heads a class of k positions gives the rows congruent to 1."""
    return k * (t - k) // 2


def entry_class_size(t: int, entry: int) -> int:
    """Smaller class size k with class_budget(t, k) = entry; the other is t - k."""
    validate_t(t)
    square = t * t - 8 * entry
    if square < 0 or isqrt(square) ** 2 != square:
        raise ValueError(f"entry {entry} is not k(t-k)/2 for any k, t={t}")
    return (t - isqrt(square)) // 2


@dataclass(frozen=True)
class Distribution:
    """One admissible split of the head budget over the classes.

    entries holds the four class budgets in descending order; deficits
    holds the matching triangular shortfalls in ascending order, summing
    to (t - 1) / 2.  Which class gets which budget stays open here; the
    search tries each of assignments().
    """

    t: int
    entries: tuple[int, int, int, int]
    deficits: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        cap = (self.t * self.t - 1) // 8
        if tuple(sorted(self.entries, reverse=True)) != self.entries:
            raise ValueError("entries must be sorted descending")
        if sum(self.deficits) != (self.t - 1) // 2:
            raise ValueError("deficits must sum to (t - 1) / 2")
        for entry, deficit in zip(self.entries, self.deficits):
            if entry + deficit != cap:
                raise ValueError(f"entry {entry} and deficit {deficit} do not pair")

    def assignments(self) -> tuple[tuple[int, int, int, int], ...]:
        """Distinct ways to give the entries to classes (1, 2, 3, 0), descending."""
        return tuple(sorted(set(permutations(self.entries)), reverse=True))


def enumerate_distributions(t: int) -> tuple[Distribution, ...]:
    """All admissible distributions for t, sorted by ascending deficits.

    Enumerates ascending 4-tuples of triangular numbers summing to
    (t - 1) / 2; the budgets are the per-class cap minus the deficits.
    """
    validate_t(t)
    target = (t - 1) // 2
    cap = (t * t - 1) // 8
    triangulars = []
    m = 0
    while m * (m + 1) // 2 <= target:
        triangulars.append(m * (m + 1) // 2)
        m += 1
    return tuple(
        Distribution(t, tuple(cap - d for d in deficits), deficits)
        for deficits in combinations_with_replacement(triangulars, 4)
        if sum(deficits) == target
    )


def coboundary_bounds(
    t: int, residue_of_n: int | None = None
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Inclusive bounds ((k3_lo, k3_hi), (n_lo, n_hi)) for Hadamard subsets.

    k3 is the residue-3 class size; n is the total subset size.  The n
    window tightens slightly when the residue of n mod 4 is known.
    """
    validate_t(t)
    if residue_of_n not in (None, 0, 1, 2, 3):
        raise ValueError(f"residue_of_n must be None or 0..3, got {residue_of_n}")
    s = isqrt(4 * t - 3)
    k3 = ((t - s + 1) // 2, (t + s) // 2)
    if residue_of_n in (1, 3):
        disc = 4 * t - 3
    elif residue_of_n == 2:
        disc = 4 * t - 4
    else:
        disc = 4 * t
    w = isqrt(disc)
    return k3, (2 * t - w, 2 * t + w)
