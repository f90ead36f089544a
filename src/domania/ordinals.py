"""Stage indices for chains: 0, 1, 2, ..., omega, omega+1, ..., omega+K.

Richer ordinal arithmetic is deliberately absent; carriers stabilise at omega
and only pers evolve past it.
"""

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    limit: bool  # True means omega + k, False means the finite ordinal k
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("negative stage index")

    def __lt__(self, other):
        if self.limit != other.limit:
            return other.limit
        return self.k < other.k

    @property
    def is_finite(self):
        return not self.limit

    def __str__(self):
        if not self.limit:
            return str(self.k)
        return "omega" if self.k == 0 else f"omega+{self.k}"


def fin(n: int) -> Ordinal:
    return Ordinal(False, n)


OMEGA = Ordinal(True, 0)


def omega_plus(k: int) -> Ordinal:
    return Ordinal(True, k)
