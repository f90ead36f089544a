"""Stage indices for chains: 0, 1, 2, ..., omega, omega+1, ..., omega+K.

Richer ordinal arithmetic is deliberately absent; carriers stabilise at omega
and only pers evolve past it.
"""

from functools import total_ordering

from .basis import Frozen


@total_ordering
class Ordinal(Frozen):
    def __init__(self, limit: bool, k: int):
        if k < 0:
            raise ValueError("negative stage index")
        # True means omega + k, False means the finite ordinal k
        vars(self).update(limit=limit, k=k)

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
