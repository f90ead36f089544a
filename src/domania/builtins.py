"""Stock domain-pers used as equation parameters."""

from .basis import FlatNatBasis, catalog_basis, flat_basis, tok
from .errors import UnboundName
from .per import ALL_YES, DomainPer, NatIdentityRel, finite_per, trivial_per


def sierpinski_per() -> DomainPer:
    """Two-chain carrier, top related to itself only."""
    b = catalog_basis("two-chain")
    return finite_per(b, [(tok("top"), tok("top"))], flags=ALL_YES)


def flat_points(name: str):
    """The points of a flat builtin, `flatbool` or `discrete(n)`; None for
    any other name."""
    size = name[len("discrete("):-1]
    if name.startswith("discrete(") and name.endswith(")") and size.isdigit():
        return [str(i) for i in range(int(size))]
    return ["tt", "ff"] if name == "flatbool" else None


def flat_per(name: str) -> DomainPer:
    """The flat builtin `name`: each point is a total class of its own."""
    points = flat_points(name)
    b = flat_basis(points, name=name)
    return finite_per(b, [(tok(p), tok(p)) for p in points], flags=ALL_YES)


def flatnat_per(nat_bound: int = 8) -> DomainPer:
    b = FlatNatBasis()
    return DomainPer(b, NatIdentityRel(b, nat_bound), ALL_YES)


BUILTIN_PERS = {"sierpinski": sierpinski_per, "trivial": trivial_per}


def builtin_per(name: str, nat_bound: int = 8) -> DomainPer:
    if flat_points(name) is not None:
        return flat_per(name)
    if name == "flatnat":
        return flatnat_per(nat_bound)
    if name not in BUILTIN_PERS:
        raise UnboundName(f"no builtin per named {name!r}")
    return BUILTIN_PERS[name]()
