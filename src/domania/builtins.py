"""Stock domain-pers used as equation parameters."""

from .basis import FlatNatBasis, catalog_basis, flat_basis, tok
from .errors import UnboundName
from .per import ALL_YES, DomainPer, NatIdentityRel, finite_per, trivial_per


def sierpinski_per() -> DomainPer:
    """Two-chain carrier, top related to itself only."""
    b = catalog_basis("two-chain")
    return finite_per(
        b, [(tok("top"), tok("top"))], flags=ALL_YES, name="sierpinski"
    )


def flatbool_per() -> DomainPer:
    b = flat_basis(["tt", "ff"], name="flatbool")
    return finite_per(
        b,
        [(tok("tt"), tok("tt")), (tok("ff"), tok("ff"))],
        flags=ALL_YES,
        name="flatbool",
    )


def discrete_per(n: int) -> DomainPer:
    b = flat_basis(range(n), name=f"discrete({n})")
    return finite_per(
        b,
        [(tok(str(i)), tok(str(i))) for i in range(n)],
        flags=ALL_YES,
        name=f"discrete({n})",
    )


def flatnat_per(nat_bound: int = 8) -> DomainPer:
    b = FlatNatBasis()
    return DomainPer(
        b,
        NatIdentityRel(b, nat_bound),
        ALL_YES,
        name="flatnat",
    )


BUILTIN_PERS = {
    "sierpinski": sierpinski_per,
    "flatbool": flatbool_per,
    "flatnat": flatnat_per,
    "trivial": trivial_per,
}


def builtin_per(name: str, nat_bound: int = 8) -> DomainPer:
    size = name[len("discrete("):-1]
    if name.startswith("discrete(") and name.endswith(")") and size.isdigit():
        return discrete_per(int(size))
    if name == "flatnat":
        return flatnat_per(nat_bound)
    if name not in BUILTIN_PERS:
        raise UnboundName(f"no builtin per named {name!r}")
    return BUILTIN_PERS[name]()
