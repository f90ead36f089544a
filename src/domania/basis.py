"""Effective bases of compact elements for countably based Scott domains.

A basis is the data (tokens, decidable order, consistency, least upper
bounds); finite bases are materialised eagerly, infinite ones (flat naturals,
inductive limits, function spaces over them) answer queries algorithmically
and enumerate their tokens up to an explicit bound with a truncation flag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import (
    NoLeastElement,
    NotAntisymmetric,
    NotConsistentlyComplete,
    UnknownToken,
)


def render_key(key) -> str:
    """Human-readable name, computed from the structural key alone."""
    if isinstance(key, tuple):
        tag = key[0] if key else None
        if tag == "natb" or tag == "sb":
            return "bot"
        if tag == "nat":
            return str(key[1])
        if tag == "s":
            return f"in{key[1]}({render_key(key[2])})"
        if tag == "p":
            return f"({render_key(key[1])},{render_key(key[2])})"
        if tag == "fn":
            items = sorted(f"{render_key(p)}=>{render_key(q)}" for (p, q) in key[1])
            return "{" + ", ".join(items) + "}"
        if tag == "lim":
            return f"@{key[1]}:{render_key(key[2])}"
        if tag == "pb":
            return "{" + ",".join(str(x) for x in key[1]) + "}"
    return str(key)


class Token:
    """Compact element of a basis, hash-consed: `tok` keeps one token per
    key, so two tokens are equal exactly when they are the same object, and
    the hash of the key is computed once.  Build tokens with `tok` only."""

    __slots__ = ("key", "_hash")

    def __init__(self, key):
        self.key = key
        self._hash = hash(key)

    @property
    def pretty(self) -> str:
        return render_key(self.key)

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return self._hash

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return tok, (self.key,)

    def __repr__(self):
        return f"Token({self.pretty})"


# key -> its one token; equal keys share an entry, as equal tokens must
_TOKENS: Dict[object, Token] = {}


def tok(key) -> Token:
    t = _TOKENS.get(key)
    if t is None:
        t = _TOKENS[key] = Token(key)
    return t


@dataclass(frozen=True)
class TokenSet:
    """Result of a bounded token enumeration."""

    tokens: Tuple[Token, ...]
    truncated: bool

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self):
        return len(self.tokens)


class Basis:
    """Interface shared by all basis implementations. Immutable and pure."""

    name: str = "?"
    finite: bool = False

    @property
    def bottom(self) -> Token:
        raise NotImplementedError

    def has_token(self, t: Token) -> bool:
        raise NotImplementedError

    def leq(self, p: Token, q: Token) -> bool:
        raise NotImplementedError

    def cons(self, ts: Iterable[Token]) -> bool:
        raise NotImplementedError

    def lub(self, ts: Iterable[Token]) -> Token:
        raise NotImplementedError

    def tokens(self, bound: Optional[int] = None) -> TokenSet:
        """All tokens (finite case) or a stage/size-bounded, flagged prefix.

        The answer depends only on `bound`: earlier calls with other bounds
        never change it."""
        raise NotImplementedError

    def lub2(self, p: Token, q: Token) -> Token:
        return self.lub((p, q))


# ---------------------------------------------------------------------------
# finite posets (oracle substrate) and finite bases


@dataclass(frozen=True)
class FinitePoset:
    elements: Tuple[object, ...]
    leq_pairs: FrozenSet[Tuple[object, object]]

    def leq(self, a, b) -> bool:
        return (a, b) in self.leq_pairs


def transitive_reflexive_closure(elements, pairs):
    rel = {(a, a) for a in elements}
    rel.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def mk_finite_poset(elements, order_pairs) -> FinitePoset:
    elements = tuple(elements)
    for (a, b) in order_pairs:
        if a not in elements or b not in elements:
            raise UnknownToken(f"order pair ({a},{b}) mentions unknown element")
    rel = transitive_reflexive_closure(elements, set(order_pairs))
    for a in elements:
        for b in elements:
            if a != b and (a, b) in rel and (b, a) in rel:
                raise NotAntisymmetric(
                    f"closure of order relates {a} and {b} both ways", witness=(a, b)
                )
    return FinitePoset(elements, frozenset(rel))


class FiniteBasis(Basis):
    """Materialised basis: token list, order set, lub table, all exhaustive."""

    finite = True

    def __init__(self, name, toks: List[Token], leq_pairs, check=True):
        self.name = name
        self._tokens = tuple(toks)
        self._keys = {t.key for t in self._tokens}
        if len(self._keys) != len(self._tokens):
            raise ValueError(f"duplicate token keys in basis {name}")
        self._leq = frozenset((a.key, b.key) for (a, b) in leq_pairs)
        bottoms = [
            t
            for t in self._tokens
            if all((t.key, u.key) in self._leq for u in self._tokens)
        ]
        if not bottoms:
            raise NoLeastElement(f"basis {name} has no least token")
        self._bottom = bottoms[0]
        self._lub_cache: Dict[FrozenSet[object], Optional[Token]] = {}
        if check:
            self._check_complete()

    def _check_complete(self):
        # consistent pairs must have least upper bounds; pairwise suffices
        # for finite posets with a bottom (induction on set size).
        for p, q in itertools.combinations(self._tokens, 2):
            ubs = [u for u in self._tokens if self.leq(p, u) and self.leq(q, u)]
            if not ubs:
                continue
            least = [u for u in ubs if all(self.leq(u, v) for v in ubs)]
            if not least:
                raise NotConsistentlyComplete(
                    f"basis {self.name}: consistent pair has no least upper bound",
                    witness=(p, q),
                )

    @property
    def bottom(self) -> Token:
        return self._bottom

    def has_token(self, t: Token) -> bool:
        return t.key in self._keys

    def leq(self, p: Token, q: Token) -> bool:
        return (p.key, q.key) in self._leq

    def cons(self, ts) -> bool:
        ts = list(ts)
        return any(
            all(self.leq(t, u) for t in ts) for u in self._tokens
        )

    def lub(self, ts) -> Token:
        ts = frozenset(t.key for t in ts)
        if ts in self._lub_cache:
            got = self._lub_cache[ts]
            if got is None:
                raise NotConsistentlyComplete(
                    f"lub of inconsistent set in {self.name}", witness=ts
                )
            return got
        toks = [t for t in self._tokens if t.key in ts]
        if not toks:
            result = self._bottom
        else:
            ubs = [u for u in self._tokens if all(self.leq(t, u) for t in toks)]
            least = [u for u in ubs if all(self.leq(u, v) for v in ubs)]
            result = least[0] if least else None
        self._lub_cache[ts] = result
        if result is None:
            raise NotConsistentlyComplete(
                f"lub of inconsistent set in {self.name}", witness=toks
            )
        return result

    def tokens(self, bound=None) -> TokenSet:
        return TokenSet(self._tokens, False)


def mk_finite_basis(elements, order_pairs, name="basis") -> FiniteBasis:
    """Basis whose order is the reflexive-transitive closure of `order_pairs`.

    Raises NotAntisymmetric / NoLeastElement / NotConsistentlyComplete with a
    witness when the data does not describe an effective base.
    """
    if not elements:
        raise NoLeastElement("empty element list")
    poset = mk_finite_poset(elements, order_pairs)
    toks = {e: tok(e) for e in poset.elements}
    pairs = [(toks[a], toks[b]) for (a, b) in poset.leq_pairs]
    return FiniteBasis(name, list(toks.values()), pairs)


# ---------------------------------------------------------------------------
# axiom report


@dataclass
class CheckEntry:
    name: str
    ok: bool
    witness: object = None


@dataclass
class AxiomReport:
    basis: str
    bounded: bool
    entries: List[CheckEntry] = field(default_factory=list)

    @property
    def all_pass(self):
        return all(e.ok for e in self.entries)

    def add(self, name, ok, witness=None):
        self.entries.append(CheckEntry(name, ok, witness))


def check_domain_axioms(basis: Basis, bound: Optional[int] = None) -> AxiomReport:
    """Pass/fail report for every basis invariant, witnesses attached.

    On staged bases the checks run on the tokens within `bound` and the
    report is flagged as bounded.
    """
    ts = basis.tokens(bound)
    toks = list(ts.tokens)
    report = AxiomReport(basis.name, ts.truncated)

    bad = next((t for t in toks if not basis.leq(t, t)), None)
    report.add("Reflexive", bad is None, bad)

    bad = None
    for a in toks:
        for b in toks:
            if basis.leq(a, b) and basis.leq(b, a) and a != b:
                bad = (a, b)
    report.add("Antisymmetric", bad is None, bad)

    bad = None
    for a in toks:
        for b in toks:
            if not basis.leq(a, b):
                continue
            for c in toks:
                if basis.leq(b, c) and not basis.leq(a, c):
                    bad = (a, b, c)
    report.add("Transitive", bad is None, bad)

    bad = next((t for t in toks if not basis.leq(basis.bottom, t)), None)
    report.add("BottomLeast", bad is None, bad)

    bad = None
    for a, b in itertools.combinations(toks, 2):
        has_ub = any(basis.leq(a, u) and basis.leq(b, u) for u in toks)
        if basis.cons((a, b)) != has_ub and not ts.truncated:
            bad = (a, b)
        if has_ub:
            u = basis.lub((a, b))
            if not (basis.leq(a, u) and basis.leq(b, u)):
                report.add("LubUpper", False, (a, b, u))
                return report
            for v in toks:
                if basis.leq(a, v) and basis.leq(b, v) and not basis.leq(u, v):
                    bad = (a, b, v)
                    report.add("LubNotLeast", False, bad)
                    return report
    report.add("ConsMatchesUpperBounds", bad is None, bad)
    report.add("LubLeast", True, None)
    return report


# ---------------------------------------------------------------------------
# monotone map oracle


def enumerate_monotone_maps(src: FinitePoset, dst: FinitePoset):
    """All order-preserving total maps src -> dst, each exactly once.

    Brute force: generate every total map, filter the monotone ones.
    """
    maps = []
    elems = src.elements
    for values in itertools.product(dst.elements, repeat=len(elems)):
        f = dict(zip(elems, values))
        if all(
            dst.leq(f[a], f[b])
            for a in elems
            for b in elems
            if src.leq(a, b)
        ):
            maps.append(f)
    return maps


def poset_of_basis(basis: Basis, bound=None) -> FinitePoset:
    ts = basis.tokens(bound)
    pairs = frozenset(
        (a.key, b.key) for a in ts.tokens for b in ts.tokens if basis.leq(a, b)
    )
    return FinitePoset(tuple(t.key for t in ts.tokens), pairs)


# ---------------------------------------------------------------------------
# stock posets and bases

_CATALOG_DATA = {
    "one-point": (["bot"], []),
    "two-chain": (["bot", "top"], [("bot", "top")]),
    "three-chain": (["bot", "mid", "top"], [("bot", "mid"), ("mid", "top")]),
    "vee": (["bot", "a", "b"], [("bot", "a"), ("bot", "b")]),
    "diamond": (
        ["bot", "a", "b", "top"],
        [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")],
    ),
}


def catalog_names():
    return list(_CATALOG_DATA)


def catalog_poset(name: str) -> FinitePoset:
    elems, pairs = _CATALOG_DATA[name]
    return mk_finite_poset(elems, pairs)


def catalog_basis(name: str) -> FiniteBasis:
    elems, pairs = _CATALOG_DATA[name]
    return mk_finite_basis(elems, pairs, name=name)


# name -> its one one-point basis, so that every chain's D0 and every stage
# built over it is one object
_ONE_POINT: Dict[str, FiniteBasis] = {}


def one_point_basis(name="one-point") -> FiniteBasis:
    b = _ONE_POINT.get(name)
    if b is None:
        b = _ONE_POINT[name] = mk_finite_basis(["bot"], [], name=name)
    return b


def flat_basis(points, name="flat") -> FiniteBasis:
    """Flat domain: bottom below each point, points pairwise incomparable."""
    elems = ["bot"] + [str(p) for p in points]
    return mk_finite_basis(elems, [("bot", str(p)) for p in points], name=name)


class FlatNatBasis(Basis):
    """Flat domain of natural numbers; infinitely many tokens, staged."""

    finite = False

    def __init__(self, name="flatnat"):
        self.name = name
        self._bottom = tok(("natb",))

    def nat(self, n: int) -> Token:
        return tok(("nat", n))

    def value_of(self, t: Token) -> Optional[int]:
        return t.key[1] if t.key[0] == "nat" else None

    @property
    def bottom(self):
        return self._bottom

    def has_token(self, t):
        k = t.key
        return k == ("natb",) or (
            isinstance(k, tuple) and len(k) == 2 and k[0] == "nat"
        )

    def leq(self, p, q):
        return p == self._bottom or p == q

    def cons(self, ts):
        non_bot = {t.key for t in ts if t != self._bottom}
        return len(non_bot) <= 1

    def lub(self, ts):
        non_bot = [t for t in ts if t != self._bottom]
        if not non_bot:
            return self._bottom
        if any(t != non_bot[0] for t in non_bot):
            raise NotConsistentlyComplete(
                "distinct naturals are inconsistent", witness=non_bot
            )
        return non_bot[0]

    def tokens(self, bound=None) -> TokenSet:
        n = 8 if bound is None else bound
        return TokenSet(
            (self._bottom,) + tuple(self.nat(i) for i in range(n)), True
        )
