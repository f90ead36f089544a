"""Effective bases of compact elements for countably based Scott domains.

A basis is the data (tokens, decidable order, consistency, least upper
bounds); finite bases are materialised eagerly, infinite ones (flat naturals,
inductive limits, function spaces over them) answer queries algorithmically
and enumerate their tokens up to an explicit bound with a truncation flag.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .errors import (
    NoLeastElement,
    NotAntisymmetric,
    NotConsistentlyComplete,
    UnknownToken,
)


def render_key(key) -> str:
    """Human-readable name, computed from the structural key alone: a
    composite key's component tokens are rendered by their own keys."""
    if isinstance(key, tuple):
        tag = key[0] if key else None
        if tag == "natb" or tag == "sb":
            return "bot"
        if tag == "nat":
            return str(key[1])
        if tag == "s":
            return f"in{key[1]}({render_key(key[2].key)})"
        if tag == "p":
            return f"({render_key(key[1].key)},{render_key(key[2].key)})"
        if tag == "fn":
            items = sorted(
                f"{render_key(p.key)}=>{render_key(q.key)}" for (p, q) in key[1]
            )
            return "{" + ", ".join(items) + "}"
        if tag == "lim":
            return f"@{key[1]}:{render_key(key[2].key)}"
        if tag == "pb":
            return "{" + ",".join(str(x) for x in key[1]) + "}"
    return str(key)


class Token:
    """Compact element of a basis, hash-consed: `tok` keeps one token per
    key, so two tokens are equal exactly when they are the same object, and
    the hash of the key is computed once.  Build tokens with `tok` only.

    A leaf key is data: a name, `("nat", n)`, `("natb",)`, `("sb",)` or
    `("pb", points)`.  A composite key holds the tokens of its components,
    never their keys: `("s", i, x)`, `("p", x, y)`, `("fn", frozenset of
    (p, q))` and `("lim", n, u)`, so a component is read straight off the
    key.  A token hashes as its key, and so a composite key hashes as the
    nested key of raw keys would."""

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


# key -> its one token; equal keys share an entry, as equal tokens must.
# The table only grows: a command runs in its own process and enumerates
# a bounded fragment, so it holds no more tokens than that run built.
_TOKENS: Dict[object, Token] = {}


def tok(key) -> Token:
    t = _TOKENS.get(key)
    if t is None:
        t = _TOKENS[key] = Token(key)
    return t


class Frozen:
    """A value record: two are equal, and hash alike, when they have one type
    and equal fields.  `__init__` sets the fields once, through
    `vars(self).update`; assigning a field afterwards raises."""

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign field {name!r} of a frozen record")


class TokenSet(Frozen):
    """Result of a bounded token enumeration, and whether it is complete."""

    def __init__(self, tokens: Tuple[Token, ...], exact: bool):
        vars(self).update(tokens=tokens, exact=exact)

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self):
        return len(self.tokens)


class Basis:
    """Interface shared by all basis implementations. Immutable and pure.

    A basis is consistently complete: a finite set is consistent (`cons`)
    exactly when it has a least upper bound (`lub`).  Each class works out
    one join per set, and `lub` raises exactly where `cons` is False."""

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

    @cached_property
    def covers(self) -> Dict[Token, List[Token]]:
        """`lower_covers` of `tokens()`, built once per basis."""
        return lower_covers(self.tokens().tokens, self.leq)


def strictly_below(points, leq) -> Dict[Token, Set[Token]]:
    """Each of the `points`, a collection, mapped to those strictly below it."""
    return {p: {u for u in points if u != p and leq(u, p)} for p in points}


def lower_covers(points, leq) -> Dict[Token, List[Token]]:
    """Each of the `points`, a collection, mapped to its lower covers, the
    maximal points strictly below it.  Keys and lists run in a linear
    extension: fewest points below first, ties in the given order."""
    below = strictly_below(points, leq)
    order = sorted(below, key=lambda p: len(below[p]))
    deep = {p: set().union(*(below[u] for u in below[p])) for p in order}
    return {p: [u for u in order if u in below[p] and u not in deep[p]] for p in order}


# ---------------------------------------------------------------------------
# finite posets (oracle substrate) and finite bases


class FinitePoset(Frozen):
    def __init__(
        self, elements: Tuple[object, ...], leq_pairs: FrozenSet[Tuple[object, object]]
    ):
        vars(self).update(elements=elements, leq_pairs=leq_pairs)

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

    def __init__(self, name, toks: List[Token], leq_pairs):
        self.name = name
        self._tokens = tuple(toks)
        self._members = frozenset(self._tokens)
        if len(self._members) != len(self._tokens):
            raise ValueError(f"duplicate tokens in basis {name}")
        self._leq = frozenset(leq_pairs)
        bottoms = [
            t for t in self._tokens if all((t, u) in self._leq for u in self._tokens)
        ]
        if not bottoms:
            raise NoLeastElement(f"basis {name} has no least token")
        self._bottom = bottoms[0]
        # set -> its join, None when it has none
        self._lub_cache: Dict[FrozenSet[Token], Optional[Token]] = {}
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
        return t in self._members

    def leq(self, p: Token, q: Token) -> bool:
        return (p, q) in self._leq

    def _join(self, ts: FrozenSet[Token]) -> Optional[Token]:
        """The least upper bound of ts, None when ts has none.  The basis
        is checked consistently complete, so a set has a join exactly when
        it has an upper bound; a token outside the basis has none."""
        try:
            return self._lub_cache[ts]
        except KeyError:
            ubs = [u for u in self._tokens if all(self.leq(t, u) for t in ts)]
            least = [u for u in ubs if all(self.leq(u, v) for v in ubs)]
            out = self._lub_cache[ts] = least[0] if least else None
            return out

    def cons(self, ts) -> bool:
        return self._join(frozenset(ts)) is not None

    def lub(self, ts) -> Token:
        ts = frozenset(ts)
        out = self._join(ts)
        if out is None:
            raise NotConsistentlyComplete(
                f"lub of inconsistent set in {self.name}", witness=ts
            )
        return out

    def tokens(self, bound=None) -> TokenSet:
        return TokenSet(self._tokens, True)


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
# verdicts and the axiom report


class Verdict(Frozen):
    """One library verdict. `holds` is True, False, or None when undecided
    at `bound`, the enumeration bound it was reached at (None: no bound).
    `witness` and `clause` name what decided it."""

    def __init__(
        self, holds: Optional[bool], witness: object = None,
        bound: Optional[int] = None, clause: str = "",
    ):
        vars(self).update(holds=holds, witness=witness, bound=bound, clause=clause)


def conjoin(cases, bound=None, exact=True) -> Verdict:
    """The one three-valued conjunction: the `(holds, witness)` cases read
    in order.  The first failing case is the verdict, with its witness, and
    nothing past it is read; otherwise the verdict is None when a case is
    undecided or the cases are not `exact` (the list is not complete), and
    True when every case holds."""
    undecided = not exact
    for holds, witness in cases:
        if holds is False:
            return Verdict(False, witness, bound)
        undecided = undecided or holds is None
    return Verdict(None if undecided else True, None, bound)


def both(*holds: Optional[bool]) -> Optional[bool]:
    """`conjoin`'s bare form: False when one of `holds` is False, else None
    when one is None, else True (True for none)."""
    return False if False in holds else None if None in holds else True


class Checks:
    """Named verdicts in the order added, each looked up by its name;
    `cases` counts what a suite ran."""

    def __init__(self):
        self.entries: List[Tuple[str, Verdict]] = []
        self.cases = 0

    def add(self, name, holds, witness=None, bound=None):
        self.entries.append((name, Verdict(holds, witness, bound)))

    def __getitem__(self, name) -> Verdict:
        return dict(self.entries)[name]

    @property
    def all_pass(self):
        return all(v.holds is True for (_, v) in self.entries)


def check_domain_axioms(basis: Basis, bound: Optional[int] = None) -> Checks:
    """A verdict for every basis invariant, witnesses attached.

    On staged bases the checks run on the tokens within `bound`, and each
    verdict carries that bound; it is None when the tokens are exhaustive.
    """
    ts = basis.tokens(bound)
    toks = list(ts.tokens)
    bound = None if ts.exact else bound
    report = Checks()

    def add(name, bad):
        report.add(name, bad is None, bad, bound)

    add("Reflexive", next((t for t in toks if not basis.leq(t, t)), None))

    bad = None
    for a in toks:
        for b in toks:
            if basis.leq(a, b) and basis.leq(b, a) and a != b:
                bad = (a, b)
    add("Antisymmetric", bad)

    bad = None
    for a in toks:
        for b in toks:
            if not basis.leq(a, b):
                continue
            for c in toks:
                if basis.leq(b, c) and not basis.leq(a, c):
                    bad = (a, b, c)
    add("Transitive", bad)

    add("BottomLeast", next((t for t in toks if not basis.leq(basis.bottom, t)), None))

    bad = None
    for a, b in itertools.combinations(toks, 2):
        has_ub = any(basis.leq(a, u) and basis.leq(b, u) for u in toks)
        if basis.cons((a, b)) != has_ub and ts.exact:
            bad = (a, b)
        if has_ub:
            u = basis.lub((a, b))
            if not (basis.leq(a, u) and basis.leq(b, u)):
                add("LubUpper", (a, b, u))
                return report
            for v in toks:
                if basis.leq(a, v) and basis.leq(b, v) and not basis.leq(u, v):
                    add("LubNotLeast", (a, b, v))
                    return report
    add("ConsMatchesUpperBounds", bad)
    add("LubLeast", None)
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


def poset_of_basis(basis: Basis) -> FinitePoset:
    ts = basis.tokens()
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

    name = "flatnat"
    finite = False

    def __init__(self):
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
        non_bot = {t for t in ts if t != self._bottom}
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
            (self._bottom,) + tuple(self.nat(i) for i in range(n)), False
        )
