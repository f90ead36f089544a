"""Basis constructors: separated sums (lifting is the one-part sum),
products and their strict variant, and function spaces presented by
consistent sets of step functions; token maps and the constructors' action
on them, and embedding-projection pairs as pairs of token maps.

Function-space tokens are kept in a canonical normal form: the pairs (p, v(p))
at exactly those points p of the premise-lub closure where the denoted
function v strictly exceeds the join of its values at strictly lower closure
points. Distinct canonical sets denote distinct compacts, which makes token
identity decidable.

A set of step functions is consistent exactly when it has a join, since
the bases are consistently complete.  So `canonical_steps` decides both in
one pass over the premise-lub closure: the join, when it exists, is read
off its values there, and it exists exactly when each of those values does.

A constructed token's key holds its component tokens (`basis.Token`): an
injection `("s", i, x)`, a pair `("p", x, y)` and a step set `("fn",
frozenset of (p, q))`.  Each operation reads its components off the key,
and every cache is keyed by tokens.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Optional, Sequence

from .basis import Basis, Token, TokenSet, strictly_below, tok
from .errors import InconsistentUnion, NotAnEmbedding, NotConsistentlyComplete


# ---------------------------------------------------------------------------
# step-set machinery


def apply_pairs(pairs, D: Basis, E: Basis, p: Token) -> Token:
    fired = [q for (pp, q) in pairs if D.leq(pp, p)]
    return E.lub(fired) if fired else E.bottom


def premise_closure(premises, D: Basis):
    """All lubs of nonempty consistent subsets of `premises`."""
    closure = set(premises)
    frontier = list(closure)
    while frontier:
        a = frontier.pop()
        for b in list(closure):
            if D.cons((a, b)):
                u = D.lub((a, b))
                if u not in closure:
                    closure.add(u)
                    frontier.append(u)
    return closure


def canonical_steps(pairs, D: Basis, E: Basis):
    """The canonical steps of the join of the step functions `pairs`, or
    None when they have no join (they are inconsistent).

    The join sends r to the join of the values fired at r.  It is read at
    the premise-lub closure, where it has every jump point.  It exists
    exactly when every closure point's fired values have a join: any
    premise-consistent subset lies in the fired set at the join of its
    premises, a closure point, and subsets of consistent sets are
    consistent.  The literal subset walk is kept as
    `stepset_consistent_subsets`, and the test suite proves the two agree."""
    live = [(p, q) for (p, q) in pairs if q != E.bottom]
    values = {}
    for r in premise_closure({p for (p, _) in live}, D):
        fired = [q for (p, q) in live if D.leq(p, r)]
        if not E.cons(fired):
            return None
        values[r] = E.lub(fired)
    return _jump_pairs(values, strictly_below(values, D.leq), E)


def stepset_consistent_subsets(pairs, D: Basis, E: Basis) -> bool:
    """Reference decision by exponential subset walk (oracle for the closure
    form). Premise-inconsistent branches prune; running joins stand in for
    whole chosen subsets."""
    plist = [(p, q) for (p, q) in pairs if q != E.bottom]

    def walk(i, pj, qj):
        if i == len(plist):
            return True
        if not walk(i + 1, pj, qj):
            return False
        p, q = plist[i]
        if pj is not None and not D.cons((pj, p)):
            return True
        npj = p if pj is None else D.lub((pj, p))
        if qj is not None and not E.cons((qj, q)):
            return False
        nqj = q if qj is None else E.lub((qj, q))
        return walk(i + 1, npj, nqj)

    return walk(0, None, None)


def _jump_pairs(values, below, E: Basis):
    """The canonical steps of the monotone map given by `values` at its
    probes, `below[p]` holding p's lower covers or every probe below p."""
    return frozenset(
        (p, v) for (p, v) in values.items()
        if v != E.bottom and v != E.lub([values[r] for r in below[p]])
    )


# (constructor, id of each part) -> the one basis built from those parts.
# Each basis holds its parts, so while its entry lives no id in the key can be
# reused; the entry goes when nothing else holds the basis.
_BASES: weakref.WeakValueDictionary[tuple, Basis] = weakref.WeakValueDictionary()


def _interned(kind: str, D: Basis, E: Basis, build) -> Basis:
    key = (kind, id(D), id(E))
    b = _BASES.get(key)
    if b is None:
        b = _BASES[key] = build(D, E)
    return b


# ---------------------------------------------------------------------------
# separated sums (n-ary; the binary sum and lifting are instances)


class MultiSumBasis(Basis):
    def __init__(self, parts: Sequence[Basis]):
        self.parts = tuple(parts)
        self.name = "(" + " + ".join(p.name for p in self.parts) + ")"
        self._bottom = tok(("sb",))
        self.finite = all(p.finite for p in self.parts)
        self._tokens = {}

    @property
    def bottom(self):
        return self._bottom

    def inject(self, i: int, t: Token) -> Token:
        return tok(("s", i, t))

    def split(self, t: Token):
        if t == self._bottom:
            return None
        _, i, x = t.key
        return i, x

    def has_token(self, t):
        if t == self._bottom:
            return True
        k = t.key
        if not (isinstance(k, tuple) and len(k) == 3 and k[0] == "s"):
            return False
        return self.parts[k[1]].has_token(k[2])

    def leq(self, p, q):
        if p == self._bottom:
            return True
        if q == self._bottom:
            return False
        (_, i, x), (_, j, y) = p.key, q.key
        return i == j and self.parts[i].leq(x, y)

    def _summand(self, ts):
        """(i, inner tokens) when the non-bottom tokens of ts all lie in
        summand i, i None when there are none; None when they lie in two."""
        live = [t for t in ts if t != self._bottom]
        tags = {t.key[1] for t in live}
        if len(tags) > 1:
            return None
        return (tags.pop() if tags else None), [t.key[2] for t in live]

    def cons(self, ts):
        s = self._summand(ts)
        return s is not None and (s[0] is None or self.parts[s[0]].cons(s[1]))

    def lub(self, ts):
        ts = list(ts)
        s = self._summand(ts)
        if s is None:
            raise NotConsistentlyComplete(f"mixed tags in {self.name}", witness=ts)
        i, inner = s
        return self._bottom if i is None else self.inject(i, self.parts[i].lub(inner))

    def tokens(self, bound=None):
        if bound not in self._tokens:
            self._tokens[bound] = self._enumerate(bound)
        return self._tokens[bound]

    def _enumerate(self, bound):
        toks = [self._bottom]
        exact = True
        for i, part in enumerate(self.parts):
            ts = part.tokens(bound)
            exact = exact and ts.exact
            toks.extend(self.inject(i, t) for t in ts.tokens)
        return TokenSet(tuple(toks), exact)


def sum_basis(D: Basis, E: Basis) -> MultiSumBasis:
    return _interned("sum", D, E, lambda D, E: MultiSumBasis([D, E]))


# ---------------------------------------------------------------------------
# products


class ProdBasis(Basis):
    def __init__(self, left: Basis, right: Basis, strict=False, name=None):
        self.left, self.right = left, right
        self.strict = strict
        glue = " (x) " if strict else " x "
        self.name = name or f"({left.name}{glue}{right.name})"
        self.finite = left.finite and right.finite
        self._bottom = self.pair(left.bottom, right.bottom)
        self._tokens = {}

    def pair(self, x: Token, y: Token) -> Token:
        if self.strict and (x == self.left.bottom) != (y == self.right.bottom):
            x, y = self.left.bottom, self.right.bottom
        return tok(("p", x, y))

    def split(self, t: Token):
        _, x, y = t.key
        return x, y

    @property
    def bottom(self):
        return self._bottom

    def has_token(self, t):
        k = t.key
        if not (isinstance(k, tuple) and len(k) == 3 and k[0] == "p"):
            return False
        _, x, y = k
        if not (self.left.has_token(x) and self.right.has_token(y)):
            return False
        if self.strict and (x == self.left.bottom) != (y == self.right.bottom):
            return False
        return True

    def leq(self, p, q):
        px, py = self.split(p)
        qx, qy = self.split(q)
        return self.left.leq(px, qx) and self.right.leq(py, qy)

    def cons(self, ts):
        ts = list(ts)
        return self.left.cons([self.split(t)[0] for t in ts]) and self.right.cons(
            [self.split(t)[1] for t in ts]
        )

    def lub(self, ts):
        ts = list(ts)
        if not ts:
            return self._bottom
        x = self.left.lub([self.split(t)[0] for t in ts])
        y = self.right.lub([self.split(t)[1] for t in ts])
        return self.pair(x, y)

    def tokens(self, bound=None):
        if bound not in self._tokens:
            self._tokens[bound] = self._enumerate(bound)
        return self._tokens[bound]

    def _enumerate(self, bound):
        ls = self.left.tokens(bound)
        rs = self.right.tokens(bound)
        toks = []
        for x in ls.tokens:
            for y in rs.tokens:
                if self.strict and (x == self.left.bottom) != (y == self.right.bottom):
                    continue
                toks.append(self.pair(x, y))
        return TokenSet(tuple(toks), ls.exact and rs.exact)


def prod_basis(D: Basis, E: Basis) -> ProdBasis:
    return _interned("prod", D, E, ProdBasis)


# ---------------------------------------------------------------------------
# function spaces


class FunBasis(Basis):
    def __init__(self, exponent: Basis, values: Basis):
        self.exponent = exponent
        self.values = values
        self.name = f"[{exponent.name} -> {values.name}]"
        self.finite = exponent.finite and values.finite
        self._bottom = self._wrap(frozenset())
        self._tokens = {}
        self._apply_cache = {}
        self._leq_cache = {}
        self._joins = {}  # set of steps -> its join's token, None when none

    def _wrap(self, pairs) -> Token:
        return tok(("fn", frozenset(pairs)))

    def make(self, pairs) -> Token:
        """Canonical token from raw (premise, value) pairs; checks consistency."""
        pairs = list(pairs)
        out = self._join(pairs)
        if out is None:
            raise InconsistentUnion(
                f"inconsistent step set in {self.name}", witness=pairs
            )
        return out

    def _join(self, pairs) -> Optional[Token]:
        """The token of the join of the steps `pairs`, None when they have
        none; each distinct set is closed once."""
        key = frozenset(pairs)
        try:
            return self._joins[key]
        except KeyError:
            steps = canonical_steps(key, self.exponent, self.values)
            out = self._joins[key] = None if steps is None else self._wrap(steps)
            return out

    def pairs(self, t: Token):
        """The (premise, value) steps of t: the set its key holds."""
        return t.key[1]

    @property
    def bottom(self):
        return self._bottom

    def has_token(self, t):
        k = t.key
        return isinstance(k, tuple) and len(k) == 2 and k[0] == "fn"

    def apply(self, f: Token, p: Token) -> Token:
        k = (f, p)
        try:
            return self._apply_cache[k]
        except KeyError:
            v = self._apply_cache[k] = apply_pairs(
                self.pairs(f), self.exponent, self.values, p
            )
            return v

    def leq(self, f, g):
        k = (f, g)
        try:
            return self._leq_cache[k]
        except KeyError:
            v = self._leq_cache[k] = all(
                self.values.leq(q, self.apply(g, p)) for (p, q) in self.pairs(f)
            )
            return v

    def cons(self, ts):
        return self._join(pq for t in ts for pq in self.pairs(t)) is not None

    def lub(self, ts):
        ts = list(ts)
        out = self._join(pq for t in ts for pq in self.pairs(t))
        if out is None:
            raise InconsistentUnion(
                f"lub of inconsistent step sets in {self.name}", witness=ts
            )
        return out

    def from_function(self, value_at: Callable[[Token], Token]) -> Token:
        """Token of the monotone map given by values on a finite exponent."""
        values = {p: value_at(p) for p in self.exponent.tokens().tokens}
        return self._wrap(_jump_pairs(values, self.exponent.covers, self.values))

    def from_probes(self, values: Dict[Token, Token]) -> Token:
        """Canonical token of a monotone map given by its values at probe
        points, each compared with the join at the probes `strictly_below` it.

        Precondition: the probes contain every jump point of the map and,
        for each probe, the join of values at strictly lower probes equals
        the join over all strictly lower compacts.  This holds for h . t
        with h monotone on the premise closure of t's steps and the bottom;
        the bottom may be left out when h is strict."""
        below = strictly_below(values, self.exponent.leq)
        return self._wrap(_jump_pairs(values, below, self.values))

    def tokens(self, bound=None):
        if bound not in self._tokens:
            if self.finite and bound is None:
                self._tokens[bound] = TokenSet(self._enumerate_all(), True)
            else:
                # a bound asks for the bounded view, on a finite basis too;
                # avoids materialising huge function spaces
                self._tokens[bound] = self._enumerate_bounded(bound)
        return self._tokens[bound]

    def _enumerate_all(self):
        vals = self.values.tokens().tokens
        return tuple(
            self.from_function(lambda p: a[p])
            for a in self.monotone_maps(lambda p: vals)
        )

    def monotone_maps(self, candidates):
        """Yield each monotone map from the exponent tokens into the values,
        point p ranging over candidates(p), once, depth first.  The points
        are walked in the linear extension of the exponent's `covers`, each
        checked only against its lower covers.  Each map is a fresh dict,
        point -> value, and candidates(p) is asked only when the search
        reaches p."""
        covers, values = self.exponent.covers, self.values
        order = list(covers)
        assignment = {}

        def rec(i):
            if i == len(order):
                yield dict(assignment)
                return
            p = order[i]
            for v in candidates(p):
                if all(values.leq(assignment[u], v) for u in covers[p]):
                    assignment[p] = v
                    yield from rec(i + 1)

        return rec(0)

    def _enumerate_bounded(self, bound):
        # staged function spaces blow up fast; keep the sample small and
        # honestly flagged (single-step tokens over capped component prefixes)
        b = 3 if bound is None else bound
        es = self.exponent.tokens(b).tokens[: b + 1]
        vs = self.values.tokens(b).tokens[: 4 * b]
        steps = [(p, q) for p in es for q in vs if q != self.values.bottom]
        toks = [self._bottom, *(self._join([step]) for step in steps)]
        return TokenSet(tuple(dict.fromkeys(t for t in toks if t is not None)), False)


def fun_basis(D: Basis, E: Basis) -> FunBasis:
    return _interned("fun", D, E, FunBasis)


# ---------------------------------------------------------------------------
# token maps, the functor's action on them, and embedding-projection pairs


class TokenMap:
    """A monotone map from source tokens to target tokens, memoised per
    token."""

    def __init__(self, source: Basis, target: Basis, fn: Callable[[Token], Token]):
        self.source = source
        self.target = target
        self._fn = fn
        self._memo: Dict[Token, Token] = {}

    def __call__(self, t: Token) -> Token:
        try:
            return self._memo[t]
        except KeyError:
            v = self._memo[t] = self._fn(t)
            return v


def identity_map(B: Basis) -> TokenMap:
    return TokenMap(B, B, lambda t: t)


def sum_map(f: TokenMap, g: TokenMap) -> TokenMap:
    """f + g: each summand by its own map, bottom to bottom."""
    src = sum_basis(f.source, g.source)
    tgt = sum_basis(f.target, g.target)
    parts = (f, g)

    def fn(t):
        s = src.split(t)
        if s is None:
            return tgt.bottom
        i, x = s
        return tgt.inject(i, parts[i](x))

    return TokenMap(src, tgt, fn)


def prod_map(f: TokenMap, g: TokenMap) -> TokenMap:
    src = prod_basis(f.source, g.source)
    tgt = prod_basis(f.target, g.target)

    def fn(t):
        x, y = src.split(t)
        return tgt.pair(f(x), g(y))

    return TokenMap(src, tgt, fn)


def exp_map(a: "Embedding", h: TokenMap) -> TokenMap:
    """[a -> h] : [D -> E] -> [D' -> E'] for an ep-pair a: D -> D' and a map
    h: E -> E', sending t to h . t . proj(a).

    The composite is read at the images under a of t's premise closure and
    of the bottom: those points hold every jump point for any monotone h."""
    D = a.source
    src = fun_basis(D, h.source)
    tgt = fun_basis(a.target, h.target)

    def fn(t):
        steps = src.pairs(t)
        points = premise_closure({p for (p, _) in steps}, D) | {D.bottom}
        return tgt.from_probes(
            {
                q: h(apply_pairs(steps, D, src.values, a.proj(q)))
                for q in map(a.fwd, points)
            }
        )

    return TokenMap(src, tgt, fn)


class Embedding:
    """Embedding-projection pair: a token map and its projection back."""

    def __init__(self, fwd: TokenMap, proj: TokenMap, name=""):
        self.fwd_map = fwd
        self.proj_map = proj
        self.source = fwd.source
        self.target = fwd.target
        self.name = name or f"{self.source.name}>->{self.target.name}"

    def fwd(self, t: Token) -> Token:
        return self.fwd_map(t)

    def proj(self, t: Token) -> Token:
        return self.proj_map(t)

    def compose(self, other: "Embedding") -> "Embedding":
        """self after other (other first)."""
        return Embedding(
            TokenMap(other.source, self.target, lambda t: self.fwd(other.fwd(t))),
            TokenMap(self.target, other.source, lambda t: other.proj(self.proj(t))),
            name=f"{self.name}.{other.name}",
        )


def identity_embedding(B: Basis) -> Embedding:
    return Embedding(identity_map(B), identity_map(B), name=f"id_{B.name}")


def verify_embedding(emb: Embedding, bound=None):
    """Check the ep-pair laws on enumerated tokens; raise with a witness."""
    src = emb.source.tokens(bound)
    tgt = emb.target.tokens(bound)
    for p in src.tokens:
        for q in src.tokens:
            if emb.source.leq(p, q) != emb.target.leq(emb.fwd(p), emb.fwd(q)):
                raise NotAnEmbedding(
                    f"{emb.name}: not monotone and order-reflecting", witness=(p, q)
                )
    for p in src.tokens:
        if emb.proj(emb.fwd(p)) != p:
            raise NotAnEmbedding(
                f"{emb.name}: projection after embedding is not the identity",
                witness=p,
            )
    for q in tgt.tokens:
        if not emb.target.leq(emb.fwd(emb.proj(q)), q):
            raise NotAnEmbedding(
                f"{emb.name}: embedding after projection exceeds the identity",
                witness=q,
            )
    return True
