"""Basis constructors: sums, products, lifting, strict variants, and function
spaces presented by consistent sets of step functions, plus the functorial
action on embedding-projection pairs.

Function-space tokens are kept in a canonical normal form: the pairs (p, v(p))
at exactly those points p of the premise-lub closure where the denoted
function v strictly exceeds the join of its values at strictly lower closure
points. Distinct canonical sets denote distinct compacts, which makes token
identity decidable.
"""

from __future__ import annotations

import weakref
from typing import Callable, Sequence

from .basis import Basis, Token, TokenSet, tok
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


def stepset_consistent(pairs, D: Basis, E: Basis) -> bool:
    """Every premise-consistent subset must have consistent values.

    Decided through the premise-lub closure: it suffices that the fired set
    at every closure point has consistent values, because any premise-
    consistent subset is contained in the fired set at the join of its
    premises, and subsets of consistent sets are consistent. The literal
    subset walk is kept as `stepset_consistent_subsets` and the test suite
    proves the two agree.
    """
    plist = [(p, q) for (p, q) in pairs if q != E.bottom]
    if not plist:
        return True
    closure = premise_closure({p for (p, _) in plist}, D)
    for r in closure:
        fired = [q for (p, q) in plist if D.leq(p, r)]
        if not E.cons(fired):
            return False
    return True


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
        npj = p if pj is None else D.lub2(pj, p)
        if qj is not None and not E.cons((qj, q)):
            return False
        nqj = q if qj is None else E.lub2(qj, q)
        return walk(i + 1, npj, nqj)

    return walk(0, None, None)


def canonical_pairs(pairs, D: Basis, E: Basis):
    """Canonical presentation of the function denoted by a consistent set."""
    live = [(p, q) for (p, q) in pairs if q != E.bottom]
    if not live:
        return frozenset()
    probes = premise_closure({p for (p, _) in live}, D)
    values = {p: apply_pairs(live, D, E, p) for p in probes}
    return _jump_pairs(probes, values, D, E)


def _jump_pairs(probes, values, D: Basis, E: Basis):
    out = []
    for p in probes:
        lower = [values[r] for r in probes if r != p and D.leq(r, p)]
        join_lower = E.lub(lower) if lower else E.bottom
        if values[p] != join_lower and values[p] != E.bottom:
            out.append((p, values[p]))
    return frozenset(out)


def canonical_from_probes(probes, value_at: Callable[[Token], Token], D, E):
    """Canonical presentation of a monotone map given on probe points.

    Precondition: `probes` contains every jump point of the map and, for each
    probe, the join of values at strictly lower probes equals the join over
    all strictly lower compacts (true when probes is the whole finite basis
    or the premise closure of some presentation).
    """
    values = {p: value_at(p) for p in probes}
    return _jump_pairs(set(probes), values, D, E)


def _pairs_key(pairs):
    return ("fn", frozenset((p.key, q.key) for (p, q) in pairs))


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
# disjoint sums (n-ary; binary separated/strict and lifting are instances)


class MultiSumBasis(Basis):
    def __init__(self, parts: Sequence[Basis], strict=False, name=None):
        self.parts = tuple(parts)
        self.strict = strict
        glue = " (+) " if strict else " + "
        self.name = name or "(" + glue.join(p.name for p in self.parts) + ")"
        self._bottom = tok(("sb",))
        self.finite = all(p.finite for p in self.parts)
        self._tokens = {}

    @property
    def bottom(self):
        return self._bottom

    def inject(self, i: int, t: Token) -> Token:
        if self.strict and t == self.parts[i].bottom:
            return self._bottom
        return tok(("s", i, t.key))

    def split(self, t: Token):
        if t == self._bottom:
            return None
        _, i, key = t.key
        return i, tok(key)

    def has_token(self, t):
        if t == self._bottom:
            return True
        k = t.key
        if not (isinstance(k, tuple) and len(k) == 3 and k[0] == "s"):
            return False
        i = k[1]
        inner = tok(k[2])
        if self.strict and inner == self.parts[i].bottom:
            return False
        return self.parts[i].has_token(inner)

    def leq(self, p, q):
        if p == self._bottom:
            return True
        if q == self._bottom:
            return False
        (_, i, pk), (_, j, qk) = p.key, q.key
        if i != j:
            return False
        return self.parts[i].leq(tok(pk), tok(qk))

    def cons(self, ts):
        live = [t for t in ts if t != self._bottom]
        if not live:
            return True
        tags = {t.key[1] for t in live}
        if len(tags) > 1:
            return False
        i = tags.pop()
        return self.parts[i].cons([tok(t.key[2]) for t in live])

    def lub(self, ts):
        live = [t for t in ts if t != self._bottom]
        if not live:
            return self._bottom
        tags = {t.key[1] for t in live}
        if len(tags) > 1:
            raise NotConsistentlyComplete(
                f"mixed tags in {self.name}", witness=live
            )
        i = tags.pop()
        inner = self.parts[i].lub([tok(t.key[2]) for t in live])
        return self.inject(i, inner)

    def tokens(self, bound=None):
        if bound not in self._tokens:
            self._tokens[bound] = self._enumerate(bound)
        return self._tokens[bound]

    def _enumerate(self, bound):
        toks = [self._bottom]
        truncated = False
        for i, part in enumerate(self.parts):
            ts = part.tokens(bound)
            truncated = truncated or ts.truncated
            for t in ts.tokens:
                w = self.inject(i, t)
                if w != self._bottom:
                    toks.append(w)
        return TokenSet(tuple(toks), truncated)


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
        return tok(("p", x.key, y.key))

    def split(self, t: Token):
        _, xk, yk = t.key
        return tok(xk), tok(yk)

    @property
    def bottom(self):
        return self._bottom

    def has_token(self, t):
        k = t.key
        if not (isinstance(k, tuple) and len(k) == 3 and k[0] == "p"):
            return False
        x, y = tok(k[1]), tok(k[2])
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
        return TokenSet(tuple(toks), ls.truncated or rs.truncated)


def prod_basis(D: Basis, E: Basis) -> ProdBasis:
    return _interned("prod", D, E, ProdBasis)


# ---------------------------------------------------------------------------
# function spaces


class FunBasis(Basis):
    def __init__(self, exponent: Basis, values: Basis, name=None):
        self.exponent = exponent
        self.values = values
        self.name = name or f"[{exponent.name} -> {values.name}]"
        self.finite = exponent.finite and values.finite
        self._bottom = self._wrap(frozenset())
        self._tokens = {}
        self._apply_cache = {}
        self._pairs_cache = {}
        self._leq_cache = {}
        self._cons_cache = {}
        self._join_cache = {}

    def _wrap(self, pairs) -> Token:
        return tok(_pairs_key(pairs))

    def make(self, pairs) -> Token:
        """Canonical token from raw (premise, value) pairs; checks consistency."""
        pairs = list(pairs)
        if not self._consistent(pairs):
            raise InconsistentUnion(
                f"inconsistent step set in {self.name}", witness=pairs
            )
        return self._canonical(pairs)

    def pairs(self, t: Token):
        """The decoded (premise, value) steps of t, decoded once per token."""
        if t.key not in self._pairs_cache:
            _, fs = t.key
            self._pairs_cache[t.key] = tuple((tok(pk), tok(qk)) for (pk, qk) in fs)
        return self._pairs_cache[t.key]

    @property
    def bottom(self):
        return self._bottom

    def has_token(self, t):
        k = t.key
        return isinstance(k, tuple) and len(k) == 2 and k[0] == "fn"

    def apply(self, f: Token, p: Token) -> Token:
        k = (f.key, p.key)
        if k not in self._apply_cache:
            self._apply_cache[k] = apply_pairs(
                self.pairs(f), self.exponent, self.values, p
            )
        return self._apply_cache[k]

    def leq(self, f, g):
        k = (f.key, g.key)
        if k not in self._leq_cache:
            self._leq_cache[k] = all(
                self.values.leq(q, self.apply(g, p)) for (p, q) in self.pairs(f)
            )
        return self._leq_cache[k]

    def _consistent(self, pairs):
        key = frozenset((p.key, q.key) for (p, q) in pairs)
        if key not in self._cons_cache:
            self._cons_cache[key] = stepset_consistent(
                pairs, self.exponent, self.values
            )
        return self._cons_cache[key]

    def _canonical(self, pairs):
        key = frozenset((p.key, q.key) for (p, q) in pairs)
        if key not in self._join_cache:
            self._join_cache[key] = self._wrap(
                canonical_pairs(pairs, self.exponent, self.values)
            )
        return self._join_cache[key]

    def cons(self, ts):
        allpairs = [pq for t in ts for pq in self.pairs(t)]
        return self._consistent(allpairs)

    def lub(self, ts):
        allpairs = [pq for t in ts for pq in self.pairs(t)]
        if not self._consistent(allpairs):
            raise InconsistentUnion(
                f"lub of inconsistent step sets in {self.name}", witness=list(ts)
            )
        return self._canonical(allpairs)

    def from_function(self, value_at: Callable[[Token], Token]) -> Token:
        """Token of the monotone map given by values on a finite exponent."""
        probes = list(self.exponent.tokens().tokens)
        return self._wrap(
            canonical_from_probes(probes, value_at, self.exponent, self.values)
        )

    def tokens(self, bound=None):
        if bound not in self._tokens:
            if self.finite and bound is None:
                self._tokens[bound] = TokenSet(self._enumerate_all(), False)
            else:
                # a bound asks for the bounded view, on a finite basis too;
                # avoids materialising huge function spaces
                self._tokens[bound] = self._enumerate_bounded(bound)
        return self._tokens[bound]

    def _enumerate_all(self):
        vals = self.values.tokens().tokens
        out = []
        self.monotone_maps(
            lambda p: vals,
            lambda a: out.append(self.from_function(lambda p: a[p])),
        )
        return tuple(out)

    def monotone_maps(self, candidates, visit) -> bool:
        """Depth-first over the monotone maps from the exponent tokens into the
        values, point p ranging over candidates(p); each map is visited once.
        The points are walked in a linear extension, fewest tokens below
        first and ties in token order, so each point is checked only against
        its lower points, listed once.  visit(assignment) runs at each
        complete map; a True return stops the search, and is returned."""
        exp, values = self.exponent, self.values
        toks = exp.tokens().tokens
        order = sorted(toks, key=lambda t: sum(1 for u in toks if exp.leq(u, t)))
        lower = [[u for u in order[:i] if exp.leq(u, t)] for i, t in enumerate(order)]
        assignment = {}

        def rec(i):
            if i == len(order):
                return visit(assignment)
            p = order[i]
            for v in candidates(p):
                if all(values.leq(assignment[u], v) for u in lower[i]):
                    assignment[p] = v
                    if rec(i + 1):
                        return True
            return False

        return rec(0)

    def _enumerate_bounded(self, bound):
        # staged function spaces blow up fast; keep the sample small and
        # honestly flagged (single-step tokens over capped component prefixes)
        b = 3 if bound is None else bound
        es = self.exponent.tokens(b).tokens[: b + 1]
        vs = self.values.tokens(b).tokens[: 4 * b]
        cands = [(p, q) for p in es for q in vs if q != self.values.bottom]
        toks = {self._bottom.key: self._bottom}
        for combo in cands:
            if stepset_consistent([combo], self.exponent, self.values):
                t = self._wrap(canonical_pairs([combo], self.exponent, self.values))
                toks[t.key] = t
        return TokenSet(tuple(toks.values()), True)


def fun_basis(D: Basis, E: Basis) -> FunBasis:
    return _interned("fun", D, E, FunBasis)


# ---------------------------------------------------------------------------
# embedding-projection pairs


class Embedding:
    """Embedding-projection pair presented by its action on tokens."""

    def __init__(self, source: Basis, target: Basis, fwd, proj, name=""):
        self.source = source
        self.target = target
        self._fwd = fwd
        self._proj = proj
        self.name = name or f"{source.name}>->{target.name}"
        self._fwd_cache = {}
        self._proj_cache = {}

    def fwd(self, t: Token) -> Token:
        if t.key not in self._fwd_cache:
            self._fwd_cache[t.key] = self._fwd(t)
        return self._fwd_cache[t.key]

    def proj(self, t: Token) -> Token:
        if t.key not in self._proj_cache:
            self._proj_cache[t.key] = self._proj(t)
        return self._proj_cache[t.key]

    def compose(self, other: "Embedding") -> "Embedding":
        """self after other (other first)."""
        return Embedding(
            other.source,
            self.target,
            lambda t: self.fwd(other.fwd(t)),
            lambda t: other.proj(self.proj(t)),
            name=f"{self.name}.{other.name}",
        )


def identity_embedding(B: Basis) -> Embedding:
    return Embedding(B, B, lambda t: t, lambda t: t, name=f"id_{B.name}")


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


def sum_embedding(f: Embedding, g: Embedding) -> Embedding:
    src = sum_basis(f.source, g.source)
    tgt = sum_basis(f.target, g.target)
    parts = (f, g)

    def fwd(t):
        s = src.split(t)
        if s is None:
            return tgt.bottom
        i, x = s
        return tgt.inject(i, parts[i].fwd(x))

    def proj(t):
        s = tgt.split(t)
        if s is None:
            return src.bottom
        i, x = s
        return src.inject(i, parts[i].proj(x))

    return Embedding(src, tgt, fwd, proj, name=f"({f.name}+{g.name})")


def prod_embedding(f: Embedding, g: Embedding) -> Embedding:
    src = prod_basis(f.source, g.source)
    tgt = prod_basis(f.target, g.target)

    def fwd(t):
        x, y = src.split(t)
        return tgt.pair(f.fwd(x), g.fwd(y))

    def proj(t):
        x, y = tgt.split(t)
        return src.pair(f.proj(x), g.proj(y))

    return Embedding(src, tgt, fwd, proj, name=f"({f.name}x{g.name})")


def exp_fixed_embedding(B: Basis, f: Embedding) -> Embedding:
    """[id_B -> f] : [B -> D] -> [B -> D']."""
    src = fun_basis(B, f.source)
    tgt = fun_basis(B, f.target)

    def fwd(t):
        return tgt.make([(p, f.fwd(q)) for (p, q) in src.pairs(t)])

    def proj(t):
        live = [(p, q) for (p, q) in tgt.pairs(t)]
        probes = premise_closure({p for (p, _) in live}, B)
        return src._wrap(
            canonical_from_probes(
                probes,
                lambda p: f.proj(apply_pairs(live, B, f.target, p)),
                B,
                f.source,
            )
        )

    return Embedding(src, tgt, fwd, proj, name=f"[id_{B.name}->{f.name}]")


def exp_general_embedding(f: Embedding, g: Embedding) -> Embedding:
    """(f- -> g) : [D -> E] -> [D' -> E'] for embeddings f: D->D', g: E->E'."""
    src = fun_basis(f.source, g.source)
    tgt = fun_basis(f.target, g.target)

    def fwd(t):
        return tgt.make([(f.fwd(p), g.fwd(q)) for (p, q) in src.pairs(t)])

    def proj(t):
        # the only half that enumerates the exponent
        if not f.source.finite:
            raise NotAnEmbedding(
                "general exponent action needs a finite source exponent"
            )
        live = [(p, q) for (p, q) in tgt.pairs(t)]
        probes = list(f.source.tokens().tokens)
        return src._wrap(
            canonical_from_probes(
                probes,
                lambda p: g.proj(apply_pairs(live, f.target, g.target, f.fwd(p))),
                f.source,
                g.source,
            )
        )

    return Embedding(src, tgt, fwd, proj, name=f"[{f.name}- -> {g.name}]")
