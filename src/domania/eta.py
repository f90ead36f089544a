"""Evaluation machinery over the dense least fixed point: the input per of
an equation, the one-step evaluation map and its lower adjoint, iterated
evaluation against input sequences, and the weak isomorphism between the
fixed point and its dense image in a function space of admissible shape.

A lower adjoint preserves every join that exists, so the lower adjoint of a
step set is the join of its value on each step.  One step of the one-step
map is one walk down the equation; one step of the curried evaluation is
one branch walk up its path, from the parameter value its code ends in
through the one-step adjoint at each entry of its premise."""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

# `tok` is unused here but stays importable as `domania.eta.tok`:
# perfbench/selftest.py checks that its tracer rebinds that name
from .basis import FlatNatBasis, Token, one_point_basis, tok  # noqa: F401
from .basis import Checks, conjoin
from .builtins import flatnat_per
from .construct import MultiSumBasis, ProdBasis, apply_pairs
from .dense import DenseLfp
from .errors import MalformedCode, NonDenseExponent, NotWitnessed
from .per import (
    ALL_YES,
    DomainPer,
    PerFlags,
    ProdRel,
    SumRel,
    finite_per,
    per_construct,
    pointwise_flags,
    prec_check,
    replace,
)
from .perlfp import PerChain
from .spfunctor import (
    ConstD,
    Exp,
    FunctorExpr,
    Id,
    Prod,
    Sum,
    carrier_table,
    functor_action,
    subterms,
)


# ---------------------------------------------------------------------------
# atomic subfunctors and the input per


def atomic_subfunctors(expr: FunctorExpr) -> List[FunctorExpr]:
    """Every occurrence of the identity or of a constant, in reading order."""
    return [e for (_, e) in subterms(expr) if isinstance(e, (Id, ConstD))]


def _point_per() -> DomainPer:
    b = one_point_basis("T")
    return finite_per(b, [(b.bottom, b.bottom)], flags=ALL_YES)


# the input per of a sub-term: a point for the variable and each constant,
# products across sums, sums across products, and the exponent paired in
# front of exponentials
INPUT_PERS = (
    lambda B: _point_per(),
    partial(per_construct, "prod"),
    partial(per_construct, "sum"),
    partial(per_construct, "prod"),
)


def input_per_table(
    expr: FunctorExpr, env: Dict[str, DomainPer]
) -> Dict[int, DomainPer]:
    """Input per of every sub-term of expr, keyed by id(sub-term).  Each is
    built once and reused by the sub-term above it."""
    for (_, e) in subterms(expr):
        if isinstance(e, Exp) and env[e.param].flags.dense is not True:
            raise NonDenseExponent(f"exponent {e.param!r} is not flagged dense")
    table: Dict[int, DomainPer] = {}
    functor_action(expr, _point_per(), env, INPUT_PERS, table)
    return table


def multi_sum_per(parts: Sequence[DomainPer]) -> DomainPer:
    carrier = MultiSumBasis([p.carrier for p in parts])
    return DomainPer(
        carrier, SumRel(carrier, list(parts)), pointwise_flags(p.flags for p in parts)
    )


def _prec(per: DomainPer, v: Token, target: Token, bound=None) -> bool:
    """v approximates the class of target in per; bottom when target is not
    total."""
    if per.related(target, target) is not True:
        return v == per.carrier.bottom
    return prec_check(per, v, target, bound)


def find_witness(
    pairs, candidates: DomainPer, inputs: DomainPer, outputs: DomainPer, evaluate,
    bound=None,
) -> Optional[Token]:
    """The first representative x of `candidates` that witnesses the step
    set `pairs`: at every total input t, the joins `pairs` fire approximate
    the class of `evaluate(x, t)` in `outputs`; None when no class within the
    bound has one.  Whether x witnesses does not change within its class, as
    `evaluate` is equivariant.  One search serves the one-step map and the
    curried evaluation."""
    ts, _ = inputs.totals(bound)

    def witnesses(x):
        return all(
            _prec(outputs, apply_pairs(pairs, inputs.carrier, outputs.carrier, t),
                  evaluate(x, t), bound)
            for t in ts
        )

    return next((x for x in candidates.representatives(bound)[0] if witnesses(x)), None)


# ---------------------------------------------------------------------------
# one-step evaluation: eta and theta


class EtaSystem:
    """Bundles the input per, the indexed codomain, and the one-step maps
    for a built dense least fixed point."""

    def __init__(self, lfp: DenseLfp):
        self.lfp = lfp
        self.chain: PerChain = lfp.chain
        self.expr = self.chain.functor
        self.env = self.chain.env
        self.iso = self.chain.iso
        self._carriers = carrier_table(
            self.expr,
            self.chain.per_limit.limit,
            {k: v.carrier for k, v in self.env.items()},
        )

        self.K = atomic_subfunctors(self.expr)
        # the number of atomic subfunctors of each sub-term, by id(sub-term)
        self._width = {
            id(e): len(atomic_subfunctors(e)) for (_, e) in subterms(self.expr)
        }
        input_pers = input_per_table(self.expr, self.env)
        self._input_carriers = {k: p.carrier for (k, p) in input_pers.items()}
        self.input_per = input_pers[id(self.expr)]
        self.T = self.input_per.carrier
        if not self.T.finite:
            raise NonDenseExponent(
                "evaluation machinery needs a finite input carrier"
            )

        parts = []
        self.const_positions = []
        for k, sub in enumerate(self.K):
            if isinstance(sub, ConstD):
                parts.append(self.env[sub.name])
                self.const_positions.append(k)
            else:
                parts.append(self.chain.per_limit.per)
        self.codomain_per = multi_sum_per(parts)
        self.codomain = self.codomain_per.carrier
        self.unfolded_per = self.chain.unfolded[0]
        self.unfolded = self.iso.unfolded

        self.fun_per = per_construct("fun", self.input_per, self.codomain_per)
        self.fun_basis = self.fun_per.carrier

        self._eta_cache = {}

    # ---- structural evaluation -------------------------------------------
    def _side(self, expr, offset: int, i: int):
        """Side i of a sum or product, with the index of its first atomic
        subfunctor when expr's first one sits at offset."""
        if i == 0:
            return expr.left, offset
        return expr.right, offset + self._width[id(expr.left)]

    def eval_eta(self, x_value, t: Token):
        """One-step evaluation of an unfolded value against an input token."""
        return self._eval(self.expr, 0, x_value, t)

    def _eval(self, expr, offset, x, t):
        if isinstance(expr, (Id, ConstD)):
            # the constant map sending every input to the tagged element
            return self.codomain.inject(offset, x)
        carrier = self._carriers[id(expr)]
        tin = self._input_carriers[id(expr)]
        if isinstance(expr, Sum):
            spl = carrier.split(x)
            if spl is None:
                return self.codomain.bottom
            i, xi = spl
            sub, off = self._side(expr, offset, i)
            return self._eval(sub, off, xi, tin.split(t)[i])
        if isinstance(expr, Prod):
            x0, x1 = carrier.split(x)
            spl = tin.split(t)
            if spl is None:
                return self.codomain.bottom
            i, ti = spl
            sub, off = self._side(expr, offset, i)
            return self._eval(sub, off, (x0, x1)[i], ti)
        if isinstance(expr, Exp):
            t0, t1 = tin.split(t)
            return self._eval(expr.body, offset, carrier.apply(x, t0), t1)
        raise TypeError(expr)

    def eta_token(self, x: Token) -> Token:
        """The one-step map as a canonical step set over the input carrier."""
        if x not in self._eta_cache:
            self._eta_cache[x] = self.fun_basis.from_function(
                lambda t: self.eval_eta(x, t)
            )
        return self._eta_cache[x]

    # ---- the lower adjoint -------------------------------------------------
    def theta(self, q: Token, bound=None) -> Token:
        """Lower adjoint on witnessed compacts of the one-step image."""
        pairs = self.fun_basis.pairs(q)
        if not pairs:
            return self.unfolded.bottom
        if find_witness(
            pairs, self.unfolded_per, self.input_per, self.codomain_per,
            self.eval_eta, bound,
        ) is None:
            raise NotWitnessed(
                "no total certifies the compact within the bound", witness=q
            )
        return self._theta(self.expr, 0, pairs)

    def _theta(self, expr, offset, pairs) -> Token:
        """The lower adjoint at sub-term expr: a lower adjoint preserves
        joins, so the step set's image is the join, in expr's carrier, of
        `_step` over its steps whose value is not bottom, and the carrier's
        bottom when there is none."""
        return self._carriers[id(expr)].lub([
            self._step(expr, offset, p, q)
            for (p, q) in pairs
            if q != self.codomain.bottom
        ])

    def _step(self, expr, offset, p, q) -> Token:
        """The least value at sub-term expr whose one-step map sends the
        input p to at least q: a leaf holds q's inner value, a sum takes
        the side q's tag names, a product the side the premise names (the
        other factor stays bottom), and an exponential the single step
        from the premise's exponent part."""
        if isinstance(expr, (Id, ConstD)):
            return self.codomain.split(q)[1]
        carrier = self._carriers[id(expr)]
        tin = self._input_carriers[id(expr)]
        if isinstance(expr, Sum):
            k = self.codomain.split(q)[0]
            i = int(k >= offset + self._width[id(expr.left)])
            sub, off = self._side(expr, offset, i)
            return carrier.inject(i, self._step(sub, off, tin.split(p)[i], q))
        if isinstance(expr, Prod):
            spl = tin.split(p)
            if spl is None:
                raise NotWitnessed(
                    "a bottom premise would fire in both factors", witness=q
                )
            i, pi = spl
            sub, off = self._side(expr, offset, i)
            parts = [carrier.left.bottom, carrier.right.bottom]
            parts[i] = self._step(sub, off, pi, q)
            return carrier.pair(*parts)
        if isinstance(expr, Exp):
            p0, p1 = tin.split(p)
            return carrier.make([(p0, self._step(expr.body, offset, p1, q))])
        raise TypeError(expr)


# ---------------------------------------------------------------------------
# iterated evaluation


def encode_path(path: Sequence[int], k_count: int) -> int:
    n = 1
    for k in path:
        n = n * (k_count + 1) + k
    return n


def decode_path(n: int, k_count: int) -> List[int]:
    if n < 1:
        raise MalformedCode(f"{n} is not a path code", witness=n)
    digits = []
    base = k_count + 1
    while n > 0:
        digits.append(n % base)
        n //= base
    digits.reverse()
    if digits[0] != 1:
        raise MalformedCode("missing leading sentinel digit", witness=digits)
    if any(d >= k_count for d in digits[1:]):
        raise MalformedCode("digit outside the subfunctor range", witness=digits)
    return digits[1:]


MAX_STEPS = 16  # one-step evaluations before an iterated evaluation stops


class EtaBarSystem:
    """Curried iterated evaluation and its lower adjoint.  An input sequence
    is a value of U, the right-nested product of `support` copies of the
    input per, related entry by entry."""

    def __init__(self, eta: EtaSystem, support: int):
        self.eta = eta
        self.support = support

        self.u_per = eta.input_per
        spine = []
        for _ in range(support - 1):
            self.u_per = per_construct("prod", eta.input_per, self.u_per)
            spine.append(self.u_per.carrier)
        # the product carriers from the outermost in: entry m is the left
        # part after m right projections
        self._spine = spine[::-1]
        self.U = self.u_per.carrier
        self.nat = FlatNatBasis()

        self.a_parts = [eta.env[eta.K[k].name] for k in eta.const_positions]
        self.a_sum = multi_sum_per(self.a_parts)
        self.E = ProdBasis(self.a_sum.carrier, self.nat, strict=True, name="E")
        self.e_per = DomainPer(
            self.E,
            ProdRel(self.E, self.a_sum, flatnat_per()),
            PerFlags(
                convex=True, local=True, complete=True,
                dense=True,
                admissible_pedigree=self.a_sum.flags.admissible_pedigree,
                countably_based=True,
            ),
        )
        self.fun_per = per_construct("fun", self.u_per, self.e_per)
        self.fun_basis = self.fun_per.carrier
        self._bar_cache = {}

    # ---- input sequences ---------------------------------------------------
    def entry_at(self, u: Token, m: int) -> Token:
        """Entry m of the input sequence u; bottom past the support."""
        if m >= self.support:
            return self.eta.T.bottom
        for prod in self._spine[:m]:
            u = prod.split(u)[1]
        return self._spine[m].split(u)[0] if m < len(self._spine) else u

    # ---- zeta --------------------------------------------------------------
    def _const_index(self, k: int) -> Optional[int]:
        try:
            return self.eta.const_positions.index(k)
        except ValueError:
            return None

    def evaluate_zeta(self, x: Token, u: Token) -> Token:
        """Iterate one-step evaluation along the entries of u: the token of
        E pairing the parameter value reached with the code of the path of
        atomic-subfunctor indices taken, or E's bottom when no parameter
        value is reached."""
        eta = self.eta
        path = []
        current = x  # a limit token
        for m in range(MAX_STEPS):
            z = eta.eval_eta(eta.iso.fwd(current), self.entry_at(u, m))
            spl = eta.codomain.split(z)
            if spl is None:
                break
            k, d = spl
            n = self._const_index(k)
            if n is not None:
                code = encode_path(path, len(eta.K))
                return self.E.pair(self.a_sum.carrier.inject(n, d), self.nat.nat(code))
            path.append(k)
            current = d
        return self.E.bottom

    def eta_bar(self, x: Token) -> Token:
        """The curried evaluation of x as a canonical compact of [U -> E]."""
        if x not in self._bar_cache:
            self._bar_cache[x] = self.fun_basis.from_function(
                lambda u: self.evaluate_zeta(x, u)
            )
        return self._bar_cache[x]

    # ---- the lower adjoint -------------------------------------------------
    def build_tree(self, pairs):
        """The branches `theta_bar` joins: each step (p, q) of a compact of
        [U -> E] decoded into its premise p, the A-part of q and the path
        q's code names."""
        steps = []
        for (p, q) in pairs:
            a_part, n_part = self.E.split(q)
            n_val = self.nat.value_of(n_part)
            if n_val is None:
                raise MalformedCode("result lacks a defined path code", witness=q)
            steps.append((p, a_part, decode_path(n_val, len(self.eta.K))))
        return steps

    def theta_bar(self, q: Token, witness: Optional[Token] = None, bound=None) -> Token:
        """Lower adjoint of the curried evaluation.  It preserves joins, so
        it is the join of one branch walk per step (p, q_i): the walk starts
        at the parameter value q_i's A-part names and climbs q_i's path from
        its last entry to the root, folding the one-step adjoint of the
        single step from that level's premise entry."""
        pairs = self.fun_basis.pairs(q)
        if not pairs:
            return self.eta.chain.per_limit.limit.bottom
        if witness is None and find_witness(
            pairs, self.eta.chain.per_limit.per, self.u_per, self.e_per,
            self.evaluate_zeta, bound,
        ) is None:
            raise NotWitnessed(
                "no total certifies the compact within the bound", witness=q
            )
        eta = self.eta
        branches = []
        for (p, a_part, path) in self.build_tree(pairs):
            n, inner = self.a_sum.carrier.split(a_part)
            value = eta.codomain.inject(eta.const_positions[n], inner)
            for level in range(len(path), -1, -1):
                step = [(self.entry_at(p, level), value)]
                value = eta.iso.inv(eta._theta(eta.expr, 0, step))
                if level:
                    value = eta.codomain.inject(path[level - 1], value)
            branches.append(value)
        return eta.chain.per_limit.limit.lub(branches)


# ---------------------------------------------------------------------------
# the weak isomorphism with the dense image


def dense_image_weak_iso(lfp: DenseLfp, rank_bound: int = 3) -> Checks:
    """Round-trip checks between the fixed point and its image under the
    curried evaluation, each at the rank bound; one that does not pass
    withdraws the fixed point's admissible-pedigree flag."""
    eta = EtaSystem(lfp)
    bar = EtaBarSystem(eta, support=rank_bound + 1)
    report = Checks()

    classes, _ = lfp.per.classes(rank_bound)
    members = [x for cls in classes for x in cls]

    def reflects():
        # x ~ y exactly when their evaluations are related: each member
        # against its class's first member, then the first members pairwise
        for cls in classes:
            first = bar.eta_bar(cls[0])
            for x in cls:
                yield bar.fun_per.related(first, bar.eta_bar(x)), (cls[0], x)
        for c in classes:
            for d in classes:
                if c is not d:
                    lhs = lfp.per.related(c[0], d[0])
                    rhs = bar.fun_per.related(bar.eta_bar(c[0]), bar.eta_bar(d[0]))
                    yield None if None in (lhs, rhs) else lhs == rhs, (c[0], d[0])

    def fixed_point_trips():
        for x in members:
            back = bar.theta_bar(bar.eta_bar(x), witness=x)
            yield lfp.per.related(back, x), x

    def image_trips():
        for x in members:
            y = bar.eta_bar(x)
            back = bar.eta_bar(bar.theta_bar(y, witness=x))
            yield bar.fun_per.related(back, y), x

    for name, cases in (
        ("evaluation-reflects-classes", reflects()),
        ("round-trip-fixed-point", fixed_point_trips()),
        ("round-trip-image", image_trips()),
    ):
        v = conjoin(cases)
        report.add(name, v.holds, v.witness, rank_bound)

    # the assembled fixed point is flagged admissible when every parameter
    # is; a round trip that does not pass withdraws the flag
    if not report.all_pass:
        lfp.per.flags = replace(lfp.per.flags, admissible_pedigree=None)
    return report
