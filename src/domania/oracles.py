"""Brute-force oracle suites: every check compares a construction against an
independent enumeration at desk scale.

The environment variable DOMANIA_SEED fixes the ordering of exhaustive
scans; it never skips cases.
"""

from __future__ import annotations

import itertools
import os
import random
from typing import Dict, List, Tuple

from .basis import (
    Checks,
    FiniteBasis,
    catalog_basis,
    catalog_names,
    catalog_poset,
    enumerate_monotone_maps,
    poset_of_basis,
    transitive_reflexive_closure,
)
from .construct import (
    Embedding,
    TokenMap,
    exp_map,
    fun_basis,
    identity_embedding,
    prod_map,
    sum_map,
    verify_embedding,
)
from .errors import DomaniaError, NotAnEmbedding
from .per import (
    DomainPer,
    check_property,
    finite_per,
    is_equiembedding,
    per_construct,
)


def scan_order(items):
    """Deterministic scan ordering; a seed permutes but never drops."""
    items = list(items)
    seed = os.environ.get("DOMANIA_SEED")
    if seed is not None:
        rng = random.Random(int(seed))
        rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# function spaces against monotone maps


def fun_space_suite(max_size: int = 4) -> Checks:
    """Step-set tokens must be in order-isomorphic bijection with the
    brute-force monotone maps, for every ordered catalog pair."""
    result = Checks()
    names = [n for n in catalog_names() if len(catalog_poset(n).elements) <= max_size]
    for dn in scan_order(names):
        for en in scan_order(names):
            D, E = catalog_basis(dn), catalog_basis(en)
            fb = fun_basis(D, E)
            toks = list(fb.tokens().tokens)
            maps = enumerate_monotone_maps(poset_of_basis(D), poset_of_basis(E))
            result.cases += 1
            if len(toks) != len(maps):
                result.add(
                    f"count {dn}->{en}", False, f"{len(toks)} vs {len(maps)}", max_size
                )
                continue
            dtoks = list(D.tokens().tokens)
            graphs = {t: tuple(fb.apply(t, p) for p in dtoks) for t in toks}
            oracle_graphs = {tuple(m[p.key] for p in dtoks) for m in maps}
            if {tuple(v.key for v in g) for g in graphs.values()} != oracle_graphs:
                result.add(f"bijection {dn}->{en}", False, bound=max_size)
                continue
            order_ok = True
            for s in toks:
                for t in toks:
                    pointwise = all(
                        E.leq(a, b) for (a, b) in zip(graphs[s], graphs[t])
                    )
                    if fb.leq(s, t) != pointwise:
                        order_ok = False
            result.add(f"order-iso {dn}->{en}", order_ok, bound=max_size)
    return result


# ---------------------------------------------------------------------------
# per enumeration helpers


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def all_pers(basis: FiniteBasis) -> List[DomainPer]:
    """Every symmetric-transitive relation on the carrier: a subset of the
    tokens partitioned into classes."""
    toks = list(basis.tokens().tokens)
    out = []
    for r in range(len(toks) + 1):
        for domain in itertools.combinations(toks, r):
            for part in set_partitions(list(domain)):
                pairs = [
                    (a, b) for cls in part for a in cls for b in cls
                ]
                out.append(finite_per(basis, pairs))
    return out


def clc_pers(basis: FiniteBasis) -> List[DomainPer]:
    out = []
    for per in all_pers(basis):
        if all(
            check_property(per, prop).holds
            for prop in ("convex", "local", "complete")
        ):
            out.append(per)
    return out


def enumerate_embeddings(src: FiniteBasis, tgt: FiniteBasis) -> List[Embedding]:
    """All embedding-projection pairs between two finite bases, from the
    brute-force walk over injective token maps."""
    s_toks = list(src.tokens().tokens)
    t_toks = list(tgt.tokens().tokens)
    out = []
    for values in itertools.permutations(t_toks, len(s_toks)):
        fwd_map = dict(zip(s_toks, values))
        if not all(
            src.leq(a, b) == tgt.leq(fwd_map[a], fwd_map[b])
            for a in s_toks
            for b in s_toks
        ):
            continue
        ok = True
        proj_map = {}
        for q in t_toks:
            below = [p for p in s_toks if tgt.leq(fwd_map[p], q)]
            if not below:
                ok = False
                break
            cand = src.lub(below)
            if not tgt.leq(fwd_map[cand], q):
                ok = False
                break
            proj_map[q] = cand
        if not ok:
            continue
        out.append(
            Embedding(
                TokenMap(src, tgt, fwd_map.__getitem__),
                TokenMap(tgt, src, proj_map.__getitem__),
            )
        )
    return out


def _constructed_equiembedding(emb: Embedding, P: DomainPer, Q: DomainPer) -> bool:
    try:
        verify_embedding(emb)
    except NotAnEmbedding:
        return False
    return is_equiembedding(emb, P, Q).holds is not False


def per_preservation_suite(max_size: int = 3) -> Checks:
    """Sum and product preserve convex+local+complete; so does the function
    space when the exponent per is dense; functorial images of
    equiembeddings remain equiembeddings, ep-pair laws included. Exhaustive
    over all pers on the catalog carriers up to the size bound."""
    result = Checks()
    names = [n for n in catalog_names() if len(catalog_poset(n).elements) <= max_size]
    clc: Dict[str, List[DomainPer]] = {}
    dense: Dict[str, List[DomainPer]] = {}
    for n in names:
        basis = catalog_basis(n)
        clc[n] = clc_pers(basis)
        dense[n] = [
            p for p in clc[n] if check_property(p, "dense").holds
        ]

    bad = None
    for dn in names:
        for en in names:
            for P in clc[dn]:
                for Q in clc[en]:
                    result.cases += 1
                    for kind in ("sum", "prod"):
                        made = per_construct(kind, P, Q)
                        for prop in ("convex", "local", "complete"):
                            if not check_property(made, prop).holds:
                                bad = (kind, dn, en, prop)
    result.add("sum-prod-preservation", bad is None, bad, max_size)

    bad = None
    for dn in names:
        for en in names:
            for B in dense[dn]:
                for Q in clc[en]:
                    result.cases += 1
                    made = per_construct("fun", B, Q)
                    for prop in ("convex", "local", "complete"):
                        if not check_property(made, prop).holds:
                            bad = (dn, en, prop)
    result.add("fun-preservation", bad is None, bad, max_size)

    # equiembeddings, each with its source and target pers: collect them,
    # then close under the constructors
    ee: List[Tuple[Embedding, DomainPer, DomainPer, str, str]] = []
    for dn in names:
        for en in names:
            src_b, tgt_b = catalog_basis(dn), catalog_basis(en)
            for emb in enumerate_embeddings(src_b, tgt_b):
                for P in clc[dn]:
                    for Q in clc[en]:
                        if is_equiembedding(emb, P, Q).holds is not False:
                            ee.append((emb, P, Q, dn, en))
    result.cases += len(ee)

    bad = None
    seen_signatures = set()
    for (f, fP, fQ, fdn, fen) in ee:
        for (g, gP, gQ, gdn, gen) in ee:
            sig = (fdn, fen, gdn, gen)
            if sig in seen_signatures:
                continue
            seen_signatures.add(sig)
            for kind, act in (("sum", sum_map), ("prod", prod_map)):
                # F on an ep-pair: F on each of its two maps
                made = Embedding(
                    act(f.fwd_map, g.fwd_map), act(f.proj_map, g.proj_map)
                )
                if not _constructed_equiembedding(
                    made, per_construct(kind, fP, gP), per_construct(kind, fQ, gQ)
                ):
                    bad = (kind, fdn, fen, gdn, gen)
    result.add("sum-prod-equiembedding-closure", bad is None, bad, max_size)

    bad = None
    for (f, fP, fQ, fdn, fen) in ee:
        for bn in names:
            for B in dense[bn][:3]:
                a = identity_embedding(B.carrier)
                made = Embedding(exp_map(a, f.fwd_map), exp_map(a, f.proj_map))
                if not _constructed_equiembedding(
                    made, per_construct("fun", B, fP), per_construct("fun", B, fQ)
                ):
                    bad = (bn, fdn, fen)
    result.add("exp-equiembedding-closure", bad is None, bad, max_size)
    return result


# ---------------------------------------------------------------------------
# per limits


def limit_per_suite(count: int = 20) -> Checks:
    """Deterministically generated 3-stage chains with verified links: the
    limit per must satisfy the per axioms, keep convex/local/complete on
    fragments, and give equivalent elements equal rank."""
    from .builtins import builtin_per, sierpinski_per
    from .ordinals import omega_plus
    from .perlfp import per_chain_extend
    from .spfunctor import ConstD, Exp, Id, Prod, Sum

    # exponents stay two-chains so function spaces remain desk-sized
    shapes = [
        Sum(ConstD("A"), Id()),
        Sum(ConstD("A"), Exp("B", Id())),
        Sum(Prod(ConstD("A"), ConstD("A")), Id()),
        Prod(ConstD("A"), Id()),
        Sum(ConstD("A"), Prod(ConstD("B"), Id())),
        Sum(Exp("B", Id()), ConstD("A")),
        Sum(ConstD("A"), Sum(ConstD("B"), Id())),
    ]
    params = ["sierpinski", "flatbool", "discrete(3)"]
    result = Checks()
    built = 0
    for shape in shapes:
        for a_name in params:
            if built >= count:
                break
            env = {"A": builtin_per(a_name), "B": sierpinski_per()}
            built += 1
            name = f"chain{built}"
            try:
                chain = per_chain_extend(shape, env, omega_plus(1), n_finite=3)
            except DomaniaError as e:
                result.add(name, False, str(e), count)
                continue
            plim = chain.per_limit
            ok = True
            witness = None
            ts, _ = plim.per.totals(3)
            for a in ts:
                for b in ts:
                    r_ab = plim.per.related(a, b)
                    if r_ab is True and plim.per.related(b, a) is not True:
                        ok, witness = False, "symmetry"
                    if r_ab is True:
                        if plim.rank_of(a) != plim.rank_of(b):
                            ok, witness = False, "rank mismatch"
            for prop in ("convex", "local", "complete"):
                if check_property(plim.per, prop, 3).holds is False:
                    ok, witness = False, prop
            result.add(name, ok, witness, count)
            result.cases += 1
    return result


# ---------------------------------------------------------------------------
# standard representations


def canonical_posets(max_points: int):
    """Finite posets up to order isomorphism, by brute canonicalisation."""
    out = []
    seen = set()
    for n in range(1, max_points + 1):
        elems = list(range(n))
        base_pairs = [(i, j) for i in elems for j in elems if i < j]
        for mask in range(1 << len(base_pairs)):
            chosen = {p for b, p in enumerate(base_pairs) if mask >> b & 1}
            # pairs only go upward, so the closure is antisymmetric
            rel = transitive_reflexive_closure(elems, chosen)
            sig = min(
                tuple(sorted((perm[a], perm[b]) for (a, b) in rel))
                for perm in (
                    dict(zip(elems, p)) for p in itertools.permutations(elems)
                )
            )
            if (n, sig) not in seen:
                seen.add((n, sig))
                out.append((n, frozenset(rel)))
    return out


def spaces_from_posets(max_points: int):
    from .qcb import mk_space

    spaces = []
    for (n, rel) in canonical_posets(max_points):
        points = [str(i) for i in range(n)]
        opens = []
        for r in range(n + 1):
            for combo in itertools.combinations(range(n), r):
                up = all(
                    (b in combo) for a in combo for b in range(n) if (a, b) in rel
                )
                if up:
                    opens.append([str(i) for i in combo])
        spaces.append(mk_space(f"poset{len(spaces)}", points, opens))
    return spaces


def pseudobases_of(space, max_sets: int):
    from .qcb import validate_pseudobase

    pts = frozenset(space.points)
    proper = [
        frozenset(c)
        for r in range(1, len(space.points))
        for c in itertools.combinations(space.points, r)
    ]
    out = []
    for r in range(0, max_sets):
        for combo in itertools.combinations(proper, r):
            fam = list(combo) + [pts]
            if validate_pseudobase(space, fam).holds:
                out.append(fam)
    return out


def standard_rep_suite(max_points: int = 4, max_sets: int = 5) -> Checks:
    from .qcb import (
        quotient_matches_space,
        recovered_pseudobase,
        standard_representation,
        validate_pseudobase,
    )

    result = Checks()
    bad_props = bad_quot = bad_greatest = bad_recovered = None
    for space in spaces_from_posets(max_points):
        for fam in pseudobases_of(space, max_sets):
            result.cases += 1
            rep = standard_representation(space, fam)
            for prop in ("convex", "local", "complete"):
                if not check_property(rep.per, prop).holds:
                    bad_props = (space.name, prop)
            if not quotient_matches_space(rep):
                bad_quot = space.name
            ts, _ = rep.per.totals()
            for x in space.points:
                g = rep.greatest_representative(x)
                for t in ts:
                    if rep.decode[t] == x:
                        if not (
                            rep.per.carrier.leq(t, g)
                            and rep.per.related(t, g) is True
                        ):
                            bad_greatest = (space.name, x)
            recovered = recovered_pseudobase(rep)
            if not validate_pseudobase(space, recovered).holds:
                bad_recovered = space.name
    # a witness only where a check failed
    for (name, bad) in (
        ("convex-local-complete", bad_props),
        ("quotient-topology", bad_quot),
        ("greatest-representative", bad_greatest),
        ("recovered-pseudobase", bad_recovered),
    ):
        result.add(name, bad is None, bad, max_points)
    return result
