"""Registry of reproduction targets with frozen expected values.

Every target names a computation over the corpus, the bound it runs at,
and the value it must produce.  Provenance vocabulary:

  * "pinned": the value comes from the reference inventory of component
    counts and verdicts that this tool set out to reproduce.
  * "derived": the value was computed by an independent oracle (brute
    force, hand enumeration) and frozen here.
  * "definitional": forced by a convention, e.g. the empty product being
    the terminal model.
  * "published": the value is a term, or a sum of terms, of a published
    integer sequence (OEIS), so it shares nothing with this code.

Bounds matter: counts are counts among models whose carriers stay under
the stated size, and every bound note says why that window suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .closure import (
    LAW_SAMPLES,
    ModelClass,
    check_theory_morphism_bounded,
    class_of,
    closure_Hloc,
    closure_P,
    closure_Sc,
    definable_class,
    enumerate_models,
    hsp_closure,
    operator_law_report,
    surjective_image_closure,
)
from .corpus import (
    chain_poset,
    compiled_osemiring,
    endo_primes,
    get_chain,
    get_group,
    get_morphism,
    get_theory,
    m_lattice,
    nset_structure,
    ordered_semiring,
    ordinal_U,
    presheaf_L,
)
from .homsearch import (
    exact_local_retraction,
    local_retraction_check,
)
from .groups import all_subgroups
from .parser import parse_sequents
from .sigma import (
    HomQuiver,
    acc_probe,
    build_hom_quiver,
    gset_sigma_check,
    is_chain,
    sigma_of_structures,
    subgroup_category,
    verify_fam_theorem,
)
from .structures import (
    Homomorphism,
    canonical_key,
    chain_colimit,
    is_surjective,
    structure_size,
)
from .suites import (
    definable_fixpoint_suite,
    probe_property_suite,
    sigma_invariant_suite,
)
from .syntax import check_relative_judgment, validate_theory


@dataclass
class RunContext:
    seed: int = 20250814
    cache_dir: Optional[str] = None


@dataclass(frozen=True)
class ReproductionTarget:
    name: str
    tags: tuple
    bound: str
    provenance: str
    expected: object
    run: Callable[[RunContext], object]


def _sigma_count(theory_name, k):
    def run(ctx):
        U = enumerate_models(get_theory(theory_name), k, ctx.cache_dir)
        return len(sigma_of_structures(list(U.members)).components)
    return run


def _no_backward_homs(family):
    """Certify no homomorphism down the chain and one up every step."""
    def run(ctx):
        edges = build_hom_quiver(family).edges
        n = len(family)
        return {"backward-homs": sum(edges[i][j] for i in range(n) for j in range(i)),
                "forward-homs": sum(edges[j][i] for i in range(n) for j in range(i))}
    return run


def _acc(chain_name, horizon):
    def run(ctx):
        res = acc_probe(get_chain(chain_name), horizon)
        out = {"stabilized": res.stabilized, "horizon": res.horizon}
        if res.stabilized:
            out["stage"] = res.stage
        else:
            out["witness"] = list(res.witness)
        return out
    return run


def _colimit(chain_name, horizon):
    def run(ctx):
        res = chain_colimit(get_chain(chain_name), horizon)
        out = {"kind": res.kind}
        if res.kind == "exact":
            out["stage"] = res.stage
        return out
    return run


def _law_report(theory_name, k):
    def run(ctx):
        U = enumerate_models(get_theory(theory_name), k, ctx.cache_dir)
        rep = operator_law_report(U, seed=ctx.seed)
        return {"classes": rep.classes, "violations": rep.violations}
    return run


def _suite(fn):
    def run(ctx):
        rep = fn()
        return {"instances": rep.instances, "failures": len(rep.failures)}
    return run


def _ordinal_sigma(k, check_universe=False):
    """Components of the descending stage family over a (k+1)-sort chain
    base.  The family has one stage per tail-supported pattern, so the
    component poset is a (k+2)-chain; at k=2 the whole bounded universe is
    cheap enough to corroborate that no pattern was missed."""
    def run(ctx):
        family = [ordinal_U(k + 1, a) for a in range(k + 2)]
        P = sigma_of_structures(family)
        out = {"components": len(P.components), "chain": is_chain(P)}
        if check_universe:
            U = enumerate_models(get_theory(f"chaincov-{k + 1}"), k,
                                 ctx.cache_dir)
            Q = sigma_of_structures(list(U.members))
            out["universe-components"] = len(Q.components)
        return out
    return run


def _run_remark_locret(ctx):
    theory = get_theory("remark-locret-2")
    U = enumerate_models(theory, 2, ctx.cache_dir)
    extra = parse_sequents(
        "[x : el] u0(x) = e() & u1(x) = e() |- x = e();", theory.signature)
    E = definable_class(U, extra)
    res = hsp_closure(E)
    recipe = get_chain("remark-chain-2")
    col = chain_colimit(recipe, 6)
    a_idx = U.index[canonical_key(col.structure)]
    early = [U.index[canonical_key(recipe.structure_at(n))] in E.indices
             for n in (0, 1)]
    return {
        "universe-size": len(U.members),
        "class-size": len(E.indices),
        "hsp-fixpoint": res.fixpoint
                        and res.model_class.indices == E.indices,
        "colimit-kind": col.kind,
        "colimit-stage": col.stage,
        "colimit-in-class": a_idx in E.indices,
        "early-stages-in-class": early,
    }


def _run_remark_constants(ctx):
    theory = get_theory("nset-3")
    U = enumerate_models(theory, 3, ctx.cache_dir)
    X = nset_structure(3, 2, ("0", "1", "1"))
    Y = nset_structure(3, 1, ("0", "0", "0"))
    p = Homomorphism(X, Y, {"el": {"0": "0", "1": "0"}}, "merge")
    verdict = local_retraction_check(p, [U.plan(i) for i in range(len(U))])
    exact, rule = exact_local_retraction(p)
    E = class_of(U, [X])
    y_idx = U.index[canonical_key(Y)]
    return {
        "surjective": is_surjective(p),
        "probe-verdict": verdict.verdict,
        "exact": exact,
        "exact-rule": rule,
        "merged-in-surjective-closure":
            y_idx in surjective_image_closure(E).indices,
        "merged-in-locret-closure": y_idx in closure_Hloc(E).indices,
    }


def _run_closure_p_empty(ctx):
    U = enumerate_models(get_theory("set"), 3, ctx.cache_dir)
    E = ModelClass(U, frozenset([0]))
    out = closure_P(E)
    return {"sizes": sorted(structure_size(X) for X in out.members())}


def _run_closure_p_two_chain(ctx):
    U = enumerate_models(get_theory("pos"), 4, ctx.cache_dir)
    E = class_of(U, [chain_poset(2)])
    out = closure_P(E)
    return {"count": len(out.indices),
            "sizes": sorted(structure_size(X) for X in out.members())}


def _run_closure_sc_two_chain(ctx):
    U = enumerate_models(get_theory("pos"), 2, ctx.cache_dir)
    E = class_of(U, [chain_poset(2)])
    out = closure_Sc(E)
    discrete2 = next(i for i, X in enumerate(U.members)
                     if structure_size(X) == 2 and len(X.relations["leq"]) == 2)
    return {"count": len(out.indices), "has-discrete-2": discrete2 in out.indices}


def _run_closure_hloc_two_point(ctx):
    U = enumerate_models(get_theory("set"), 2, ctx.cache_dir)
    two = next(i for i, X in enumerate(U.members) if structure_size(X) == 2)
    out = closure_Hloc(ModelClass(U, frozenset([two])))
    return {"count": len(out.indices), "has-empty": 0 in out.indices}


def _universe_counts(*plan):
    def run(ctx):
        return {f"{name} k={k}": len(enumerate_models(get_theory(name), k,
                                                      ctx.cache_dir).members)
                for name, k in plan}
    return run


def _fam(base_builder, m):
    def run(ctx):
        rep = verify_fam_theorem(base_builder(), m)
        return {"iso": rep.iso, "lattice-size": len(rep.expected.components)}
    return run


def _gset(group_name, k):
    def run(ctx):
        rep = gset_sigma_check(get_group(group_name), k)
        return {"components": rep.components, "iso": rep.iso}
    return run


def _run_subgroup_counts(ctx):
    return [len(all_subgroups(get_group(g)))
            for g in ("trivial", "c2", "c4", "s3")]


def _morphism(morphism_name, k):
    def run(ctx):
        verdict = check_theory_morphism_bounded(get_morphism(morphism_name), k,
                                                ctx.cache_dir)
        out = {"kind": verdict.kind}
        if verdict.kind == "countermodel":
            out["witness-size"] = structure_size(verdict.structure)
        return out
    return run


def _run_semiring_judgments(ctx):
    rt = ordered_semiring()
    admissible = sum(1 for j in rt.judgments if check_relative_judgment(rt, j))
    compiled = compiled_osemiring()
    validate_theory(compiled)
    return {"judgments": len(rt.judgments), "admissible": admissible,
            "compiled-validates": True}


# A family of like targets is a table, one row per target.  Its bound text,
# runner and expected value all read a parameter from the row's one copy.


def _sigma_count_targets(*rows):
    """Rows: name, theory, carrier bound k, components."""
    return [ReproductionTarget(
        name, ("sigma-count",),
        f"components among models with every carrier at most {k}; "
        "each component already has a representative that small",
        "pinned", components, _sigma_count(theory, k))
        for name, theory, k, components in rows]


def _acc_targets(*rows):
    """Rows: name, chain, horizon, stabilized, stage or else witness, provenance,
    bound with {horizon}."""
    return [ReproductionTarget(
        name, ("acc-true" if stabilized else "acc-false",), bound.format(horizon=horizon),
        provenance, {"stabilized": stabilized, "horizon": horizon,
                     "stage" if stabilized else "witness": outcome},
        _acc(chain, horizon))
        for name, chain, horizon, stabilized, outcome, provenance, bound in rows]


def _colimit_targets(*rows):
    """Rows: name, tags, chain, horizon, provenance, expected, bound with {horizon}."""
    return [ReproductionTarget(name, tags, bound.format(horizon=horizon), provenance,
                               expected, _colimit(chain, horizon))
            for name, tags, chain, horizon, provenance, expected, bound in rows]


def _law_report_targets(*rows):
    """Rows: theory, carrier bound k, what its models are, classes."""
    return [ReproductionTarget(
        f"closure-laws-{theory}", ("closure-laws",),
        f"{models}, carriers at most {k}; all singleton classes plus {LAW_SAMPLES} sampled",
        "derived", {"classes": classes, "violations": 0}, _law_report(theory, k))
        for theory, k, models, classes in rows]


def _count_targets(*rows):
    """Rows: name, provenance, {(theory, k): members up to isomorphism}, bound."""
    return [ReproductionTarget(
        name, ("enumeration",), bound, provenance,
        {f"{theory} k={k}": members for (theory, k), members in counts.items()},
        _universe_counts(*counts))
        for name, provenance, counts, bound in rows]


def _fam_targets(*rows):
    """Rows: name, tags, base quiver builder, family size m, lattice size,
    bound with {m}."""
    return [ReproductionTarget(name, tags, bound.format(m=m), "derived",
                               {"iso": True, "lattice-size": size}, _fam(base, m))
            for name, tags, base, m, size, bound in rows]


def _gset_targets(*rows):
    """Rows: group, element bound k, provenance, components."""
    return [ReproductionTarget(
        f"gset-{group}", ("gset",), f"actions with at most {k} elements", provenance,
        {"components": components, "iso": True}, _gset(group, k))
        for group, k, provenance, components in rows]


def _morphism_targets(*rows):
    """Rows: morphism, carrier bound k, provenance, expected, bound with {k}."""
    return [ReproductionTarget(f"morphism-{morphism}", ("morphism",), bound.format(k=k),
                               provenance, expected, _morphism(morphism, k))
            for morphism, k, provenance, expected, bound in rows]


TARGETS = [
    *_sigma_count_targets(
        ("sigma-set", "set", 2, 2),
        ("sigma-pos", "pos", 2, 2),
        ("sigma-arrow", "arrow", 1, 3),
        ("sigma-cospan", "cospan", 2, 6),
        ("sigma-urel", "urel", 1, 3),
        ("sigma-per", "per", 2, 3),
        ("sigma-idem", "idem", 2, 2),
        ("sigma-preord", "preord", 2, 2),
        ("sigma-erel", "erel", 2, 2),
        ("bell-1", "nset-1", 1, 1),
        ("bell-2", "nset-2", 2, 2),
        ("bell-3", "nset-3", 3, 5),
        ("bell-4", "nset-4", 4, 15),
    ),
    ReproductionTarget(
        "lattice-no-backward-homs", ("acc-false",),
        "bounded lattices M_2..M_5; exhaustive hom search per pair",
        "pinned", {"backward-homs": 0, "forward-homs": 6},
        _no_backward_homs([m_lattice(n) for n in range(2, 6)])),
    ReproductionTarget(
        "endo-primes-no-backward-homs", ("acc-false",),
        "coproducts of the first 1..3 prime cycles; exhaustive hom search",
        "pinned", {"backward-homs": 0, "forward-homs": 3},
        _no_backward_homs([endo_primes(n) for n in range(0, 3)])),
    ReproductionTarget(
        "presheaf-no-backward-homs", ("acc-false",),
        "truncated chain diagrams L_0..L_4 over a five sort base",
        "pinned", {"backward-homs": 0, "forward-homs": 10},
        _no_backward_homs([presheaf_L(i) for i in range(0, 5)])),
    *_acc_targets(
        ("acc-lattice-chain", "lattice-chain", 4, False, [4, 3], "pinned",
         "stages M_2..M_6 (horizon {horizon}); verdict is one-sided at any horizon"),
        ("acc-endo-chain", "endo-chain", 4, False, [4, 3], "pinned",
         "stages A_1..A_5 (horizon {horizon}); verdict is one-sided at any horizon"),
        ("acc-presheaf-chain", "presheaf-chain", 5, False, [5, 4], "pinned",
         "stages L_0..L_5 (horizon {horizon}); verdict is one-sided at any horizon"),
        ("acc-constant-chain", "constant-set", 4, True, 0, "definitional",
         "horizon {horizon}; a constant chain is connected everywhere"),
        ("acc-growing-chain", "growing-set", 6, True, 0, "pinned",
         "nonempty finite sets, horizon {horizon}; all nonempty sets are connected"),
        ("acc-ordinal-chain", "ordinal-chain-2", 6, True, 3, "derived",
         "descending stage family over a three sort chain base, horizon {horizon}"),
    ),
    ReproductionTarget(
        "ordinal-sigma-k2", ("sigma-count", "acc-true"),
        "descending stage family over the three sort chain base, "
        "corroborated against all models with carriers at most 2",
        "pinned", {"components": 4, "chain": True, "universe-components": 4},
        _ordinal_sigma(2, check_universe=True)),
    ReproductionTarget(
        "ordinal-sigma-k3", ("sigma-count", "acc-true"),
        "descending stage family over the four sort chain base",
        "pinned", {"components": 5, "chain": True}, _ordinal_sigma(3)),
    *_colimit_targets(
        ("colimit-constant", ("colimit",), "constant-set", 4, "definitional",
         {"kind": "exact", "stage": 0}, "horizon {horizon}"),
        ("colimit-growing", ("colimit",), "growing-set", 6, "definitional",
         {"kind": "not-stable"}, "horizon {horizon}; carriers keep growing"),
        ("colimit-ordinal", ("colimit", "acc-true"), "ordinal-chain-2", 6, "derived",
         {"kind": "exact", "stage": 3},
         "horizon {horizon}; stages agree from the declared stable point on"),
    ),
    ReproductionTarget(
        "remark-locret-counterexample", ("counterexample",),
        "two step fragment of the unary collapse family, carriers at most 2",
        "pinned", {
            "universe-size": 10,
            "class-size": 9,
            "hsp-fixpoint": True,
            "colimit-kind": "exact",
            "colimit-stage": 2,
            "colimit-in-class": False,
            "early-stages-in-class": [True, True],
        }, _run_remark_locret),
    ReproductionTarget(
        "remark-constants-counterexample", ("counterexample",),
        "three constant fragment, carriers at most 3",
        "pinned", {
            "surjective": True,
            "probe-verdict": "failed",
            "exact": False,
            "exact-rule": "surjection-no-constant-merge",
            "merged-in-surjective-closure": True,
            "merged-in-locret-closure": False,
        }, _run_remark_constants),
    *_law_report_targets(
        ("set", 3, "plain sets", 14),
        ("pos", 3, "posets", 19),
        ("urel", 2, "marked sets", 16),
    ),
    ReproductionTarget(
        "definable-fixpoints", ("closure-laws",),
        "six theory and sequent-set pairs, carriers at most 3",
        "derived", {"instances": 6, "failures": 0},
        _suite(definable_fixpoint_suite)),
    ReproductionTarget(
        "probe-properties", ("suite",),
        "six universes with carriers at most 2, seeded sampling",
        "derived", {"instances": 219, "failures": 0},
        _suite(probe_property_suite)),
    ReproductionTarget(
        "sigma-invariants", ("suite",),
        "four universes with carriers at most 2 plus random preorders",
        "derived", {"instances": 82, "failures": 0},
        _suite(sigma_invariant_suite)),
    ReproductionTarget(
        "closure-p-empty-set", ("closure",),
        "plain sets, carriers at most 3", "derived",
        {"sizes": [0, 1]}, _run_closure_p_empty),
    ReproductionTarget(
        "closure-p-two-chain", ("closure",),
        "posets, carriers at most 4", "derived",
        {"count": 3, "sizes": [1, 2, 4]}, _run_closure_p_two_chain),
    ReproductionTarget(
        "closure-sc-two-chain", ("closure",),
        "posets, carriers at most 2", "derived",
        {"count": 3, "has-discrete-2": False}, _run_closure_sc_two_chain),
    ReproductionTarget(
        "closure-hloc-two-point", ("closure",),
        "plain sets, carriers at most 2", "derived",
        {"count": 2, "has-empty": False}, _run_closure_hloc_two_point),
    *_count_targets(
        ("universe-counts", "derived", {
            ("set", 3): 4, ("pos", 2): 4, ("pos", 3): 9, ("pos", 4): 25, ("urel", 1): 3,
            ("urel", 2): 6, ("per", 2): 7, ("preord", 2): 5, ("erel", 2): 4, ("idem", 2): 4,
            ("arrow", 1): 3, ("remark-locret-2", 2): 10,
        }, "model counts up to isomorphism at the stated carrier bounds"),
        ("published-counts", "published", {
            ("pos", 4): 25, ("preord", 3): 14, ("preord", 4): 47, ("erel", 3): 8,
            ("erel", 4): 19, ("group", 3): 3,
        }, "models up to isomorphism with every carrier at most k, so each "
           "value sums a sequence over sizes 0..k: posets OEIS A000112, "
           "preorders A001930, simple graphs (erel) A000088, groups A000001 "
           "(no empty group, orders 1..3)"),
        ("published-counts-k5", "published", {("pos", 5): 88, ("preord", 5): 186, ("erel", 5): 53},
         "models up to isomorphism with every carrier at most 5, summed over "
         "sizes 0..5: posets OEIS A000112, preorders A001930, simple graphs "
         "(erel) A000088"),
    ),
    *_fam_targets(
        ("fam-single-vertex", ("fam",), lambda: HomQuiver(["a"], [[True]]), 2, 2,
         "families of at most {m} copies of one object"),
        ("fam-two-antichain", ("fam",),
         lambda: HomQuiver(["a", "b"], [[True, False], [False, True]]), 2, 4,
         "families of at most {m} objects over a 2-antichain"),
        ("fam-s3-subgroups", ("fam", "gset"), lambda: subgroup_category(get_group("s3"))[0],
         4, 6, "families of at most {m} subgroup classes"),
    ),
    *_gset_targets(
        ("trivial", 2, "derived", 2),
        ("c2", 4, "pinned", 3),
        ("c4", 12, "derived", 4),
        ("s3", 24, "pinned", 6),
    ),
    ReproductionTarget(
        "subgroup-counts", ("gset",),
        "brute force over all subsets containing the identity",
        "derived", [1, 2, 3, 6], _run_subgroup_counts),
    *_morphism_targets(
        ("pos-id", 3, "definitional", {"kind": "no-counterexample"},
         "all poset models with carriers at most {k}"),
        ("pos-to-brel", 3, "derived", {"kind": "countermodel", "witness-size": 1},
         "all binary relation models with carriers at most {k}; the first "
         "witness in universe order is a point with an empty relation, "
         "violating translated reflexivity"),
        ("pointed-to-group", 3, "derived", {"kind": "no-counterexample"},
         "all group models with carriers at most {k}"),
    ),
    ReproductionTarget(
        "semiring-judgments", ("relative",),
        "the eight ordered semiring judgments over the poset base",
        "derived", {"judgments": 8, "admissible": 8,
                    "compiled-validates": True},
        _run_semiring_judgments),
]

_BY_NAME = {t.name: t for t in TARGETS}


def target_names() -> list:
    return [t.name for t in TARGETS]


def get_target(name: str) -> ReproductionTarget:
    if name not in _BY_NAME:
        raise KeyError(f"unknown reproduction target: {name}")
    return _BY_NAME[name]


def targets_with_tag(tag: str) -> list:
    return [t for t in TARGETS if tag in t.tags]


def all_tags() -> list:
    seen = []
    for t in TARGETS:
        for tag in t.tags:
            if tag not in seen:
                seen.append(tag)
    return seen
