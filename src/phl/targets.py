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
        return {"classes": len(U.members) + LAW_SAMPLES, "violations": rep.violations}
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
        from .closure import check_theory_morphism_bounded
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
    from .corpus import compiled_osemiring
    compiled = compiled_osemiring()
    validate_theory(compiled)
    return {"judgments": len(rt.judgments), "admissible": admissible,
            "compiled-validates": True}


def _single_vertex_quiver():
    return HomQuiver(["a"], [[True]])


def _two_antichain_quiver():
    return HomQuiver(["a", "b"], [[True, False], [False, True]])


def _s3_subgroup_quiver():
    quiver, _ = subgroup_category(get_group("s3"))
    return quiver


_SIGMA_BOUND = ("components among models with every carrier at most {k}; "
                "each component already has a representative that small")

TARGETS = [
    ReproductionTarget(
        "sigma-set", ("sigma-count",), _SIGMA_BOUND.format(k=2),
        "pinned", 2, _sigma_count("set", 2)),
    ReproductionTarget(
        "sigma-pos", ("sigma-count",), _SIGMA_BOUND.format(k=2),
        "pinned", 2, _sigma_count("pos", 2)),
    ReproductionTarget(
        "sigma-arrow", ("sigma-count",), _SIGMA_BOUND.format(k=1),
        "pinned", 3, _sigma_count("arrow", 1)),
    ReproductionTarget(
        "sigma-cospan", ("sigma-count",), _SIGMA_BOUND.format(k=2),
        "pinned", 6, _sigma_count("cospan", 2)),
    ReproductionTarget(
        "sigma-urel", ("sigma-count",), _SIGMA_BOUND.format(k=1),
        "pinned", 3, _sigma_count("urel", 1)),
    ReproductionTarget(
        "sigma-per", ("sigma-count",), _SIGMA_BOUND.format(k=2),
        "pinned", 3, _sigma_count("per", 2)),
    ReproductionTarget(
        "sigma-idem", ("sigma-count",), _SIGMA_BOUND.format(k=2),
        "pinned", 2, _sigma_count("idem", 2)),
    ReproductionTarget(
        "sigma-preord", ("sigma-count",), _SIGMA_BOUND.format(k=2),
        "pinned", 2, _sigma_count("preord", 2)),
    ReproductionTarget(
        "sigma-erel", ("sigma-count",), _SIGMA_BOUND.format(k=2),
        "pinned", 2, _sigma_count("erel", 2)),
    ReproductionTarget(
        "bell-1", ("sigma-count",), _SIGMA_BOUND.format(k=1),
        "pinned", 1, _sigma_count("nset-1", 1)),
    ReproductionTarget(
        "bell-2", ("sigma-count",), _SIGMA_BOUND.format(k=2),
        "pinned", 2, _sigma_count("nset-2", 2)),
    ReproductionTarget(
        "bell-3", ("sigma-count",), _SIGMA_BOUND.format(k=3),
        "pinned", 5, _sigma_count("nset-3", 3)),
    ReproductionTarget(
        "bell-4", ("sigma-count",), _SIGMA_BOUND.format(k=4),
        "pinned", 15, _sigma_count("nset-4", 4)),
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
    ReproductionTarget(
        "acc-lattice-chain", ("acc-false",),
        "stages M_2..M_6 (horizon 4); verdict is one-sided at any horizon",
        "pinned", {"stabilized": False, "horizon": 4, "witness": [4, 3]},
        _acc("lattice-chain", 4)),
    ReproductionTarget(
        "acc-endo-chain", ("acc-false",),
        "stages A_1..A_5 (horizon 4); verdict is one-sided at any horizon",
        "pinned", {"stabilized": False, "horizon": 4, "witness": [4, 3]},
        _acc("endo-chain", 4)),
    ReproductionTarget(
        "acc-presheaf-chain", ("acc-false",),
        "stages L_0..L_5 (horizon 5); verdict is one-sided at any horizon",
        "pinned", {"stabilized": False, "horizon": 5, "witness": [5, 4]},
        _acc("presheaf-chain", 5)),
    ReproductionTarget(
        "acc-constant-chain", ("acc-true",),
        "horizon 4; a constant chain is connected everywhere",
        "definitional", {"stabilized": True, "horizon": 4, "stage": 0},
        _acc("constant-set", 4)),
    ReproductionTarget(
        "acc-growing-chain", ("acc-true",),
        "nonempty finite sets, horizon 6; all nonempty sets are connected",
        "pinned", {"stabilized": True, "horizon": 6, "stage": 0},
        _acc("growing-set", 6)),
    ReproductionTarget(
        "acc-ordinal-chain", ("acc-true",),
        "descending stage family over a three sort chain base, horizon 6",
        "derived", {"stabilized": True, "horizon": 6, "stage": 3},
        _acc("ordinal-chain-2", 6)),
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
    ReproductionTarget(
        "colimit-constant", ("colimit",),
        "horizon 4", "definitional", {"kind": "exact", "stage": 0},
        _colimit("constant-set", 4)),
    ReproductionTarget(
        "colimit-growing", ("colimit",),
        "horizon 6; carriers keep growing", "definitional",
        {"kind": "not-stable"}, _colimit("growing-set", 6)),
    ReproductionTarget(
        "colimit-ordinal", ("colimit", "acc-true"),
        "horizon 6; stages agree from the declared stable point on",
        "derived", {"kind": "exact", "stage": 3},
        _colimit("ordinal-chain-2", 6)),
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
    ReproductionTarget(
        "closure-laws-set", ("closure-laws",),
        "plain sets, carriers at most 3; all singleton classes plus 10 sampled",
        "derived", {"classes": 14, "violations": 0}, _law_report("set", 3)),
    ReproductionTarget(
        "closure-laws-pos", ("closure-laws",),
        "posets, carriers at most 3; all singleton classes plus 10 sampled",
        "derived", {"classes": 19, "violations": 0}, _law_report("pos", 3)),
    ReproductionTarget(
        "closure-laws-urel", ("closure-laws",),
        "marked sets, carriers at most 2; all singleton classes plus 10 sampled",
        "derived", {"classes": 16, "violations": 0}, _law_report("urel", 2)),
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
    ReproductionTarget(
        "universe-counts", ("enumeration",),
        "model counts up to isomorphism at the stated carrier bounds",
        "derived", {
            "set k=3": 4, "pos k=2": 4, "pos k=3": 9, "pos k=4": 25,
            "urel k=1": 3, "urel k=2": 6, "per k=2": 7, "preord k=2": 5,
            "erel k=2": 4, "idem k=2": 4, "arrow k=1": 3,
            "remark-locret-2 k=2": 10,
        }, _universe_counts(
            ("set", 3), ("pos", 2), ("pos", 3), ("pos", 4), ("urel", 1),
            ("urel", 2), ("per", 2), ("preord", 2), ("erel", 2), ("idem", 2),
            ("arrow", 1), ("remark-locret-2", 2))),
    ReproductionTarget(
        "published-counts", ("enumeration",),
        "models up to isomorphism with every carrier at most k, so each "
        "value sums a sequence over sizes 0..k: posets OEIS A000112, "
        "preorders A001930, simple graphs (erel) A000088, groups A000001 "
        "(no empty group, orders 1..3)",
        "published", {
            "pos k=4": 25, "preord k=3": 14, "preord k=4": 47,
            "erel k=3": 8, "erel k=4": 19, "group k=3": 3,
        }, _universe_counts(
            ("pos", 4), ("preord", 3), ("preord", 4), ("erel", 3), ("erel", 4),
            ("group", 3))),
    ReproductionTarget(
        "published-counts-k5", ("enumeration",),
        "models up to isomorphism with every carrier at most 5, summed over "
        "sizes 0..5: posets OEIS A000112, preorders A001930, simple graphs "
        "(erel) A000088",
        "published", {"pos k=5": 88, "preord k=5": 186, "erel k=5": 53},
        _universe_counts(("pos", 5), ("preord", 5), ("erel", 5))),
    ReproductionTarget(
        "fam-single-vertex", ("fam",),
        "families of at most 2 copies of one object", "derived",
        {"iso": True, "lattice-size": 2}, _fam(_single_vertex_quiver, 2)),
    ReproductionTarget(
        "fam-two-antichain", ("fam",),
        "families of at most 2 objects over a 2-antichain", "derived",
        {"iso": True, "lattice-size": 4}, _fam(_two_antichain_quiver, 2)),
    ReproductionTarget(
        "fam-s3-subgroups", ("fam", "gset"),
        "families of at most 4 subgroup classes", "derived",
        {"iso": True, "lattice-size": 6}, _fam(_s3_subgroup_quiver, 4)),
    ReproductionTarget(
        "gset-trivial", ("gset",),
        "actions with at most 2 elements", "derived",
        {"components": 2, "iso": True}, _gset("trivial", 2)),
    ReproductionTarget(
        "gset-c2", ("gset",),
        "actions with at most 4 elements", "pinned",
        {"components": 3, "iso": True}, _gset("c2", 4)),
    ReproductionTarget(
        "gset-c4", ("gset",),
        "actions with at most 12 elements", "derived",
        {"components": 4, "iso": True}, _gset("c4", 12)),
    ReproductionTarget(
        "gset-s3", ("gset",),
        "actions with at most 24 elements", "pinned",
        {"components": 6, "iso": True}, _gset("s3", 24)),
    ReproductionTarget(
        "subgroup-counts", ("gset",),
        "brute force over all subsets containing the identity",
        "derived", [1, 2, 3, 6], _run_subgroup_counts),
    ReproductionTarget(
        "morphism-pos-id", ("morphism",),
        "all poset models with carriers at most 3",
        "definitional", {"kind": "no-counterexample"}, _morphism("pos-id", 3)),
    ReproductionTarget(
        "morphism-pos-to-brel", ("morphism",),
        "all binary relation models with carriers at most 3; the first "
        "witness in universe order is a point with an empty relation, "
        "violating translated reflexivity",
        "derived", {"kind": "countermodel", "witness-size": 1},
        _morphism("pos-to-brel", 3)),
    ReproductionTarget(
        "morphism-pointed-to-group", ("morphism",),
        "all group models with carriers at most 3",
        "derived", {"kind": "no-counterexample"},
        _morphism("pointed-to-group", 3)),
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
