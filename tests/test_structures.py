import itertools
import random

import pytest

from phl import structures
from phl.corpus import (
    antichain_poset,
    chain_poset,
    get_chain,
    get_morphism,
    get_theory,
    nset_structure,
    poset_structure,
    set_of,
    urel_of,
)
from phl.homsearch import enumerate_homs, hom_exists
from phl.parser import parse_sequents
from phl.structures import (
    Homomorphism,
    canonical_key,
    chain_colimit,
    compose,
    disjoint_union,
    eval_formula,
    eval_term,
    hom_violation,
    identity_hom,
    is_closed_mono,
    is_homomorphism,
    is_iso,
    is_isomorphic,
    is_model,
    make_structure,
    product,
    projection,
    pullback,
    reduct,
    sequent_witness,
    structure_from_json,
    structure_to_json,
    validate_structure,
)
from phl.syntax import And, App, BudgetError, Eq, RelAtom, Var, ValidationError


def test_eval_term_partial():
    th = get_theory("idem")
    X = make_structure(th, {"el": ("a", "b")}, {"f": {("a",): "a", ("b",): "a"}})
    assert eval_term(X, {"x": "b"}, App("f", (Var("x"),))) == "a"
    Y = make_structure(th, {"el": ("a",)}, {"f": {}})
    assert eval_term(Y, {"x": "a"}, App("f", (Var("x"),))) is None
    # undefined subterm poisons equality both ways
    assert not eval_formula(Y, (("x", "el"),),
                            Eq(App("f", (Var("x"),)), App("f", (Var("x"),))))


def test_eval_formula_conjunction_is_intersection():
    pos = get_theory("pos")
    P = chain_poset(3)
    ctx = (("x", "el"), ("y", "el"))
    phi = RelAtom("leq", (Var("x"), Var("y")))
    psi = RelAtom("leq", (Var("y"), Var("x")))
    both = eval_formula(P, ctx, And(phi, psi))
    assert both == eval_formula(P, ctx, phi) & eval_formula(P, ctx, psi)
    # on a chain, mutual comparability is equality
    assert both == frozenset((a, a) for a in P.carrier("el"))


def test_sequent_witness_reports_a_failing_environment():
    pos = get_theory("pos")
    loopy = poset_structure("ab", ["ab"])  # a <= b only
    asym = parse_sequents("[x : el, y : el] leq(x, y) |- leq(y, x);",
                          pos.signature)[0]
    w = sequent_witness(loopy, asym)
    assert w == {"x": "a", "y": "b"}
    refl = parse_sequents("[x : el] top |- leq(x, x);", pos.signature)[0]
    assert sequent_witness(loopy, refl) is None


def test_is_model_examples():
    assert is_model(chain_poset(3))
    pos = get_theory("pos")
    bad = make_structure(pos, {"el": ("a", "b")},
                         relations={"leq": {("a", "b")}})  # not reflexive
    assert not is_model(bad)


def test_homs_transport_positive_formulas():
    """Any satisfied conjunction of atoms maps forward along a homomorphism."""
    P = chain_poset(2)
    Q = chain_poset(3)
    ctx = (("x", "el"), ("y", "el"))
    phi = And(RelAtom("leq", (Var("x"), Var("y"))), Eq(Var("x"), Var("x")))
    for h in enumerate_homs(P, Q):
        assert hom_violation(h) is None
        for env in eval_formula(P, ctx, phi):
            image = tuple(h.maps["el"][v] for v in env)
            assert image in eval_formula(Q, ctx, phi)


def test_product_is_componentwise_and_a_model():
    th = get_theory("pos")
    A, B = chain_poset(2), chain_poset(3)
    P = product(th, [A, B])
    assert len(P.carrier("el")) == 6
    assert is_model(P)
    for i, F in enumerate([A, B]):
        pr = projection(P, [A, B], i)
        assert hom_violation(pr) is None


def test_empty_product_is_terminal():
    th = get_theory("group")
    T = product(th, [])
    assert all(len(T.carrier(s)) == 1 for s in th.signature.sorts)
    assert is_model(T)


def test_product_universal_property_brute_force():
    th = get_theory("urel")
    A = urel_of(2, ["0"])
    B = urel_of(2, ["1"])
    P = product(th, [A, B])
    prs = [projection(P, [A, B], i) for i in range(2)]
    C = urel_of(1, [])
    for f in enumerate_homs(C, A):
        for g in enumerate_homs(C, B):
            mediating = [h for h in enumerate_homs(C, P)
                         if compose(prs[0], h).maps == f.maps
                         and compose(prs[1], h).maps == g.maps]
            assert len(mediating) == 1


def test_pullback_of_identities_is_diagonal():
    C = chain_poset(3)
    P, p1, p2 = pullback(identity_hom(C), identity_hom(C))
    assert len(P.carrier("el")) == 3
    assert is_iso(p1) and is_iso(p2)


def test_pullback_of_two_collapses_has_four_points():
    th = get_theory("set")
    two, one = set_of(2), set_of(1)
    p = Homomorphism(two, one, {"el": {"0": "0", "1": "0"}})
    P, p1, p2 = pullback(p, p)
    assert len(P.carrier("el")) == 4
    assert hom_violation(p1) is None and hom_violation(p2) is None


def test_pullback_of_disjoint_images_is_empty():
    th = get_theory("set")
    U, injections = disjoint_union(th, [set_of(2), set_of(3)])
    P, _, _ = pullback(injections[0], injections[1])
    assert len(P.carrier("el")) == 0


def test_closed_monos_compose_and_pull_back():
    th = get_theory("pos")
    small = chain_poset(2)
    mid = chain_poset(3)
    big = chain_poset(4)
    # chain inclusions onto initial segments are closed
    i1 = Homomorphism(small, mid, {"el": {"0": "0", "1": "1"}})
    i2 = Homomorphism(mid, big, {"el": {"0": "0", "1": "1", "2": "2"}})
    assert is_closed_mono(i1) and is_closed_mono(i2)
    assert is_closed_mono(compose(i2, i1))
    # a non-closed mono: image misses a relation tuple it should reflect
    fence = poset_structure("ab", [])  # two incomparable points
    j = Homomorphism(fence, mid, {"el": {"a": "0", "b": "1"}})
    assert hom_violation(j) is None and not is_closed_mono(j)
    # pulling a closed mono back along any hom stays closed
    q = Homomorphism(mid, big, {"el": {"0": "0", "1": "2", "2": "3"}})
    assert hom_violation(q) is None
    _, back, _ = pullback(i2, q)
    assert is_closed_mono(back)


def test_is_model_invariant_under_isomorphism():
    th = get_theory("urel")
    X = urel_of(3, ["0", "2"])
    Y = make_structure(th, {"el": ("p", "q", "r")},
                       relations={"mark": {("q",), ("r",)}})
    assert is_isomorphic(X, Y)
    assert is_model(X) == is_model(Y)


def test_reduct_forgets_order():
    rho = get_morphism("pos-underlying")  # set -> pos
    P = chain_poset(3)
    X = reduct(rho, P)
    assert X.theory.name == "set"
    assert X.carrier("el") == P.carrier("el")
    assert X.relations == {}


def test_disjoint_union_sizes_and_coprojections():
    th = get_theory("pos")
    U, injections = disjoint_union(th, [chain_poset(2), chain_poset(3)])
    assert len(U.carrier("el")) == 5
    assert is_model(U)
    for inc in injections:
        assert hom_violation(inc) is None
        assert is_closed_mono(inc)
    # cross-component pairs are incomparable
    rel = U.relations["leq"]
    assert not any(a[0] != b[0] for (a, b) in rel)


def test_disjoint_union_with_empty_is_identity_up_to_iso():
    th = get_theory("set")
    M = set_of(3)
    E = make_structure(th, {"el": ()})
    U, _ = disjoint_union(th, [M, E])
    assert is_isomorphic(U, M)


def test_disjoint_union_refused_without_flag():
    th = get_theory("group")
    with pytest.raises(ValidationError):
        disjoint_union(th, [product(th, []), product(th, [])])


def test_json_round_trip():
    th = get_theory("bounded-lattice")
    chain = get_chain("lattice-chain")
    X = chain.structure_at(2)
    d = structure_to_json(X)
    Y = structure_from_json(d, th)
    validate_structure(Y)
    assert is_isomorphic(X, Y)
    assert structure_to_json(Y) == d


def test_chain_colimit_verdicts():
    const = get_chain("constant-set")
    res = chain_colimit(const, 6)
    assert res.kind == "exact"
    growing = get_chain("lattice-chain")
    res2 = chain_colimit(growing, 4)
    assert res2.kind == "not-stable"
    assert res2.structure is None


def test_canonical_key_refuses_over_budget_before_relabeling(monkeypatch):
    """10! = 3,628,800 relabelings exceed RELABEL_BUDGET (500,000): the key
    raises without trying one, and the budget is read at call time."""
    ten, three = set_of(10), set_of(3)

    def no_relabeling(X):
        raise AssertionError("least_relabeling was called")

    monkeypatch.setattr(structures, "least_relabeling", no_relabeling)
    with pytest.raises(BudgetError, match="over 3628800"):
        canonical_key(ten)
    monkeypatch.setattr(structures, "RELABEL_BUDGET", 5)
    with pytest.raises(BudgetError, match="over 6"):
        canonical_key(three)


def test_compose_applies_right_factor_first():
    A, B, C = set_of(2), set_of(2), set_of(2)
    f = Homomorphism(A, B, {"el": {"0": "1", "1": "0"}})
    g = Homomorphism(B, C, {"el": {"0": "0", "1": "0"}})
    gf = compose(g, f)
    assert gf.maps["el"] == {"0": "0", "1": "0"}
    assert gf.source is A and gf.target is C
