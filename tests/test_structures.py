import itertools
import random

import pytest

from phl import structures
from phl.closure import enumerate_models
from phl.corpus import (
    antichain_poset,
    chain_poset,
    get_chain,
    get_morphism,
    get_theory,
    nset_structure,
    poset_structure,
    set_of,
)
from phl.homsearch import enumerate_homs, hom_exists
from phl.parser import parse_sequents
from phl.sigma import acc_probe
from phl.structures import (
    ChainRecipe,
    Homomorphism,
    canonical_key,
    chain_colimit,
    compose,
    context_envs,
    disjoint_union,
    eval_term,
    hom_violation,
    is_closed_mono,
    is_iso,
    is_model,
    make_structure,
    product,
    projection,
    pullback,
    reduct,
    satisfies,
    sequent_witness,
    structure_from_json,
    structure_to_json,
    validate_structure,
)
from phl.syntax import And, App, BudgetError, Eq, RelAtom, Var, ValidationError


def eval_formula(X, context, formula):
    """Subset of the context product where the formula holds."""
    names = [v for v, _ in context]
    return frozenset(vals for vals in context_envs(X, context)
                     if satisfies(X, dict(zip(names, vals)), formula))


def urel_of(n, marked):
    """n elements labelled "0", "1", ..., with the elements `marked` marked."""
    return make_structure(get_theory("urel"), {"el": [str(i) for i in range(n)]},
                          relations={"mark": [(str(i),) for i in marked]})


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
    loopy = poset_structure("ab", [("a", "b")])  # a <= b only
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


def _end(carrier, f):
    return make_structure(get_theory("end"), {"el": carrier}, {"f": f})


@pytest.mark.parametrize("source,target,maps,reason", [
    (_end(["0"], {("0",): "0"}), _end(["0"], {}), {"0": "0"},
     "'f' undefined at image of ('0',)"),
    (_end(["0"], {("0",): "0"}), _end(["0", "1"], {("0",): "1", ("1",): "1"}), {"0": "0"},
     "'f' not preserved at ('0',)"),
    (chain_poset(2), antichain_poset(2), {"0": "0", "1": "1"},
     "'leq' not preserved at ('0', '1')"),
    (chain_poset(1), chain_poset(1), {"0": "9"},
     "image of '0' lies outside the target carrier of 'el'"),
])
def test_hom_violation_names_what_breaks(source, target, maps, reason):
    """hom_violation is the reference the hom search is checked against, so
    it must refuse each kind of non-homomorphism, not only pass homs."""
    assert hom_violation(Homomorphism(source, target, {"el": maps})) == reason


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


def identity_hom(X):
    return Homomorphism(X, X, {s: {a: a for a in X.carrier(s)}
                               for s in X.theory.signature.sorts}, "id")


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


@pytest.mark.parametrize("name", ["urel", "pos", "idem"])
def test_pullback_matches_a_direct_construction(name):
    """Every pair of homomorphisms into a shared member of the universe at
    k=2: carriers in order, tables with their entry order, relations and the
    two leg maps, built pair by pair here."""
    U = enumerate_models(get_theory(name), 2)
    sig = U.theory.signature
    pairs = 0
    for C in U.members:
        into = [h for A in U.members for h in enumerate_homs(A, C)]
        for p, q in itertools.product(into, repeat=2):
            A, B = p.source, q.source
            carriers = {s: tuple((a, b) for a in A.carrier(s) for b in B.carrier(s)
                                 if p.maps[s][a] == q.maps[s][b]) for s in sig.sorts}
            functions = {}
            for f, (argsorts, _) in sig.functions.items():
                functions[f] = {}
                for args in itertools.product(*(carriers[s] for s in argsorts)):
                    left = A.functions[f].get(tuple(a for a, _ in args))
                    right = B.functions[f].get(tuple(b for _, b in args))
                    if left is not None and right is not None:
                        functions[f][args] = (left, right)
            relations = {r: {args for args in itertools.product(*(carriers[s] for s in argsorts))
                             if tuple(a for a, _ in args) in A.relations[r]
                             and tuple(b for _, b in args) in B.relations[r]}
                         for r, argsorts in sig.relations.items()}
            P, p1, p2 = pullback(p, q)
            assert P.carriers == carriers, (name, p.maps, q.maps)
            assert {f: list(t.items()) for f, t in P.functions.items()} == \
                {f: list(t.items()) for f, t in functions.items()}
            assert P.relations == relations
            assert p1.source is P is p2.source and p1.target is A and p2.target is B
            assert p1.maps == {s: {(a, b): a for a, b in carriers[s]} for s in sig.sorts}
            assert p2.maps == {s: {(a, b): b for a, b in carriers[s]} for s in sig.sorts}
            pairs += 1
    assert pairs > 20


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
    assert canonical_key(X) == canonical_key(Y)
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
    assert canonical_key(U) == canonical_key(M)


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
    assert canonical_key(X) == canonical_key(Y)
    assert structure_to_json(Y) == d


@pytest.mark.parametrize("name,doc,reason", [
    ("pos", [1, 2], "the structure is not a JSON object"),
    ("pos", {"carriers": ["el"]}, "'carriers' is not a JSON object"),
    ("end", {"functions": "f"}, "'functions' is not a JSON object"),
    ("pos", {"relations": [["0", "0"]]}, "'relations' is not a JSON object"),
    ("pos", {"carriers": {"el": "01"}}, "the carrier of sort 'el' is not an array"),
    ("end", {"functions": {"f": {"0": "0"}}}, "the table of function 'f' is not an array"),
    ("pos", {"relations": {"leq": "00"}}, "the table of relation 'leq' is not an array"),
    ("end", {"carriers": {"el": ["0", "1"]}, "functions": {"f": ["00", "11"]}},
     "a row of function 'f' is not an array"),
    ("pos", {"carriers": {"el": ["0", "1"]}, "relations": {"leq": ["00", "11", "01"]}},
     "a row of relation 'leq' is not an array"),
    ("pos", {"carriers": {"el": [[0]]}},
     "the carrier of sort 'el' holds a label that is not a string"),
    ("pos", {"carriers": {"el": [0, 1]}},
     "the carrier of sort 'el' holds a label that is not a string"),
    ("end", {"carriers": {"el": ["0"]}, "functions": {"f": [["0", 0]]}},
     "the table of function 'f' holds a label that is not a string"),
    ("end", {"carriers": {"el": ["0"]}, "functions": {"f": [[]]}},
     "row of 'f' has wrong length"),
    ("end", {"carriers": {"el": ["0"]}, "functions": {"f": [["0", "0", "0"]]}},
     "row of 'f' has wrong length"),
])
def test_structure_from_json_refuses_a_malformed_document(name, doc, reason):
    """A string carrier or row would otherwise be read as its characters, and
    a list label would fail unhashed, or a number be read as another label."""
    if isinstance(doc, dict):
        doc = {"signature": name, **doc}
    with pytest.raises(ValidationError) as exc:
        structure_from_json(doc, get_theory(name))
    assert str(exc.value) == reason


@pytest.mark.parametrize("key", ["0", "10"])
def test_make_structure_refuses_a_function_key_that_is_not_a_tuple(key):
    """A string key would be read as its characters by the rows and the
    canonical key, but looked up whole by the sequent checks."""
    with pytest.raises(ValidationError) as exc:
        make_structure(get_theory("end"), {"el": ["0", "1", "10"]}, {"f": {key: "1"}})
    assert str(exc.value) == "a key of function 'f' is not a tuple"


@pytest.mark.parametrize("labels,rows", [
    (["0", "1"], ["00", "11", "01"]),  # was read as the pairs of characters
    (["10", "11"], ["1010"]),  # was refused as a row of the wrong length
], ids=["characters", "length"])
def test_make_structure_refuses_a_relation_row_that_is_not_a_tuple_or_list(labels, rows):
    with pytest.raises(ValidationError) as exc:
        make_structure(get_theory("pos"), {"el": labels}, relations={"leq": rows})
    assert str(exc.value) == "a row of relation 'leq' is not a tuple or list"


def _is_iso_by_inverse(h):
    """Bijective on every sort, and the inverse map is a homomorphism."""
    maps = {}
    for s in h.source.theory.signature.sorts:
        m, carrier = h.maps[s], h.target.carrier(s)
        if len(set(m.values())) != len(m) or set(m.values()) != set(carrier):
            return False
        maps[s] = {b: a for a, b in m.items()}
    return hom_violation(Homomorphism(h.target, h.source, maps)) is None


@pytest.mark.parametrize("name,k", [("pos", 3), ("urel", 2), ("nset-3", 3), ("cospan", 2),
                                    ("end", 3)])
def test_is_iso_is_a_bijective_hom_with_a_hom_inverse(name, k):
    """On every hom between members; members are pairwise non-isomorphic,
    so every iso is an automorphism."""
    U = enumerate_models(get_theory(name), k)
    isos = 0
    for X, Y in itertools.product(U.members, repeat=2):
        for h in enumerate_homs(X, Y):
            assert is_iso(h) == _is_iso_by_inverse(h), (X.name, Y.name, h.maps)
            assert not is_iso(h) or X is Y
            isos += is_iso(h)
    assert isos >= len(U.members)  # at least every identity


def test_chain_colimit_verdicts():
    const = get_chain("constant-set")
    res = chain_colimit(const, 6)
    assert res.kind == "exact"
    growing = get_chain("lattice-chain")
    res2 = chain_colimit(growing, 4)
    assert res2.kind == "not-stable"
    assert res2.structure is None


@pytest.mark.parametrize("first,second,reason", [
    (set_of(2), set_of(1), "image of '1' lies outside the target carrier of 'el'"),
    (chain_poset(2), antichain_poset(2), "'leq' not preserved at ('0', '1')"),
], ids=["element", "tuple"])
def test_a_stage_that_drops_part_of_the_one_before_is_refused(first, second, reason):
    """Stage 1 loses an element or a tuple of stage 0, so the inclusion is
    no homomorphism; the colimit and the probe both refuse the chain."""
    recipe = ChainRecipe("shrinking", lambda n: first if n == 0 else second)
    message = f"stage 0 of 'shrinking' is not a substructure of stage 1: {reason}"
    for run in (chain_colimit, acc_probe):
        with pytest.raises(ValidationError) as exc:
            run(recipe, 2)
        assert str(exc.value) == message, run.__name__


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
