"""Compiled sequent checkers against the reference interpreter.

`sequent_witness` runs a checker generated once per sequent;
`interpreted_witness` walks the AST.  They must return the same witness, as
the same dict with its keys in context order, or both None.  With open cells
a witness must be one that every completion of those cells confirms.
"""

import itertools
import random

import pytest

from phl.closure import enumerate_models
from phl.corpus import get_morphism, get_theory, morphism_names, theory_names
from phl.parser import parse_sequents, parse_theory
from phl.structures import PartialStructure, interpreted_witness, satisfies, sequent_witness
from phl.syntax import (Eq, RelAtom, Sequent, TOP, ValidationError, Var, morphism_obligations,
                        print_sequent)


def assert_same(X, seq):
    got = sequent_witness(X, seq)
    want = interpreted_witness(X, seq)
    assert got == want, (print_sequent(seq), X, got, want)
    if want is not None:
        assert list(got) == list(want), (print_sequent(seq), got, want)
    return want


def random_structure(rng, theory, max_size=3):
    """A random partial structure: carriers of 0..max_size labels, each table
    entry and relation tuple present with its own random density.  Table
    values equal carrier labels without being the same objects."""
    sig = theory.signature
    carriers = {s: tuple(1000 * n + i for i in range(rng.randint(0, max_size)))
                for n, s in enumerate(sig.sorts, 1)}
    functions = {}
    for f, (argsorts, result) in sig.functions.items():
        density = rng.random()
        functions[f] = {
            args: int(str(rng.choice(carriers[result])))
            for args in itertools.product(*(carriers[s] for s in argsorts))
            if carriers[result] and rng.random() < density
        }
    relations = {}
    for r, argsorts in sig.relations.items():
        density = rng.random()
        relations[r] = {t for t in itertools.product(*(carriers[s] for s in argsorts))
                        if rng.random() < density}
    return PartialStructure(theory, carriers, functions, relations)


@pytest.mark.parametrize("name", theory_names())
def test_universe_members_at_bound_two(name):
    theory = get_theory(name)
    for X in enumerate_models(theory, 2).members:
        for seq in theory.axioms:
            assert assert_same(X, seq) is None


@pytest.mark.parametrize("name", theory_names())
def test_random_structures(name):
    theory = get_theory(name)
    rng = random.Random(f"compiled-{name}")
    witnesses = 0
    for _ in range(200):
        X = random_structure(rng, theory)
        for seq in theory.axioms:
            witnesses += assert_same(X, seq) is not None
    # random tables must reach the witness path, not only the None one
    assert witnesses or not theory.axioms


def open_some_cells(rng, X, most=6):
    """Take up to `most` random cells out of X's tables; return them as
    (symbol, args) pairs."""
    sig = X.theory.signature
    cells = [(f, args) for f, (argsorts, _) in sig.functions.items()
             for args in itertools.product(*(X.carrier(s) for s in argsorts))]
    cells += [(r, args) for r, argsorts in sig.relations.items()
              for args in itertools.product(*(X.carrier(s) for s in argsorts))]
    chosen = rng.sample(cells, rng.randint(0, min(most, len(cells))))
    for name, args in chosen:
        if name in X.functions:
            X.functions[name].pop(args, None)
        else:
            X.relations[name].discard(args)
    return chosen


def completions(X, cells):
    """Every structure that decides the open cells of X."""
    sig = X.theory.signature
    choices = [(None,) + X.carrier(sig.functions[name][1]) if name in sig.functions
               else (False, True) for name, _ in cells]
    for values in itertools.product(*choices):
        fns = {f: dict(t) for f, t in X.functions.items()}
        rels = {r: set(t) for r, t in X.relations.items()}
        for (name, args), value in zip(cells, values):
            if name in fns and value is not None:
                fns[name][args] = value
            elif value is True:
                rels[name].add(args)
        yield PartialStructure(X.theory, X.carriers, fns, rels)


def assert_forced(X, seq, cells):
    """The open-cell witness, after checking that every completion of the
    cells satisfies the premise and violates the conclusion there."""
    opened = {}
    for name, args in cells:
        opened.setdefault(name, set()).add(args)
    env = sequent_witness(X, seq, opened)
    if env is not None:
        for Y in completions(X, cells):
            assert satisfies(Y, env, seq.premise), (print_sequent(seq), X, cells, env)
            assert not satisfies(Y, env, seq.conclusion), (print_sequent(seq), X, cells, env)
    return env


@pytest.mark.parametrize("name", theory_names())
def test_open_cells_witness_only_forced_violations(name):
    theory = get_theory(name)
    rng = random.Random(f"open-{name}")
    witnesses = 0
    for _ in range(100):
        X = random_structure(rng, theory, max_size=2)
        cells = open_some_cells(rng, X)
        for seq in theory.axioms:
            witnesses += assert_forced(X, seq, cells) is not None
    assert witnesses or not theory.axioms


@pytest.mark.parametrize("name", morphism_names())
def test_translated_obligations(name):
    m = get_morphism(name)
    obligations = morphism_obligations(m)
    for X in enumerate_models(m.target, 2).members:
        for seq in obligations:
            assert_same(X, seq)


EDGE = parse_theory("""
theory edge {
  sorts a, b;
  functions c : -> a, f : a -> a, g : a -> a, h : a * b -> b;
  relations p : a, r : a * b;
}
""")

EDGE_SEQUENTS = parse_sequents("""
    [] top |- def(c());
    [] def(c()) |- p(c());
    [x : a] top |- def(f(g(x)));
    [x : a] def(f(g(x))) |- f(g(x)) = g(f(x));
    [x : a, y : a] top |- f(g(x)) = g(f(y));
    [x : a, y : a] f(x) = g(y) |- f(g(x)) = g(f(y));
    [x : a] p(x) |- top;
    [x : a, y : b] p(x) |- def(f(x));
    [x : a, y : a, z : a] p(y) |- p(f(y));
    [x : a, y : b] r(x, y) & def(h(x, y)) |- r(x, h(x, y));
    [y : b, x : a, z : a] r(x, y) & r(z, y) |- x = z;
    [x : a, y : b] top |- r(c(), h(f(x), y)) & p(x);
    [x : a] x = x |- p(x);
""", EDGE.signature)


def test_edge_sequents_on_random_structures():
    rng = random.Random(20250814)
    witnesses = 0
    for _ in range(300):
        X = random_structure(rng, EDGE, max_size=3)
        for seq in EDGE_SEQUENTS:
            witnesses += assert_same(X, seq) is not None
    assert witnesses


def edge_structure(a, b=(), functions=None, relations=None):
    fns = {"c": {}, "f": {}, "g": {}, "h": {}}
    fns.update(functions or {})
    rels = {"p": set(), "r": set()}
    rels.update(relations or {})
    return PartialStructure(EDGE, {"a": tuple(a), "b": tuple(b)}, fns, rels)


def test_empty_context():
    seq = EDGE_SEQUENTS[0]  # [] top |- def(c())
    assert assert_same(edge_structure(()), seq) == {}
    assert assert_same(edge_structure(("u",)), seq) == {}
    assert assert_same(edge_structure(("u",), functions={"c": {(): "u"}}), seq) is None


def test_empty_carrier_has_no_witness():
    X = edge_structure((), ("v",))
    for seq in EDGE_SEQUENTS[2:]:
        assert assert_same(X, seq) is None
    # an empty carrier of a variable no atom mentions still empties the product
    Y = edge_structure(("u",), (), relations={"p": {("u",)}})
    assert assert_same(Y, EDGE_SEQUENTS[7]) is None
    Z = edge_structure(("u",), ("v", "w"), relations={"p": {("u",)}})
    assert assert_same(Z, EDGE_SEQUENTS[7]) == {"x": "u", "y": "v"}


def test_variable_absent_from_premise_takes_the_first_value():
    seq = EDGE_SEQUENTS[8]  # [x, y, z] p(y) |- p(f(y))
    X = edge_structure(("u", "v", "w"), relations={"p": {("v",)}})
    assert assert_same(X, seq) == {"x": "u", "y": "v", "z": "u"}


def test_top_conclusion_never_fails():
    X = edge_structure(("u", "v"), relations={"p": {("u",), ("v",)}})
    assert assert_same(X, EDGE_SEQUENTS[6]) is None


def test_equation_between_compound_terms():
    seq = EDGE_SEQUENTS[4]  # [x, y] top |- f(g(x)) = g(f(y))
    tables = {"f": {("u",): "u", ("v",): "u"}, "g": {("u",): "v", ("v",): "u"}}
    X = edge_structure(("u", "v"), functions=tables)
    assert assert_same(X, seq) == {"x": "u", "y": "u"}
    tables["g"] = {("u",): "u", ("v",): "u"}
    assert assert_same(edge_structure(("u", "v"), functions=tables), seq) is None


def test_multi_sorted_context_keeps_context_order():
    seq = EDGE_SEQUENTS[10]  # [y : b, x : a, z : a] r(x, y) & r(z, y) |- x = z
    X = edge_structure(("u", "v"), ("w",), relations={"r": {("u", "w"), ("v", "w")}})
    w = assert_same(X, seq)
    assert list(w) == ["y", "x", "z"]
    assert w == {"y": "w", "x": "u", "z": "v"}


def test_repeated_context_name_binds_the_last_position():
    seq = Sequent((("x", "a"), ("x", "a")), TOP, RelAtom("p", (Var("x"),)))
    X = edge_structure(("u", "v"), relations={"p": {("u",)}})
    assert assert_same(X, seq) == {"x": "v"}


def test_checker_is_built_once_and_kept_on_the_sequent():
    seq = Sequent((("x", "a"),), TOP, Eq(Var("x"), Var("x")))
    assert "_checker" not in vars(seq)
    sequent_witness(edge_structure(("u",)), seq)
    check = vars(seq)["_checker"]
    sequent_witness(edge_structure(()), seq)
    assert vars(seq)["_checker"] is check
    # the memo is not part of the sequent's value
    assert seq == Sequent((("x", "a"),), TOP, Eq(Var("x"), Var("x")))
    assert hash(seq) == hash(Sequent((("x", "a"),), TOP, Eq(Var("x"), Var("x"))))


def test_unbound_variable_is_rejected():
    seq = Sequent((("x", "a"),), TOP, Eq(Var("y"), Var("x")))
    with pytest.raises(ValidationError, match="unbound variable 'y'"):
        sequent_witness(edge_structure(("u",)), seq)


GROUP = get_theory("group")
ASSOC = next(seq for seq in GROUP.axioms if "mul(mul(" in print_sequent(seq))


def test_open_cell_nested_in_another_lookup_is_undecided():
    # the two-element group with mul(0, 0) open: inside mul(mul(0, 0), z)
    # the open cell makes the outer lookup undecided, not undefined
    mul = {("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"}
    X = PartialStructure(GROUP, {"el": ("0", "1")},
                         {"mul": mul, "e": {(): "0"}, "inv": {}}, {})
    assert sequent_witness(X, ASSOC) == interpreted_witness(X, ASSOC) == \
        {"x": "0", "y": "0", "z": "0"}
    assert assert_forced(X, ASSOC, [("mul", ("0", "0"))]) is None
    # a violation that no value of the open cell repairs is still found:
    # mul(mul(1, 0), 1) = 0 but mul(1, mul(0, 1)) = 1
    mul[("0", "1")] = "0"
    assert assert_forced(X, ASSOC, [("mul", ("0", "0"))]) == {"x": "1", "y": "0", "z": "1"}


def test_relation_conclusion_with_an_open_tuple_passes():
    pos = get_theory("pos")
    refl = pos.axioms[0]  # [x : el] top |- leq(x, x)
    X = PartialStructure(pos, {"el": ("0", "1")}, {}, {"leq": {("0", "0")}})
    assert sequent_witness(X, refl) == {"x": "1"}
    assert assert_forced(X, refl, [("leq", ("1", "1"))]) is None
    assert assert_forced(X, refl, [("leq", ("0", "1"))]) == {"x": "1"}
