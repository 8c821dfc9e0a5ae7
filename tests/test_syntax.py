import pytest

from phl.corpus import get_morphism, get_theory, morphism_names, ordered_semiring
from phl.parser import parse_sequents, parse_theory
from phl.syntax import (
    And,
    App,
    Eq,
    RelAtom,
    Sequent,
    Signature,
    TOP,
    Theory,
    TheoryMorphism,
    ValidationError,
    Var,
    and_parts,
    bisequent,
    check_relative_judgment,
    compile_relative_theory,
    conj,
    def_of,
    extended_signature,
    formula_symbols,
    morphism_obligations,
    print_formula,
    print_sequent,
    print_theory,
    reconstruct_source_formula,
    translate_formula,
    translate_sequent,
    validate_morphism,
    validate_sequent,
    validate_theory,
    term_sort,
)


def test_def_sugar_is_self_equality():
    t = App("f", (Var("x"),))
    assert def_of(t) == Eq(t, t)
    assert print_formula(def_of(t)) == "def(f(x))"


def test_conj_right_nested_and_parts_flatten():
    a, b = RelAtom("r", (Var("x"),)), Eq(Var("x"), Var("y"))
    f = conj(a, b, TOP)  # redundant top is dropped
    assert f == And(a, b)
    assert and_parts(And(a, And(b, TOP))) == [a, b]
    assert and_parts(TOP) == []
    assert conj() == TOP
    assert conj(a) == a


def test_formula_symbols_walks_every_atom_and_term():
    x, y = Var("x"), Var("y")
    inner = RelAtom("r", (App("f", (App("g", (x,)),)), y))
    eq = Eq(App("h", (App("c"),)), App("f", (App("k", (y,)),)))
    assert formula_symbols(inner) == {"r", "f", "g"}
    assert formula_symbols(eq) == {"h", "c", "f", "k"}
    assert formula_symbols(conj(inner, def_of(App("d", (x,))))) == {"r", "f", "g", "d"}
    assert formula_symbols(inner, eq) == {"r", "f", "g", "h", "c", "k"}
    assert formula_symbols(TOP) == set()
    assert formula_symbols(Eq(x, y), TOP) == set()
    assert formula_symbols() == set()


def test_bisequent_unfolds_to_two_sequents():
    ctx = (("x", "el"),)
    lhs, rhs = def_of(Var("x")), RelAtom("mark", (Var("x"),))
    fwd, bwd = bisequent(ctx, lhs, rhs)
    assert fwd == Sequent(ctx, lhs, rhs)
    assert bwd == Sequent(ctx, rhs, lhs)


def test_constants_print_with_parens():
    th = get_theory("pointed")
    axiom = th.axioms[0]
    assert "pt()" in print_sequent(axiom)


def test_term_sort_and_validation_errors():
    sig = get_theory("arrow").signature
    env = {"x": "a"}
    assert term_sort(App("f", (Var("x"),)), sig, env) == "b"
    with pytest.raises(ValidationError):
        term_sort(App("f", (Var("z"),)), sig, env)
    with pytest.raises(ValidationError):
        validate_sequent(
            Sequent((("x", "a"),), TOP, Eq(Var("x"), App("f", (Var("x"),)))),
            sig)  # sort mismatch across =


def test_validate_theory_rejects_unknown_sort():
    th = get_theory("set")
    broken = Sequent((("x", "nosuch"),), TOP, TOP)
    bad = type(th)(th.name, th.signature, th.axioms + (broken,), th.flags)
    with pytest.raises(ValidationError):
        validate_theory(bad)


@pytest.mark.parametrize("functions,relations,reason", [
    ({"def": ((), "el")}, {}, "reserved word 'def' used as function symbol"),
    ({}, {"=": ("el", "el")}, "reserved word '=' used as relation symbol"),
    ({"f": (("el",), "el")}, {"f": ("el",)}, "symbol 'f' declared twice"),
    ({}, {"el": ("el",)}, "symbol 'el' declared twice"),
    ({"f": (("el",), "nosuch")}, {}, "function 'f' mentions unknown sort 'nosuch'"),
    ({}, {"r": ("nosuch",)}, "relation 'r' mentions unknown sort 'nosuch'"),
])
def test_validate_theory_names_a_bad_declaration(functions, relations, reason):
    with pytest.raises(ValidationError) as exc:
        validate_theory(Theory("t", Signature(("el",), functions, relations)))
    assert str(exc.value) == reason


@pytest.mark.parametrize("source,target,fn_map,rel_map,reason", [
    ("pointed", "group", {}, {}, "misses function 'pt'"),
    ("pointed", "group", {"pt": "nosuch"}, {}, "sends 'pt' to unknown function"),
    ("pointed", "group", {"pt": "inv"}, {}, "breaks arity of 'pt'"),
    ("pos", "brel", {}, {}, "misses relation 'leq'"),
    ("pos", "group", {}, {"leq": "mul"}, "sends 'leq' to unknown relation"),
    ("pos", "urel", {}, {"leq": "mark"}, "breaks arity of 'leq'"),
])
def test_validate_morphism_names_what_breaks(source, target, fn_map, rel_map, reason):
    m = TheoryMorphism("m", get_theory(source), get_theory(target), {"el": "el"},
                       fn_map, rel_map)
    with pytest.raises(ValidationError) as exc:
        validate_morphism(m)
    assert str(exc.value) == f"morphism 'm' {reason}"


def test_print_theory_round_trips_whole_corpus():
    from phl.corpus import theory_names
    for name in theory_names():
        th = get_theory(name)
        text = print_theory(th)
        assert print_theory(parse_theory(text)) == text


def test_translate_commutes_with_conjunction():
    rho = get_morphism("pos-to-brel")
    x, y = Var("x"), Var("y")
    phi = RelAtom("leq", (x, y))
    psi = Eq(x, y)
    both = translate_formula(rho, And(phi, psi))
    assert both == And(translate_formula(rho, phi),
                       translate_formula(rho, psi))


def test_morphism_obligations_are_translated_axioms():
    rho = get_morphism("pos-to-brel")
    obs = morphism_obligations(rho)
    assert len(obs) == len(rho.source.axioms)
    assert obs == tuple(translate_sequent(rho, s) for s in rho.source.axioms)
    validate_morphism(rho)


def test_identity_morphism_translates_to_itself():
    rho = get_morphism("pos-id")
    seq = rho.source.axioms[0]
    assert translate_sequent(rho, seq) == seq


def test_relative_judgments_all_admissible():
    rt = ordered_semiring()
    assert len(rt.judgments) == 8
    assert all(check_relative_judgment(rt, j) for j in rt.judgments)


@pytest.mark.parametrize("rho,admissible", [
    ("pos-id", [True] * 8),
    # leq has no preimage in set, so only the leq premise is refused
    ("pos-underlying", [True] * 7 + [False]),
])
def test_relative_judgments_along_a_morphism(rho, admissible):
    rt = ordered_semiring()
    got = [check_relative_judgment(rt, j, get_morphism(rho)) for j in rt.judgments]
    assert got == admissible


def test_relative_judgment_rejects_op_in_premise():
    rt = ordered_semiring()
    ext = extended_signature(rt)
    bad = parse_sequents(
        "[a : el, b : el] plus(a, b) = a |- leq(b, a);", ext)[0]
    assert not check_relative_judgment(rt, bad)


def test_relative_judgment_invariant_under_renaming():
    rt = ordered_semiring()
    ext = extended_signature(rt)
    a = parse_sequents("[a : el, b : el] leq(a, b) |- plus(a, ominus(b, a)) = b;",
                       ext)[0]
    b = parse_sequents("[u : el, v : el] leq(u, v) |- plus(u, ominus(v, u)) = v;",
                       ext)[0]
    assert check_relative_judgment(rt, a) == check_relative_judgment(rt, b) is True


def test_compiled_relative_theory_validates():
    rt = ordered_semiring()
    th = compile_relative_theory(rt)
    validate_theory(th)
    # every op contributes a definedness bisequent pair
    assert len(th.axioms) == len(rt.base.axioms) + 2 * len(rt.ops) + len(rt.judgments)
    text = print_theory(th)
    assert print_theory(parse_theory(text)) == text


def test_reconstruct_inverts_translate_on_corpus_axioms():
    """Reading a translated premise or conclusion back gives the source
    formula; a target symbol outside the image, even deep in a term, has no
    preimage."""
    outside = 0
    for name in morphism_names():
        m = get_morphism(name)
        for seq in m.source.axioms:
            for phi in (seq.premise, seq.conclusion):
                assert reconstruct_source_formula(m, translate_formula(m, phi)) == phi, name
        tgt = m.target.signature
        for f, (argsorts, _) in tgt.functions.items():
            if f not in m.fn_map.values():
                term = App(f, tuple(Var(f"x{i}") for i in range(len(argsorts))))
                assert reconstruct_source_formula(m, And(TOP, Eq(Var("y"), term))) is None
                outside += 1
        for r, argsorts in tgt.relations.items():
            if r not in m.rel_map.values():
                atom = RelAtom(r, tuple(Var(f"x{i}") for i in range(len(argsorts))))
                assert reconstruct_source_formula(m, And(atom, TOP)) is None, name
                outside += 1
    assert outside == 4  # mul and inv of group, leq of pos, mark of urel
    m, e = get_morphism("pointed-to-group"), App("e", ())
    assert reconstruct_source_formula(m, Eq(e, e)) == Eq(App("pt", ()), App("pt", ()))
    assert reconstruct_source_formula(m, Eq(e, App("inv", (e,)))) is None


def test_reconstruct_needs_a_preimage_for_every_nested_symbol():
    """u0 is the image of f and u1 of nothing, so f(f(x)) reads back from
    u0(u0(x)) but nothing reads back from u0(u1(x)); with two preimages the
    first declared one wins."""
    idem, stack = get_theory("idem"), get_theory("remark-locret-2")
    x = Var("x")
    into = TheoryMorphism("f-to-u0", idem, stack, {"el": "el"}, {"f": "u0"}, {})
    validate_morphism(into)

    def ap(g, t):
        return App(g, (t,))

    assert reconstruct_source_formula(into, Eq(ap("u0", ap("u0", x)), x)) == \
        Eq(ap("f", ap("f", x)), x)
    assert reconstruct_source_formula(into, Eq(ap("u0", ap("u1", x)), x)) is None
    assert reconstruct_source_formula(into, Eq(x, ap("u0", ap("u1", x)))) is None
    onto = TheoryMorphism("u-to-f", stack, idem, {"el": "el"}, {"u1": "f", "u0": "f"}, {})
    assert reconstruct_source_formula(onto, Eq(ap("f", x), x)) == Eq(ap("u1", x), x)
