import random

import pytest

from phl.corpus import get_theory, theory_names
from phl.parser import parse_sequents, parse_theory, tokenize
from phl.syntax import (
    App,
    Eq,
    ParseError,
    RelAtom,
    Sequent,
    Signature,
    Theory,
    Var,
    conj,
    print_sequent,
    print_theory,
    validate_theory,
)


POS_SRC = """\
# partial orders
theory pos {
  sorts el;
  relations leq : el * el;
  axioms
    [x : el] top |- leq(x, x);
    [x : el, y : el] leq(x, y) & leq(y, x) |- x = y;
    [x : el, y : el, z : el] leq(x, y) & leq(y, z) |- leq(x, z);
}
"""


def test_parse_print_parse_is_identity_on_corpus():
    for name in theory_names():
        th = get_theory(name)
        once = print_theory(th)
        again = print_theory(parse_theory(once, f"{name}.phl"))
        assert once == again, name


def test_comments_and_whitespace_are_ignored():
    th = parse_theory(POS_SRC)
    assert th.name == "pos"
    assert th.signature.relations == {"leq": ("el", "el")}
    assert len(th.axioms) == 3


def test_error_position_is_line_and_column():
    bad = POS_SRC.replace("leq(x, x)", "leq(x x)")
    with pytest.raises(ParseError) as e:
        parse_theory(bad, "pos.phl")
    assert e.value.filename == "pos.phl"
    assert e.value.line == 6
    # points into the argument list, not at the start of the file
    assert e.value.col > 20


def test_duplicate_symbol_rejected():
    bad = POS_SRC.replace("relations leq : el * el;",
                          "relations leq : el * el; relations leq : el * el;")
    with pytest.raises(ParseError) as e:
        parse_theory(bad)
    assert "declared twice" in str(e.value)


def test_unknown_symbol_in_term_position():
    bad = """
    theory t {
      sorts el;
      relations r : el * el;
      axioms [x : el] top |- g(x) = x;
    }
    """
    with pytest.raises(ParseError) as e:
        parse_theory(bad)
    assert "unknown function symbol 'g'" in str(e.value)


def test_relation_used_as_term_gets_a_hint():
    bad = """
    theory t {
      sorts el;
      functions f : el -> el;
      relations r : el * el;
      axioms [x : el] top |- f(r(x)) = x;
    }
    """
    with pytest.raises(ParseError) as e:
        parse_theory(bad)
    assert "relation symbols cannot appear inside terms" in str(e.value)


def test_keywords_cannot_name_sorts():
    bad = "theory t { sorts theory; }"
    with pytest.raises(ParseError):
        parse_theory(bad)


def test_def_sugar_and_bisequent_expand():
    src = """
    theory t {
      sorts el;
      functions f : el -> el;
      axioms [x : el] def(f(x)) -||- def(f(f(x)));
    }
    """
    th = parse_theory(src)
    assert len(th.axioms) == 2
    printed = [print_sequent(s) for s in th.axioms]
    assert printed[0] == "[x : el] def(f(x)) |- def(f(f(x)))"
    assert printed[1] == "[x : el] def(f(f(x))) |- def(f(x))"


def test_empty_context_sequent():
    src = """
    theory t {
      sorts el;
      functions c : -> el;
      axioms [] top |- c() = c();
    }
    """
    th = parse_theory(src)
    assert th.axioms[0].context == ()


def test_parse_sequents_standalone():
    sig = get_theory("pos").signature
    seqs = parse_sequents("[x : el] top |- leq(x, x); [x : el, y : el] leq(x, y) |- top;", sig)
    assert len(seqs) == 2
    assert print_sequent(seqs[0]) == "[x : el] top |- leq(x, x)"


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_theory(POS_SRC + "\nextra")


def test_tokenizer_rejects_stray_characters():
    with pytest.raises(ParseError) as e:
        tokenize("theory t @ {}", "x.phl")
    assert e.value.line == 1


def test_flags_survive_round_trip():
    th = get_theory("set")
    assert "exact_locret_surjection" in th.flags
    text = print_theory(th)
    assert parse_theory(text).flags == th.flags


def random_term(rng, sig, context, sort, depth=2):
    """A term of `sort` over the context (a variable, a constant or an
    application), or None when the signature has none."""
    choices = [Var(v) for v, s in context if s == sort]
    choices += [f for f, (args, result) in sig.functions.items()
                if result == sort and (depth or not args)]
    rng.shuffle(choices)
    for choice in choices:
        if isinstance(choice, Var):
            return choice
        args = [random_term(rng, sig, context, s, depth - 1) for s in sig.functions[choice][0]]
        if None not in args:
            return App(choice, tuple(args))
    return None


def random_formula(rng, sig, context):
    """A conjunction of up to three atoms: relation atoms, equations and
    definedness atoms; top when there are none."""
    atoms = []
    for _ in range(rng.randrange(4)):
        kind = rng.choice(("rel", "eq", "def"))
        if kind == "rel" and sig.relations:
            r = rng.choice(list(sig.relations))
            args = [random_term(rng, sig, context, s) for s in sig.relations[r]]
            if None not in args:
                atoms.append(RelAtom(r, tuple(args)))
        else:
            sort = rng.choice(sig.sorts)
            lhs = random_term(rng, sig, context, sort)
            rhs = lhs if kind == "def" else random_term(rng, sig, context, sort)
            if lhs is not None and rhs is not None:
                atoms.append(Eq(lhs, rhs))
    return conj(*atoms)


def random_theory(rng, name):
    """1-3 sorts, up to 4 functions of arity 0-2 (constants included), up
    to 3 relations of arity 1-3, up to 4 axioms and up to 2 flags."""
    sorts = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    functions = {f"f{i}": (tuple(rng.choice(sorts) for _ in range(rng.choice((0, 0, 1, 2)))),
                           rng.choice(sorts))
                 for i in range(rng.randrange(5))}
    relations = {f"r{i}": tuple(rng.choice(sorts) for _ in range(rng.randint(1, 3)))
                 for i in range(rng.randrange(4))}
    sig = Signature(sorts, functions, relations)
    axioms = []
    for _ in range(rng.randrange(5)):
        context = tuple((f"x{j}", rng.choice(sorts)) for j in range(rng.randrange(4)))
        axioms.append(Sequent(context, random_formula(rng, sig, context),
                              random_formula(rng, sig, context)))
    flags = frozenset(rng.sample(("exact_locret_surjection", "marked", "other"),
                                 rng.randrange(3)))
    return Theory(name, sig, tuple(axioms), flags)


def test_print_parse_round_trip_on_seeded_random_theories():
    rng = random.Random(20251019)
    theories = [random_theory(rng, f"t{i}") for i in range(300)]
    for th in theories:
        validate_theory(th)
        once = print_theory(th)
        parsed = parse_theory(once)
        assert print_theory(parsed) == once, once
        assert parsed == th, once
    # the draw reaches constants, applications, relation atoms, definedness
    # atoms, equations, flags and conjunctions
    texts = "".join(map(print_theory, theories))
    for piece in (":  -> s", "f0(x", "r0(", "def(", " = ", "flags", "& "):
        assert piece in texts, piece
