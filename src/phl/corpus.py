"""Worked corpus: theories, structures, chains, groups and morphisms.

Every theory is kept as source text and goes through the parser, so the
corpus doubles as a parser exercise.  Parametric families (constant packs,
truncated unary stacks, chain-shaped bases, action theories) are generated
as source strings on demand.  Declaration order matters for the model
enumerator: symbols whose axioms prune hardest come first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .groups import FiniteGroup, cosets, cyclic_group, symmetric_3, trivial_group
from .parser import parse_sequents, parse_theory
from .structures import (
    ChainRecipe,
    PartialStructure,
    disjoint_union,
    make_structure,
)
from .syntax import (
    RelativeTheory,
    RelOp,
    Theory,
    TheoryMorphism,
    TOP,
    RelAtom,
    ValidationError,
    Var,
    compile_relative_theory,
    extended_signature,
)

_SOURCES = {
    "set": """
theory set {
  sorts el;
  flags coproduct_by_disjoint_union, exact_locret_surjection;
}
""",
    "pos": """
theory pos {
  sorts el;
  relations leq : el * el;
  axioms
    [x : el] top |- leq(x, x);
    [x : el, y : el, z : el] leq(x, y) & leq(y, z) |- leq(x, z);
    [x : el, y : el] leq(x, y) & leq(y, x) |- x = y;
  flags coproduct_by_disjoint_union;
}
""",
    "preord": """
theory preord {
  sorts el;
  relations leq : el * el;
  axioms
    [x : el] top |- leq(x, x);
    [x : el, y : el, z : el] leq(x, y) & leq(y, z) |- leq(x, z);
  flags coproduct_by_disjoint_union;
}
""",
    "urel": """
theory urel {
  sorts el;
  relations mark : el;
  flags coproduct_by_disjoint_union;
}
""",
    "brel": """
theory brel {
  sorts el;
  relations r : el * el;
  flags coproduct_by_disjoint_union;
}
""",
    "per": """
# partial equivalence relations: symmetric and transitive, not reflexive
theory per {
  sorts el;
  relations r : el * el;
  axioms
    [x : el, y : el] r(x, y) |- r(y, x);
    [x : el, y : el, z : el] r(x, y) & r(y, z) |- r(x, z);
  flags coproduct_by_disjoint_union;
}
""",
    "erel": """
# reflexive symmetric relations
theory erel {
  sorts el;
  relations r : el * el;
  axioms
    [x : el] top |- r(x, x);
    [x : el, y : el] r(x, y) |- r(y, x);
  flags coproduct_by_disjoint_union;
}
""",
    "idem": """
theory idem {
  sorts el;
  functions f : el -> el;
  axioms
    [x : el] top |- def(f(x));
    [x : el] top |- f(f(x)) = f(x);
  flags coproduct_by_disjoint_union;
}
""",
    "end": """
theory end {
  sorts el;
  functions f : el -> el;
  axioms
    [x : el] top |- def(f(x));
  flags coproduct_by_disjoint_union;
}
""",
    "arrow": """
theory arrow {
  sorts a, b;
  functions f : a -> b;
  axioms
    [x : a] top |- def(f(x));
  flags coproduct_by_disjoint_union;
}
""",
    "cospan": """
theory cospan {
  sorts lft, rgt, apex;
  functions lmap : lft -> apex, rmap : rgt -> apex;
  axioms
    [x : lft] top |- def(lmap(x));
    [x : rgt] top |- def(rmap(x));
  flags coproduct_by_disjoint_union;
}
""",
    "bowtie": """
theory bowtie {
  sorts b1, b2, t1, t2;
  functions f11 : b1 -> t1, f12 : b1 -> t2, f21 : b2 -> t1, f22 : b2 -> t2;
  axioms
    [x : b1] top |- def(f11(x));
    [x : b1] top |- def(f12(x));
    [x : b2] top |- def(f21(x));
    [x : b2] top |- def(f22(x));
  flags coproduct_by_disjoint_union;
}
""",
    "chain5": """
# base for presheaves over a five-stage chain of restrictions
theory chain5 {
  sorts s0, s1, s2, s3, s4;
  functions r0 : s1 -> s0, r1 : s2 -> s1, r2 : s3 -> s2, r3 : s4 -> s3;
  axioms
    [x : s1] top |- def(r0(x));
    [x : s2] top |- def(r1(x));
    [x : s3] top |- def(r2(x));
    [x : s4] top |- def(r3(x));
  flags coproduct_by_disjoint_union;
}
""",
    "bounded-lattice": """
theory bounded_lattice {
  sorts el;
  functions meet : el * el -> el, join : el * el -> el, zero : -> el, one : -> el;
  axioms
    [x : el, y : el] top |- def(meet(x, y));
    [x : el, y : el] top |- def(join(x, y));
    [] top |- def(zero());
    [] top |- def(one());
    [x : el, y : el] top |- meet(x, y) = meet(y, x);
    [x : el, y : el] top |- join(x, y) = join(y, x);
    [x : el, y : el, z : el] top |- meet(meet(x, y), z) = meet(x, meet(y, z));
    [x : el, y : el, z : el] top |- join(join(x, y), z) = join(x, join(y, z));
    [x : el, y : el] top |- meet(x, join(x, y)) = x;
    [x : el, y : el] top |- join(x, meet(x, y)) = x;
    [x : el] top |- join(zero(), x) = x;
    [x : el] top |- meet(one(), x) = x;
}
""",
    "pointed": """
theory pointed {
  sorts el;
  functions pt : -> el;
  axioms
    [] top |- def(pt());
}
""",
    "group": """
# mul comes first so associativity prunes the enumerator before e and inv
theory group {
  sorts el;
  functions mul : el * el -> el, e : -> el, inv : el -> el;
  axioms
    [x : el, y : el] top |- def(mul(x, y));
    [x : el, y : el, z : el] top |- mul(mul(x, y), z) = mul(x, mul(y, z));
    [] top |- def(e());
    [x : el] top |- mul(e(), x) = x;
    [x : el] top |- mul(x, e()) = x;
    [x : el] top |- def(inv(x));
    [x : el] top |- mul(inv(x), x) = e();
    [x : el] top |- mul(x, inv(x)) = e();
}
""",
}


def _nset_source(n: int) -> str:
    decls = ", ".join(f"c{i} : -> el" for i in range(n))
    axioms = "\n".join(f"    [] top |- def(c{i}());" for i in range(n))
    return (f"theory nset{n} {{\n  sorts el;\n  functions {decls};\n"
            f"  axioms\n{axioms}\n  flags exact_locret_surjection_nomerge;\n}}\n")


def _remark_source(k: int) -> str:
    decls = ", ".join(["e : -> el"] + [f"u{i} : el -> el" for i in range(k)])
    axioms = "\n".join(f"    [] top |- u{i}(e()) = e();" for i in range(k))
    return (f"theory remarku{k} {{\n  sorts el;\n  functions {decls};\n"
            f"  axioms\n{axioms}\n}}\n")


def _chaincov_source(b: int) -> str:
    sorts = ", ".join(f"t{i}" for i in range(b))
    decls = ", ".join(f"f{i} : t{i} -> t{i + 1}" for i in range(b - 1))
    axioms = "\n".join(f"    [x : t{i}] top |- def(f{i}(x));" for i in range(b - 1))
    body = f"  sorts {sorts};\n"
    if b > 1:
        body += f"  functions {decls};\n  axioms\n{axioms}\n"
    body += "  flags coproduct_by_disjoint_union;\n"
    return f"theory chaincov{b} {{\n{body}}}\n"


def _gset_source(G: FiniteGroup) -> str:
    e = G.identity()
    decls = ", ".join(f"act_{g} : el -> el" for g in G.elements)
    lines = [f"    [x : el] top |- def(act_{g}(x));" for g in G.elements]
    lines.append(f"    [x : el] top |- act_{e}(x) = x;")
    for g in G.elements:
        for h in G.elements:
            gh = G.mul(g, h)
            lines.append(f"    [x : el] top |- act_{g}(act_{h}(x)) = act_{gh}(x);")
    axioms = "\n".join(lines)
    return (f"theory gset_{G.name} {{\n  sorts el;\n  functions {decls};\n"
            f"  axioms\n{axioms}\n  flags coproduct_by_disjoint_union;\n}}\n")


_GROUPS = {
    "trivial": trivial_group,
    "c2": lambda: cyclic_group(2),
    "c3": lambda: cyclic_group(3),
    "c4": lambda: cyclic_group(4),
    "s3": symmetric_3,
}


@lru_cache(maxsize=None)
def get_group(name: str) -> FiniteGroup:
    if name not in _GROUPS:
        raise KeyError(f"unknown group '{name}'")
    return _GROUPS[name]()


_GSET_THEORIES = {}


def gset_theory(G_or_name) -> Theory:
    G = G_or_name if isinstance(G_or_name, FiniteGroup) else get_group(G_or_name)
    if G.name not in _GSET_THEORIES:
        _GSET_THEORIES[G.name] = parse_theory(_gset_source(G), f"<gset {G.name}>")
    return _GSET_THEORIES[G.name]


def _suffix_number(name: str, prefix: str) -> Optional[int]:
    """The number a parametric corpus name carries after `prefix`, or None
    when the name has another prefix or its suffix is not all ASCII digits."""
    suffix = name[len(prefix):] if name.startswith(prefix) else ""
    return int(suffix) if suffix.isascii() and suffix.isdigit() else None


@lru_cache(maxsize=None)
def get_theory(name: str) -> Theory:
    if name in _SOURCES:
        return parse_theory(_SOURCES[name], f"<corpus {name}>")
    for prefix, source in (("nset-", _nset_source), ("remark-locret-", _remark_source),
                           ("chaincov-", _chaincov_source)):
        n = _suffix_number(name, prefix)
        if n is not None:
            return parse_theory(source(n), f"<corpus {name}>")
    if name.startswith("gset-"):
        return gset_theory(name[5:])
    raise KeyError(f"unknown theory '{name}'")


def theory_names() -> list:
    return sorted(_SOURCES) + [
        "nset-1", "nset-2", "nset-3", "nset-4",
        "remark-locret-2", "remark-locret-3",
        "chaincov-3", "chaincov-4",
        "gset-trivial", "gset-c2", "gset-c4", "gset-s3",
    ]


# ---------------------------------------------------------------------------
# structures


def set_of(n: int, name: str = "") -> PartialStructure:
    return make_structure(get_theory("set"), {"el": [str(i) for i in range(n)]},
                          name=name or f"set{n}")


def _refl_trans(labels, pairs) -> set:
    rel = {(a, a) for a in labels} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def poset_structure(labels, covers, name: str = "") -> PartialStructure:
    """Poset from its covering pairs; reflexive-transitive closure is taken."""
    return make_structure(get_theory("pos"), {"el": labels},
                          relations={"leq": _refl_trans(labels, covers)}, name=name)


def chain_poset(n: int) -> PartialStructure:
    labels = [str(i) for i in range(n)]
    return poset_structure(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)],
                           name=f"chain{n}")


def antichain_poset(n: int) -> PartialStructure:
    return poset_structure([str(i) for i in range(n)], [], name=f"antichain{n}")


def m_lattice(n: int) -> PartialStructure:
    """Bounded lattice with n pairwise incomparable atoms between 0 and 1."""
    atoms = [f"a{i}" for i in range(n)]
    labels = ["0", "1"] + atoms
    meet = {}
    join = {}
    for x in labels:
        for y in labels:
            if x == y:
                meet[(x, y)] = x
                join[(x, y)] = x
            elif x == "0" or y == "0":
                meet[(x, y)] = "0"
                join[(x, y)] = y if x == "0" else x
            elif x == "1" or y == "1":
                meet[(x, y)] = y if x == "1" else x
                join[(x, y)] = "1"
            else:
                meet[(x, y)] = "0"
                join[(x, y)] = "1"
    return make_structure(
        get_theory("bounded-lattice"), {"el": labels},
        {"meet": meet, "join": join, "zero": {(): "0"}, "one": {(): "1"}},
        name=f"M{n}")


def cycle_endo(p: int) -> PartialStructure:
    labels = [str(i) for i in range(p)]
    f = {(str(i),): str((i + 1) % p) for i in range(p)}
    return make_structure(get_theory("end"), {"el": labels}, {"f": f}, name=f"C{p}")


_PRIMES = (2, 3, 5, 7, 11, 13)


def endo_primes(n: int) -> PartialStructure:
    """Disjoint union of prime cycles C_2, C_3, ... up to index n."""
    if n >= len(_PRIMES):
        raise ValidationError(f"the endo chain is truncated at stage {len(_PRIMES) - 1}")
    X, _ = disjoint_union(get_theory("end"),
                          [cycle_endo(_PRIMES[i]) for i in range(n + 1)],
                          name=f"A{n}")
    return X


def presheaf_L(i: int) -> PartialStructure:
    """Restriction presheaf on the five-stage chain: stages below i carry a
    point, the rest are empty."""
    theory = get_theory("chain5")
    carriers = {f"s{j}": (["x"] if j < i else []) for j in range(5)}
    functions = {
        f"r{j}": ({("x",): "x"} if j + 1 < i else {})
        for j in range(4)
    }
    return make_structure(theory, carriers, functions, name=f"L{i}")


def ordinal_U(b: int, alpha: int) -> PartialStructure:
    """Point at every stage from alpha on, over the b-stage covariant chain."""
    theory = get_theory(f"chaincov-{b}")
    carriers = {f"t{j}": (["x"] if j >= alpha else []) for j in range(b)}
    functions = {
        f"f{j}": ({("x",): "x"} if j >= alpha else {})
        for j in range(b - 1)
    }
    return make_structure(theory, carriers, functions, name=f"U{alpha}")


def remark_A(k: int, n: int) -> PartialStructure:
    """Stage n of the truncated unary stack: u_j eats the extra point for
    j below min(n, k)."""
    theory = get_theory(f"remark-locret-{k}")
    functions = {"e": {(): "0"}}
    for j in range(k):
        table = {("0",): "0"}
        if j < min(n, k):
            table[("a",)] = "0"
        functions[f"u{j}"] = table
    return make_structure(theory, {"el": ["0", "a"]}, functions, name=f"A{n}")


def nset_structure(n: int, size: int, values, name: str = "") -> PartialStructure:
    labels = [str(i) for i in range(size)]
    functions = {f"c{i}": {(): str(v)} for i, v in enumerate(values)}
    return make_structure(get_theory(f"nset-{n}"), {"el": labels}, functions, name=name)


def gset_orbit_structure(G: FiniteGroup, H: frozenset, tag: int = 0) -> PartialStructure:
    """The action of G on left cosets of H."""
    theory = gset_theory(G)
    cs = cosets(G, H)
    label = {c: f"o{tag}x{i}" for i, c in enumerate(cs)}
    reps = {c: next(g for g in G.elements if g in c) for c in cs}
    coset_of = {}
    for c in cs:
        for g in c:
            coset_of[g] = c
    functions = {}
    for g in G.elements:
        functions[f"act_{g}"] = {
            (label[c],): label[coset_of[G.mul(g, reps[c])]] for c in cs
        }
    return make_structure(theory, {"el": [label[c] for c in cs]}, functions,
                          name=f"{G.name}/{'{' + ','.join(sorted(H)) + '}'}")


# ---------------------------------------------------------------------------
# chains


def get_chain(name: str) -> ChainRecipe:
    if name == "constant-set":
        return ChainRecipe(name, lambda n: set_of(2), stable_from=0,
                           description="the constant chain on a two-element set")
    if name == "growing-set":
        return ChainRecipe(name, lambda n: set_of(n + 1),
                           description="strictly growing sets; no stage is a colimit")
    if name == "lattice-chain":
        return ChainRecipe(name, lambda n: m_lattice(n + 2),
                           description="bounded lattices with ever more atoms; no backward maps")
    if name == "endo-chain":
        return ChainRecipe(name, endo_primes,
                           description="sums of prime cycles; longer sums never map back")
    if name == "presheaf-chain":
        return ChainRecipe(name, _presheaf_stage,
                           description="growing restriction presheaves on the five-stage chain")
    k = _suffix_number(name, "ordinal-chain-")
    if k is not None:
        b = k + 1
        return ChainRecipe(name, lambda n: ordinal_U(b, max(b - n, 0)), stable_from=b,
                           description="filling in stages from the top; stabilizes once full")
    k = _suffix_number(name, "remark-chain-")
    if k is not None:
        return ChainRecipe(name, lambda n: remark_A(k, n), stable_from=k,
                           description="unary stack gaining one defined entry per stage")
    raise KeyError(f"unknown chain '{name}'")


def _presheaf_stage(n: int) -> PartialStructure:
    if n > 5:
        raise ValidationError("the presheaf chain is truncated at stage 5")
    return presheaf_L(n)


def chain_names() -> list:
    return ["constant-set", "growing-set", "lattice-chain", "endo-chain",
            "presheaf-chain", "ordinal-chain-2", "ordinal-chain-3",
            "remark-chain-2", "remark-chain-3"]


# ---------------------------------------------------------------------------
# morphisms


@lru_cache(maxsize=None)
def get_morphism(name: str) -> TheoryMorphism:
    if name == "pos-id":
        pos = get_theory("pos")
        return TheoryMorphism(name, pos, pos, {"el": "el"}, {}, {"leq": "leq"})
    if name == "pos-to-brel":
        return TheoryMorphism(name, get_theory("pos"), get_theory("brel"),
                              {"el": "el"}, {}, {"leq": "r"})
    if name == "pointed-to-group":
        return TheoryMorphism(name, get_theory("pointed"), get_theory("group"),
                              {"el": "el"}, {"pt": "e"}, {})
    if name == "pos-underlying":
        return TheoryMorphism(name, get_theory("set"), get_theory("pos"),
                              {"el": "el"}, {}, {})
    if name == "urel-underlying":
        return TheoryMorphism(name, get_theory("set"), get_theory("urel"),
                              {"el": "el"}, {}, {})
    raise KeyError(f"unknown morphism '{name}'")


def morphism_names() -> list:
    return ["pos-id", "pos-to-brel", "pointed-to-group", "pos-underlying",
            "urel-underlying"]


# ---------------------------------------------------------------------------
# the ordered semiring, relative to the order


@lru_cache(maxsize=None)
def ordered_semiring() -> RelativeTheory:
    """Semiring operations relative to a partial order: truncated
    subtraction is defined exactly on ordered pairs."""
    pos = get_theory("pos")
    el = "el"
    ops = (
        RelOp("plus", (("a", el), ("b", el)), TOP, el),
        RelOp("times", (("a", el), ("b", el)), TOP, el),
        RelOp("zero", (), TOP, el),
        RelOp("one", (), TOP, el),
        RelOp("ominus", (("a", el), ("b", el)),
              RelAtom("leq", (Var("b"), Var("a"))), el),
    )
    rt = RelativeTheory("osemiring", pos, ops, ())
    ext = extended_signature(rt)
    judgments = parse_sequents(
        """
        [a : el, b : el] top |- plus(a, b) = plus(b, a);
        [a : el, b : el, c : el] top |- plus(plus(a, b), c) = plus(a, plus(b, c));
        [a : el] top |- plus(a, zero()) = a;
        [a : el, b : el, c : el] top |- times(times(a, b), c) = times(a, times(b, c));
        [a : el] top |- times(a, one()) = a & times(one(), a) = a;
        [a : el, b : el, c : el] top |- times(a, plus(b, c)) = plus(times(a, b), times(a, c))
            & times(plus(a, b), c) = plus(times(a, c), times(b, c));
        [a : el] top |- times(zero(), a) = zero() & times(a, zero()) = zero();
        [a : el, b : el] leq(a, b) |- plus(a, ominus(b, a)) = b;
        """,
        ext, "<osemiring judgments>")
    return RelativeTheory("osemiring", pos, ops, judgments)


@lru_cache(maxsize=None)
def compiled_osemiring() -> Theory:
    return compile_relative_theory(ordered_semiring())


# ---------------------------------------------------------------------------
# inventory


def list_corpus() -> dict:
    theories = []
    notes = {
        "set": "bare sets; local retractions are exactly the surjections",
        "pos": "partial orders",
        "preord": "preorders",
        "urel": "one marked subset",
        "brel": "one binary relation, no axioms",
        "per": "partial equivalence relations",
        "erel": "reflexive symmetric relations",
        "idem": "one idempotent total endomap",
        "end": "one total endomap",
        "arrow": "a single total map between two sorts",
        "cospan": "two total maps into a shared apex",
        "bowtie": "four total maps crossing two sources and two targets",
        "chain5": "base for five-stage restriction presheaves",
        "bounded-lattice": "lattices with top and bottom",
        "pointed": "one total constant",
        "group": "groups as one-sorted total algebras",
        "nset-1": "one constant", "nset-2": "two constants",
        "nset-3": "three constants; local retractions must not merge them",
        "nset-4": "four constants",
        "remark-locret-2": "truncated unary stack over a constant, two levels",
        "remark-locret-3": "truncated unary stack over a constant, three levels",
        "chaincov-3": "three-stage covariant chain base",
        "chaincov-4": "four-stage covariant chain base",
        "gset-trivial": "actions of the one-element group",
        "gset-c2": "actions of the two-element group",
        "gset-c4": "actions of the cyclic group of order four",
        "gset-s3": "actions of the symmetric group on three points",
    }
    for name in theory_names():
        theories.append({"name": name, "note": notes.get(name, "")})
    chains = [{"name": n, "note": get_chain(n).description} for n in chain_names()]
    morphisms = [{"name": n} for n in morphism_names()]
    families = [
        {"name": "m-lattices", "tags": ["acc-false"], "computed": True,
         "note": "bounded lattices M_n with n incomparable middle elements; "
                 "no lattice morphism from bigger to smaller"},
        {"name": "endo-primes", "tags": ["acc-false"], "computed": True,
         "note": "disjoint unions of the first n prime cycles under an "
                 "endomap; no morphism backward"},
        {"name": "presheaf-stages", "tags": ["acc-false"], "computed": True,
         "note": "truncated restriction diagrams L_n over the five sort "
                 "chain base; no morphism backward"},
        {"name": "semigroup-chain", "tags": ["acc-false"], "computed": False,
         "note": "semigroups on generators x_0..x_n with x_i = x_i x_j for "
                 "i > j; every stage is infinite, so this family is "
                 "documented but not computed"},
        {"name": "remark-locret", "tags": ["counterexample"], "computed": True,
         "note": "unary collapse family: the definable class is a closure "
                 "fixpoint yet the chain colimit escapes it"},
        {"name": "remark-constants", "tags": ["counterexample"],
         "computed": True,
         "note": "constant families: a surjection that merges two constants "
                 "is not a local retraction"},
        {"name": "ordinal-stages", "tags": ["acc-true"], "computed": True,
         "note": "descending stage family over a finite chain base; "
                 "components form a finite total order"},
    ]
    return {
        "theories": theories,
        "chains": chains,
        "morphisms": morphisms,
        "groups": sorted(_GROUPS),
        "families": families,
    }
