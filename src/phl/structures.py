"""Finite partial structures and their Horn semantics.

A structure carries, per sort, a finite tuple of labels, per function symbol a
partial table (dict from argument tuples to values) and per relation symbol a
set of tuples; `PartialStructure.rows` reads either as rows, a function as its
graph.  Formula evaluation follows the partial reading: a compound term is
defined only when all arguments are and the table has an entry, a relation
atom holds only when its arguments are defined, and an equation holds only
when both sides are defined and equal.  Conjunction intersects and `top` is
the full product, so over the empty context `top` is inhabited by the empty
tuple and a sequent like `top |- def(c())` rules out the empty structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .canonical import least_relabeling
from .syntax import (
    And,
    BudgetError,
    Formula,
    RelAtom,
    Sequent,
    Theory,
    TheoryMorphism,
    Top,
    ValidationError,
    Var,
    and_parts,
)


@dataclass
class PartialStructure:
    theory: Theory
    carriers: dict  # sort -> tuple of labels
    functions: dict = field(default_factory=dict)  # fn -> {args tuple: value}
    relations: dict = field(default_factory=dict)  # rel -> set of tuples
    name: str = ""

    def carrier(self, sort) -> tuple:
        return self.carriers.get(sort, ())

    def table(self, name: str, is_function: bool):
        """One symbol's table: a function's dict or a relation's set (or ()
        when it has none).  Either way an argument tuple is in it exactly
        when its cell is present."""
        return (self.functions if is_function else self.relations).get(name, ())

    def rows(self, name: str, is_function: bool):
        """One symbol's table as rows: the tuples (args..., value) of a
        function's graph, or a relation's tuples."""
        if is_function:
            return [(*args, value) for args, value in self.functions.get(name, {}).items()]
        return self.relations.get(name, ())

    def set_rows(self, name: str, is_function: bool, rows: Iterable) -> None:
        """Make one symbol's table the one these rows (see `rows`) list."""
        if is_function:
            self.functions[name] = {tuple(row[:-1]): row[-1] for row in rows}
        else:
            self.relations[name] = set(map(tuple, rows))


def make_structure(theory: Theory, carriers: dict, functions=None, relations=None,
                   name: str = "") -> PartialStructure:
    sig = theory.signature
    X = PartialStructure(
        theory,
        {s: tuple(carriers.get(s, ())) for s in sig.sorts},
        {f: dict((functions or {}).get(f, {})) for f in sig.functions},
        {r: {tuple(row) if isinstance(row, list) else row
             for row in (relations or {}).get(r, ())} for r in sig.relations},
        name,
    )
    validate_structure(X)
    return X


def validate_structure(X: PartialStructure) -> None:
    labels = _label_sets(X.theory, X.carriers)
    for name, sorts, is_function in X.theory.signature.symbols():
        if not all(isinstance(args, tuple) for args in X.table(name, is_function)):
            raise ValidationError(f"a key of function '{name}' is not a tuple" if is_function
                                  else f"a row of relation '{name}' is not a tuple or list")
        _check_rows(name, sorts, X.rows(name, is_function), labels)


def _label_sets(theory: Theory, carriers: dict) -> dict:
    """Per sort, the set of its labels; raises when a carrier repeats one."""
    labels = {}
    for s in theory.signature.sorts:
        c = carriers.get(s, ())
        labels[s] = set(c)
        if len(labels[s]) != len(c):
            raise ValidationError(f"carrier of sort '{s}' repeats a label")
    return labels


def _check_rows(name: str, sorts: tuple, rows: Iterable, labels: dict) -> None:
    for row in rows:
        if len(row) != len(sorts):
            raise ValidationError(f"row of '{name}' has wrong length")
        for a, s in zip(row, sorts):
            if a not in labels[s]:
                raise ValidationError(f"row of '{name}' uses '{a}' outside sort '{s}'")


def structure_size(X: PartialStructure) -> int:
    return sum(len(X.carrier(s)) for s in X.theory.signature.sorts)


# ---------------------------------------------------------------------------
# evaluation


def eval_term(X: PartialStructure, env: dict, term) -> Optional[object]:
    """Value of a term, or None when undefined."""
    if isinstance(term, Var):
        return env[term.name]
    vals = []
    for a in term.args:
        v = eval_term(X, env, a)
        if v is None:
            return None
        vals.append(v)
    return X.functions.get(term.func, {}).get(tuple(vals))


def satisfies(X: PartialStructure, env: dict, formula: Formula) -> bool:
    if isinstance(formula, Top):
        return True
    if isinstance(formula, And):
        return satisfies(X, env, formula.lhs) and satisfies(X, env, formula.rhs)
    if isinstance(formula, RelAtom):
        vals = []
        for a in formula.args:
            v = eval_term(X, env, a)
            if v is None:
                return False
            vals.append(v)
        return tuple(vals) in X.relations.get(formula.rel, ())
    l = eval_term(X, env, formula.lhs)
    if l is None:
        return False
    r = eval_term(X, env, formula.rhs)
    return r is not None and l == r


def context_envs(X: PartialStructure, context: tuple) -> Iterator[tuple]:
    """All assignments of carrier elements to the context, in carrier order."""
    return itertools.product(*(X.carrier(s) for _, s in context))


def interpreted_witness(X: PartialStructure, seq: Sequent) -> Optional[dict]:
    """First environment satisfying the premise but not the conclusion.

    The reference semantics: it walks the AST for every assignment.  Only the
    tests use it, as the oracle for the compiled checkers."""
    names = [v for v, _ in seq.context]
    for vals in context_envs(X, seq.context):
        env = dict(zip(names, vals))
        if satisfies(X, env, seq.premise) and not satisfies(X, env, seq.conclusion):
            return env
    return None


_EMPTY = MappingProxyType({})
UNDECIDED = object()  # a conclusion value that depends on open cells


def sequent_witness(X: PartialStructure, seq: Sequent,
                    open: Mapping = _EMPTY) -> Optional[dict]:
    """First environment satisfying the premise but not the conclusion.

    Runs the sequent's compiled checker, built on first use and kept on the
    sequent itself; the result equals interpreted_witness(X, seq).

    `open` maps a symbol name to the argument tuples whose cells are not
    decided yet; they must be absent from X's tables.  A witness is then
    returned only where every completion of the open cells violates the
    sequent.  With no open cells this is the exact check."""
    try:
        check = seq._checker
    except AttributeError:
        check = _compile_sequent(seq)
    return check(X, open)


# A compiled checker is the interpreter's loop nest written out once per
# sequent: one `for` per context variable, in context order.  A compound
# premise term is looked up, and a premise atom tested, at the depth of its
# last-bound variable, and a failure moves on to that variable's next value.
# Only subtrees holding no witness are skipped, so the first witness found is
# the interpreter's.  Carrier labels are never None, the value that stands for
# "undefined" in a table lookup.
#
# Open cells only change the conclusion.  The premise reads them as absent,
# so it holds only where it holds in every completion.  A conclusion lookup
# of an open cell, or one taking an UNDECIDED argument, yields UNDECIDED, and
# an atom with an UNDECIDED side or an open relation tuple passes: the chain
# fails only on an atom that fails in every completion.  Without open cells
# UNDECIDED never arises and the chain is the exact conclusion test.


def _compile_sequent(seq: Sequent) -> Callable[..., Optional[dict]]:
    """Build the checker of a sequent and keep it on the sequent."""
    namespace = {"EMPTY": _EMPTY, "UNDECIDED": UNDECIDED}
    exec(compile(_checker_source(seq), "<phl sequent checker>", "exec"), namespace)
    check = namespace["check"]
    object.__setattr__(seq, "_checker", check)
    return check


def _tuple_src(parts: list) -> str:
    return f"({parts[0]},)" if len(parts) == 1 else f"({', '.join(parts)})"


def _checker_source(seq: Sequent) -> str:
    ctx = seq.context
    depth = {v: i + 1 for i, (v, _) in enumerate(ctx)}  # a repeated name binds last
    head = ["def check(X, open=EMPTY):", "    fns = X.functions", "    rels = X.relations",
            "    car = X.carriers"]
    symbols = {}

    def symbol(kind: str, name: str) -> str:
        if (kind, name) not in symbols:
            local = f"{kind}{len(symbols)}"
            symbols[kind, name] = local
            source = {"F": f"fns.get({name!r}, EMPTY)", "R": f"rels.get({name!r}, ())",
                      "C": f"car.get({name!r}, ())", "O": f"open.get({name!r}, ())"}[kind]
            head.append(f"    {local} = {source}")
        return symbols[kind, name]

    def var(name: str) -> tuple:
        if name not in depth:
            raise ValidationError(f"unbound variable '{name}'")
        return f"x{depth[name] - 1}", depth[name]

    # premise: (depth, test) pairs; each test must hold to go deeper
    tests = []
    bound = {}

    def bind(term) -> tuple:
        if isinstance(term, Var):
            return var(term.name)
        if term not in bound:
            args = [bind(a) for a in term.args]
            d = max((ad for _, ad in args), default=0)
            local = f"t{len(bound)}"
            lookup = f"{symbol('F', term.func)}.get({_tuple_src([a for a, _ in args])})"
            tests.append((d, f"({local} := {lookup}) is not None"))
            bound[term] = (local, d)
        return bound[term]

    for atom in and_parts(seq.premise):
        if isinstance(atom, RelAtom):
            args = [bind(a) for a in atom.args]
            d = max((ad for _, ad in args), default=0)
            tests.append((d, f"{_tuple_src([a for a, _ in args])} in {symbol('R', atom.rel)}"))
        elif atom.lhs == atom.rhs:
            bind(atom.lhs)
        else:
            (l, ld), (r, rd) = bind(atom.lhs), bind(atom.rhs)
            tests.append((max(ld, rd), f"{l} == {r}"))

    # conclusion: conditions chained with `and`, so a name bound by `:=`
    # in one condition is defined in every later one
    holds = []
    fresh = {}
    last = max((d for d, _ in tests), default=0)

    def term(t) -> str:
        nonlocal last
        if isinstance(t, Var):
            local, d = var(t.name)
            last = max(last, d)
            return local
        if t in bound:
            return bound[t][0]
        if t not in fresh:
            args = [term(a) for a in t.args]
            key = _tuple_src(args)
            local = f"c{len(fresh)}"
            unknown = " or ".join(undecided(args) + [f"{key} in {symbol('O', t.func)}"])
            holds.append(f"(({local} := {symbol('F', t.func)}.get({key})) is not None"
                         f" or ({unknown}) and ({local} := UNDECIDED) is UNDECIDED)")
            fresh[t] = local
        return fresh[t]

    def undecided(locals_: list) -> list:
        # only conclusion lookups can be UNDECIDED
        return [f"{a} is UNDECIDED" for a in locals_ if a in fresh.values()]

    for atom in and_parts(seq.conclusion):
        if isinstance(atom, RelAtom):
            args = [term(a) for a in atom.args]
            key = _tuple_src(args)
            passes = ([f"{key} in {symbol('R', atom.rel)}"] + undecided(args)
                      + [f"{key} in {symbol('O', atom.rel)}"])
            holds.append(f"({' or '.join(passes)})")
        elif atom.lhs == atom.rhs:
            term(atom.lhs)
        else:
            l, r = term(atom.lhs), term(atom.rhs)
            holds.append(f"({' or '.join([f'{l} == {r}'] + undecided([l, r]))})")
    if not holds:  # the conclusion holds wherever the premise does
        return "def check(X, open=EMPTY):\n    return None\n"

    body = []
    for d in range(len(ctx) + 1):
        pad = "    " * (d + 1)
        if d:
            body.append(f"{'    ' * d}for x{d - 1} in {symbol('C', ctx[d - 1][1])}:")
        fail = "continue" if d else "return None"
        body += [f"{pad}if not ({test}): {fail}" for td, test in tests if td == d]
        if d == last:
            body.append(f"{pad}if not ({' and '.join(holds)}):")
            break
    # variables no atom mentions: the witness takes their first values
    for d in range(last + 1, len(ctx) + 1):
        body.append(f"{'    ' * (d + 1)}for x{d - 1} in {symbol('C', ctx[d - 1][1])}:")
    witness = ", ".join(f"{v!r}: x{i}" for i, (v, _) in enumerate(ctx))
    body.append(f"{'    ' * (len(ctx) + 2)}return {{{witness}}}")
    if last < len(ctx):
        body.append(f"{'    ' * (last + 2)}return None")  # an empty trailing carrier
    body.append("    return None")
    return "\n".join(head + body) + "\n"


def failing_axiom(X: PartialStructure) -> Optional[tuple]:
    for seq in X.theory.axioms:
        w = sequent_witness(X, seq)
        if w is not None:
            return seq, w
    return None


def is_model(X: PartialStructure) -> bool:
    return failing_axiom(X) is None


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass
class Homomorphism:
    source: PartialStructure
    target: PartialStructure
    maps: dict  # sort -> {label: label}
    name: str = ""


def compose(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    maps = {}
    for s in f.source.theory.signature.sorts:
        maps[s] = {a: g.maps[s][b] for a, b in f.maps[s].items()}
    return Homomorphism(f.source, g.target, maps)


def hom_violation(h: Homomorphism) -> Optional[str]:
    """None when h is a homomorphism, else a reason with a witness."""
    # Raw tables, no helper shared with HomPlan: the tests check HomPlan against it.
    X, Y = h.source, h.target
    sig = X.theory.signature
    for s in sig.sorts:
        m = h.maps.get(s, {})
        for a in X.carrier(s):
            if a not in m:
                return f"no image for '{a}' of sort '{s}'"
            if m[a] not in Y.carrier(s):
                return f"image of '{a}' lies outside the target carrier of '{s}'"
    for f, (argsorts, result) in sig.functions.items():
        for args, val in X.functions.get(f, {}).items():
            mapped = tuple(h.maps[s][a] for s, a in zip(argsorts, args))
            got = Y.functions.get(f, {}).get(mapped)
            if got is None:
                return f"'{f}' undefined at image of {args}"
            if got != h.maps[result][val]:
                return f"'{f}' not preserved at {args}"
    for r, argsorts in sig.relations.items():
        for args in X.relations.get(r, ()):
            mapped = tuple(h.maps[s][a] for s, a in zip(argsorts, args))
            if mapped not in Y.relations.get(r, set()):
                return f"'{r}' not preserved at {args}"
    return None


def is_surjective(h: Homomorphism) -> bool:
    for s in h.source.theory.signature.sorts:
        if set(h.maps[s].values()) != set(h.target.carrier(s)):
            return False
    return True


def jointly_closed_mono(X: PartialStructure, homs: Iterable) -> bool:
    """Is the tupling of `homs`, all homomorphisms out of X, a closed mono
    into the product of their targets?

    That holds iff the homomorphisms jointly separate distinct elements,
    some homomorphism witnesses each undefined function entry of X (its
    image entry is undefined in that target), and some homomorphism
    witnesses each absent relation tuple.  The product is never built, so
    this decides closed embeddings into products of any size.  With no
    homomorphisms the product is the one-point total structure.  `homs` is
    read once, and only until every obligation is discharged.
    """
    sig = X.theory.signature
    read, fresh = [], iter(homs)

    def replay():
        """The homs read so far, then more from the stream, each read once."""
        yield from read
        for h in fresh:
            read.append(h)
            yield h

    for s in sig.sorts:
        for a, b in itertools.combinations(X.carrier(s), 2):
            if all(h.maps[s][a] == h.maps[s][b] for h in replay()):
                return False
    for name, sorts, is_function in sig.symbols():
        argsorts = sorts[:-1] if is_function else sorts
        held = X.table(name, is_function)
        for args in itertools.product(*(X.carrier(s) for s in argsorts)):
            if args not in held and all(
                    tuple(h.maps[s][a] for s, a in zip(argsorts, args))
                    in h.target.table(name, is_function) for h in replay()):
                return False
    return True


def is_closed_mono(h: Homomorphism) -> bool:
    """Injective homomorphism reflecting definedness and relations.

    Whenever a function is defined at the image tuple or the image tuple is
    related in the target, the same must already hold in the source.
    """
    return jointly_closed_mono(h.source, [h])


def is_iso(h: Homomorphism) -> bool:
    """A surjective closed mono: a bijection on every sort that reflects
    definedness, values and relations, so its inverse is a homomorphism."""
    return hom_violation(h) is None and is_surjective(h) and is_closed_mono(h)


# ---------------------------------------------------------------------------
# canonical forms


RELABEL_BUDGET = 500_000  # relabelings one canonical key may try


def canonical_key(X: PartialStructure) -> str:
    """Lexicographically least encoding over all relabelings per sort.

    Structures of the same theory are isomorphic exactly when their keys
    agree.  A relabeling numbers each sort's elements 0, 1, ...; the
    encoding is the repr of the carrier sizes, then per function symbol the
    sorted (argument labels, value label) entries and per relation symbol
    the sorted label tuples, functions before relations in declaration
    order.  Past RELABEL_BUDGET relabelings (the product of the carrier
    factorials) it raises BudgetError before any search.

    Under the budget every sort has at most 9 elements, so labels are single
    digits, and every relabeling gives each symbol the same number of
    entries of the same shapes.  Two encodings therefore differ only in
    digits, and their repr order is the order of their cell vectors: per
    symbol in the order above, per argument label tuple in lexicographic
    order, one cell ranked by the value's label with an undefined entry
    last for a function, and present before absent for a relation.  (With
    equal entry counts, the first tuple where two tables differ is the first
    place where their sorted entry lists differ.)

    The relabeling comes from `canonical.least_relabeling`, which refines an
    ordered partition of each sort, sorting tied elements together and
    branching only where a label must go to one element of a block.  When
    every sort has at most one element there is one relabeling, encoded
    directly.  The key is built from the winning relabeling.
    """
    sig = X.theory.signature
    total = 1
    for s in sig.sorts:
        n = len(X.carrier(s))
        for i in range(2, n + 1):
            total *= i
        if total > RELABEL_BUDGET:
            raise BudgetError(f"canonical key over {total}+ relabelings")
    if total == 1:
        order = {s: X.carrier(s) for s in sig.sorts}
    else:
        order = least_relabeling(X)
    relabel = {s: {a: i for i, a in enumerate(order[s])} for s in sig.sorts}
    parts = [tuple(len(X.carrier(s)) for s in sig.sorts)]
    for f, (argsorts, result) in sig.functions.items():
        entries = sorted(
            (tuple(relabel[s][a] for s, a in zip(argsorts, args)), relabel[result][val])
            for args, val in X.functions.get(f, {}).items()
        )
        parts.append(tuple(entries))
    for r, argsorts in sig.relations.items():
        tuples = sorted(
            tuple(relabel[s][a] for s, a in zip(argsorts, args))
            for args in X.relations.get(r, set())
        )
        parts.append(tuple(tuples))
    return repr(parts)


# ---------------------------------------------------------------------------
# limits, colimits, reducts


def product(theory: Theory, factors: list, name: str = "") -> PartialStructure:
    """Finite product.  The empty product is the one-point total structure:
    one element () per sort, every entry defined, every tuple held."""
    carriers = {
        s: tuple(itertools.product(*(F.carrier(s) for F in factors)))
        for s in theory.signature.sorts
    }
    return _product_on(theory, factors, carriers, name)


def _product_on(theory: Theory, factors: list, carriers: dict, name: str) -> PartialStructure:
    """The substructure of the product of `factors` on `carriers`, tuples of
    factor elements, in itertools.product order of its argument tuples.  The
    carriers must be closed under the product's defined operations."""
    P = PartialStructure(theory, carriers, name=name)
    for sym, sorts, is_function in theory.signature.symbols():
        argsorts = sorts[:-1] if is_function else sorts
        tables = [F.table(sym, is_function) for F in factors]
        rows = []
        for args in itertools.product(*(carriers[s] for s in argsorts)):
            # args is a tuple of product elements; slice per factor
            vals = []
            for i, table in enumerate(tables):
                entry = tuple(a[i] for a in args)
                if entry not in table:
                    break
                if is_function:
                    vals.append(table[entry])
            else:
                rows.append((*args, tuple(vals)) if is_function else args)
        P.set_rows(sym, is_function, rows)
    return P


def projection(P: PartialStructure, factors: list, i: int) -> Homomorphism:
    maps = {s: {a: a[i] for a in P.carrier(s)} for s in P.theory.signature.sorts}
    return Homomorphism(P, factors[i], maps, f"proj{i}")


def pullback(p: Homomorphism, q: Homomorphism) -> tuple:
    """Pullback of p: A -> C and q: B -> C with its two projections: the
    substructure of A x B on the pairs where p and q agree.  Homomorphisms
    preserve defined operations, so those pairs are closed under them and
    the tables are built on them alone."""
    if p.target is not q.target:
        raise ValidationError("pullback needs a shared codomain")
    A, B = p.source, q.source
    carriers = {s: tuple((a, b) for a in A.carrier(s) for b in B.carrier(s)
                         if p.maps[s][a] == q.maps[s][b])
                for s in A.theory.signature.sorts}
    P = _product_on(A.theory, [A, B], carriers, "pullback")
    return P, projection(P, [A, B], 0), projection(P, [A, B], 1)


def reduct(m: TheoryMorphism, Y: PartialStructure, name: str = "") -> PartialStructure:
    """Pull a target-theory structure back along a theory morphism."""
    if Y.theory.name != m.target.name:
        raise ValidationError("reduct expects a structure of the morphism's target theory")
    src = m.source.signature
    carriers = {s: Y.carrier(m.sort_map[s]) for s in src.sorts}
    functions = {f: dict(Y.functions.get(m.fn_map[f], {})) for f in src.functions}
    relations = {r: set(Y.relations.get(m.rel_map[r], set())) for r in src.relations}
    return PartialStructure(m.source, carriers, functions, relations,
                            name or f"{Y.name}|{m.name}")


def reduct_hom(m: TheoryMorphism, h: Homomorphism) -> Homomorphism:
    """A homomorphism of target-theory structures, seen through the reduct."""
    src = reduct(m, h.source)
    tgt = reduct(m, h.target)
    maps = {s: dict(h.maps[m.sort_map[s]]) for s in m.source.signature.sorts}
    return Homomorphism(src, tgt, maps, h.name)


def disjoint_union(theory: Theory, parts: list, name: str = "") -> tuple:
    """Tagged union with its coprojections.

    Only sound as a coproduct for theories flagged coproduct_by_disjoint_union
    (operations never mix components and no axiom forces cross-component
    structure); refused otherwise.
    """
    if "coproduct_by_disjoint_union" not in theory.flags:
        raise ValidationError(
            f"theory '{theory.name}' does not declare coproduct_by_disjoint_union")
    sig = theory.signature
    carriers = {
        s: tuple((i, a) for i, P in enumerate(parts) for a in P.carrier(s))
        for s in sig.sorts
    }
    X = PartialStructure(theory, carriers, name=name)
    for sym, _, is_function in sig.symbols():
        X.set_rows(sym, is_function, [tuple((i, a) for a in row) for i, P in enumerate(parts)
                                      for row in P.rows(sym, is_function)])
    cops = [
        Homomorphism(P, X, {s: {a: (i, a) for a in P.carrier(s)} for s in sig.sorts},
                     f"inj{i}")
        for i, P in enumerate(parts)
    ]
    return X, cops


# ---------------------------------------------------------------------------
# chains


@dataclass
class ChainRecipe:
    """An omega-chain of substructures, given by its stages.

    Stage n must be a substructure of stage n + 1, which keeps each of its
    labels, defined entries and related tuples, so the connector between
    them is the label-preserving inclusion (`stage_inclusion`).  stable_from
    marks a stage from which the recipe guarantees all inclusions are
    isomorphisms; the inspected window can then certify an exact colimit
    instead of a bounded observation.
    """

    name: str
    structure_at: Callable[[int], PartialStructure]
    stable_from: Optional[int] = None
    description: str = ""


def stage_inclusion(recipe: ChainRecipe, n: int, lower: PartialStructure,
                    upper: PartialStructure) -> Homomorphism:
    """The connector from stage n (`lower`) to stage n + 1 (`upper`) of the
    recipe: the label-preserving inclusion, refused unless a homomorphism."""
    h = Homomorphism(lower, upper, {s: {a: a for a in lower.carrier(s)}
                                    for s in lower.theory.signature.sorts}, "incl")
    bad = hom_violation(h)
    if bad is not None:
        raise ValidationError(
            f"stage {n} of '{recipe.name}' is not a substructure of stage {n + 1}: {bad}")
    return h


@dataclass
class ColimitResult:
    kind: str  # "exact" | "stable-within" | "not-stable"
    stage: Optional[int]
    structure: Optional[PartialStructure]
    note: str


def chain_colimit(recipe: ChainRecipe, horizon: int) -> ColimitResult:
    """Colimit of the chain as witnessed on stages 0..horizon.

    Builds each stage once and checks each inclusion between consecutive
    stages.  Reports an exact colimit when the recipe declares stabilization
    and the window confirms it, a bounded observation when the inclusions
    turn into isomorphisms inside the window, and not-stable otherwise.
    """
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    stages = [recipe.structure_at(n) for n in range(horizon + 1)]
    conns = [stage_inclusion(recipe, n, stages[n], stages[n + 1]) for n in range(horizon)]
    iso_from = horizon
    for n in range(horizon - 1, -1, -1):
        if is_iso(conns[n]):
            iso_from = n
        else:
            break
    if recipe.stable_from is not None and recipe.stable_from <= horizon - 1:
        if iso_from <= recipe.stable_from:
            return ColimitResult(
                "exact", recipe.stable_from, stages[recipe.stable_from],
                f"declared stable from stage {recipe.stable_from}, confirmed on the window")
        return ColimitResult(
            "not-stable", None, None,
            f"declared stable from stage {recipe.stable_from} but a later connector is not an isomorphism")
    if iso_from <= horizon - 1:
        return ColimitResult(
            "stable-within", iso_from, stages[iso_from],
            f"connectors are isomorphisms from stage {iso_from} through stage {horizon}")
    return ColimitResult(
        "not-stable", None, None,
        f"no stabilization among stages 0..{horizon}")


# ---------------------------------------------------------------------------
# JSON interchange


def _label_str(label) -> str:
    if isinstance(label, str):
        return label
    if isinstance(label, tuple):
        return "(" + ",".join(_label_str(x) for x in label) + ")"
    return str(label)


def structure_to_json(X: PartialStructure) -> dict:
    sig = X.theory.signature
    tables = {"functions": {}, "relations": {}}
    for name, _, is_function in sig.symbols():
        tables["functions" if is_function else "relations"][name] = sorted(
            list(map(_label_str, row)) for row in X.rows(name, is_function))
    return {"signature": X.theory.name, "name": X.name,
            "carriers": {s: [_label_str(a) for a in X.carrier(s)] for s in sig.sorts},
            **tables}


def structure_from_json(d: dict, theory: Theory) -> PartialStructure:
    if not isinstance(d, dict):
        raise ValidationError("the structure is not a JSON object")
    if d.get("signature") != theory.name:
        raise ValidationError(
            f"structure is for signature '{d.get('signature')}', expected '{theory.name}'")
    sig = theory.signature
    for part, kind, names in (("carriers", "sort", sig.sorts), ("functions", "function",
                              sig.functions), ("relations", "relation", sig.relations)):
        entries = d.get(part, {})
        if not isinstance(entries, dict):
            raise ValidationError(f"'{part}' is not a JSON object")
        for name, entry in entries.items():
            if name not in names:
                raise ValidationError(f"'{part}' names {name!r}, which is not a {kind} "
                                      f"of '{theory.name}'")
            what = "carrier" if part == "carriers" else "table"
            if not isinstance(entry, list):
                raise ValidationError(f"the {what} of {kind} {name!r} is not an array")
            if what == "table" and not all(isinstance(row, list) for row in entry):
                raise ValidationError(f"a row of {kind} {name!r} is not an array")
            if not all(isinstance(a, str) for a in (
                    entry if what == "carrier" else itertools.chain(*entry))):
                raise ValidationError(f"the {what} of {kind} {name!r} holds a label "
                                      "that is not a string")
    X = PartialStructure(theory, {s: tuple(d.get("carriers", {}).get(s, ())) for s in sig.sorts},
                         name=d.get("name", ""))
    labels = _label_sets(theory, X.carriers)
    for name, sorts, is_function in sig.symbols():
        rows = d.get("functions" if is_function else "relations", {}).get(name, [])
        _check_rows(name, sorts, rows, labels)
        X.set_rows(name, is_function, rows)
    return X
