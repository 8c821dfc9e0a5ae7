"""Bounded model universes and closure operators on classes of models.

A universe holds, up to isomorphism, every model of a theory whose carriers
all stay within a size bound k.  Classes of members are closed under three
operators: finite products (with the empty product, the terminal model),
closed substructures, and images of local retractions.  Everything is
computed inside the bounded universe, so fixpoints certify closure at the
inspected scale, nothing beyond it; the chain examples show how a colimit
can escape a bounded fixpoint.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Optional

from .homsearch import enumerate_homs, iter_homs, passes_probes
from .structures import (
    PartialStructure,
    canonical_key,
    is_closed_mono,
    is_surjective,
    product,
    reduct,
    reduct_hom,
    sequent_witness,
    structure_from_json,
    structure_size,
    structure_to_json,
)
from .syntax import (
    BudgetError,
    Sequent,
    Theory,
    TheoryMorphism,
    print_theory,
    sequent_symbols,
    translate_sequent,
    validate_morphism,
)


@dataclass
class ModelUniverse:
    """The members with their canonical keys, and one memo for every relation
    between members that the closure operators ask about.  Members are
    named after their position on construction."""
    theory: Theory
    k: int
    members: list
    keys: list
    index: dict = field(init=False, repr=False)
    _memo: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for pos, X in enumerate(self.members):
            X.name = f"{self.theory.name}#{pos}"
        self.index = {key: pos for pos, key in enumerate(self.keys)}

    def __len__(self):
        return len(self.members)

    def _remember(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def homs(self, i: int, j: int) -> list:
        return self._remember(("homs", i, j), lambda: enumerate_homs(
            self.members[i], self.members[j]))

    def closed_sub(self, i: int, j: int) -> bool:
        """Does member i embed into member j as a closed substructure?"""
        return self._remember(("closed-sub", i, j), lambda: any(
            is_closed_mono(h)
            for h in iter_homs(self.members[i], self.members[j], injective=True)))

    def locret(self, i: int, j: int, rho: Optional[TheoryMorphism] = None) -> bool:
        """Does some homomorphism member i -> member j pass the local
        retraction probes?  Probes are the whole universe (its reducts, when a
        theory morphism is supplied)."""
        if rho is None:
            return self._remember(("locret", i, j, None), lambda: any(
                passes_probes(p, self.members) for p in self.homs(i, j)))
        probes = self._remember(("reducts", rho.name),
                                lambda: [reduct(rho, X) for X in self.members])
        return self._remember(("locret", i, j, rho.name), lambda: any(
            passes_probes(reduct_hom(rho, p), probes) for p in self.homs(i, j)))

    def product_index(self, combo: tuple) -> Optional[int]:
        """The member index of the product of the members in `combo`, a
        sorted tuple, or None when the product exceeds the bound.  () gives
        the terminal model, which every universe must contain."""
        return self._remember(("product", combo), lambda: self._product_index(combo))

    def _product_index(self, combo: tuple) -> Optional[int]:
        factors = [self.members[i] for i in combo]
        if combo and any(math.prod(len(F.carrier(s)) for F in factors) > self.k
                         for s in self.theory.signature.sorts):
            return None
        idx = self.index.get(canonical_key(product(self.theory, factors)))
        if idx is None:
            named = " x ".join(F.name for F in factors) or "the terminal model"
            raise ValueError(f"the bounded product {named} is missing from the "
                             f"universe of '{self.theory.name}' at k={self.k}")
        return idx


def theory_hash(theory: Theory) -> str:
    return hashlib.sha256(print_theory(theory).encode()).hexdigest()[:16]


def enumerate_models(theory: Theory, k: int, cache_dir: Optional[str] = None,
                     visit_budget: int = 40_000_000) -> ModelUniverse:
    """All models with every carrier of size at most k, up to isomorphism.

    A depth-first search over cells.  For each choice of carrier sizes it
    sets one cell at a time: the function symbols, then the relation
    symbols, in declaration order, and within a symbol the argument tuples
    in itertools.product order.  A function cell takes None (undefined) and
    then each carrier element, a relation cell False and then True, so
    complete structures come in lexicographic order and the first labelled
    representative of each isomorphism class is kept.

    Once a cell is set, the axioms whose last symbol it belongs to are
    checked three-valued, with that symbol's later cells open
    (sequent_witness), and the branch is cut when every completion violates
    one; at the symbol's last cell the check is exact.  `visit_budget`
    bounds the search nodes (cell assignments).  Members are deduplicated by
    canonical key and sorted by size, making the universe deterministic.
    """
    if cache_dir is not None:
        cached = load_universe(theory, k, cache_dir)
        if cached is not None:
            return cached
    sig = theory.signature
    symbols = [(f, sig.functions[f][0]) for f in sig.functions]
    symbols += [(r, sig.relations[r]) for r in sig.relations]
    ground = []
    axioms_of = {name: [] for name, _ in symbols}  # by the last symbol mentioned
    for seq in theory.axioms:
        fns, rels = sequent_symbols(seq)
        named = [name for name, _ in symbols if name in fns or name in rels]
        (axioms_of[named[-1]] if named else ground).append(seq)

    found = {}
    order = []
    visits = 0

    def cells_for(X):
        """Cells in search order as (symbol, table, args, values, axioms,
        open cells), and the axioms to check before the first cell."""
        upfront = list(ground)
        cells = []
        for name, argsorts in symbols:
            if name in sig.functions:
                table = X.functions[name]
                values = (None,) + X.carrier(sig.functions[name][1])
            else:
                table = X.relations[name]
                values = (False, True)
            space = list(itertools.product(*(X.carrier(s) for s in argsorts)))
            if not space:  # checked exactly once the symbols before it are set
                (cells[-1][4] if cells else upfront).extend(axioms_of[name])
            for j, args in enumerate(space):
                cells.append((name, table, args, values, list(axioms_of[name]),
                              {name: frozenset(space[j + 1:])}))
        return upfront, cells

    def assign(X, cells, c):
        nonlocal visits
        if c == len(cells):
            key = canonical_key(X)
            if key not in found:
                found[key] = PartialStructure(
                    theory,
                    dict(X.carriers),
                    {f: dict(t) for f, t in X.functions.items()},
                    {r: set(t) for r, t in X.relations.items()},
                )
                order.append(key)
            return
        name, table, args, values, axioms, open_cells = cells[c]
        fn = isinstance(table, dict)
        for value in values:  # the first value leaves the cell absent
            visits += 1
            if visits > visit_budget:
                sizes = ", ".join(f"{s}:{len(X.carrier(s))}" for s in sig.sorts)
                raise BudgetError(
                    f"model enumeration of '{theory.name}' at k={k} stopped after "
                    f"{visit_budget} search nodes (its budget), with carrier sizes "
                    f"{sizes}, while assigning the cell {name}({', '.join(args)})")
            if fn and value is not None:
                table[args] = value
            elif value is True:
                table.add(args)
            if all(sequent_witness(X, seq, open_cells) is None for seq in axioms):
                assign(X, cells, c + 1)
        if fn:
            table.pop(args, None)
        else:
            table.discard(args)

    for sizes in itertools.product(range(k + 1), repeat=len(sig.sorts)):
        carriers = {s: tuple(str(x) for x in range(n)) for s, n in zip(sig.sorts, sizes)}
        X = PartialStructure(theory, carriers, {f: {} for f in sig.functions},
                             {r: set() for r in sig.relations})
        upfront, cells = cells_for(X)
        if any(sequent_witness(X, seq) is not None for seq in upfront):
            continue
        assign(X, cells, 0)

    order.sort(key=lambda key: (structure_size(found[key]), key))
    U = ModelUniverse(theory, k, [found[key] for key in order], order)
    if cache_dir is not None:
        save_universe(U, cache_dir)
    return U


# ---------------------------------------------------------------------------
# universe cache


def universe_cache_path(theory: Theory, k: int, cache_dir: str) -> str:
    return os.path.join(cache_dir, f"{theory.name}-{theory_hash(theory)}-k{k}.jsonl")


def save_universe(U: ModelUniverse, cache_dir: str) -> str:
    """Write the cache file whole: readers see the old file or the new one."""
    os.makedirs(cache_dir, exist_ok=True)
    path = universe_cache_path(U.theory, U.k, cache_dir)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({"theory": U.theory.name, "hash": theory_hash(U.theory),
                                 "k": U.k, "members": len(U.members)}) + "\n")
            for key, X in zip(U.keys, U.members):
                fh.write(json.dumps({"key": key, "structure": structure_to_json(X)},
                                    sort_keys=True) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load_universe(theory: Theory, k: int, cache_dir: str) -> Optional[ModelUniverse]:
    """The cached universe, or None on a miss.

    A file for another theory or bound is a silent miss.  A damaged file (a
    line that is not JSON, or fewer or more rows than its header counts) is a
    miss with a warning on stderr, so enumerate_models rebuilds it."""
    path = universe_cache_path(theory, k, cache_dir)
    if not os.path.exists(path):
        return None
    lines = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    lines.append(json.loads(line))
                except json.JSONDecodeError:
                    return _damaged_cache(path, f"line {number} is not valid JSON")
    if not lines:
        return _damaged_cache(path, "the file is empty")
    head = lines[0]
    if head.get("hash") != theory_hash(theory) or head.get("k") != k:
        return None
    if head.get("members") != len(lines) - 1:
        return _damaged_cache(path, f"the header counts {head.get('members')} members "
                                    f"but {len(lines) - 1} rows follow")
    rows = lines[1:]
    return ModelUniverse(theory, k, [structure_from_json(row["structure"], theory)
                                     for row in rows], [row["key"] for row in rows])


def _damaged_cache(path: str, reason: str) -> None:
    print(f"warning: ignoring universe cache {path}: {reason}", file=sys.stderr)
    return None


# ---------------------------------------------------------------------------
# classes of members


@dataclass(frozen=True)
class ModelClass:
    universe: ModelUniverse
    indices: frozenset

    def members(self) -> list:
        return [self.universe.members[i] for i in sorted(self.indices)]

    def with_indices(self, indices) -> "ModelClass":
        return ModelClass(self.universe, frozenset(indices))


def class_of(universe: ModelUniverse, structures: list) -> ModelClass:
    idx = set()
    for X in structures:
        key = canonical_key(X)
        if key not in universe.index:
            raise ValueError(f"structure '{X.name}' is not a member of the universe")
        idx.add(universe.index[key])
    return ModelClass(universe, frozenset(idx))


def definable_class(universe: ModelUniverse, sequents: list) -> ModelClass:
    idx = frozenset(
        i for i, X in enumerate(universe.members)
        if all(sequent_witness(X, seq) is None for seq in sequents)
    )
    return ModelClass(universe, idx)


# ---------------------------------------------------------------------------
# closure operators


PRODUCT_ARITY_CAP = 4


def closure_P(mc: ModelClass) -> ModelClass:
    """Close under finite products that stay inside the universe bound.

    Products are formed directly at every arity up to PRODUCT_ARITY_CAP,
    because in a multi-sorted universe the factors of a bounded n-ary
    product need not have bounded intermediate products.  The empty product
    is the terminal model and is always added.
    """
    U = mc.universe
    S = set(mc.indices)
    S.add(U.product_index(()))
    changed = True
    while changed:
        changed = False
        base = sorted(S)
        for r in range(2, PRODUCT_ARITY_CAP + 1):
            for combo in itertools.combinations_with_replacement(base, r):
                idx = U.product_index(combo)
                if idx is not None and idx not in S:
                    S.add(idx)
                    changed = True
    return mc.with_indices(S)


def _grow(mc: ModelClass, edge) -> ModelClass:
    """Add each non-member c with edge(c, m) for some member m, in index
    order and against the members known at that moment, until a pass adds
    nothing."""
    S = set(mc.indices)
    changed = True
    while changed:
        changed = False
        for c in range(len(mc.universe.members)):
            if c not in S and any(edge(c, m) for m in sorted(S)):
                S.add(c)
                changed = True
    return mc.with_indices(S)


def closure_Sc(mc: ModelClass) -> ModelClass:
    return _grow(mc, mc.universe.closed_sub)


def closure_Hloc(mc: ModelClass, rho: Optional[TheoryMorphism] = None) -> ModelClass:
    U = mc.universe
    return _grow(mc, lambda c, m: U.locret(m, c, rho))


def embeds_in_product(U: ModelUniverse, i: int, targets) -> bool:
    """Does member i admit a closed embedding into some product of the
    target members?

    Checked without building the product: the tupling of all homomorphisms
    from i into the targets is a closed mono iff those homomorphisms jointly
    separate distinct elements, witness every undefined function entry, and
    witness every absent relation tuple.  This sees closed subs whose parent
    product is bigger than the universe bound.
    """
    X = U.members[i]
    sig = U.theory.signature
    fams = [(h, U.members[j]) for j in sorted(targets) for h in U.homs(i, j)]
    for s in sig.sorts:
        car = X.carrier(s)
        for a, b in itertools.combinations(car, 2):
            if not any(h.maps[s][a] != h.maps[s][b] for h, _ in fams):
                return False
    symbols = [("functions", f, argsorts) for f, (argsorts, _) in sig.functions.items()]
    symbols += [("relations", r, argsorts) for r, argsorts in sig.relations.items()]
    for kind, name, argsorts in symbols:
        held = getattr(X, kind)[name]
        for args in itertools.product(*(X.carrier(s) for s in argsorts)):
            if args not in held and not any(
                    tuple(h.maps[s][a] for s, a in zip(argsorts, args))
                    not in getattr(A, kind)[name] for h, A in fams):
                return False
    return True


def product_embedding_closure(mc: ModelClass) -> ModelClass:
    """Closed substructures of products of class members, computed jointly.

    Composing closure_Sc after closure_P misses closed subs whose parent
    product exceeds the universe bound (two elements with one marked, times
    its unmarked point, is a two-element structure inside a four-element
    product), so the composite is decided per candidate by the separating
    criterion of embeds_in_product.
    """
    U = mc.universe
    S = set(mc.indices)
    for i in range(len(U.members)):
        if i not in S and embeds_in_product(U, i, mc.indices):
            S.add(i)
    return mc.with_indices(S)


def surjective_image_closure(mc: ModelClass) -> ModelClass:
    """Plain surjective images, for contrast with local retractions."""
    U = mc.universe
    return _grow(mc, lambda c, m: any(is_surjective(p) for p in U.homs(m, c)))


@dataclass
class HspResult:
    model_class: ModelClass
    fixpoint: bool
    growth: dict  # operator name -> indices that appeared on re-application


def hsp_closure(mc: ModelClass, rho: Optional[TheoryMorphism] = None) -> HspResult:
    """Local retractions of closed substructures of products, then verify
    the result is a fixpoint of each operator within the universe.

    The inner two stages run jointly (product_embedding_closure) so that
    closed subs of over-bound products are not lost; see that docstring.
    """
    out = closure_Hloc(product_embedding_closure(mc), rho)
    growth = {}
    for name, op in (
        ("product", closure_P),
        ("closed-sub", closure_Sc),
        ("closed-sub-of-product", product_embedding_closure),
        ("local-retraction", lambda c: closure_Hloc(c, rho)),
    ):
        again = op(out)
        if again.indices != out.indices:
            growth[name] = sorted(again.indices - out.indices)
    return HspResult(out, not growth, growth)


# ---------------------------------------------------------------------------
# operator laws


@dataclass
class LawReport:
    universe: str
    k: int
    seed: int
    rows: list  # (law, instances checked, violations)

    @property
    def violations(self) -> int:
        return sum(len(v) for _, _, v in self.rows)


LAW_SAMPLES = 10


def operator_law_report(U: ModelUniverse, seed: int) -> LawReport:
    """Check the algebra of the three operators on sampled classes.

    The sampled family is every singleton class plus LAW_SAMPLES seeded
    random classes.
    Verified per class: each operator is extensive, monotone, and
    idempotent; the swap laws P after Sc within Sc after P (with the joint
    product_embedding_closure on the right, which is how closed subs of
    products are computed here), P after Hloc within Hloc after P, and Sc
    after Hloc within Hloc after Sc; and idempotence of the hsp composite.
    The empty class gets a pinned row: its product closure is exactly the
    terminal model.

    Caveat: the right side of the P.Hloc row composes the two bounded
    operators, and there is no pointwise criterion for being a retract of
    an over-bound product, so at larger bounds that row can report genuine
    truncation artifacts (posets at bound 4 do).  The bounds used by the
    shipped reproduction targets are artifact-free.
    """
    rng = random.Random(seed)
    n = len(U.members)
    ops = {
        "P": closure_P,
        "Sc": closure_Sc,
        "Hloc": closure_Hloc,
    }
    rows = {law: [0, []] for law in (
        "extensive", "monotone",
        "P.P = P", "Sc.Sc = Sc", "Hloc.Hloc = Hloc",
        "P.Sc <= Sc.P", "P.Hloc <= Hloc.P", "Sc.Hloc <= Hloc.Sc",
        "hsp idempotent", "P(empty) = {terminal}",
    )}

    def note(law, ok, detail):
        rows[law][0] += 1
        if not ok:
            rows[law][1].append(detail)

    classes = [frozenset([i]) for i in range(n)]
    for _ in range(LAW_SAMPLES):
        mask = rng.getrandbits(n)
        classes.append(frozenset(i for i in range(n) if mask >> i & 1))
    for ci, idx in enumerate(classes):
        E = ModelClass(U, idx)
        for opname, op in ops.items():
            once = op(E)
            note("extensive", E.indices <= once.indices, (ci, opname))
            note(f"{opname}.{opname} = {opname}",
                 op(once).indices == once.indices, ci)
        extra = frozenset(i for i in range(n) if rng.random() < 0.3)
        F = ModelClass(U, idx | extra)
        for opname, op in ops.items():
            note("monotone", op(E).indices <= op(F).indices, (ci, opname))
        joint = product_embedding_closure(E)
        stagewise = closure_Sc(closure_P(E))
        assert stagewise.indices <= joint.indices
        note("P.Sc <= Sc.P",
             closure_P(closure_Sc(E)).indices <= joint.indices, ci)
        note("P.Hloc <= Hloc.P",
             closure_P(closure_Hloc(E)).indices <= closure_Hloc(closure_P(E)).indices, ci)
        note("Sc.Hloc <= Hloc.Sc",
             closure_Sc(closure_Hloc(E)).indices <= closure_Hloc(closure_Sc(E)).indices, ci)
        first = hsp_closure(E)
        second = hsp_closure(first.model_class)
        note("hsp idempotent",
             first.fixpoint and second.model_class.indices == first.model_class.indices, ci)
    empty = ModelClass(U, frozenset())
    note("P(empty) = {terminal}",
         closure_P(empty).indices == frozenset([U.product_index(())]), "empty")
    return LawReport(U.theory.name, U.k, seed,
                     [(law, c, v) for law, (c, v) in rows.items()])


# ---------------------------------------------------------------------------
# theory morphism soundness, bounded


@dataclass
class MorphismVerdict:
    kind: str  # "no-counterexample" | "countermodel"
    k: int
    structure: Optional[PartialStructure] = None
    sequent: Optional[Sequent] = None
    witness: Optional[dict] = None

    def describe(self) -> str:
        if self.kind == "no-counterexample":
            return f"no counterexample up to size {self.k}"
        return (f"countermodel of size {structure_size(self.structure)} "
                f"violates a translated axiom at {self.witness}")


def check_theory_morphism_bounded(m: TheoryMorphism, k: int,
                                  cache_dir: Optional[str] = None) -> MorphismVerdict:
    """Search target models up to size k for one violating a translated
    source axiom.  Silence is evidence up to the bound, not a proof."""
    validate_morphism(m)
    obligations = [translate_sequent(m, seq) for seq in m.source.axioms]
    U = enumerate_models(m.target, k, cache_dir)
    for X in U.members:
        for seq in obligations:
            w = sequent_witness(X, seq)
            if w is not None:
                return MorphismVerdict("countermodel", k, X, seq, w)
    return MorphismVerdict("no-counterexample", k)
