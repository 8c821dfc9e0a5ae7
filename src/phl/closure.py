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
from operator import getitem
from typing import Optional

from .homsearch import HomPlan
from .structures import (
    RELABEL_BUDGET,
    PartialStructure,
    canonical_key,
    is_closed_mono,
    is_surjective,
    jointly_closed_mono,
    product,
    reduct,
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
    ValidationError,
    formula_symbols,
    morphism_obligations,
    print_theory,
    validate_morphism,
)


@dataclass(eq=False)
class ModelUniverse:
    """The members with their canonical keys, and one memo for every relation
    between members that the closure operators ask about and for each
    operator's result per class.  A result is kept as the class's index
    set, never as a ModelClass, which holds its universe: the universe would
    reach itself through its memo and wait for the cycle collector to be
    freed.  Members are named after their position on construction; a
    repeated key raises ValueError."""
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
        if len(self.index) != len(self.keys):
            raise ValueError(f"two members of the universe of '{self.theory.name}' "
                             f"at k={self.k} share a canonical key")

    def __len__(self):
        return len(self.members)

    def _remember(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def plan(self, i: int, rho: Optional[TheoryMorphism] = None) -> HomPlan:
        """Member i's (its reduct's along rho) hom search tables, shared by every search."""
        return self._remember(("plan", i, None if rho is None else rho.name), lambda: HomPlan(
            self.members[i] if rho is None else reduct(rho, self.members[i])))

    def closed_sub(self, i: int, j: int) -> bool:
        """Does member i embed into member j as a closed substructure?  The
        injective search stops at the first hom that is_closed_mono accepts."""
        return self._remember(("closed-sub", i, j), lambda: any(map(
            is_closed_mono, self.plan(i).homs(self.plan(j), injective=True))))

    def locret(self, i: int, j: int, rho: Optional[TheoryMorphism] = None) -> bool:
        """Does some homomorphism p: member i -> member j (its reduct along
        rho, when a theory morphism is supplied) pass the local retraction
        probes of the whole universe (its reducts)?

        That is retraction existence in disguise: member j (its reduct) is
        one of the probes, and lifting its identity through p is a section
        of p, while a section s lifts every probe map f as s . f.  So for
        each injective s one search asks for a p with p(s(y)) = y, which
        must agree on sorts that rho sends onto one."""
        def retracts(s):
            back = {}
            for t, m in s.maps.items():
                u = t if rho is None else rho.sort_map[t]
                for y, x in m.items():
                    back[u, x] = back.get((u, x), {y}) & {y}
            return self.plan(i).maps_to(self.plan(j), restrict=back)
        return self._remember(("locret", i, j, None if rho is None else rho.name), lambda: any(
            map(retracts, self.plan(j, rho).homs(self.plan(i, rho), injective=True))))

    def sizes(self) -> list:
        """The carrier sizes of each member, in signature sort order."""
        return self._remember(("sizes",), lambda: [
            tuple(len(X.carrier(s)) for s in self.theory.signature.sorts)
            for X in self.members])

    def bounded(self, vectors) -> bool:
        """Does a product of factors with these carrier sizes stay within
        the bound?"""
        return all(math.prod(column) <= self.k for column in zip(*vectors))

    def product_index(self, combo: tuple) -> Optional[int]:
        """The member index of the product of the members in `combo`, a
        sorted tuple, or None when the product exceeds the bound.  () gives
        the terminal model, which every universe must contain."""
        return self._remember(("product", combo), lambda: self._product_index(combo))

    def _product_index(self, combo: tuple) -> Optional[int]:
        if combo and not self.bounded([self.sizes()[i] for i in combo]):
            return None
        factors = [self.members[i] for i in combo]
        idx = self.index.get(canonical_key(product(self.theory, factors)))
        if idx is None:
            named = " x ".join(F.name for F in factors) or "the terminal model"
            raise ValueError(f"the bounded product {named} is missing from the "
                             f"universe of '{self.theory.name}' at k={self.k}")
        return idx


def theory_hash(theory: Theory) -> str:
    return hashlib.sha256(print_theory(theory).encode()).hexdigest()[:16]


VISIT_BUDGET = 40_000_000  # search nodes (cell assignments) one enumeration may visit


def enumerate_models(theory: Theory, k: int, cache_dir: Optional[str] = None) -> ModelUniverse:
    """All models with every carrier of size at most k, up to isomorphism.

    A depth-first search over cells.  For each choice of carrier sizes it
    sets one cell at a time: the function symbols, then the relation
    symbols, in declaration order, and within a symbol the argument tuples
    in itertools.product order.  A function cell takes None (undefined) and
    then each carrier element, a relation cell False and then True, so
    complete structures come in lexicographic order of their cell vectors.

    The search is orderly (Read 1978; McKay 1998): it keeps a complete
    structure only if no relabeling of its carriers gives a smaller cell
    vector.  Relabeling maps models to models, so that keeps exactly the
    least vector of each isomorphism class, which is the first labelled
    model of the class in search order, the representative a search that
    deduplicated by canonical key would keep.  Branches that cannot lead to
    a least vector are cut early: once the row of the r-th element of a
    symbol's first argument sort is set, every permutation of the first r
    elements of that sort maps the cells set so far onto themselves, and if
    one of them gives a smaller prefix, so it does to every completion.
    Checking a complete structure tries every relabeling; past
    RELABEL_BUDGET of them (the budget of canonical_key) it raises
    BudgetError.  canonical_key runs once per kept structure.

    Once a cell is set, the axioms whose last symbol it belongs to are
    checked three-valued, with that symbol's later cells open
    (sequent_witness), and the branch is cut when every completion violates
    one; at the symbol's last cell the check is exact.  VISIT_BUDGET
    bounds the search nodes.  Members are sorted by size
    and canonical key, making the universe deterministic.
    """
    if cache_dir is not None:
        cached = load_universe(theory, k, cache_dir)
        if cached is not None:
            return cached
    sig = theory.signature
    symbols = sig.symbols()
    argsorts_of = {name: sorts[:-1] if is_function else sorts
                   for name, sorts, is_function in symbols}
    result_of = {name: sorts[-1] for name, sorts, is_function in symbols if is_function}
    ground = []
    axioms_of = {name: [] for name in argsorts_of}  # by the last symbol mentioned
    for seq in theory.axioms:
        mentioned = formula_symbols(seq.premise, seq.conclusion)
        named = [name for name in argsorts_of if name in mentioned]
        (axioms_of[named[-1]] if named else ground).append(seq)

    found = []  # (canonical key, member), one per isomorphism class
    visits = 0

    def cells_for(X):
        """Cells in search order as (symbol, table, args, values, axioms,
        open cells), and the axioms to check before the first cell."""
        upfront = list(ground)
        cells = []
        for name, sorts, is_function in symbols:
            table = X.table(name, is_function)
            values = (None,) + X.carrier(sorts[-1]) if is_function else (False, True)
            space = list(itertools.product(*(X.carrier(s) for s in argsorts_of[name])))
            if not space:  # checked exactly once the symbols before it are set
                (cells[-1][4] if cells else upfront).extend(axioms_of[name])
            for j, args in enumerate(space):
                cells.append((name, table, args, values, list(axioms_of[name]),
                              {name: frozenset(space[j + 1:])}))
        return upfront, cells

    def row_ends(cells):
        """For each prefix length n below the full one, (sort, r) when the
        n-th cell ends the row of element r-1 of the first argument sort of
        its symbol, r >= 2, else None."""
        ends = [None] * (len(cells) + 1)
        for n, (name, _, args, *_) in enumerate(cells[:-1], 1):
            if args and args[0] != "0" and (cells[n][0] != name or cells[n][2][0] != args[0]):
                ends[n] = (argsorts_of[name][0], int(args[0]) + 1)
        return ends

    def relabelings(n):
        """The relabelings tried at prefix length n, each as the source cell
        and the value-rank map of every one of the first n cells of the
        relabeled vector.  The identity is left out."""
        sizes = {s: len(X.carrier(s)) for s in sig.sorts}
        total = math.prod(math.factorial(size) for size in sizes.values())
        if n == len(cells):  # a complete structure: every relabeling
            if total > RELABEL_BUDGET:
                shown = ", ".join(f"{s}:{size}" for s, size in sizes.items())
                raise BudgetError(
                    f"model enumeration of '{theory.name}' at k={k} stopped at a "
                    f"complete structure with carrier sizes {shown}: checking it takes "
                    f"{total} relabelings, over the canonical key budget of {RELABEL_BUDGET}")
            group = (dict(zip(sig.sorts, combo)) for combo in itertools.product(
                *(itertools.permutations(range(sizes[s])) for s in sig.sorts)))
        elif total > RELABEL_BUDGET:
            return []  # no cut; the first complete structure raises
        else:
            sort, r = ends[n]
            group = ({sort: head + tuple(range(r, sizes[sort]))}
                     for head in itertools.permutations(range(r)))
        at = {(cell[0], cell[2]): i for i, cell in enumerate(cells)}
        out = []
        for perm in itertools.islice(group, 1, None):
            inverse = {s: {str(b): str(a) for a, b in enumerate(p)} for s, p in perm.items()}
            ranks = {s: (0,) + tuple(1 + b for b in p) for s, p in perm.items()}
            src, vms = [], []
            for name, _, args, values, *_ in cells[:n]:
                src.append(at[name, tuple(inverse[s][a] if s in inverse else a
                                          for s, a in zip(argsorts_of[name], args))])
                vms.append(ranks.get(result_of.get(name), range(len(values))))
            out.append((src, vms))
        return out

    def smaller(n):
        """Does some relabeling tried at prefix length n give a smaller
        prefix of the cell vector?"""
        if n not in tried:
            tried[n] = relabelings(n)
        head = vec[:n]
        for src, vms in tried[n]:
            if list(map(getitem, vms, map(vec.__getitem__, src))) < head:
                return True
        return False

    def assign(c):
        nonlocal visits
        if c == len(cells):
            if smaller(c):
                return
            found.append((canonical_key(X), PartialStructure(
                theory,
                dict(X.carriers),
                {f: dict(t) for f, t in X.functions.items()},
                {r: set(t) for r, t in X.relations.items()},
            )))
            return
        name, table, args, values, axioms, open_cells = cells[c]
        fn = isinstance(table, dict)
        cut = ends[c + 1]
        for rank, value in enumerate(values):  # the first value leaves the cell absent
            visits += 1
            if visits > VISIT_BUDGET:
                sizes = ", ".join(f"{s}:{len(X.carrier(s))}" for s in sig.sorts)
                raise BudgetError(
                    f"model enumeration of '{theory.name}' at k={k} stopped after "
                    f"{VISIT_BUDGET} search nodes (its budget), with carrier sizes "
                    f"{sizes}, while assigning the cell {name}({', '.join(args)})")
            if fn and value is not None:
                table[args] = value
            elif value is True:
                table.add(args)
            vec[c] = rank
            if (all(sequent_witness(X, seq, open_cells) is None for seq in axioms)
                    and not (cut and smaller(c + 1))):
                assign(c + 1)
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
        ends, tried, vec = row_ends(cells), {}, [0] * len(cells)
        assign(0)

    found.sort(key=lambda row: (structure_size(row[1]), row[0]))
    U = ModelUniverse(theory, k, [X for _, X in found], [key for key, _ in found])
    if cache_dir is not None:
        save_universe(U, cache_dir)
    return U


# ---------------------------------------------------------------------------
# universe cache


# The layout of a cache file and the labelled representatives it holds.  A
# change to either (a new cell or value order in enumerate_models can keep
# every key and still move the tables) must bump it, so old files are missed.
UNIVERSE_CACHE_FORMAT = 2


def universe_cache_file(theory: Theory, k: int, cache_dir: str) -> tuple:
    """The cache file's path and the theory hash its header carries."""
    digest = theory_hash(theory)
    return os.path.join(cache_dir, f"{theory.name}-{digest}-k{k}.jsonl"), digest


def save_universe(U: ModelUniverse, cache_dir: str) -> str:
    """Write the cache file whole: readers see the old file or the new one.
    The header carries the sha256 of the rows that follow it."""
    os.makedirs(cache_dir, exist_ok=True)
    path, digest = universe_cache_file(U.theory, U.k, cache_dir)
    rows = "".join(json.dumps({"key": key, "structure": structure_to_json(X)},
                              sort_keys=True) + "\n" for key, X in zip(U.keys, U.members))
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps({"format": UNIVERSE_CACHE_FORMAT, "theory": U.theory.name,
                                 "hash": digest, "k": U.k, "members": len(U.members),
                                 "sha256": _rows_digest(rows)}) + "\n")
            fh.write(rows)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load_universe(theory: Theory, k: int, cache_dir: str) -> Optional[ModelUniverse]:
    """The cached universe, or None on a miss.

    A file for another theory or bound is a silent miss.  A file written in
    another format (UNIVERSE_CACHE_FORMAT; files from before the field have
    none) and a damaged file (text that is not UTF-8, a line that is not
    JSON, a header that is not an object, fewer or more rows than its header
    counts, a row without a string key and a valid structure, two rows with
    one key, or rows whose sha256 is not the header's) are misses with a
    warning on stderr, so enumerate_models rebuilds them.  The digest
    catches damage that leaves valid rows, such as a dropped tuple; the
    rows are not checked to be models with their keys."""
    path, digest = universe_cache_file(theory, k, cache_dir)
    if not os.path.exists(path):
        return None
    lines, texts = [], []
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            return _damaged_cache(path, f"the file is not UTF-8 text (byte {exc.start})")
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                lines.append(json.loads(line))
            except json.JSONDecodeError:
                return _damaged_cache(path, f"line {number} is not valid JSON")
            texts.append(line + "\n")
    if not lines:
        return _damaged_cache(path, "the file is empty")
    head = lines[0]
    if not isinstance(head, dict):
        return _damaged_cache(path, "the header is not a JSON object")
    if head.get("format") != UNIVERSE_CACHE_FORMAT:
        return _damaged_cache(path, f"cache format {head.get('format', 'absent')}, "
                                    f"expected {UNIVERSE_CACHE_FORMAT}")
    if head.get("hash") != digest or head.get("k") != k:
        return None
    if head.get("members") != len(lines) - 1:
        return _damaged_cache(path, f"the header counts {head.get('members')} members "
                                    f"but {len(lines) - 1} rows follow")
    members, keys = [], []
    for number, row in enumerate(lines[1:], 1):
        if not (isinstance(row, dict) and isinstance(row.get("key"), str)
                and "structure" in row):
            return _damaged_cache(path, f"row {number} lacks a string key or a structure")
        try:
            members.append(structure_from_json(row["structure"], theory))
        except ValidationError as exc:
            return _damaged_cache(path, f"row {number} holds no valid structure ({exc})")
        keys.append(row["key"])
    try:
        U = ModelUniverse(theory, k, members, keys)
    except ValueError:
        return _damaged_cache(path, "two rows share a key")
    if head.get("sha256") != _rows_digest("".join(texts[1:])):
        return _damaged_cache(path, "the rows do not match the sha256 in the header")
    return U


def _rows_digest(rows: str) -> str:
    return hashlib.sha256(rows.encode()).hexdigest()


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
    """Close under finite products of at most PRODUCT_ARITY_CAP factors that
    stay inside the universe bound.  The empty product is the terminal model
    and is always added.

    A worklist over binary products: each member popped asks for its product
    with every member of that moment, itself included.  That is
    enough for every bounded product with a bounded pair of factors: the
    pair's product is a member, and multiplying it by the other factors is a
    smaller product with the same result up to isomorphism (products are
    associative, and canonical keys are isomorphism invariants) and the same
    carrier sizes.  What binary products miss are bounded products of 3 or
    more factors no two of which have a bounded product.  Each over-bound
    pair then needs another factor with an empty carrier in a sort where the
    pair overflows.  In a one-sorted universe that factor's product with
    anything is empty, hence bounded, so they occur only with several
    sorts; _wide_products finds them from the carrier sizes alone.  The two
    steps repeat until neither adds a member.
    """
    U = mc.universe
    return mc.with_indices(U._remember(("closure_P", mc.indices),
                                       lambda: _products(U, mc.indices)))


def _products(U: ModelUniverse, indices: frozenset) -> frozenset:
    S = set(indices)
    S.add(U.product_index(()))
    todo = sorted(S)
    while todo:
        while todo:
            m = todo.pop()
            for j in sorted(S):
                idx = U.product_index((min(m, j), max(m, j)))
                if idx is not None and idx not in S:
                    S.add(idx)
                    todo.append(idx)
        todo = sorted(set(_wide_products(U, S)) - S)
        S.update(todo)
    return frozenset(S)


def _wide_products(U: ModelUniverse, S: set):
    """The products of 3 to PRODUCT_ARITY_CAP members of S that stay within
    the bound although no two of their factors do.

    Whether a product is bounded depends only on the carrier sizes of its
    factors, so the combinations are grown over the distinct size vectors of
    S (as int bitsets of candidates), a vector joining only if its product
    with each vector already in is over the bound.  A sort that overflows
    stays over the bound until a vector with an empty carrier there joins,
    so a combination with no such candidate left is dropped.  Members are
    enumerated only under the bounded vector combinations, which one-sorted
    universes never have.

    The combinations are grown depth first, lowest candidate first, on an
    explicit stack: a recursive nested generator would reach itself through
    its closure cell and keep the universe alive until the cycle collector
    runs."""
    sizes = U.sizes()
    by_vector = {}
    for i in sorted(S):
        by_vector.setdefault(sizes[i], []).append(i)
    vectors = sorted(by_vector)
    sorts = range(len(U.theory.signature.sorts))
    # over[n]: the vectors from n on whose product with vectors[n] is over the bound
    over = [sum(1 << m for m in range(n, len(vectors)) if not U.bounded((v, vectors[m])))
            for n, v in enumerate(vectors)]
    empty = [sum(1 << n for n, v in enumerate(vectors) if not v[s]) for s in sorts]
    stack = [((), (1 << len(vectors)) - 1)]
    while stack:
        combo, candidates = stack.pop()
        overflow = [s for s in sorts if math.prod(v[s] for v in combo) > U.k]
        if len(combo) >= 3 and not overflow:
            runs = [itertools.combinations_with_replacement(by_vector[v], combo.count(v))
                    for v in sorted(set(combo))]
            for parts in itertools.product(*runs):
                yield U.product_index(tuple(sorted(itertools.chain(*parts))))
        if len(combo) == PRODUCT_ARITY_CAP or any(not candidates & empty[s] for s in overflow):
            continue
        rest = candidates
        while rest:  # pushed highest first, so the lowest is popped first
            n = rest.bit_length() - 1
            rest ^= 1 << n
            stack.append((combo + (vectors[n],), candidates & over[n]))


def _grow(mc: ModelClass, op: tuple, edge) -> ModelClass:
    """Add each non-member c with edge(c, m) for some member m, in one pass,
    remembered in the universe's memo under op and the class.

    Every edge passed here is a preorder on the members: closed embeddings,
    retractions (also of reducts along a theory morphism) and surjections
    compose, and identities are all three.  So a candidate with an edge to a
    member added by the pass has one to the original member that member came
    from, and nothing the pass adds lets another candidate in.  Members are
    tried in sorted order, so the edges asked for are deterministic."""
    U, S = mc.universe, mc.indices
    members = sorted(S)
    return mc.with_indices(U._remember(op + (S,), lambda: S.union(
        c for c in range(len(U)) if c not in S and any(edge(c, m) for m in members))))


def closure_Sc(mc: ModelClass) -> ModelClass:
    return _grow(mc, ("closure_Sc",), mc.universe.closed_sub)


def closure_Hloc(mc: ModelClass, rho: Optional[TheoryMorphism] = None) -> ModelClass:
    U = mc.universe
    if rho is not None and rho.target.name != U.theory.name:
        raise ValidationError(f"theory morphism '{rho.name}' has target '{rho.target.name}', "
                              f"not the universe's theory '{U.theory.name}'")
    return _grow(mc, ("closure_Hloc", None if rho is None else rho.name),
                 lambda c, m: U.locret(m, c, rho))


def embeds_in_product(U: ModelUniverse, i: int, targets) -> bool:
    """Does member i admit a closed embedding into some product of the
    target members?

    It does iff the tupling of all homomorphisms from i into the targets is
    one (jointly_closed_mono), which sees closed subs whose parent product
    is bigger than the universe bound.  The homs are searched lazily.
    """
    return jointly_closed_mono(
        U.members[i], (h for j in sorted(targets) for h in U.plan(i).homs(U.plan(j))))


def product_embedding_closure(mc: ModelClass) -> ModelClass:
    """Closed substructures of products of class members, computed jointly.

    Composing closure_Sc after closure_P misses closed subs whose parent
    product exceeds the universe bound (two elements with one marked, times
    its unmarked point, is a two-element structure inside a four-element
    product), so the composite is decided per candidate by the separating
    criterion of embeds_in_product.
    """
    U, S = mc.universe, mc.indices
    return mc.with_indices(U._remember(("product_embedding_closure", S), lambda: S.union(
        i for i in range(len(U)) if i not in S and embeds_in_product(U, i, S))))


def surjective_image_closure(mc: ModelClass) -> ModelClass:
    """Plain surjective images, for contrast with local retractions."""
    U = mc.universe
    return _grow(mc, ("surjective_image_closure",),
                 lambda c, m: any(map(is_surjective, U.plan(m).homs(U.plan(c)))))


@dataclass
class HspResult:
    """growth's one possible key is "closed-sub-of-product", the operator
    hsp_closure re-applies; its list holds all that P or Sc would add."""
    model_class: ModelClass
    fixpoint: bool
    growth: dict  # operator name -> indices that appeared on re-application


def hsp_closure(mc: ModelClass, rho: Optional[TheoryMorphism] = None) -> HspResult:
    """Local retractions of closed substructures of products, then verify
    the result is a fixpoint of each operator within the universe.

    The inner two stages run jointly (product_embedding_closure) so that
    closed subs of over-bound products are not lost; see that docstring.
    Re-applying that joint operator checks all three.  For every class C,
    closure_P(C) and closure_Sc(C) lie within it: the projections of a
    bounded product and a closed embedding into a member are among the homs
    whose tupling embeds_in_product tests, and the terminal model passes
    jointly_closed_mono with none.  All are extensive, so P and Sc cannot
    grow where it does not.  Hloc is one _grow pass over a preorder: idempotent.
    Every operator keeps its result per class in the universe's memo, so
    the fixpoint check, the joint operator on the result, is answered there
    when hsp_closure is asked again about that result.
    """
    out = closure_Hloc(product_embedding_closure(mc), rho)
    added = product_embedding_closure(out).indices - out.indices
    growth = {"closed-sub-of-product": sorted(added)} if added else {}
    return HspResult(out, not growth, growth)


# ---------------------------------------------------------------------------
# operator laws


@dataclass
class LawReport:
    universe: str
    k: int
    seed: int
    classes: int  # classes sampled and checked, the empty class aside
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
    idempotent; Sc after P, composed stagewise, within the joint
    product_embedding_closure (which is how closed subs of products are
    computed here); the swap laws P after Sc within that joint closure, P
    after Hloc within Hloc after P, and Sc after Hloc within Hloc after Sc;
    and idempotence of the hsp composite.
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
        "Sc.P <= joint Sc.P", "P.Sc <= Sc.P", "P.Hloc <= Hloc.P", "Sc.Hloc <= Hloc.Sc",
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
        note("Sc.P <= joint Sc.P",
             closure_Sc(closure_P(E)).indices <= joint.indices, ci)
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
    return LawReport(U.theory.name, U.k, seed, len(classes),
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


def check_theory_morphism_bounded(m: TheoryMorphism, k: int,
                                  cache_dir: Optional[str] = None) -> MorphismVerdict:
    """Search target models up to size k for one violating a translated
    source axiom.  Silence is evidence up to the bound, not a proof."""
    validate_morphism(m)
    obligations = morphism_obligations(m)
    U = enumerate_models(m.target, k, cache_dir)
    for X in U.members:
        for seq in obligations:
            w = sequent_witness(X, seq)
            if w is not None:
                return MorphismVerdict("countermodel", k, X, seq, w)
    return MorphismVerdict("no-counterexample", k)
