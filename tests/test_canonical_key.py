"""canonical_key against the brute force it replaced, and against hom search.

`brute_force_key` is the former body of canonical_key: it builds the
encoding under every relabeling and keeps the least repr.  It shares no code
with the branch-and-bound search, so equal strings on the inputs below mean
the search returns the least encoding, not merely some isomorphism
invariant.  The inputs cover one and several sorts, partial and nullary
functions, relations, products, random digraphs and posets with planted
relabeled copies, every digraph on three elements, a two-sort theory whose
symbols cross sorts, and the symmetric inputs where twins prune.
"""

import itertools
import random

import pytest

from phl.closure import enumerate_models
from phl.corpus import antichain_poset, get_theory, set_of, theory_names
from phl.homsearch import find_hom
from phl.parser import parse_theory
from phl.structures import PartialStructure, canonical_key, make_structure, product


def brute_force_key(X):
    sig = X.theory.signature
    sorted_sorts = list(sig.sorts)
    best = None
    perms_per_sort = [
        [dict(zip(X.carrier(s), perm)) for perm in
         itertools.permutations(range(len(X.carrier(s))))]
        for s in sorted_sorts
    ]
    for combo in itertools.product(*perms_per_sort):
        relabel = dict(zip(sorted_sorts, combo))
        parts = [tuple(len(X.carrier(s)) for s in sorted_sorts)]
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
        enc = repr(parts)
        if best is None or enc < best:
            best = enc
    return best if best is not None else repr([()])


# ---------------------------------------------------------------------------
# seeded inputs


def random_structure(rng, theory, sizes, density=0.35):
    """Random relation tuples and partial function entries; not a model."""
    sig = theory.signature
    carriers = {s: tuple(str(i) for i in range(sizes.get(s, 0))) for s in sig.sorts}
    functions = {
        f: {args: rng.choice(carriers[result])
            for args in itertools.product(*(carriers[s] for s in argsorts))
            if carriers[result] and rng.random() < 0.7}
        for f, (argsorts, result) in sig.functions.items()}
    relations = {
        r: {args for args in itertools.product(*(carriers[s] for s in argsorts))
            if rng.random() < density}
        for r, argsorts in sig.relations.items()}
    return make_structure(theory, carriers, functions, relations)


def random_poset(rng, n):
    """Reflexive-transitive closure of a random DAG on a shuffled order."""
    order = list(range(n))
    rng.shuffle(order)
    below = {v: {v} for v in range(n)}
    for hi in range(n):
        for lo in range(hi):
            if rng.random() < 0.35:
                below[order[hi]] |= below[order[lo]]
    return make_structure(get_theory("pos"), {"el": [str(v) for v in range(n)]},
                          relations={"leq": [(str(x), str(y))
                                             for y in range(n) for x in below[y]]})


def relabeled(rng, X):
    """An isomorphic copy with fresh labels in a shuffled carrier order."""
    m = {}
    for s in X.theory.signature.sorts:
        labels = [f"v{i}" for i in range(len(X.carrier(s)))]
        rng.shuffle(labels)
        m[s] = dict(zip(X.carrier(s), labels))
    sig = X.theory.signature
    return make_structure(
        X.theory, {s: sorted(m[s].values()) for s in sig.sorts},
        {f: {tuple(m[s][a] for s, a in zip(argsorts, args)): m[result][v]
             for args, v in X.functions[f].items()}
         for f, (argsorts, result) in sig.functions.items()},
        {r: [tuple(m[s][a] for s, a in zip(argsorts, args)) for args in X.relations[r]]
         for r, argsorts in sig.relations.items()})


def toggled(rng, X):
    """A copy that differs in one cell: a relation tuple added or removed, or
    a function entry added, removed or given another value."""
    sig = X.theory.signature
    cells = [(f, args) for f, (argsorts, _) in sig.functions.items()
             for args in itertools.product(*(X.carrier(s) for s in argsorts))]
    cells += [(r, args) for r, argsorts in sig.relations.items()
              for args in itertools.product(*(X.carrier(s) for s in argsorts))]
    functions = {f: dict(t) for f, t in X.functions.items()}
    relations = {r: set(t) for r, t in X.relations.items()}
    name, args = rng.choice(cells)
    if name in relations:
        relations[name] ^= {args}
    else:
        table = functions[name]
        values = [None] + [v for v in X.carrier(sig.functions[name][1]) if v != table.get(args)]
        value = rng.choice([v for v in values if v is not None or args in table])
        if value is None:
            del table[args]
        else:
            table[args] = value
    return PartialStructure(X.theory, dict(X.carriers), functions, relations)


def moved(rng, X):
    """A copy with one relation tuple moved to an absent place: the same
    number of tuples, isomorphic to X or not."""
    (r,) = X.theory.signature.relations
    space = list(itertools.product(*(X.carrier(s) for s in X.theory.signature.relations[r])))
    present = sorted(X.relations[r])
    absent = [t for t in space if t not in X.relations[r]]
    if not present or not absent:
        return relabeled(rng, X)
    tuples = set(present) - {rng.choice(present)} | {rng.choice(absent)}
    return PartialStructure(X.theory, dict(X.carriers), {}, {r: tuples})


def complete_digraph(n):
    labels = [str(i) for i in range(n)]
    return make_structure(get_theory("brel"), {"el": labels},
                          relations={"r": list(itertools.product(labels, repeat=2))})


# ---------------------------------------------------------------------------
# the key equals the brute force


CLOSURE_UNIVERSES = [("set", 3), ("urel", 2), ("pos", 3), ("erel", 3), ("nset-3", 3),
                     ("idem", 3), ("end", 3), ("preord", 3)]
SEVERAL_SORTS = [("group", 3), ("bowtie", 2), ("cospan", 2), ("chaincov-3", 3)]


def assert_key_is_least(X):
    assert canonical_key(X) == brute_force_key(X), (X.theory.name, X.carriers)


def test_key_matches_brute_force_on_every_universe_member():
    universes = [(name, 2) for name in theory_names()] + CLOSURE_UNIVERSES + SEVERAL_SORTS
    for name, k in universes:
        U = enumerate_models(get_theory(name), k)
        for X in U.members:
            assert_key_is_least(X)


def test_key_matches_brute_force_on_bounded_products():
    rng = random.Random(8)
    for name, k in [("pos", 3), ("erel", 3), ("end", 3), ("nset-3", 3), ("cospan", 2),
                    ("group", 3), ("chaincov-3", 3), ("remark-locret-3", 2)]:
        U = enumerate_models(get_theory(name), k)
        for _ in range(12):
            X, Y = rng.choice(U.members), rng.choice(U.members)
            P = product(U.theory, [X, Y])
            if sum(map(len, P.carriers.values())) <= 7:
                assert_key_is_least(P)


RANDOM_DRAWS = {
    "digraph": lambda rng, n: random_structure(rng, get_theory("brel"), {"el": n}),
    "poset": random_poset,
    # partial binary, unary and nullary functions on one sort
    "group": lambda rng, n: random_structure(rng, get_theory("group"), {"el": n - 1}),
    # partial unary functions between three sorts
    "cospan": lambda rng, n: random_structure(
        rng, get_theory("cospan"), {"lft": n - 4, "rgt": 2, "apex": 2}),
}


def assert_key_is_least_with_a_copy(rng, X):
    key = brute_force_key(X)
    assert canonical_key(X) == key, (X.theory.name, X.carriers, X.functions, X.relations)
    assert canonical_key(relabeled(rng, X)) == key


@pytest.mark.parametrize("kind", sorted(RANDOM_DRAWS))
def test_key_matches_brute_force_on_random_structures_and_planted_copies(kind):
    rng = random.Random(kind)
    for n, count in [(5, 8), (6, 3), (7, 4)]:
        for _ in range(count):
            assert_key_is_least_with_a_copy(rng, RANDOM_DRAWS[kind](rng, n))


def test_key_matches_brute_force_on_every_digraph_on_three_elements():
    labels = ("0", "1", "2")
    pairs = list(itertools.product(labels, repeat=2))
    for bits in range(1 << len(pairs)):
        tuples = {t for i, t in enumerate(pairs) if bits >> i & 1}
        assert_key_is_least(
            PartialStructure(get_theory("brel"), {"el": labels}, {}, {"r": tuples}))


# a constant, a binary function from both sorts into the second, a unary
# function back into the first, and a ternary relation across the sorts
MIXED = parse_theory("""
theory mixed {
  sorts a, b;
  functions c : -> a, h : a * b -> b, g : b -> a;
  relations t : a * b * a;
}
""")


def test_key_matches_brute_force_on_a_two_sort_theory_across_sorts():
    rng = random.Random("mixed")
    for _ in range(150):
        na = rng.randint(0, 5)
        nb = rng.randint(0, 7 - na)
        X = random_structure(rng, MIXED, {"a": na, "b": nb}, density=rng.random() * 0.5)
        assert_key_is_least_with_a_copy(rng, X)


def test_key_matches_brute_force_where_twins_prune():
    assert_key_is_least(PartialStructure(get_theory("brel"), {"el": ()}, {}, {"r": set()}))
    for n in range(1, 9):
        assert_key_is_least(set_of(n))
        assert_key_is_least(antichain_poset(n))
    for n in range(1, 6):
        assert_key_is_least(complete_digraph(n))


# ---------------------------------------------------------------------------
# two independent routes to isomorphism


SAME_SIZE_DRAWS = {
    "brel": lambda rng: random_structure(rng, get_theory("brel"), {"el": rng.randint(1, 6)}),
    "pos": lambda rng: random_poset(rng, rng.randint(1, 6)),
    "cospan": lambda rng: random_structure(
        rng, get_theory("cospan"),
        {"lft": rng.randint(1, 2), "rgt": rng.randint(0, 2), "apex": rng.randint(1, 2)}),
}


@pytest.mark.parametrize("name", sorted(SAME_SIZE_DRAWS))
def test_equal_keys_exactly_when_embeddings_run_both_ways(name):
    """Structures with the same carrier sizes are isomorphic exactly when
    each embeds in the other, so key equality must agree with injective hom
    search.  Pairs are planted relabelings and copies with one cell changed
    (for relations also one tuple moved), relabeled or not."""
    rng = random.Random(name)
    agree = {True: 0, False: 0}
    for _ in range(60):
        X = SAME_SIZE_DRAWS[name](rng)
        make = rng.choice([relabeled, toggled] + ([moved] if X.relations else []))
        Y = make(rng, X)
        if make is not relabeled and rng.random() < 0.5:
            Y = relabeled(rng, Y)
        same_key = canonical_key(X) == canonical_key(Y)
        both_ways = (find_hom(X, Y, injective=True) is not None
                     and find_hom(Y, X, injective=True) is not None)
        assert same_key == both_ways, (name, X.carriers, X.functions, X.relations)
        agree[same_key] += 1
    assert agree[True] and agree[False]
