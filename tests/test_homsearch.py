import itertools
import random

import pytest

from phl.closure import enumerate_models
from phl.corpus import (
    chain_poset,
    cycle_endo,
    endo_primes,
    get_theory,
    m_lattice,
    nset_structure,
    presheaf_L,
    set_of,
)
from phl import homsearch
from phl.homsearch import (
    HomPlan,
    enumerate_homs,
    exact_local_retraction,
    fibers,
    find_hom,
    hom_exists,
    local_retraction_check,
)
from phl.structures import (
    Homomorphism,
    compose,
    hom_violation,
    is_surjective,
    make_structure,
)
from phl.syntax import Signature, Theory, ValidationError
from test_structures import urel_of


def brute_force_homs(X, Y, restrict=None):
    """All structure maps checked directly, no propagation or pruning, in
    lexicographic order: sorts as declared, carrier order within a sort,
    each element over the target carrier (or its `restrict` tuple)."""
    restrict = restrict or {}
    sorts = X.theory.signature.sorts
    per_sort = []
    for s in sorts:
        dom = X.carrier(s)
        choices = [restrict.get((s, a), Y.carrier(s)) for a in dom]
        per_sort.append([dict(zip(dom, choice)) for choice in itertools.product(*choices)])
    out = []
    for combo in itertools.product(*per_sort):
        h = Homomorphism(X, Y, dict(zip(sorts, combo)))
        if hom_violation(h) is None:
            out.append(h)
    return out


def in_carrier_order(homs):
    return [[(s, [h.maps[s][a] for a in h.source.carrier(s)])
             for s in h.source.theory.signature.sorts] for h in homs]


def is_injective(h):
    return all(len(set(m.values())) == len(m) for m in h.maps.values())


def random_digraph(rng, name):
    """At most 5 elements; self-loops come up, so a relation tuple can
    repeat a variable."""
    labels = [str(i) for i in range(rng.randrange(6))]
    density = rng.random()
    edges = [(a, b) for a in labels for b in labels if rng.random() < density]
    return make_structure(get_theory("brel"), {"el": labels}, relations={"r": edges},
                          name=name)


def digraph_pairs():
    """200 seeded random digraphs, each against its neighbour in the list,
    both ways."""
    rng = random.Random(20251018)
    graphs = [random_digraph(rng, f"g{i}") for i in range(200)]
    assert any((a, a) in G.relations["r"] for G in graphs for a in G.carrier("el"))
    return [pair for X, Y in zip(graphs, graphs[1:] + graphs[:1]) for pair in ((X, Y), (Y, X))]


def test_hom_counts_match_brute_force():
    """The ordered mode against the brute force, plain and injective, on
    small corpus pairs, two universes and the seeded random digraphs, whose
    self-loops repeat a variable in a relation tuple."""
    cases = [
        (chain_poset(2), chain_poset(3)),
        (chain_poset(3), chain_poset(2)),
        (urel_of(2, ["0"]), urel_of(3, ["1", "2"])),
        (cycle_endo(2), cycle_endo(3)),
        (cycle_endo(3), cycle_endo(2)),
        (m_lattice(2), m_lattice(3)),
        (presheaf_L(1), presheaf_L(2)),
        (presheaf_L(2), presheaf_L(1)),
        (presheaf_L(2), presheaf_L(2)),
    ]
    for name, k, step in (("cospan", 2, 5), ("remark-locret-2", 2, 1)):
        members = enumerate_models(get_theory(name), k).members[::step]
        cases += [(X, Y) for X in members for Y in members]
    cases += digraph_pairs()
    for X, Y in cases:
        slow = brute_force_homs(X, Y)
        assert in_carrier_order(enumerate_homs(X, Y)) == in_carrier_order(slow), \
            (X.name, Y.name)
        assert in_carrier_order(enumerate_homs(X, Y, injective=True)) == \
            in_carrier_order([h for h in slow if is_injective(h)]), (X.name, Y.name)


def test_hom_exists_matches_brute_force():
    """Existence search against the brute force, on every ordered pair of
    members of four universes and on 200 seeded random digraphs, each
    against its neighbours in the list, both ways."""
    cases = []
    for name, k in (("cospan", 2), ("remark-locret-2", 2), ("urel", 2), ("pos", 3)):
        members = enumerate_models(get_theory(name), k).members
        cases += [(X, Y) for X in members for Y in members]
    cases += digraph_pairs()
    for X, Y in cases:
        assert hom_exists(X, Y) == bool(brute_force_homs(X, Y)), (X.name, Y.name)


def test_hom_exists_edge_cases():
    # a constant: the point must go to the target's constant
    pointed = get_theory("pointed")
    two = make_structure(pointed, {"el": ["0", "1"]}, {"pt": {(): "1"}})
    one = make_structure(pointed, {"el": ["0"]}, {"pt": {(): "0"}})
    bare = make_structure(pointed, {"el": ["0", "1"]})
    for X, Y in itertools.product([two, one, bare], repeat=2):
        assert hom_exists(X, Y) == bool(brute_force_homs(X, Y))
    assert hom_exists(two, one) and not hom_exists(two, bare)
    # an empty carrier maps everywhere, and nothing nonempty maps into it
    assert hom_exists(set_of(0), set_of(0)) and hom_exists(set_of(0), set_of(2))
    assert not hom_exists(set_of(1), set_of(0))
    # a nullary relation must hold in the target when it holds in the source
    flag = Theory("flag", Signature(("el",), {}, {"p": ()}))
    on = make_structure(flag, {"el": ["0"]}, relations={"p": [()]})
    off = make_structure(flag, {"el": ["0", "1"]})
    for X, Y in itertools.product([on, off], repeat=2):
        assert hom_exists(X, Y) == bool(brute_force_homs(X, Y))
    assert hom_exists(off, on) and not hom_exists(on, off)
    # structures of different theories: no homomorphism, even between sets
    assert not hom_exists(set_of(1), urel_of(1, []))
    point = make_structure(get_theory("preord"), {"el": ["0"]}, relations={"leq": [("0", "0")]})
    assert not hom_exists(chain_poset(1), point)


def test_hom_exists_on_the_slow_chain_pairs():
    """Pairs that took seconds by enumeration: dropping a prime cycle or an
    atom leaves no homomorphism, adding one does."""
    assert not hom_exists(endo_primes(5), endo_primes(4))
    assert hom_exists(endo_primes(4), endo_primes(5))
    assert not hom_exists(m_lattice(8), m_lattice(7))
    assert hom_exists(m_lattice(7), m_lattice(8))


def test_every_returned_map_is_a_homomorphism():
    for h in enumerate_homs(m_lattice(2), m_lattice(4)):
        assert hom_violation(h) is None


def test_no_hom_between_prime_cycles():
    assert not hom_exists(cycle_endo(2), cycle_endo(5))
    assert not hom_exists(cycle_endo(5), cycle_endo(2))
    assert hom_exists(cycle_endo(2), cycle_endo(2))


def test_injective_mode_only_returns_embeddings():
    homs = enumerate_homs(chain_poset(2), chain_poset(4), injective=True)
    assert homs
    for h in homs:
        vals = list(h.maps["el"].values())
        assert len(set(vals)) == len(vals)
    assert not enumerate_homs(chain_poset(4), chain_poset(2), injective=True)


def test_restrict_prunes_candidates():
    X, Y = chain_poset(2), chain_poset(3)
    pinned = {("el", "0"): ("2",)}
    for h in enumerate_homs(X, Y, restrict=pinned):
        assert h.maps["el"]["0"] == "2"
    # monotone maps from a 2-chain fixing bottom at the top: only constant-2
    assert len(enumerate_homs(X, Y, restrict=pinned)) == 1
    # element 1 may go to 2 or 1: restrict narrows the values, not their order
    reordered = {("el", "1"): ("2", "1")}
    homs = enumerate_homs(X, Y, restrict=reordered)
    assert in_carrier_order(homs) == \
        in_carrier_order(brute_force_homs(X, Y, {("el", "1"): ("1", "2")}))
    assert [h.maps["el"]["1"] for h in homs] == ["1", "2", "1", "2", "2"]


def test_restrict_outside_the_target_carrier_names_element_and_label():
    with pytest.raises(ValidationError, match="element '0' of sort 'el' to '9'"):
        enumerate_homs(set_of(1), set_of(1), restrict={("el", "0"): ("9",)})
    # a label outside the carrier is refused even when a constraint would
    # also rule the element out
    with pytest.raises(ValidationError, match="'7'"):
        find_hom(chain_poset(2), chain_poset(2), restrict={("el", "1"): ("7", "0")})


def random_restrict(rng, X, Y):
    """Each source element may go to a random subset of its target carrier,
    empty now and then."""
    return {(s, a): tuple(b for b in Y.carrier(s) if rng.random() < 0.6)
            for s in X.theory.signature.sorts for a in X.carrier(s)}


def test_existence_and_enumeration_answer_alike_under_every_constraint():
    """maps_to and the full ordered enumeration against the brute force on
    every ordered member pair of six universes: plain, injective,
    restricted to the fibers of a hom back, and under a seeded random
    restrict, plain and injective.  group and bounded-lattice bring binary
    operations: rows of three variables, and rows such as mul(x, x) = y or
    meet(x, y) = x whose repeats leave two."""
    rng, injective_rng = random.Random(20261019), random.Random(20261020)
    for name, k in (("urel", 2), ("pos", 3), ("nset-3", 3), ("cospan", 2), ("group", 3),
                    ("bounded-lattice", 4)):
        U = enumerate_models(get_theory(name), k)
        for i, j in itertools.product(range(len(U)), repeat=2):
            X, Y = U.members[i], U.members[j]
            source, target = U.plan(i), U.plan(j)
            cases = [({}, False), ({}, True), (random_restrict(rng, X, Y), False),
                     (random_restrict(injective_rng, X, Y), True)]
            back = next(target.homs(source), None)
            if back is not None:
                cases.append((fibers(back), False))
            for restrict, injective in cases:
                brute = [h for h in brute_force_homs(X, Y, restrict)
                         if not injective or is_injective(h)]
                found = list(source.homs(target, injective, restrict))
                exists = source.maps_to(target, injective, restrict)
                assert in_carrier_order(found) == in_carrier_order(brute), \
                    (X.name, Y.name, injective, restrict)
                assert exists == bool(brute), (X.name, Y.name, injective, restrict)


def test_sources_of_one_element_and_of_none():
    """With one variable the first choice is the last, whose domain is
    yielded whole; with none the empty map is the one homomorphism."""
    brel = get_theory("brel")
    target = make_structure(brel, {"el": ["0", "1", "2"]},
                            relations={"r": [("0", "0"), ("1", "2"), ("2", "2")]})
    loop = make_structure(brel, {"el": ["a"]}, relations={"r": [("a", "a")]})
    point = make_structure(brel, {"el": ["a"]})
    empty = make_structure(brel, {"el": []})
    pointed = get_theory("pointed")
    one = make_structure(pointed, {"el": ["a"]}, {"pt": {(): "a"}})
    two = make_structure(pointed, {"el": ["0", "1"]}, {"pt": {(): "1"}})
    cases = [(loop, target), (point, target), (empty, target), (empty, empty),
             (point, empty), (one, two), (set_of(1), set_of(3)), (set_of(0), set_of(0)),
             (chain_poset(1), chain_poset(3))]
    for X, Y in cases:
        for injective in (False, True):
            brute = [h for h in brute_force_homs(X, Y) if not injective or is_injective(h)]
            assert in_carrier_order(enumerate_homs(X, Y, injective=injective)) == \
                in_carrier_order(brute), (X.name, Y.name, injective)
            assert HomPlan(X).maps_to(HomPlan(Y), injective) == bool(brute)
    assert [h.maps["el"]["a"] for h in enumerate_homs(loop, target)] == ["0", "2"]
    assert [h.maps["el"]["a"] for h in enumerate_homs(point, target,
                                                      restrict={("el", "a"): ("2", "0")})] \
        == ["0", "2"]
    assert [h.maps for h in enumerate_homs(empty, target)] == [{"el": {}}]
    assert [h.maps["el"]["a"] for h in enumerate_homs(one, two)] == ["1"]


def test_injective_existence_asks_the_plain_components_first(monkeypatch):
    """No homomorphism at all runs from endo_primes(5) to endo_primes(4), so
    the plain search refutes the injective query and no injective search
    runs; where the plain components map, the injective search decides."""
    searches = []
    search = homsearch._search

    def recorded(todo, ordered, dom, value, links, supports, injective):
        searches.append(injective)
        return search(todo, ordered, dom, value, links, supports, injective)

    monkeypatch.setattr(homsearch, "_search", recorded)
    assert not HomPlan(endo_primes(5)).maps_to(HomPlan(endo_primes(4)), injective=True)
    assert searches and not any(searches)
    searches.clear()
    assert HomPlan(endo_primes(4)).maps_to(HomPlan(endo_primes(5)), injective=True)
    assert searches[-1] and not any(searches[:-1])
    searches.clear()
    assert not HomPlan(set_of(3)).maps_to(HomPlan(set_of(2)), injective=True)
    assert searches == [True]


def test_find_section_of_a_collapse():
    two, one = set_of(2), set_of(1)
    p = Homomorphism(two, one, {"el": {"0": "0", "1": "0"}})
    s = find_hom(p.target, p.source, restrict=fibers(p))
    assert s is not None
    assert compose(p, s).maps["el"] == {"0": "0"}
    # inclusions are not split epis
    inc = Homomorphism(one, two, {"el": {"0": "0"}})
    assert find_hom(inc.target, inc.source, restrict=fibers(inc)) is None


def test_local_retraction_full_probe_set_equals_retract():
    """With the codomain among the probes the check forces a section."""
    two, one = set_of(2), set_of(1)
    p = Homomorphism(two, one, {"el": {"0": "0", "1": "0"}})
    rep = local_retraction_check(p, [one, two])
    assert rep.verdict == "passed-up-to-probes"
    assert exact_local_retraction(p) == (True, "surjection")
    inc = Homomorphism(one, two, {"el": {"0": "0"}})
    rep2 = local_retraction_check(inc, [one, two])
    assert rep2.verdict == "failed"
    assert exact_local_retraction(inc) == (False, "surjection")
    assert rep2.witness_probe is not None and rep2.witness_map is not None


def test_local_retraction_fails_a_map_that_misses_a_point_on_a_poset_probe():
    """The map {0} -> {0 < 1} of posets misses 1: the one-point probe sent
    onto 1 has no lift."""
    p = Homomorphism(chain_poset(1), chain_poset(2), {"el": {"0": "0"}})
    rep = local_retraction_check(p, [chain_poset(1)])
    assert rep.verdict == "failed" and rep.maps_checked == 2
    assert rep.witness_map.maps["el"] == {"0": "1"}


def test_local_retraction_refuses_a_probe_of_another_theory():
    """A urel probe has no homs into a poset to lift, so it would pass the
    same map with 0 maps checked."""
    p = Homomorphism(chain_poset(1), chain_poset(2), {"el": {"0": "0"}})
    with pytest.raises(ValidationError, match="^probe '.*' is not a 'pos' structure$"):
        local_retraction_check(p, [urel_of(1, [])])


def test_exact_rule_for_plain_sets_is_surjectivity():
    three, two = set_of(3), set_of(2)
    p = Homomorphism(three, two, {"el": {"0": "0", "1": "1", "2": "1"}})
    assert exact_local_retraction(p) == (True, "surjection")
    q = Homomorphism(two, three, {"el": {"0": "0", "1": "1"}})
    assert exact_local_retraction(q) == (False, "surjection")


def test_exact_rule_refuses_constant_merges():
    X = nset_structure(3, 2, ("0", "1", "1"))
    Y = nset_structure(3, 1, ("0", "0", "0"))
    p = Homomorphism(X, Y, {"el": {"0": "0", "1": "0"}})
    assert is_surjective(p)
    verdict, rule = exact_local_retraction(p)
    assert verdict is False and rule == "surjection-no-constant-merge"
    # identity on the merged target is still fine: constants already equal
    verdict2, _ = exact_local_retraction(
        Homomorphism(Y, Y, {"el": {"0": "0"}}))
    assert verdict2 is True


def test_theories_without_exact_rule_report_none():
    p = Homomorphism(chain_poset(2), chain_poset(2),
                     {"el": {"0": "0", "1": "1"}})
    assert exact_local_retraction(p) == (None, None)


def test_enumerate_limit_stops_early():
    homs = enumerate_homs(set_of(3), set_of(3), limit=5)
    assert len(homs) == 5
    assert enumerate_homs(set_of(3), set_of(3), limit=0) == []


def test_enumerate_negative_limit_names_the_parameter():
    with pytest.raises(ValidationError, match="^limit must be at least 0, got -1$"):
        enumerate_homs(set_of(3), set_of(3), limit=-1)


def test_backward_maps_out_of_growing_lattices_fail():
    # dropping a lattice stage cannot keep meets and joins consistent
    assert find_hom(m_lattice(3), m_lattice(2)) is None
    assert find_hom(endo_primes(2), endo_primes(1)) is None
