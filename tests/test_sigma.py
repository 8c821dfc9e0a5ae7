import dataclasses
import itertools
import random

import pytest

from phl import sigma, targets
from phl.closure import enumerate_models
from phl.corpus import (
    antichain_poset,
    chain_names,
    chain_poset,
    get_chain,
    get_theory,
    m_lattice,
    ordinal_U,
    set_of,
)
from phl.groups import cyclic_group, symmetric_3, trivial_group
from phl.homsearch import HomPlan, find_hom
from phl.report import RunContext, run_targets
from phl.sigma import (
    AccResult,
    HomQuiver,
    SigmaPoset,
    acc_probe,
    build_hom_quiver,
    condense_sigma,
    fam_quiver,
    gset_sigma_check,
    is_chain,
    lower_set_lattice,
    lower_sets,
    maximal_elements,
    poset_iso,
    poset_product,
    quiver_tensor,
    sigma_of_structures,
    sub_poset,
    subgroup_category,
    verify_fam_theorem,
)
from phl.structures import chain_colimit, structure_size
from phl.syntax import ValidationError
from test_structures import urel_of


def quiver(labels, arcs):
    n = len(labels)
    edges = [[i == j or (labels[i], labels[j]) in arcs for j in range(n)]
             for i in range(n)]
    return HomQuiver(list(labels), edges)


def test_condensation_merges_cycles():
    q = quiver("abc", {("a", "b"), ("b", "a"), ("b", "c")})
    P = condense_sigma(q)
    assert len(P) == 2
    assert sorted(len(c) for c in P.components) == [1, 2]
    # the merged component sits below c
    big = next(i for i, c in enumerate(P.components) if len(c) == 2)
    small = 1 - big
    assert (big, small) in P.leq and (small, big) not in P.leq


def test_condensation_closes_reachability_transitively():
    q = quiver("abcd", {("a", "b"), ("b", "c"), ("c", "d")})
    P = condense_sigma(q)
    assert len(P) == 4
    assert len(P.leq) == 4 + 6  # reflexive pairs plus the full chain order


def test_sigma_of_structures_matches_hom_direction():
    # marks force direction: marked points reach unmarked targets, not back
    structures = [urel_of(1, []), urel_of(1, ["0"]), urel_of(2, ["0"])]
    P = sigma_of_structures(structures, ["plain", "dot", "dot+pt"])
    assert len(P) == 2
    idx = {lbl: i for i, lbl in enumerate(P.labels)}
    marked = idx["[dot,dot+pt]"]
    plain = idx["[plain]"]
    assert (plain, marked) in P.leq
    assert (marked, plain) not in P.leq
    # all nonempty posets are mutually connected, so they condense to a point
    Q = sigma_of_structures([chain_poset(1), chain_poset(2), antichain_poset(2)])
    assert len(Q) == 1


def test_is_chain_and_poset_iso():
    chain = condense_sigma(quiver("abc", {("a", "b"), ("b", "c")}))
    anti = condense_sigma(quiver("abc", set()))
    assert is_chain(chain)
    assert not is_chain(anti)
    assert poset_iso(chain, condense_sigma(quiver("xyz", {("x", "y"), ("y", "z")})))
    assert not poset_iso(chain, anti)
    # same size and degree multiset but different shape: N poset vs 2+2 chain sum
    n_poset = condense_sigma(quiver("abcd", {("a", "c"), ("b", "c"), ("b", "d")}))
    two_plus_two = condense_sigma(quiver("abcd", {("a", "c"), ("b", "d")}))
    assert not poset_iso(n_poset, two_plus_two)


def brute_iso(P, Q):
    """Isomorphism by trying every bijection."""
    n = len(P)
    return n == len(Q) and any(
        all(((a, b) in P.leq) == ((f[a], f[b]) in Q.leq) for a in range(n) for b in range(n))
        for f in itertools.permutations(range(n)))


def relabelled(X, rng):
    """A pos model as a SigmaPoset whose elements are numbered in a random order."""
    carrier = X.carrier("el")
    number = dict(zip(carrier, rng.sample(range(len(carrier)), len(carrier))))
    return SigmaPoset([str(i) for i in range(len(carrier))], [(i,) for i in range(len(carrier))],
                      frozenset((number[a], number[b]) for a, b in X.relations["leq"]))


def test_poset_iso_agrees_with_brute_force():
    rng = random.Random(17)
    four = [X for X in enumerate_models(get_theory("pos"), 4).members if structure_size(X) == 4]
    assert len(four) == 16
    posets = [relabelled(X, rng) for X in four for _ in range(2)]
    posets += [lower_set_lattice(condense_sigma(quiver("abcd"[:n], arcs))).poset
               for n, arcs in [(2, {("a", "b")}), (2, set()),
                               (4, {("a", "c"), ("b", "c"), ("b", "d")})]]
    verdicts = [(poset_iso(P, Q), brute_iso(P, Q)) for P in posets for Q in posets]
    assert all(mine == brute for mine, brute in verdicts)
    # each pos member with its other copy and itself, each lattice with itself,
    # and the 2-antichain's lattice with both copies of the square, both ways
    assert sum(mine for mine, _ in verdicts) == 16 * 2 * 2 + 3 + 2 * 2


def test_poset_iso_refuses_equal_sizes_of_another_shape():
    three_chain = condense_sigma(quiver("abc", {("a", "b"), ("b", "c")}))
    vee = condense_sigma(quiver("abc", {("a", "c"), ("b", "c")}))
    wedge = condense_sigma(quiver("abc", {("c", "a"), ("c", "b")}))
    chain_and_point = condense_sigma(quiver("abc", {("a", "b")}))
    assert [len(P.leq) for P in (three_chain, vee, wedge, chain_and_point)] == [6, 5, 5, 4]
    for P, Q in itertools.permutations([three_chain, vee, chain_and_point], 2):
        assert not poset_iso(P, Q) and not brute_iso(P, Q)
    # equal size and pair count, no injective monotone map
    assert not poset_iso(vee, wedge) and not brute_iso(vee, wedge)


def test_poset_iso_makes_one_injective_query_when_the_counts_agree(monkeypatch):
    queries = []
    maps_to = HomPlan.maps_to

    def counted(self, other, injective=False, restrict=None):
        queries.append(injective)
        return maps_to(self, other, injective, restrict)

    monkeypatch.setattr(HomPlan, "maps_to", counted)
    vee = condense_sigma(quiver("abc", {("a", "c"), ("b", "c")}))
    assert not poset_iso(vee, condense_sigma(quiver("abc", {("a", "b")})))
    assert not poset_iso(vee, condense_sigma(quiver("ab", {("a", "b")})))
    assert queries == []
    assert poset_iso(vee, condense_sigma(quiver("xyz", {("y", "x"), ("z", "x")})))
    assert queries == [True]


def test_lower_sets_counts():
    two_chain = condense_sigma(quiver("ab", {("a", "b")}))
    assert len(lower_sets(two_chain)) == 3
    for n in range(1, 5):
        anti = condense_sigma(quiver("abcd"[:n], set()))
        assert len(lower_sets(anti)) == 2 ** n


def test_lower_set_lattice_is_ordered_by_inclusion():
    P = condense_sigma(quiver("abc", {("a", "b")}))
    lat = lower_set_lattice(P)
    sets = lat.sets
    for i, S in enumerate(sets):
        for j, T in enumerate(sets):
            assert ((i, j) in lat.poset.leq) == (S <= T)


def test_maximal_elements_generate():
    P = condense_sigma(quiver("abc", {("a", "c"), ("b", "c")}))
    full = frozenset(range(len(P)))
    tops = maximal_elements(P, full)
    assert len(tops) == 1  # everything below c


def test_poset_product_agrees_with_quiver_tensor():
    A = quiver("ab", {("a", "b")})
    B = quiver("xy", {("x", "y")})
    via_tensor = condense_sigma(quiver_tensor(A, B))
    via_product = poset_product(condense_sigma(A), condense_sigma(B))
    assert poset_iso(via_tensor, via_product)


def test_acc_probe_finds_unstable_lattice_chain():
    res = acc_probe(get_chain("lattice-chain"), 4)
    assert not res.stabilized
    assert res.witness == (4, 3)
    assert "no homomorphism from stage 4 to stage 3" in res.describe()


def test_acc_probe_stabilizes_constant_chain():
    res = acc_probe(get_chain("constant-set"), 5)
    assert res.stabilized and res.stage == 0


def test_acc_probe_reports_least_stable_stage():
    res = acc_probe(get_chain("ordinal-chain-2"), 6)
    assert res.stabilized
    assert res.stage == 3  # truncation freezes the chain from stage 3 on


def acc_probe_all_pairs(conn, horizon):
    """The stabilization probe from the full hom matrix of stages
    0..horizon: the least N whose tail has every pair connected both ways."""
    for N in range(horizon):
        if all(conn[m][n] for m in range(N, horizon + 1) for n in range(N, horizon + 1)):
            return AccResult(True, N, horizon, None)
    for m in range(horizon - 1, horizon + 1):
        for n in range(horizon - 1, horizon + 1):
            if not conn[m][n]:
                return AccResult(False, None, horizon, (m, n))


@pytest.mark.parametrize("name", chain_names())
def test_acc_probe_matches_all_pairs_oracle(name, monkeypatch):
    """Consecutive stages decide the tail because hom existence is a
    preorder.  Each chain's hom matrix over stages 0..5, the last stage of
    the finite chains, is searched once, and acc_probe reads its entries,
    at most horizon of them (the forward map is the inclusion), at every
    horizon up to 5.  A horizon past a finite chain's last stage is refused."""
    chain = get_chain(name)
    stages = [chain.structure_at(n) for n in range(6)]
    try:
        chain.structure_at(6)
    except ValidationError:
        with pytest.raises(ValidationError, match="truncated at stage 5"):
            acc_probe(chain, 6)
    conn = build_hom_quiver(stages).edges
    stage_of = {id(X): n for n, X in enumerate(stages)}
    asked = []

    def lookup(P, Q):
        asked.append((stage_of[id(P.structure)], stage_of[id(Q.structure)]))
        return conn[asked[-1][0]][asked[-1][1]]

    monkeypatch.setattr(sigma.HomPlan, "maps_to", lookup)
    fixed = dataclasses.replace(chain, structure_at=stages.__getitem__)
    for horizon in range(1, len(stages)):
        asked.clear()
        assert acc_probe(fixed, horizon) == acc_probe_all_pairs(conn, horizon), horizon
        assert len(asked) <= horizon


@pytest.mark.parametrize("name,horizon,colimit,probe", [
    ("constant-set", 1, ("exact", 0), (True, 0, None)),
    ("constant-set", 2, ("exact", 0), (True, 0, None)),
    ("constant-set", 3, ("exact", 0), (True, 0, None)),
    ("constant-set", 4, ("exact", 0), (True, 0, None)),
    ("constant-set", 5, ("exact", 0), (True, 0, None)),
    ("growing-set", 1, ("not-stable", None), (True, 0, None)),
    ("growing-set", 2, ("not-stable", None), (True, 0, None)),
    ("growing-set", 3, ("not-stable", None), (True, 0, None)),
    ("growing-set", 4, ("not-stable", None), (True, 0, None)),
    ("growing-set", 5, ("not-stable", None), (True, 0, None)),
    ("lattice-chain", 1, ("not-stable", None), (False, None, (1, 0))),
    ("lattice-chain", 2, ("not-stable", None), (False, None, (2, 1))),
    ("lattice-chain", 3, ("not-stable", None), (False, None, (3, 2))),
    ("lattice-chain", 4, ("not-stable", None), (False, None, (4, 3))),
    ("lattice-chain", 5, ("not-stable", None), (False, None, (5, 4))),
    ("endo-chain", 1, ("not-stable", None), (False, None, (1, 0))),
    ("endo-chain", 2, ("not-stable", None), (False, None, (2, 1))),
    ("endo-chain", 3, ("not-stable", None), (False, None, (3, 2))),
    ("endo-chain", 4, ("not-stable", None), (False, None, (4, 3))),
    ("endo-chain", 5, ("not-stable", None), (False, None, (5, 4))),
    ("presheaf-chain", 1, ("not-stable", None), (False, None, (1, 0))),
    ("presheaf-chain", 2, ("not-stable", None), (False, None, (2, 1))),
    ("presheaf-chain", 3, ("not-stable", None), (False, None, (3, 2))),
    ("presheaf-chain", 4, ("not-stable", None), (False, None, (4, 3))),
    ("presheaf-chain", 5, ("not-stable", None), (False, None, (5, 4))),
    ("ordinal-chain-2", 1, ("not-stable", None), (False, None, (1, 0))),
    ("ordinal-chain-2", 2, ("not-stable", None), (False, None, (2, 1))),
    ("ordinal-chain-2", 3, ("not-stable", None), (False, None, (3, 2))),
    ("ordinal-chain-2", 4, ("exact", 3), (True, 3, None)),
    ("ordinal-chain-2", 5, ("exact", 3), (True, 3, None)),
    ("ordinal-chain-3", 1, ("not-stable", None), (False, None, (1, 0))),
    ("ordinal-chain-3", 2, ("not-stable", None), (False, None, (2, 1))),
    ("ordinal-chain-3", 3, ("not-stable", None), (False, None, (3, 2))),
    ("ordinal-chain-3", 4, ("not-stable", None), (False, None, (4, 3))),
    ("ordinal-chain-3", 5, ("exact", 4), (True, 4, None)),
    ("remark-chain-2", 1, ("not-stable", None), (True, 0, None)),
    ("remark-chain-2", 2, ("not-stable", None), (True, 0, None)),
    ("remark-chain-2", 3, ("exact", 2), (True, 0, None)),
    ("remark-chain-2", 4, ("exact", 2), (True, 0, None)),
    ("remark-chain-2", 5, ("exact", 2), (True, 0, None)),
    ("remark-chain-3", 1, ("not-stable", None), (True, 0, None)),
    ("remark-chain-3", 2, ("not-stable", None), (True, 0, None)),
    ("remark-chain-3", 3, ("not-stable", None), (True, 0, None)),
    ("remark-chain-3", 4, ("exact", 3), (True, 0, None)),
    ("remark-chain-3", 5, ("exact", 3), (True, 0, None)),
])
def test_chain_verdicts_are_frozen(name, horizon, colimit, probe):
    """(kind, stage) of chain_colimit and (stabilized, stage, witness) of
    acc_probe for every corpus chain at horizons 1..5."""
    res = chain_colimit(get_chain(name), horizon)
    assert (res.kind, res.stage) == colimit
    res = acc_probe(get_chain(name), horizon)
    assert (res.stabilized, res.stage, res.witness) == probe


def test_registry_quivers_match_enumeration(monkeypatch):
    """Every family a registry sigma or acc target builds a quiver of, and
    the stages up to the horizon of every chain it probes: the edges are
    exactly the pairs where enumeration finds a homomorphism."""
    families = []
    quiver, probe = sigma.build_hom_quiver, targets.acc_probe

    def recording_quiver(structures, labels=None):
        families.append(list(structures))
        return quiver(structures, labels)

    def recording_probe(chain, horizon):
        families.append([chain.structure_at(n) for n in range(horizon + 1)])
        return probe(chain, horizon)

    monkeypatch.setattr(sigma, "build_hom_quiver", recording_quiver)
    monkeypatch.setattr(targets, "build_hom_quiver", recording_quiver)
    monkeypatch.setattr(targets, "acc_probe", recording_probe)
    tags = {"sigma-count", "acc-false", "acc-true", "gset"}
    names = [t.name for t in targets.TARGETS if tags & set(t.tags)]
    assert all(row["verdict"] == "match" for row in run_targets(names, RunContext()))
    monkeypatch.undo()
    # one per target, less colimit-ordinal, fam-s3-subgroups and
    # subgroup-counts, which build none, plus ordinal-sigma-k2's universe
    assert len(families) == len(names) - 2
    for family in families:
        assert build_hom_quiver(family).edges == [
            [find_hom(X, Y) is not None for Y in family] for X in family]


def test_ordinal_stage_sigma_is_a_chain():
    fam = [ordinal_U(3, a) for a in range(4)]
    P = sigma_of_structures(fam)
    assert len(P) == 4 and is_chain(P)


def test_fam_theorem_on_small_quivers():
    for q, m in [(quiver("a", set()), 2),
                 (quiver("ab", set()), 2),
                 (quiver("abc", {("a", "b"), ("b", "c")}), 1),
                 (quiver("abcd", {("a", "c"), ("b", "c"), ("b", "d")}), 2)]:
        rep = verify_fam_theorem(q, m)
        assert rep.iso, rep.note


def test_fam_quiver_includes_empty_family():
    q = quiver("ab", set())
    fq = fam_quiver(q, 1)
    assert len(fq.labels) == 3  # {}, {a}, {b}
    empty = fq.labels.index("{}")
    assert all(fq.edges[empty][j] for j in range(3))


def test_subgroup_category_shapes():
    q1, subs1 = subgroup_category(trivial_group())
    assert len(subs1) == 1
    q2, subs2 = subgroup_category(cyclic_group(2))
    assert len(subs2) == 2
    q4, subs4 = subgroup_category(cyclic_group(4))
    assert len(subs4) == 3
    assert is_chain(condense_sigma(q4))
    qs3, subs_s3 = subgroup_category(symmetric_3())
    assert len(subs_s3) == 6
    # conjugate order-2 subgroups collapse into one class
    P = condense_sigma(qs3)
    assert len(P) == 4


def test_gset_sigma_check_small_groups():
    for G, k, expect in [(trivial_group(), 2, 2),
                         (cyclic_group(2), 4, 3),
                         (cyclic_group(4), 12, 4),
                         (symmetric_3(), 24, 6)]:
        rep = gset_sigma_check(G, k)
        assert rep.iso, (rep.group, rep.note)
        assert rep.components == expect


# ---------------------------------------------------------------------------
# condensation against an independent oracle: reachability by depth-first
# search from every vertex, then classes of mutually reachable vertices


def dfs_condensation(edges):
    n = len(edges)
    reach = []
    for v in range(n):
        seen, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in range(n):
                if edges[u][w] and w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    comps = []
    for v in range(n):
        if not any(v in c for c in comps):
            comps.append(tuple(w for w in range(n) if w in reach[v] and v in reach[w]))
    leq = {(a, b) for a, ca in enumerate(comps) for b, cb in enumerate(comps)
           if cb[0] in reach[ca[0]]}
    return comps, leq


def _random_quivers(n, rng):
    """Empty, cyclic, path (not transitive) and seeded random edge sets,
    loops absent or present."""
    yield [[False] * n for _ in range(n)]
    yield [[w == (v + 1) % n for w in range(n)] for v in range(n)]
    yield [[w == v + 1 for w in range(n)] for v in range(n)]
    for density in (0.1, 0.25, 0.5, 0.8):
        for _ in range(12):
            yield [[rng.random() < density for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", range(9))
def test_condense_sigma_matches_dfs_oracle(n):
    rng = random.Random(7000 + n)
    for edges in _random_quivers(n, rng):
        labels = [f"v{i}" for i in range(n)]
        P = condense_sigma(HomQuiver(labels, edges))
        comps, leq = dfs_condensation(edges)
        assert P.components == comps, edges
        assert P.leq == leq, edges
        assert P.labels == ["[" + ",".join(labels[v] for v in c) + "]" for c in comps]


def test_gset_sigma_check_names_a_bad_orbit_set(monkeypatch):
    """An orbit sum that fails the action axioms is an explicit error, one
    that python -O cannot strip."""
    import phl.sigma
    monkeypatch.setattr(phl.sigma, "is_model", lambda X: False)
    with pytest.raises(ValueError, match=r"orbit set \{\} of c2 violates"):
        gset_sigma_check(cyclic_group(2), 4)
