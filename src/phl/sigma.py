"""Connected-component posets of model families.

Hom-existence between finitely many structures is a preorder (a quiver with
loops whose edges compose); condensing its strongly connected components
yields a finite poset.  The lattice of lower sets of that poset is what
families of models see, the subgroup side of the action examples gives an
independent route to the same posets, and the probe for the
ascending-chain condition asks whether some tail of a chain is mutually
connected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .corpus import get_theory, gset_orbit_structure, gset_theory
from .groups import (
    FiniteGroup,
    all_subgroups,
    subconjugate,
    subgroup_label,
)
from .homsearch import HomPlan
from .structures import ChainRecipe, disjoint_union, is_model, make_structure, stage_inclusion
from .syntax import BudgetError, ValidationError


@dataclass
class HomQuiver:
    labels: list
    edges: list  # adjacency matrix of bools, loops included


def build_hom_quiver(structures: list, labels: Optional[list] = None) -> HomQuiver:
    """Edges by existence search over one plan per structure; every vertex
    has its loop."""
    labels = list(labels) if labels is not None else [
        X.name or f"m{i}" for i, X in enumerate(structures)
    ]
    plans = [HomPlan(X) for X in structures]
    edges = [[i == j or P.maps_to(Q) for j, Q in enumerate(plans)]
             for i, P in enumerate(plans)]
    return HomQuiver(labels, edges)


@dataclass
class SigmaPoset:
    labels: list  # one label per component
    components: list  # tuples of vertex indices
    leq: frozenset  # pairs (i, j) of component indices, reflexive and transitive

    def __len__(self):
        return len(self.components)


def _reach(edges: list) -> list:
    """Reflexive-transitive closure of a bool matrix (Warshall), rows as int
    bitsets: bit w of row v is set when w is reachable from v."""
    n = len(edges)
    rows = [sum(1 << w for w in range(n) if edges[v][w]) | 1 << v for v in range(n)]
    for k in range(n):
        for v in range(n):
            if rows[v] >> k & 1:
                rows[v] |= rows[k]
    return rows


def condense_sigma(quiver: HomQuiver) -> SigmaPoset:
    """Poset of strongly connected components, ordered by reachability.

    Components and order both come from one reachability closure, so the
    input edges need not be transitively closed.  Components are listed by
    least vertex, each sorted.
    """
    reach = _reach(quiver.edges)
    n = len(reach)
    comps = []
    placed = set()
    for v in range(n):
        if v not in placed:
            comp = tuple(w for w in range(v, n) if reach[v] >> w & 1 and reach[w] >> v & 1)
            placed.update(comp)
            comps.append(comp)
    leq = frozenset((a, b) for a, ca in enumerate(comps) for b, cb in enumerate(comps)
                    if reach[ca[0]] >> cb[0] & 1)
    labels = ["[" + ",".join(str(quiver.labels[v]) for v in comp) + "]" for comp in comps]
    return SigmaPoset(labels, comps, leq)


def sigma_of_structures(structures: list, labels: Optional[list] = None) -> SigmaPoset:
    return condense_sigma(build_hom_quiver(structures, labels))


# ---------------------------------------------------------------------------
# poset utilities


def is_chain(P: SigmaPoset) -> bool:
    n = len(P)
    return all((i, j) in P.leq or (j, i) in P.leq for i in range(n) for j in range(n))


def poset_iso(P: SigmaPoset, Q: SigmaPoset) -> bool:
    """Whether P and Q are isomorphic: one search for an injective monotone
    map, with both posets read as brel structures.  Between finite posets
    of one size an injective map is a bijection, and it sends distinct
    related pairs to distinct related pairs; when both have as many
    related pairs, those images are all of Q's, so the map reflects the
    order and is an isomorphism."""
    if len(P) != len(Q) or len(P.leq) != len(Q.leq):
        return False

    def plan(R):
        return HomPlan(make_structure(get_theory("brel"), {"el": range(len(R))},
                                      relations={"r": R.leq}))

    return plan(P).maps_to(plan(Q), injective=True)


def poset_product(P: SigmaPoset, Q: SigmaPoset) -> SigmaPoset:
    pairs = [(i, j) for i in range(len(P)) for j in range(len(Q))]
    leq = frozenset(
        (a, b)
        for a, (i, j) in enumerate(pairs)
        for b, (k, l) in enumerate(pairs)
        if (i, k) in P.leq and (j, l) in Q.leq
    )
    labels = [f"({P.labels[i]},{Q.labels[j]})" for i, j in pairs]
    return SigmaPoset(labels, [(a,) for a in range(len(pairs))], leq)


def quiver_tensor(A: HomQuiver, B: HomQuiver) -> HomQuiver:
    """Product quiver: pairs with componentwise edges."""
    pairs = [(i, j) for i in range(len(A.labels)) for j in range(len(B.labels))]
    labels = [f"({A.labels[i]},{B.labels[j]})" for i, j in pairs]
    edges = [
        [A.edges[i][k] and B.edges[j][l] for (k, l) in pairs]
        for (i, j) in pairs
    ]
    return HomQuiver(labels, edges)


def sub_poset(P: SigmaPoset, keep: list) -> SigmaPoset:
    idx = {c: i for i, c in enumerate(keep)}
    leq = frozenset((idx[a], idx[b]) for (a, b) in P.leq if a in idx and b in idx)
    return SigmaPoset([P.labels[c] for c in keep], [P.components[c] for c in keep], leq)


# ---------------------------------------------------------------------------
# lower sets


def lower_sets(P: SigmaPoset) -> list:
    """All lower sets, smallest first; guarded against blowup."""
    n = len(P)
    if n > 20:
        raise BudgetError(f"lower set enumeration over 2^{n} subsets")
    down = [frozenset(j for j in range(n) if (j, i) in P.leq) for i in range(n)]
    out = []
    for mask in range(1 << n):
        S = frozenset(i for i in range(n) if mask >> i & 1)
        if all(down[i] <= S for i in S):
            out.append(S)
    out.sort(key=lambda S: (len(S), sorted(S)))
    return out


def maximal_elements(P: SigmaPoset, S: frozenset) -> frozenset:
    """Generators of a lower set: its maximal elements."""
    return frozenset(
        i for i in S
        if not any(j != i and (i, j) in P.leq for j in S)
    )


@dataclass
class LowerSetLattice:
    base: SigmaPoset
    sets: list  # lower sets as frozensets of base component indices
    poset: SigmaPoset  # the lattice, ordered by inclusion

    def generators(self, idx: int) -> frozenset:
        return maximal_elements(self.base, self.sets[idx])


def lower_set_lattice(P: SigmaPoset) -> LowerSetLattice:
    sets = lower_sets(P)
    leq = frozenset(
        (a, b) for a, S in enumerate(sets) for b, T in enumerate(sets) if S <= T
    )
    labels = [
        "{" + ",".join(P.labels[i] for i in sorted(S)) + "}" for S in sets
    ]
    lattice = SigmaPoset(labels, [(a,) for a in range(len(sets))], leq)
    return LowerSetLattice(P, sets, lattice)


# ---------------------------------------------------------------------------
# ascending chain probe


@dataclass
class AccResult:
    stabilized: bool
    stage: Optional[int]
    horizon: int
    witness: Optional[tuple]  # (m, n) with no hom from stage m to stage n

    def describe(self) -> str:
        if self.stabilized:
            return f"stabilized at stage {self.stage} (horizon {self.horizon})"
        m, n = self.witness
        return (f"no stabilization up to horizon {self.horizon}: "
                f"no homomorphism from stage {m} to stage {n}")


def acc_probe(chain: ChainRecipe, horizon: int) -> AccResult:
    """Search for a tail of the chain that is mutually connected.

    Reports the least N < horizon such that every pair of stages in
    [N, horizon] has homomorphisms both ways; N = horizon would be vacuous,
    so failing that the verdict is no-stabilization with the unconnected
    pair of the last two stages.  Hom existence is a preorder, so a tail is
    mutually connected when each consecutive pair maps both ways.  The
    forward map is the inclusion of stage n - 1 into stage n, checked by
    `stage_inclusion`, so walking down from the horizon takes at most
    horizon searches, each asking whether stage n maps back to stage n - 1,
    over one plan per stage.
    """
    if horizon < 1:
        raise ValidationError("horizon must be at least 1")
    upper = HomPlan(chain.structure_at(horizon))
    for n in range(horizon, 0, -1):
        lower = HomPlan(chain.structure_at(n - 1))
        stage_inclusion(chain, n - 1, lower.structure, upper.structure)
        if not upper.maps_to(lower):
            if n < horizon:
                return AccResult(True, n, horizon, None)
            return AccResult(False, None, horizon, (n, n - 1))
        upper = lower
    return AccResult(True, 0, horizon, None)


# ---------------------------------------------------------------------------
# families of objects


@dataclass
class FamReport:
    computed: SigmaPoset
    expected: SigmaPoset
    iso: bool
    note: str


def fam_quiver(base: HomQuiver, m: int) -> HomQuiver:
    """Families of at most m base vertices; a family maps into another when
    each member maps to some member of the target (the empty family maps
    everywhere)."""
    n = len(base.labels)
    fams = []
    for r in range(min(m, n) + 1):
        fams.extend(itertools.combinations(range(n), r))
    labels = ["{" + ",".join(str(base.labels[i]) for i in S) + "}" for S in fams]
    edges = [
        [all(any(base.edges[a][b] for b in T) for a in S) for T in fams]
        for S in fams
    ]
    return HomQuiver(labels, edges)


def verify_fam_theorem(base: HomQuiver, m: int) -> FamReport:
    """sigma of bounded families against lower sets of sigma of the base.

    Families of size at most m condense onto the lower sets of the base
    poset that are generated by at most m elements; when m is at least the
    width of the base poset that is the whole lower set lattice.
    """
    computed = condense_sigma(fam_quiver(base, m))
    base_poset = condense_sigma(base)
    lattice = lower_set_lattice(base_poset)
    keep = [
        i for i, S in enumerate(lattice.sets)
        if len(maximal_elements(base_poset, S)) <= m
    ]
    expected = sub_poset(lattice.poset, keep)
    ok = poset_iso(computed, expected)
    note = (f"families of size <= {m} over {len(base.labels)} vertices; "
            f"expected {len(expected)} lower sets")
    return FamReport(computed, expected, ok, note)


# ---------------------------------------------------------------------------
# subgroup side of the action examples


def subgroup_category(G: FiniteGroup) -> tuple:
    """Quiver of subgroups with an edge H -> K when some conjugate of H lies
    in K; this mirrors equivariant maps between the transitive actions on
    cosets, so its condensation is the conjugacy-class poset."""
    subs = all_subgroups(G)
    labels = [subgroup_label(G, H) for H in subs]
    edges = [[subconjugate(G, H, K) for K in subs] for H in subs]
    return HomQuiver(labels, edges), subs


@dataclass
class GsetReport:
    group: str
    k: int
    representatives: int
    components: int
    iso: bool
    note: str


def gset_sigma_check(G: FiniteGroup, k: int) -> GsetReport:
    """Dual-route check for action models bounded by k.

    Model side: one representative per realizable set of orbit types (a
    disjoint union with one orbit per conjugacy class), compared by honest
    homomorphism search.  Subgroup side: lower sets of the conjugacy-class
    poset.  The two posets must agree whenever k admits one orbit of every
    class, since any bounded model is a sum of orbits and maps exactly onto
    the down-closure of its orbit types.
    """
    theory = gset_theory(G)
    quiver, subs = subgroup_category(G)
    class_poset = condense_sigma(quiver)
    # one representative subgroup per conjugacy class, largest orbits first
    class_reps = [subs[comp[0]] for comp in class_poset.components]
    weights = [len(G.elements) // len(H) for H in class_reps]
    if sum(weights) > k:
        raise BudgetError(
            f"bound {k} cannot realize one orbit of every class (needs {sum(weights)})")
    reps = []
    labels = []
    for mask in range(1 << len(class_reps)):
        chosen = [i for i in range(len(class_reps)) if mask >> i & 1]
        if sum(weights[i] for i in chosen) > k:
            continue
        orbits = [gset_orbit_structure(G, class_reps[i], tag=i) for i in chosen]
        X, _ = disjoint_union(theory, orbits, name="+".join(str(i) for i in chosen))
        label = "{" + ",".join(class_poset.labels[i] for i in chosen) + "}"
        if not is_model(X):
            raise ValueError(f"the sum of the orbit set {label} of {G.name} "
                             "violates the action axioms")
        reps.append(X)
        labels.append(label)
    model_poset = sigma_of_structures(reps, labels)
    lattice = lower_set_lattice(class_poset)
    # a lower set is realizable when one orbit per generator fits in the bound
    keep = [
        i for i, S in enumerate(lattice.sets)
        if sum(weights[j] for j in maximal_elements(class_poset, S)) <= k
    ]
    expected = sub_poset(lattice.poset, keep)
    ok = poset_iso(model_poset, expected)
    note = (f"{len(reps)} representatives of orbit-type sets within bound {k}; "
            f"subgroup side has {len(expected)} realizable lower sets")
    return GsetReport(G.name, k, len(reps), len(model_poset), ok, note)
