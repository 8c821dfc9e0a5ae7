"""Randomized property suites behind the acceptance checks.

Three suites, each driven by one seeded RNG so reruns are bit-identical:

  * probe_property_suite: the lifting-property algebra of local
    retractions (retractions pass, composition, right cancellation,
    pullback stability, codomain-as-probe, surjection agreement on plain
    sets) exercised on small enumerated universes.
  * definable_fixpoint_suite: classes carved out by extra Horn sequents
    are fixpoints of the product/closed-sub/local-retract closure.
  * sigma_invariant_suite: component posets agree with hom existence,
    respect products and full sub-families, and their lower-set lattices
    have antichain generators.

A report counts every individual check as one instance; the acceptance
gate requires zero failures and a minimum instance count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .closure import (
    definable_class,
    enumerate_models,
    hsp_closure,
)
from .corpus import get_theory
from .homsearch import (
    fibers,
    find_hom,
    hom_exists,
    passes_probes,
)
from .parser import parse_sequents
from .sigma import (
    build_hom_quiver,
    condense_sigma,
    lower_set_lattice,
    poset_iso,
    poset_product,
    quiver_tensor,
)
from .structures import (
    compose,
    hom_violation,
    is_surjective,
    pullback,
)


@dataclass
class SuiteReport:
    name: str
    seed: int
    instances: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, prop: str, ok: bool, detail) -> None:
        self.instances += 1
        if not ok:
            self.failures.append((prop, detail))


# universes the probe suite draws maps from; k stays at 2 so full hom
# enumeration per pair is cheap
_PROBE_PLAN = (
    ("set", 2),
    ("urel", 2),
    ("pos", 2),
    ("per", 2),
    ("idem", 2),
    ("arrow", 1),
)
PROBE_ROUNDS = 8  # seeded draws per property and universe


def _hom_pool(U):
    pool = []
    n = len(U.members)
    for i in range(n):
        for j in range(n):
            pool.extend(U.plan(i).homs(U.plan(j)))
    return pool


def _sample(rng, pool, count):
    if not pool:
        return []
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


def _probe_family(rng, U, count=3):
    picks = sorted(rng.sample(range(len(U.members)), min(count, len(U.members))))
    return [U.plan(i) for i in picks]


def probe_property_suite(seed: int = 20250814) -> SuiteReport:
    rep = SuiteReport("probe-properties", seed)
    rng = random.Random(seed)
    for name, k in _PROBE_PLAN:
        U = enumerate_models(get_theory(name), k)
        pool = _hom_pool(U)
        surjections = [p for p in pool if is_surjective(p)]
        for X in U.members:
            rep.check("hom-exists reflexive", hom_exists(X, X), (name, X.name))
        for h in _sample(rng, pool, PROBE_ROUNDS):
            rep.check("returned maps are homomorphisms",
                      hom_violation(h) is None, (name, h.name))
        for _ in range(PROBE_ROUNDS):
            g = rng.choice(pool)
            nexts = [h for h in pool if h.source.name == g.target.name]
            if not nexts:
                continue
            h = rng.choice(nexts)
            hg = compose(h, g)
            rep.check("hom-exists transitive",
                      hom_violation(hg) is None
                      and hom_exists(g.source, h.target),
                      (name, g.name, h.name))
        for p in _sample(rng, surjections, PROBE_ROUNDS):
            if not hom_exists(p.target, p.source, restrict=fibers(p)):
                continue
            probes = _probe_family(rng, U)
            rep.check("retraction passes probes", passes_probes(p, probes),
                      (name, p.name))
        for _ in range(PROBE_ROUNDS):
            p = rng.choice(pool)
            firsts = [h for h in pool if h.target.name == p.source.name]
            if not firsts:
                continue
            h = rng.choice(firsts)
            probes = _probe_family(rng, U)
            p_passes = passes_probes(p, probes)
            ph_passes = passes_probes(compose(p, h), probes)
            if p_passes and passes_probes(h, probes):
                rep.check("composition passes probes", ph_passes, (name, h.name, p.name))
            if ph_passes:
                rep.check("right factor passes probes", p_passes, (name, h.name, p.name))
        for p in _sample(rng, pool, PROBE_ROUNDS):
            probes = _probe_family(rng, U) + [p.target]
            if passes_probes(p, probes):
                rep.check("codomain probe forces a section",
                          hom_exists(p.target, p.source, restrict=fibers(p)), (name, p.name))
        for _ in range(PROBE_ROUNDS // 2):
            p = rng.choice(pool)
            others = [q for q in pool if q.target.name == p.target.name]
            q = rng.choice(others)
            probes = _probe_family(rng, U)
            if passes_probes(p, probes):
                _, _, p_back = pullback(p, q)
                rep.check("pullback passes the same probes",
                          passes_probes(p_back, probes), (name, p.name, q.name))
        if "exact_locret_surjection" in U.theory.flags:
            everyone = [U.plan(i) for i in range(len(U))]
            for p in _sample(rng, pool, PROBE_ROUNDS * 2):
                rep.check("plain sets: probe pass iff surjective",
                          passes_probes(p, everyone) == is_surjective(p), (name, p.name))
    return rep


# (theory, k, extra sequents) pairs whose satisfaction classes must come
# back unchanged from the closure composite
_DEFINABLE_PLAN = (
    ("pos", 3, "[x : el, y : el] leq(x, y) |- leq(y, x);"),
    ("set", 3, "[x : el, y : el] top |- x = y;"),
    ("urel", 2, "[x : el] top |- mark(x);"),
    ("per", 2, "[x : el] top |- r(x, x);"),
    ("idem", 2, "[x : el] top |- f(x) = x;"),
    ("remark-locret-2", 2,
     "[x : el] u0(x) = e() & u1(x) = e() |- x = e();"),
)


def definable_fixpoint_suite(seed: int = 20250814) -> SuiteReport:
    rep = SuiteReport("definable-fixpoints", seed)
    for name, k, text in _DEFINABLE_PLAN:
        theory = get_theory(name)
        U = enumerate_models(theory, k)
        extra = parse_sequents(text, theory.signature)
        E = definable_class(U, extra)
        res = hsp_closure(E)
        rep.check("definable class is an hsp fixpoint",
                  res.fixpoint and res.model_class.indices == E.indices,
                  (name, k, sorted(E.indices), res.growth))
    return rep


_SIGMA_PLAN = (
    ("set", 2),
    ("urel", 2),
    ("pos", 2),
    ("arrow", 1),
)
SIGMA_ROUNDS = 6  # sub-families per universe, quiver pairs, random relations


def sigma_invariant_suite(seed: int = 20250814) -> SuiteReport:
    rep = SuiteReport("sigma-invariants", seed)
    rng = random.Random(seed)
    quivers = {}
    for name, k in _SIGMA_PLAN:
        U = enumerate_models(get_theory(name), k)
        q = build_hom_quiver(list(U.members))
        quivers[name] = q
        P = condense_sigma(q)
        for a, ca in enumerate(P.components):
            for b, cb in enumerate(P.components):
                want = find_hom(U.members[ca[0]], U.members[cb[0]]) is not None
                rep.check("component order is hom existence",
                          ((a, b) in P.leq) == want, (name, a, b))
        for _ in range(SIGMA_ROUNDS):
            keep = sorted(rng.sample(range(len(U.members)),
                                     rng.randrange(1, len(U.members) + 1)))
            S = condense_sigma(build_hom_quiver([U.members[i] for i in keep]))
            comp_of = {}
            for ci, comp in enumerate(P.components):
                for m in comp:
                    comp_of[m] = ci
            induced = [comp_of[keep[comp[0]]] for comp in S.components]
            inj = len(set(induced)) == len(induced)
            order_match = all(
                ((a, b) in S.leq) == ((induced[a], induced[b]) in P.leq)
                for a in range(len(S.components))
                for b in range(len(S.components))
            )
            rep.check("full sub-family embeds in the component poset",
                      inj and order_match, (name, keep))
    names = [n for n, _ in _SIGMA_PLAN]
    for _ in range(SIGMA_ROUNDS):
        qa = quivers[rng.choice(names)]
        qb = quivers[rng.choice(names)]
        left = condense_sigma(quiver_tensor(qa, qb))
        right = poset_product(condense_sigma(qa), condense_sigma(qb))
        rep.check("components respect binary products",
                  poset_iso(left, right), (qa.labels[:2], qb.labels[:2]))
    from .sigma import HomQuiver
    for n in range(1, 5):
        anti = HomQuiver([f"a{i}" for i in range(n)],
                         [[i == j for j in range(n)] for i in range(n)])
        L = lower_set_lattice(condense_sigma(anti))
        rep.check("antichain lower sets number 2^n",
                  len(L.sets) == 2 ** n, n)
    for _ in range(SIGMA_ROUNDS):
        n = rng.randrange(1, 6)
        # a random reflexive relation; condense_sigma closes it
        edges = [[i == j or rng.random() < 0.35 for j in range(n)] for i in range(n)]
        q = HomQuiver([f"v{i}" for i in range(n)], edges)
        P = condense_sigma(q)
        L = lower_set_lattice(P)
        for si, S in enumerate(L.sets):
            gens = L.generators(si)
            closure = set()
            for g in gens:
                closure.update(a for a in range(len(P.components))
                               if (a, g) in P.leq)
            antichain = all(not (a != b and (a, b) in P.leq)
                            for a in gens for b in gens)
            rep.check("generators are an antichain generating the set",
                      antichain and closure == set(S), (q.labels, si))
    return rep
