"""Backtracking homomorphism search over finite partial structures.

Variables are the source elements in declaration order (sorts as declared,
carrier order within a sort).  Assigning an element propagates through every
function entry whose arguments are now fully mapped: the target table must be
defined there and the entry's value is forced, failing early on clashes.
Relation tuples are checked as soon as they are fully mapped.  The search is
deterministic, so the first witness found is stable across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .structures import (
    Homomorphism,
    PartialStructure,
    is_surjective,
)


class _Searcher:
    def __init__(self, X: PartialStructure, Y: PartialStructure,
                 injective: bool = False, restrict: Optional[dict] = None):
        self.X = X
        self.Y = Y
        self.injective = injective
        self.restrict = restrict or {}
        sig = X.theory.signature
        self.sorts = sig.sorts
        self.order = [(s, a) for s in sig.sorts for a in X.carrier(s)]
        self.fn_entries = []
        self.triggers = {key: [] for key in self.order}
        for f, (argsorts, result) in sig.functions.items():
            for args, val in X.functions.get(f, {}).items():
                idx = len(self.fn_entries)
                self.fn_entries.append((f, argsorts, args, result, val))
                for s, a in zip(argsorts, args):
                    self.triggers[(s, a)].append(("fn", idx))
        self.rel_entries = []
        for r, argsorts in sig.relations.items():
            for args in sorted(X.relations.get(r, set()), key=repr):
                idx = len(self.rel_entries)
                self.rel_entries.append((r, argsorts, args))
                for s, a in zip(argsorts, args):
                    self.triggers[(s, a)].append(("rel", idx))
        self.maps = {s: {} for s in sig.sorts}
        self.used = {s: set() for s in sig.sorts}
        self.trail = []

    def _candidates(self, s, a):
        cand = self.restrict.get((s, a))
        if cand is None:
            cand = self.Y.carrier(s)
        return cand

    def _assign(self, s, a, v) -> bool:
        got = self.maps[s].get(a)
        if got is not None:
            return got == v
        if v not in self._candidates(s, a):
            return False
        if self.injective:
            if v in self.used[s]:
                return False
            self.used[s].add(v)
        self.maps[s][a] = v
        self.trail.append((s, a))
        return self._propagate(s, a)

    def _propagate(self, s, a) -> bool:
        for kind, idx in self.triggers[(s, a)]:
            if kind == "fn":
                if not self._check_fn(idx):
                    return False
            else:
                if not self._check_rel(idx):
                    return False
        return True

    def _check_fn(self, idx) -> bool:
        f, argsorts, args, result, val = self.fn_entries[idx]
        mapped = []
        for es, ea in zip(argsorts, args):
            mv = self.maps[es].get(ea)
            if mv is None:
                return True  # not yet fully mapped
            mapped.append(mv)
        yval = self.Y.functions.get(f, {}).get(tuple(mapped))
        if yval is None:
            return False
        return self._assign(result, val, yval)

    def _check_rel(self, idx) -> bool:
        r, argsorts, args = self.rel_entries[idx]
        mapped = []
        for es, ea in zip(argsorts, args):
            mv = self.maps[es].get(ea)
            if mv is None:
                return True
            mapped.append(mv)
        return tuple(mapped) in self.Y.relations.get(r, set())

    def _undo(self, mark) -> None:
        while len(self.trail) > mark:
            s, a = self.trail.pop()
            v = self.maps[s].pop(a)
            if self.injective:
                self.used[s].discard(v)

    def solutions(self) -> Iterator[Homomorphism]:
        # nullary entries never fire from an assignment; seed them first
        mark0 = len(self.trail)
        ok = True
        for idx, (f, argsorts, args, result, val) in enumerate(self.fn_entries):
            if not args:
                if not self._check_fn(idx):
                    ok = False
                    break
        if ok:
            yield from self._search(0)
        self._undo(mark0)

    def _search(self, i) -> Iterator[Homomorphism]:
        while i < len(self.order) and self.order[i][1] in self.maps[self.order[i][0]]:
            i += 1
        if i == len(self.order):
            yield Homomorphism(self.X, self.Y, {s: dict(m) for s, m in self.maps.items()})
            return
        s, a = self.order[i]
        for v in self._candidates(s, a):
            mark = len(self.trail)
            if self._assign(s, a, v):
                yield from self._search(i + 1)
            self._undo(mark)


def iter_homs(X: PartialStructure, Y: PartialStructure, injective: bool = False,
              restrict: Optional[dict] = None) -> Iterator[Homomorphism]:
    if X.theory.name != Y.theory.name:
        return iter(())
    return _Searcher(X, Y, injective, restrict).solutions()


def find_hom(X: PartialStructure, Y: PartialStructure, injective: bool = False,
             restrict: Optional[dict] = None) -> Optional[Homomorphism]:
    for h in iter_homs(X, Y, injective, restrict):
        return h
    return None


def enumerate_homs(X: PartialStructure, Y: PartialStructure, limit: Optional[int] = None,
                   injective: bool = False, restrict: Optional[dict] = None) -> list:
    out = []
    for h in iter_homs(X, Y, injective, restrict):
        out.append(h)
        if limit is not None and len(out) >= limit:
            break
    return out


def hom_exists(X: PartialStructure, Y: PartialStructure) -> bool:
    return find_hom(X, Y) is not None


def _fibers(p: Homomorphism) -> dict:
    """(sort, target element) -> the source elements p sends there."""
    X, Y = p.source, p.target
    return {(s, b): tuple(a for a in X.carrier(s) if p.maps[s][a] == b)
            for s in X.theory.signature.sorts for b in Y.carrier(s)}


def find_section(p: Homomorphism) -> Optional[Homomorphism]:
    """Section of p: a homomorphism s with p . s = id on p's target."""
    return find_hom(p.target, p.source, restrict=_fibers(p))


# ---------------------------------------------------------------------------
# local retractions, probed and exact


@dataclass
class LocalRetractionReport:
    verdict: str  # "passed-up-to-probes" | "failed"
    probes_checked: int
    maps_checked: int
    witness_probe: Optional[PartialStructure]
    witness_map: Optional[Homomorphism]
    exact: Optional[bool]  # only for theories with a known exact rule
    exact_rule: Optional[str]


def exact_local_retraction(p: Homomorphism) -> tuple:
    """(verdict, rule name) under a declared exact rule, or (None, None).

    Theories may declare how local retractions look in the exact,
    all-finitely-presentable sense: plain surjectivity, or surjectivity that
    does not merge distinct constants.
    """
    flags = p.source.theory.flags
    if "exact_locret_surjection" in flags:
        return is_surjective(p), "surjection"
    if "exact_locret_surjection_nomerge" in flags:
        if not is_surjective(p):
            return False, "surjection-no-constant-merge"
        X, Y = p.source, p.target
        consts = [(f, result) for f, (argsorts, result)
                  in X.theory.signature.functions.items() if not argsorts]
        for (f, fs), (g, gs) in itertools.combinations(consts, 2):
            if fs != gs:
                continue
            fy = Y.functions.get(f, {}).get(())
            gy = Y.functions.get(g, {}).get(())
            if fy is not None and fy == gy:
                fx = X.functions.get(f, {}).get(())
                gx = X.functions.get(g, {}).get(())
                if fx != gx:
                    return False, "surjection-no-constant-merge"
        return True, "surjection-no-constant-merge"
    return None, None


def local_retraction_check(p: Homomorphism, probes: list) -> LocalRetractionReport:
    """Probe whether p looks like a local retraction.

    For every probe G and every homomorphism f: G -> target, a lift
    g: G -> source with p . g = f must exist.  With the full bounded universe
    as probes this is retraction existence in disguise (the target itself is a
    probe and lifting its identity is a section), but the probe view is what
    generalizes, so the report speaks in probes.  An exact verdict is attached
    when the theory declares a rule.
    """
    X, Y = p.source, p.target
    fibers = _fibers(p)
    maps_checked = 0
    witness = None
    for G in probes:
        for f in iter_homs(G, Y):
            maps_checked += 1
            restrict = {}
            for s in G.theory.signature.sorts:
                for c in G.carrier(s):
                    restrict[(s, c)] = fibers[(s, f.maps[s][c])]
            lift = find_hom(G, X, restrict=restrict)
            if lift is None:
                witness = (G, f)
                break
        if witness is not None:
            break
    exact, rule = exact_local_retraction(p)
    if witness is None:
        return LocalRetractionReport("passed-up-to-probes", len(probes), maps_checked,
                                     None, None, exact, rule)
    return LocalRetractionReport("failed", len(probes), maps_checked,
                                 witness[0], witness[1], exact, rule)


def passes_probes(p: Homomorphism, probes: list) -> bool:
    return local_retraction_check(p, probes).verdict == "passed-up-to-probes"
