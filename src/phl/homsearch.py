"""Backtracking homomorphism search over finite partial structures.

`iter_homs` is one generator.  Each function entry and relation tuple of the
source is one check, listed under every source element it mentions, and
mapping an element runs its checks.  Once a check's arguments are all
mapped, the target must hold the image tuple: in the relation, or in the
function's domain, where the entry's value is then forced, failing early on
a clash.  Nullary entries are checked once, before the first choice.

Order is part of the contract.  Homomorphisms come out in the lexicographic
order of the source elements (sorts as declared, carrier order within a
sort), each ranging over the target carrier, or over `restrict`'s tuple for
that element.  Each sort's map lists elements in the order they were
mapped, forced values included; `phl hom` prints these maps as they are.
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


def iter_homs(X: PartialStructure, Y: PartialStructure, injective: bool = False,
              restrict: Optional[dict] = None) -> Iterator[Homomorphism]:
    if X.theory.name != Y.theory.name:
        return
    sig = X.theory.signature
    order = [(s, a) for s in sig.sorts for a in X.carrier(s)]
    restrict = restrict or {}
    cands = {key: restrict.get(key, Y.carrier(key[0])) for key in order}
    # a check: (argument keys, Y's table, (result sort, value)) or (keys, Y's relation, None)
    checks = {key: [] for key in [None] + order}  # None: the nullary entries
    entries = [(tuple(zip(argsorts, args)), Y.functions.get(f, {}), (result, val))
               for f, (argsorts, result) in sig.functions.items()
               for args, val in X.functions.get(f, {}).items()]
    entries += [(tuple(zip(argsorts, args)), Y.relations.get(r, set()), None)
                for r, argsorts in sig.relations.items()
                for args in X.relations.get(r, ())]
    for check in entries:
        for key in set(check[0]) or (None,):
            checks[key].append(check)
    image, used, trail = {}, set(), []  # key -> value, (sort, value) taken, keys mapped

    def run(todo) -> bool:
        for keys, table, out in todo:
            args = []
            for key in keys:
                v = image.get(key)
                if v is None:
                    break  # not yet fully mapped
                args.append(v)
            else:
                if out is None:
                    if tuple(args) not in table:
                        return False
                    continue
                v = table.get(tuple(args))  # None, if undefined, is in no carrier
                got = image.get(out)
                if got is None:
                    if v not in cands[out] or not assign(out, v):
                        return False
                elif got != v:
                    return False
        return True

    def assign(key, v) -> bool:
        if injective:
            if (key[0], v) in used:
                return False
            used.add((key[0], v))
        image[key] = v
        trail.append(key)
        return run(checks[key])

    def undo(mark) -> None:
        while len(trail) > mark:
            key = trail.pop()
            v = image.pop(key)
            if injective:
                used.discard((key[0], v))

    if not run(checks[None]):
        return
    stack = []  # per choice made: (position in order, candidates left, trail mark)
    i = 0
    while True:
        while i < len(order) and order[i] in image:
            i += 1
        if i == len(order):
            maps = {s: {} for s in sig.sorts}
            for key in trail:
                maps[key[0]][key[1]] = image[key]
            yield Homomorphism(X, Y, maps)
        else:
            stack.append((i, iter(cands[order[i]]), len(trail)))
        while stack:  # the next candidate of the deepest open choice
            i, left, mark = stack[-1]
            undo(mark)
            for v in left:
                if assign(order[i], v):
                    break
                undo(mark)
            else:
                stack.pop()
                continue
            i += 1
            break
        else:
            return


def find_hom(X: PartialStructure, Y: PartialStructure, injective: bool = False,
             restrict: Optional[dict] = None) -> Optional[Homomorphism]:
    return next(iter_homs(X, Y, injective, restrict), None)


def enumerate_homs(X: PartialStructure, Y: PartialStructure, limit: Optional[int] = None,
                   injective: bool = False, restrict: Optional[dict] = None) -> list:
    return list(itertools.islice(iter_homs(X, Y, injective, restrict), limit))


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
    maps_checked: int
    witness_probe: Optional[PartialStructure]
    witness_map: Optional[Homomorphism]


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
    g: G -> source with p . g = f must exist; the report names the first
    probe map without one.  A universe decides this for its own members as
    probes by section search instead (ModelUniverse.locret).
    """
    X, Y = p.source, p.target
    fibers = _fibers(p)
    maps_checked = 0
    for G in probes:
        for f in iter_homs(G, Y):
            maps_checked += 1
            restrict = {(s, c): fibers[(s, f.maps[s][c])]
                        for s in G.theory.signature.sorts for c in G.carrier(s)}
            if find_hom(G, X, restrict=restrict) is None:
                return LocalRetractionReport("failed", maps_checked, G, f)
    return LocalRetractionReport("passed-up-to-probes", maps_checked, None, None)


def passes_probes(p: Homomorphism, probes: list) -> bool:
    return local_retraction_check(p, probes).verdict == "passed-up-to-probes"
