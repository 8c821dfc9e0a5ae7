"""Backtracking homomorphism search over finite partial structures.

Two searches with two contracts.

`iter_homs` enumerates, and its order is part of the contract.  It is one
generator.  Each function entry and relation tuple of the source is one
check, listed under every source element it mentions, and mapping an
element runs its checks.  Once a check's arguments are all mapped, the
target must hold the image tuple: in the relation, or in the function's
domain, where the entry's value is then forced, failing early on a clash.
Nullary entries are checked once, before the first choice.  Homomorphisms
come out in the lexicographic order of the source elements (sorts as
declared, carrier order within a sort), each ranging over the target
carrier, or over `restrict`'s tuple for that element.  Each sort's map lists
elements in the order they were mapped, forced values included; `phl hom`
prints these maps as they are.

`hom_exists` and `HomPlan.maps_to` decide existence only and give no
witness.  Existence is a constraint satisfaction problem (Feder & Vardi
1998): one variable per source element, one constraint per function entry,
read as the tuple (args..., value) of the function's graph, and per
relation tuple.  Domains are int bitsets over the target carrier.  Every
assignment forward-checks (Haralick & Elliott 1980) each constraint left
with one free variable, and the variable with the smallest domain goes
next, so forced values go first.  A homomorphism exists iff each connected
component of the source maps, so each component is searched on its own.
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
from .syntax import ValidationError


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
    if limit is not None and limit < 0:
        raise ValidationError(f"limit must be at least 0, got {limit}")
    return list(itertools.islice(iter_homs(X, Y, injective, restrict), limit))


def hom_exists(X: PartialStructure, Y: PartialStructure) -> bool:
    """Whether some homomorphism X -> Y exists; no witness.  Callers asking
    about many pairs keep one HomPlan per structure instead."""
    return HomPlan(X).maps_to(HomPlan(Y))


class HomPlan:
    """One structure's tables for existence search, each built on first use
    and kept, so a family or a chain builds them once per member.

    Elements are numbered by their position in their sort's carrier, and
    each symbol's tuples are kept as such positions.  As a source the plan
    holds its variables (one per element), its constraints grouped by
    symbol and argument pattern, and the connected components of its
    constraint graph.  As a target it holds, per symbol and argument
    pattern, the support of each position as int bitsets, built only for
    the patterns some source asks for.  The structure must not change
    while its plan is in use.
    """

    def __init__(self, X: PartialStructure):
        self.structure = X
        sig = X.theory.signature
        self._index = {s: {a: i for i, a in enumerate(X.carrier(s))} for s in sig.sorts}
        self._rows = {}  # (symbol, is_function) -> _encoded's pair
        self._source = None
        self._supports = {}  # (symbol, is_function, pattern) -> _support's triple

    def _encoded(self, name: str, is_function: bool) -> tuple:
        """(sorts of the positions, tuples as carrier positions) of one
        symbol; a function gives the tuples (args..., value) of its graph."""
        got = self._rows.get((name, is_function))
        if got is None:
            X = self.structure
            sig = X.theory.signature
            if is_function:
                argsorts, result = sig.functions[name]
                keysorts = argsorts + (result,)
                tuples = [args + (val,) for args, val in X.functions.get(name, {}).items()]
            else:
                keysorts, tuples = sig.relations[name], X.relations.get(name, ())
            index = list(map(self._index.__getitem__, keysorts))
            got = self._rows[name, is_function] = (
                keysorts, [tuple(map(dict.__getitem__, index, t)) for t in tuples])
        return got

    def _source_tables(self) -> tuple:
        """(variable sorts, constraint keys, scopes per key, links,
        components).  A key is (symbol, is_function, pattern): the pattern
        numbers each position by the first position of its variable among
        the distinct ones, or is None when the variables are all distinct.
        A scope is the tuple of distinct variables of one entry or tuple.
        links[v] lists (scope, key number) for the scopes of two or more
        variables that hold v.  Components of one variable are left out:
        the initial domains settle them."""
        sig = self.structure.theory.signature
        sorts, offset = [], {}
        for s in sig.sorts:
            offset[s] = len(sorts)
            sorts += [s] * len(self._index[s])
        number, scopes, links = {}, [], [[] for _ in sorts]
        symbols = [(f, True) for f in sig.functions] + [(r, False) for r in sig.relations]
        for name, is_function in symbols:
            keysorts, rows = self._encoded(name, is_function)
            shift = list(map(offset.__getitem__, keysorts))
            for row in rows:
                vs = tuple(map(int.__add__, shift, row))
                if len(set(vs)) == len(vs):
                    scope, pattern = vs, None
                else:
                    scope = tuple(dict.fromkeys(vs))
                    pattern = tuple(map(scope.index, vs))
                n = number.setdefault((name, is_function, pattern), len(scopes))
                if n == len(scopes):
                    scopes.append([])
                scopes[n].append(scope)
                if len(scope) > 1:
                    link = (scope, n)
                    for v in scope:
                        links[v].append(link)
        comps, seen = [], set()
        for v, held in enumerate(links):
            if held and v not in seen:
                seen.add(v)
                comp, todo = [], [v]
                while todo:
                    u = todo.pop()
                    comp.append(u)
                    for scope, _ in links[u]:
                        for w in scope:
                            if w not in seen:
                                seen.add(w)
                                todo.append(w)
                comps.append(comp)
        self._source = (sorts, list(number), scopes, links, comps)
        return self._source

    def _support(self, key: tuple) -> tuple:
        """(projections, supports, inhabited) of one symbol under one
        argument pattern: projections[k] is the bitset of values position k
        takes in the target tuples that fit the pattern; supports[k] maps
        the values of the other positions to the bitset of values position k
        may take; inhabited says whether any tuple fits."""
        name, is_function, pattern = key
        keysorts, rows = self._encoded(name, is_function)
        width = len(keysorts)
        if pattern is not None:  # keep the tuples that repeat as the pattern does
            first = [pattern.index(k) for k in range(max(pattern) + 1)]
            rows = [tuple(map(t.__getitem__, first)) for t in rows
                    if all(t[i] == t[first[k]] for i, k in enumerate(pattern))]
            width = len(first)
        projections, supports = [], []
        for k in range(width):
            proj, sup = 0, {}
            for row in rows:
                rest = row[:k] + row[k + 1:]
                bit = 1 << row[k]
                sup[rest] = sup.get(rest, 0) | bit
                proj |= bit
            projections.append(proj)
            supports.append(sup)
        got = self._supports[key] = (projections, supports, bool(rows))
        return got

    def maps_to(self, other: "HomPlan") -> bool:
        """Whether some homomorphism runs from this plan's structure to
        other's."""
        if self.structure.theory.name != other.structure.theory.name:
            return False
        sorts, keys, scopes, links, comps = self._source or self._source_tables()
        index = other._index
        dom = [(1 << len(index[s])) - 1 for s in sorts]
        supports = []  # per key number
        known = other._supports
        for key, key_scopes in zip(keys, scopes):
            projections, sup, inhabited = known.get(key) or other._support(key)
            if not inhabited:
                return False
            supports.append(sup)
            for scope in key_scopes:
                for k, v in enumerate(scope):
                    dom[v] &= projections[k]
        if not all(dom):
            return False
        value = [None] * len(sorts)
        for comp in comps:
            if not _component_maps(comp, dom, value, links, supports):
                return False
        return True


def _component_maps(comp: list, dom: list, value: list, links: list,
                    supports: list) -> bool:
    """Backtracking with forward checking over one component's variables.
    Narrows `dom` in place, restoring it on every retreat, and leaves the
    component's values in `value` when it maps."""
    free = set(comp)
    trail = []  # (variable, domain before a narrowing)
    stack = []  # per variable chosen: [variable, values left, trail mark]
    while free:
        v, least = None, 0
        for u in free:  # the smallest domain; a singleton ends the look
            size = dom[u].bit_count()
            if v is None or size < least:
                v, least = u, size
                if size == 1:
                    break
        free.remove(v)
        stack.append([v, dom[v], len(trail)])
        while stack:  # the next value of the deepest open choice
            top = stack[-1]
            v, left, mark = top
            while left:
                while len(trail) > mark:
                    u, old = trail.pop()
                    dom[u] = old
                bit = left & -left
                left ^= bit
                value[v] = bit.bit_length() - 1
                for scope, n in links[v]:  # forward checking
                    rest, at = [], -1
                    for k, u in enumerate(scope):
                        x = value[u]
                        if x is not None:
                            rest.append(x)
                        elif at < 0:
                            at = k
                        else:
                            break  # two variables still free
                    else:
                        if at < 0:
                            continue  # the last value came from a checked domain
                        u = scope[at]
                        narrowed = dom[u] & supports[n][at].get(tuple(rest), 0)
                        if not narrowed:
                            break
                        if narrowed != dom[u]:
                            trail.append((u, dom[u]))
                            dom[u] = narrowed
                else:
                    top[1] = left
                    break
            else:
                while len(trail) > mark:
                    u, old = trail.pop()
                    dom[u] = old
                value[v] = None
                free.add(v)
                stack.pop()
                continue
            break
        else:
            return False
    return True


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
