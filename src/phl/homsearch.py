"""Backtracking homomorphism search over finite partial structures.

One search serves enumeration and existence.  A homomorphism search is a
constraint satisfaction problem (Feder & Vardi 1998): one variable per
source element, one constraint per function entry, read as the tuple
(args..., value) of the function's graph, and per relation tuple.  Domains
are int bitsets over the target carrier.  Every assignment forward-checks
(Haralick & Elliott 1980) each constraint left with one free variable.  The
tables live on a `HomPlan`, built once per structure.

The search runs in one of two orders.

Enumeration (`HomPlan.homs`, and through it `iter_homs`, `find_hom`,
`enumerate_homs` and `find_section`) takes the variables in source order
(sorts as declared, carrier order within a sort) and the values in target
carrier order, so homomorphisms come out in lexicographic order; that order
is part of the contract.  `injective` adds one constraint per two elements
of a sort, that their values differ, so forward checking removes each
assigned value from the domains of the free variables of its sort.
`restrict` narrows the initial domains without reordering them.  Each
sort's map lists the elements in carrier order; `phl hom` prints these maps
as they are.

Existence (`hom_exists`, `HomPlan.maps_to`) gives no witness.  The variable
with the smallest domain goes next, so forced values go first, and since a
homomorphism exists iff each connected component of the source maps, each
component is searched on its own.

The module functions build two plans per call.  A caller that searches many
pairs keeps one plan per structure instead (a family, a chain, a universe).
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
    return HomPlan(X).homs(HomPlan(Y), injective, restrict)


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
    """One structure's search tables, each built on first use and kept, so
    a family, a chain or a universe builds them once per member.

    Elements are numbered by their position in the list of all elements
    (sorts as declared, carrier order within a sort), and each symbol's
    tuples are kept as such numbers.  As a source the plan holds its
    constraints grouped by symbol and argument pattern, and the connected
    components of its constraint graph; its elements are the variables.  As
    a target it holds, per symbol and argument pattern, the support of each
    position as int bitsets, built only for the patterns some source asks
    for.  The structure must not change while its plan is in use.
    """

    def __init__(self, X: PartialStructure):
        self.structure = X
        self._elements = []  # element number -> element
        self._numbers = {}  # sort -> {element: number}
        self._masks = {}  # sort -> bitset of its element numbers
        for s in X.theory.signature.sorts:
            carrier, start = X.carrier(s), len(self._elements)
            self._numbers[s] = dict(zip(carrier, range(start, start + len(carrier))))
            self._masks[s] = ((1 << len(carrier)) - 1) << start
            self._elements += carrier
        self._rows = {}  # (symbol, is_function) -> _encoded's list
        self._source = None
        self._supports = {}  # (symbol, is_function, pattern) -> _support's triple

    def _encoded(self, name: str, is_function: bool) -> list:
        """One symbol's tuples as element numbers; a function gives the
        tuples (args..., value) of its graph."""
        got = self._rows.get((name, is_function))
        if got is None:
            X = self.structure
            sig = X.theory.signature
            if is_function:
                argsorts, result = sig.functions[name]
                numbers = list(map(self._numbers.__getitem__, argsorts + (result,)))
                tuples = [args + (val,) for args, val in X.functions.get(name, {}).items()]
            else:
                numbers = list(map(self._numbers.__getitem__, sig.relations[name]))
                tuples = X.relations.get(name, ())
            got = self._rows[name, is_function] = [
                tuple(map(dict.__getitem__, numbers, t)) for t in tuples]
        return got

    def _source_tables(self) -> tuple:
        """(variable sorts, constraint keys, scopes per key, links,
        components).  A key is (symbol, is_function, pattern): the pattern
        numbers each position by the first position of its variable among the
        distinct ones, or is None when the variables are all distinct.  A
        scope is the tuple of distinct variables of one entry or tuple.
        links[v] lists (scope, key number) for the scopes of two or more
        variables that hold v.  Components of one variable are left out: the
        initial domains settle them."""
        sig = self.structure.theory.signature
        number, scopes, links = {}, [], [[] for _ in self._elements]
        symbols = [(f, True) for f in sig.functions] + [(r, False) for r in sig.relations]
        for name, is_function in symbols:
            for scope in self._encoded(name, is_function):
                pattern = None
                if len(set(scope)) < len(scope):
                    vs, scope = scope, tuple(dict.fromkeys(scope))
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
        sorts = [s for s, numbers in self._numbers.items() for _ in numbers]
        self._source = (sorts, list(number), scopes, links, comps)
        return self._source

    def _support(self, key: tuple) -> tuple:
        """(projections, supports, inhabited) of one symbol under one
        argument pattern: projections[k] is the bitset of values position k
        takes in the target tuples that fit the pattern; supports[k] maps
        the values of the other positions to the bitset of values position k
        may take; inhabited says whether any tuple fits."""
        name, is_function, pattern = key
        rows = self._encoded(name, is_function)
        if pattern is not None:  # keep the tuples that repeat as the pattern does
            first = [pattern.index(k) for k in range(max(pattern) + 1)]
            rows = [tuple(map(t.__getitem__, first)) for t in rows
                    if all(t[i] == t[first[k]] for i, k in enumerate(pattern))]
        projections, supports = [], []
        for k in range(len(rows[0]) if rows else 0):
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

    def _domains(self, other: "HomPlan", restrict: Optional[dict] = None) -> tuple:
        """(initial domains, supports per key number) for a search into
        other, or None when some domain is empty or some symbol has no
        target tuple to go to."""
        sorts, keys, scopes, _, _ = self._source or self._source_tables()
        dom = list(map(other._masks.__getitem__, sorts))
        for (s, a), labels in restrict.items() if restrict else ():
            v = self._numbers.get(s, {}).get(a)
            if v is None:
                continue  # not an element of the source
            targets, mask = other._numbers[s], 0
            for b in labels:
                if b not in targets:
                    raise ValidationError(f"restrict sends element {a!r} of sort {s!r} "
                                          f"to {b!r}, which is not in the target carrier")
                mask |= 1 << targets[b]
            dom[v] &= mask
        supports = []  # per key number
        known = other._supports
        for key, key_scopes in zip(keys, scopes):
            projections, sup, inhabited = known.get(key) or other._support(key)
            if not inhabited:
                return None
            supports.append(sup)
            for scope in key_scopes:
                for k, v in enumerate(scope):
                    dom[v] &= projections[k]
        return (dom, supports) if all(dom) else None

    def maps_to(self, other: "HomPlan") -> bool:
        """Whether some homomorphism runs from this plan's structure to
        other's."""
        if self.structure.theory.name != other.structure.theory.name:
            return False
        got = self._domains(other)
        if got is None:
            return False
        dom, supports = got
        links, comps = self._source[3:]
        value = [None] * len(dom)
        # unordered, a search yields at most once
        return all(list(_search(comp, False, dom, value, links, supports)) for comp in comps)

    def homs(self, other: "HomPlan", injective: bool = False,
             restrict: Optional[dict] = None) -> Iterator[Homomorphism]:
        """Every homomorphism from this plan's structure to other's (each
        one-to-one on every sort, if `injective`), in lexicographic order of
        the source elements over target carrier order.  `restrict` maps
        (sort, element) to the target elements the element may go to."""
        X, Y = self.structure, other.structure
        if X.theory.name != Y.theory.name:
            return
        got = self._domains(other, restrict)
        if got is None:
            return
        dom, supports = got
        links = self._source[3]
        if injective:  # one more constraint per two elements of a sort: they differ
            links = [list(held) for held in links]
            for s, numbers in self._numbers.items():
                differ = {(x,): other._masks[s] ^ (1 << x) for x in other._numbers[s].values()}
                link = len(supports)
                supports.append((differ, differ))
                for scope in itertools.combinations(numbers.values(), 2):
                    for v in scope:
                        links[v].append((scope, link))
        image = other._elements
        for value in _search(range(len(dom)), True, dom, [None] * len(dom), links, supports):
            yield Homomorphism(X, Y, {s: {a: image[value[v]] for a, v in numbers.items()}
                                      for s, numbers in self._numbers.items()})


def _search(todo, ordered: bool, dom: list, value: list, links: list,
            supports: list) -> Iterator[list]:
    """Backtracking with forward checking over the variables in `todo`,
    yielding `value` at each full assignment.  Ordered, the variables go in
    the order of `todo` and every full assignment is yielded; otherwise the
    smallest domain goes next and the search stops at the first.  Values go
    in ascending position.  Narrows `dom` in place and restores it on every
    retreat."""
    free = None if ordered else set(todo)
    trail = []  # (variable, domain before a narrowing)
    stack = []  # per variable chosen: [variable, values left, trail mark]
    last = len(todo)
    while True:
        depth = len(stack)
        if depth == last:
            yield value
            if not ordered:
                return
        else:
            if ordered:
                v = todo[depth]
            else:
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
                if free is not None:
                    free.add(v)
                stack.pop()
                continue
            break
        else:
            return


def fibers(p: Homomorphism) -> dict:
    """(sort, target element) -> the source elements p sends there."""
    X, Y = p.source, p.target
    return {(s, b): tuple(a for a in X.carrier(s) if p.maps[s][a] == b)
            for s in X.theory.signature.sorts for b in Y.carrier(s)}


def find_section(p: Homomorphism) -> Optional[Homomorphism]:
    """Section of p: a homomorphism s with p . s = id on p's target."""
    return find_hom(p.target, p.source, restrict=fibers(p))


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
    probe map without one.  A probe is a structure or its HomPlan, so a
    family kept as plans (ModelUniverse.plan) builds no tables per call.  A
    universe decides this for its own members as probes by section search
    instead (ModelUniverse.locret).
    """
    probes = [G if isinstance(G, HomPlan) else HomPlan(G) for G in probes]
    plans = {id(P.structure): P for P in probes}
    source = plans.get(id(p.source)) or HomPlan(p.source)
    target = plans.get(id(p.target)) or HomPlan(p.target)
    over = fibers(p)
    maps_checked = 0
    for probe in probes:
        for f in probe.homs(target):
            maps_checked += 1
            restrict = {(s, c): over[s, b] for s, m in f.maps.items() for c, b in m.items()}
            if next(probe.homs(source, restrict=restrict), None) is None:
                return LocalRetractionReport("failed", maps_checked, probe.structure, f)
    return LocalRetractionReport("passed-up-to-probes", maps_checked, None, None)


def passes_probes(p: Homomorphism, probes: list) -> bool:
    return local_retraction_check(p, probes).verdict == "passed-up-to-probes"
