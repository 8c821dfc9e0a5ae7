"""The search behind `structures.canonical_key`: a least relabeling.

`canonical_key` documents the cell vector that a relabeling gives a
structure and why its order is the order of the key strings; this module
finds, per sort, an order of the elements whose cell vector is least, by
branch and bound.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .structures import PartialStructure


def least_relabeling(X: PartialStructure) -> dict:
    """Per sort, the elements in label order under a relabeling whose cell
    vector is least."""
    sig = X.theory.signature
    carriers = {s: X.carrier(s) for s in sig.sorts}
    tables = [(argsorts, result, X.functions.get(f, {}))
              for f, (argsorts, result) in sig.functions.items()]
    tables += [(argsorts, None, X.relations.get(r, set()))
               for r, argsorts in sig.relations.items()]
    slots_of, sort_of = {}, []  # label l of sort s is in slot slots_of[s][l]
    for s in sig.sorts:
        slots_of[s] = range(len(sort_of), len(sort_of) + len(carriers[s]))
        sort_of += [s] * len(carriers[s])
    cells = []  # (argument slots, slots first seen here, result sort, table)
    seen = set()
    for argsorts, result, table in tables:
        for slots in itertools.product(*(slots_of[s] for s in argsorts)):
            fresh = () if seen.issuperset(slots) else [v for v in slots if v not in seen]
            seen.update(fresh)
            cells.append((slots, fresh, result, table))
    twins = _twin_classes(carriers, tables)
    undefined = len(sort_of)  # ranks after every label
    free = object()
    at = [free] * len(sort_of)  # slot -> element
    label_of = {s: {} for s in sig.sorts}
    trail = []  # sorts in the order labels were given
    vec = [0] * len(cells)
    best = best_at = None

    def give(s, a):
        at[slots_of[s][len(label_of[s])]] = a
        label_of[s][a] = len(label_of[s])
        trail.append(s)

    def take_back(mark):
        while len(trail) > mark:
            s = trail.pop()
            slot = slots_of[s][len(label_of[s]) - 1]
            del label_of[s][at[slot]]
            at[slot] = free

    def walk(c, below):
        """Extend the labeling from cell c on; `below` is whether the cells
        before c are already less than best's."""
        nonlocal best, best_at
        while c < len(cells):
            slots, fresh, result, table = cells[c]
            unlabeled = [v for v in fresh if at[v] is free] if fresh else None
            if unlabeled:  # branch on who takes the next label of its sort
                s = sort_of[unlabeled[0]]
                choices = {}  # one unlabeled element per twin class
                for a in carriers[s]:
                    if a not in label_of[s]:
                        choices.setdefault(twins[s][a], a)
                if len(choices) == 1:
                    give(s, *choices.values())
                    continue
                mark = len(trail)
                for a in choices.values():
                    before = best
                    give(s, a)
                    walk(c, below)
                    take_back(mark)
                    if best is not before:  # the new best shares this prefix
                        below = False
                return
            args = tuple(map(at.__getitem__, slots))
            if result is None:
                rank = 0 if args in table else 1
            elif args not in table:
                rank = undefined
            else:
                value = table[args]
                rank = label_of[result].get(value)
                if rank is None:
                    rank = len(label_of[result])
                    give(result, value)
            if not below:
                if rank > best[c]:
                    return
                below = rank < best[c]
            vec[c] = rank
            c += 1
        if below:
            best, best_at = list(vec), list(at)

    walk(0, True)
    order = {}
    for s in sig.sorts:
        labeled = [best_at[v] for v in slots_of[s] if best_at[v] is not free]
        order[s] = labeled + [a for a in carriers[s] if a not in labeled]
    return order


def _twin_classes(carriers: dict, tables: list) -> dict:
    """Per sort, each element's twin class, named by the first element of
    the carrier that the element can be swapped with by an automorphism."""

    def swap_is_automorphism(s, y, z):
        swap = {y: z, z: y}
        for argsorts, result, table in tables:
            if s not in argsorts and result != s:
                continue
            for args in table:
                image = args
                if y in args or z in args:  # perhaps as a label of another sort
                    image = tuple(swap.get(a, a) if t == s else a for t, a in zip(argsorts, args))
                if image not in table:
                    return False
                if result is not None:
                    value = table[args]
                    if table[image] != (swap.get(value, value) if result == s else value):
                        return False
        return True

    classes = {}
    for s, carrier in carriers.items():
        cls = classes[s] = {}
        reps = []
        for a in carrier:
            cls[a] = next((r for r in reps if swap_is_automorphism(s, r, a)), a)
            if cls[a] == a:
                reps.append(a)
    return classes
