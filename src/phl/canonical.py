"""The search behind `structures.canonical_key`: a least relabeling.

`canonical_key` documents the cell vector of a relabeling and why its order
is the order of the key strings.  This module finds, per sort, an order of
the elements whose vector is least, by individualization and refinement of
an ordered partition (McKay and Piperno, J. Symb. Comput. 60, 2014).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .structures import PartialStructure


def least_relabeling(X: PartialStructure) -> dict:
    """Per sort, the elements in label order under a relabeling whose cell
    vector is least.

    Each sort is an ordered partition: blocks of elements holding contiguous
    label ranges.  The cells are read in runs: one symbol, fixed labels for
    every argument but the last, and the last going over its sort.  A fixed
    label must be held by one element, so where its block holds more the
    search branches on who takes it.  The last argument goes over its sort's
    blocks in order.  Where every cell's rank over a block is known (a
    relation cell, an undefined entry, or a value alone in its block), the
    block is sorted by rank into sub-blocks, ties kept together; otherwise
    the search branches on who takes the block's first label.  A value whose
    block holds more elements takes that block's first label.  Each segment
    is compared with the least vector so far, and the branch is cut once it
    is larger; at the end the blocks are flattened.

    This is exact because no cell read so far tells apart the elements of a
    block, so any order within a block gives the same vector prefix.  A
    value can take no label below its block's first, and within a run only
    the sorted order of a block is least.  Twins, elements of one sort whose
    swap is an automorphism, lead to the same vectors, so a branch tries one
    element of a block per twin class.
    """
    sig = X.theory.signature
    carriers = {s: X.carrier(s) for s in sig.sorts}
    tables = [(sorts, is_function, set(X.rows(name, is_function)))
              for name, sorts, is_function in sig.symbols()]
    twins = _twin_classes(carriers, tables)
    # Elements are numbered by their first slot; slot `lone` holds one more
    # element, alone in its block: the argument of a nullary symbol and the
    # value of a relation tuple, ranked before `undefined` (an absent cell).
    slots_of, ids, elements, twin = {}, {}, [], []
    for s in sig.sorts:
        slots_of[s] = range(len(elements), len(elements) + len(carriers[s]))
        ids[s] = dict(zip(carriers[s], slots_of[s]))
        elements += carriers[s]
        twin += [ids[s][twins[s][a]] for a in carriers[s]]
    lone, undefined = len(elements), len(elements) + 1
    at = list(range(lone + 1))  # slot -> element
    pos = list(at)  # element -> slot
    cut = [False] * (lone + 2)  # does a block start at this slot?
    for slots in slots_of.values():
        cut[slots.start] = True
    cut[lone] = cut[undefined] = True
    runs = []  # (argument slots but the last, last argument slots, rows, first cell)
    cells = 0
    for sorts, is_function, table in tables:
        argsorts = sorts[:-1] if is_function else sorts
        rows = {}  # argument elements but the last -> {last: value}
        numbers, arity = [ids[s] for s in sorts], len(argsorts)
        for row in table:
            key = tuple(map(dict.__getitem__, numbers, row))
            args = key[:arity] or (lone,)
            rows.setdefault(args[:-1], {})[args[-1]] = key[-1] if is_function else lone
        *heads, last = [slots_of[s] for s in argsorts] or [range(lone, undefined)]
        for prefix in itertools.product(*heads):
            runs.append((prefix, last, rows, cells - last.start))
            cells += len(last)
    vec = [0] * cells
    best = best_at = None

    def descend(r, p, below):
        """Extend the partition from slot p of run r on; `below` is whether
        the cells before are already less than best's."""
        nonlocal best, best_at
        while r < len(runs):
            prefix, last, rows, base = runs[r]
            for q in prefix:
                if not cut[q + 1]:
                    return split(r, p, q, below)
            row = rows.get(tuple(map(at.__getitem__, prefix)), {})
            while p < last.stop:
                e = cut.index(True, p + 1)
                ranks = []
                for a in at[p:e]:
                    v = row.get(a)
                    if v is None:
                        ranks.append(undefined)
                        continue
                    q = pos[v]
                    if cut[q] and cut[q + 1]:
                        ranks.append(q)
                    elif e - p > 1:
                        return split(r, p, p, below)
                    else:  # the value takes the first label of its block
                        b = q - cut[q::-1].index(True)
                        w = at[b]
                        at[b], at[q], pos[v], pos[w] = v, w, b, q
                        cut[b + 1] = True
                        ranks.append(b)
                if e - p > 1:  # sort the block by rank; tied elements stay one block
                    pairs = sorted(zip(ranks, at[p:e]))
                    for i, (rank, a) in enumerate(pairs):
                        at[p + i], pos[a], ranks[i] = a, p + i, rank
                        if i and rank != pairs[i - 1][0]:
                            cut[p + i] = True
                c = base + p
                if not below:
                    least = best[c:c + e - p]
                    if ranks > least:
                        return
                    below = ranks < least
                vec[c:c + e - p] = ranks
                p = e
            r += 1
            p = runs[r][1].start if r < len(runs) else 0
        if below:
            best, best_at = list(vec), list(at)

    def split(r, p, q, below):
        """Branch on who takes slot q, the first of its block."""
        nonlocal best
        choices = {}  # one element per twin class
        for a in at[q:cut.index(True, q + 1)]:
            choices.setdefault(twin[a], a)
        cut[q + 1] = True
        saved = at[:], pos[:], cut[:]
        for a in choices.values():
            before = best
            i, b = pos[a], at[q]
            at[q], at[i], pos[a], pos[b] = a, b, q, i
            descend(r, p, below)
            at[:], pos[:], cut[:] = saved
            if best is not before:  # the new best shares this prefix
                below = False

    descend(0, runs[0][1].start if runs else 0, True)
    return {s: [elements[best_at[v]] for v in slots_of[s]] for s in sig.sorts}


def _twin_classes(carriers: dict, tables: list) -> dict:
    """Per sort, each element's twin class, named by the first element of
    the carrier that the element can be swapped with by an automorphism: one
    that sends every row of every table to a row."""

    def swap_is_automorphism(s, y, z):
        swap = {y: z, z: y}
        for sorts, _, rows in tables:
            if s not in sorts:
                continue
            for row in rows:
                if (y in row or z in row) and tuple(  # perhaps as a label of another sort
                        swap.get(a, a) if t == s else a for t, a in zip(sorts, row)) not in rows:
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
