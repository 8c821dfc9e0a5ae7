import itertools
import os

import pytest

from phl.closure import (
    class_of,
    closure_Hloc,
    closure_P,
    closure_Sc,
    check_theory_morphism_bounded,
    definable_class,
    embeds_in_product,
    enumerate_models,
    hsp_closure,
    load_universe,
    operator_law_report,
    product_embedding_closure,
    save_universe,
    surjective_image_closure,
    universe_cache_path,
    ModelClass,
)
from phl.corpus import get_morphism, get_theory, theory_names
from phl.parser import parse_sequents
from phl.structures import (
    PartialStructure,
    interpreted_witness,
    is_isomorphic,
    structure_size,
)
from phl.syntax import BudgetError


# ---------------------------------------------------------------------------
# an independent oracle: generate every table outright, filter with the
# reference interpreter, and deduplicate by explicit permutation search.  No
# staging, no pruning, no canonical forms and no compiled checks; slow on
# purpose so it shares nothing with the real enumerator beyond the definition
# of satisfaction.


def naive_labeled_models(theory, k):
    sig = theory.signature
    out = []
    for sizes in itertools.product(range(k + 1), repeat=len(sig.sorts)):
        carriers = {s: tuple(str(x) for x in range(n))
                    for s, n in zip(sig.sorts, sizes)}
        fn_slots = []
        for f, (argsorts, result) in sig.functions.items():
            argspace = list(itertools.product(*(carriers[s] for s in argsorts)))
            choices = (None,) + carriers[result]
            fn_slots.append((f, argspace, choices))
        rel_slots = []
        for r, argsorts in sig.relations.items():
            tuplespace = list(itertools.product(*(carriers[s] for s in argsorts)))
            rel_slots.append((r, tuplespace))
        fn_iters = [itertools.product(ch, repeat=len(sp)) for _, sp, ch in fn_slots]
        rel_iters = [itertools.product((False, True), repeat=len(sp))
                     for _, sp in rel_slots]
        for combo in itertools.product(*fn_iters, *rel_iters):
            fns = {}
            for (f, argspace, _), values in zip(fn_slots, combo):
                fns[f] = {a: v for a, v in zip(argspace, values) if v is not None}
            rels = {}
            for (r, tuplespace), flags in zip(rel_slots, combo[len(fn_slots):]):
                rels[r] = {t for t, fl in zip(tuplespace, flags) if fl}
            X = PartialStructure(theory, carriers, fns, rels)
            if all(interpreted_witness(X, seq) is None for seq in theory.axioms):
                out.append(X)
    return out


def perm_isomorphic(X, Y):
    sorts = X.theory.signature.sorts
    if any(len(X.carrier(s)) != len(Y.carrier(s)) for s in sorts):
        return False
    perm_lists = [
        [dict(zip(X.carrier(s), p))
         for p in itertools.permutations(Y.carrier(s))]
        for s in sorts
    ]
    for combo in itertools.product(*perm_lists):
        m = dict(zip(sorts, combo))
        ok = True
        for f, table in X.functions.items():
            argsorts, result = X.theory.signature.functions[f]
            ytable = Y.functions.get(f, {})
            if len(table) != len(ytable):
                ok = False
                break
            for args, v in table.items():
                image = tuple(m[s][a] for s, a in zip(argsorts, args))
                if ytable.get(image) != m[result][v]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            for r, tuples in X.relations.items():
                argsorts = X.theory.signature.relations[r]
                ytuples = Y.relations.get(r, set())
                mapped = {tuple(m[s][a] for s, a in zip(argsorts, t))
                          for t in tuples}
                if mapped != ytuples:
                    ok = False
                    break
        if ok:
            return True
    return False


def profile(X):
    """Sizes that isomorphic structures share: carriers, tables, relations."""
    sig = X.theory.signature
    return (
        tuple(len(X.carrier(s)) for s in sig.sorts),
        tuple(len(X.functions.get(f, {})) for f in sig.functions),
        tuple(len(X.relations.get(r, set())) for r in sig.relations),
    )


def naive_iso_classes(labeled):
    """The first labelled model of each isomorphism class, in the order
    naive_labeled_models walks them."""
    buckets = {}
    for X in labeled:
        buckets.setdefault(profile(X), []).append(X)
    reps = []
    for group in buckets.values():
        kept = []
        for X in group:
            if not any(perm_isomorphic(X, R) for R in kept):
                kept.append(X)
        reps.extend(kept)
    return reps


_NAIVE_AT_TWO = {}


def naive_models_at_two(name):
    """Oracle representatives of a corpus theory at bound 2, computed once
    per session and shared with acceptance criterion 8."""
    if name not in _NAIVE_AT_TWO:
        _NAIVE_AT_TWO[name] = naive_iso_classes(naive_labeled_models(get_theory(name), 2))
    return _NAIVE_AT_TWO[name]


def test_enumeration_agrees_with_naive_oracle_everywhere():
    """Criterion: the enumerator and the oracle agree at bound 2 on the whole
    corpus, and both keep the same representative of every class.

    Both walk labelled structures in the same lexicographic order (carrier
    sizes, then function tables, then relations, each table in argument
    order), so each member must equal, table for table, the first labelled
    model of its class that the oracle meets."""
    for name in theory_names():
        th = get_theory(name)
        expected = naive_models_at_two(name)
        U = enumerate_models(th, 2)
        assert len(U.members) == len(expected), name
        # and the members really are pairwise non-isomorphic
        for i, X in enumerate(U.members):
            for Y in U.members[i + 1:]:
                assert not perm_isomorphic(X, Y), name
        reps = {}
        for R in expected:
            reps.setdefault(profile(R), []).append(R)
        for X in U.members:
            (R,) = [R for R in reps.get(profile(X), []) if perm_isomorphic(X, R)]
            assert (X.carriers, X.functions, X.relations) == \
                (R.carriers, R.functions, R.relations), (name, X.name)


def test_enumeration_budget_error_says_where_it_stopped():
    with pytest.raises(BudgetError) as err:
        enumerate_models(get_theory("pos"), 3, visit_budget=10)
    message = str(err.value)
    assert message.startswith("model enumeration of 'pos' at k=3")
    assert "stopped after 10 search nodes" in message
    assert "carrier sizes el:2" in message
    assert message.endswith("assigning the cell leq(1, 1)")


def test_pos_universe_at_bound_two_is_the_expected_quadruple():
    U = enumerate_models(get_theory("pos"), 2)
    assert len(U.members) == 4
    sizes = [structure_size(X) for X in U.members]
    assert sizes == [0, 1, 2, 2]
    two_element = [X for X in U.members if structure_size(X) == 2]
    rels = sorted(len(X.relations["leq"]) for X in two_element)
    assert rels == [2, 3]  # discrete pair and the 2-chain


def test_universe_cache_round_trip(tmp_path):
    th = get_theory("urel")
    U = enumerate_models(th, 2, cache_dir=str(tmp_path))
    U2 = load_universe(th, 2, str(tmp_path))
    assert U2 is not None
    assert U2.keys == U.keys
    assert [X.name for X in U2.members] == [X.name for X in U.members]
    # a second enumerate call hits the cache and yields the same universe
    U3 = enumerate_models(th, 2, cache_dir=str(tmp_path))
    assert U3.keys == U.keys
    # the write went through a temporary file that is gone now
    path = universe_cache_path(th, 2, str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]


def _damage_and_reload(tmp_path, capsys, damage):
    """Cache pos at k=2, damage the file, and check the next enumeration
    warns, enumerates again and rewrites a file that loads cleanly."""
    th = get_theory("pos")
    U = enumerate_models(th, 2, cache_dir=str(tmp_path))
    path = universe_cache_path(th, 2, str(tmp_path))
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    assert len(lines) == 5  # the header and 4 members
    with open(path, "w") as fh:
        fh.write(damage(lines))
    capsys.readouterr()
    assert load_universe(th, 2, str(tmp_path)) is None
    again = enumerate_models(th, 2, cache_dir=str(tmp_path))
    err = capsys.readouterr().err
    assert err.count(f"warning: ignoring universe cache {path}") == 2
    assert again.keys == U.keys
    reloaded = load_universe(th, 2, str(tmp_path))
    assert reloaded is not None and reloaded.keys == U.keys
    assert capsys.readouterr().err == ""
    return err


def test_universe_cache_missing_rows_is_a_miss(tmp_path, capsys):
    err = _damage_and_reload(tmp_path, capsys, lambda lines: "".join(lines[:3]))
    assert "the header counts 4 members but 2 rows follow" in err


def test_universe_cache_truncated_line_is_a_miss(tmp_path, capsys):
    err = _damage_and_reload(tmp_path, capsys,
                             lambda lines: "".join(lines[:-1]) + lines[-1][:20])
    assert "line 5 is not valid JSON" in err


def test_closure_p_of_empty_class_is_terminal():
    U = enumerate_models(get_theory("set"), 3)
    empty = ModelClass(U, frozenset())
    out = closure_P(empty)
    assert len(out.indices) == 1
    (i,) = out.indices
    assert structure_size(U.members[i]) == 1


def test_closure_p_on_two_chain():
    U = enumerate_models(get_theory("pos"), 4)
    two = [i for i, X in enumerate(U.members)
           if structure_size(X) == 2 and len(X.relations["leq"]) == 3]
    mc = ModelClass(U, frozenset(two))
    out = closure_P(mc)
    sizes = sorted(structure_size(U.members[i]) for i in out.indices)
    assert sizes == [1, 2, 4]  # terminal, the chain, its square


def test_missing_bounded_product_fails_loudly():
    """A bounded product whose key is not in the index is a broken universe,
    reported by name rather than added to the class as None."""
    U = enumerate_models(get_theory("urel"), 2)
    by_profile = {(structure_size(X), len(X.relations["mark"])): i
                  for i, X in enumerate(U.members)}
    plain_pt, marked_pair = by_profile[(1, 0)], by_profile[(2, 1)]
    del U.index[U.keys[by_profile[(2, 0)]]]  # their product, a plain pair
    with pytest.raises(ValueError) as exc:
        closure_P(ModelClass(U, frozenset([plain_pt, marked_pair])))
    assert (f"{U.members[plain_pt].name} x {U.members[marked_pair].name}"
            in str(exc.value))


_OPERATORS = (closure_P, closure_Sc, closure_Hloc, surjective_image_closure,
              product_embedding_closure)


def _every_class(U):
    n = len(U.members)
    for mask in range(1 << n):
        yield frozenset(i for i in range(n) if mask >> i & 1)


def test_shared_universe_memo_leaks_nothing_between_classes():
    """Every operator on every class of urel k=2 gives the same result on one
    universe reused for all classes as on a freshly enumerated one."""
    theory = get_theory("urel")
    shared = enumerate_models(theory, 2)
    assert len(shared.members) == 6
    for idx in _every_class(shared):
        fresh = enumerate_models(theory, 2)
        for op in _OPERATORS:
            assert (op(ModelClass(shared, idx)).indices
                    == op(ModelClass(fresh, idx)).indices), (op.__name__, sorted(idx))


def test_shared_universe_memo_keeps_rho_apart():
    """Local retraction closures with and without a theory morphism,
    alternating on one universe, match fresh universes; the morphism changes
    the closure of 4 of the 16 classes of pos k=2."""
    theory = get_theory("pos")
    rho = get_morphism("pos-underlying")
    shared = enumerate_models(theory, 2)
    assert len(shared.members) == 4
    differ = 0
    for idx in _every_class(shared):
        plain = closure_Hloc(ModelClass(shared, idx))
        along = closure_Hloc(ModelClass(shared, idx), rho)
        assert plain.indices == closure_Hloc(
            ModelClass(enumerate_models(theory, 2), idx)).indices
        assert along.indices == closure_Hloc(
            ModelClass(enumerate_models(theory, 2), idx), rho).indices
        differ += plain.indices != along.indices
    assert differ == 4


def test_closure_sc_adds_only_induced_substructures():
    U = enumerate_models(get_theory("pos"), 2)
    chain2 = [i for i, X in enumerate(U.members)
              if structure_size(X) == 2 and len(X.relations["leq"]) == 3]
    out = closure_Sc(ModelClass(U, frozenset(chain2)))
    got = {structure_size(U.members[i]) for i in out.indices}
    assert got == {0, 1, 2}
    # the discrete pair is not an induced sub of the chain
    discrete = [i for i, X in enumerate(U.members)
                if structure_size(X) == 2 and len(X.relations["leq"]) == 2]
    assert not set(discrete) & out.indices


def test_closure_hloc_adds_quotients_not_empty():
    U = enumerate_models(get_theory("set"), 2)
    two = [i for i, X in enumerate(U.members) if structure_size(X) == 2]
    out = closure_Hloc(ModelClass(U, frozenset(two)))
    got = sorted(structure_size(U.members[i]) for i in out.indices)
    assert got == [1, 2]  # the collapse is a retraction; nothing maps to empty


def test_embeds_in_product_sees_overbound_parents():
    """A closed sub of a product can be found even when the product itself
    exceeds the universe bound."""
    U = enumerate_models(get_theory("urel"), 2)
    by_profile = {}
    for i, X in enumerate(U.members):
        by_profile[(structure_size(X), len(X.relations["mark"]))] = i
    marked_pair = by_profile[(2, 1)]   # one marked, one plain point
    plain_pt = by_profile[(1, 0)]
    plain_pair = by_profile[(2, 0)]
    # two plain points embed closedly into (marked pair) x (plain point),
    # a 2-element slice of the 4-element square that the bound excludes
    assert embeds_in_product(U, plain_pair, [marked_pair, plain_pt])
    grown = product_embedding_closure(ModelClass(U, frozenset([marked_pair])))
    assert plain_pair in grown.indices
    # the marked point is the terminal, hence a closed sub of the empty
    # product over any family at all
    marked_pt = by_profile[(1, 1)]
    assert embeds_in_product(U, marked_pt, [])
    # a two-element structure cannot separate inside the terminal alone
    assert not embeds_in_product(U, marked_pair, [])
    # and no hom reaches a plain point from the marked pair's mark, so the
    # separating family is empty and the pair cannot embed
    assert not embeds_in_product(U, marked_pair, [plain_pt])


def test_hsp_closure_is_a_fixpoint_on_the_formerly_missed_class():
    U = enumerate_models(get_theory("urel"), 2)
    by_profile = {(structure_size(X), len(X.relations["mark"])): i
                  for i, X in enumerate(U.members)}
    start = ModelClass(U, frozenset([by_profile[(2, 1)]]))
    res = hsp_closure(start)
    assert res.fixpoint, res.growth
    assert len(res.model_class.indices) == 5
    naive = closure_Sc(closure_P(start))
    assert naive.indices < res.model_class.indices  # the missed closed sub


def test_surjective_image_closure_is_coarser_than_hloc_on_nset():
    U = enumerate_models(get_theory("nset-3"), 2)
    merged = [i for i, X in enumerate(U.members)
              if structure_size(X) == 1]
    distinct = [i for i, X in enumerate(U.members)
                if structure_size(X) == 2
                and len({X.functions[c][()] for c in ("c0", "c1", "c2")}) == 2]
    assert merged and distinct
    start = ModelClass(U, frozenset(distinct))
    surj = surjective_image_closure(start)
    loc = closure_Hloc(start)
    assert set(merged) & surj.indices
    assert not set(merged) & loc.indices


def test_law_report_is_clean_on_sets():
    U = enumerate_models(get_theory("set"), 2)
    rep = operator_law_report(U, seed=20250814)
    assert rep.violations == 0
    rows = {r[0] for r in rep.rows}
    assert "P.Sc <= Sc.P" in rows and "hsp idempotent" in rows


def test_definable_class_and_fixpoint():
    U = enumerate_models(get_theory("pos"), 2)
    sym = parse_sequents("[x : el, y : el] leq(x, y) |- leq(y, x);",
                         U.theory.signature)[0]
    E = definable_class(U, [sym])
    # symmetric posets are discrete ones
    assert all(
        all(a == b for a, b in U.members[i].relations["leq"])
        for i in E.indices
    )
    res = hsp_closure(E)
    assert res.fixpoint
    assert res.model_class.indices == E.indices


def test_morphism_checks():
    ok = check_theory_morphism_bounded(get_morphism("pos-id"), 2)
    assert ok.kind == "no-counterexample"
    bad = check_theory_morphism_bounded(get_morphism("pos-to-brel"), 2)
    assert bad.kind == "countermodel"
    assert structure_size(bad.structure) == 1
    assert bad.witness is not None
