import gc
import hashlib
import itertools
import json
import math
import os
import random
import weakref

import pytest

from phl import closure
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
    universe_cache_file,
    ModelClass,
    ModelUniverse,
)
from phl.corpus import get_morphism, get_theory, theory_names
from phl.homsearch import enumerate_homs, iter_homs, passes_probes
from phl.parser import parse_sequents, parse_theory
from phl.report import RunContext, run_targets
from phl.structures import (
    Homomorphism,
    PartialStructure,
    canonical_key,
    hom_violation,
    interpreted_witness,
    is_surjective,
    jointly_closed_mono,
    product,
    reduct,
    reduct_hom,
    structure_size,
    structure_to_json,
)
from phl.syntax import BudgetError, TheoryMorphism


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


def test_enumeration_budget_error_says_where_it_stopped(monkeypatch):
    monkeypatch.setattr(closure, "VISIT_BUDGET", 10)
    with pytest.raises(BudgetError) as err:
        enumerate_models(get_theory("pos"), 3)
    message = str(err.value)
    assert message.startswith("model enumeration of 'pos' at k=3")
    assert "stopped after 10 search nodes" in message
    assert "carrier sizes el:2" in message
    assert message.endswith("assigning the cell leq(1, 1)")


def test_enumeration_relabeling_budget_error_says_where_it_stopped(monkeypatch):
    monkeypatch.setattr(closure, "RELABEL_BUDGET", 5)
    with pytest.raises(BudgetError) as err:
        enumerate_models(get_theory("pos"), 3)
    message = str(err.value)
    assert message.startswith("model enumeration of 'pos' at k=3")
    assert "complete structure with carrier sizes el:3" in message
    assert message.endswith("takes 6 relabelings, over the canonical key budget of 5")


@pytest.mark.parametrize("name,k,members", [("pos", 4, 25), ("chaincov-3", 3, 100)])
def test_enumeration_keys_each_member_once(monkeypatch, name, k, members):
    """The orderly search reaches one complete structure per isomorphism
    class; deduplicating by key instead took 243 keys for pos at k=4 and
    1,678 for chaincov-3 at k=3."""
    calls = []
    monkeypatch.setattr(closure, "canonical_key",
                        lambda X: calls.append(X) or canonical_key(X))
    U = enumerate_models(get_theory(name), k)
    assert len(U.members) == members
    assert len(calls) == members


# sha256 of json.dumps([keys, [structure_to_json(X) ...]], sort_keys=True) for
# universes enumerated by the search that deduplicated every complete
# structure by canonical key, before the orderly search replaced it
UNIVERSE_DIGESTS = {
    ("brel", 3): "06108a47a2dd96356b65f0ebefca794f6f426c908a0ce0af1c7b6fa69c3bd7a7",
    ("erel", 3): "b2dce22c771ee2e81fc5947ae66f674e4573d81e4b6ed7f37c10b057d4a7caf5",
    ("erel", 4): "ade90477140839d678b97040f5c31e4cc96aa26d46f54aaf60942d14c03ab6d7",
    ("group", 3): "4adedec6052dc165b0c8f2c7796dbe1eabf428be42df0ce5f504fe5e216c6860",
    ("nset-3", 3): "16b278b25a5d6f962db822df6c64da1fd57805a7ef3066b50c11cc372afab0dc",
    ("nset-4", 4): "71febee830a06b236fc6e6bd2123fafeb1f3e540537385d07535bdded2a63664",
    ("pos", 3): "aa4d532846f02ec9362c3ad97f24f238519df233a36ca4f961490ea494fceb49",
    ("pos", 4): "950451a992da4b87a040b9cb7c1ca08236a03734b6c5788495d20104d7c7adbb",
    ("preord", 3): "396905500cf5d9a9199972bab62e133ead2e4d7e60b792394386292f50470a82",
    ("preord", 4): "940048a315cd3287c6b7e708bf3a4853d4b0ebc2baf171cdf7d885a7fefc8aea",
    ("set", 3): "76f17b6824043c887a3e3984460a007a73effa1cb73807bc212803bb8e23e3e2",
    ("chaincov-3", 3): "3106765d04a980e8630f3da8b13255082a242018a680d5ba8430873fffba1e69",
}


@pytest.mark.parametrize("name,k", sorted(UNIVERSE_DIGESTS))
def test_universe_matches_its_pinned_digest(name, k):
    U = enumerate_models(get_theory(name), k)
    doc = json.dumps([U.keys, [structure_to_json(X) for X in U.members]], sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == UNIVERSE_DIGESTS[name, k]


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
    path, _ = universe_cache_file(th, 2, str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == [os.path.basename(path)]


def test_universe_cache_hashes_the_theory_once_per_save_and_load(tmp_path, monkeypatch):
    th = get_theory("urel")
    U = enumerate_models(th, 2)
    hashes = []
    monkeypatch.setattr(closure, "theory_hash", lambda theory: hashes.append(theory) or "0" * 16)
    save_universe(U, str(tmp_path))
    assert hashes == [th]
    for _ in range(3):
        assert load_universe(th, 2, str(tmp_path)).keys == U.keys
    assert hashes == [th] * 4


def _damage_and_reload(tmp_path, capsys, damage):
    """Cache pos at k=2, damage the file, and check the next enumeration
    warns, enumerates again and rewrites a file that loads cleanly."""
    th = get_theory("pos")
    U = enumerate_models(th, 2, cache_dir=str(tmp_path))
    path, _ = universe_cache_file(th, 2, str(tmp_path))
    with open(path) as fh:
        lines = fh.read().splitlines(keepends=True)
    assert len(lines) == 5  # the header and 4 members
    with open(path, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write(damage(lines))  # a lone surrogate "\udcXX" is written as the byte XX
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


def test_universe_cache_that_is_not_utf8_is_a_miss(tmp_path, capsys):
    sizes = []

    def damage(lines):  # the file is ASCII, so a character is a byte
        sizes.append(len("".join(lines)))
        return "".join(lines) + "\udcff\udcfe"

    err = _damage_and_reload(tmp_path, capsys, damage)
    assert f"the file is not UTF-8 text (byte {sizes[0]})" in err


def test_universe_cache_repeated_key_is_a_miss(tmp_path, capsys):
    err = _damage_and_reload(tmp_path, capsys, lambda lines: "".join(lines[:-1] + lines[-2:-1]))
    assert "two rows share a key" in err


def test_universe_cache_in_another_format_is_a_miss(tmp_path, capsys):
    err = _damage_and_reload(tmp_path, capsys,
                             _rewrite_row(0, lambda head: head.update(format=0)))
    assert f"cache format 0, expected {closure.UNIVERSE_CACHE_FORMAT}" in err


def test_universe_cache_without_a_format_is_a_miss(tmp_path, capsys):
    err = _damage_and_reload(tmp_path, capsys, _rewrite_row(0, lambda head: head.pop("format")))
    assert f"cache format absent, expected {closure.UNIVERSE_CACHE_FORMAT}" in err


def test_universe_cache_row_that_is_no_longer_a_model_is_a_miss(tmp_path, capsys):
    """Dropping ("1", "1") from the antichain's leq leaves a valid structure
    that is not a poset, with the antichain's key; the digest of the rows
    in the header catches it."""
    def drop_a_loop(lines):
        assert lines[4].count('"leq": [["0", "0"], ["1", "1"]]') == 1
        return "".join(lines[:4] + [lines[4].replace(', ["1", "1"]', "")])
    err = _damage_and_reload(tmp_path, capsys, drop_a_loop)
    assert "the rows do not match the sha256 in the header" in err


def test_universe_with_a_repeated_key_raises():
    U = enumerate_models(get_theory("set"), 2)
    with pytest.raises(ValueError, match="universe of 'set' at k=2 share a canonical key"):
        ModelUniverse(U.theory, U.k, U.members + U.members[-1:], U.keys + U.keys[-1:])


def _rewrite_row(row, change):
    """Damage one cache line: parse it, let `change` edit it, dump it back."""
    def damage(lines):
        obj = json.loads(lines[row])
        change(obj)
        return "".join(lines[:row] + [json.dumps(obj) + "\n"] + lines[row + 1:])
    return damage


def test_universe_cache_header_that_is_not_an_object_is_a_miss(tmp_path, capsys):
    err = _damage_and_reload(tmp_path, capsys,
                             lambda lines: "[1, 2]\n" + "".join(lines[1:]))
    assert "the header is not a JSON object" in err


def test_universe_cache_row_without_key_is_a_miss(tmp_path, capsys):
    err = _damage_and_reload(tmp_path, capsys, _rewrite_row(2, lambda r: r.pop("key")))
    assert "row 2 lacks a string key or a structure" in err


def test_universe_cache_row_without_structure_is_a_miss(tmp_path, capsys):
    err = _damage_and_reload(tmp_path, capsys,
                             _rewrite_row(4, lambda r: r.pop("structure")))
    assert "row 4 lacks a string key or a structure" in err


def _repeat_a_label(row):
    row["structure"]["carriers"]["el"] = ["0", "0"]


def _structure_as_list(row):
    row["structure"] = ["el", "0"]


def _carrier_as_string(row):
    row["structure"]["carriers"]["el"] = "".join(row["structure"]["carriers"]["el"])


def _number_the_labels(row):
    row["structure"]["carriers"]["el"] = list(range(len(row["structure"]["carriers"]["el"])))


@pytest.mark.parametrize("damage,reason", [
    (_number_the_labels, "the carrier of sort 'el' holds a label that is not a string"),
    (_repeat_a_label, "carrier of sort 'el' repeats a label"),
    (_structure_as_list, "the structure is not a JSON object"),
    (_carrier_as_string, "the carrier of sort 'el' is not an array"),
])
def test_universe_cache_row_with_invalid_structure_is_a_miss(tmp_path, capsys,
                                                            damage, reason):
    err = _damage_and_reload(tmp_path, capsys, _rewrite_row(3, damage))
    assert f"row 3 holds no valid structure ({reason})" in err


def test_universe_cache_row_naming_a_relation_outside_the_theory_is_a_miss(tmp_path, capsys):
    def misspell(row):
        relations = row["structure"]["relations"]
        relations["le"] = relations.pop("leq")
    err = _damage_and_reload(tmp_path, capsys, _rewrite_row(3, misspell))
    assert "row 3 holds no valid structure ('relations' names 'le', which is not a " \
           "relation of 'pos')" in err


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


def naive_closure_P(U, indices, built):
    """closure_P the slow way: every multiset of 2 to PRODUCT_ARITY_CAP
    members, its product built outright and looked up by key, until nothing
    changes.  `built` memoizes products by combination across classes."""
    sorts = U.theory.signature.sorts

    def product_of(combo):
        if combo not in built:
            factors = [U.members[i] for i in combo]
            bounded = all(math.prod(len(F.carrier(s)) for F in factors) <= U.k for s in sorts)
            built[combo] = (U.index[canonical_key(product(U.theory, factors))]
                            if bounded else None)
        return built[combo]

    S = set(indices) | {product_of(())}
    changed = True
    while changed:
        changed = False
        for r in range(2, closure.PRODUCT_ARITY_CAP + 1):
            for combo in itertools.combinations_with_replacement(sorted(S), r):
                idx = product_of(combo)
                if idx is not None and idx not in S:
                    S.add(idx)
                    changed = True
    return frozenset(S)


@pytest.mark.parametrize("name,k", [("set", 3), ("urel", 2), ("pos", 3), ("erel", 3),
                                    ("idem", 3), ("nset-3", 3), ("arrow", 2)])
def test_closure_p_matches_naive_products_on_every_class(name, k):
    U = enumerate_models(get_theory(name), k)
    built = {}
    for idx in _every_class(U):
        assert closure_P(ModelClass(U, idx)).indices == naive_closure_P(U, idx, built), \
            sorted(idx)


@pytest.mark.parametrize("name,k", [("end", 3), ("preord", 3), ("cospan", 2),
                                    ("chaincov-3", 2)])
def test_closure_p_matches_naive_products_on_seeded_classes(name, k):
    U = enumerate_models(get_theory(name), k)
    rng = random.Random(f"closure-P-{name}")
    built = {}
    for _ in range(40):
        idx = frozenset(i for i in range(len(U)) if rng.random() < 0.4)
        assert closure_P(ModelClass(U, idx)).indices == naive_closure_P(U, idx, built), \
            sorted(idx)


def test_closure_p_adds_a_product_with_no_bounded_pair():
    """Three sorts at k=2: any two of 0x2x2, 2x0x2 and 2x2x0 overflow a sort
    (2 x 2 > 2), but all three multiply to the empty structure, which only a
    product of three factors at once reaches."""
    U = enumerate_models(parse_theory("theory three { sorts a, b, c; }"), 2)
    assert len(U) == 27
    sizes = [tuple(len(X.carrier(s)) for s in "abc") for X in U.members]
    idx = frozenset(sizes.index(v) for v in [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    out = closure_P(ModelClass(U, idx)).indices
    assert sizes.index((0, 0, 0)) in out
    assert out == naive_closure_P(U, idx, {})
    assert sorted(sizes[i] for i in out) == [(0, 0, 0), (0, 2, 2), (1, 1, 1),
                                              (2, 0, 2), (2, 2, 0)]


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


def _answers(universe, idx, rho):
    """What each operator, closure_Hloc along rho and hsp_closure answer on
    the class idx, each asked on the universe that universe() returns."""
    questions = {op.__name__: op for op in _OPERATORS}
    questions["closure_Hloc along rho"] = lambda mc: closure_Hloc(mc, rho)
    out = {label: op(ModelClass(universe(), idx)).indices for label, op in questions.items()}
    hsp = hsp_closure(ModelClass(universe(), idx))
    out["hsp_closure"] = (hsp.model_class.indices, hsp.fixpoint, hsp.growth)
    return out


@pytest.mark.parametrize("name,rho", [("urel", "urel-underlying"), ("pos", "pos-underlying")])
def test_shared_universe_memo_answers_repeated_questions_alike(name, rho):
    """Every question asked twice of one shared universe, the second round in
    reverse class order, so the second answers come from the memo, gets the
    answer a freshly enumerated universe gives it alone, on every class of
    urel k=2 and pos k=2."""
    theory, rho = get_theory(name), get_morphism(rho)
    shared = enumerate_models(theory, 2)
    classes = list(_every_class(shared))
    fresh = {idx: _answers(lambda: enumerate_models(theory, 2), idx, rho) for idx in classes}
    for order in (classes, classes[::-1]):
        for idx in order:
            assert _answers(lambda: shared, idx, rho) == fresh[idx], sorted(idx)


def test_a_dropped_universe_is_freed_without_the_cycle_collector():
    """The memo holds index sets, never a ModelClass (which holds its
    universe), and no closure operator leaves a reference cycle through the
    universe, so dropping the last reference frees it at once."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        U = enumerate_models(get_theory("pos"), 3)
        hsp_closure(ModelClass(U, frozenset([1])))
        operator_law_report(U, 3)
        ref = weakref.ref(U)
        del U
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


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


def tupling_is_closed_mono(X, homs):
    """Build the product of the targets of `homs` (homomorphisms out of X)
    and the tupling into it, then test that one map tuple by tuple:
    injective, and every function entry or relation tuple of X whose image
    is present in the product is present in X."""
    sig = X.theory.signature
    P = product(X.theory, [h.target for h in homs])
    maps = {s: {a: tuple(h.maps[s][a] for h in homs) for a in X.carrier(s)} for s in sig.sorts}
    t = Homomorphism(X, P, maps)
    assert hom_violation(t) is None
    if any(len(set(maps[s].values())) != len(X.carrier(s)) for s in sig.sorts):
        return False
    for kind, argsorts_of in (("functions", {f: a for f, (a, _) in sig.functions.items()}),
                              ("relations", sig.relations)):
        for name, argsorts in argsorts_of.items():
            for args in itertools.product(*(X.carrier(s) for s in argsorts)):
                image = tuple(maps[s][a] for s, a in zip(argsorts, args))
                if image in getattr(P, kind)[name] and args not in getattr(X, kind)[name]:
                    return False
    return True


@pytest.mark.parametrize("name", ["urel", "pos"])
def test_embeds_in_product_matches_the_built_product(name):
    """Every member against every set of at most two target members whose
    product over all homomorphisms has at most 64 elements, the empty set
    included."""
    U = enumerate_models(get_theory(name), 2)
    n, sorts = len(U.members), U.theory.signature.sorts
    target_sets = [()] + [(j,) for j in range(n)] + list(itertools.combinations(range(n), 2))
    verdicts = []
    for i, X in enumerate(U.members):
        for targets in target_sets:
            homs = [h for j in targets for h in enumerate_homs(X, U.members[j])]
            if sum(math.prod(len(h.target.carrier(s)) for h in homs) for s in sorts) > 64:
                continue
            verdicts.append(embeds_in_product(U, i, targets))
            assert verdicts[-1] == tupling_is_closed_mono(X, homs), (name, i, targets)
    assert len(verdicts) > 2 * n and True in verdicts and False in verdicts


@pytest.mark.parametrize("name,k", [("urel", 2), ("pos", 3), ("nset-3", 3), ("cospan", 2)])
def test_jointly_closed_mono_reads_a_one_shot_iterator(name, k):
    """On every pair of members, the homs between them passed as iter(homs)
    get the answer the list gets, and are pulled only until the prefix
    read discharges every obligation (all of them when the answer is no)."""
    U = enumerate_models(get_theory(name), k)
    for X, Y in itertools.product(U.members, repeat=2):
        homs = enumerate_homs(X, Y)
        answer = jointly_closed_mono(X, homs)
        stream = iter(homs)
        assert jointly_closed_mono(X, stream) == answer, (X.name, Y.name)
        pulled = len(homs) - len(list(stream))
        needed = len(homs) if not answer else next(
            n for n in range(len(homs) + 1) if jointly_closed_mono(X, homs[:n]))
        assert pulled == needed, (X.name, Y.name)


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


def test_law_report_counts_the_stagewise_row():
    """Sc after P within the joint closure is a counted row, one per class,
    not an assert that python -O strips."""
    U = enumerate_models(get_theory("urel"), 2)
    rep = operator_law_report(U, seed=20250814)
    rows = {law: (count, bad) for law, count, bad in rep.rows}
    assert rows["Sc.P <= joint Sc.P"] == (len(U.members) + 10, [])


def test_law_report_target_reads_the_class_count_of_its_report(monkeypatch):
    """The closure-laws rows count the classes the report checked: every
    singleton plus LAW_SAMPLES seeded ones, read when the report runs."""
    monkeypatch.setattr(closure, "LAW_SAMPLES", 3)
    row = run_targets(["closure-laws-set"], RunContext())[0]
    assert row["computed"]["classes"] == len(enumerate_models(get_theory("set"), 3).members) + 3


# ---------------------------------------------------------------------------
# the grow closures against a naive reference: edge matrices computed
# outright from the hom search, without the universe memo, then rounds that
# add every non-member with an edge into the class until one adds nothing


def _edge_matrix(U, edge):
    n = len(U.members)
    return [[edge(U.members[c], U.members[m]) for m in range(n)] for c in range(n)]


def _naive_grow(indices, edges):
    S = set(indices)
    while True:
        new = {c for c in range(len(edges)) if c not in S
               and any(edges[c][m] for m in S)}
        if not new:
            return frozenset(S)
        S |= new


SORTS_ONTO_ONE = "t-onto-end"


def _morphism(name):
    """A corpus morphism, or the test-local one that sends the two sorts of
    t onto the one sort of end (a, b -> el, g -> f), which no corpus
    morphism does."""
    if name != SORTS_ONTO_ONE:
        return get_morphism(name)
    t = parse_theory("theory t { sorts a, b; functions g : a -> b; }")
    return TheoryMorphism(name, t, get_theory("end"), {"a": "el", "b": "el"}, {"g": "f"}, {})


def _reference_edges(U, rho=None):
    probes = U.members if rho is None else [reduct(rho, X) for X in U.members]
    see = (lambda p: p) if rho is None else (lambda p: reduct_hom(rho, p))
    return {
        "Sc": _edge_matrix(U, lambda C, M: any(
            tupling_is_closed_mono(C, [h]) for h in iter_homs(C, M, injective=True))),
        "Hloc": _edge_matrix(U, lambda C, M: any(
            passes_probes(see(p), probes) for p in enumerate_homs(M, C))),
        "surj": _edge_matrix(U, lambda C, M: any(
            is_surjective(p) for p in enumerate_homs(M, C))),
    }


PAIR_CASES = [
    ("pos", 3, None), ("pos", 3, "pos-underlying"),
    ("brel", 2, None), ("brel", 2, "pos-to-brel"),
    ("nset-3", 3, None), ("remark-locret-2", 2, None), ("cospan", 2, None),
]


@pytest.mark.parametrize("name,k,rho", PAIR_CASES + [("end", 3, SORTS_ONTO_ONE)])
def test_locret_equals_the_probe_form_on_every_pair(name, k, rho):
    """ModelUniverse.locret searches one retraction per injective section;
    the probe form lifts every map from every member (every member's
    reduct).  Along t-onto-end the two sorts of a section must agree on
    where the retraction sends each element of end."""
    U = enumerate_models(get_theory(name), k)
    rho = rho and _morphism(rho)
    probes = U.members if rho is None else [reduct(rho, X) for X in U.members]
    see = (lambda p: p) if rho is None else (lambda p: reduct_hom(rho, p))
    n = len(U.members)
    held = 0
    for i, j in itertools.product(range(n), repeat=2):
        probed = any(passes_probes(see(p), probes)
                     for p in enumerate_homs(U.members[i], U.members[j]))
        assert U.locret(i, j, rho) == probed, (i, j)
        held += probed
    assert 0 < held < n * n


@pytest.mark.parametrize("name,k,rho", PAIR_CASES)
def test_grow_edges_are_preorders(name, k, rho):
    """The grow closures add in one pass what rounds to a fixpoint would
    add, because each edge they read is reflexive and transitive on the
    members: closed substructures, local retractions (along rho, when one
    is given) and surjective images."""
    U = enumerate_models(get_theory(name), k)
    if rho is None:
        relations = {"closed-sub": U.closed_sub, "locret": U.locret,
                     "surjective-image": lambda i, j: any(map(
                         is_surjective, U.plan(i).homs(U.plan(j))))}
    else:
        rho = get_morphism(rho)
        relations = {"locret": lambda i, j: U.locret(i, j, rho)}
    n = len(U)
    for label, relation in relations.items():
        held = [[relation(i, j) for j in range(n)] for i in range(n)]
        assert all(held[i][i] for i in range(n)), label
        for a, b, c in itertools.product(range(n), repeat=3):
            assert held[a][c] or not (held[a][b] and held[b][c]), (label, a, b, c)


def _check_grow_closures(U, classes, rho=None):
    edges = _reference_edges(U, rho)
    ops = {"Sc": closure_Sc, "Hloc": lambda mc: closure_Hloc(mc, rho),
           "surj": surjective_image_closure}
    for idx in classes:
        for name, op in ops.items():
            assert (op(ModelClass(U, idx)).indices
                    == _naive_grow(idx, edges[name])), (name, sorted(idx))


@pytest.mark.parametrize("name,k,rho", [("urel", 2, None), ("pos", 3, None),
                                        ("pos", 3, "pos-underlying")])
def test_grow_closures_match_naive_reference_on_every_class(name, k, rho):
    """pos-underlying changes the local retraction closure of 404 of the 512
    classes of pos k=3, so the last case tells the probes apart."""
    U = enumerate_models(get_theory(name), k)
    _check_grow_closures(U, _every_class(U), rho and get_morphism(rho))


def test_grow_closures_match_naive_reference_on_brel():
    """Seeded classes of brel k=2, local retractions with and without
    probing through pos-to-brel."""
    U = enumerate_models(get_theory("brel"), 2)
    n = len(U.members)
    rng = random.Random(20250814)
    classes = [frozenset(i for i in range(n) if rng.random() < p)
               for p in (0.1, 0.2, 0.35) for _ in range(40)]
    _check_grow_closures(U, classes)
    _check_grow_closures(U, classes, get_morphism("pos-to-brel"))


# ---------------------------------------------------------------------------
# hsp_closure checks its fixpoint by re-applying the joint operator alone


HSP_SWEEP = [("urel", 2), ("pos", 3), ("nset-3", 3), ("remark-locret-2", 2),
             ("cospan", 2), ("chaincov-3", 2)]


def _sweep_classes(U, name):
    """Every class of a universe of at most 10 members, else 60 seeded ones."""
    if len(U) <= 10:
        return list(_every_class(U))
    rng = random.Random(f"hsp-sweep-{name}")
    return [frozenset(i for i in range(len(U)) if rng.random() < 0.25) for _ in range(60)]


@pytest.mark.parametrize("name,k", HSP_SWEEP)
def test_products_and_closed_subs_lie_within_the_joint_closure(name, k):
    U = enumerate_models(get_theory(name), k)
    for idx in _sweep_classes(U, name):
        mc = ModelClass(U, idx)
        joint = product_embedding_closure(mc).indices
        assert closure_P(mc).indices <= joint, sorted(idx)
        assert closure_Sc(mc).indices <= joint, sorted(idx)


def _four_operator_hsp(mc, rho=None):
    """The fixpoint check that re-applies every operator to the result."""
    out = closure_Hloc(product_embedding_closure(mc), rho)
    growth = {}
    for name, op in (("product", closure_P), ("closed-sub", closure_Sc),
                     ("closed-sub-of-product", product_embedding_closure),
                     ("local-retraction", lambda c: closure_Hloc(c, rho))):
        again = op(out).indices
        if again != out.indices:
            growth[name] = sorted(again - out.indices)
    return out.indices, not growth, growth


@pytest.mark.parametrize("name,k,rho", [(name, k, None) for name, k in HSP_SWEEP]
                         + [("pos", 3, "pos-underlying")])
def test_hsp_closure_matches_the_four_operator_check(name, k, rho):
    U = enumerate_models(get_theory(name), k)
    rho = rho and get_morphism(rho)
    for idx in _sweep_classes(U, name):
        res = hsp_closure(ModelClass(U, idx), rho)
        assert ((res.model_class.indices, res.fixpoint, res.growth)
                == _four_operator_hsp(ModelClass(U, idx), rho)), sorted(idx)


def test_hsp_closure_reports_what_the_joint_operator_grows(monkeypatch):
    """A first stage that also adds the marked pair leaves out two closed
    subs of products: the plain point, a closed sub of the marked pair, and
    the plain pair, which only a product reaches."""
    U = enumerate_models(get_theory("urel"), 2)
    by_profile = {(structure_size(X), len(X.relations["mark"])): i
                  for i, X in enumerate(U.members)}
    marked_pair, plain_pt, plain_pair = by_profile[(2, 1)], by_profile[(1, 0)], by_profile[(2, 0)]
    stage = closure.closure_Hloc

    def short_stage(mc, rho=None):
        got = stage(mc, rho)
        return got.with_indices(got.indices | {marked_pair})

    monkeypatch.setattr(closure, "closure_Hloc", short_stage)
    res = hsp_closure(ModelClass(U, frozenset([by_profile[(1, 1)]])))
    assert res.model_class.indices == {by_profile[(0, 0)], by_profile[(1, 1)], marked_pair}
    assert not res.fixpoint
    assert res.growth == {"closed-sub-of-product": sorted([plain_pt, plain_pair])}
    assert plain_pair not in closure_Sc(res.model_class).indices
