"""Acceptance gate: one check per shipped claim, timed and printed.

Each test prints a single `criterion N (label): PASS|FAIL` line so the
suite output doubles as the acceptance report.  Expected values live in
the reproduction registry; this module re-asserts the headline numbers
directly so a registry edit cannot silently weaken the gate.
"""

import hashlib
import itertools
import json
import time
from contextlib import contextmanager

import pytest

from phl.cli import main
from phl.closure import enumerate_models, operator_law_report
from phl.corpus import get_theory, theory_names
from phl.report import RunContext, run_targets
from phl.structures import structure_size
from phl.suites import definable_fixpoint_suite, probe_property_suite


# The sha256 of the full `phl repro --all --format json` report with every
# runtime_ms set to 0, as json.dumps(doc, indent=2).  Any change to a row,
# such as a new target, moves it; update it on purpose then.
REPORT_SHA256 = "53534886be23d9553b80578902c410b61db250efdfb2c6817b0763c507f1df82"


@contextmanager
def criterion(capsys, number, label, budget_s):
    """Times the block and emits the verdict line past pytest's capture so
    it shows up in plain `pytest -v` output."""

    def emit(line):
        with capsys.disabled():
            print(line)

    started = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - started
    if elapsed > budget_s:
        emit(f"criterion {number} ({label}): FAIL (took {elapsed:.1f}s, "
             f"budget {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_s}s: {elapsed:.1f}s")
    emit(f"criterion {number} ({label}): PASS ({elapsed:.1f}s)")


def run_matching(names, per_target_budget_s):
    rows = run_targets(names, RunContext())
    for row in rows:
        assert row["verdict"] == "match", (row["target"], row["computed"],
                                           row["expected"])
        assert row["runtime_ms"] <= per_target_budget_s * 1000, row["target"]
    return rows


def test_criterion_1_component_counts(capsys):
    names = ["sigma-set", "sigma-pos", "sigma-arrow", "sigma-cospan",
             "sigma-urel", "sigma-per", "sigma-idem", "sigma-preord",
             "sigma-erel", "bell-1", "bell-2", "bell-3", "bell-4"]
    with criterion(capsys, 1, "component counts across the example table", 10 * len(names)):
        rows = run_matching(names, 10)
        headline = {r["target"]: r["expected"] for r in rows}
        assert headline["sigma-set"] == 2
        assert headline["sigma-pos"] == 2
        assert headline["sigma-arrow"] == 3
        assert headline["sigma-cospan"] == 6
        assert headline["sigma-urel"] == 3
        assert headline["sigma-per"] == 3
        assert headline["sigma-idem"] == 2
        assert headline["sigma-preord"] == 2
        assert headline["sigma-erel"] == 2
        assert [headline[f"bell-{n}"] for n in range(1, 5)] == [1, 2, 5, 15]


def test_criterion_2_no_backward_homs_and_acc_failures(capsys):
    names = ["lattice-no-backward-homs", "endo-primes-no-backward-homs",
             "presheaf-no-backward-homs", "acc-lattice-chain",
             "acc-endo-chain", "acc-presheaf-chain"]
    with criterion(capsys, 2, "strictly ascending chains never map backward",
                   30 * len(names)):
        rows = run_matching(names, 30)
        by_name = {r["target"]: r["expected"] for r in rows}
        for certificate in ["lattice-no-backward-homs",
                            "endo-primes-no-backward-homs",
                            "presheaf-no-backward-homs"]:
            assert by_name[certificate]["backward-homs"] == 0
        for probe in ["acc-lattice-chain", "acc-endo-chain",
                      "acc-presheaf-chain"]:
            assert by_name[probe]["stabilized"] is False


def test_criterion_3_ordinal_stage_chains(capsys):
    with criterion(capsys, 3, "ordinal stage families form (k+2)-element chains", 20):
        rows = run_matching(["ordinal-sigma-k2", "ordinal-sigma-k3"], 10)
        by_name = {r["target"]: r["expected"] for r in rows}
        assert by_name["ordinal-sigma-k2"] == {
            "components": 4, "chain": True, "universe-components": 4}
        assert by_name["ordinal-sigma-k3"] == {"components": 5, "chain": True}


def test_criterion_4_probe_property_suite(capsys):
    with criterion(capsys, 4, "probe and factorization properties hold on samples", 60):
        rep = probe_property_suite(seed=20250814)
        assert rep.instances >= 200
        assert rep.failures == []
        assert rep.ok


def test_criterion_5_closure_laws_and_fixpoints(capsys):
    with criterion(capsys, 5, "closure operator laws and definable fixpoints", 120):
        for theory, k in [("set", 3), ("pos", 3), ("urel", 2)]:
            U = enumerate_models(get_theory(theory), k)
            rep = operator_law_report(U, seed=20250814)
            assert rep.violations == 0, (theory, k, rep.violations)
            hsp_rows = [r for r in rep.rows if r[0] == "hsp idempotent"]
            assert hsp_rows and all(r[1] for r in hsp_rows)
        fixed = definable_fixpoint_suite(seed=20250814)
        assert fixed.instances >= 5
        assert fixed.ok


def test_criterion_6_bounded_closure_counterexamples(capsys):
    names = ["remark-locret-counterexample", "remark-constants-counterexample"]
    with criterion(capsys, 6, "bounded fixpoints that the colimit and exact "
                      "readings escape", 30 * len(names)):
        rows = run_matching(names, 30)
        by_name = {r["target"]: r["expected"] for r in rows}
        locret = by_name["remark-locret-counterexample"]
        assert locret["hsp-fixpoint"] is True
        assert locret["colimit-in-class"] is False
        constants = by_name["remark-constants-counterexample"]
        assert constants["surjective"] is True
        assert constants["exact"] is False


def test_criterion_7_family_posets_and_group_actions(capsys):
    names = ["fam-single-vertex", "fam-two-antichain", "fam-s3-subgroups",
             "gset-trivial", "gset-c2", "gset-c4", "gset-s3",
             "subgroup-counts"]
    with criterion(capsys, 7, "family posets are lower set lattices; action models "
                      "match subgroup classes", 60):
        rows = run_matching(names, 60)
        by_name = {r["target"]: r["expected"] for r in rows}
        assert by_name["subgroup-counts"] == [1, 2, 3, 6]
        assert [by_name[f"gset-{g}"]["components"]
                for g in ("trivial", "c2", "c4", "s3")] == [2, 3, 4, 6]


def test_criterion_8_enumerator_matches_naive_oracle(capsys):
    from test_closure import naive_models_at_two

    with criterion(capsys, 8, "staged enumeration agrees with the naive oracle", 60):
        for name in theory_names():
            th = get_theory(name)
            expected = len(naive_models_at_two(name))
            got = len(enumerate_models(th, 2).members)
            assert got == expected, (name, got, expected)
        U = enumerate_models(get_theory("pos"), 2)
        profile = sorted(
            (structure_size(X), len(X.relations["leq"])) for X in U.members)
        assert profile == [(0, 0), (1, 1), (2, 2), (2, 3)]


def test_criterion_9_report_determinism(capsys):
    with criterion(capsys, 9, "full reproduction report is deterministic", 600):
        docs = []
        for _ in range(2):
            code = main(["repro", "--all", "--format", "json"])
            out = capsys.readouterr().out
            assert code == 0
            doc = json.loads(out)
            assert doc["summary"].endswith("reproductions match")
            matched, total = doc["summary"].split()[0].split("/")
            assert matched == total
            for row in doc["rows"]:
                row["runtime_ms"] = 0
            docs.append(json.dumps(doc, indent=2))
        assert docs[0] == docs[1]
        assert hashlib.sha256(docs[0].encode()).hexdigest() == REPORT_SHA256
