import ast
import errno
import json
import os
import subprocess
import sys

import pytest

import phl
from phl.cli import main
from phl.corpus import (
    chain_names,
    get_chain,
    get_morphism,
    get_theory,
    list_corpus,
    antichain_poset,
    chain_poset,
    cycle_endo,
    m_lattice,
    morphism_names,
    set_of,
    theory_names,
)
from phl.report import RunContext, all_match, emit_report, run_targets
from phl.structures import is_model, structure_to_json
from phl.syntax import print_theory, validate_morphism, validate_theory
from phl.targets import all_tags, get_target, target_names, targets_with_tag


def save_structure(path, X):
    with open(path, "w") as fh:
        json.dump(structure_to_json(X), fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# corpus integrity


def test_every_corpus_theory_validates():
    for name in theory_names():
        validate_theory(get_theory(name))


def test_every_corpus_structure_is_a_model():
    for X in [set_of(0, "empty"), set_of(1), set_of(2), set_of(3), chain_poset(2),
              chain_poset(3), antichain_poset(2), m_lattice(2), m_lattice(3),
              cycle_endo(2), cycle_endo(3), cycle_endo(4)]:
        assert is_model(X), X.name


def test_every_corpus_morphism_validates():
    for name in morphism_names():
        validate_morphism(get_morphism(name))


def test_every_chain_stage_is_a_substructure_of_the_next():
    """Stages 0..3 nest: each keeps the labels, function entries and
    relation tuples of the one before, so the inclusions are the connectors."""
    for name in chain_names():
        chain = get_chain(name)
        stages = [chain.structure_at(n) for n in range(4)]
        for n, (X, Y) in enumerate(zip(stages, stages[1:])):
            assert X.theory.name == Y.theory.name, (name, n)
            sig = X.theory.signature
            assert all(set(X.carrier(s)) <= set(Y.carrier(s)) for s in sig.sorts), (name, n)
            assert all(X.functions[f].items() <= Y.functions[f].items()
                       for f in sig.functions), (name, n)
            assert all(X.relations[r] <= Y.relations[r] for r in sig.relations), (name, n)


@pytest.mark.parametrize("name,functions", [
    ("nset-1", 1), ("nset-5", 5), ("remark-locret-0", 1), ("remark-locret-4", 5),
    ("chaincov-1", 0), ("chaincov-5", 4), ("gset-c3", 3),
])
def test_unlisted_family_members_resolve(name, functions):
    """Every family member from the family's least N on is a theory, not
    only the listed ones; gset-<group> takes any group the corpus has."""
    theory = get_theory(name)
    validate_theory(theory)
    assert len(theory.signature.functions) == functions


@pytest.mark.parametrize("name,stable_from", [("ordinal-chain-4", 5), ("remark-chain-4", 4)])
def test_unlisted_chain_family_members_resolve(name, stable_from):
    chain = get_chain(name)
    assert (chain.name, chain.stable_from) == (name, stable_from)
    assert is_model(chain.structure_at(stable_from))


def test_inventory_covers_all_sections():
    inv = list_corpus()
    assert set(inv) >= {"theories", "chains", "morphisms", "families"}
    names = {row["name"] for row in inv["families"]}
    assert "semigroup-chain" in names
    sg = next(r for r in inv["families"] if r["name"] == "semigroup-chain")
    assert sg["computed"] is False


# ---------------------------------------------------------------------------
# reproduction registry


def test_target_names_are_unique_and_tagged():
    names = target_names()
    assert len(names) == len(set(names))
    assert len(names) >= 50
    for tag in all_tags():
        assert targets_with_tag(tag)


def test_single_target_runs_and_matches():
    ctx = RunContext()
    rows = run_targets(["sigma-set"], ctx)
    assert len(rows) == 1
    assert rows[0]["verdict"] == "match"
    assert rows[0]["computed"] == rows[0]["expected"]


def test_unknown_target_raises():
    with pytest.raises(KeyError):
        get_target("no-such-target")


def test_report_json_schema():
    ctx = RunContext()
    rows = run_targets(["sigma-set", "bell-1"], ctx)
    doc = json.loads(emit_report(rows, "json"))
    assert doc["schema"] == "phl-report/1"
    assert doc["seed"] == 20250814
    assert [r["target"] for r in doc["rows"]] == sorted(r["target"] for r in doc["rows"])
    for r in doc["rows"]:
        assert set(r) == {"target", "computed", "expected", "provenance",
                          "bound", "runtime_ms", "verdict"}


def test_error_rows_do_not_crash_the_report(monkeypatch):
    import phl.report as report_mod
    t = get_target("sigma-set")
    broken = type(t)(t.name, t.tags, t.bound, t.provenance, t.expected,
                     lambda ctx: (_ for _ in ()).throw(RuntimeError("boom")))
    monkeypatch.setattr(report_mod, "get_target", lambda name: broken)
    rows = run_targets(["sigma-set"], RunContext())
    assert rows[0]["verdict"] == "error"
    assert "boom" in rows[0]["computed"]
    assert not all_match(rows)


# ---------------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_check_ok(tmp_path, capsys):
    path = tmp_path / "pos.phl"
    path.write_text(print_theory(get_theory("pos")))
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 0
    assert "pos" in out


def test_cli_check_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.phl"
    path.write_text("theory t {\n  sorts el;\n  axioms [x : el] top |- q(x) = x;\n}\n")
    code, out, err = run_cli(capsys, "check", str(path))
    assert code == 1
    assert "bad.phl:3" in err
    assert "unknown function symbol" in err


def test_cli_models_json(capsys):
    code, out, _ = run_cli(capsys, "models", "pos", "--max-size", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 4
    assert all(set(m) >= {"carriers", "relations", "name"} for m in doc)


def test_cli_models_accepts_max_size_zero(capsys):
    code, out, _ = run_cli(capsys, "models", "set", "--max-size", "0")
    assert code == 0
    assert out.startswith("1 models of set")


def test_cli_hom_found_and_missing(tmp_path, capsys):
    c2, c4 = cycle_endo(2), cycle_endo(4)
    p2, p4 = tmp_path / "c2.json", tmp_path / "c4.json"
    save_structure(str(p2), c2)
    save_structure(str(p4), c4)
    code, out, _ = run_cli(capsys, "hom", str(p4), str(p2))
    assert code == 0 and "homomorphism" in out
    code2, out2, _ = run_cli(capsys, "hom", str(p2), str(p4))
    assert code2 == 1
    assert "no homomorphism" in out2
    # each sort's map lists its elements in carrier order
    p3 = tmp_path / "e3.json"
    p3.write_text('{"signature": "end", "carriers": {"el": ["0", "1", "2"]}, '
                  '"functions": {"f": [["0", "2"], ["1", "1"], ["2", "1"]]}}')
    code3, out3, _ = run_cli(capsys, "hom", str(p3), str(p3))
    assert code3 == 0
    assert out3.splitlines()[1] == "  {'el': {'0': '0', '1': '1', '2': '2'}}"


def test_cli_hom_reports_invalid_json(tmp_path, capsys):
    good, bad = tmp_path / "c2.json", tmp_path / "bad.json"
    save_structure(str(good), cycle_endo(2))
    bad.write_text('{"signature": "end",\n  "carriers": [\n')
    for args in ((str(bad), str(good)), (str(good), str(bad))):
        code, out, err = run_cli(capsys, "hom", *args)
        assert code == 1 and out == ""
        assert err.strip() == f"{bad}: invalid JSON at line 3 column 1"


def test_cli_hom_refuses_a_name_outside_the_signature(tmp_path, capsys):
    """A misspelt relation is an error, not a relation read as empty."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"signature": "pos", "carriers": {"el": ["0", "1"]}, '
                    '"relations": {"leq": [["0", "0"], ["0", "1"], ["1", "1"]]}}')
    bad.write_text(good.read_text().replace('"leq"', '"le"'))
    for args in ((str(bad), str(good)), (str(good), str(bad))):
        code, out, err = run_cli(capsys, "hom", *args)
        assert code == 1 and out == ""
        assert err == "'relations' names 'le', which is not a relation of 'pos'\n"


@pytest.mark.parametrize("doc,reason", [
    ("[1, 2]", "the structure is not a JSON object"),
    ('{"signature": "pos", "carriers": {"el": "01"}, "relations": {"leq": ["00", "11", "01"]}}',
     "the carrier of sort 'el' is not an array"),
    ('{"signature": "pos", "carriers": {"el": [[0]]}, "relations": {"leq": []}}',
     "the carrier of sort 'el' holds a label that is not a string"),
])
def test_cli_hom_refuses_a_malformed_document(tmp_path, capsys, doc, reason):
    """Either file; a source that names no signature is read with --theory."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"signature": "pos", "carriers": {"el": ["0"]}, '
                    '"relations": {"leq": [["0", "0"]]}}')
    bad.write_text(doc)
    for args in ((str(bad), str(good), "--theory", "pos"), (str(good), str(bad))):
        code, out, err = run_cli(capsys, "hom", *args)
        assert code == 1 and out == ""
        assert err == reason + "\n"


@pytest.mark.parametrize("verb", ["check", "models", "hom-theory", "hom-source", "hom-target"])
def test_cli_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys, verb):
    good_theory, good_doc = tmp_path / "pos.phl", tmp_path / "one.json"
    good_theory.write_text(print_theory(get_theory("pos")))
    good_doc.write_text('{"signature": "pos", "carriers": {"el": ["0"]}, '
                        '"relations": {"leq": [["0", "0"]]}}')
    bad = tmp_path / ("bad.phl" if verb in ("check", "models", "hom-theory") else "bad.json")
    good = good_theory if bad.suffix == ".phl" else good_doc
    bad.write_bytes(good.read_bytes() + b"\xff\xfe")
    argv = {"check": ["check", bad],
            "models": ["models", bad, "--max-size", "1"],
            "hom-theory": ["hom", good_doc, good_doc, "--theory", bad],
            "hom-source": ["hom", bad, good_doc],
            "hom-target": ["hom", good_doc, bad]}[verb]
    code, out, err = run_cli(capsys, *map(str, argv))
    assert code == 1 and out == ""
    assert err == f"{bad}: not UTF-8 text (byte {len(good.read_bytes())})\n"


def test_cli_cache_that_names_a_file_fails_cleanly(tmp_path, capsys):
    cache = tmp_path / "a.json"
    cache.write_text("{}")
    code, out, err = run_cli(capsys, "models", "pos", "--max-size", "2", "--cache", str(cache))
    assert code == 1 and out == ""
    assert err == f"{cache}: {os.strerror(errno.EEXIST)}\n"


def test_cli_hom_accepts_a_theory_file(tmp_path, capsys):
    src = print_theory(get_theory("pos")).replace("theory pos", "theory myord")
    tpath = tmp_path / "myord.phl"
    tpath.write_text(src)
    from phl.parser import parse_theory
    from phl.structures import PartialStructure
    th = parse_theory(src)
    c2 = chain_poset(2)
    X = PartialStructure(th, dict(c2.carriers), {}, {"leq": set(c2.relations["leq"])},
                         "x")
    p = tmp_path / "x.json"
    save_structure(str(p), X)
    # the signature name is not in the corpus, so the file must be supplied
    code, out, _ = run_cli(capsys, "hom", str(p), str(p),
                           "--theory", str(tpath))
    assert code == 0 and "homomorphism" in out


def test_cli_sigma_prints_components_and_caveat(capsys):
    code, out, _ = run_cli(capsys, "sigma", "urel", "--max-size", "2")
    assert code == 0
    assert "components" in out
    assert "within that bound" in out


def test_cli_closure_grows_the_missed_class(capsys):
    code, out, _ = run_cli(capsys, "closure", "urel", "--max-size", "2",
                           "--class", "members:4")
    assert code == 0
    assert "fixpoint" in out


@pytest.mark.parametrize("spec,line", [
    ("members:x", "bad member index in 'members:x' (use members:i,j)"),
    ("members:0,9", "member index 9 out of range"),
    ("some", "bad class spec: 'some' (use all, sat:<sequents>, or members:i,j)"),
    ("sat:[x : el] top |- leq(x, x) [x : el] top |- top",
     "<input>:1:27: expected ';' between sequents, found '['"),
])
def test_cli_bad_class_spec_returns_1_in_process(capsys, spec, line):
    code, out, err = run_cli(capsys, "closure", "pos", "--max-size", "2", "--class", spec)
    assert code == 1
    assert out == ""
    assert err == line + "\n"


@pytest.mark.parametrize("spec", ["all", "members:0"])
def test_cli_closure_refuses_a_rho_into_another_theory(capsys, spec):
    """pos-to-brel has target brel, so it cannot probe pos models."""
    code, out, err = run_cli(capsys, "closure", "pos", "--max-size", "2", "--class", spec,
                             "--rho", "pos-to-brel")
    assert code == 1
    assert out == ""
    assert err == ("theory morphism 'pos-to-brel' has target 'brel', "
                   "not the universe's theory 'pos'\n")


def test_cli_acc_witness(capsys):
    code, out, _ = run_cli(capsys, "acc", "lattice-chain", "--horizon", "4")
    assert code == 0
    assert "no stabilization" in out


def test_cli_repro_single(capsys):
    code, out, _ = run_cli(capsys, "repro", "sigma-set")
    assert code == 0
    assert "1/1 reproductions match" in out


def test_cli_repro_unknown_name(capsys):
    code, out, err = run_cli(capsys, "repro", "definitely-not-a-target")
    assert code != 0


@pytest.mark.parametrize("argv", [
    ["repro", "--list", "nosuch"],
    ["closure", "pos", "--max-size", "2", "--class", "members:x"],
    ["acc", "endo-chain", "--horizon", "0"],
    ["acc", "endo-chain", "--horizon", "6"],
    ["acc", "presheaf-chain", "--horizon", "6"],
    ["hom", "{nosig}", "{nosig}"],
    ["hom", "{one}", "{one}", "--enumerate", "-2"],
    ["models", "set", "--max-size", "-1"],
    ["sigma", "set", "--max-size", "-1"],
    ["closure", "set", "--max-size", "-1", "--class", "all"],
    ["closure", "set", "--max-size", "0", "--class", "all"],
])
def test_cli_input_errors_end_in_one_stderr_line(argv, tmp_path):
    nosig, one = tmp_path / "nosig.json", tmp_path / "one.json"
    nosig.write_text('{"carriers": {"el": ["0"]}}')
    one.write_text('{"signature": "set", "carriers": {"el": ["0"]}}')
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(phl.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "phl.cli"] + [a.format(nosig=nosig, one=one) for a in argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    if "{nosig}" in argv:
        assert str(nosig) in proc.stderr and '"signature"' in proc.stderr
    for flag in ("--max-size", "--enumerate"):
        if flag in argv and int(argv[argv.index(flag) + 1]) < 1:
            assert proc.stderr.startswith(flag)


@pytest.mark.parametrize("argv,line", [
    (["repro", "--list", "nosuch"], "unknown reproduction target: nosuch"),
    (["models", "nosuch", "--max-size", "1"], "unknown theory 'nosuch'"),
    (["models", "nset-x", "--max-size", "1"], "unknown theory 'nset-x'"),
    (["models", "chaincov-", "--max-size", "1"], "unknown theory 'chaincov-'"),
    (["models", "nset-\u00b2", "--max-size", "1"], "unknown theory 'nset-\u00b2'"),
    (["models", "remark-locret-y", "--max-size", "1"], "unknown theory 'remark-locret-y'"),
    (["acc", "ordinal-chain-x", "--horizon", "6"], "unknown chain 'ordinal-chain-x'"),
    (["acc", "remark-chain-", "--horizon", "2"], "unknown chain 'remark-chain-'"),
    (["models", "nset-0", "--max-size", "1"], "unknown theory 'nset-0'"),
    (["models", "chaincov-0", "--max-size", "1"], "unknown theory 'chaincov-0'"),
    (["models", "gset-zz", "--max-size", "1"], "unknown theory 'gset-zz'"),
])
def test_cli_unknown_name_prints_the_sentence_once(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == line + "\n"


def test_cli_repro_all_refuses_names_and_tags(capsys):
    for extra in (["sigma-set", "bell-1"], ["--tag", "closure"]):
        code, out, err = run_cli(capsys, "repro", "--all", *extra)
        assert code == 2
        assert out == ""
        assert "cannot be combined" in err


def test_cli_corpus_listing(capsys):
    code, out, _ = run_cli(capsys, "corpus")
    assert code == 0
    assert "semigroup-chain" in out
    assert "documented but not computed" in out


LISTINGS = os.path.join(os.path.dirname(__file__), "listings")


@pytest.mark.parametrize("tag", [None] + all_tags())
def test_cli_corpus_listing_is_pinned(capsys, tag):
    """`phl corpus` and `phl corpus --tag T` print the frozen inventory."""
    argv = ["corpus"] + (["--tag", tag] if tag else [])
    code, out, err = run_cli(capsys, *argv)
    name = f"corpus--tag-{tag}.txt" if tag else "corpus.txt"
    with open(os.path.join(LISTINGS, name), encoding="utf-8") as fh:
        assert (code, out, err) == (0, fh.read(), "")


def test_cli_corpus_unknown_tag_names_the_tags(capsys):
    """An unknown tag ends like `phl repro --tag`: one stderr line that
    lists every family and target tag, and exit code 2."""
    code, out, err = run_cli(capsys, "corpus", "--tag", "nosuch")
    assert (code, out) == (2, "")
    head = "no families or targets tagged 'nosuch'; tags: "
    assert err.startswith(head) and err.endswith("]\n") and err.count("\n") == 1
    tags = ast.literal_eval(err[len(head):])
    family_tags = {tag for f in list_corpus()["families"] for tag in f["tags"]}
    assert tags[:len(all_tags())] == all_tags()
    assert sorted(tags) == sorted(set(all_tags()) | family_tags)


def test_every_pinned_listing_is_a_tag():
    names = {"corpus.txt"} | {f"corpus--tag-{tag}.txt" for tag in all_tags()}
    assert set(os.listdir(LISTINGS)) == names


def test_cli_corpus_emit_round_trips(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "corpus", "--emit", "urel")
    assert code == 0
    assert out == print_theory(get_theory("urel"))
    path = tmp_path / "urel.phl"
    path.write_text(out)
    code2, _, _ = run_cli(capsys, "check", str(path))
    assert code2 == 0


def test_cli_repro_json_runs_are_deterministic(capsys):
    """Two full runs agree byte for byte once runtimes are stripped."""
    names = ["sigma-set", "sigma-pos", "closure-laws-set", "bell-2",
             "fam-two-antichain", "morphism-pos-to-brel"]
    docs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "repro", *names, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            row["runtime_ms"] = None
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]
