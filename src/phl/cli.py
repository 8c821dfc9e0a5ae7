"""Command line front end.

One verb per capability: check a theory file, enumerate bounded models,
search homomorphisms between structure files, condense a universe into
its component poset, run the closure composite on a class, probe a chain
for stabilization, and run the reproduction targets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .closure import (
    ModelClass,
    definable_class,
    enumerate_models,
    hsp_closure,
)
from .corpus import get_chain, get_morphism, get_theory, list_corpus
from .homsearch import enumerate_homs, find_hom
from .parser import parse_sequents, parse_theory
from .report import all_match, emit_report, run_targets
from .sigma import acc_probe, sigma_of_structures
from .structures import (
    structure_from_json,
    structure_to_json,
)
from .syntax import PhlError, print_theory
from .targets import RunContext, TARGETS, all_tags, get_target, targets_with_tag


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise PhlError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_theory(path: str):
    return parse_theory(_read_text(path), filename=path)


def _resolve_theory(name: str):
    if name.endswith(".phl") or os.path.isfile(name):
        return _read_theory(name)
    return get_theory(name)


def _structure_line(X) -> str:
    sizes = ", ".join(f"{s}:{len(X.carrier(s))}"
                      for s in X.theory.signature.sorts)
    return f"{X.name}  ({sizes})"


def _cmd_check(args) -> int:
    theory = _read_theory(args.file)
    print(f"{theory.name}: {len(theory.signature.sorts)} sorts, "
          f"{len(theory.signature.functions)} functions, "
          f"{len(theory.signature.relations)} relations, "
          f"{len(theory.axioms)} axioms")
    if theory.flags:
        print("flags:", ", ".join(sorted(theory.flags)))
    reparsed = parse_theory(print_theory(theory), filename="<printed>")
    if print_theory(reparsed) != print_theory(theory):
        print("warning: theory does not round-trip through the printer",
              file=sys.stderr)
        return 1
    return 0


def _max_size(args, least: int = 0) -> int:
    if args.max_size < least:
        raise PhlError(f"--max-size must be at least {least}, got {args.max_size}")
    return args.max_size


def _cmd_models(args) -> int:
    theory = _resolve_theory(args.theory)
    U = enumerate_models(theory, _max_size(args), args.cache)
    if args.json:
        print(json.dumps([structure_to_json(X) for X in U.members],
                         indent=2, sort_keys=True))
        return 0
    print(f"{len(U.members)} models of {theory.name} "
          f"with every carrier at most {args.max_size}, up to isomorphism")
    for X in U.members:
        print(" ", _structure_line(X))
    return 0


def _read_json(path: str):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise PhlError(f"{path}: invalid JSON at line {exc.lineno} "
                       f"column {exc.colno}") from None


def _cmd_hom(args) -> int:
    if args.enumerate < 0:
        raise PhlError(f"--enumerate must be at least 0, got {args.enumerate}")
    doc = _read_json(args.source)
    if args.theory is None and not (isinstance(doc, dict) and "signature" in doc):
        raise PhlError(f'{args.source}: no "signature" field names the theory '
                       "(pass --theory)")
    theory = _resolve_theory(args.theory or doc["signature"])
    X = structure_from_json(doc, theory)
    Y = structure_from_json(_read_json(args.target), theory)
    if args.enumerate:
        homs = enumerate_homs(X, Y, limit=args.enumerate)
        print(f"{len(homs)} homomorphisms (limit {args.enumerate})")
        for h in homs:
            print(" ", {s: dict(m) for s, m in h.maps.items()})
        return 0 if homs else 1
    h = find_hom(X, Y)
    if h is None:
        print("no homomorphism")
        return 1
    print("homomorphism found:")
    print(" ", {s: dict(m) for s, m in h.maps.items()})
    return 0


def _cmd_sigma(args) -> int:
    theory = _resolve_theory(args.theory)
    U = enumerate_models(theory, _max_size(args), args.cache)
    P = sigma_of_structures(list(U.members))
    print(f"{len(P.components)} strongly connected components among the "
          f"{len(U.members)} models of {theory.name} with every carrier "
          f"at most {args.max_size}")
    print("counts at a bound are counts within that bound; they equal the "
          "unbounded count only when every component has a representative "
          "this small")
    for i, label in enumerate(P.labels):
        below = sorted(j for j in range(len(P.components))
                       if j != i and (j, i) in P.leq)
        suffix = f"  above {below}" if below else ""
        print(f"  [{i}] {label}{suffix}")
    return 0


def _parse_class(spec: str, U, theory) -> ModelClass:
    if spec == "all":
        return ModelClass(U, frozenset(range(len(U.members))))
    if spec.startswith("sat:"):
        seqs = parse_sequents(spec[4:], theory.signature)
        return definable_class(U, seqs)
    if spec.startswith("members:"):
        try:
            idx = frozenset(int(p) for p in spec[8:].split(",") if p != "")
        except ValueError:
            raise PhlError(f"bad member index in {spec!r} (use members:i,j)") from None
        for i in idx:
            if not 0 <= i < len(U.members):
                raise PhlError(f"member index {i} out of range")
        return ModelClass(U, idx)
    raise PhlError(f"bad class spec: {spec!r} "
                     "(use all, sat:<sequents>, or members:i,j)")


def _cmd_closure(args) -> int:
    theory = _resolve_theory(args.theory)
    # the terminal model, which a product closure needs, has an element of every sort
    U = enumerate_models(theory, _max_size(args, 1), args.cache)
    E = _parse_class(args.cls, U, theory)
    rho = get_morphism(args.rho) if args.rho else None
    res = hsp_closure(E, rho)
    out = res.model_class
    print(f"class of {len(E.indices)} grew to {len(out.indices)} of the "
          f"{len(U.members)} models; closure is within the bounded universe "
          f"(carriers at most {args.max_size})")
    print(f"fixpoint: {res.fixpoint}" +
          (f"  growth: {res.growth}" if res.growth else ""))
    for i in sorted(out.indices):
        marker = "*" if i in E.indices else "+"
        print(f"  {marker} {_structure_line(U.members[i])}")
    return 0


def _cmd_acc(args) -> int:
    chain = get_chain(args.chain)
    res = acc_probe(chain, args.horizon)
    print(f"{args.chain}: {res.describe()}")
    if not res.stabilized:
        m, n = res.witness
        print(f"  stage {m}: {_structure_line(chain.structure_at(m))}")
        print(f"  stage {n}: {_structure_line(chain.structure_at(n))}")
    return 0


def _cmd_repro(args) -> int:
    if args.all and (args.names or args.tag):
        print("--all runs every target; it cannot be combined with target "
              "names or --tag", file=sys.stderr)
        return 2
    targets = TARGETS
    if args.tag:
        targets = targets_with_tag(args.tag)
        if not targets:
            print(f"no targets tagged {args.tag!r}; tags: {all_tags()}",
                  file=sys.stderr)
            return 2
    names = [t.name for t in targets]
    if args.names:
        names = args.names
    if args.list:
        for name in names:
            t = get_target(name)
            print(f"{t.name:<32} [{', '.join(t.tags)}] ({t.provenance}) "
                  f"{t.bound}")
        return 0
    ctx = RunContext(seed=args.seed, cache_dir=args.cache)
    rows = run_targets(names, ctx)
    print(emit_report(rows, fmt=args.format, seed=args.seed))
    return 0 if all_match(rows) else 1


def _cmd_corpus(args) -> int:
    if args.emit:
        print(print_theory(get_theory(args.emit)), end="")
        return 0
    inventory = list_corpus()
    if args.tag:
        fam = [f for f in inventory["families"] if args.tag in f["tags"]]
        tgt = targets_with_tag(args.tag)
        if not fam and not tgt:
            tags = list(dict.fromkeys(
                all_tags() + [tag for f in inventory["families"] for tag in f["tags"]]))
            print(f"no families or targets tagged {args.tag!r}; tags: {tags}",
                  file=sys.stderr)
            return 2
        for f in fam:
            status = "" if f["computed"] else "  (documented, not computed)"
            print(f"family   {f['name']:<24} {f['note']}{status}")
        for t in tgt:
            print(f"target   {t.name:<24} expected {t.expected!r}")
        return 0
    for section in ("theories", "chains", "morphisms", "families"):
        print(f"{section}:")
        for entry in inventory[section]:
            print(f"  {entry['name']:<24} {entry.get('note', '')}".rstrip())
    print("groups:", ", ".join(inventory["groups"]))
    print(f"targets: {len(TARGETS)} (phl repro --list)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phl",
        description="workbench for partial Horn theories over finite "
                    "structures")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="parse and validate a theory file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("models", help="enumerate bounded models up to iso")
    p.add_argument("theory", help="corpus theory name or .phl file")
    p.add_argument("--max-size", type=int, required=True, metavar="K")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cache", default=None, metavar="DIR")
    p.set_defaults(fn=_cmd_models)

    p = sub.add_parser("hom", help="search homomorphisms between structures")
    p.add_argument("source", help="structure JSON file")
    p.add_argument("target", help="structure JSON file")
    p.add_argument("--enumerate", type=int, default=0, metavar="N")
    p.add_argument("--theory", default=None,
                   help="theory file for non-corpus signatures "
                        "(default: resolve the JSON's signature name)")
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("sigma", help="component poset of a bounded universe")
    p.add_argument("theory")
    p.add_argument("--max-size", type=int, required=True, metavar="K")
    p.add_argument("--cache", default=None, metavar="DIR")
    p.set_defaults(fn=_cmd_sigma)

    p = sub.add_parser("closure", help="product/closed-sub/local-retract "
                                       "closure of a class")
    p.add_argument("theory")
    p.add_argument("--class", dest="cls", required=True, metavar="SPEC",
                   help="all | sat:<sequents> | members:i,j")
    p.add_argument("--max-size", type=int, required=True, metavar="K")
    p.add_argument("--rho", default=None, metavar="MORPHISM",
                   help="probe along a corpus theory morphism")
    p.add_argument("--cache", default=None, metavar="DIR")
    p.set_defaults(fn=_cmd_closure)

    p = sub.add_parser("acc", help="probe a chain for stabilization")
    p.add_argument("chain", help="corpus chain name")
    p.add_argument("--horizon", type=int, required=True, metavar="H")
    p.set_defaults(fn=_cmd_acc)

    p = sub.add_parser("repro", help="run reproduction targets, one after "
                                     "another in name order")
    p.add_argument("names", nargs="*", metavar="NAME")
    p.add_argument("--all", action="store_true",
                   help="run every registered target (the default when no "
                        "names are given); refused with names or --tag")
    p.add_argument("--list", action="store_true")
    p.add_argument("--tag", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--seed", type=int, default=20250814)
    p.add_argument("--cache", default=None, metavar="DIR")
    p.set_defaults(fn=_cmd_repro)

    p = sub.add_parser("corpus", help="list the shipped corpus")
    p.add_argument("--tag", default=None)
    p.add_argument("--emit", default=None, metavar="THEORY",
                   help="print a corpus theory as a .phl file")
    p.set_defaults(fn=_cmd_corpus)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PhlError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except OSError as exc:  # a missing file, or a path of the wrong kind (--cache a file)
        reason = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"{exc.filename}: {reason}", file=sys.stderr)
        return 1
    except KeyError as exc:  # raised with a full sentence naming the unknown name
        print(exc.args[0], file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
