"""Reproduction runner and report emission.

A report row records what was computed, what was expected, where the
expectation comes from, and at which bound the computation ran.  JSON
output is schema-versioned and byte-stable across runs except for the
runtime fields.  Targets run one after another in target-name order; the
work is pure-Python computation, which threads would not overlap.
"""

from __future__ import annotations

import json
import time

from .targets import RunContext, get_target

SCHEMA = "phl-report/1"


def run_target(name: str, ctx: RunContext) -> dict:
    target = get_target(name)
    started = time.perf_counter()
    try:
        computed = target.run(ctx)
        verdict = "match" if computed == target.expected else "mismatch"
    except Exception as exc:  # noqa: BLE001 - a failed target is a report row
        computed = f"{type(exc).__name__}: {exc}"
        verdict = "error"
    runtime_ms = int((time.perf_counter() - started) * 1000)
    return {
        "target": name,
        "computed": computed,
        "expected": target.expected,
        "provenance": target.provenance,
        "bound": target.bound,
        "runtime_ms": runtime_ms,
        "verdict": verdict,
    }


def run_targets(names, ctx: RunContext) -> list:
    return [run_target(n, ctx) for n in sorted(names)]


def summary_line(rows) -> str:
    matched = sum(1 for r in rows if r["verdict"] == "match")
    return f"{matched}/{len(rows)} reproductions match"


def all_match(rows) -> bool:
    return all(r["verdict"] == "match" for r in rows)


def emit_report(rows, fmt: str = "text", seed: int = 20250814) -> str:
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "seed": seed,
            "rows": rows,
            "summary": summary_line(rows),
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    width = max([len(r["target"]) for r in rows] + [6])
    lines = []
    for r in rows:
        status = r["verdict"]
        lines.append(
            f"{r['target']:<{width}}  {status:<8}  "
            f"computed={_short(r['computed'])}  expected={_short(r['expected'])}  "
            f"[{r['provenance']}] ({r['runtime_ms']} ms)")
        if status != "match":
            lines.append(f"{'':<{width}}  bound: {r['bound']}")
    lines.append(summary_line(rows))
    return "\n".join(lines)


def _short(value, limit: int = 72) -> str:
    text = json.dumps(value, sort_keys=True) if not isinstance(value, str) else value
    if len(text) > limit:
        return text[: limit - 3] + "..."
    return text
