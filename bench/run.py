"""Benchmark of the phl workbench: one workload per run, stdlib only.

    python3 bench/run.py --workload repro --seed 1 --seconds 36 --trace 0

Sets phl up (fresh import, corpus parse, inputs, warm-up), then runs passes
over the workload's ops, each pass in a seeded order, until --seconds have
gone by (at least MIN_PASSES passes), checking every output.  After each
pass one more throwaway set-up is timed; setup_s is the median of all of
them.  With --trace 1 the set-up and a replay of pass 0 run under the layer
tracer and the per-layer metrics are printed instead; the spans go to
.bench_out/trace-<workload>-seed<seed>.json.  The last stdout line is the
result as JSON.  See bench/README.md.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

from tracing import Tracer
from workloads import OUT, REGISTRY_SEED, ROOT, SRC, WORKLOADS, SetupError, import_phl

SETUPS = 7
MIN_PASSES = 4
TAIL_BEYOND = 10

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("op_ms_p50", "ms"),
              ("op_ms_tail", "ms"), ("peak_rss_mb", "MB")]


def _per_layer():
    def fn(name, *suffixes):
        return [(f"{name}.{s}", _UNITS.get(s, "s")) for s in suffixes]
    rows = []
    rows += fn("parser.parse_theory", "calls", "s")
    rows += fn("structures.sequent_witness", "calls", "s", "reject_ratio")
    rows += fn("structures.canonical_key", "calls", "s", "mean_size")
    rows += fn("structures.product", "calls", "s")
    rows += fn("closure.enumerate_models", "calls", "self_s", "models", "keys_per_model")
    rows += fn("closure.load_universe", "calls", "s")
    rows += fn("closure.save_universe", "calls", "s")
    rows += fn("closure.closure_P", "calls", "self_s", "useful_ratio")
    for name in ("closure_Sc", "closure_Hloc", "product_embedding_closure"):
        rows += fn(f"closure.{name}", "calls", "self_s")
    rows += fn("closure.hsp_closure", "calls", "s")
    rows += fn("closure.operator_law_report", "calls", "s")
    rows += fn("closure.check_theory_morphism_bounded", "s")
    rows += fn("homsearch.find_hom", "calls", "s", "hit_ratio")
    rows += fn("homsearch.iter_homs", "calls", "s")
    rows += fn("homsearch.enumerate_homs", "calls", "s", "homs")
    rows += fn("homsearch.local_retraction_check", "calls", "s", "maps_checked")
    rows += fn("sigma.build_hom_quiver", "calls", "self_s", "pairs")
    for name in ("condense_sigma", "acc_probe", "gset_sigma_check", "verify_fam_theorem"):
        rows += fn(f"sigma.{name}", "s")
    for name in ("probe_property_suite", "definable_fixpoint_suite", "sigma_invariant_suite"):
        rows += fn(f"suites.{name}", "s")
    rows += fn("report.run_target", "calls", "s")
    rows += fn("report.emit_report", "s")
    rows.append(("trace.overhead", "ratio"))
    return rows


_UNITS = {"calls": "count", "s": "s", "self_s": "s", "models": "count",
          "homs": "count", "pairs": "count", "maps_checked": "count",
          "reject_ratio": "ratio", "hit_ratio": "ratio", "useful_ratio": "ratio",
          "keys_per_model": "keys/model", "mean_size": "elements"}
PER_LAYER = _per_layer()


def context(args) -> dict:
    """What every result records besides its metrics."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "phl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "registry_seed": REGISTRY_SEED,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _git_commit(), "src_sha256": digest.hexdigest()[:16]}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # the benchmark may run in an exported tree
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.rng = random.Random(workload.seed)
        self.latencies = defaultdict(list)  # op id -> seconds, one per pass
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def _fail(self, op_id, reason):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{op_id}: {reason}")

    def run_pass(self, ops, tracer=None) -> float:
        """One pass over ops in a fresh seeded order; returns its timed
        seconds."""
        order = list(ops)
        self.rng.shuffle(order)
        elapsed = 0.0
        for op in order:
            self.attempted += 1
            with tracer.span("op", op.id) if tracer else nullcontext():
                start = time.perf_counter()
                try:
                    output = op.run()
                except Exception as exc:  # a failing op is counted, not fatal
                    reason = f"raised {type(exc).__name__}: {exc}"
                else:
                    reason = None
                took = time.perf_counter() - start
            elapsed += took
            self.latencies[op.id].append(took)
            if reason is None:
                reason = op.check(output)
            if reason is not None:
                self._fail(op.id, reason)

        def timer(fn):
            nonlocal elapsed
            start = time.perf_counter()
            try:
                return fn()
            finally:
                elapsed += time.perf_counter() - start

        with tracer.span("op", "end-pass") if tracer else nullcontext():
            reason = self.workload.end_pass(timer)
        if reason is not None:
            self.attempted += 1
            self._fail("end-pass", reason)
        return elapsed

    def run_passes(self, seconds, between=None) -> list:
        """Timed seconds of each pass.  Passes run while the next one is
        expected to end within `seconds`, and at least MIN_PASSES run;
        `between()` runs after each pass, inside the time budget."""
        passes, walls = [], []
        start = time.perf_counter()
        while len(passes) < MIN_PASSES or \
                time.perf_counter() - start + statistics.median(walls) <= seconds:
            begun = time.perf_counter()
            passes.append(self.run_pass(self.workload.ops(len(passes))))
            if between is not None:
                between()
            walls.append(time.perf_counter() - begun)
        return passes


def tail(values):
    """(percentile, value): the highest whole percentile of `values` with at
    least TAIL_BEYOND values above its nearest-rank position."""
    values = sorted(values)
    n = len(values)
    if n <= TAIL_BEYOND:
        raise SetupError(f"{n} ops leave no tail of {TAIL_BEYOND}")
    q = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(q * n / 100))
    return q, values[rank - 1]


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def set_up(name, seed, on_import=None):
    workload = WORKLOADS[name](seed)
    try:
        mods = import_phl()
        if on_import is not None:
            on_import(mods)
        workload.setup(mods)
    except BaseException:
        workload.close()
        raise
    return workload


def timed_setup(name, seed) -> float:
    """Seconds for one throwaway set-up.  The running workload's phl modules
    go back into sys.modules afterwards, because phl imports some names
    inside functions.  The discarded modules are collected at once, so that
    neither memory nor the program's own GC passes grow with the run."""
    running = {k: v for k, v in sys.modules.items() if k == "phl" or k.startswith("phl.")}
    start = time.perf_counter()
    set_up(name, seed).close()
    took = time.perf_counter() - start
    for k in [k for k in sys.modules if k == "phl" or k.startswith("phl.")]:
        del sys.modules[k]
    sys.modules.update(running)
    gc.collect()
    return took


def measure(args, lines) -> tuple:
    start = time.perf_counter()
    workload = set_up(args.workload, args.seed)
    setups = [time.perf_counter() - start]
    try:
        runner = Runner(workload)

        def spread_setups():
            # SETUPS set-ups in all, evenly over the run, so that they see
            # the same machine as the passes and peak RSS does not depend
            # on the pass count
            due = 1 + int((time.perf_counter() - start) * (SETUPS - 1) / args.seconds)
            while len(setups) < min(due, SETUPS):
                setups.append(timed_setup(args.workload, args.seed))

        passes = runner.run_passes(args.seconds, between=spread_setups)
        while len(setups) < SETUPS:
            setups.append(timed_setup(args.workload, args.seed))
    finally:
        workload.close()
    pooled = [t for ts in runner.latencies.values() for t in ts]
    per_op = [statistics.median(ts) for ts in runner.latencies.values()]
    q, tail_s = tail(pooled)
    lo, hi = quartiles(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "op_ms_p50": 1000 * statistics.median(per_op),
        "op_ms_tail": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines += [
        f"setup_s      {metrics['setup_s']:.4f} s   median of {len(setups)} set-ups "
        f"({min(setups):.4f}..{max(setups):.4f})",
        f"pass_s       {metrics['pass_s']:.4f} s   median of {len(passes)} passes "
        f"of {len(workload.first_ops)} ops, quartiles {lo:.4f}..{hi:.4f}",
        f"op_ms_p50    {metrics['op_ms_p50']:.3f} ms  median of {len(per_op)} per-op "
        f"medians ({len(pooled)} op latencies)",
        f"op_ms_tail   {metrics['op_ms_tail']:.3f} ms  p{q} of {len(pooled)} op latencies, "
        f"at least {TAIL_BEYOND} beyond",
        f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
    ]
    units = dict(END_TO_END)
    return runner, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def measure_traced(args, lines, meta) -> tuple:
    tracer = Tracer()

    def install(mods):
        tracer.install(mods, [t.run for t in mods["targets"].TARGETS])

    with tracer.span("setup", "setup"):
        workload = set_up(args.workload, args.seed, on_import=install)
    tracer.uninstall()
    try:
        runner = Runner(workload)
        passes = runner.run_passes(args.seconds)
        install(workload.mods)
        try:
            traced = runner.run_pass(workload.ops(0), tracer)
        finally:
            tracer.uninstall()
    finally:
        workload.close()
    values = tracer.metrics()
    # the traced pass replays pass 0, so compare it with pass 0 untraced
    values["trace.overhead"] = traced / passes[0]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, meta)
    lines.append(f"trace.overhead {values['trace.overhead']:.3f}: traced pass 0 "
                 f"{traced:.3f} s over untraced pass 0 {passes[0]:.3f} s; "
                 f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    return runner, {name: {"value": values[name], "unit": unit}
                    for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        meta = context(args)
        lines = ["context " + json.dumps(meta, sort_keys=True)]
        if args.trace:
            runner, metrics = measure_traced(args, lines, meta)
        else:
            runner, metrics = measure(args, lines)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    lines.append(f"fail_ratio   {runner.failed}/{runner.attempted} = "
                 f"{runner.failed / runner.attempted:g} ratio")
    for reason in runner.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
