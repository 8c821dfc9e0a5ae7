"""The three benchmark workloads and their correctness checks.

A workload is set up once per (re)import of phl and then offers a fixed op
list.  Each op has a timed `run` that calls into phl and an untimed `check`
in benchmark code.  References never come from the code under test: repro
rows are compared with outputs pinned in reference.json, universe sizes with
published counts, and hom existence on small pairs with the brute force at
the bottom of this file, which shares no code with phl.homsearch.
"""

import hashlib
import importlib
import itertools
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
REGISTRY_SEED = 20250814
PHL_MODULES = ("syntax", "parser", "structures", "homsearch", "groups", "sigma",
               "closure", "corpus", "suites", "targets", "report", "cli")


class SetupError(Exception):
    """The benchmark cannot time this checkout: missing code or bad inputs."""


def import_phl() -> dict:
    """Import phl afresh from <checkout>/src and return its modules by name.

    Earlier imports are dropped from sys.modules first, so every call pays
    the import cost a fresh process pays (bytecode caches aside)."""
    if not (SRC / "phl" / "__init__.py").is_file():
        raise SetupError(f"no phl package under {SRC}")
    for name in [m for m in sys.modules if m == "phl" or m.startswith("phl.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {"phl": importlib.import_module("phl")}
    for short in PHL_MODULES:
        mods[short] = importlib.import_module(f"phl.{short}")
    if Path(mods["phl"].__file__).resolve().parent != SRC / "phl":
        raise SetupError(f"imported phl from {mods['phl'].__file__}, not {SRC}")
    return mods


class Op:
    """One timed call into phl plus its untimed check.

    `check(output)` returns None or a failure reason.  The first output of an
    op is checked in full; later passes must reproduce its `summary`."""

    def __init__(self, op_id, run, check, summary=lambda out: out):
        self.id = op_id
        self.run = run
        self._check = check
        self._summary = summary
        self.first = None

    def check(self, output):
        if self.first is None:
            reason = self._check(output)
            if reason is None:
                self.first = self._summary(output)
            return reason
        if self._summary(output) != self.first:
            return "output differs from the first pass"
        return None


class Workload:
    """Inputs come from one seeded RNG, drawn in pass order, so a seed fixes
    the ops of every pass.  Pass 0 is built during set-up."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self, mods: dict) -> None:
        self.mods = mods
        self.prepare()
        self.first_ops = self.make_ops(0)

    def ops(self, index: int) -> list:
        return self.first_ops if index == 0 else self.make_ops(index)

    def prepare(self) -> None:
        """Parse, enumerate and warm up: the set-up before inputs."""

    def make_ops(self, index: int) -> list:
        raise NotImplementedError

    def end_pass(self, timer):
        """Optional timed step after every op of a pass; returns a failure
        reason or None.  `timer(fn)` times fn() into the pass."""
        return None

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# repro: the headline command, serially, over the pinned target names


class Repro(Workload):
    """`phl repro --all` at jobs=1: one op per pinned registry target,
    the same ops on every pass."""

    name = "repro"

    def prepare(self):
        mods = self.mods
        corpus = mods["corpus"]
        for name in corpus.theory_names():
            corpus.get_theory(name)
        for name in corpus.morphism_names():
            corpus.get_morphism(name)
        registered = set(mods["targets"].target_names())
        missing = [n for n in REFERENCE["repro"]["computed"] if n not in registered]
        if missing:
            raise SetupError(f"pinned repro targets not registered: {missing}")
        ctx = mods["targets"].RunContext(seed=REGISTRY_SEED)
        self.rows = {}
        self.targets = [Op(name, self._runner(name, ctx), self._checker(name))
                        for name in sorted(REFERENCE["repro"]["computed"])]

    def make_ops(self, index):
        return self.targets

    def _runner(self, name, ctx):
        def run():
            row = self.mods["report"].run_target(name, ctx)
            self.rows[name] = row
            return {k: v for k, v in row.items() if k != "runtime_ms"}
        return run

    @staticmethod
    def _checker(name):
        expected = REFERENCE["repro"]["computed"][name]

        def check(row):
            if row["verdict"] != "match":
                return f"verdict {row['verdict']}: {row['computed']!r}"
            if json.loads(json.dumps(row["computed"])) != expected:
                return f"computed {row['computed']!r}, pinned {expected!r}"
            return None
        return check

    def end_pass(self, timer):
        rows = [dict(self.rows[n], runtime_ms=0) for n in sorted(self.rows)]
        self.rows = {}
        report = self.mods["report"]
        text = timer(lambda: report.emit_report(rows, fmt="json", seed=REGISTRY_SEED))
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != REFERENCE["repro"]["report_sha256"]:
            return f"JSON report digest {digest} differs from the pinned report"
        return None


# ---------------------------------------------------------------------------
# closure: hsp_closure on seeded classes of cached universes


class Closure(Workload):
    """`phl closure`-style queries over eight artifact-free universes,
    on fresh random classes every pass."""

    name = "closure"
    # Random classes per pass.  Ops on the four cheap universes (<10 ms)
    # and on the others (>10 ms) would split evenly at 12 each, putting the
    # median op latency on the gap between them; this split puts it inside
    # the erel/pos/end cluster.
    CLASSES = {"set": 10, "urel": 10, "nset-3": 10, "idem": 10,
               "erel": 14, "pos": 14, "end": 14, "preord": 14}

    def prepare(self):
        closure, corpus = self.mods["closure"], self.mods["corpus"]
        structure_to_json = self.mods["structures"].structure_to_json
        OUT.mkdir(exist_ok=True)
        self.cache = tempfile.mkdtemp(prefix="closure-cache-", dir=OUT)
        universes = []
        for spec in REFERENCE["closure"]["universes"]:
            theory = corpus.get_theory(spec["theory"])
            k = spec["k"]
            fresh = closure.enumerate_models(theory, k, self.cache)
            again = closure.load_universe(theory, k, self.cache)
            label = f"{spec['theory']} k={k}"
            if again is None:
                raise SetupError(f"{label}: universe cache was not written")
            if len(fresh.members) != spec["models"]:
                raise SetupError(f"{label}: {len(fresh.members)} models, "
                                 f"published count {spec['models']}")
            if (len(again.members) != len(fresh.members) or again.keys != fresh.keys
                    or [structure_to_json(X) for X in again.members]
                    != [structure_to_json(X) for X in fresh.members]):
                raise SetupError(f"{label}: reloaded cache differs from the "
                                 f"fresh enumeration")
            terminal = _terminal_index(fresh)
            if terminal is None:
                raise SetupError(f"{label}: no one-point total member")
            universes.append((spec["theory"], theory, k, len(fresh.members), terminal))
        self.universes = universes

    def make_ops(self, index):
        ops = []
        for name, theory, k, n, terminal in self.universes:
            for c in range(self.CLASSES[name]):
                mask = self.rng.getrandbits(n)
                members = frozenset(i for i in range(n) if mask >> i & 1)
                ops.append(Op(f"p{index}-{name}-k{k}-{c}",
                              self._runner(theory, k, members),
                              self._checker(members, terminal)))
        return ops

    def _runner(self, theory, k, members):
        def run():
            closure = self.mods["closure"]
            U = closure.enumerate_models(theory, k, self.cache)
            first = closure.hsp_closure(closure.ModelClass(U, members))
            second = closure.hsp_closure(first.model_class)
            return (first.model_class.indices, first.fixpoint,
                    second.model_class.indices, second.fixpoint)
        return run

    @staticmethod
    def _checker(members, terminal):
        def check(out):
            indices, fixpoint, again, again_fixpoint = out
            if not members <= indices:
                return "closure lost members of the class"
            if terminal not in indices:
                return "closure misses the terminal model (empty product)"
            if not (fixpoint and again_fixpoint):
                return "closure is not a fixpoint"
            if again != indices:
                return "second hsp_closure changed the class"
            return None
        return check

    def close(self):
        if getattr(self, "cache", None):
            shutil.rmtree(self.cache, ignore_errors=True)
            self.cache = None


def _terminal_index(U):
    """The one-point structure with every function and relation total,
    found by inspection rather than by phl.structures.product."""
    sig = U.theory.signature
    for i, X in enumerate(U.members):
        if any(len(X.carrier(s)) != 1 for s in sig.sorts):
            continue
        if all(len(X.functions[f]) == 1 for f in sig.functions) and \
                all(len(X.relations[r]) == 1 for r in sig.relations):
            return i
    return None


# ---------------------------------------------------------------------------
# structures: seeded random digraphs and posets, no enumeration


class Structures(Workload):
    """Large canonical keys, exhaustive failing hom searches, many homs, on
    fresh random structures every pass."""

    name = "structures"
    # (kind, elements, ops per pass); see bench/README.md for the reasons.
    # The counts put the median op latency inside the uniform 5-element key
    # ops, and the tail (about the top 2% of ops) inside the 7-element
    # poset keys, not on a boundary between two kinds of op.
    KEY_OPS = [("digraph", 5, 28), ("poset", 5, 28), ("digraph", 6, 12),
               ("poset", 6, 12), ("digraph", 7, 1), ("poset", 7, 5)]
    # families of three random 8-element digraphs of out-degree 3 (the least
    # heavy-tailed search cost per pair of the shapes tried) + 2 planted
    SIGMA_OPS = 20
    HOM_OPS = [(4, 5, 16), (5, 4, 16), (5, 5, 8), (5, 6, 8)]

    def prepare(self):
        corpus = self.mods["corpus"]
        self.theories = {"digraph": (corpus.get_theory("brel"), "r"),
                         "poset": (corpus.get_theory("pos"), "leq")}
        # checks call the unwrapped function, so tracing counts only ops
        self.find_hom = _unwrapped(self.mods["homsearch"].find_hom)
        self.hom_violation = self.mods["structures"].hom_violation

    def make_ops(self, index):
        rng = self.rng
        ops = []
        for kind, n, count in self.KEY_OPS:
            for c in range(count):
                a = _random_poset(rng, n) if kind == "poset" else _random_digraph(rng, n, 0.35)
                planted_iso = c % 2 == 0
                if planted_iso:
                    b = _relabel(rng, a)
                elif kind == "poset":
                    b = _random_poset(rng, n)
                else:
                    b = _toggle_pair(rng, _relabel(rng, a))
                ops.append(Op(f"p{index}-key-{kind}-{n}-{c}",
                              *self._key_op(kind, a, b, planted_iso)))
        for c in range(self.SIGMA_OPS):
            family = [_out_regular_digraph(rng, 8, 3) for _ in range(3)]
            family += [_drop_pairs(rng, family[0], 2), _relabel(rng, family[1])]
            ops.append(Op(f"p{index}-sigma-{c}", self._sigma_runner(family),
                          _sigma_checker(len(family))))
        for m, n, count in self.HOM_OPS:
            for c in range(count):
                a, b = _random_poset(rng, m), _random_poset(rng, n)
                ops.append(Op(f"p{index}-homs-{m}-{n}-{c}", self._homs_runner(a, b),
                              self._homs_checker(a, b),
                              lambda homs, m=m: _hom_maps(homs, m)))
        return ops

    def _build(self, kind, g):
        theory, rel = self.theories[kind]
        labels = [str(i) for i in range(g[0])]
        return self.mods["structures"].make_structure(
            theory, {"el": labels},
            relations={rel: [(str(x), str(y)) for x, y in sorted(g[1])]})

    def _key_op(self, kind, a, b, planted_iso):
        """(run, check) for keying a and b, a relabelling of a or not."""
        X, Y = self._build(kind, a), self._build(kind, b)

        def run():
            key = self.mods["structures"].canonical_key
            return key(X), key(Y)

        def check(keys):
            same = keys[0] == keys[1]
            if planted_iso and not same:
                return "relabelled copy got a different canonical key"
            embeds = []
            for U, V, s, t in ((X, Y, a, b), (Y, X, b, a)):
                for injective in (True, False):
                    h = self.find_hom(U, V, injective=injective)
                    if h is not None and self.hom_violation(h) is not None:
                        return f"hom search returned a non-hom: {self.hom_violation(h)}"
                    if a[0] <= 5 and (h is not None) != bool(
                            _brute_homs(s, t, first=True, injective=injective)):
                        return (f"{'injective ' if injective else ''}hom existence "
                                f"disagrees with the brute force")
                    if injective:
                        embeds.append(h is not None)
            if same != all(embeds):
                return "key equality disagrees with injective hom search"
            return None
        return run, check

    def _sigma_runner(self, family):
        structures = [self._build("digraph", g) for g in family]

        def run():
            P = self.mods["sigma"].sigma_of_structures(structures)
            return P.components, P.leq
        return run

    def _homs_runner(self, a, b):
        X, Y = self._build("poset", a), self._build("poset", b)

        def run():
            return self.mods["homsearch"].enumerate_homs(X, Y)
        return run

    def _homs_checker(self, a, b):
        def check(homs):
            for h in homs:
                reason = self.hom_violation(h)
                if reason is not None:
                    return f"enumerated a non-hom: {reason}"
            maps = _hom_maps(homs, a[0])
            if len(set(maps)) != len(maps):
                return "enumerate_homs repeated a hom"
            if len(maps) < b[0]:
                return "fewer homs than constant maps"
            if a[0] <= 5 and b[0] <= 5:
                brute = set(_brute_homs(a, b))
                if brute != set(maps):
                    return f"{len(maps)} homs, brute force finds {len(brute)}"
            return None
        return check


def _unwrapped(fn):
    return getattr(fn, "__wrapped__", fn)


def _hom_maps(homs, n) -> list:
    return [tuple(int(h.maps["el"][str(i)]) for i in range(n)) for h in homs]


def _sigma_checker(m):
    """The condensation must be a partial order on a partition of the
    family, with the planted members where their construction puts them:
    member 3 is member 0 minus some edges (so 3 <= 0), and member 4 is a
    relabelled copy of member 1 (same component)."""
    def check(out):
        components, leq = out
        comp_of = {}
        for ci, comp in enumerate(components):
            for v in comp:
                if v in comp_of:
                    return "components overlap"
                comp_of[v] = ci
        if sorted(comp_of) != list(range(m)):
            return "components do not cover the family"
        c = len(components)
        for i in range(c):
            if (i, i) not in leq:
                return "order is not reflexive"
            for j in range(c):
                if i != j and (i, j) in leq and (j, i) in leq:
                    return "order is not antisymmetric"
                for k in range(c):
                    if (i, j) in leq and (j, k) in leq and (i, k) not in leq:
                        return "order is not transitive"
        if (comp_of[3], comp_of[0]) not in leq:
            return "a subgraph is not below its supergraph"
        if comp_of[4] != comp_of[1]:
            return "isomorphic members fell into different components"
        return None
    return check


# ---------------------------------------------------------------------------
# seeded generators; a graph is (n, frozenset of (i, j) pairs over range(n))


def _random_digraph(rng, n, p):
    return n, frozenset((i, j) for i in range(n) for j in range(n)
                        if i != j and rng.random() < p)


def _out_regular_digraph(rng, n, d):
    """Loop-free, every vertex with exactly d out-neighbours."""
    return n, frozenset((i, j) for i in range(n)
                        for j in rng.sample([x for x in range(n) if x != i], d))


def _random_poset(rng, n):
    """Reflexive-transitive closure of a random DAG on a shuffled order."""
    order = list(range(n))
    rng.shuffle(order)
    below = {v: {v} for v in range(n)}
    for hi in range(n):
        for lo in range(hi):
            if rng.random() < 0.35:  # down-sets below hi are complete
                below[order[hi]] |= below[order[lo]]
    return n, frozenset((x, y) for y in range(n) for x in below[y])


def _relabel(rng, g):
    n, pairs = g
    perm = list(range(n))
    rng.shuffle(perm)
    return n, frozenset((perm[i], perm[j]) for i, j in pairs)


def _toggle_pair(rng, g):
    n, pairs = g
    i, j = rng.sample(range(n), 2)
    return n, pairs ^ {(i, j)}


def _drop_pairs(rng, g, count):
    n, pairs = g
    return n, pairs - set(rng.sample(sorted(pairs), min(count, len(pairs))))


def _brute_homs(a, b, first=False, injective=False) -> list:
    """Every map range(na) -> range(nb) sending pairs of a to pairs of b."""
    (na, pa), (nb, pb) = a, b
    found = []
    maps = (itertools.permutations(range(nb), na) if injective
            else itertools.product(range(nb), repeat=na))
    for m in maps:
        if all((m[i], m[j]) in pb for i, j in pa):
            found.append(m)
            if first:
                break
    return found


WORKLOADS = {w.name: w for w in (Repro, Closure, Structures)}
