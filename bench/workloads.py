"""The three benchmark workloads.

Each workload builds, from the committed corpus and a seed, a cyclic
schedule of ops.  An op is one library decision (``ns-iso``, ``regions``)
or one CLI process (``cli-mixed``); ``Op.run`` performs it and returns
True when the output equals the golden answer mapped through the seeded
transform.  The schedule repeats a fixed template of op kinds, spread
evenly, so any prefix of it has close to the template's mix; within a
kind, corpus instances are visited round-robin in corpus order.  For the
library workloads the seed picks the relabelling and sign flips of every
instance, but not which instances a run visits: instance costs differ by
up to 3x within a shape, and a seed-dependent visit order would make
throughput depend on where the time limit cuts the cycle.
For cli-mixed, whose inputs are committed files, the seed fixes the order
of the commands within each class.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import normsys
from normsys import HyperplaneArrangement, NormalSystem

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"


class Op:
    __slots__ = ("kind", "run")

    def __init__(self, kind: str, run):
        self.kind = kind
        self.run = run


def spread(template: dict) -> list:
    """Kinds repeated by their counts and interleaved evenly: each kind's
    k-th copy sits at fraction (k + 1/2) / count of the cycle."""
    slots = []
    for kind, count in template.items():
        slots += [((k + 0.5) / count, kind) for k in range(count)]
    return [kind for _, kind in sorted(slots)]


def schedule(template: dict, ops_by_kind: dict):
    """Endless op stream: the spread template, each kind's ops round-robin."""
    order = spread(template)
    cursor = {kind: 0 for kind in template}
    while True:
        for kind in order:
            ops = ops_by_kind[kind]
            yield ops[cursor[kind] % len(ops)]
            cursor[kind] += 1


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def _fractions(rows) -> list:
    return [[Fraction(x) for x in r] for r in rows]


# --- ns-iso -----------------------------------------------------------------

# Op-kind mix per cycle of 20, in increasing op cost: (2,10) 10%, (3,10)
# 25%, (4,8) 30%, (5,8) 35%.  The median falls inside (4,8) and p75 inside
# (5,8), 15 and 10 points from the edges of their clusters; (2,10) keeps
# the m = 2 circular-sequence branch measured.
NS_TEMPLATE = {"2x10": 2, "3x10": 5, "4x8": 6, "5x8": 7}


def _ns_op(rng: random.Random, pair: dict) -> Op:
    m = pair["shape"][0]
    va, rla = gen.transform_system(rng, _fractions(pair["a"]))
    vb, rlb = gen.transform_system(rng, _fractions(pair["b"]))
    a, b = NormalSystem(m, va), NormalSystem(m, vb)
    want = {gen.transform_witness(p, s, rla, rlb) for p, s in pair["witnesses"]}

    def run() -> bool:
        got = normsys.find_isomorphisms(a, b)
        keys = {(tuple(w.perm[i] for i in w.labels), tuple(w.signs[i] for i in w.labels))
                for w in got}
        return keys == want

    return Op("x".join(map(str, pair["shape"])), run)


def ns_iso(seed: int):
    rng = random.Random(seed)
    by_kind: dict = {}
    for pair in _load("ns_iso.json")["pairs"]:
        by_kind.setdefault("x".join(map(str, pair["shape"])), []).append(pair)
    ops = {}
    for kind in NS_TEMPLATE:
        ops[kind] = [_ns_op(rng, p) for p in by_kind[kind]]
    return schedule(NS_TEMPLATE, ops), ops["3x10"][0]


# --- regions ------------------------------------------------------------------

# Per cycle of 40, in increasing op cost: rc(2,7) 35%, rc(2,8) 30%,
# rc(3,7) and cf(2,7) 20%, rc(3,8) and cf(3,7) 15%.  The median falls in
# the middle of rc(2,8) and p75 in the middle of rc(3,7)/cf(2,7), so noise
# that changes the op count cannot move them to another op kind.  The mean
# op stays near 0.4 s, so even a run on a busy machine has >= 40 ops and
# >= 10 beyond p75; that limits cf(3,7), a 2-4 s call, to one in 40.
RG_TEMPLATE = {"rc2x7": 14, "rc2x8": 12, "rc3x7": 7, "rc3x8": 5, "cf2x7": 1, "cf3x7": 1}


_ENUMERATE_REGIONS = normsys.arrangements.enumerate_regions


class _LastRegions:
    """Keeps the region list that ``region_counts`` computes internally, so
    the op can check the full region set and not only the three counts."""

    def __init__(self):
        self.value = None

    def __call__(self, ha):
        self.value = _ENUMERATE_REGIONS(ha)
        return self.value


def _region_key(r) -> str:
    return "".join("+" if s > 0 else "-" for s in r.signs) + ("b" if r.bounded else "")


def _rg_ops(rng: random.Random, item: dict, capture: _LastRegions) -> list:
    m = item["shape"][0]
    coeffs, constants = _fractions(item["coeffs"]), [Fraction(c) for c in item["constants"]]
    rows, cons, rl = gen.transform_arrangement(rng, coeffs, constants)
    ha = HyperplaneArrangement(m, rows, cons)
    want_regions = gen.transform_regions(item["regions"], rl)
    want_counts = tuple(item["counts"])
    shape = "x".join(map(str, item["shape"]))

    def count() -> bool:
        capture.value = None
        counts = normsys.region_counts(ha)
        got = {_region_key(r) for r in capture.value}
        return counts == want_counts and got == want_regions

    ops = [Op("rc" + shape, count)]
    if item["facets"] is not None:
        # cone_facets' Fourier-Motzkin cost depends on the hyperplane order
        # by 30x and more, so this copy keeps the corpus labelling and only
        # flips hyperplanes, which leaves that cost alone
        rows2, cons2, rl2 = gen.transform_arrangement(rng, coeffs, constants, relabel=False)
        ha2 = HyperplaneArrangement(m, rows2, cons2)
        want_facets = gen.transform_facets(item["facets"], rl2)

        def facets() -> bool:
            return set(normsys.cone_facets(ha2)) == want_facets

        ops.append(Op("cf" + shape, facets))
    return ops


def regions(seed: int):
    rng = random.Random(seed)
    capture = _LastRegions()
    normsys.arrangements.enumerate_regions = capture
    ops: dict = {kind: [] for kind in RG_TEMPLATE}
    for item in _load("regions.json")["arrangements"]:
        for op in _rg_ops(rng, item, capture):
            ops[op.kind].append(op)
    return schedule(RG_TEMPLATE, ops), ops["rc2x7"][0]


# --- cli-mixed ----------------------------------------------------------------

# Per cycle of 25: 20 light commands (the 11 visited round-robin) and the
# 5 heavy (QuadExt) commands once each.  Light ones are 80% of invocations
# and set the median; heavy ones are ~60% of the time and set p90 and the
# throughput.  At a 20% heavy share p90 sits at the middle of the heavy
# ranks, i.e. in the middle of the third-costliest heavy command's cluster
# (ha-iso non-iso); at 18.5% it sat 6 points from the cluster below, and
# p90 flipped between the two from run to run.
CLI_TEMPLATE = {"light": 20, "heavy": 5}


class CliRunner:
    """Runs one CLI invocation per op as a child process."""

    def __init__(self, trace_dir):
        self.trace_dir = trace_dir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # (wall seconds, trace file or None, QuadExt input?) per process
        self.records: list = []

    def invoke(self, argv, quadext: bool) -> subprocess.CompletedProcess:
        cmd = [sys.executable, str(BENCH / "launch.py")]
        trace_file = None
        if self.trace_dir is not None:
            trace_file = self.trace_dir / f"op{len(self.records)}.json.gz"
            cmd += ["--trace", str(trace_file)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + ["--", *argv], cwd=ROOT, env=self.env,
                              capture_output=True, timeout=170)
        self.records.append((time.perf_counter() - t0, trace_file, quadext))
        return proc


def cli_mixed(seed: int, runner: CliRunner):
    rng = random.Random(seed)
    ops: dict = {"light": [], "heavy": []}
    for cmd in _load("cli.json")["commands"]:
        want_out, want_exit = cmd["stdout"].encode(), cmd["exit"]

        def run(argv=cmd["argv"], want_out=want_out, want_exit=want_exit,
                quadext=cmd["quadext"]) -> bool:
            proc = runner.invoke(argv, quadext)
            return proc.returncode == want_exit and proc.stdout == want_out

        kind = "heavy" if cmd["quadext"] else "light"
        ops[kind].append(Op(" ".join(cmd["argv"]), run))
    warm = ops["light"][0]
    for kind_ops in ops.values():
        rng.shuffle(kind_ops)
    return schedule(CLI_TEMPLATE, ops), warm
