"""Build the committed benchmark corpus and its golden answers.

Run once from the repository root, outside any timing:

    python3 bench/gen_golden.py

It draws the corpus from fixed seeds, computes every answer with the
library at the current commit, cross-checks the answers by independent
routes, and writes ``bench/golden/*.json`` and the CLI input files under
``bench/inputs/``.  Any failed cross-check aborts without writing.

Cross-checks: the planted witness is among the witnesses of every planted
pair and witness sets are closed under negation; ``oracle_isomorphisms``
agrees on every pair with n <= 7 (the CLI pairs); every region count
equals ``predicted_counts``; cone facets equal the simplex polyhedralities;
every CLI exit code is the expected verdict, with the non-isomorphic
hyperplane pair confirmed by the vertex-order definition oracle.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import normsys  # noqa: E402
from normsys import (  # noqa: E402
    HyperplaneArrangement,
    NormalSystem,
    QuadExt,
    load_fixture,
)
from normsys.arrangements import (  # noqa: E402
    definition_oracle_isomorphic,
    enumerate_regions,
    is_simplex_polyhedrality,
)

import gen  # noqa: E402

NS_SHAPES = ((2, 10), (3, 10), (4, 8), (5, 8))
NS_PER_SHAPE = 2
RG_SHAPES = ((2, 7), (2, 8), (3, 7), (3, 8))
# one arrangement per shape: instance costs differ by up to 3x within a
# shape, and repeating one instance keeps the latency clusters narrow
RG_PER_SHAPE = 1


def _rows(vectors) -> list:
    return [[str(Fraction(x)) for x in v] for v in vectors]


def _witness_set(ws) -> list:
    return sorted(
        [[w.perm[i] for i in w.labels], [w.signs[i] for i in w.labels]] for w in ws
    )


def _check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"cross-check failed: {what}")


def ns_corpus() -> list:
    out = []
    for m, n in NS_SHAPES:
        rng = random.Random(1000 * m + n)
        for k in range(NS_PER_SHAPE):
            a = gen.normal_system(rng, m, n)
            planted = k % 2 == 0
            if planted:
                vecs, rl = gen.transform_system(rng, a.vectors, gen.invertible(rng, m))
                b = NormalSystem(m, vecs)
            else:
                b = gen.normal_system(rng, m, n)
            t0 = time.perf_counter()
            ws = normsys.find_isomorphisms(a, b)
            dt = time.perf_counter() - t0
            keys = {(tuple(w.perm[i] for i in w.labels), tuple(w.signs[i] for i in w.labels))
                    for w in ws}
            _check(keys == {(p, tuple(-s for s in sg)) for p, sg in keys},
                   f"ns {m},{n} #{k}: witness set not closed under negation")
            if planted:
                want = (tuple(rl.new[i] for i in a.labels), tuple(rl.flip[i] for i in a.labels))
                _check(want in keys, f"ns {m},{n} #{k}: planted witness missing")
            out.append({
                "shape": [m, n],
                "planted": planted,
                "a": _rows(a.vectors),
                "b": _rows(b.vectors),
                "witnesses": _witness_set(ws),
            })
            print(f"ns-iso {m},{n} #{k} planted={planted} "
                  f"witnesses={len(ws)} {dt:.3f}s", flush=True)
    return out


def rg_corpus() -> list:
    out = []
    for m, n in RG_SHAPES:
        rng = random.Random(2000 * m + n)
        for k in range(RG_PER_SHAPE):
            ha = gen.arrangement(rng, m, n)
            t0 = time.perf_counter()
            counts = normsys.region_counts(ha)
            dt = time.perf_counter() - t0
            _check(counts == normsys.predicted_counts(n, m),
                   f"regions {m},{n} #{k}: counts {counts} differ from the formula")
            regions = sorted(
                "".join("+" if s > 0 else "-" for s in r.signs) + ("b" if r.bounded else "")
                for r in enumerate_regions(ha)
            )
            item = {
                "shape": [m, n],
                "coeffs": _rows(ha.coeffs),
                "constants": [str(c) for c in ha.constants],
                "regions": regions,
                "counts": list(counts),
                "facets": None,
            }
            facets_dt = ""
            if n == 7:
                t0 = time.perf_counter()
                facets = normsys.cone_facets(ha)
                facets_dt = f"{time.perf_counter() - t0:.3f}s"
                poly = [s for s in combinations(ha.labels, m + 1)
                        if is_simplex_polyhedrality(ha, s)]
                _check(sorted(facets) == sorted(poly),
                       f"regions {m},{n} #{k}: cone facets differ from polyhedralities")
                item["facets"] = [list(f) for f in facets]
            out.append(item)
            print(f"regions {m},{n} #{k} counts={counts} {dt:.3f}s "
                  f"facets={item['facets']} {facets_dt}", flush=True)
    return out


def _write(path: Path, obj):
    path.write_text(json.dumps(obj, indent=1) + "\n")


def _qext_matrix(m: int, d: int) -> list:
    """Unipotent shear I + sqrt(d) E_{1,2}, then a cyclic row shift."""
    rows = [[QuadExt(int(i == j), int(i == 0 and j == 1), d) for j in range(m)]
            for i in range(m)]
    return rows[1:] + rows[:1]


def cli_inputs() -> dict:
    """Write the CLI input files; return {name: relative path}."""
    inp = BENCH / "inputs"
    inp.mkdir(exist_ok=True)
    files = {}

    def put(name, obj):
        _write(inp / f"{name}.json", obj)
        files[name] = f"bench/inputs/{name}.json"

    for fid in ("U1", "U2"):
        put(fid, load_fixture(fid).payload.to_json_dict())
    put("S4", load_fixture("S4-standard").payload.to_json_dict())
    rng = random.Random(31)
    put("ha_2_6", gen.arrangement(rng, 2, 6).to_json_dict())
    put("ha_3_6", gen.arrangement(rng, 3, 6).to_json_dict())
    put("ns_4_7", gen.normal_system(rng, 4, 7).to_json_dict())
    # invalid object: vector 4 is twice vector 1, a dependent pair
    put("invalid_ns", {"m": 3, "vectors": [["1", "2", "3"], ["0", "1", "0"],
                                           ["0", "0", "1"], ["2", "4", "6"]]})
    # quadratic-extension inputs
    a = gen.normal_system(rng, 3, 7, d=2)
    vecs, _ = gen.transform_system(rng, a.vectors, _qext_matrix(3, 2))
    put("q2_ns_a", a.to_json_dict())
    put("q2_ns_b", NormalSystem(3, vecs).to_json_dict())
    h = gen.arrangement(rng, 3, 6, d=5)
    mat = _qext_matrix(3, 5)
    rl = gen.Relabel(rng, h.n)
    rows = [[rl.flip[i] * x for x in gen.row_times(r, mat)] for i, r in enumerate(h.coeffs, 1)]
    cons = [rl.flip[i] * c for i, c in enumerate(h.constants, 1)]
    put("q5_ha_a", h.to_json_dict())
    put("q5_ha_b", HyperplaneArrangement(3, rl.place(rows), rl.place(cons)).to_json_dict())
    put("q5_ha_c", gen.arrangement(rng, 3, 6, d=5).to_json_dict())
    put("q2_rg", gen.arrangement(rng, 2, 6, d=2).to_json_dict())
    put("q5_rg", gen.arrangement(rng, 2, 6, d=5).to_json_dict())
    return files


def cli_commands(f: dict) -> list:
    """argv, expected exit and input field of every CLI invocation; the
    QuadExt ones are the heavy class of the cli-mixed workload."""
    light = [
        (["validate", f["U1"]], 0),
        (["validate", f["ha_2_6"]], 0),
        (["validate", f["invalid_ns"]], 2),
        (["signs", f["ha_3_6"]], 0),
        (["cycles", f["U1"]], 0),
        (["--format", "json", "cycles", f["ns_4_7"]], 0),
        (["symbols"], 0),
        (["symbols", f["S4"]], 0),
        (["verify-paper"], 0),
        (["ns-iso", f["U1"], f["U2"]], 3),
        (["--format", "json", "ns-iso", f["U2"], f["U2"]], 0),
    ]
    heavy = [
        (["ns-iso", f["q2_ns_a"], f["q2_ns_b"]], 0),
        (["ha-iso", f["q5_ha_a"], f["q5_ha_b"]], 0),
        (["ha-iso", f["q5_ha_a"], f["q5_ha_c"]], 3),
        (["regions", f["q2_rg"]], 0),
        (["--format", "json", "regions", f["q5_rg"]], 0),
    ]
    return ([{"argv": a, "exit": e, "quadext": False} for a, e in light]
            + [{"argv": a, "exit": e, "quadext": True} for a, e in heavy])


def cli_golden(files: dict) -> list:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for cmd in cli_commands(files):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "normsys.cli", *cmd["argv"]],
            cwd=ROOT, env=env, capture_output=True, timeout=600,
        )
        dt = time.perf_counter() - t0
        _check(proc.returncode == cmd["exit"],
               f"cli {cmd['argv']}: exit {proc.returncode}, expected {cmd['exit']}: "
               f"{proc.stderr.decode()}")
        cmd["stdout"] = proc.stdout.decode()
        out.append(cmd)
        print(f"cli {' '.join(cmd['argv'])} exit={proc.returncode} {dt:.3f}s", flush=True)
    by_argv = {" ".join(c["argv"]): c["stdout"] for c in out}
    _check(by_argv["verify-paper"].strip().endswith("fixtures: 6/6 verified"),
           "verify-paper does not report 6/6")
    _check(len(by_argv["symbols"].split()) == 24, "standard arrangement lacks 24 symbols")
    for c in out:
        if "regions" in c["argv"]:
            _check("OK" in c["stdout"], f"regions formula mismatch: {c['argv']}")
    # oracles for the pairs small enough to enumerate
    for p1, p2 in ((files["U1"], files["U2"]), (files["U2"], files["U2"]),
                   (files["q2_ns_a"], files["q2_ns_b"])):
        ns1 = NormalSystem.from_json_dict(json.loads((ROOT / p1).read_text()))
        ns2 = NormalSystem.from_json_dict(json.loads((ROOT / p2).read_text()))
        _check(normsys.oracle_isomorphisms(ns1, ns2) == normsys.find_isomorphisms(ns1, ns2),
               f"oracle disagrees on {p1} {p2}")
    ha = [HyperplaneArrangement.from_json_dict(json.loads((ROOT / files[k]).read_text()))
          for k in ("q5_ha_a", "q5_ha_b", "q5_ha_c")]
    _check(definition_oracle_isomorphic(ha[0], ha[1], max_n=6), "q5 iso pair not isomorphic")
    _check(not definition_oracle_isomorphic(ha[0], ha[2], max_n=6),
           "q5 non-iso pair is isomorphic by definition")
    return out


def main() -> int:
    golden = BENCH / "golden"
    golden.mkdir(exist_ok=True)
    ns = ns_corpus()
    rg = rg_corpus()
    files = cli_inputs()
    cli = cli_golden(files)
    _write(golden / "ns_iso.json", {"pairs": ns})
    _write(golden / "regions.json", {"arrangements": rg})
    _write(golden / "cli.json", {"commands": cli})
    print("golden answers written to", golden)
    return 0


if __name__ == "__main__":
    sys.exit(main())
