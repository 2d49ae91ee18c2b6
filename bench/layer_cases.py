"""One-shot layer cases: the ROADMAP's probe table, re-stated by a script.

    python3 bench/layer_cases.py

Times ``find_isomorphisms`` on planted pairs at (3,10), (4,8) and (5,8),
``region_counts`` at (2,8), (3,8) and (3,9), ``linalg.det`` on random 3x3,
4x4 and 5x5 matrices over Fraction and over Q(sqrt 2), and ``cone_facets``
on one (2,7) arrangement under four hyperplane orders.  Inputs come from
``random.Random(1)``.  Each library call is timed once (``det`` as the
median over 200 matrices), so this is a coarse probe, not part of the
seeded workload runs.  Results print as a table and go to
``.bench_out/layer_cases.json``.
"""

import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import normsys  # noqa: E402
from normsys import HyperplaneArrangement, Matrix, NormalSystem  # noqa: E402

import gen  # noqa: E402

DET_SAMPLES = 200


def timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


def main() -> int:
    rng = random.Random(1)
    rows = []
    for m, n in ((3, 10), (4, 8), (5, 8)):
        a = gen.normal_system(rng, m, n)
        vecs, _ = gen.transform_system(rng, a.vectors, gen.invertible(rng, m))
        dt, ws = timed(normsys.find_isomorphisms, a, NormalSystem(m, vecs))
        rows.append(("find_isomorphisms", f"({m},{n})", dt, f"{len(ws)} witnesses"))
    for m, n in ((2, 8), (3, 8), (3, 9)):
        ha = gen.arrangement(rng, m, n)
        dt, counts = timed(normsys.region_counts, ha)
        rows.append(("region_counts", f"({m},{n})", dt, f"counts {counts}"))
    for size in (3, 4, 5):
        for field, draw in (("Fraction", lambda: gen.rand_fraction(rng)),
                            ("QuadExt(2)", lambda: gen.rand_quad(rng, 2))):
            times = []
            for _ in range(DET_SAMPLES):
                mat = Matrix([[draw() for _ in range(size)] for _ in range(size)])
                times.append(timed(normsys.det, mat)[0])
            rows.append(("linalg.det", f"{size}x{size} {field}", statistics.median(times),
                         f"median of {DET_SAMPLES}"))
    ha = gen.arrangement(rng, 2, 7)
    for k in range(4):
        order = list(range(ha.n))
        if k:
            rng.shuffle(order)
        ha_k = HyperplaneArrangement(2, [ha.coeffs[i] for i in order],
                                     [ha.constants[i] for i in order])
        dt, facets = timed(normsys.cone_facets, ha_k)
        rows.append(("cone_facets", f"(2,7) order {k}", dt, f"{len(facets)} facets"))

    print(f"{'call':<18} {'case':<22} {'seconds':>10}  note")
    for call, case, dt, note in rows:
        print(f"{call:<18} {case:<22} {dt:>10.6f}  {note}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "layer_cases.json").write_text(json.dumps(
        {"python": sys.version.split()[0],
         "cases": [{"call": c, "case": k, "seconds": dt, "note": n} for c, k, dt, n in rows]},
        indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
