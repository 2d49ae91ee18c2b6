"""Differential check of the normsys CLI between two source trees.

    python3 tools/cli_differential.py run SRC OUT.json
    python3 tools/cli_differential.py compare A.json B.json

``run`` imports ``normsys.cli`` from the directory SRC (a checkout's
``src``) and calls ``main`` in-process over a fixed argv matrix:

- every subcommand x {default, --format json, --format text} x {with,
  without --oracle}, on every file of ``bench/inputs`` (every ordered pair
  for ``ns-iso`` and ``ha-iso``), on edge-shape files and on malformed
  files;
- the same commands with ``--output``, and with an unwritable ``--output``;
- ``--help`` of the program and of each subcommand, and usage errors;
- the commands recorded in ``bench/golden/cli.json``.

It writes one record per call: argv, exit code, stdout, stderr and the
contents of the ``--output`` file (or the exception, should ``main``
raise).  The calls run in a scratch directory that holds copies of the
inputs under fixed relative names, so the records of two trees can be
compared byte for byte.  ``compare`` reports every argv whose records
differ and exits 1 if any do.

Standard library only.  The exhaustive oracles make a run take about
three minutes on one CPU; it is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
INPUTS = REPO / "bench" / "inputs"
GOLDEN = REPO / "bench" / "golden" / "cli.json"

ONE_FILE = ("validate", "cycles", "regions", "signs", "symbols")
TWO_FILES = ("ns-iso", "ha-iso")
VARIANTS = [
    fmt + oracle
    for fmt in ([], ["--format", "json"], ["--format", "text"])
    for oracle in ([], ["--oracle"])
]
NO_DIR = "no-such-dir/out.txt"


def _ns(m, *rows):
    return {"m": m, "vectors": [[str(x) for x in r] for r in rows]}


def _sp(k, *rows):
    return {"k": k, "points": [[str(x) for x in r] for r in rows]}


def _ha(m, rows, constants):
    coeffs = [[str(x) for x in r] for r in rows]
    return {"m": m, "coeffs": coeffs, "constants": [str(c) for c in constants]}


def _units(m):
    """The unit vectors of F^m and their sum."""
    return [[int(i == j) for j in range(m)] for i in range(m)] + [[1] * m]


PLANE4 = ([1, 0], [0, 1], [1, 1], [1, -1])

# small and degenerate shapes, the oracles' range and the size guards
EDGE = {
    "ns_empty": _ns(2),
    "ns_1_3": _ns(1, [1], [-2], [3]),
    "ns_2_2": _ns(2, [1, 0], [0, 1]),
    "ns_3_2": _ns(3, [1, 0, 0], [0, 1, 0]),
    "ns_2_4a": _ns(2, *PLANE4),
    "ns_2_4b": _ns(2, [1, 2], [3, 1], [-1, 1], [2, -5]),
    "ns_3_5a": _ns(3, *_units(3), [1, 2, 4]),
    "ns_3_5b": _ns(3, *_units(3), [-1, 2, 3]),
    "ns_2_8": _ns(2, [1, 0], [0, 1], *([1, i] for i in range(1, 7))),
    "ns_8_9": _ns(8, *_units(8)),
    "ns_20_21": _ns(20, *_units(20)),
    "sp_0_2": _sp(0, [1], [-1]),
    "sp_1_3": _sp(1, [1, 0], [0, 1], [1, 1]),
    "sp_2_5": _sp(2, *_units(3), [1, 2, 4]),
    "ha_empty_1": _ha(1, [], []),
    "ha_empty_3": _ha(3, [], []),
    "ha_1_3": _ha(1, [[1], [2], [-1]], [0, 1, 5]),
    "ha_2_2": _ha(2, [[1, 0], [0, 1]], [0, 0]),
    "ha_2_4a": _ha(2, PLANE4, [0, 0, 1, 3]),
    "ha_2_4b": _ha(2, [[1, 0], [0, 1], [1, 1], [1, -2]], [1, -1, 0, 5]),
    "ha_2_5": _ha(2, [*PLANE4, [2, 1]], [0, 0, 1, 3, 7]),
    "ha_2_5b": _ha(2, [*PLANE4, [2, 1]], [0, 0, 1, 3, -7]),
    "ha_concurrent": _ha(2, [[1, 0], [0, 1], [1, 1]], [0, 0, 0]),
}

MALFORMED = {
    "bad": "{not json",
    "list": "[1, 2]",
    "nokey": json.dumps({"m": 2}),
    "dimstr": json.dumps({"m": "2", "vectors": []}),
    "rows": json.dumps({"m": 2, "vectors": 5}),
    "nonstr": json.dumps({"m": 2, "vectors": [[1, 0], [0, 1]]}),
    "ragged": json.dumps({"m": 2, "vectors": [["1", "0"], ["1"]]}),
    "scalar": json.dumps({"m": 2, "vectors": [["1/x", "1"], ["1", "2"]]}),
    "zero": json.dumps({"m": 2, "vectors": [["1/0", "1"], ["1", "2"]]}),
    "zeroq": json.dumps({"m": 2, "vectors": [["1/0*sqrt(2)", "1"], ["1", "2"]]}),
    "mixed": json.dumps({"m": 2, "vectors": [["1+1*sqrt(2)", "1"], ["1", "1*sqrt(3)"]]}),
    "radicand": json.dumps({"m": 1, "vectors": [["1*sqrt(4294967311)"]]}),
    "constants": json.dumps({"m": 1, "coeffs": [["1"]], "constants": "0"}),
    "nested": "[" * 100_000,
    "digits": '{"m": ' + "7" * 5000 + ', "vectors": []}',
}


def _matrix(files, pair_files):
    """Every argv of a run, in a fixed order."""
    pairs = [[a, b] for a in pair_files for b in pair_files]
    argvs = [[], ["--help"], ["no-such"], ["--format", "xml", "verify-paper"], ["--oracle"]]
    for name in ONE_FILE + TWO_FILES + ("verify-paper",):
        argvs += [[name, "--help"], [name, "extra", "args", "here"]]
    argvs += [v + [cmd] for v in VARIANTS for cmd in ("verify-paper", "symbols")]
    argvs += [v + [cmd, f] for v in VARIANTS for cmd in ONE_FILE for f in files]
    argvs += [v + [cmd, *p] for v in VARIANTS for cmd in TWO_FILES for p in pairs]
    for out in (["--output", "out.txt"], ["--format", "json", "--output", "out.txt"]):
        argvs += [out + [cmd, f] for cmd in ONE_FILE for f in files]
    argvs += [["--output", "out.txt", cmd, *p] for cmd in TWO_FILES for p in pairs]
    argvs += [["--output", NO_DIR, cmd, "U1.json"] for cmd in ONE_FILE]
    argvs += [["--output", NO_DIR, cmd, "U1.json", "U2.json"] for cmd in TWO_FILES]
    argvs += [["--output", NO_DIR, "validate", "bad.json"], ["--output", ".", "verify-paper"]]
    argvs += [c["argv"] for c in json.loads(GOLDEN.read_text())["commands"]]
    return argvs


def _setup(work: Path):
    """Copy the inputs into work (and into work/bench/inputs, for the
    recorded commands) and write the edge and malformed files; returns the
    file lists for one-file commands and for pairs."""
    (work / "bench" / "inputs").mkdir(parents=True)
    inputs = sorted(p.name for p in INPUTS.glob("*.json"))
    for name in inputs:
        shutil.copy(INPUTS / name, work / name)
        shutil.copy(INPUTS / name, work / "bench" / "inputs" / name)
    for name, data in EDGE.items():
        (work / f"{name}.json").write_text(json.dumps(data))
    for name, text in MALFORMED.items():
        (work / f"{name}.json").write_text(text)
    (work / "undecodable.json").write_bytes(b"\xff\xfe{")
    edge = [f"{n}.json" for n in EDGE]
    files = inputs + edge + [f"{n}.json" for n in MALFORMED]
    files += ["undecodable.json", "missing.json", "."]
    pairs = inputs + [f for f in edge if not f.startswith("sp_")] + ["bad.json", "missing.json"]
    return files, pairs


def run(src: str, out: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    from normsys.cli import main

    os.environ["COLUMNS"] = "80"  # argparse wraps its usage to this width
    home = os.getcwd()
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files, pairs = _setup(work)
        target = work / "out.txt"
        os.chdir(work)
        try:
            for argv in _matrix(files, pairs):
                stdout, stderr = io.StringIO(), io.StringIO()
                record = {"argv": argv}
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        record["exit"] = main(list(argv))
                    except (Exception, SystemExit) as exc:  # both trees must agree on it
                        record["raised"] = f"{type(exc).__name__}: {exc}"
                record["stdout"], record["stderr"] = stdout.getvalue(), stderr.getvalue()
                record["output"] = target.read_text() if target.exists() else None
                target.unlink(missing_ok=True)
                records.append(record)
        finally:
            os.chdir(home)
    Path(out).write_text(json.dumps(records))
    print(f"{len(records)} invocations recorded in {out}")
    return 0


def compare(a: str, b: str) -> int:
    ra, rb = (json.loads(Path(p).read_text()) for p in (a, b))
    ka = {json.dumps(r["argv"]): r for r in ra}
    kb = {json.dumps(r["argv"]): r for r in rb}
    mismatches = sorted(k for k in ka.keys() | kb.keys() if ka.get(k) != kb.get(k))
    for key in mismatches:
        print(f"MISMATCH {key}")
        for field in ("exit", "raised", "stdout", "stderr", "output"):
            va, vb = (r.get(key, {}).get(field) for r in (ka, kb))
            if va != vb:
                print(f"  {field}: {va!r:.200} != {vb!r:.200}")
    print(f"{len(ra)} and {len(rb)} invocations compared, {len(mismatches)} mismatches")
    return 1 if mismatches or len(ra) != len(rb) else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] in ("run", "compare"):
        sys.exit((run if args[0] == "run" else compare)(*args[1:]))
    sys.exit(__doc__)
