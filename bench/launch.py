"""Run the normsys CLI in this process, as the ``normsys`` console script
does, optionally with the benchmark's tracer installed.

    python3 bench/launch.py [--trace OUT.json.gz] -- CLI ARGS...

With ``--trace`` the spans and per-function aggregates of this process are
written to OUT when ``main`` returns.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def run(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out is None:
        from normsys.cli import main

        return main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    from normsys import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
