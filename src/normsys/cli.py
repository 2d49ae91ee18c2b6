"""Command-line interface.

Subcommands: validate | cycles | ns-iso | ha-iso | regions | signs |
symbols | verify-paper.  Verdicts go to stdout, diagnostics to stderr.
Exit codes: 0 success / isomorphic, 1 usage or parse error (an unwritable
``--output`` path included), 2 invalid object, 3 non-isomorphic verdict.

Each ``cmd_*`` handler does no I/O: it returns (payload, text lines, exit
code), and ``main`` writes the payload as JSON or the lines as text.  A
handler imports the modules it calls, and the loader only the module of
the class it builds, so a process compiles no module its command does not
use.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .field import parse_rows

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NONISO = 3

# each kind by its file's key: its dimension key and its name in messages,
# which ``validate`` reports hyphenated
KINDS = {
    "vectors": ("m", "normal system"),
    "points": ("k", "sphere arrangement"),
    "coeffs": ("m", "hyperplane arrangement"),
}
SPHERE = ("vectors", "points")


class ParseFailure(Exception):
    pass


class InvalidObject(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad syntax, bytes that are not UTF-8 and integers
        # past the digit limit; RecursionError, arrays nested too deep
        raise ParseFailure(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseFailure(f"{path}: expected a JSON object")
    return data


def _build(key: str, dim: int, rows: list, constants: list):
    """The object of a file's key, from the class's own module alone."""
    if key == "vectors":
        from .normal_systems import NormalSystem

        return NormalSystem(dim, rows)
    if key == "points":
        from .sphere import AntipodalArrangement

        return AntipodalArrangement.from_vectors(dim, rows)
    from .arrangements import HyperplaneArrangement

    return HyperplaneArrangement(dim, rows, constants)


def _load_object(path: str):
    """Parse a file into (its key, the object the key announces);
    construction validates the object.  A shape that ``field.parse_rows``
    refuses is a parse error; a well-formed invalid object is not.
    """
    data = _load_json(path)
    key = next((k for k in KINDS if k in data), None)
    if key is None:
        raise ParseFailure(f"{path}: no 'vectors', 'points' or 'coeffs' key")
    constants = "constants" if key == "coeffs" else None
    try:
        parsed = parse_rows(data, KINDS[key][0], key, constants)
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc
    try:
        return key, _build(key, *parsed)
    except ValueError as exc:  # an ArrangementError included
        raise InvalidObject(f"{path}: {exc}") from exc


def _load_required(kinds: tuple, *paths: str) -> list:
    """Parse every file, then require each object to be of one of the kinds'
    keys.  Where sphere arrangements are accepted, a normal system is read
    as one."""
    loaded = [_load_object(path) for path in paths]
    for path, (key, _) in zip(paths, loaded):
        if key not in kinds:
            noun = " or ".join(KINDS[kind][1] for kind in kinds)
            raise InvalidObject(f"{path}: expected a {noun}")
    if "points" in kinds:
        return [o.to_arrangement() if key == "vectors" else o for key, o in loaded]
    return [o for _, o in loaded]


def _witness_dict(w) -> dict:
    return {
        "pi": {str(i): w.perm[i] for i in w.labels},
        "mu": {str(i): w.signs[i] for i in w.labels},
    }


def _witness_text(w) -> str:
    pi = " ".join(str(w.perm[i]) for i in w.labels)
    mu = " ".join("+" if w.signs[i] > 0 else "-" for i in w.labels)
    return f"pi=({pi}) mu=({mu})"


def _verdict(iso: bool, payload: dict, lines: list):
    """An isomorphism decision: the verdict heads the payload and the text,
    and a non-isomorphic pair exits 3."""
    head = "isomorphic" if iso else "non-isomorphic"
    code = EXIT_OK if iso else EXIT_NONISO
    return {"isomorphic": iso, **payload}, [head] + lines, code


def cmd_validate(args):
    # construction validates: an invalid object raises InvalidObject
    key, _ = _load_object(args.path)
    kind = KINDS[key][1].replace(" ", "-")
    return {"kind": kind, "valid": True}, [f"{kind}: valid"], EXIT_OK


def cmd_cycles(args):
    from .cycles import all_cycle_invariants

    [arr] = _load_required(SPHERE, args.path)
    payload = all_cycle_invariants(arr).to_json_dict()
    lines = [f"{key}: ({' '.join(map(str, cyc))})" for key, cyc in payload.items()]
    return payload, lines, EXIT_OK


def cmd_ns_iso(args):
    from .normal_systems import find_isomorphisms, oracle_isomorphisms

    ns1, ns2 = _load_required(("vectors",), args.path1, args.path2)
    search = oracle_isomorphisms if args.oracle else find_isomorphisms
    witnesses = search(ns1, ns2)
    return _verdict(
        bool(witnesses),
        {"witnesses": [_witness_dict(w) for w in witnesses]},
        [_witness_text(w) for w in witnesses],
    )


def cmd_ha_iso(args):
    from . import arrangements

    ha1, ha2 = _load_required(("coeffs",), args.path1, args.path2)
    if args.oracle:
        iso = arrangements.definition_oracle_isomorphic(ha1, ha2)
        return _verdict(iso, {"method": "definition-oracle"}, [])
    result = arrangements.arrangements_isomorphic(ha1, ha2)
    if not result.isomorphic:
        return _verdict(False, {}, [])
    w, branch = result.witness, result.branch
    return _verdict(
        True,
        {"witness": _witness_dict(w), "branch": branch},
        [f"{_witness_text(w)} branch={branch}"],
    )


def cmd_regions(args):
    from . import arrangements

    [ha] = _load_required(("coeffs",), args.path)
    counts = arrangements.region_counts(ha)
    formula_ok = counts == arrangements.predicted_counts(ha.n, ha.m)
    payload = dict(
        zip(("total", "bounded", "unbounded"), counts),
        formula="OK" if formula_ok else "MISMATCH",
    )
    return payload, [" ".join(f"{k}={v}" for k, v in payload.items())], EXIT_OK


def cmd_signs(args):
    from . import arrangements

    [ha] = _load_required(("coeffs",), args.path)
    hom = arrangements.concurrency_sign_map(ha)
    payload = {",".join(map(str, k)): v for k, v in hom.signs.items()}
    lines = [f"{key}: {'+' if v > 0 else '-'}" for key, v in payload.items()]
    return payload, lines, EXIT_OK


def cmd_symbols(args):
    from .symbols import compatible_symbols, standard_arrangement

    arr = _load_required(SPHERE, args.path)[0] if args.path else standard_arrangement()
    if arr.n != 4 or arr.dim_k != 2:
        path = args.path or "<standard>"
        raise InvalidObject(f"{path}: need a four-pair 2-sphere arrangement")
    syms = [str(s) for s in sorted(compatible_symbols(arr))]
    return {"symbols": syms}, syms, EXIT_OK


def cmd_verify_paper(args):
    from .fixtures import verify_all

    reports = verify_all()
    ok = sum(1 for r in reports if r.ok)
    lines = []
    for r in reports:
        lines.append(f"{r.id}: {'ok' if r.ok else 'FAIL'}")
        for d in r.diffs:
            lines.append(f"  {d}")
    lines.append(f"fixtures: {ok}/{len(reports)} verified")
    payload = {
        "verified": ok,
        "total": len(reports),
        "reports": {r.id: list(r.diffs) for r in reports},
    }
    return payload, lines, EXIT_OK if ok == len(reports) else EXIT_INVALID


# (name, handler, help, positionals); a trailing "?" marks an optional one
COMMANDS = (
    ("validate", cmd_validate, "check an object file", ("path",)),
    ("cycles", cmd_cycles, "line-cycle invariant family", ("path",)),
    ("ns-iso", cmd_ns_iso, "normal-system isomorphism decision", ("path1", "path2")),
    ("ha-iso", cmd_ha_iso, "hyperplane-arrangement isomorphism decision", ("path1", "path2")),
    ("regions", cmd_regions, "region counts with formula cross-check", ("path",)),
    ("signs", cmd_signs, "concurrency sign map", ("path",)),
    ("symbols", cmd_symbols, "compatible symbols of a four-pair arrangement", ("path?",)),
    ("verify-paper", cmd_verify_paper, "verify all bundled fixtures", ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normsys",
        description="Exact invariants and isomorphism decisions for normal "
        "systems and hyperplane arrangements.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--output", metavar="PATH", default=None)
    parser.add_argument(
        "--oracle", action="store_true", help="force the brute-force decision path"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, positionals in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg.rstrip("?"), nargs="?" if arg.endswith("?") else None)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        payload, lines, code = args.func(args)
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidObject as exc:
        print(f"invalid object: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    # the output file is opened only once the command has returned
    try:
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
            if args.format == "json":
                json.dump(payload, out, indent=1, sort_keys=True)
                out.write("\n")
            else:
                out.writelines(line + "\n" for line in lines)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
