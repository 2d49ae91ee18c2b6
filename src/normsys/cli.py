"""Command-line interface.

Subcommands: validate | cycles | ns-iso | ha-iso | regions | signs |
symbols | verify-paper.  Verdicts go to stdout, diagnostics to stderr.
Exit codes: 0 success / isomorphic, 1 usage or parse error, 2 invalid
object, 3 non-isomorphic verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import arrangements, fixtures
from .arrangements import HyperplaneArrangement
from .cycles import all_cycle_invariants
from .field import QuadExt, parse_value
from .normal_systems import NormalSystem, find_isomorphisms, oracle_isomorphisms
from .sphere import AntipodalArrangement, ArrangementError
from .symbols import compatible_symbols

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_NONISO = 3


class ParseFailure(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseFailure(f"{path}: expected a JSON object")
    return data


def _scalars(path: str, values) -> list:
    if not isinstance(values, list) or not all(isinstance(s, str) for s in values):
        raise ParseFailure(f"{path}: expected lists of scalar strings")
    try:
        return [parse_value(s) for s in values]
    except ValueError as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _load_object(path: str):
    """Parse a file into the object its keys announce; construction
    validates it.  A malformed JSON shape or scalar, or values from two
    quadratic fields, is a parse error; a well-formed invalid object is not.
    """
    data = _load_json(path)
    key = next((k for k in ("vectors", "points", "coeffs") if k in data), None)
    if key is None:
        raise ParseFailure(f"{path}: no 'vectors', 'points' or 'coeffs' key")
    dim = data.get("k" if key == "points" else "m")
    if type(dim) is not int or not isinstance(data[key], list):
        raise ParseFailure(f"{path}: expected an integer dimension and a list of rows")
    rows = [_scalars(path, r) for r in data[key]]
    constants = _scalars(path, data.get("constants")) if key == "coeffs" else []
    if len({x.d for r in rows + [constants] for x in r if isinstance(x, QuadExt)}) > 1:
        raise ParseFailure(f"{path}: values from more than one quadratic field")
    try:
        if key == "vectors":
            return NormalSystem(dim, rows)
        if key == "points":
            return AntipodalArrangement.from_vectors(dim, rows)
        return HyperplaneArrangement(dim, rows, constants)
    except (ArrangementError, ValueError) as exc:
        raise InvalidObject(path, str(exc)) from exc


class InvalidObject(Exception):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def _emit(args, payload: dict, text_lines):
    out = sys.stdout
    close = False
    if args.output:
        out = open(args.output, "w")
        close = True
    try:
        if args.format == "json":
            json.dump(payload, out, indent=1, sort_keys=True)
            out.write("\n")
        else:
            for line in text_lines:
                out.write(line + "\n")
    finally:
        if close:
            out.close()


def _witness_dict(w) -> dict:
    return {
        "pi": {str(i): w.perm[i] for i in w.labels},
        "mu": {str(i): w.signs[i] for i in w.labels},
    }


def _witness_text(w) -> str:
    pi = " ".join(str(w.perm[i]) for i in w.labels)
    mu = " ".join("+" if w.signs[i] > 0 else "-" for i in w.labels)
    return f"pi=({pi}) mu=({mu})"


def cmd_validate(args) -> int:
    # construction validates: an invalid object raises InvalidObject
    kind = {
        NormalSystem: "normal-system",
        AntipodalArrangement: "sphere-arrangement",
        HyperplaneArrangement: "hyperplane-arrangement",
    }[type(_load_object(args.path))]
    _emit(args, {"kind": kind, "valid": True}, [f"{kind}: valid"])
    return EXIT_OK


def _as_sphere(obj, path: str) -> AntipodalArrangement:
    if isinstance(obj, NormalSystem):
        return obj.to_arrangement()
    if isinstance(obj, AntipodalArrangement):
        return obj
    raise InvalidObject(path, "expected a normal system or sphere arrangement")


def cmd_cycles(args) -> int:
    arr = _as_sphere(_load_object(args.path), args.path)
    inv = all_cycle_invariants(arr)
    payload = inv.to_json_dict()
    lines = [f"{key}: ({' '.join(map(str, cyc))})" for key, cyc in payload.items()]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_ns_iso(args) -> int:
    ns1, ns2 = _load_object(args.path1), _load_object(args.path2)
    for path, ns in ((args.path1, ns1), (args.path2, ns2)):
        if not isinstance(ns, NormalSystem):
            raise InvalidObject(path, "expected a normal system")
    if args.oracle:
        witnesses = oracle_isomorphisms(ns1, ns2)
    else:
        witnesses = find_isomorphisms(ns1, ns2)
    iso = bool(witnesses)
    payload = {
        "isomorphic": iso,
        "witnesses": [_witness_dict(w) for w in witnesses],
    }
    lines = ["isomorphic" if iso else "non-isomorphic"]
    lines += [_witness_text(w) for w in witnesses]
    _emit(args, payload, lines)
    return EXIT_OK if iso else EXIT_NONISO


def cmd_ha_iso(args) -> int:
    ha1, ha2 = _load_object(args.path1), _load_object(args.path2)
    for path, ha in ((args.path1, ha1), (args.path2, ha2)):
        if not isinstance(ha, HyperplaneArrangement):
            raise InvalidObject(path, "expected a hyperplane arrangement")
    if args.oracle:
        iso = arrangements.definition_oracle_isomorphic(ha1, ha2)
        payload = {"isomorphic": iso, "method": "definition-oracle"}
        lines = ["isomorphic" if iso else "non-isomorphic"]
    else:
        result = arrangements.arrangements_isomorphic(ha1, ha2)
        iso = result.isomorphic
        payload = {"isomorphic": iso}
        lines = ["isomorphic" if iso else "non-isomorphic"]
        if iso:
            payload["witness"] = _witness_dict(result.witness)
            payload["branch"] = result.branch
            lines.append(f"{_witness_text(result.witness)} branch={result.branch}")
    _emit(args, payload, lines)
    return EXIT_OK if iso else EXIT_NONISO


def cmd_regions(args) -> int:
    ha = _load_object(args.path)
    if not isinstance(ha, HyperplaneArrangement):
        raise InvalidObject(args.path, "expected a hyperplane arrangement")
    total, bounded, unbounded = arrangements.region_counts(ha)
    predicted = arrangements.predicted_counts(ha.n, ha.m)
    formula_ok = (total, bounded, unbounded) == predicted
    payload = {
        "total": total,
        "bounded": bounded,
        "unbounded": unbounded,
        "formula": "OK" if formula_ok else "MISMATCH",
    }
    _emit(
        args,
        payload,
        [
            f"total={total} bounded={bounded} unbounded={unbounded} "
            f"formula={'OK' if formula_ok else 'MISMATCH'}"
        ],
    )
    return EXIT_OK


def cmd_signs(args) -> int:
    ha = _load_object(args.path)
    if not isinstance(ha, HyperplaneArrangement):
        raise InvalidObject(args.path, "expected a hyperplane arrangement")
    smap = arrangements.concurrency_sign_map(ha)
    payload = smap.to_json_dict()
    lines = [f"{key}: {'+' if v > 0 else '-'}" for key, v in payload.items()]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_symbols(args) -> int:
    if args.path:
        arr = _as_sphere(_load_object(args.path), args.path)
    else:
        arr = fixtures.load_fixture("S4-standard").payload
    if arr.n != 4 or arr.dim_k != 2:
        raise InvalidObject(args.path or "<standard>", "need a four-pair 2-sphere arrangement")
    syms = sorted(compatible_symbols(arr))
    payload = {"symbols": [str(s) for s in syms]}
    _emit(args, payload, [str(s) for s in syms])
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    reports = fixtures.verify_all()
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
    _emit(args, payload, lines)
    return EXIT_OK if ok == len(reports) else EXIT_INVALID


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

    p = sub.add_parser("validate", help="check an object file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("cycles", help="line-cycle invariant family")
    p.add_argument("path")
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("ns-iso", help="normal-system isomorphism decision")
    p.add_argument("path1")
    p.add_argument("path2")
    p.set_defaults(func=cmd_ns_iso)

    p = sub.add_parser("ha-iso", help="hyperplane-arrangement isomorphism decision")
    p.add_argument("path1")
    p.add_argument("path2")
    p.set_defaults(func=cmd_ha_iso)

    p = sub.add_parser("regions", help="region counts with formula cross-check")
    p.add_argument("path")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("signs", help="concurrency sign map")
    p.add_argument("path")
    p.set_defaults(func=cmd_signs)

    p = sub.add_parser("symbols", help="compatible symbols of a four-pair arrangement")
    p.add_argument("path", nargs="?", default=None)
    p.set_defaults(func=cmd_symbols)

    p = sub.add_parser("verify-paper", help="verify all bundled fixtures")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvalidObject as exc:
        print(f"invalid object: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
