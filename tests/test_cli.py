import json
import random
from fractions import Fraction

import pytest

from normsys import (
    HyperplaneArrangement,
    find_isomorphisms,
    load_fixture,
    oracle_isomorphisms,
    predicted_counts,
)
from normsys.chirotope import Chirotope
from normsys.cli import main
from conftest import random_arrangement, random_normal_system, transformed_system


@pytest.fixture
def files(tmp_path):
    paths = {}
    for fid in ("U1", "U2"):
        p = tmp_path / f"{fid}.json"
        p.write_text(json.dumps(load_fixture(fid).payload.to_json_dict()))
        paths[fid] = str(p)
    ha = HyperplaneArrangement(
        2,
        [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]],
        [Fraction(0), Fraction(0), Fraction(1)],
    )
    p = tmp_path / "ha.json"
    p.write_text(json.dumps(ha.to_json_dict()))
    paths["ha"] = str(p)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    paths["bad"] = str(bad)
    shape = tmp_path / "shape.json"
    shape.write_text(json.dumps({"m": 2, "vectors": 5}))
    paths["shape"] = str(shape)
    mixed = tmp_path / "mixed.json"
    mixed.write_text(
        json.dumps({"m": 2, "vectors": [["1+1*sqrt(2)", "1"], ["1", "1*sqrt(3)"]]})
    )
    paths["mixed"] = str(mixed)
    paths["dir"] = str(tmp_path)
    return paths


def test_validate(files, capsys):
    assert main(["validate", files["U1"]]) == 0
    assert "valid" in capsys.readouterr().out


def test_parse_error_exit_code(files, capsys):
    # broken JSON, a wrong JSON shape, and two radicands in one file
    for key in ("bad", "shape", "mixed"):
        assert main(["validate", files[key]]) == 1
        assert "parse error" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1


def test_cycles_deterministic(files, capsys):
    assert main(["cycles", files["U1"]]) == 0
    first = capsys.readouterr().out
    assert main(["cycles", files["U1"]]) == 0
    assert capsys.readouterr().out == first
    assert len(first.strip().splitlines()) == 12


def test_ns_iso_verdicts(files, capsys):
    assert main(["ns-iso", files["U1"], files["U2"]]) == 3
    assert capsys.readouterr().out.startswith("non-isomorphic")
    assert main(["ns-iso", files["U1"], files["U1"]]) == 0
    assert capsys.readouterr().out.startswith("isomorphic")
    assert main(["--oracle", "ns-iso", files["U1"], files["U2"]]) == 3


def test_regions_output(files, capsys):
    assert main(["regions", files["ha"]]) == 0
    assert (
        capsys.readouterr().out.strip()
        == "total=7 bounded=1 unbounded=6 formula=OK"
    )


def test_regions_quadratic_field(tmp_path, capsys):
    # end to end over Q(sqrt 5): parse, enumerate and cross-check the formula
    ha = random_arrangement(random.Random(70), 2, 6, 5)
    path = tmp_path / "q5.json"
    path.write_text(json.dumps(ha.to_json_dict()))
    assert "sqrt(5)" in path.read_text()
    assert main(["regions", str(path)]) == 0
    total, bounded, unbounded = predicted_counts(6, 2)
    assert capsys.readouterr().out.strip() == (
        f"total={total} bounded={bounded} unbounded={unbounded} formula=OK"
    )


def test_ns_iso_quadratic_field(tmp_path, capsys):
    # end to end over Q(sqrt 5): planted pairs list the decider's witnesses
    rng = random.Random(71)

    def write(name, ns):
        path = tmp_path / name
        path.write_text(json.dumps(ns.to_json_dict()))
        assert "sqrt(5)" in path.read_text()
        return str(path)

    for m, n in ((2, 6), (3, 6)):
        a = random_normal_system(rng, m, n, 5)
        b = transformed_system(rng, a, 5)
        args = ["--format", "json", "ns-iso", write("a.json", a), write("b.json", b)]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["isomorphic"]
        assert data["witnesses"] == [
            {
                "pi": {str(i): w.perm[i] for i in w.labels},
                "mu": {str(i): w.signs[i] for i in w.labels},
            }
            for w in find_isomorphisms(a, b)
        ]
    a, c = random_normal_system(rng, 3, 6, 5), random_normal_system(rng, 3, 6, 5)
    assert oracle_isomorphisms(a, c) == []
    assert main(["ns-iso", write("a.json", a), write("c.json", c)]) == 3
    assert capsys.readouterr().out.startswith("non-isomorphic")


def test_signs_output(files, capsys):
    assert main(["signs", files["ha"]]) == 0
    out = capsys.readouterr().out.strip()
    assert out in ("1,2,3: +", "1,2,3: -")


def test_json_format(files, capsys):
    assert main(["--format", "json", "regions", files["ha"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"total": 7, "bounded": 1, "unbounded": 6, "formula": "OK"}


def test_output_file(files, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["--output", str(out), "validate", files["ha"]]) == 0
    assert capsys.readouterr().out == ""
    assert "valid" in out.read_text()


def test_symbols_default(capsys):
    assert main(["symbols"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24


def test_verify_paper(capsys):
    assert main(["verify-paper"]) == 0
    assert "fixtures: 6/6 verified" in capsys.readouterr().out


def test_ha_iso_self(files, capsys):
    assert main(["ha-iso", files["ha"], files["ha"]]) == 0
    assert capsys.readouterr().out.startswith("isomorphic")


@pytest.mark.parametrize(
    "argv, builds",
    [
        (["ns-iso", "U1", "U2"], 2),
        (["ha-iso", "ha", "ha"], 4),
        (["regions", "ha"], 2),
        (["signs", "ha"], 2),
        (["cycles", "U1"], 1),
    ],
)
def test_chirotope_built_once_per_input(files, monkeypatch, argv, builds):
    # one chi per normal system, two per hyperplane arrangement (normals
    # and homogenized rows); no command rebuilds them
    ranks = []
    init = Chirotope.__init__

    def counted(self, rank, vectors):
        ranks.append(rank)
        init(self, rank, vectors)

    monkeypatch.setattr(Chirotope, "__init__", counted)
    assert main([argv[0]] + [files[key] for key in argv[1:]]) in (0, 3)
    assert len(ranks) == builds
