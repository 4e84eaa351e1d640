"""Command-line front end: rendering, JSON schema, exit codes, cache."""

import hashlib
import json
import subprocess
import sys

import pytest

from g2atomic.cli import combination_from_json, main, render_combination
from g2atomic.combo import CANONICAL
from g2atomic.kostka import kostka_foulkes
from g2atomic.polyq import from_pairs

from reference_data import REF_ATOMIC_24, REF_KF_69_32, REF_ORDER_24


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_atomic_text(capsys):
    code, out, err = run_cli(capsys, "atomic", "2", "4")
    assert code == 0 and err == ""
    assert out.startswith("Hbar(2,4) = N(2,4) + q N(3,3) + q N(1,4)")
    assert "(2q^4 + q^3 + q^2) N(2,2)" in out
    assert "(q^6 + 2q^5 + q^4 + q^3) N(2,1)" in out
    assert out.rstrip("\n").endswith("+ (q^10 + q^8 + q^6) N(0,0)")


def test_atomic_json(capsys):
    code, out, err = run_cli(capsys, "atomic", "2", "4", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["basis"] == "atomic"
    assert obj["weight"] == [2, 4]
    assert [tuple(t["weight"]) for t in obj["terms"]] == REF_ORDER_24
    for t in obj["terms"]:
        exps = [e for e, c in t["poly"]]
        assert exps == sorted(exps)
    x, lam = combination_from_json(obj)
    assert lam == (2, 4)
    assert x.terms == REF_ATOMIC_24
    # lossless round trip through the renderer
    assert render_combination(x, CANONICAL, lam, "json") == out.rstrip("\n")


def test_atomic_latex(capsys):
    code, out, _ = run_cli(capsys, "atomic", "2", "4", "--format", "latex")
    assert code == 0
    assert out.startswith(
        "\\underline{\\mathbf{H}}_{(2,4)} = \\mathbf{N}_{(2,4)}"
        " + q \\, \\mathbf{N}_{(3,3)}")
    assert "(2q^{4} + q^{3} + q^{2}) \\, \\mathbf{N}_{(2,2)}" in out
    assert out.rstrip("\n").endswith(
        "(q^{10} + q^{8} + q^{6}) \\, \\mathbf{N}_{(0,0)}")


def test_atomic_methods_agree(capsys):
    for a, b in [(3, 3), (2, 4), (7, 3), (0, 12)]:
        for fmt in ("text", "json", "latex"):
            argv = ["atomic", str(a), str(b), "--format", fmt]
            code1, out1, _ = run_cli(capsys, *argv)
            code2, out2, _ = run_cli(capsys, *argv, "--method", "adjusted")
            code3, out3, _ = run_cli(capsys, *argv, "--method", "precanonical")
            assert code1 == code2 == code3 == 0
            assert out1 == out2 == out3, argv


# sha256 of stdout, recorded before the adjusted route became the default.
GOLDEN_STDOUT = {
    "atomic 2 4 --format text": "17c8300ee39051a3d69010568a574ecdd00665a093431cd431cf670316cf2f31",
    "atomic 2 4 --format json": "1560eca7f4f7452075c7b77c45f782758cab92e7a217644d259352d1a2667335",
    "atomic 2 4 --format latex": "118cee87c8e7fc2b7165f994dc2f9773f6d70ec833407e41fe202d4c2a6bb09c",
    "atomic 7 3 --format text": "649d54d36f529481d7e9ce47655df774f944f2b657f8ef078e43536336d61c48",
    "atomic 7 3 --format json": "5f74281f81b012787d9cb18af1764d68bee1acc4b8ae207bce1ebcf260839f14",
    "atomic 7 3 --format latex": "bedde7f93da7a908d2f535edd92ee909dffeb1b3356e0b0c33741b6502429a7e",
    "atomic 0 12 --format text": "741045521de4c5bb6803c4faf62d6b412b2d604b5cd8ac963f051e4de8d2cfc2",
    "atomic 0 12 --format json": "b133f862bb9da71ad1afd3f60359b9e734d1552e1ff88cbcdccd7fd97080f9da",
    "atomic 0 12 --format latex": "e5f0c1b7932b658947b4c49cf2ee5b2fea8832bacf5943cf7be34654943620f9",
    "standard 5 5 --format text": "c919bb5649190311ea070771412ed7788194222214d26f1321054fabd1b8a3e5",
    "standard 5 5 --format json": "431fdd73a4853ab8ef7d695b9ec2d2aa027768387dee39d3224ed79a53390046",
    "standard 5 5 --format latex": "deac3029b6ad08430f87d9f81d88df15df355ecab3fe03b5ae3678d3c9cf3b48",
    "kf 6 9 3 2 --format text": "cf1e4e615dae5a6d7d15b04022c53341ad1396fe9eddbe25daa4c9869fc4a057",
    "kf 6 9 3 2 --format json": "35b776c6b578d18c0fdecc5c98e3d6a74da5b6aadba1f88bb8c2b3f350e73a46",
    "kf 6 9 3 2 --format latex": "b451503f4fc1d243d20a3b2ac81a045737d0b9d314ac7ac2223d65c326b99f41",
    "verify --max-a 4 --max-b 4 --format json": "a3262d5197bec6c89c3ce026b08e3ecfc2e45fee4913e7a698a24024c6583fed",
}


def test_golden_stdout(capsys):
    for cmd, want in GOLDEN_STDOUT.items():
        code, out, err = run_cli(capsys, *cmd.split())
        assert code == 0 and err == "", cmd
        assert hashlib.sha256(out.encode()).hexdigest() == want, cmd


def test_kf_text(capsys):
    code, out, _ = run_cli(capsys, "kf", "6", "9", "3", "2")
    assert code == 0
    s = out.rstrip("\n")
    assert s.startswith("q^44 + q^43 + 2q^42 + 3q^41")
    assert "51q^20" in s
    assert s.endswith("4q^10 + q^9")
    assert code == 0


def test_kf_trivial_and_zero(capsys):
    code, out, _ = run_cli(capsys, "kf", "0", "0", "0", "0")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "kf", "1", "2", "9", "9")
    assert code == 0 and out == "0\n"


def test_kf_json(capsys):
    code, out, _ = run_cli(capsys, "kf", "6", "9", "3", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda"] == [6, 9] and obj["mu"] == [3, 2]
    assert from_pairs(obj["poly"]) == REF_KF_69_32
    exps = [e for e, c in obj["poly"]]
    assert exps == sorted(exps)
    code, out, _ = run_cli(capsys, "kf", "2", "0", "0", "0",
                           "--format", "json")
    assert json.loads(out)["poly"] == [[2, 1], [4, 1], [6, 1]]


def test_standard_text(capsys):
    code, out, _ = run_cli(capsys, "standard", "0", "1")
    assert code == 0
    assert out == "Hbar(0,1) = H(0,1) + q^2 H(1,0) + (q^5 + q) H(0,0)\n"


def test_standard_json_matches_kf(capsys):
    code, out, _ = run_cli(capsys, "standard", "3", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["basis"] == "standard"
    for t in obj["terms"]:
        mu = tuple(t["weight"])
        assert from_pairs(t["poly"]) == kostka_foulkes((3, 1), mu)


def test_expand_text(capsys):
    code, out, _ = run_cli(capsys, "expand", "--level", "2", "2", "0")
    assert code == 0
    assert out == "N2(2,0) = Hbar(2,0) - q Hbar(1,0) - q^2 Hbar(0,0)\n"
    code, out, _ = run_cli(capsys, "expand", "--level", "6", "1", "1")
    assert code == 0
    assert out == "Hbar(1,1) = Hbar(1,1)\n"


def test_expand_latex(capsys):
    code, out, _ = run_cli(capsys, "expand", "--level", "2", "2", "0",
                           "--format", "latex")
    assert out == ("\\mathbf{N}^{2}_{(2,0)} = \\underline{\\mathbf{H}}_{(2,0)}"
                   " - q \\, \\underline{\\mathbf{H}}_{(1,0)}"
                   " - q^{2} \\, \\underline{\\mathbf{H}}_{(0,0)}\n")


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-a", "2", "--max-b", "2")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[-1].startswith("all checks passed")
    assert all(line.startswith("ok  ") for line in lines[:-1])
    assert len(lines) == 16


def test_verify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-a", "2", "--max-b", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_a"] == 2 and obj["max_b"] == 2
    assert obj["ok"] is True
    assert len(obj["checks"]) == 15
    for c in obj["checks"]:
        assert set(c) == {"name", "ok", "detail"}
        assert c["ok"] is True
    names = [c["name"] for c in obj["checks"]]
    assert "adjusted.cross-approach" in names
    assert "kostka.at-one-vs-freudenthal" in names
    assert "lattice.membership-tables" in names


def test_error_exits(capsys):
    assert run_cli(capsys, "atomic", "-1", "2")[0] == 1
    assert run_cli(capsys, "atomic", "2", "-4")[0] == 1
    assert run_cli(capsys, "kf", "1", "1", "-1", "0")[0] == 1
    assert run_cli(capsys, "bogus")[0] == 1
    assert run_cli(capsys, "atomic", "x", "4")[0] == 1
    assert run_cli(capsys, "expand", "--level", "9", "1", "1")[0] == 1
    assert run_cli(capsys, "kf", "1", "2")[0] == 1
    assert run_cli(capsys)[0] == 1
    code, out, err = run_cli(capsys, "atomic", "-1", "2")
    assert out == "" and err != ""


def test_cache_roundtrip(tmp_path, capsys):
    path = tmp_path / "cache.json"
    code, out1, _ = run_cli(capsys, "atomic", "2", "4", "--cache", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert "2,4" in data
    code, out2, _ = run_cli(capsys, "atomic", "2", "4", "--cache", str(path))
    assert code == 0 and out2 == out1
    # second weight appends to the same file
    run_cli(capsys, "atomic", "1", "0", "--cache", str(path))
    data = json.loads(path.read_text())
    assert set(data) == {"2,4", "1,0"}


def test_cache_corruption_detected(tmp_path, capsys):
    path = tmp_path / "cache.json"
    run_cli(capsys, "atomic", "2", "4", "--cache", str(path))
    data = json.loads(path.read_text())
    data["2,4"]["terms"][0]["poly"][0][1] = 5
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "atomic", "2", "4", "--cache", str(path))
    assert code == 1
    assert "invalid cache file" in err
    path.write_text("not json at all")
    code, out, err = run_cli(capsys, "atomic", "2", "4", "--cache", str(path))
    assert code == 1
    # An entry that is not an object is rejected whether it is the entry
    # probed on load or the one served.  Padding moves the probe.
    code, out, _ = run_cli(capsys, "atomic", "2", "4", "--format", "json")
    outcomes = set()
    for pad in range(8):
        path.write_text(json.dumps({"1,0": [1, 2], "2,4": json.loads(out)})
                        + " " * pad)
        code, _, err = run_cli(capsys, "atomic", "1", "0", "--cache", str(path))
        assert code == 1
        assert err.startswith("error: invalid cache file: ") and err.count("\n") == 1
        code, _, err = run_cli(capsys, "atomic", "2", "4", "--cache", str(path))
        outcomes.add(code)
    assert outcomes == {0, 1}


def test_subprocess_determinism():
    cmds = [
        ["atomic", "2", "4", "--format", "json"],
        ["atomic", "2", "4", "--format", "latex"],
        ["kf", "6", "9", "3", "2"],
        ["verify", "--max-a", "2", "--max-b", "2", "--format", "json"],
    ]
    for cmd in cmds:
        runs = [subprocess.run([sys.executable, "-m", "g2atomic.cli"] + cmd,
                               capture_output=True, check=True)
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout, cmd
        assert runs[0].stdout


def test_entry_point_exit_code():
    proc = subprocess.run([sys.executable, "-m", "g2atomic.cli",
                           "atomic", "2", "-4"], capture_output=True)
    assert proc.returncode == 1
    proc = subprocess.run([sys.executable, "-m", "g2atomic.cli",
                           "kf", "0", "0", "0", "0"], capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == b"1"
