"""Command-line front end: rendering, JSON schema, exit codes, import path."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from g2atomic import adjusted, checks, cli, combo
from g2atomic.cli import main
from g2atomic.combo import ATOMIC, CANONICAL, STANDARD, Combination
from g2atomic.kostka import CheckResult, kostka_foulkes
from g2atomic.lattice import dominant_box
from g2atomic.render import combination_parts

from reference_data import REF_ATOMIC_24, REF_KF_69_32, REF_ORDER_24


# The bases that the JSON round trips below read back, by their strings.
LABELS = {str(x): x for x in (ATOMIC, STANDARD, CANONICAL)}


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
    terms = {tuple(t["weight"]): {e: c for e, c in t["poly"]} for t in obj["terms"]}
    assert terms == REF_ATOMIC_24
    # lossless round trip through the renderer
    x = Combination(LABELS[obj["basis"]], terms)
    lam = tuple(obj["weight"])
    assert "".join(combination_parts(x, CANONICAL, lam, "json")) == out.rstrip("\n")


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
    # recorded before the check registry and the renderer were merged
    "expand --level 2 2 3 --format text": "7c9534c6d350d22a68323c8435ade6bd6f846f5b63f9c8be6d412abf663a2e08",
    "expand --level 2 2 3 --format json": "b2620bc0fe9616df652a60a82843c71fc888b5f198361302f7240db8511b5295",
    "expand --level 2 2 3 --format latex": "c6db164892e667ec19c260d1dae3345876f8ab7e25c0dbcaff37005deddcedae",
    "expand --level 3 2 3 --format text": "a68d962c010fd984558ba25c9fc6987e12aba233bdda7577ffcc8b7376cabbe6",
    "expand --level 3 2 3 --format json": "048c30a4175eaf593314802ce0abc93a616dbd07b231d634684fdd90f1f67e2f",
    "expand --level 3 2 3 --format latex": "7d260028229cb93a5e8dfe77829ef02d0177fed93b292d19763a698a78593f10",
    "expand --level 4 2 3 --format text": "d1c926726faa174df5e4fe2e63bc52734bf48cae4bb7db7841f2d973f667bd9a",
    "expand --level 4 2 3 --format json": "2609ac937d7e10ddaf95cfd2d1efdd7070c5eead86212306c5a29372118ac21c",
    "expand --level 4 2 3 --format latex": "9856b2f79ecfedc80aa2662857254f4e9418dd5a20e2530c0b364070981d81b7",
    "expand --level 5 2 3 --format text": "4cc2af16d86b62594e507c5fc42030eb2ef71d38927c06eea57b96fe27e2c44e",
    "expand --level 5 2 3 --format json": "2609ac937d7e10ddaf95cfd2d1efdd7070c5eead86212306c5a29372118ac21c",
    "expand --level 5 2 3 --format latex": "c16d374953d344e4d1858e4da4d2e319de7ee8bcc5df3ec92bb666040f5f325a",
    "expand --level 6 2 3 --format text": "d54648a9356293e4381e597c971ab393e5c2303ed85b2116d43bfa5cdccad284",
    "expand --level 6 2 3 --format json": "e0e066c2e144f609b383ac96ec019e0af2a91531dbcbf688c0836fe33153d2bc",
    "expand --level 6 2 3 --format latex": "31911cba724505aae79f38a4257c087f1fd2aba575d057b4dd9380d79a6552ca",
    "verify --max-a 4 --max-b 4 --format text": "17dd0839aeb815994d91e3f32f7f0bf9a9c48f6f1e7938845ced8797a118112f",
    # walls: weights whose straightening gives signs and cancels terms,
    # recorded before the definitional expansion moved onto one kernel
    "expand --level 2 0 0 --format text": "1a408981a55d4ace9ca15e81766ee367829bbe85663d6bb8b3fe3a1cda8e48f0",
    "expand --level 2 1 0 --format text": "096642d23fa0485b9d8aca11fe09742479f81e3544a95e0af485ab87d340f0aa",
    "expand --level 2 0 1 --format text": "a1577722709fb5735c57b679c78bb144482acb532d94fe3e05f2622e2c69f4f2",
    "expand --level 2 3 0 --format text": "92b2f2aab8bc83697bc3d0d4ed45cb8499988802f04d814f4bf9b8e69e8f782c",
    "expand --level 3 0 0 --format text": "f01dbc649a9f22eca244546c7597814739108f363efcd057fd726c1432ed3214",
    "expand --level 3 1 0 --format text": "965ce8dc6518a562dfbc9f23a74352942a426e45952f71e433369e9abe90c921",
    "expand --level 3 0 1 --format text": "3e8cda2db34f4cafd35b6f1c3f26261793e66e309b4af20081ef6523abc91a02",
    "expand --level 3 3 0 --format text": "13dd6e908176e9fb43c4120cdace2388be28b5fb9b2a9719be391698a537f93c",
    "expand --level 4 0 0 --format text": "0860038c941758c4804b3fd4d24b2917804c2574003c5182f0d0c338f5136731",
    "expand --level 4 1 0 --format text": "d9aaecfa8a3aab3bfae6883a99d31efe6d351e64438fd4b996da976e264ef4cb",
    "expand --level 4 0 1 --format text": "10a02964194d9ece32e47e903d9ace93f67d206ff194026c20a886c4705a7e6f",
    "expand --level 4 3 0 --format text": "e5c59d3a97e6fce51af69857238b13ca43d6224e06b3e23b896e6c0573da32fd",
    # walls: large outputs, recorded before the level-2 correction became a
    # chain link; the text hashes equal benchmarks/golden.json
    "atomic 300 1 --format text": "490c7f8064efcd08b87e4ca3f08232ccdaf6c1c0b7009ba1944e5d9e503f98a2",
    "atomic 0 100 --format text": "c8d7956e4aebac9e2db021166d3190d6069ec415b1d19aad04df87df136540c5",
    "atomic 0 100 --format json": "cecb7b0b7e0e8fe13dc2483d98a27adb7e27de93a6b987985db845369d6dcbb1",
    "atomic 300 1 --format json": "69953a4dc2c6ea6b25eb712be3d5671fa451006ae470f69cebfdaf879491c862",
    "standard 30 30 --format json": "e3b310261b08eddab022c2b8ff73cc76f7651a7f8525d77a780f3488bea739e1",
    # a b-heavy weight whose targets take tails from both a = 0 and a = 1,
    # recorded before the tails loop was written out
    "atomic 1 100 --format text": "da7c36124849f64c1df5c48a10a59c9187bb46edc3e69a29b4f0720762f65a88",
    # definitional expansions whose subset sums straighten across both walls,
    # recorded before straightened multiplied into copies
    "expand --level 2 0 9 --format text": "149c3175266f29770b17ae88f308428b24304b8c7304d92f661f763aecc2d6ad",
    "expand --level 2 0 9 --format json": "e7c4a89bef75ed5fdc2e16f52a6f230787b3e28552528154253f02e5baea6bc3",
    "expand --level 2 7 33 --format text": "d31b25243b4b92d1fdd9e58ebcf5929883f2be80488dde0e333285504eb29002",
    "expand --level 2 7 33 --format json": "a42f034cd7ed550cc24cdd552212c10cabfc05bfd6f7ab1561cd8b6775741676",
    "expand --level 3 0 9 --format text": "7c03f94a7a5be3444d80163054c501c1de6b7955bd72ad87de67ddbcbce291f4",
    "expand --level 3 0 9 --format json": "231769ad69e98ff5db22d3384048afa92bd318fca7793a11a72efb723b458f4e",
    "expand --level 3 7 33 --format text": "c40a6228f41eaf21cbc5ac8ab696c20ba7984a99bd21da3e886613b1e10b3155",
    "expand --level 3 7 33 --format json": "fe5f8c281a7390d90a3b30a0e19b7b1c13e524182962aee5e96a881b94dee583",
    "expand --level 4 0 9 --format text": "6f616cf9cd6d609da653f26da42c6c841965645f3d9cb9ee0c9801ddf55ccef0",
    "expand --level 4 0 9 --format json": "46854b23912e0149d7732948af28983a720f01d56b76d798db4c1ff960a15dc1",
    "expand --level 4 7 33 --format text": "81ba32ac0776f24b595c33445eb70ecb44207c49da0e8c6b6ef3d2365d6d7c6d",
    "expand --level 4 7 33 --format json": "941985ac1591ec1dbb193e970a2118c231993b69c5ddbc7aeca97e60f914d1db",
    "expand --level 5 0 9 --format text": "6e7084302a5f28415e22076ebfef4bb0aa6dcb396514ea94d8ea4779c31d9c16",
    "expand --level 5 0 9 --format json": "dab31c448acb837500e787bcea62944510503c97e583d388525149ceb449b40e",
    "expand --level 5 7 33 --format text": "93273db8522f420833e7d0b73b8a788e26860f6c8a17e5d0495603804cde16e2",
    "expand --level 5 7 33 --format json": "af227a2c7d693a82a1187184cca8380ea2b52e2208de04e3b713feaa91de58ce",
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
    assert {e: c for e, c in obj["poly"]} == REF_KF_69_32
    exps = [e for e, c in obj["poly"]]
    assert exps == sorted(exps)
    code, out, _ = run_cli(capsys, "kf", "2", "0", "0", "0",
                           "--format", "json")
    assert json.loads(out)["poly"] == [[2, 1], [4, 1], [6, 1]]


@pytest.mark.parametrize("argv", [("6", "9", "3", "2"), ("2", "0", "0", "0"),
                                  ("1", "2", "9", "9"), ("4", "4", "0", "0")])
def test_kf_json_matches_json_dumps(capsys, argv):
    # the line is written directly; json.dumps of the object is its reference
    a, b, c, d = map(int, argv)
    p = kostka_foulkes((a, b), (c, d))
    want = json.dumps({"lambda": [a, b], "mu": [c, d],
                       "poly": [[e, p[e]] for e in sorted(p)]})
    code, out, _ = run_cli(capsys, "kf", *argv, "--format", "json")
    assert code == 0 and out == want + "\n"


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
        assert {e: c for e, c in t["poly"]} == kostka_foulkes((3, 1), mu)


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


ATOMIC_USAGE = ("usage: g2atomic atomic [-h] [--format {text,json,latex}]\n"
                "                       [--method {adjusted,precanonical}]\n"
                "                       a b\n")

# argparse's own usage errors, byte for byte at an 80-column terminal.
# Newer Pythons print the choices without quotes, so quotes are not compared.
USAGE_ERRORS = {
    ("atomic", "2", "4", "--format", "yaml"): ATOMIC_USAGE
    + "g2atomic atomic: error: argument --format: invalid choice: 'yaml' "
      "(choose from 'text', 'json', 'latex')\n",
    ("bogus",): "usage: g2atomic [-h] {atomic,kf,standard,expand,verify} ...\n"
    "g2atomic: error: argument command: invalid choice: 'bogus' "
    "(choose from 'atomic', 'kf', 'standard', 'expand', 'verify')\n",
    ("kf", "1", "2"): "usage: g2atomic kf [-h] [--format {text,json,latex}] a b c d\n"
    "g2atomic kf: error: the following arguments are required: c, d\n",
    (): "usage: g2atomic [-h] {atomic,kf,standard,expand,verify} ...\n"
    "g2atomic: error: the following arguments are required: command\n",
}


def test_argparse_help_and_usage_errors(monkeypatch, capsys):
    # argparse exits 0 after --help and 2 on a usage error; the CLI keeps 2
    # for a failed verification, so a usage error must end with 1.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "") and out.startswith("usage: g2atomic [-h] ")
    code, out, err = run_cli(capsys, "atomic", "--help")
    assert (code, err) == (0, "") and out.startswith(ATOMIC_USAGE)
    for argv, want in USAGE_ERRORS.items():
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.replace("'", "")) == (1, "", want.replace("'", "")), argv


# The CLI contract on drawn argv.  Every int is at most 20 and every verify
# bound at most 3, so that each call takes milliseconds; no text or float
# token reads as a larger int.
_ARITY = {"atomic": 2, "kf": 4, "standard": 2, "expand": 2, "verify": 0}
_TOKEN = st.one_of(
    st.integers(-20, 20).map(str),
    st.floats(-20, 20, allow_nan=False).map(str),
    st.sampled_from(["x", "é", "λ", "２", "", "1e3", "-", "--", "-0"]))
_OPTIONS = {
    "--format": st.sampled_from(["text", "json", "latex", "yaml"]),
    "--method": st.sampled_from(["adjusted", "precanonical", "fast"]),
    "--level": st.one_of(st.integers(2, 6).map(str), st.integers(-1, 8).map(str), _TOKEN),
    "--max-a": st.integers(-2, 3).map(str),
    "--max-b": st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["1.5", "ⅱ"])),
}
# the options of each command besides --format
_OWN = {"atomic": ["--method"], "expand": ["--level"], "verify": ["--max-a", "--max-b"]}


@st.composite
def _argv(draw):
    """A command, valid or not, with its arguments and options, each of them
    mostly valid: a missing or extra argument, a token that is no int, a
    bad option value or another command's option now and then, and now
    and then no command at all."""
    if not draw(st.integers(0, 19)):
        return []
    command = draw(st.sampled_from([*_ARITY, *_ARITY, "atomics", "vérify", ""]))
    arity = _ARITY.get(command, 2)
    n = draw(st.sampled_from([arity] * 4 + [max(arity - 1, 0), arity + 1]))
    args = [draw(st.integers(0, 20).map(str) if draw(st.integers(0, 7)) else _TOKEN)
            for _ in range(n)]
    # verify always gets both bounds, so that it never sweeps its default box
    names = [name for name in ("--format", *_OWN.get(command, ()))
             if name.startswith("--max") or draw(st.integers(0, 3))]
    if not draw(st.integers(0, 7)):
        names.append(draw(st.sampled_from(list(_OPTIONS))))
    options = [token for name in names for token in (name, draw(_OPTIONS[name]))]
    return [command, *options, *args] if draw(st.booleans()) else [command, *args, *options]


def _check_contract(argv, code, out, err):
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "" and out.endswith("\n"), argv
        formats = [v for k, v in zip(argv, argv[1:]) if k == "--format"]
        if formats[-1:] == ["json"]:  # the last one given counts
            json.loads(out)
    elif code == 1:
        assert out == "" and err and "Traceback" not in err, argv
        assert "error:" in err.splitlines()[-1], argv
        # a fault of the program ends in a bare exception repr, such as
        # "error: KeyError(None)", which no domain error reads as
        assert not re.match(r"error: [A-Z]\w*\(", err.splitlines()[-1]), argv
    else:
        assert argv[0] == "verify", argv


@settings(max_examples=200, deadline=None)
@given(_argv())
@example([])
def test_cli_contract_on_drawn_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    _check_contract(argv, code, out.getvalue(), err.getvalue())


_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


@settings(max_examples=10, deadline=None)
@given(_argv())
@example([])
def test_cli_contract_on_drawn_argv_in_a_subprocess(argv):
    # the same rules through a fresh interpreter, its own streams and exit status
    proc = subprocess.run([sys.executable, "-m", "g2atomic.cli", *argv],
                          capture_output=True, env={**os.environ, "PYTHONPATH": _SRC})
    _check_contract(argv, proc.returncode, proc.stdout.decode(errors="replace"),
                    proc.stderr.decode(errors="replace"))


def test_domain_errors_go_to_stderr(capsys):
    for argv, msg in ((["verify", "--max-a", "-1"], "sweep bounds must be non-negative"),
                      (["verify", "--max-b", "-3", "--format", "json"],
                       "sweep bounds must be non-negative"),
                      (["expand", "--level", "9", "1", "1"], "level must be in 2..6, got 9"),
                      (["atomic", "-1", "2"], "weight (-1, 2) is not dominant"),
                      (["kf", "1", "1", "0", "-3"], "weight (0, -3) is not dominant"),
                      (["standard", "4", "-1"], "weight (4, -1) is not dominant")):
        assert run_cli(capsys, *argv) == (1, "", f"error: {msg}\n"), argv
    with pytest.raises(ValueError, match="sweep bounds must be non-negative"):
        checks.sweep(-1, 0)


def test_huge_verify_box_is_refused_before_it_is_built(monkeypatch, capsys):
    class Built(Exception):
        pass

    def box(max_a, max_b):
        raise Built

    monkeypatch.setattr(checks, "dominant_box", box)
    msg = f"error: sweep bounds must be at most {checks.MAX_BOX}\n"
    for argv in (["--max-a", "1000000000000", "--max-b", "0"],
                 ["--max-b", str(checks.MAX_BOX + 1), "--format", "json"]):
        assert run_cli(capsys, "verify", *argv) == (1, "", msg), argv
    # the ceiling itself is a bound the sweep accepts
    assert checks.MAX_BOX >= 30
    with pytest.raises(Built):
        checks.sweep(checks.MAX_BOX, checks.MAX_BOX)


def test_memory_error_exits_with_one_line(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "atomic", exhausted)
    code, out, err = run_cli(capsys, "atomic", "300", "300")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_any_error_while_computing_exits_with_one_line(monkeypatch, capsys):
    # the fold looks push up at call time; push calls _descend only on a
    # link that does not descend, which no real link is
    def no_descent(terms, link):
        raise RuntimeError("chain link does not descend in the dominant cone")

    monkeypatch.setattr(combo, "push", no_descent)
    adjusted.atomic_second.cache_clear()
    code, out, err = run_cli(capsys, "atomic", "3", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: RuntimeError(") and err.count("\n") == 1


def test_verify_out_of_memory_is_not_a_failed_check(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    box_checks = list(checks.BOX_CHECKS)
    box_checks[4] = (box_checks[4][0], exhausted)
    monkeypatch.setattr(checks, "BOX_CHECKS", box_checks)
    assert run_cli(capsys, "verify", "--max-a", "1", "--max-b", "1") \
        == (1, "", "error: out of memory running verify\n")
    weight_checks = list(checks.WEIGHT_CHECKS)
    weight_checks[2] = (weight_checks[2][0], exhausted)
    monkeypatch.setattr(checks, "WEIGHT_CHECKS", weight_checks)
    with pytest.raises(MemoryError):
        checks.verify((1, 1))


def test_verify_reports_failing_check(monkeypatch, capsys):
    def boom(box):
        raise AssertionError("boom")

    box_checks = list(checks.BOX_CHECKS)
    name = box_checks[4][0]
    box_checks[4] = (name, boom)
    monkeypatch.setattr(checks, "BOX_CHECKS", box_checks)
    code, out, _ = run_cli(capsys, "verify", "--max-a", "1", "--max-b", "1")
    assert code == 2
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 16
    assert lines[4] == f"FAIL {name} (boom)"
    assert all(line.startswith("ok  ") for i, line in enumerate(lines[:-1]) if i != 4)
    assert lines[-1] == "VERIFICATION FAILED (sweep a <= 1, b <= 1)"
    code, out, _ = run_cli(capsys, "verify", "--max-a", "1", "--max-b", "1",
                           "--format", "json")
    obj = json.loads(out)
    assert code == 2 and obj["ok"] is False
    assert [c["ok"] for c in obj["checks"]] == [i != 4 for i in range(15)]


def test_verify_keeps_each_checks_first_failure(monkeypatch, capsys):
    # The sweep runs the per-weight checks together, weight by weight.  The
    # body of a whole-box check and the first body of a small-box check
    # fail at different weights: each check reports its own first failure,
    # none of its bodies runs after it, and every other line reads as before.
    # The calls are recorded in this process, so the sweep runs in it alone.
    monkeypatch.setattr(checks.os, "sched_getaffinity", lambda pid: {0})
    unbroken = checks.sweep(7, 1)
    box = dominant_box(7, 1)
    # where each patched check's first body fails, in box order
    failing = {"adjusted.correction-identity": [(3, 1), (5, 0)],
               "kostka.at-one-vs-freudenthal": [(1, 0), (2, 1)],
               "precanonical.positivity": []}
    out_of_memory_at = None
    calls = {}

    def recorded(name, i, body):
        def wrapped(lam):
            calls.setdefault((name, i), []).append(lam)
            if i == 0 and lam in failing[name]:
                raise AssertionError(f"{name} fails at {lam!r}")
            if lam == out_of_memory_at and name == "precanonical.positivity":
                raise MemoryError
            return body(lam)
        return wrapped

    monkeypatch.setattr(checks, "BOX_CHECKS", [
        (name, checks.EachWeight(*(recorded(name, i, b) for i, b in enumerate(c.bodies)),
                                 small=c.small, suffix=c.suffix))
        if name in failing else (name, c) for name, c in checks.BOX_CHECKS])
    results = checks.sweep(7, 1)
    assert [r.name for r in results] == [r.name for r in unbroken]
    for got, want in zip(results, unbroken):
        if failing.get(got.name):
            want = CheckResult(got.name, False, f"{got.name} fails at {failing[got.name][0]!r}")
        assert got == want
    before = lambda lam: box[:box.index(lam)]
    assert calls["adjusted.correction-identity", 0] == before((3, 1)) + [(3, 1)]
    assert calls["kostka.at-one-vs-freudenthal", 0] == before((1, 0)) + [(1, 0)]
    assert calls["kostka.at-one-vs-freudenthal", 1] == before((1, 0))
    assert calls["precanonical.positivity", 0] == box
    # running out of memory at a later weight, after a check has failed, is
    # still no failed check
    calls.clear()
    out_of_memory_at = (1, 1)
    assert run_cli(capsys, "verify", "--max-a", "1", "--max-b", "1") \
        == (1, "", "error: out of memory running verify\n")
    assert calls["kostka.at-one-vs-freudenthal", 0][-1] == (1, 0)
    assert calls["precanonical.positivity", 0] == dominant_box(1, 1)


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


def test_closed_stdout_pipe_exits_quietly():
    # A reader that stops after the first bytes, like `| head -c 20`.  The
    # output is megabytes, far more than a pipe holds, so the write always
    # meets the closed pipe.
    proc = subprocess.Popen([sys.executable, "-m", "g2atomic.cli",
                             "atomic", "0", "100"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(20) == b"Hbar(0,100) = N(0,10"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert b"Traceback" not in err
    assert (proc.wait(), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_write_ends_in_one_line():
    # /dev/full fails every write with ENOSPC, which must end the call like
    # any other error: exit 1 and one line on stderr.
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "g2atomic.cli",
                               "atomic", "2", "4"],
                              stdout=full, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (
        1, b"error: cannot write output: [Errno 28] No space left on device\n")


# Run as a program, the CLI flushes both streams and ends by os._exit
# (cli._finish), so these tests run it in a fresh process: entry() called
# here would end pytest.  Stdout is block-buffered in the child, as for a
# user, so output left unflushed at os._exit would be lost.
_BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
_CLI = [sys.executable, "-m", "g2atomic.cli"]
# the CLI under a tracer that watches calls only, as coverage would
_TRACED = [sys.executable, "-c", "import runpy, sys; sys.settrace(lambda *a: None); "
           "sys.argv[0] = 'g2atomic'; runpy.run_module('g2atomic.cli', run_name='__main__')"]


def test_output_is_flushed_before_the_process_ends(tmp_path):
    # A regular file and a pipe: both buffer the output until the flush.
    out = tmp_path / "out"
    with open(out, "wb") as fh:
        proc = subprocess.run([*_CLI, "atomic", "2", "4"], stdout=fh,
                              stderr=subprocess.PIPE, env=_BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, b"")
    want = GOLDEN_STDOUT["atomic 2 4 --format text"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want
    # argparse writes the help text and main() does not flush it
    proc = subprocess.run([*_CLI, "--help"], capture_output=True, env=_BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"usage:")


def test_closed_stdout_ends_in_one_line():
    # With stdout closed (`>&-`) sys.stdout is None: nothing to flush.
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m g2atomic.cli atomic 2 4 >&-',
                           sys.executable], stderr=subprocess.PIPE, env=_BUFFERED)
    assert proc.returncode == 1
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.startswith(b"error: ")
    assert b"Traceback" not in proc.stderr


def test_profiler_still_reports():
    # A profiler writes its report at the normal exit, which the CLI keeps
    # under one; os._exit would end the process before the report.
    proc = subprocess.run([sys.executable, "-m", "cProfile", "-m", "g2atomic.cli",
                           "atomic", "2", "4"], capture_output=True, env=_BUFFERED)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"Hbar(2,4) = N(2,4) + ")
    assert b"function calls" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("launcher", [_CLI, _TRACED], ids=["plain", "traced"])
def test_failed_flush_at_exit_ends_in_one_line(launcher):
    # The output stays buffered after a failed write, and the flush at exit
    # fails again: after main() has reported it, that flush says nothing,
    # and under a tracer the normal exit does not fail a third time.  The
    # help text, which main() leaves buffered, fails first at exit.
    for argv in (["atomic", "2", "4"], ["--help"]):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([*launcher, *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=_BUFFERED)
        assert (proc.returncode, proc.stderr) == (
            1, b"error: cannot write output: [Errno 28] No space left on device\n"), argv


def test_failure_while_writing_ends_in_one_line(monkeypatch, capsys):
    # The line is rendered while it is written, so a failure can come after
    # part of it has gone out: it still ends in exit 1 and one line.
    written = "Hbar(2,4) = N(2,4)" + " + q N(2,3)" * (cli._CHUNK // 10)

    def failing(error):
        def parts(*args):
            yield written  # a whole chunk, written at once
            yield " + N(2,2)"  # still held when the failure comes
            raise error
        return parts

    for error, message in ((MemoryError, "out of memory running atomic"),
                           (RuntimeError("two\nlines"),
                            "RuntimeError('two\\nlines')")):
        monkeypatch.setattr(cli, "combination_parts", failing(error))
        assert run_cli(capsys, "atomic", "2", "4") == (
            1, written, f"error: {message}\n")


class _Recorder(io.StringIO):
    """A stdout that keeps the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_output_is_written_as_it_is_rendered(monkeypatch, fmt):
    # The 0.7 to 1 MB line goes out in parts, never held whole.
    cmd = f"atomic 0 100 --format {fmt}"
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(cmd.split()) == 0
    assert max(out.sizes) <= 64 * 1024
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN_STDOUT[cmd]


# Runs argv in a child and reports its exit status and ru_maxrss on stderr.
# A child's ru_maxrss counts the memory of the process that spawned it, so a
# child of pytest would read at least pytest's own; this launcher is small.
_LEAN_LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)
"""


def test_atomic_a_heavy_peak_memory():
    # The fold keeps no expansion below the top, so peak memory follows
    # the output, about 24 MB.
    proc = subprocess.run([sys.executable, "-c", _LEAN_LAUNCHER, sys.executable,
                           "-m", "g2atomic.cli", "atomic", "300", "1"],
                          capture_output=True, check=True)
    *_, code, maxrss = proc.stderr.split()
    assert int(code) == 0, proc.stderr
    assert proc.stdout.startswith(b"Hbar(300,1) = N(300,1) + ")
    assert int(maxrss) < 64 * 1024  # kilobytes on Linux


def test_kostka_column_walk_peak_memory():
    # Every memo keeps the one result asked for last, so a caller that walks
    # the Kostka-Foulkes column over a box holds one column: about 13 MB,
    # against 64 to 69 MB when that memo kept every column it was asked.
    walk = """
from g2atomic import kostka
from g2atomic.lattice import dominant_box
for lam in dominant_box(16, 16):
    kostka.canonical_to_standard(lam)
print(kostka.canonical_to_standard.cache_info().currsize)
"""
    proc = subprocess.run([sys.executable, "-c", _LEAN_LAUNCHER, sys.executable,
                           "-c", walk], capture_output=True, check=True)
    *_, code, maxrss = proc.stderr.split()
    assert int(code) == 0, proc.stderr
    assert int(maxrss) < 32 * 1024  # kilobytes on Linux
    assert proc.stdout == b"1\n"  # the one column asked for last


def test_import_path_is_lean():
    # The CLI module loads only what `atomic` runs; the package resolves its
    # public names on first use.
    code = """
import sys
before = set(sys.modules)
import g2atomic.cli
loaded = [m for m in ("g2atomic.checks", "g2atomic.kostka",
                      "g2atomic.precanonical", "dataclasses")
          if m in sys.modules and m not in before]
assert not loaded, loaded
import g2atomic
for name in g2atomic.__all__:
    getattr(g2atomic, name)
from g2atomic import atomic, kostka_foulkes, verify
assert g2atomic.atomic is g2atomic.adjusted.atomic_second is atomic
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
