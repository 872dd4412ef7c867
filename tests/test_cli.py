import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ybekit
from ybekit import io_json
from ybekit.algebras import make_algebra
from ybekit.linalg import exact
from ybekit import cli
from ybekit.cli import build_parser, run
from ybekit.errors import YbeError

from helpers import alg, perfbench_workloads


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["ybe", "enumerate", "--algebra", "A.json", "--jobs", "2"],
    ["catalog", "verify", "--name", "A2", "--jobs", "2"],
])
def test_jobs_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().out == ""


def test_enumerate_prints_one_line_per_solution(tmp_path, capsys):
    path = _write(tmp_path, "a2.json", io_json.encode_algebra(alg("A2")))
    assert run(["ybe", "enumerate", "--algebra", path, "--mu", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert json.loads(lines[0])["coeff"] == [["0", "0"], ["0", "0"]]


@pytest.mark.parametrize("sc, unit", [
    ([[[0, 1], [0, 0]], [[1, 0], [0, 0]]], None),  # not associative
    ([[[1, 0], [0, 0]], [[0, 0], [0, 1]]], (1, 0)),  # (1, 0) is no unit
])
def test_enumerate_rejects_invalid_algebra(tmp_path, capsys, sc, unit):
    path = _write(tmp_path, "bad.json", io_json.encode_algebra(make_algebra(2, sc, unit=unit)))
    assert run(["ybe", "enumerate", "--algebra", path, "--mu", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: invalid algebra")


def test_enumerate_budget_exceeded(tmp_path, capsys):
    path = _write(tmp_path, "b1.json", io_json.encode_algebra(alg("B1")))
    argv = ["ybe", "enumerate", "--algebra", path, "--grid", "0,1,2", "--budget", "100"]
    assert run(argv) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("r_text, message", [
    ('{"dim": 2, "coeff": [[0.1, 0], [0, 0]]}', "got float"),
    ('{"dim": 2, "coeff": [[true, 0], [0, 0]]}', "got bool"),
    ('{"dim": 2, "coeff": null}', "got NoneType"),
    ('[[1, 0], [0, 0]]', "got list"),
    ('{"dim": 2.0, "coeff": [[0, 0], [0, 0]]}', "got float"),
    ('{"dim": 2, "coeff": [["1/0", 0], [0, 0]]}', "zero denominator"),
    ("[" * 100000, "nested too deeply"),
], ids=["float", "bool", "null-coeff", "top-level-list", "float-dim", "zero-denominator",
        "deep-nesting"])
def test_check_rejects_malformed_tensor(tmp_path, capsys, r_text, message):
    a_path = _write(tmp_path, "a2.json", io_json.encode_algebra(alg("A2")))
    r_path = tmp_path / "r.json"
    r_path.write_text(r_text, encoding="utf-8")
    assert run(["ybe", "check", "--algebra", a_path, "--r", str(r_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and message in err


def test_zero_denominator_mu_is_an_input_error(tmp_path, capsys):
    a_path = _write(tmp_path, "a2.json", io_json.encode_algebra(alg("A2")))
    r_path = _write(tmp_path, "r.json", {"dim": 2, "coeff": [[0, 0], [0, 0]]})
    assert run(["ybe", "check", "--algebra", a_path, "--r", r_path, "--mu", "1/0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["mu", "json"])
def test_exponent_scalar_is_an_input_error(tmp_path, capsys, where):
    # Fraction would expand the exponent into a 33-million-bit integer
    big = "1e10000000"
    a_path = _write(tmp_path, "a2.json", io_json.encode_algebra(alg("A2")))
    coeff = [[big if where == "json" else 0, 0], [0, 0]]
    r_path = _write(tmp_path, "r.json", {"dim": 2, "coeff": coeff})
    argv = ["ybe", "check", "--algebra", a_path, "--r", r_path]
    assert run(argv + (["--mu", big] if where == "mu" else [])) == 2
    out, err = capsys.readouterr()
    assert out == "" and big in err


def test_scalars_without_exponent_still_parse():
    assert [io_json.parse_scalar(s) for s in ("-3/6", "7", "0.25", "-1.5")] == \
        [Fraction(-1, 2), 7, Fraction(1, 4), Fraction(-3, 2)]
    for s in ("1E2", "2e-1", "1/2e3"):
        with pytest.raises(ValueError):
            io_json.parse_scalar(s)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20)
_ENTRY = _JSON | st.integers(-2, 2) | st.sampled_from(["1/2", "-3", "x", "1/0"])
_TENSORISH = st.fixed_dictionaries({
    "dim": _JSON | st.integers(0, 3),
    "coeff": _JSON | st.lists(st.lists(_ENTRY, max_size=3), max_size=3),
})


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    a_path = d / "a2.json"
    a_path.write_text(json.dumps(io_json.encode_algebra(alg("A2"))), encoding="utf-8")
    return str(a_path), d / "r.json"


@settings(max_examples=80, deadline=None)
@given(value=_JSON | _TENSORISH)
def test_check_never_raises_on_arbitrary_json(fuzz_paths, value):
    a_path, r_path = fuzz_paths
    r_path.write_text(json.dumps(value), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(["ybe", "check", "--algebra", a_path, "--r", str(r_path)])
    assert code in (0, 1, 2)


def test_module_entry_point_runs():
    src = os.path.dirname(os.path.dirname(ybekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "ybekit.cli", "catalog", "list"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["names"]


_ZERO_DIM = {"a.json": {"dim": 0, "sc": [], "unit": None}, "p.json": {"matrix": []},
             "r.json": {"dim": 0, "coeff": []}, "g.json": {"gram": []},
             "e.json": {"eps": []}}


@pytest.mark.parametrize("argv", [
    "algebra check --algebra a.json",
    "ybe check --algebra a.json --r r.json",
    "ybe check --opposite --algebra a.json --r r.json",
    "ybe symmetrizer --algebra a.json --r r.json",
    "ybe invariant-basis --algebra a.json",
    "ybe enumerate --algebra a.json --mu 0",
    "op rb-check --algebra a.json --p p.json",
    "op o-check --algebra a.json --alpha p.json",
    "op suite --algebra a.json --r r.json --mu 0",
    "frobenius build --algebra a.json --gram g.json",
    "frobenius pr --algebra a.json --gram g.json --r r.json",
    "frobenius bridge --algebra a.json --gram g.json --r r.json --mu 0 --lambda 0",
    "construct unitize-extract --algebra a.json --eps e.json --r r.json --mu 0",
    "construct from-rb --algebra a.json --s r.json --p p.json --lambda 0 --mu 0",
])
def test_zero_dimensional_algebra_passes(tmp_path, monkeypatch, capsys, argv):
    for name, obj in _ZERO_DIM.items():
        _write(tmp_path, name, obj)
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)


def _subcommands(parser):
    """The (group, command) pairs of the parser's two levels of subparsers."""
    [groups] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for group, sub in groups.choices.items():
        [cmds] = [a for a in sub._actions if isinstance(a, argparse._SubParsersAction)]
        for cmd in cmds.choices:
            yield group, cmd


def test_every_subcommand_has_one_handler():
    assert list(_subcommands(build_parser())) == list(cli._COMMANDS)


def _reference_parse(s):
    """parse_scalar on a string as it was before its integer fast path."""
    if "e" in s or "E" in s:
        raise ValueError(s)
    try:
        return exact(Fraction(s))
    except ZeroDivisionError:
        raise ValueError(s) from None


def _outcome(parse, s):
    try:
        x = parse(s)
    except ValueError:
        return "refused"
    return type(x), x


_LITERALS = ["+1", " 1 ", "1_0", "-0", "007", "-007", "1e9", "\u0661", "-\u0663",
             "\u00b2", "12\u0663", "-", "", "--1", "+-1", "1/2", "-3/6", "0.5", " -2",
             "1 0", "1/0", "0x1", "\t7\n"]


@settings(max_examples=300, deadline=None)
@given(s=st.sampled_from(_LITERALS)
       | st.text(alphabet="0123456789+-_ /.eE\u0661\u00b2\t", max_size=6)
       | st.integers(-10 ** 30, 10 ** 30).map(str))
def test_parse_scalar_matches_fraction(s):
    assert _outcome(io_json.parse_scalar, s) == _outcome(_reference_parse, s)


# Argument lists and their exit codes: help, usage errors and valid commands.
# A and R stand for real files, an algebra and the zero tensor that solves it.
_VALID = ["ybe", "check", "--algebra", "A", "--r", "R"]
_PARSER_CASES = [
    ([], 2), (["--help"], 0), (["--he"], 0), (["bogus"], 2), (["bogus", "check"], 2),
    (["ybe"], 2), (["ybe", "--help"], 0), (["ybe", "--he"], 0), (["ybe", "bogus"], 2),
    (["ybe", "--help", "check"], 0), (["ybe", "check", "--help"], 0),
    (["ybe", "check", "--he"], 0), (["catalog", "list", "-h"], 0),
    (["ybe", "check"], 2), (["ybe", "check", "--algebra", "A"], 2),
    (["ybe", "check", "--bogus"], 2), (["ybe", "check", "--algebra"], 2),
    (["--report", "json"] + _VALID, 2), (["-h"] + _VALID, 0),
    (_VALID, 0), (_VALID + ["--mu", "-1/2", "--report", "text"], 0), (_VALID + ["--opposite"], 0),
    (_VALID + ["--bogus"], 2), (_VALID + ["extra"], 2), (_VALID + ["--report", "xml"], 2),
    (_VALID + ["--mu"], 2), (["ybe", "enumerate", "--algebra", "A", "--grid", "-1,0,1"], 0),
    (["catalog", "verify", "--name", "A2", "--no-grid", "--mu", "2"], 0),
]


def _run_captured(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv, code", _PARSER_CASES,
                         ids=[" ".join(argv) or "none" for argv, _ in _PARSER_CASES])
def test_partial_parser_prints_what_the_full_parser_prints(argv, code, capsys, monkeypatch,
                                                           tmp_path):
    # The reader stands in for the parser on well-formed lists; with it
    # switched off, argparse parses every list.
    files = {"A": _write(tmp_path, "a.json", io_json.encode_algebra(alg("A2"))),
             "R": _write(tmp_path, "r.json", {"dim": 2, "coeff": [[0, 0], [0, 0]]})}
    argv = [files.get(a, a) for a in argv]
    got = _run_captured(argv, capsys)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert got == _run_captured(argv, capsys)
    assert got[0] == code
    if code == 2:
        assert got[1] == "" and got[2].startswith("usage: ybekit")
    else:
        assert got[1] and got[2] == ""


# argparse drops a `--` given as a value, even after `=`, and left the
# option a list where a string is expected: `ybe invariant-basis
# --algebra=--` ended in a TypeError traceback from `open([])` (exit 1), and
# `catalog list --report=--` printed its names with report == [] (exit 0).
# Each is now the usage error of the same option given no value at all.
_DROPPED_VALUES = [
    ["ybe", "invariant-basis", "--algebra=--"],
    ["catalog", "list", "--report=--"],
    ["catalog", "verify", "--name=--"],
    ["op", "suite", "--algebra", "A", "--r", "R", "--mu", "1", "--mu=--"],
    ["ybe", "check", "--algebra", "A", "--r", "R", "--mu=--", "--opposite"],
    ["construct", "lift", "--algebra", "A", "--module", "M", "--alpha", "P", "--lambda=--"],
]


@pytest.mark.parametrize("argv", _DROPPED_VALUES, ids=[" ".join(a[:2]) for a in _DROPPED_VALUES])
def test_a_dropped_value_is_a_usage_error(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    flag = next(t for t in argv if t.endswith("=--"))[:-3]
    assert run(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.endswith(f"ybekit {argv[0]} {argv[1]}: error: argument {flag}: "
                            "expected one argument\n")
    if argv[-1] == f"{flag}=--":  # the same bytes as the option given last with no value
        assert run(argv[:-1] + [flag]) == 2
        assert capsys.readouterr() == got


def test_a_dropped_value_prints_the_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["ybe", "invariant-basis", "--algebra=--"]) == 2
    assert capsys.readouterr() == ("", (
        "usage: ybekit ybe invariant-basis [-h] --algebra ALGEBRA\n"
        "                                  [--report {json,text}]\n"
        "ybekit ybe invariant-basis: error: argument --algebra: expected one argument\n"))
    assert run(["catalog", "list", "--report=--"]) == 2
    assert capsys.readouterr() == ("", (
        "usage: ybekit catalog list [-h] [--report {json,text}]\n"
        "ybekit catalog list: error: argument --report: expected one argument\n"))


def _argparse_outcome(parser, argv):
    """vars() of argparse's namespace, or "exit" when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return "exit"


_PARSER = build_parser()
_FLAGS = sorted({flag for _, options in cli._COMMANDS.values() for flag, _ in options})
_VALUES = ["A", "1", "-1/2", "-3", "", "-", "--", "-h", "--help", "json", "text", "xml",
           "0,1", "-1,0,1", "x=y", " 5 ", "2.5", "ybe", "check"]


@st.composite
def _argv_lists(draw):
    """A command (or a near miss), most of its required options and a few
    more tokens, in any order: flags, their prefixes, `=` forms, values
    (negative and empty ones included), help, `--` and repeats."""
    key = draw(st.sampled_from(list(cli._COMMANDS)))
    options = cli._COMMANDS[key][1]
    names = list(key)
    if draw(st.integers(0, 9)) == 0:
        names[draw(st.integers(0, 1))] = draw(st.sampled_from(["bogus", "-h", "--", "yb", ""]))
        names = names[:draw(st.integers(0, 2))]
    flag = st.sampled_from([f for f, _ in options]) | st.sampled_from(_FLAGS)
    value = st.sampled_from(_VALUES)
    token = st.one_of(
        flag, value,
        st.tuples(flag, st.integers(2, 8)).map(lambda t: [t[0][:t[1]]]),
        st.tuples(flag, value).map(lambda t: ["=".join(t)]),
        st.tuples(flag, value))
    groups = [(f, draw(st.sampled_from(["A", "1", "-1/2", "0,1"])))
              for f, kw in options if kw.get("required") and draw(st.integers(0, 9))]
    groups += draw(st.lists(token, max_size=4))
    out = names
    for tok in draw(st.permutations(groups)):
        out.extend([tok] if isinstance(tok, str) else tok)
    return out


@settings(max_examples=400, deadline=None)
@given(argv=_argv_lists())
@example(argv=["ybe", "invariant-basis", "--algebra=--"])
@example(argv=["op", "suite", "--algebra", "A", "--r", "R", "--mu=--"])
@example(argv=["ybe", "enumerate", "--algebra=-h", "--budget", " 5 ", "--mu", "-1/2"])
@example(argv=["catalog", "verify", "--name", "A2", "--no-grid=1"])
@example(argv=["catalog", "list", "--report", "xml"])
def test_the_reader_returns_what_argparse_returns_or_none(argv):
    argv = cli._join_negative_values(argv)
    ns = cli._read_argv(argv)
    if ns is not None:
        assert vars(ns) == _argparse_outcome(_PARSER, argv)


def _valid_lists(tmp_path):
    """One list per command with every required option, the valid lists of
    _PARSER_CASES and every command of the benchmark's workloads."""
    workloads = perfbench_workloads()
    for (group, cmd), (_, options) in cli._COMMANDS.items():
        yield [group, cmd] + [a for flag, kw in options if kw.get("required") for a in (flag, "x")]
    for argv, code in _PARSER_CASES:
        if code == 0 and not {"-h", "--help", "--he"} & set(argv):
            yield argv
    for workload in workloads.WORKLOADS:
        for command in workloads.commands(workload, tmp_path, seed=11):
            yield list(command.argv)


def test_the_reader_reads_every_valid_list(tmp_path):
    lists = list(_valid_lists(tmp_path))
    assert len(lists) > len(cli._COMMANDS) + 5 + 60  # the benchmark has 66 commands
    for argv in lists:
        argv = cli._join_negative_values(argv)
        ns = cli._read_argv(argv)
        assert ns is not None, argv
        assert vars(ns) == _argparse_outcome(_PARSER, argv)


def test_a_valid_command_builds_no_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kw):
        built.append(kw.get("prog"))
        init(self, *args, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    a = _write(tmp_path, "a.json", io_json.encode_algebra(alg("A2")))
    r = _write(tmp_path, "r.json", {"dim": 2, "coeff": [[0, 0], [0, 0]]})
    assert run(["ybe", "check", "--algebra", a, "--r", r, "--mu", "2"]) == 0
    assert built == []
    build_parser()
    assert len(built) == 1 + len({g for g, _ in cli._COMMANDS}) + len(cli._COMMANDS)


def test_a_valid_command_imports_neither_argparse_nor_gettext(tmp_path):
    a = _write(tmp_path, "a.json", io_json.encode_algebra(alg("A2")))
    r = _write(tmp_path, "r.json", {"dim": 2, "coeff": [[0, 0], [0, 0]]})
    src = os.path.dirname(os.path.dirname(ybekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import sys\nfrom ybekit.cli import run\n"
              f"code = run(['ybe', 'check', '--algebra', {a!r}, '--r', {r!r}])\n"
              "print(code, [m for m in ('argparse', 'gettext') if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("decode, obj, message", [
    (io_json.decode_tensor2, {"dim": 1}, "tensor: missing field 'coeff'"),
    (io_json.decode_algebra, {"sc": [[[1]]]}, "algebra: missing field 'dim'"),
    (io_json.decode_linear_map, {}, "linear map: missing field 'matrix'"),
    (io_json.decode_linear_map, {"matrix": [[1]], "rows": 1}, "linear map: missing field 'cols'"),
    (lambda d: io_json.decode_bimodule(d, alg("A2")), {"left": [[[1, 0], [0, 1]]] * 2},
     "bimodule: missing field 'right'"),
    (lambda d: io_json.decode_bimodule(d, make_algebra(0, (), unit=())),
     {"left": [], "right": []}, "bimodule: missing field 'dim'"),
    (lambda d: io_json.decode_form(d, alg("A2")), {"matrix": [[1, 0], [0, 1]]},
     "form: missing field 'gram'"),
    (lambda d: io_json.decode_augmentation(d, alg("A2")), {}, "augmentation: missing field 'eps'"),
    (io_json.decode_dendriform, {"dim": 1, "prec": [[[0]]]}, "dendriform: missing field 'succ'"),
], ids=["tensor", "algebra", "linear-map", "linear-map-cols", "bimodule", "bimodule-dim",
        "form", "augmentation", "dendriform"])
def test_a_missing_field_names_the_object_and_the_field(decode, obj, message):
    with pytest.raises(ValueError) as exc:
        decode(obj)
    assert str(exc.value) == message


def test_a_missing_field_is_an_input_error(tmp_path, capsys):
    a = _write(tmp_path, "a.json", io_json.encode_algebra(alg("A2")))
    g = _write(tmp_path, "g.json", {"matrix": [[1, 0], [0, 1]]})
    assert run(["frobenius", "build", "--algebra", a, "--gram", g]) == 2
    assert capsys.readouterr() == ("", "error: form: missing field 'gram'\n")


def test_op_suite_validates_the_algebra_once(tmp_path, monkeypatch, capsys):
    calls = []
    real = ybekit.check_algebra
    for name, module in list(sys.modules.items()):
        if name.startswith("ybekit") and getattr(module, "check_algebra", None) is real:
            monkeypatch.setattr(module, "check_algebra", lambda a: calls.append(a) or real(a))
    a = _write(tmp_path, "a.json", io_json.encode_algebra(alg("B1")))
    r = _write(tmp_path, "r.json", {"dim": 3, "coeff": [["1/2", 0, 1], [0, 1, 0], [1, 0, 0]]})
    assert run(["op", "suite", "--algebra", a, "--r", r,
                "--mu", "1", "--mu", "-1/2", "--mu", "2"]) in (0, 1)
    assert len(calls) == 1


def test_op_suite_tests_invariance_once_per_mu(tmp_path, monkeypatch, capsys):
    # One run of the invariance kernel per mu, and no `is_invariant`: the
    # witness of a failed precondition is never formed, since `op suite`
    # drops it.
    calls, witnesses = [], []
    kernel, real = ybekit.ybe._invariance_blocks, ybekit.is_invariant
    for name, module in list(sys.modules.items()):
        if name.startswith("ybekit") and getattr(module, "_invariance_blocks", None) is kernel:
            monkeypatch.setattr(module, "_invariance_blocks",
                                lambda a, x: calls.append(x) or kernel(a, x))
        if name.startswith("ybekit") and getattr(module, "is_invariant", None) is real:
            monkeypatch.setattr(module, "is_invariant",
                                lambda a, s: witnesses.append(s) or real(a, s))
    e = ybekit.catalog_algebra("B1")
    a = _write(tmp_path, "a.json", io_json.encode_algebra(e.algebra))
    r = _write(tmp_path, "r.json", io_json.encode_tensor2(e.families[0].tensor(1)))
    # The symmetrizer is invariant at mu = 1 only: 1 (x) 1 is not invariant on B1.
    assert run(["op", "suite", "--algebra", a, "--r", r, "--mu", "1", "--mu", "2"]) == 0
    names = [rep["check"] for rep in json.loads(capsys.readouterr().out)["details"]["subchecks"]]
    assert names == ["operator-form-suite", "invariant-operator-suite", "operator-form-suite"]
    assert len(calls) == 2 and witnesses == []


_ZERO_PLANE = [[[0, 0], [0, 0]]] * 2

# Inputs, with the stdout the three constructions printed before they shared
# the unit rows, the push-forward and the four operator forms.
_CONSTRUCTION_BYTES = {
    "dendriform-build": (
        "dendriform build --dendriform d.json --beta beta.json --lambda 1 --mu 0",
        {"d.json": {"dim": 2, "prec": _ZERO_PLANE, "succ": _ZERO_PLANE},
         "beta.json": {"matrix": [[0, 0, 0], [0, 0, 2], [0, -2, 0]]}},
        '{"algebra":{"basis":["u","a1","a2","v1","v2","v3"],"dim":6,"sc":[[["1","0",'
        '"0","0","0","0"],["0","1","0","0","0","0"],["0","0","1","0","0","0"],["0","0",'
        '"0","0","0","0"],["0","0","0","0","1","0"],["0","0","0","0","0","1"]],[["0",'
        '"1","0","0","0","0"],["0","0","0","0","0","0"],["0","0","0","0","0","0"],["0",'
        '"0","0","0","0","0"],["0","0","0","0","0","0"],["0","0","0","0","0","0"]],'
        '[["0","0","1","0","0","0"],["0","0","0","0","0","0"],["0","0","0","0","0",'
        '"0"],["0","0","0","0","0","0"],["0","0","0","0","0","0"],["0","0","0","0","0",'
        '"0"]],[["0","0","0","1","0","0"],["0","0","0","0","0","0"],["0","0","0","0",'
        '"0","0"],["0","0","0","0","0","0"],["0","0","0","0","0","0"],["0","0","0","0",'
        '"0","0"]],[["0","0","0","0","1","0"],["0","0","0","0","0","0"],["0","0","0",'
        '"0","0","0"],["0","0","0","0","0","0"],["0","0","0","0","0","0"],["0","0","0",'
        '"0","0","0"]],[["0","0","0","0","0","1"],["0","0","0","0","0","0"],["0","0",'
        '"0","0","0","0"],["0","0","0","0","0","0"],["0","0","0","0","0","0"],["0","0",'
        '"0","0","0","0"]]],"unit":null},"provenance":{"construction":"dendriform",'
        '"inputs":{"lam":"1","mu":"0"}},"r1":{"coeff":[["0","0","0","0","0","0"],["0",'
        '"0","-2","0","0","0"],["0","2","0","0","0","0"],["0","0","0","0","0","0"],'
        '["0","0","2","0","0","0"],["0","-2","0","0","0","0"]],"dim":6},'
        '"r2":{"coeff":[["0","0","0","0","0","0"],["0","0","2","0","0","-2"],["0","-2",'
        '"0","0","2","0"],["0","0","0","0","0","0"],["0","0","0","0","0","0"],["0","0",'
        '"0","0","0","0"]],"dim":6},"verified":true}\n'),
    "construct-semidirect": (
        "construct semidirect --algebra a.json --module v.json --alpha alpha.json "
        "--beta beta.json --lambda -1/2 --mu 0",
        {"a.json": "A2", "v.json": {"left": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                                    "right": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
         "alpha.json": {"matrix": [[0, 0], [0, 0]]}, "beta.json": {"matrix": [[1, 0], [0, 1]]}},
        '{"algebra":{"basis":["e1","e2","v1","v2"],"dim":4,"sc":[[["1","0","0","0"],'
        '["0","0","0","0"],["0","0","1","0"],["0","0","0","0"]],[["0","0","0","0"],'
        '["0","1","0","0"],["0","0","0","0"],["0","0","0","1"]],[["0","0","1","0"],'
        '["0","0","0","0"],["0","0","0","0"],["0","0","0","0"]],[["0","0","0","0"],'
        '["0","0","0","1"],["0","0","0","0"],["0","0","0","0"]]],"unit":["1","1","0",'
        '"0"]},"provenance":{"construction":"semidirect","inputs":{"lam":"-1/2",'
        '"mu":"0"}},"r1":{"coeff":[["0","0","0","0"],["0","0","0","0"],["1/2","0","0",'
        '"0"],["0","1/2","0","0"]],"dim":4},"r2":{"coeff":[["0","0","1/2","0"],["0",'
        '"0","0","1/2"],["0","0","0","0"],["0","0","0","0"]],"dim":4},'
        '"s":{"coeff":[["0","0","1","0"],["0","0","0","1"],["1","0","0","0"],["0","1",'
        '"0","0"]],"dim":4},"verified":true}\n'),
    "op-suite": (
        "op suite --algebra a.json --r r.json --mu 1 --mu -1/2 --mu 0",
        {"a.json": "B1", "r.json": {"dim": 3, "coeff": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]}},
        '{"check":"operator-suites",'
        '"details":{"subchecks":[{"check":"operator-form-suite",'
        '"details":{"all_pass":true,"verdicts":{"first_slot_identity":true,'
        '"first_slot_right_twist":true,"second_slot_identity":true,'
        '"second_slot_left_twist":true,"tensor_equation":true}},"passed":true},'
        '{"check":"invariant-operator-suite","details":{"all_pass":true,'
        '"branch":"weight--1","verdicts":{"first_slot_operator":true,'
        '"second_slot_operator":true,"tensor_equation":true}},"passed":true},'
        '{"check":"operator-form-suite","details":{"all_pass":false,'
        '"verdicts":{"first_slot_identity":false,"first_slot_right_twist":false,'
        '"second_slot_identity":false,"second_slot_left_twist":false,'
        '"tensor_equation":false}},"passed":true},{"check":"operator-form-suite",'
        '"details":{"all_pass":false,"verdicts":{"first_slot_identity":false,'
        '"first_slot_right_twist":false,"second_slot_identity":false,'
        '"second_slot_left_twist":false,"tensor_equation":false}},"passed":true}]},'
        '"passed":true}\n'),
}


@pytest.mark.parametrize("case", _CONSTRUCTION_BYTES)
def test_construction_commands_print_the_same_bytes(case, tmp_path, monkeypatch, capsys):
    argv, files, stdout = _CONSTRUCTION_BYTES[case]
    for name, obj in files.items():
        _write(tmp_path, name, io_json.encode_algebra(alg(obj)) if isinstance(obj, str) else obj)
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 0
    assert capsys.readouterr() == (stdout, "")


_A2_DUAL = {"left": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "right": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
_FROM_RB = "construct from-rb --algebra a.json --s s.json --p p.json"
_SEMIDIRECT = ("construct semidirect --algebra a.json --module v.json --alpha alpha.json "
               "--beta beta.json --lambda 1")
_ID2, _ZERO2 = {"matrix": [[1, 0], [0, 1]]}, {"matrix": [[0, 0], [0, 0]]}
_S2 = {"dim": 2, "coeff": [[1, 0], [0, 1]]}

# Inputs that violate one construction hypothesis each, with the stderr that
# the commands printed before the hypotheses shared one relation and one
# witness rule.  Each exits 1 and prints nothing on stdout.  The unital-module
# case needs a module over the zero-dimensional algebra, which only the "dim"
# field of a bimodule can describe.
_PRECONDITION_BYTES = {
    "from-rb-rota-baxter": (
        _FROM_RB + " --lambda -1 --mu 1",
        {"a.json": "A2", "s.json": _S2, "p.json": {"matrix": [[0, 0], [0, "1/2"]]}},
        '{"equation":"rota-baxter","error":"precondition-violated",'
        '"witness":{"defect":["0","1/4"],"pair":[1,1]}}\n'),
    "from-rb-operator-compatibility": (
        _FROM_RB + " --lambda -1 --mu 1",
        {"a.json": "A2", "s.json": _S2, "p.json": {"matrix": [[1, 0], [0, 0]]}},
        '{"equation":"operator-compatibility","error":"precondition-violated",'
        '"witness":{"defect":[["0","-1"],["-1","-2"]]}}\n'),
    "from-rb-operator-compatibility-fraction": (
        _FROM_RB + " --lambda 1/2 --mu 1",
        {"a.json": "A2", "s.json": _S2, "p.json": _ZERO2},
        '{"equation":"operator-compatibility","error":"precondition-violated",'
        '"witness":{"defect":[["-1/2","-1"],["-1","-1/2"]]}}\n'),
    "semidirect-weight-zero-operator": (
        _SEMIDIRECT + " --mu 0",
        {"a.json": "A2", "v.json": _A2_DUAL, "alpha.json": {"matrix": [[0, 0], [0, 1]]},
         "beta.json": _ID2},
        '{"equation":"weight-zero-operator","error":"precondition-violated",'
        '"witness":{"defect":["0","-1"],"pair":[1,1]}}\n'),
    "semidirect-balanced-homomorphism": (
        _SEMIDIRECT + " --mu 0",
        {"a.json": "A2", "v.json": _A2_DUAL, "alpha.json": _ZERO2,
         "beta.json": {"matrix": [[1, 1], [0, 0]]}},
        '{"equation":"balanced-homomorphism","error":"precondition-violated",'
        '"witness":{"basis_index":0,"kind":"left-intertwine"}}\n'),
    "semidirect-unit-compatibility": (
        _SEMIDIRECT + " --mu 1/2",
        {"a.json": "A2", "v.json": _A2_DUAL, "alpha.json": _ZERO2, "beta.json": _ID2},
        '{"equation":"unit-compatibility","error":"precondition-violated",'
        '"witness":{"defect":[["-1/2","-1/2"],["-1/2","-1/2"]]}}\n'),
    "semidirect-unital-module": (
        _SEMIDIRECT + " --mu 1",
        {"a.json": {"dim": 0, "sc": [], "unit": []}, "v.json": {"dim": 1, "left": [], "right": []},
         "alpha.json": {"matrix": []}, "beta.json": {"matrix": []}},
        '{"equation":"unital-module","error":"precondition-violated","witness":null}\n'),
    "bridge-proportional-symmetrizer": (
        "frobenius bridge --algebra a.json --gram g.json --r r.json --mu 1 --lambda 1/3",
        {"a.json": "A2", "g.json": {"gram": [[1, 0], [0, 2]]},
         "r.json": {"dim": 2, "coeff": [["1/2", 1], [0, 0]]}},
        '{"equation":"proportional-symmetrizer","error":"precondition-violated",'
        '"witness":{"defect":[["1/3","0"],["0","-5/6"]]}}\n'),
}


@pytest.mark.parametrize("case", _PRECONDITION_BYTES)
def test_precondition_failures_print_the_same_stderr(case, tmp_path, monkeypatch, capsys):
    argv, files, stderr = _PRECONDITION_BYTES[case]
    for name, obj in files.items():
        _write(tmp_path, name, io_json.encode_algebra(alg(obj)) if isinstance(obj, str) else obj)
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 1
    assert capsys.readouterr() == ("", stderr)


@pytest.mark.parametrize("obj, message", [
    ({"dim": -1, "left": [], "right": []}, "bimodule dim -1 is not between 0 and 64"),
    ({"dim": 65, "left": [], "right": []}, "bimodule dim 65 is not between 0 and 64"),
    ({"dim": 1.0, "left": [], "right": []}, "dim: expected int, got float"),
    ({"dim": 3, **_A2_DUAL}, "bimodule dim disagrees with its action matrices"),
], ids=["negative", "too-large", "float", "disagrees"])
def test_a_bimodule_dim_is_checked(obj, message):
    algebra = alg("A2") if obj.get("left") else make_algebra(0, (), unit=())
    with pytest.raises((ValueError, YbeError)) as exc:
        io_json.decode_bimodule(obj, algebra)
    assert str(exc.value) == message


def test_a_bimodule_dim_may_restate_the_matrices():
    a2, a0 = alg("A2"), make_algebra(0, (), unit=())
    assert io_json.decode_bimodule({"dim": 2, **_A2_DUAL}, a2) == \
        io_json.decode_bimodule(_A2_DUAL, a2)
    assert io_json.decode_bimodule({"dim": 3, "left": [], "right": []}, a0).dim == 3


# A bimodule over a 2-dimensional algebra whose second left action matrix is
# empty: once read as zero by `op o-check` and an IndexError in `construct lift`.
_SHORT_MODULE = {"left": [[["1"]], []], "right": [[["1"]], [["0"]]]}


@pytest.mark.parametrize("argv", [
    "construct lift --algebra a.json --module v.json --alpha p.json --lambda 1",
    "op o-check --algebra a.json --module v.json --alpha p.json",
])
def test_an_empty_action_matrix_is_an_input_error(argv, tmp_path, monkeypatch, capsys):
    for name, obj in (("a.json", io_json.encode_algebra(alg("A2"))), ("v.json", _SHORT_MODULE),
                      ("p.json", {"matrix": [["0"], ["0"]]})):
        _write(tmp_path, name, obj)
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 2
    assert capsys.readouterr() == ("", "error: action tables do not match dims\n")


# Failing operator checks, with the stdout they printed before the witness
# was read off the first nonzero block of the operator kernel.
_OPERATOR_CHECK_BYTES = {
    "rb-check-text": (
        "op rb-check --algebra a.json --p p.json --lambda -1/2 --report text",
        {"a.json": "B1", "p.json": {"matrix": [[0, 0, 0], [0, "1/3", 1], [0, 0, 0]]}},
        'FAIL rota-baxter\n  witness: {"defect": ["0", "1/18", "0"], "pair": [1, 1]}\n'),
    "rb-check": (
        "op rb-check --algebra a.json --p p.json --lambda 2",
        {"a.json": "A2", "p.json": {"matrix": [[-2, 0], [0, "1/2"]]}},
        '{"check":"rota-baxter","details":{"weight":"2"},"passed":false,'
        '"witness":{"defect":["0","-5/4"],"pair":[1,1]}}\n'),
    "o-check": (
        "op o-check --algebra a.json --alpha p.json --module v.json",
        {"a.json": "A2", "p.json": {"matrix": [[0, 0], [0, "2/3"]]}, "v.json": _A2_DUAL},
        '{"check":"weight-zero-operator","passed":false,'
        '"witness":{"defect":["0","-4/9"],"pair":[1,1]}}\n'),
}


@pytest.mark.parametrize("case", _OPERATOR_CHECK_BYTES)
def test_failing_operator_checks_print_the_same_bytes(case, tmp_path, monkeypatch, capsys):
    argv, files, stdout = _OPERATOR_CHECK_BYTES[case]
    for name, obj in files.items():
        _write(tmp_path, name, io_json.encode_algebra(alg(obj)) if isinstance(obj, str) else obj)
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 1
    assert capsys.readouterr() == (stdout, "")


_NOT_ASSOCIATIVE = {"dim": 2, "unit": None,
                    "sc": [[["0", "1"], ["0", "0"]], [["1", "0"], ["0", "0"]]]}


@pytest.mark.parametrize("argv, files, prefix, witness", [
    ("dendriform build --dendriform d.json --beta b.json --lambda 1 --mu 0",
     {"d.json": {"dim": 1, "prec": [[["1"]]], "succ": [[["1"]]]},
      "b.json": {"matrix": [["1"]]}},
     "error: ", {"axiom": 1, "triple": [0, 0, 0]}),
    ("construct unitize-extract --algebra a.json --eps e.json --r r.json --mu 0",
     {"a.json": _NOT_ASSOCIATIVE, "e.json": {"eps": ["1", "0"]},
      "r.json": {"dim": 2, "coeff": [["0", "0"], ["0", "0"]]}},
     "error: invalid algebra: ",
     {"kind": "associativity", "left": ["1", "0"], "right": ["0", "0"], "triple": [0, 0, 0]}),
], ids=["dendriform-build", "unitize-extract"])
def test_a_failed_structural_check_prints_its_witness_as_json(argv, files, prefix, witness,
                                                               tmp_path, monkeypatch, capsys):
    for name, obj in files.items():
        _write(tmp_path, name, obj)
    monkeypatch.chdir(tmp_path)
    assert run(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(prefix) and err.endswith("\n")
    text = err[len(prefix):-1]
    assert json.loads(text) == witness
    assert text == io_json.dumps(witness)  # keys sorted, no spaces


def test_an_unassociative_unitization_prints_its_witness_as_json():
    with pytest.raises(ybekit.NotAssociative) as exc:
        ybekit.unitization([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
    prefix = "input multiplication is not associative: "
    text = str(exc.value)
    assert text.startswith(prefix)
    assert text[len(prefix):] == io_json.dumps(
        {"kind": "associativity", "left": ["1", "0"], "right": ["0", "0"], "triple": [0, 0, 0]})


_Z = (0, 0)


@pytest.mark.parametrize("row, want", [
    (["0", "0"], _Z),
    (["0", 0.0], (ValueError, "scalar: expected int, got float")),
    ([False, "0"], (ValueError, "scalar: expected int, got bool")),
    (["0", "-0"], _Z),
    (["0", "0/1"], _Z),
    (["00", "0"], _Z),
    ([0, 0], _Z),
    (["0"], (ybekit.DimensionMismatch, None)),
    ([], (ybekit.DimensionMismatch, None)),
], ids=["zeros", "float", "bool", "minus-zero", "zero-over-one", "double-zero", "ints", "short",
        "empty"])
def test_rows_that_look_like_zeros_decode_as_before(row, want):
    # Only ["0"] * m takes the shared zero row; every other row is read entry
    # by entry, so floats and bools are still refused and a short row still
    # fails the shape check of the tensor or algebra.
    decodes = (
        (lambda: io_json.decode_tensor2({"dim": 2, "coeff": [row, ["1", "0"]]}).coeff,
         "ragged matrix"),
        (lambda: io_json.decode_algebra(
            {"dim": 2, "unit": None, "sc": [[row, ["0", "0"]], [["0", "0"], ["0", "1"]]]}).sc[0],
         "structure constants are not 2x2x2"))
    for decode, shape_message in decodes:
        if want == _Z:
            got = decode()[0]
            assert got == _Z and [type(x) for x in got] == [int, int]
        else:
            error, message = want
            with pytest.raises(error) as exc:
                decode()
            assert str(exc.value) == (message or shape_message)


def test_zero_rows_of_one_document_share_one_tuple():
    a = io_json.decode_algebra(io_json.encode_algebra(alg("B1")))
    zeros = [v for row in a.sc for v in row if not any(v)]
    assert len(zeros) == 6 and all(v is zeros[0] for v in zeros)
    assert a == alg("B1")
