import json

import pytest

from ybekit import io_json
from ybekit.algebras import make_algebra
from ybekit.cli import run

from helpers import alg


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
