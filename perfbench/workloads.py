"""The four workloads: seeded inputs, the CLI command sequence, and a check
of every command's exit code and output.

Inputs are written here as plain JSON from structure constants and matrix
units, never through ybekit, so set-up time does not move when the program
changes.  Only the `check` workload depends on the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import oracle

WORKLOADS = ("verify", "enumerate", "invariant", "check")

CATALOG_NAMES = ("A1", "A2", "B1", "B2", "B3", "B4", "B5", "M2")
VERIFY_MUS = ("1", "2", "-1/2")
ENUMERATE_MU = "1"
SUITE_MUS = ("1", "-1/2")
# Nonzero entries only, so that every seed gives tensors of the same density.
COEFFS = (-2, -1, 1, 2)
ODD = (-3, -1, 1, 3)


@dataclass(frozen=True)
class Command:
    """One CLI call; `check(exit_code, stdout)` returns None when the output
    is right and a short reason otherwise."""
    argv: tuple[str, ...]
    check: Callable[[int, str], "str | None"]


def scalar_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _algebra_json(dim, sc, unit, basis) -> dict:
    return {"dim": dim, "basis": list(basis),
            "unit": [scalar_str(x) for x in unit],
            "sc": [[[scalar_str(x) for x in v] for v in row] for row in sc]}


def diagonal_sc(n: int) -> list:
    """Q^n with coordinatewise product (the catalog's B1 for n = 3)."""
    return [[[1 if i == j == p else 0 for p in range(n)] for j in range(n)]
            for i in range(n)]


def matrix_sc(n: int) -> list:
    """M_n on the row-major matrix units: E_ab E_ce = [b == c] E_ae."""
    d = n * n
    sc = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for e in range(n):
                sc[a * n + b][b * n + e][a * n + e] = 1
    return sc


def _matrix_json(n):
    return _algebra_json(n * n, matrix_sc(n), oracle.unit_vector(n),
                         [f"E{a + 1}{b + 1}" for a in range(n) for b in range(n)])


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def _tensor_json(coeff) -> dict:
    return {"dim": len(coeff), "coeff": [[scalar_str(x) for x in row] for row in coeff]}


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


# ---------------------------------------------------------------- verify

def _verify_check(name):
    def check(code, stdout):
        obj = _parse(stdout)
        if code != 0:
            return f"exit {code}"
        if not isinstance(obj, dict) or obj.get("check") != f"catalog:{name}":
            return "not a catalog report"
        if obj.get("passed") is not True:
            return "catalog report did not pass"
        if not all(sub.get("passed") is True
                   for sub in obj.get("details", {}).get("subchecks", [])):
            return "a subcheck did not pass"
        return None
    return check


def verify_commands(size: str) -> list[Command]:
    names = CATALOG_NAMES if size == "full" else ("A1", "A2", "M2")
    mus = [a for mu in VERIFY_MUS for a in ("--mu", mu)]
    return [Command(("catalog", "verify", "--name", name, *mus), _verify_check(name))
            for name in names]


# ---------------------------------------------------------------- enumerate

def _enumerate_cases(size):
    """(algebra name, structure constants, unit, grid, expected solutions)."""
    b1 = ("B1", diagonal_sc(3), [1, 1, 1])
    if size == "tiny":
        return [(*b1, "0,1", 74)]
    return [(*b1, "-1,0,1", 74), ("M2", matrix_sc(2), oracle.unit_vector(2), "0,1", 52)]


def _enumerate_check(sc, unit, grid, expected):
    grid_values = {Fraction(v) for v in grid.split(",")}
    verified: dict[str, str | None] = {}

    def solves(coeff) -> bool:
        import ybekit
        a = ybekit.make_algebra(len(sc), sc, unit=unit)
        r = ybekit.Tensor2(len(coeff), coeff)
        r12, r13, r23 = (ybekit.embed(r, s, a) for s in (12, 13, 23))
        res = ybekit.triple_mul(r12, r13, a).add(ybekit.triple_mul(r13, r23, a)).sub(
            ybekit.triple_mul(r23, r12, a)).sub(r13.scale(Fraction(ENUMERATE_MU)))
        return res.is_zero()

    def check(code, stdout):
        if code != 0:
            return f"exit {code}"
        if stdout not in verified:
            verified[stdout] = _check_solutions(stdout)
        return verified[stdout]

    def _check_solutions(stdout):
        lines = stdout.splitlines()
        if len(lines) != expected:
            return f"{len(lines)} solutions, expected {expected}"
        previous = None
        for line in lines:
            obj = _parse(line)
            if not isinstance(obj, dict) or obj.get("dim") != len(sc):
                return "malformed solution line"
            coeff = tuple(tuple(Fraction(x) for x in row) for row in obj["coeff"])
            flat = tuple(x for row in coeff for x in row)
            if previous is not None and not previous < flat:
                return "solutions not in strictly increasing order"
            previous = flat
            if not set(flat) <= grid_values:
                return "solution off the grid"
            if not solves(coeff):
                return "listed tensor does not solve the equation"
        return None

    return check


def enumerate_commands(workdir: Path, size: str) -> list[Command]:
    out = []
    for name, sc, unit, grid, expected in _enumerate_cases(size):
        path = _write(workdir / f"{name}.json",
                      _algebra_json(len(sc), sc, unit, [f"e{i + 1}" for i in range(len(sc))]))
        out.append(Command(("ybe", "enumerate", "--algebra", path, "--mu", ENUMERATE_MU,
                            "--grid", grid),
                           _enumerate_check(sc, unit, grid, expected)))
    return out


# ---------------------------------------------------------------- invariant

def _invariant_check(sc):
    def check(code, stdout):
        obj = _parse(stdout)
        if code != 0:
            return f"exit {code}"
        if not isinstance(obj, dict) or obj.get("dimension") != 1:
            return "invariant dimension is not 1"
        basis = obj.get("basis", [])
        if len(basis) != 1:
            return "basis length differs from the dimension"
        for t in basis:
            s = [[Fraction(x) for x in row] for row in t["coeff"]]
            if not any(any(row) for row in s):
                return "zero basis tensor"
            if any(s[i][j] != s[j][i] for i in range(len(s)) for j in range(len(s))):
                return "basis tensor is not symmetric"
            if not oracle.is_invariant(sc, s):
                return "basis tensor is not invariant"
        return None
    return check


def invariant_commands(workdir: Path, size: str) -> list[Command]:
    out = []
    for n in ((3, 4) if size == "full" else (2,)):
        path = _write(workdir / f"M{n}.json", _matrix_json(n))
        out.append(Command(("ybe", "invariant-basis", "--algebra", path),
                           _invariant_check(matrix_sc(n))))
    return out


# ---------------------------------------------------------------- check

# matrix size -> (random integer tensors, mu (1 (x) 1) tensors, tensors with an
# invariant extended symmetrizer).  Command times fall into groups by command,
# kind and size; these counts put the median command (cmd_p50_s) in the middle
# of the `ybe check` group of the M3 invariant-symmetrizer tensors, not on the
# edge between two groups, where it would jump from seed to seed.
CHECK_BATCH = {"full": {3: (8, 4, 3), 4: (1, 1, 1)}, "tiny": {2: (1, 1, 1)}}


def check_batch(rng: random.Random, n: int, counts) -> list[tuple[str, list, str]]:
    """Seeded (kind, coefficients, mu) triples on M_n.  The arithmetic of each
    slot is fixed (integer or half-integer, which mu, no zero entries where
    the kind allows) so that every seed asks for the same amount of work; the
    seed chooses the entries."""
    d = n * n
    unit = oracle.unit_vector(n)
    n_random, n_unit, n_sym = counts
    out = []
    for k in range(n_random):
        coeff = [[Fraction(rng.choice(COEFFS)) for _ in range(d)] for _ in range(d)]
        out.append(("random", coeff, SUITE_MUS[k % 2]))
    for _ in range(n_unit):
        mu = Fraction(rng.choice((1, 2, 3, -1, -2)))
        out.append(("unit", [[mu * unit[i] * unit[j] for j in range(d)] for i in range(d)],
                    scalar_str(mu)))
    for k in range(n_sym):
        # skew + (c tau + mu 1 (x) 1) / 2 with tau = sum E_ab (x) E_ba, which is
        # invariant, so the extended symmetrizer c tau is invariant at this mu.
        mu = Fraction(SUITE_MUS[k % 2])
        c = rng.choice(ODD)
        coeff = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                x = rng.choice(COEFFS)
                coeff[i][j] += x
                coeff[j][i] -= x
        for a in range(n):
            for b in range(n):
                coeff[a * n + b][b * n + a] += Fraction(c, 2)
        for i in range(d):
            for j in range(d):
                coeff[i][j] += mu * unit[i] * unit[j] / 2
        out.append(("symmetric-invariant", coeff, scalar_str(mu)))
    return out


def _equation_check(name, n, coeff, mu, opposite):
    expected = []  # the oracle's exit code, computed on first use

    def check(code, stdout):
        if not expected:
            expected.append(1 if oracle.matrix_residual(n, coeff, mu, opposite) else 0)
        obj = _parse(stdout)
        if code != expected[0]:
            return f"exit {code}, oracle expects {expected[0]}"
        if not isinstance(obj, dict) or obj.get("check") != name:
            return f"not a {name} report"
        if obj.get("passed") is not (code == 0):
            return "report verdict disagrees with exit code"
        if Fraction(obj.get("details", {}).get("mu", "nan")) != Fraction(mu):
            return "report names another mu"
        return None
    return check


def _suite_check(n, coeff):
    expected = []  # suite names the oracle predicts, computed on first use

    def check(code, stdout):
        if not expected:
            sc, unit = matrix_sc(n), oracle.unit_vector(n)
            for m in SUITE_MUS:
                expected.append("operator-form-suite")
                if oracle.is_invariant(sc, oracle.symmetrizer(coeff, unit, m)):
                    expected.append("invariant-operator-suite")
        obj = _parse(stdout)
        if code != 0:
            return f"exit {code}"
        if not isinstance(obj, dict) or obj.get("passed") is not True:
            return "operator suites disagree"
        subs = obj.get("details", {}).get("subchecks", [])
        if [s.get("check") for s in subs] != expected:
            return "unexpected set of suites"
        if not all(s.get("passed") is True for s in subs):
            return "a suite did not pass"
        return None
    return check


def check_commands(workdir: Path, seed: int, size: str) -> list[Command]:
    rng = random.Random(seed)
    mus = [a for m in SUITE_MUS for a in ("--mu", m)]
    out = []
    for n, counts in CHECK_BATCH[size].items():
        alg = _write(workdir / f"M{n}.json", _matrix_json(n))
        for idx, (kind, coeff, mu) in enumerate(check_batch(rng, n, counts)):
            r = _write(workdir / f"M{n}-{idx}-{kind}.json", _tensor_json(coeff))
            for opposite in (False, True):
                flag = ("--opposite",) if opposite else ()
                name = "opposite-equation" if opposite else "tensor-equation"
                out.append(Command(
                    ("ybe", "check", *flag, "--algebra", alg, "--r", r, "--mu", mu),
                    _equation_check(name, n, coeff, mu, opposite)))
            out.append(Command(("op", "suite", "--algebra", alg, "--r", r, *mus),
                               _suite_check(n, coeff)))
    return out


def commands(workload: str, workdir: Path, seed: int, size: str = "full") -> list[Command]:
    """Write the workload's inputs into `workdir` and return its commands in
    the order they run."""
    if workload == "verify":
        return verify_commands(size)
    if workload == "enumerate":
        return enumerate_commands(workdir, size)
    if workload == "invariant":
        return invariant_commands(workdir, size)
    if workload == "check":
        return check_commands(workdir, seed, size)
    raise ValueError(f"unknown workload {workload!r}")
