"""Tests of the benchmark itself: `python3 -m pytest perfbench/tests -q`."""

import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import oracle, run, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def _bindings():
    """Every attribute of every ybekit module, plus the traced class hooks."""
    mods = {n: m for n, m in sys.modules.items() if n == "ybekit" or n.startswith("ybekit.")}
    out = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    tensors = mods["ybekit.tensors"]
    for cls in (tensors.Tensor2, tensors.Tensor3):
        out[(cls.__name__, "__post_init__")] = cls.__dict__["__post_init__"]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_and_is_correct(workload, trace):
    result, info = run.run_workload(workload, seed=3, seconds=0, trace=trace, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert info["failed_ratio"] == 0 and info["machine"]["nproc"] >= 1
    expected = set(Tracer().metrics()) | {"trace.overhead_ratio"} if trace \
        else {"setup_s", "wall_s", "cmd_p50_s", "peak_rss_mb"}
    assert set(result["metrics"]) == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_restores_every_binding():
    run.import_ybekit()
    before = _bindings()
    ybe = sys.modules["ybekit.ybe"]
    original = ybe.nhacybe_residual
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert ybe.nhacybe_residual is not original
            assert sys.modules["ybekit.cli"].nhacybe_residual is not original
            raise RuntimeError("command failed")
    after = _bindings()
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] is not after[k]] == []


def _outputs(workload, tmp_path, seed=5):
    run.import_ybekit()
    cmds = workloads.commands(workload, tmp_path, seed, "tiny")
    p = run.run_pass(cmds)
    assert run.check_pass(cmds, p) == 0
    return cmds, p.outputs


def _corrupt_number(stdout):
    """Change one coefficient in the first tensor of an output."""
    head, sep, tail = stdout.partition('"coeff":[["')
    return head + sep + "7" + tail[tail.index('"'):]


@pytest.mark.parametrize("workload,corrupt", [
    ("verify", lambda code, out: (code, out.replace('"passed":true', '"passed":false', 1))),
    ("verify", lambda code, out: (1, out)),
    ("enumerate", lambda code, out: (code, "".join(out.splitlines(True)[1:]))),
    ("enumerate", lambda code, out: (code, "".join(reversed(out.splitlines(True))))),
    ("enumerate", lambda code, out: (code, _corrupt_number(out))),
    ("invariant", lambda code, out: (code, _corrupt_number(out))),
    ("invariant", lambda code, out: (code, out.replace('"dimension":1', '"dimension":2'))),
    ("check", lambda code, out: (1 - code, out)),
])
def test_check_catches_corrupted_output(workload, corrupt, tmp_path):
    cmds, results = _outputs(workload, tmp_path)
    corrupted = 0
    for cmd, (code, stdout, _) in zip(cmds, results):
        bad_code, bad_out = corrupt(code, stdout)
        if (bad_code, bad_out) != (code, stdout):
            corrupted += 1
            assert cmd.check(bad_code, bad_out) is not None, cmd.argv
    assert corrupted >= 1


def test_malformed_output_is_a_failure_not_a_crash(tmp_path):
    cmds, results = _outputs("enumerate", tmp_path)
    code, stdout, stderr = results[0]
    broken = run.Pass([], [(code, stdout.replace('"coeff"', '"coef"', 1), stderr)])
    assert run.check_pass(cmds[:1], broken) == 1


def test_check_rejects_a_wrong_suite_set(tmp_path):
    cmds, results = _outputs("check", tmp_path)
    suites = [(c, r) for c, r in zip(cmds, results) if c.argv[0] == "op"]
    for cmd, (code, stdout, _) in suites:
        dropped = stdout.replace('"check":"invariant-operator-suite"', '"check":"other"')
        if dropped != stdout:
            assert cmd.check(code, dropped) is not None
            return
    pytest.fail("no tiny check tensor ran the invariant operator suite")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    run.import_ybekit()
    cmds = workloads.commands(workload, tmp_path, 11, "tiny")
    counts = []
    for _ in range(2):
        tracer = Tracer()
        run.run_pass(cmds, tracer)
        counts.append({k: v for k, v in tracer.metrics().items()
                       if run._per_layer_unit(k) in ("count", "bits")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_check_batch_kinds_are_what_they_claim():
    n = 3
    sc, unit = workloads.matrix_sc(n), oracle.unit_vector(n)
    batch = workloads.check_batch(random.Random(2), n, (2, 1, 2))
    for kind, coeff, mu in batch:
        if kind == "unit":
            assert not oracle.matrix_residual(n, coeff, mu)
            assert not oracle.matrix_residual(n, coeff, mu, opposite=True)
        if kind == "symmetric-invariant":
            assert oracle.is_invariant(sc, oracle.symmetrizer(coeff, unit, mu))
            assert any(x.denominator == 2 for row in coeff for x in row)


def _algebra_operator(n: int, t3) -> dict:
    """A coefficient array t3[p][q][s] over the matrix-unit basis of M_n, as
    an operator on V (x) V (x) V."""
    out: dict = {}
    d = n * n
    for p in range(d):
        for q in range(d):
            for s in range(d):
                x = t3[p][q][s]
                if not x:
                    continue
                (a1, b1), (a2, b2), (a3, b3) = (divmod(i, n) for i in (p, q, s))
                row = out.setdefault((a1 * n + a2) * n + a3, {})
                col = (b1 * n + b2) * n + b3
                row[col] = row.get(col, 0) + x
    return out


@pytest.mark.parametrize("opposite", [False, True])
def test_matrix_oracle_matches_the_program_residual(opposite):
    run.import_ybekit()
    import ybekit
    n = 2
    a = ybekit.make_algebra(4, workloads.matrix_sc(n), unit=oracle.unit_vector(n))
    rng = random.Random(7)
    for mu in (0, 1, Fraction(-1, 2)):
        coeff = [[rng.choice(workloads.COEFFS) for _ in range(4)] for _ in range(4)]
        inst = ybekit.YbeInstance(a, mu)
        r = ybekit.Tensor2(4, coeff)
        res = (ybekit.opposite_residual if opposite else ybekit.nhacybe_residual)(inst, r)
        expected = {i: row for i, row in
                    _algebra_operator(n, res.coeff).items() if any(row.values())}
        got = oracle.matrix_residual(n, coeff, mu, opposite)
        assert {i: {j: x for j, x in row.items() if x} for i, row in expected.items()} == got


def test_tiny_enumerate_count_is_complete():
    """The tiny enumerate case expects 74 solutions of B1 on the {0, 1} grid;
    recount them by brute force through embed/triple_mul."""
    run.import_ybekit()
    import ybekit
    a = ybekit.make_algebra(3, workloads.diagonal_sc(3), unit=(1, 1, 1))
    count = 0
    for flat in product((0, 1), repeat=9):
        r = ybekit.Tensor2(3, (flat[0:3], flat[3:6], flat[6:9]))
        r12, r13, r23 = (ybekit.embed(r, s, a) for s in (12, 13, 23))
        res = ybekit.triple_mul(r12, r13, a).add(ybekit.triple_mul(r13, r23, a)).sub(
            ybekit.triple_mul(r23, r12, a)).sub(r13)
        count += res.is_zero()
    assert count == 74
