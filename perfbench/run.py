"""Benchmark of the ybekit CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ybekit is imported from its `src`.
One process, one closed-loop client: the workload's commands run back to
back through `ybekit.cli.run(argv)` with stdout captured, and the sequence
repeats while the time budget allows.  Every output is checked.  The last
stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer metrics from a
traced run with `--trace 1`).  `--workload all` runs every workload in its
own process and prints a table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 15

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import speed, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

# failed_ratio is the fifth end-to-end metric; it is 0 when the program is
# right, so it travels as the result's `failed` / `attempted` and in the run
# information line rather than among the bounded metrics.
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "peak_rss_mb": "MB"}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_call"):
        return "us"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


def import_ybekit():
    """Import ybekit afresh from the checkout's `src` and return its CLI
    module.  Refuses an installed copy from elsewhere."""
    if not (SRC / "ybekit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no ybekit sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ybekit" or n.startswith("ybekit.")]:
        del sys.modules[name]
    cli = importlib.import_module("ybekit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ybekit imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload, seed, workdir, size) -> tuple[list, list]:
    """Import ybekit and write the workload's inputs, SETUP_REPEATS times;
    returns the commands and the (start, end) of each repeat."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_ybekit()
        cmds = workloads.commands(workload, workdir, seed, size)
        intervals.append((start, time.perf_counter()))
    return cmds, intervals


@dataclass
class Pass:
    """One run of the command sequence: the (start, end) of each command and
    its (exit code, stdout, stderr)."""
    intervals: list
    outputs: list

    def times(self, clock: speed.Sampler) -> list[float]:
        """Calibrated seconds of each command."""
        return [clock.calibrated(start, end) for start, end in self.intervals]


def run_pass(cmds, tracer: Tracer | None = None) -> Pass:
    """Run the command sequence once.  Each command gets a freshly imported
    ybekit and a collected heap, as a new CLI process would, and runs with
    `tracer` installed when one is given."""
    p = Pass([], [])
    for cmd in cmds:
        cli = import_ybekit()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with tracer.installed() if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(list(cmd.argv))
            except Exception:  # an uncaught error is a failed command, not a crash
                code = -1
                err.write(traceback.format_exc())
            p.intervals.append((start, time.perf_counter()))
        p.outputs.append((code, out.getvalue(), err.getvalue()))
    return p


def check_pass(cmds, p: Pass) -> int:
    """Check every command's output; returns the number that failed."""
    failed = 0
    for cmd, (code, stdout, stderr) in zip(cmds, p.outputs):
        if code < 0:
            reason = "uncaught exception"
        else:
            try:
                reason = cmd.check(code, stdout)
            except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                reason = f"malformed output ({exc!r})"
        if reason is not None:
            failed += 1
            print(f"FAILED {' '.join(cmd.argv)}: {reason}\n{stderr[-2000:]}",
                  file=sys.stderr)
    return failed


def _calibrate_layers(values: dict, p: Pass, clock: speed.Sampler) -> dict:
    """Scale the per-layer times of a traced pass to calibrated seconds."""
    scale = speed.NOMINAL_S / clock.reference(p.intervals[0][0], p.intervals[-1][1])
    return {k: v * scale if _per_layer_unit(k) in ("s", "us") else v
            for k, v in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> tuple[dict, dict]:
    """Measure one workload for about `seconds` (at least one pass, and with
    `trace` one untraced and one traced pass); returns (result line, run
    information).  Times are calibrated once measuring is over, so that each
    interval has reference samples on both sides."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"inputs-{workload}-") as tmp, \
            speed.Sampler() as clock:
        cmds, setup_intervals = setup(workload, seed, Path(tmp), size)
        plain, traced, tracers = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            if trace and len(plain) > len(traced):
                tracers.append(Tracer())
                p = run_pass(cmds, tracers[-1])
                traced.append(p)
            else:
                p = run_pass(cmds)
                plain.append(p)
            attempted += len(cmds)
            failed += check_pass(cmds, p)
            elapsed = time.perf_counter() - start
            per_pass = elapsed / (len(plain) + len(traced))
            if (not trace or traced) and elapsed + per_pass > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_s = statistics.median(clock.calibrated(*i) for i in setup_intervals)
        times = [p.times(clock) for p in plain]
        traced_walls = [sum(p.times(clock)) for p in traced]
        layer_runs = [_calibrate_layers(t.metrics(), p, clock) for t, p in zip(tracers, traced)]
    walls = [sum(t) for t in times]
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "size": size, "commands": len(cmds), "passes": len(plain),
            "traced_passes": len(traced), "failed_ratio": failed / attempted,
            "reference_s": statistics.median(d for _, d in clock.samples),
            "machine": machine_info()}
    if trace:
        if tracers[0].missing:
            print(f"tracer: not found in ybekit: {', '.join(sorted(tracers[0].missing))}",
                  file=sys.stderr)
        # Counts repeat exactly, so median_low keeps them whole numbers.
        values = {k: (statistics.median_low if _per_layer_unit(k) in ("count", "bits")
                      else statistics.median)(run[k] for run in layer_runs)
                  for k in layer_runs[0]}
        values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        metrics = {k: {"value": v, "unit": _per_layer_unit(k)} for k, v in values.items()}
        write_trace(tracers[0], info, workload, seed)
    else:
        values = {"setup_s": setup_s, "wall_s": statistics.median(walls),
                  "cmd_p50_s": statistics.median(statistics.median(t) for t in zip(*times)),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def write_trace(tracer: Tracer, info: dict, workload: str, seed: int) -> None:
    """Write the spans of the first traced pass next to the benchmark."""
    path = OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({"run": info, "spans": [s.to_json() for s in tracer.spans]},
                               sort_keys=True), encoding="utf-8")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    rows, results = [], {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[workload] = result
        metrics = dict(result["metrics"])
        if not args.trace:
            metrics["failed_ratio"] = {"value": info["failed_ratio"], "unit": "ratio"}
        for name, m in metrics.items():
            rows.append((workload, name, f"{m['value']:.6g}", m["unit"]))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
