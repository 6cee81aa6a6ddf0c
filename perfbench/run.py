"""Benchmark of record for the nrlimit CLI.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one fixed `nrlimit` CLI invocation.  A run starts fresh CLI
processes one after another (a closed loop with one client, default
`--threads 1`) until S seconds have passed, checks every process's exit code
and artifacts against perfbench/reference/<workload>, and prints each metric
by name and unit; the last stdout line is the JSON result.

--trace 0 reports the end-to-end metrics: median wall, CPU (user + system,
from os.wait4) and peak RSS of the CLI processes, and the median set-up time
of fresh processes that import nrlimit and build the workload's Grid.
--trace 1 runs the same untraced loop, then one traced process
(perfbench/traced.py) and reports the per-layer metrics; tracing overhead is
the traced wall time minus the untraced median.

The inputs are fixed configs: --seed is recorded but changes nothing.  The
thread environment (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, ...) is passed
through unchanged and recorded, with nproc and library versions, in every
result.  Everything is written under .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from compare import compare_run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference"

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPS = 7  # minimum number of set-up processes per run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
HARTREE_3D = ("--override", "problem.n=3", "--override", "problem.nonlinearity=hartree")


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    grid: tuple[int, float, int]  # (n, L, N) of the Grid the CLI builds
    expected_exit: int


WORKLOADS = {
    # exit 4: the s=4 uniform bound is the one documented FAIL row
    "report-1d-cubic": Workload(("report",), (1, 32.0, 1024), 4),
    "report-3d-hartree": Workload(("report", *HARTREE_3D), (3, 16.0, 64), 0),
    "nondeg-3d-hartree": Workload(("nondeg", *HARTREE_3D), (3, 16.0, 64), 0),
}

PROBE_CODE = """\
import json, platform
import numpy, scipy, nrlimit
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
except Exception as exc:
    blas = {"error": repr(exc)}
print(json.dumps({
    "nrlimit_file": nrlimit.__file__,
    "nrlimit": getattr(nrlimit, "__version__", None),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas,
}))
"""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    errors: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], log_path: Path, deadline: float) -> tuple[Sample, float]:
    """Run one child to completion; returns its sample and its spawn time (monotonic)."""
    with log_path.open("w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    sample = Sample(
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )
    return sample, start


def probe_environment(work: Path, deadline: float) -> dict:
    """Import nrlimit from this checkout in a fresh process (also warms the bytecode cache)."""
    log = work / "probe.log"
    sample, _ = spawn([sys.executable, "-c", PROBE_CODE], log, deadline)
    if sample.exit_code != 0:
        raise SystemExit(f"cannot import nrlimit from {SRC}:\n{log.read_text()}")
    env = json.loads(log.read_text().strip().splitlines()[-1])
    if not Path(env["nrlimit_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"nrlimit imported from {env['nrlimit_file']}, not from {SRC}")
    env["nproc"] = os.cpu_count()
    env["affinity_cpus"] = len(os.sched_getaffinity(0))
    env["thread_env"] = {name: os.environ.get(name) for name in THREAD_VARS}
    return env


def setup_time(wl: Workload, work: Path, deadline: float) -> float:
    """Wall time of a fresh process that imports nrlimit and builds the workload's Grid."""
    n, length, points = wl.grid
    code = f"import nrlimit; nrlimit.make_grid({n}, {length!r}, {points})"
    sample, _ = spawn([sys.executable, "-c", code], work / "setup.log", deadline)
    if sample.exit_code != 0:
        raise SystemExit(f"set-up process failed:\n{(work / 'setup.log').read_text()}")
    return sample.wall_s


def cli_command(wl: Workload, out_dir: Path) -> list[str]:
    return [sys.executable, "-m", "nrlimit", *wl.cli_args, "--out", str(out_dir)]


def measure(
    name: str, wl: Workload, work: Path, seconds: float, deadline: float, with_setup: bool
) -> tuple[list[Sample], list[float]]:
    """Closed loop: one CLI process after another until `seconds` have passed.

    With `with_setup`, set-up processes run before the loop and after each
    CLI process, and are topped up to SETUP_REPS at the end, so that set-up
    and CLI processes sample the same stretch of machine time.
    """
    samples: list[Sample] = []
    setup = [setup_time(wl, work, deadline) for _ in range(SETUP_REPS // 2 if with_setup else 0)]
    out_dir = work / "artifacts"
    begin = time.monotonic()
    while not samples or time.monotonic() - begin < seconds:
        longest = max(s.wall_s for s in samples) if samples else 0.0
        if time.monotonic() + 1.5 * longest > deadline:
            break
        shutil.rmtree(out_dir, ignore_errors=True)
        sample, _ = spawn(cli_command(wl, out_dir), work / "cli.log", deadline)
        sample.errors = compare_run(REFERENCE / name, out_dir, wl.expected_exit, sample.exit_code)
        samples.append(sample)
        if with_setup:
            setup.append(setup_time(wl, work, deadline))
    while with_setup and len(setup) < SETUP_REPS:
        setup.append(setup_time(wl, work, deadline))
    return samples, setup


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, overhead_s: float) -> dict[str, tuple[float, str]]:
    spans = trace["spans"]
    self_s = [_duration(span) for span in spans]
    for span in spans:
        if span["parent"] is not None:
            self_s[span["parent"]] -= _duration(span)

    def named(*names):
        return [i for i, span in enumerate(spans) if span["name"] in names]

    def total_s(indices) -> float:
        return float(sum(_duration(spans[i]) for i in indices))

    solves, gaps, sweeps = named("solve"), named("nondegeneracy_gap"), named("sweep")
    iterations = sum(spans[i].get("iterations", 0) for i in solves)
    solve_s = total_s(solves)
    fft = trace["fft"]
    metrics = {
        "cli.run_s": (trace["cli_run_s"], "s"),
        "ground_state.iterations": (iterations, "count"),
        "ground_state.iter_ms": (1e3 * _ratio(solve_s, iterations), "ms"),
        "ground_state.fft_calls_per_iter": (_ratio(sum(spans[i]["fft_calls"] for i in solves), iterations), "calls/iter"),
        "ground_state.fft_share": (_ratio(sum(spans[i]["fft_s"] for i in solves), solve_s), "share"),
        "grid.fft_calls": (fft["calls"], "count"),
        "grid.fft_ms": (1e3 * _ratio(fft["seconds"], fft["calls"]), "ms"),
        "grid.fft_gflops": (1e-9 * _ratio(fft["flops"], fft["seconds"]), "Gflop/s-computed"),
        "limit_lab.gap_s": (total_s(gaps), "s"),
        "limit_lab.gap_fft_calls": (sum(spans[i]["fft_calls"] for i in gaps), "count"),
        "limit_lab.sweep_s": (total_s(sweeps), "s"),
        "limit_lab.sweep_self_s": (float(sum(self_s[i] for i in sweeps)), "s"),
        "operators.symbol_table_s": (total_s(named("symbol_gap_ratio", "symbol_gap_scan", "taylor_residual")), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    metrics.update({name: (value, "ms") for name, value in sorted(trace["micro"].items())})
    return metrics


def traced_run(name: str, wl: Workload, work: Path, untraced_wall: float, deadline: float):
    out_dir = work / "artifacts"
    trace_path = work / "trace.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    trace_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "traced.py"), str(trace_path), "--", *wl.cli_args, "--out", str(out_dir)]
    sample, spawned = spawn(cmd, work / "traced.log", deadline)
    if sample.exit_code != 0 or not trace_path.is_file():
        raise SystemExit(f"traced run failed:\n{(work / 'traced.log').read_text()}")
    trace = json.loads(trace_path.read_text())
    sample.errors = compare_run(REFERENCE / name, out_dir, wl.expected_exit, trace["exit_code"])
    traced_wall = trace["cli_end_monotonic"] - spawned
    return sample, trace, layer_metrics(trace, traced_wall - untraced_wall)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "nrlimit" / "__init__.py").is_file():
        print(f"error: no nrlimit sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)

    env = probe_environment(work, deadline)
    samples, setup = measure(args.workload, wl, work, args.seconds, deadline, with_setup=not args.trace)
    wall = statistics.median(s.wall_s for s in samples)

    if args.trace:
        traced, trace, metrics = traced_run(args.workload, wl, work, wall, deadline)
        samples.append(traced)
    else:
        trace = None
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }

    failed = [s for s in samples if s.errors]
    print(f"workload {args.workload}: nrlimit {' '.join(wl.cli_args)} (fixed config; seed {args.seed} changes no input)")
    print("env " + json.dumps(env, sort_keys=True))
    if trace is not None and trace["missing"]:
        print("missing (not wrapped): " + ", ".join(trace["missing"]))
    untraced = len(samples) - (1 if args.trace else 0)
    print(f"samples: {untraced} untraced CLI processes" + ("" if args.trace else f", {len(setup)} set-up processes"))
    if not args.trace:
        print("tail percentile: none (no percentile has 10 samples beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(f"  {'fail_ratio':<40} {len(failed)}/{len(samples)}")
    for s in failed:
        for err in s.errors[:5]:
            print(f"mismatch: {err}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_s": setup,
        "samples": [vars(s) for s in samples],
        "result": result,
    }
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
