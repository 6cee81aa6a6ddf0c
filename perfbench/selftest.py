"""Self-test of the artifact comparator (perfbench/compare.py).

Usage (from the repository root): python3 perfbench/selftest.py

Shows that the comparator passes an unmodified run of the program (a fresh
report-1d-cubic CLI run, and a copy of each workload's reference) and counts
a run as failed when one rate slope is perturbed by 1e-4 or the exit code is
wrong.  Exits 0 when every case behaves as expected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from compare import REPORT_STATUS, compare_run
from run import OUT, REFERENCE, SRC, WORKLOADS, child_env, cli_command


def copy_reference(name: str, dest):
    """A run directory holding exactly the reference artifacts of `name`."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for ref_file in (REFERENCE / name).iterdir():
        if ref_file.name == REPORT_STATUS:
            rows = json.loads(ref_file.read_text())
            (dest / "report.md").write_text("".join(f"| {check} | - | - | {status} |\n" for check, status in rows))
        else:
            shutil.copy(ref_file, dest / ref_file.name)
    return dest


def perturb(run_dir) -> None:
    """Add 1e-4 to one rate slope (the gap for nondeg, which has no slope)."""
    path = run_dir / "summary.json"
    if path.is_file():
        doc = json.loads(path.read_text())
        doc["rate_fits"]["0.5"]["slope"] += 1.0e-4
    else:
        path = run_dir / "nondeg.json"
        doc = json.loads(path.read_text())
        doc["gap"] += 1.0e-4
    path.write_text(json.dumps(doc))


def main() -> int:
    if not (SRC / "nrlimit" / "__init__.py").is_file():
        print(f"error: no nrlimit sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / "selftest"
    cases = []

    name = "report-1d-cubic"
    wl = WORKLOADS[name]
    fresh = work / "fresh"
    shutil.rmtree(fresh, ignore_errors=True)
    proc = subprocess.run(cli_command(wl, fresh), env=child_env(), capture_output=True, timeout=170)
    cases.append((f"{name}: fresh seed run passes", compare_run(REFERENCE / name, fresh, wl.expected_exit, proc.returncode), False))
    cases.append((f"{name}: exit code 0 instead of 4 fails", compare_run(REFERENCE / name, fresh, wl.expected_exit, 0), True))

    for name, wl in WORKLOADS.items():
        run_dir = copy_reference(name, work / name)
        cases.append((f"{name}: reference copy passes", compare_run(REFERENCE / name, run_dir, wl.expected_exit, wl.expected_exit), False))
        wrong_exit = 3 if wl.expected_exit != 3 else 0
        cases.append((f"{name}: exit code {wrong_exit} fails", compare_run(REFERENCE / name, run_dir, wl.expected_exit, wrong_exit), True))
        perturb(run_dir)
        cases.append((f"{name}: value perturbed by 1e-4 fails", compare_run(REFERENCE / name, run_dir, wl.expected_exit, wl.expected_exit), True))

    ok = True
    for label, errors, should_fail in cases:
        good = bool(errors) == should_fail
        ok &= good
        detail = f" ({errors[0]})" if errors else ""
        print(f"{'ok  ' if good else 'BAD '} {label}{detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
