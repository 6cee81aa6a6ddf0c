"""Compare the artifacts of one nrlimit CLI run against the checked-in reference.

Rules:
- every result value (norms, slopes, A/B constants, gap, actions, c^2 form,
  symbol ratios) matches the reference to RTOL relative;
- round-off diagnostics only have to stay under the bound the report states
  (ROUNDOFF_BOUNDS); their reference values are not compared;
- iteration counts are not compared (they are per-layer metrics);
- every reference file is present; JSON keys, CSV rows and report check
  names match exactly, and the report's PASS/FAIL column matches row by row;
- the exit code is exactly the expected one.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

RTOL = 1.0e-6

# key -> bound, as stated in report.md ("soliton residual <= 1e-10",
# "linearization identity residual <= 1e-8"); solver residuals use the
# soliton-residual bound on every workload.
ROUNDOFF_BOUNDS = {
    "residual": 1.0e-10,
    "reference_residual": 1.0e-10,
    "linearization_identity_residual": 1.0e-8,
}
IGNORED_KEYS = {"iterations"}
REPORT_STATUS = "report_status.json"


def _compare_values(ref, got, path: str, errors: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            errors.append(f"{path}: keys differ")
            return
        for key in sorted(ref):
            sub = f"{path}.{key}"
            if key in IGNORED_KEYS:
                continue
            if key in ROUNDOFF_BOUNDS:
                if not isinstance(got[key], (int, float)) or not abs(got[key]) <= ROUNDOFF_BOUNDS[key]:
                    errors.append(f"{sub}: {got[key]!r} exceeds bound {ROUNDOFF_BOUNDS[key]:g}")
                continue
            _compare_values(ref[key], got[key], sub, errors)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            errors.append(f"{path}: list length differs")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare_values(r, g, f"{path}[{i}]", errors)
    elif isinstance(ref, bool) or ref is None or isinstance(ref, str):
        if ref != got:
            errors.append(f"{path}: {got!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            errors.append(f"{path}: {got!r} is not a number")
        elif not math.isclose(got, ref, rel_tol=RTOL, abs_tol=0.0):
            errors.append(f"{path}: {got!r} != reference {ref!r} (rtol {RTOL:g})")
    else:
        errors.append(f"{path}: unexpected reference type {type(ref).__name__}")


def _load_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _report_status(path: Path) -> list[list[str]]:
    """(check name, PASS/FAIL) for every row of the report's check table."""
    rows = []
    for line in path.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[3] in ("PASS", "FAIL"):
            rows.append([cells[0], cells[3]])
    return rows


def compare_run(ref_dir: Path, out_dir: Path, expected_exit: int, exit_code: int) -> list[str]:
    """Return the list of mismatches between a run and its reference; empty means correct."""
    errors: list[str] = []
    if exit_code != expected_exit:
        errors.append(f"exit code {exit_code} != expected {expected_exit}")
    for ref_file in sorted(ref_dir.iterdir()):
        name = ref_file.name
        # the reference keeps only the PASS/FAIL column of report.md
        got_name = "report.md" if name == REPORT_STATUS else name
        got_file = out_dir / got_name
        if not got_file.is_file():
            errors.append(f"{got_name}: missing")
            continue
        try:
            if name == REPORT_STATUS:
                ref_rows = json.loads(ref_file.read_text())
                got_rows = _report_status(got_file)
                if got_rows != ref_rows:
                    errors.append(f"report.md: PASS/FAIL rows {got_rows} != reference {ref_rows}")
            elif name.endswith(".json"):
                _compare_values(json.loads(ref_file.read_text()), json.loads(got_file.read_text()), name, errors)
            else:
                _compare_values(_load_csv(ref_file), _load_csv(got_file), name, errors)
        except (ValueError, KeyError) as exc:
            errors.append(f"{name}: unreadable ({exc})")
    return errors
