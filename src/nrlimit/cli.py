"""Configuration-driven entry point: solves, c-sweeps, spectral-gap runs,
symbol verification and report generation.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence,
4 failed check in report mode.  Artifacts are deterministic: identical
configs produce bit-identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Grid, _abs_sq, _forward, _kernel_values, _spectral_integral, make_grid
from .snapshots import save_field
from .operators import (
    OperatorSpec,
    nonrelativistic,
    pseudo_relativistic,
    symbol_defect,
    symbol_gap_ratio,
    symbol_gap_scan,
    taylor_residual,
)
from .nonlinearity import NonlinearitySpec, hartree, power
from .ground_state import GroundStateError, GroundStateResult, SolverConfig, solve
from .limit_lab import (
    ConvergenceRecord,
    SweepError,
    fit_rate,
    linearization_identity_residual,
    nondegeneracy_gap,
    sobolev_ladder,
    sweep,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_REPORT_FAILURE = 4

COMMANDS = ("solve", "sweep", "nondeg", "verify-symbols", "report")
OUTPUT_ROOT_ENV = "NRLIMIT_OUTPUT_ROOT"

GRID_DEFAULTS = {1: (32.0, 1024), 2: (32.0, 256), 3: (16.0, 64)}
C_LIST_DEFAULTS = {1: (4.0, 8.0, 16.0, 32.0, 64.0), 2: (4.0, 8.0, 16.0, 32.0, 64.0), 3: (4.0, 8.0, 16.0, 32.0)}
S_LIST_DEFAULT = (0.5, 1.0, 2.0, 3.0)
SYMBOL_C_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
UNIFORM_BOUND_ORDERS = (0.5, 1.0, 2.0, 3.0, 4.0)


class ConfigError(ValueError):
    """Invalid configuration; collects every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


@dataclass(frozen=True)
class RunConfig:
    command: str
    n: int
    nonlinearity: str
    p: int | None
    L: float
    N: int
    operator_kind: str
    c: float | None
    c_list: tuple[float, ...]
    tolerance: float
    max_iterations: int
    s_list: tuple[float, ...]
    out_dir: Path
    formats: tuple[str, ...]

    def grid(self) -> Grid:
        return make_grid(self.n, self.L, self.N)

    def nonlinearity_spec(self) -> NonlinearitySpec:
        return power(self.p) if self.nonlinearity == "power" else hartree()

    def operator_spec(self) -> OperatorSpec:
        if self.operator_kind == "nonrelativistic":
            return nonrelativistic()
        return pseudo_relativistic(self.c)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tolerance=self.tolerance, max_iterations=self.max_iterations)


def _finite_number(value) -> bool:
    """True for a JSON number that converts to a finite float.

    JSON integers are unbounded; one too large for a float is rejected here
    instead of overflowing in the conversion.
    """
    if not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:
        return False


def _check_keys(section: dict, allowed: tuple[str, ...], path: str, errors: list[str]) -> None:
    for key in section:
        if key not in allowed:
            errors.append(f"{path}.{key}: unknown key (allowed: {', '.join(allowed)})")


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document, filling defaults; raises ConfigError
    with one line per violation (field-precise)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigError(["config document must be a JSON object"])

    errors: list[str] = []
    _check_keys(doc, ("command", "problem", "grid", "operator", "solver", "analysis", "output"), "config", errors)

    command = doc.get("command", "solve")
    if command not in COMMANDS:
        errors.append(f"config.command: must be one of {COMMANDS}, got {command!r}")

    problem = doc.get("problem", {})
    if not isinstance(problem, dict):
        errors.append("config.problem: must be an object")
        problem = {}
    _check_keys(problem, ("n", "nonlinearity", "p"), "problem", errors)
    n = problem.get("n", 1)
    if n not in (1, 2, 3):
        errors.append(f"problem.n: dimension must be 1, 2 or 3, got {n!r}")
        n = 1
    kind = problem.get("nonlinearity", "power")
    if kind not in ("power", "hartree"):
        errors.append(f"problem.nonlinearity: must be 'power' or 'hartree', got {kind!r}")
        kind = "power"
    p = problem.get("p", 3 if kind == "power" else None)
    if kind == "power":
        if not isinstance(p, int) or isinstance(p, bool) or p < 3:
            errors.append(f"problem.p: power exponent must be an integer >= 3, got {p!r}")
        elif n >= 2 and p >= 2 * n / (n - 1):
            errors.append(
                f"problem.p: p = {p} violates subcriticality: requires p < 2n/(n-1) = {2 * n / (n - 1):g} for n = {n}"
            )
    else:
        if p is not None:
            errors.append("problem.p: hartree nonlinearity does not take an exponent")
        if n != 3:
            errors.append(f"problem.nonlinearity: hartree requires the three-dimensional setting n = 3, got n = {n}")

    grid_sec = doc.get("grid", {})
    if not isinstance(grid_sec, dict):
        errors.append("config.grid: must be an object")
        grid_sec = {}
    _check_keys(grid_sec, ("L", "N"), "grid", errors)
    default_L, default_N = GRID_DEFAULTS[n]
    L = grid_sec.get("L", default_L)
    N = grid_sec.get("N", default_N)
    if not _finite_number(L) or L <= 0:
        errors.append(f"grid.L: box length must be positive and finite, got {L!r}")
    if not isinstance(N, int) or isinstance(N, bool) or N % 2 != 0 or N < 16:
        errors.append(f"grid.N: points per axis must be an even integer >= 16, got {N!r}")

    op_sec = doc.get("operator", {})
    if not isinstance(op_sec, dict):
        errors.append("config.operator: must be an object")
        op_sec = {}
    _check_keys(op_sec, ("kind", "c", "c_list"), "operator", errors)
    op_kind = op_sec.get("kind", "nonrelativistic" if command == "solve" else "pseudo_relativistic")
    if op_kind not in ("pseudo_relativistic", "nonrelativistic"):
        errors.append(f"operator.kind: must be 'pseudo_relativistic' or 'nonrelativistic', got {op_kind!r}")
        op_kind = "pseudo_relativistic"
    c = op_sec.get("c")
    if c is not None and (not _finite_number(c) or c < 1):
        errors.append(f"operator.c: light-speed parameter must be finite and >= 1, got {c!r}")
    if op_kind == "pseudo_relativistic" and command == "solve" and c is None:
        errors.append("operator.c: required for a pseudo_relativistic solve")
    c_list = op_sec.get("c_list", list(C_LIST_DEFAULTS[n]))
    if not isinstance(c_list, list) or not c_list:
        errors.append(f"operator.c_list: must be a nonempty list, got {c_list!r}")
        c_list = list(C_LIST_DEFAULTS[n])
    else:
        if any(not _finite_number(v) or v < 1 for v in c_list):
            errors.append(f"operator.c_list: every entry must be a finite number >= 1, got {c_list!r}")
        elif sorted(c_list) != list(c_list):
            errors.append(f"operator.c_list: entries must be ascending, got {c_list!r}")

    solver_sec = doc.get("solver", {})
    if not isinstance(solver_sec, dict):
        errors.append("config.solver: must be an object")
        solver_sec = {}
    _check_keys(solver_sec, ("tolerance", "max_iterations"), "solver", errors)
    tolerance = solver_sec.get("tolerance", 1.0e-12)
    if not isinstance(tolerance, (int, float)) or not 1.0e-14 <= tolerance <= 1.0e-4:
        errors.append(f"solver.tolerance: must lie in [1e-14, 1e-4], got {tolerance!r}")
    max_iterations = solver_sec.get("max_iterations", 2000)
    if not isinstance(max_iterations, int) or isinstance(max_iterations, bool) or max_iterations < 1:
        errors.append(f"solver.max_iterations: must be a positive integer, got {max_iterations!r}")

    analysis = doc.get("analysis", {})
    if not isinstance(analysis, dict):
        errors.append("config.analysis: must be an object")
        analysis = {}
    _check_keys(analysis, ("s_list",), "analysis", errors)
    s_list = analysis.get("s_list", list(S_LIST_DEFAULT))
    if not isinstance(s_list, list) or not s_list:
        errors.append(f"analysis.s_list: must be a nonempty list, got {s_list!r}")
        s_list = list(S_LIST_DEFAULT)
    elif any(not isinstance(s, (int, float)) or not -4 <= s <= 8 for s in s_list):
        errors.append(f"analysis.s_list: every order must lie in [-4, 8], got {s_list!r}")

    output = doc.get("output", {})
    if not isinstance(output, dict):
        errors.append("config.output: must be an object")
        output = {}
    _check_keys(output, ("directory", "formats"), "output", errors)
    root = os.environ.get(OUTPUT_ROOT_ENV, "nrlimit-out")
    directory = output.get("directory", str(Path(root) / command))
    formats = output.get("formats", ["binary"])
    if not isinstance(formats, list) or any(f not in ("binary", "csv") for f in formats):
        errors.append(f"output.formats: entries must be 'binary' or 'csv', got {formats!r}")
        formats = ["binary"]

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        command=command,
        n=n,
        nonlinearity=kind,
        p=p if kind == "power" else None,
        L=float(L),
        N=int(N),
        operator_kind=op_kind,
        c=float(c) if c is not None else None,
        c_list=tuple(float(v) for v in c_list),
        tolerance=float(tolerance),
        max_iterations=int(max_iterations),
        s_list=tuple(float(s) for s in s_list),
        out_dir=Path(directory),
        formats=tuple(formats),
    )


def _json_dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv_rows(records: list[ConvergenceRecord], s_list) -> str:
    lines = ["c,s,norm_diff,h_minus1_residual,lambda,v_norm_h1,action_c,sup_norm"]
    for r in records:
        for s in s_list:
            lines.append(
                f"{r.c!r},{float(s)!r},{r.diff_norms[float(s)]!r},{r.h_minus1_residual!r},"
                f"{r.lam!r},{r.v_norm_h1!r},{r.action_c!r},{r.sup_norms[float(s)]!r}"
            )
    return "\n".join(lines) + "\n"


def _prepare_out_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError([f"output.directory: not writable: {out_dir} ({exc})"])


def _solve_record(config: RunConfig, result: GroundStateResult) -> dict:
    return {
        "operator": config.operator_kind,
        "c": config.c,
        "nonlinearity": config.nonlinearity,
        "p": config.p,
        "n": config.n,
        "L": config.L,
        "N": config.N,
        "residual": result.residual,
        "action": result.action,
        "iterations": result.iterations,
        "converged": result.converged,
        "action_convention": "mass term included",
    }


def _run_solve(config: RunConfig) -> int:
    grid = config.grid()
    result = solve(config.operator_spec(), config.nonlinearity_spec(), grid, config.solver_config())
    _json_dump(config.out_dir / "ground_state.json", _solve_record(config, result))
    save_field(result.field, config.out_dir / "ground_state_field", fmt="binary")
    if "csv" in config.formats:
        save_field(result.field, config.out_dir / "ground_state_field", fmt="csv")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _ladder(config: RunConfig, nl: NonlinearitySpec) -> list[float]:
    """The summary's Sobolev ladder; a config without one is rejected on problem.p."""
    if nl.kind == "hartree":
        return sobolev_ladder(3, None, "hartree", 6)
    try:
        return sobolev_ladder(config.n, nl.variational_exponent, "power", 6)
    except ValueError as exc:
        raise ConfigError([f"problem.p: p = {config.p} in n = {config.n} has no Sobolev ladder (variational {exc})"])


def _sweep_artifacts(config: RunConfig, s_list, threads: int):
    """Solve the sweep and assemble (records, summary dict, u_inf result)."""
    grid = config.grid()
    nl = config.nonlinearity_spec()
    cfg = config.solver_config()
    ladder = _ladder(config, nl)
    u_inf = solve(nonrelativistic(), nl, grid, cfg)
    if not u_inf.converged:
        raise SweepError("nonrelativistic reference solve did not converge", [])
    records = sweep(config.c_list, s_list, nl, grid, cfg, u_inf=u_inf, threads=threads)

    floor = 100.0 * config.tolerance
    fits = {}
    for s in config.s_list:
        try:
            fit = fit_rate(records, s, floor=floor)
        except ValueError:
            continue
        fits[f"{float(s):g}"] = {
            "slope": fit.slope,
            "A_hat": fit.A_hat,
            "B_hat": fit.B_hat,
            "c_range": list(fit.c_range),
        }

    gap = nondegeneracy_gap(u_inf.field, nl, grid)
    identity = linearization_identity_residual(u_inf.field, nl)
    # the reference norms, the optimality form (as optimality_functional) and
    # the Laplacian norm all read one transform of u_inf, on its octant
    (ref,), xi_sq = _kernel_values(grid, u_inf.field.values)
    ref_sq = _abs_sq(_forward(grid, ref))

    def integral(mult: np.ndarray) -> float:
        return _spectral_integral(grid, mult, ref_sq)

    c2a = {f"{r.c:g}": r.c * r.c * integral(symbol_defect(pseudo_relativistic(r.c), xi_sq)) for r in records}
    c_max = records[-1].c
    summary = {
        "problem": {"n": config.n, "nonlinearity": config.nonlinearity, "p": config.p},
        "grid": {"L": config.L, "N": config.N},
        "c_values": list(config.c_list),
        "s_values": [float(s) for s in s_list],
        "fit_floor": floor,
        "rate_fits": fits,
        "nondegeneracy_gap": gap,
        "linearization_identity_residual": identity,
        "optimality": {
            "c2_times_form": c2a,
            "limit_estimate": c2a[f"{c_max:g}"],
            "laplacian_norm_sq": integral(xi_sq * xi_sq),
        },
        "ladder": ladder,
        "reference_state": {
            "action": u_inf.action,
            "residual": u_inf.residual,
            "iterations": u_inf.iterations,
            "norms": {f"{float(s):g}": float(np.sqrt(integral((1.0 + xi_sq) ** s))) for s in s_list},
        },
        "action_convention": "mass term included",
    }
    return records, summary, u_inf


def _run_sweep(config: RunConfig, threads: int) -> int:
    try:
        records, summary, _ = _sweep_artifacts(config, config.s_list, threads)
    except SweepError as exc:
        (config.out_dir / "sweep.csv").write_text(_csv_rows(exc.records, config.s_list))
        _json_dump(config.out_dir / "summary.json", {"error": str(exc), "partial_rows": len(exc.records)})
        print(f"sweep aborted: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    (config.out_dir / "sweep.csv").write_text(_csv_rows(records, config.s_list))
    _json_dump(config.out_dir / "summary.json", summary)
    return EXIT_OK


def _run_nondeg(config: RunConfig) -> int:
    grid = config.grid()
    nl = config.nonlinearity_spec()
    u_inf = solve(nonrelativistic(), nl, grid, config.solver_config())
    if not u_inf.converged:
        print("reference solve did not converge", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    gap = nondegeneracy_gap(u_inf.field, nl, grid)
    payload = {
        "problem": {"n": config.n, "nonlinearity": config.nonlinearity, "p": config.p},
        "grid": {"L": config.L, "N": config.N},
        "gap": gap,
        "positive": gap > 0.0,
        "linearization_identity_residual": linearization_identity_residual(u_inf.field, nl),
        "reference_residual": u_inf.residual,
    }
    _json_dump(config.out_dir / "nondeg.json", payload)
    return EXIT_OK if gap > 0.0 else EXIT_NONCONVERGENCE


def _symbol_table(config: RunConfig) -> dict:
    grid = config.grid()
    rows = []
    for c in SYMBOL_C_GRID:
        spec = pseudo_relativistic(c)
        smallest = 2.0 * np.pi / config.L
        cutoff = 0.1 if 0.1 * c >= smallest else 0.5
        rows.append(
            {
                "c": c,
                "lattice_min_ratio": symbol_gap_ratio(spec, grid),
                "dense_min_ratio": symbol_gap_scan(spec),
                "taylor_residual": taylor_residual(spec, grid, cutoff),
                "cutoff_fraction": cutoff,
            }
        )
    overall = min(min(r["lattice_min_ratio"], r["dense_min_ratio"]) for r in rows)
    return {"c_grid": list(SYMBOL_C_GRID), "rows": rows, "overall_min_ratio": overall}


def _run_symbols(config: RunConfig) -> int:
    _json_dump(config.out_dir / "symbols.json", _symbol_table(config))
    return EXIT_OK


def _run_report(config: RunConfig, threads: int) -> int:
    s_all = tuple(sorted(set(config.s_list) | set(UNIFORM_BOUND_ORDERS)))
    try:
        records, summary, u_inf = _sweep_artifacts(config, s_all, threads)
    except SweepError as exc:
        print(f"report aborted: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    symbols = _symbol_table(config)

    is_cubic_1d = config.nonlinearity == "power" and config.n == 1 and config.p == 3
    checks: list[tuple[str, str, str, bool]] = []

    if is_cubic_1d:
        grid = config.grid()
        exact = np.sqrt(2.0) / np.cosh(grid.coordinates()[0])
        linf = float(np.max(np.abs(u_inf.field.values - exact)))
        checks.append(("soliton profile (sup error vs exact)", f"{linf:.3e}", "<= 1e-6", linf <= 1.0e-6))
        checks.append(("soliton residual", f"{u_inf.residual:.3e}", "<= 1e-10", u_inf.residual <= 1.0e-10))

    slope_lo, slope_hi = (-2.3, -1.7) if config.nonlinearity == "hartree" else (-2.15, -1.85)
    slope_orders = (0.5, 1.0) if config.nonlinearity == "hartree" else (0.5, 1.0, 2.0, 3.0)
    for s in slope_orders:
        key = f"{s:g}"
        if key not in summary["rate_fits"]:
            continue
        fit = summary["rate_fits"][key]
        ok = slope_lo <= fit["slope"] <= slope_hi
        checks.append((f"rate slope at s={s:g}", f"{fit['slope']:.4f}", f"in [{slope_lo}, {slope_hi}]", ok))
        if config.nonlinearity == "power":
            spread = fit["B_hat"] / fit["A_hat"]
            checks.append((f"two-sided spread at s={s:g}", f"{spread:.3f}", "<= 3", spread <= 3.0))

    if config.nonlinearity == "power" and config.n == 1:
        stab = [r.c * r.c * r.h_minus1_residual for r in records if r.c in (16.0, 32.0, 64.0)]
        if len(stab) >= 2:
            drift = max(stab) / min(stab)
            checks.append(("H^-1 defect stability (c in 16..64)", f"{drift:.4f}", "<= 1.05", drift <= 1.05))

    sym_ok = symbols["overall_min_ratio"] >= 0.5
    checks.append(("symbol lower bound (lattice + dense scan)", f"{symbols['overall_min_ratio']:.4f}", ">= 0.5", sym_ok))

    limit = summary["optimality"]["limit_estimate"]
    reference = 28.0 / 15.0 if is_cubic_1d else summary["optimality"]["laplacian_norm_sq"]
    rel = abs(limit - reference) / reference
    checks.append(("optimality limit vs reference", f"{rel:.4%}", "<= 2%", rel <= 0.02))

    gap = summary["nondegeneracy_gap"]
    checks.append(("nondegeneracy gap", f"{gap:.6f}", "> 0", gap > 0.0))
    ident = summary["linearization_identity_residual"]
    checks.append(("linearization identity residual", f"{ident:.3e}", "<= 1e-8", ident <= 1.0e-8))

    ref_norms = summary["reference_state"]["norms"]
    for s in UNIFORM_BOUND_ORDERS:
        ref_norm = ref_norms[f"{s:g}"]
        worst = max(r.sup_norms[s] for r in records) / ref_norm
        checks.append((f"uniform bound at s={s:g}", f"{worst:.4f}", "<= 1.5", worst <= 1.5))

    if 0.5 in s_all and 3.0 in s_all:
        ratios = [r.diff_norms[3.0] / (r.diff_norms[0.5] + 1.0 / (r.c * r.c)) for r in records]
        spread = max(ratios) / min(ratios)
        checks.append(("bootstrap ratio spread (1/2 -> 3)", f"{spread:.3f}", "<= 3", spread <= 3.0))

    decomp = 0.0
    for r in records:
        w_sq = r.diff_norms[1.0] ** 2
        lhs = abs(w_sq - r.lam**2 * ref_norms["1"] ** 2 - r.v_norm_h1**2)
        decomp = max(decomp, lhs / w_sq)
    checks.append(("projection decomposition identity", f"{decomp:.3e}", "<= 1e-8", decomp <= 1.0e-8))

    lines = [
        "# Limit verification report",
        "",
        f"Problem: n={config.n}, nonlinearity={config.nonlinearity}"
        + (f", p={config.p}" if config.p is not None else ""),
        f"Grid: L={config.L:g}, N={config.N}; c values: {list(config.c_list)}",
        "Action convention: mass term included.",
        "",
        "| check | measured | bound | status |",
        "|---|---|---|---|",
    ]
    for name, measured, bound, ok in checks:
        lines.append(f"| {name} | {measured} | {bound} | {'PASS' if ok else 'FAIL'} |")
    failed = [name for name, _, _, ok in checks if not ok]
    lines += [
        "",
        f"{len(checks) - len(failed)}/{len(checks)} checks passed.",
        "All numbers above are computed from sweep.csv, summary.json and symbols.json in this directory.",
        "",
    ]

    (config.out_dir / "sweep.csv").write_text(_csv_rows(records, s_all))
    _json_dump(config.out_dir / "summary.json", summary)
    _json_dump(config.out_dir / "symbols.json", symbols)
    (config.out_dir / "report.md").write_text("\n".join(lines))
    return EXIT_REPORT_FAILURE if failed else EXIT_OK


def run(config: RunConfig, threads: int = 1) -> int:
    """Execute a validated config; writes artifacts under config.out_dir."""
    _prepare_out_dir(config.out_dir)
    if config.command == "solve":
        return _run_solve(config)
    if config.command == "sweep":
        return _run_sweep(config, threads)
    if config.command == "nondeg":
        return _run_nondeg(config)
    if config.command == "verify-symbols":
        return _run_symbols(config)
    if config.command == "report":
        return _run_report(config, threads)
    raise ConfigError([f"unknown command {config.command!r}"])


def _apply_override(doc: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError([f"override {spec!r}: expected key.path=value"])
    path, raw = spec.split("=", 1)
    keys = path.split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError([f"override {spec!r}: {key} is not an object"])
    node[keys[-1]] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nrlimit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--threads", type=int, default=1, help="parallel sweep tasks")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise ConfigError([f"cannot read config file: {exc}"])
            doc = json.loads(text) if text.strip() else {}
            if not isinstance(doc, dict):
                raise ConfigError(["config document must be a JSON object"])
        else:
            doc = {}
        doc["command"] = args.command
        for spec in args.override:
            _apply_override(doc, spec)
        if args.out is not None:
            doc.setdefault("output", {})["directory"] = str(args.out)
        config = parse_config(json.dumps(doc))
        return run(config, threads=max(1, args.threads))
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        for line in exc.violations:
            print(line, file=sys.stderr)
        return EXIT_VALIDATION
    except (GroundStateError, SweepError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
