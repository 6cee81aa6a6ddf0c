"""Configuration-driven entry point: solves, c-sweeps, spectral-gap runs,
symbol verification and report generation.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence,
4 failed check in report mode.  Artifacts are deterministic: identical
configs produce bit-identical CSV/JSON outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .grid import Grid, make_grid
from .snapshots import save_field
from .operators import (
    NONREL,
    PSEUDO,
    OperatorSpec,
    nonrelativistic,
    pseudo_relativistic,
    symbol_gap_ratio,
    symbol_gap_scan,
    taylor_residual,
)
from .nonlinearity import NonlinearitySpec
from .ground_state import GroundStateError, GroundStateResult, SolverConfig, solve
from .limit_lab import (
    ConvergenceRecord,
    GapEigensolveError,
    SweepError,
    _reference_norms,
    _sweep_c_values,
    _sweep_orders,
    fit_rate,
    linearization_identity_residual,
    nondegeneracy_gap,
    optimality_forms,
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
LADDER_STEPS = 6


class ConfigError(ValueError):
    """Invalid configuration; collects every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("\n".join(self.violations))


@dataclass(frozen=True)
class RunConfig:
    """A validated run; the fields follow the order of SCHEMA."""

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

    @cached_property
    def grid(self) -> Grid:
        """The run's grid, built on first use and shared by every phase."""
        return make_grid(self.n, self.L, self.N)

    def nonlinearity_spec(self) -> NonlinearitySpec:
        return NonlinearitySpec(self.nonlinearity, self.p)

    def operator_spec(self) -> OperatorSpec:
        if self.operator_kind == NONREL:
            return nonrelativistic()
        return pseudo_relativistic(self.c)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tolerance=self.tolerance, max_iterations=self.max_iterations)


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("an integer")
    return value


def _number(value) -> float:
    """A JSON number as a float; neither a boolean nor an integer beyond float range is one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("a number")
    try:
        return float(value)
    except OverflowError:
        raise TypeError("a number in floating-point range") from None


def _path(value) -> Path:
    if not isinstance(value, str):
        raise TypeError("a string")
    return Path(value)


def _one_of(*choices):
    def convert(value):
        # compared with their types, so that neither true nor 1.0 is the dimension 1
        if not any(type(value) is type(choice) and value == choice for choice in choices):
            raise TypeError("one of " + ", ".join(map(json.dumps, choices)))
        return value

    return convert


def _or_null(convert):
    return lambda value: None if value is None else convert(value)


def _list_of(convert, name: str, nonempty: bool = True):
    def convert_list(value) -> tuple:
        try:
            if isinstance(value, list) and (value or not nonempty):
                return tuple(map(convert, value))
        except TypeError:
            pass
        raise TypeError(name)

    return convert_list


NUMBERS = _list_of(_number, "a nonempty list of numbers")

# section -> key -> (JSON type, default).  A JSON type converts a value to its
# RunConfig field, whose order is this table's.  A callable default is computed
# from the values, by path, of the keys above it.  Value constraints are not
# here: parse_config takes them from the library objects the values build.
SCHEMA = {
    "command": (_one_of(*COMMANDS), "solve"),
    "problem": {
        # the one value checked here: it selects the grid and c_list defaults
        "n": (_one_of(*GRID_DEFAULTS), 1),
        "nonlinearity": (_one_of("power", "hartree"), "power"),
        "p": (_or_null(_integer), lambda v: 3 if v["problem.nonlinearity"] == "power" else None),
    },
    "grid": {
        "L": (_number, lambda v: GRID_DEFAULTS[v["problem.n"]][0]),
        "N": (_integer, lambda v: GRID_DEFAULTS[v["problem.n"]][1]),
    },
    "operator": {
        "kind": (_one_of(PSEUDO, NONREL), lambda v: NONREL if v["command"] == "solve" else PSEUDO),
        "c": (_or_null(_number), None),
        "c_list": (NUMBERS, lambda v: C_LIST_DEFAULTS[v["problem.n"]]),
    },
    "solver": {
        "tolerance": (_number, SolverConfig.tolerance),
        "max_iterations": (_integer, SolverConfig.max_iterations),
    },
    "analysis": {"s_list": (NUMBERS, S_LIST_DEFAULT)},
    "output": {
        "directory": (_path, lambda v: Path(os.environ.get(OUTPUT_ROOT_ENV, "nrlimit-out")) / v["command"]),
        "formats": (_list_of(_one_of("binary", "csv"), 'a list of "binary" and "csv"', nonempty=False), ("binary",)),
    },
}


def _read(schema: dict, doc: dict, prefix: str, values: dict, errors: list[str]) -> None:
    """Fill `values` by path in SCHEMA order: each given value converted to its
    JSON type, each other one defaulted.  Unknown keys, sections that are not
    objects and values of another type are violations."""
    errors.extend(f"{prefix}{key}: unknown key (allowed: {', '.join(schema)})" for key in doc if key not in schema)
    for key, entry in schema.items():
        path = prefix + key
        if isinstance(entry, dict):
            section = doc.get(key, {})
            if not isinstance(section, dict):
                errors.append(f"{path}: must be an object, got {section!r}")
                section = {}
            _read(entry, section, path + ".", values, errors)
            continue
        convert, default = entry
        if key in doc:
            try:
                values[path] = convert(doc[key])
                continue
            except TypeError as exc:
                errors.append(f"{path}: must be {exc}, got {doc[key]!r}")
        values[path] = default(values) if callable(default) else default


def _valid(errors: list[str], path: str, build, *args, **kwargs) -> bool:
    """Run a library constructor or check; its ValueError is a violation at `path`."""
    try:
        build(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return False
    return True


def _document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"])
    if not isinstance(doc, dict):
        raise ConfigError(["config document must be a JSON object"])
    return doc


def parse_config(text: str) -> RunConfig:
    """Validate a JSON config document, filling defaults; raises ConfigError
    with one line per violation (field-precise).

    SCHEMA checks keys and JSON types; every value constraint is the library's,
    met by building the objects the run uses, whose grid the config keeps.
    """
    errors: list[str] = []
    values: dict = {}
    _read(SCHEMA, _document(text), "", values, errors)
    config = RunConfig(*values.values())

    if _valid(errors, "problem.p", config.nonlinearity_spec):
        nl = config.nonlinearity_spec()
        # n constrains the Hartree term itself, and a power through its exponent
        at = "problem.nonlinearity" if nl.kind == "hartree" else "problem.p"
        if _valid(errors, at, nl.validate_dimension, config.n) and config.command in ("sweep", "report"):
            _valid(errors, "problem.p", sobolev_ladder, config.n, nl.variational_exponent, nl.kind, LADDER_STEPS)
    if not _valid([], "grid", lambda: config.grid):
        # Grid checks L before N, so the fault is N's if the smallest grid of length L is valid
        if _valid(errors, "grid.L", make_grid, 1, config.L, 16):
            _valid(errors, "grid.N", lambda: config.grid)
    if config.c is not None:
        _valid(errors, "operator.c", pseudo_relativistic, config.c)
    elif config.command == "solve" and config.operator_kind == PSEUDO:
        errors.append("operator.c: required for a pseudo_relativistic solve")
    _valid(errors, "operator.c_list", _sweep_c_values, config.c_list)
    for key in ("tolerance", "max_iterations"):
        _valid(errors, f"solver.{key}", SolverConfig, **{key: getattr(config, key)})
    _valid(errors, "analysis.s_list", _sweep_orders, config.s_list)
    if errors:
        raise ConfigError(errors)
    return config


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
    result = solve(config.operator_spec(), config.nonlinearity_spec(), config.grid, config.solver_config())
    _json_dump(config.out_dir / "ground_state.json", _solve_record(config, result))
    save_field(result.field, config.out_dir / "ground_state_field", fmt="binary")
    if "csv" in config.formats:
        save_field(result.field, config.out_dir / "ground_state_field", fmt="csv")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _sweep_artifacts(config: RunConfig, s_list, threads: int):
    """Solve the sweep and assemble (records, summary dict, u_inf result)."""
    grid = config.grid
    nl = config.nonlinearity_spec()
    cfg = config.solver_config()
    ladder = sobolev_ladder(config.n, nl.variational_exponent, nl.kind, LADDER_STEPS)
    u_inf = solve(nonrelativistic(), nl, grid, cfg)
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

    gap = nondegeneracy_gap(u_inf.field, nl)
    identity = linearization_identity_residual(u_inf.field, nl)
    c2a = {f"{c:g}": c * c * form for c, form in zip(config.c_list, optimality_forms(u_inf.field, config.c_list))}
    norms, laplacian_norm_sq = _reference_norms(u_inf.field, s_list)
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
            "limit_estimate": c2a[f"{records[-1].c:g}"],
            "laplacian_norm_sq": laplacian_norm_sq,
        },
        "ladder": ladder,
        "reference_state": {
            "action": u_inf.action,
            "residual": u_inf.residual,
            "iterations": u_inf.iterations,
            "norms": {f"{s:g}": norm for s, norm in norms.items()},
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
    nl = config.nonlinearity_spec()
    u_inf = solve(nonrelativistic(), nl, config.grid, config.solver_config())
    if not u_inf.converged:
        print("reference solve did not converge", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    gap = nondegeneracy_gap(u_inf.field, nl)
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
    """Symbol bounds over SYMBOL_C_GRID; a box too short to hold a lattice mode
    in the Taylor window is a violation at grid.L."""
    grid = config.grid
    rows = []
    for c in SYMBOL_C_GRID:
        spec = pseudo_relativistic(c)
        smallest = 2.0 * np.pi / config.L
        cutoff = 0.1 if 0.1 * c >= smallest else 0.5
        try:
            taylor = taylor_residual(spec, grid, cutoff)
        except ValueError as exc:
            raise ConfigError([f"grid.L: L = {config.L:g} is too short for the symbol table at c = {c:g}: {exc}"])
        rows.append(
            {
                "c": c,
                "lattice_min_ratio": symbol_gap_ratio(spec, grid),
                "dense_min_ratio": symbol_gap_scan(spec),
                "taylor_residual": taylor,
                "cutoff_fraction": cutoff,
            }
        )
    overall = min(min(r["lattice_min_ratio"], r["dense_min_ratio"]) for r in rows)
    return {"c_grid": list(SYMBOL_C_GRID), "rows": rows, "overall_min_ratio": overall}


def _run_report(config: RunConfig, threads: int) -> int:
    # first, so that a grid the table rejects costs no solve
    symbols = _symbol_table(config)
    s_all = tuple(sorted(set(config.s_list) | set(UNIFORM_BOUND_ORDERS)))
    try:
        records, summary, u_inf = _sweep_artifacts(config, s_all, threads)
    except SweepError as exc:
        print(f"report aborted: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE

    is_cubic_1d = config.nonlinearity == "power" and config.n == 1 and config.p == 3
    checks: list[tuple[str, str, str, bool]] = []

    if is_cubic_1d:
        exact = np.sqrt(2.0) / np.cosh(config.grid.coordinates()[0])
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
        # every c >= 16 is in the tail; with fewer than two there is no drift to measure
        tail = [r for r in records if r.c >= 16.0]
        if len(tail) >= 2:
            stab = [r.c * r.c * r.h_minus1_residual for r in tail]
            drift = max(stab) / min(stab)
            name = f"H^-1 defect stability (c in {tail[0].c:g}..{tail[-1].c:g})"
            checks.append((name, f"{drift:.4f}", "<= 1.05", drift <= 1.05))
        else:
            checks.append(("H^-1 defect stability (needs two c >= 16)", "n/a", "<= 1.05", False))

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
        worst = max(r.sup_norms[s] for r in records) / ref_norms[f"{s:g}"]
        checks.append((f"uniform bound at s={s:g}", f"{worst:.4f}", "<= 1.5", worst <= 1.5))

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
        _json_dump(config.out_dir / "symbols.json", _symbol_table(config))
        return EXIT_OK
    if config.command == "report":
        return _run_report(config, threads)
    raise ConfigError([f"unknown command {config.command!r}"])


def _apply_override(doc: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError([f"override {spec!r}: expected key.path=value"])
    path, raw = spec.split("=", 1)
    keys = path.split(".")
    if keys[0] == "command":
        raise ConfigError([f"command: set by the subcommand, not by override {spec!r}"])
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
        doc = {}
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError([f"cannot read config file: {exc}"])
            if text.strip():
                doc = _document(text)
        doc["command"] = args.command
        for spec in args.override:
            _apply_override(doc, spec)
        if args.out is not None:
            _apply_override(doc, "output.directory=" + json.dumps(str(args.out)))
        config = parse_config(json.dumps(doc))
        return run(config, threads=max(1, args.threads))
    except ConfigError as exc:
        for line in exc.violations:
            print(line, file=sys.stderr)
        return EXIT_VALIDATION
    except (GroundStateError, SweepError, GapEigensolveError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NONCONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
