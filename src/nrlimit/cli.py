"""Configuration-driven entry point: solves, c-sweeps, spectral-gap runs,
symbol verification and report generation.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence,
4 failed check in report mode.  Artifacts are deterministic: identical
configs produce bit-identical CSV/JSON outputs.

`main` runs one command and returns its exit code; `entry` is the `nrlimit`
process (the console script, `python -m nrlimit` and this module run as a
script), which exits with that code without the interpreter's shutdown
collections (see "Process exit" in the package docstring).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NoReturn

import numpy as np

from .grid import Grid, _as_integer, _as_real, make_grid
from .snapshots import save_field
from .operators import (
    OperatorSpec,
    _proven_min_ratio,
    nonrelativistic,
    pseudo_relativistic,
    symbol_gap_ratio,
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
    sweep,
)

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "main", "entry"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_REPORT_FAILURE = 4

COMMANDS = ("solve", "sweep", "nondeg", "verify-symbols", "report")
OUTPUT_ROOT_ENV = "NRLIMIT_OUTPUT_ROOT"

GRID_DEFAULTS = {1: (32.0, 1024), 2: (32.0, 256), 3: (16.0, 64)}
C_LIST_DEFAULT = (4.0, 8.0, 16.0, 32.0, 64.0)  # 3D takes the first four
S_LIST_DEFAULT = (0.5, 1.0, 2.0, 3.0)
SYMBOL_C_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)
UNIFORM_BOUND_ORDERS = (0.5, 1.0, 2.0, 3.0, 4.0)
# summary.json's "ladder": the Sobolev orders k + 1/2, k = 0..6, along which the product estimates iterate, the
# same for every problem the finite-c rule admits; the key stays because perfbench/reference/ pins it
LADDER = (0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5)


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
        """The operator `solve` solves: pseudo_relativistic(c) if operator.c is set, else the c = inf limit."""
        return nonrelativistic() if self.c is None else pseudo_relativistic(self.c)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tolerance=self.tolerance, max_iterations=self.max_iterations)

    @property
    def sweep_orders(self) -> tuple[float, ...]:
        """The orders a sweep records: s_list, for `report` its ascending union with UNIFORM_BOUND_ORDERS."""
        return tuple(sorted({*self.s_list, *UNIFORM_BOUND_ORDERS})) if self.command == "report" else self.s_list


def _path(value, name: str) -> Path:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return Path(value)


def _one_of(*choices):
    def convert(value, name: str):
        # compared with their types, so that neither true nor 1.0 is the dimension 1
        if not any(type(value) is type(choice) and value == choice for choice in choices):
            raise ValueError(f"{name} must be one of {', '.join(map(json.dumps, choices))}, got {value!r}")
        return value

    return convert


def _or_null(convert):
    return lambda value, name: None if value is None else convert(value, name)


def _list_of(convert, kind: str, nonempty: bool = True):
    def convert_list(value, name: str) -> tuple:
        try:
            if isinstance(value, list) and (value or not nonempty):
                return tuple(convert(item, name) for item in value)
        except ValueError:
            pass
        raise ValueError(f"{name} must be {kind}, got {value!r}")

    return convert_list


NUMBERS = _list_of(_as_real, "a nonempty list of numbers")

# section -> key -> (converter, default).  A converter takes a JSON value and its
# key to its RunConfig field, whose order is this table's, or raises a ValueError;
# numbers go through the library's `_as_integer` and `_as_real`.  A callable
# default is computed from the values, by path, of the keys above it.  Value
# constraints are not here: parse_config takes them from the objects the values build.
SCHEMA = {
    "command": (_one_of(*COMMANDS), "solve"),
    "problem": {
        # the one value checked here: it selects the grid and c_list defaults
        "n": (_one_of(*GRID_DEFAULTS), 1),
        "nonlinearity": (_one_of("power", "hartree"), "power"),
        "p": (_or_null(_as_integer), lambda v: 3 if v["problem.nonlinearity"] == "power" else None),
    },
    "grid": {
        "L": (_as_real, lambda v: GRID_DEFAULTS[v["problem.n"]][0]),
        "N": (_as_integer, lambda v: GRID_DEFAULTS[v["problem.n"]][1]),
    },
    "operator": {
        "c": (_or_null(_as_real), None),
        "c_list": (NUMBERS, lambda v: C_LIST_DEFAULT[:4] if v["problem.n"] == 3 else C_LIST_DEFAULT),
    },
    "solver": {
        "tolerance": (_as_real, SolverConfig.tolerance),
        "max_iterations": (_as_integer, SolverConfig.max_iterations),
    },
    "analysis": {"s_list": (NUMBERS, S_LIST_DEFAULT)},
    "output": {
        "directory": (_path, lambda v: Path(os.environ.get(OUTPUT_ROOT_ENV, "nrlimit-out")) / v["command"]),
        "formats": (_list_of(_one_of("binary", "csv"), 'a list of "binary" and "csv"', nonempty=False), ("binary",)),
    },
}


def _read(schema: dict, doc: dict, prefix: str, values: dict, errors: list[str]) -> None:
    """Fill `values` by path in SCHEMA order: each given value converted by its
    key's converter, each other one defaulted.  Unknown keys, sections that are
    not objects and values a converter refuses are violations."""
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
                values[path] = convert(doc[key], key)
                continue
            except ValueError as exc:
                errors.append(f"{path}: {exc}")
        values[path] = default(values) if callable(default) else default


def _valid(errors: list[str], path: str, build, *args, **kwargs) -> bool:
    """Run a library constructor or check; its ValueError is a violation at `path`."""
    try:
        build(*args, **kwargs)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return False
    return True


def _label(value: float) -> str:
    """The `%g` label that keys a c value or an order in summary.json's tables."""
    return f"{value:g}"


def _distinct_labels(values) -> None:
    """A ValueError naming two different values whose `_label`s are equal."""
    seen = {}
    for value in values:
        label = _label(value)
        if seen.setdefault(label, value) != value:
            raise ValueError(f"{seen[label]!r} and {value!r} share the summary label {label!r}")


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
    A number at operator.c is refused for every command but solve, its only
    reader.
    """
    errors: list[str] = []
    values: dict = {}
    _read(SCHEMA, _document(text), "", values, errors)
    config = RunConfig(*values.values())

    if _valid(errors, "problem.p", config.nonlinearity_spec):
        nl = config.nonlinearity_spec()
        # n constrains the Hartree term itself, and a power through its exponent (finite c where the run solves at it)
        at = "problem.nonlinearity" if nl.kind == "hartree" else "problem.p"
        finite_c = config.command in ("sweep", "report") or (config.command == "solve" and config.c is not None)
        _valid(errors, at, nl.validate_dimension, config.n, finite_c)
    if not _valid([], "grid", lambda: config.grid):
        # Grid checks L before N, so the fault is N's if the smallest grid of length L is valid
        if _valid(errors, "grid.L", make_grid, 1, config.L, 16):
            _valid(errors, "grid.N", lambda: config.grid)
    elif config.command in ("verify-symbols", "report"):
        _valid(errors, "grid.L", _taylor_column, config.grid)
    if config.c is not None and config.command != "solve":
        # sweep and report solve at each c of operator.c_list, nondeg at c = inf
        errors.append(f"operator.c: only solve reads operator.c, {config.command} does not")
    elif config.c is not None:
        _valid(errors, "operator.c", pseudo_relativistic, config.c)
    _valid(errors, "operator.c_list", lambda: _distinct_labels(_sweep_c_values(config.c_list)))
    for key in ("tolerance", "max_iterations"):
        _valid(errors, f"solver.{key}", SolverConfig, **{key: getattr(config, key)})
    if _valid(errors, "analysis.s_list", _sweep_orders, config.s_list):  # as given: report's union hides a repeat
        _valid(errors, "analysis.s_list", lambda: _distinct_labels(_sweep_orders(config.sweep_orders)))
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


def _solve_record(config: RunConfig, op: OperatorSpec, result: GroundStateResult) -> dict:
    return {
        "operator": op.kind,
        "c": config.c,
        "nonlinearity": config.nonlinearity,
        "p": config.p,
        "n": config.n,
        "L": config.L,
        "N": config.N,
        "residual": result.residual,
        "action": result.action,
        "iterations": result.iterations,
        "coarse_iterations": result.coarse_iterations,
        "coarse_start": result.coarse_start,
        "converged": result.converged,
        "action_convention": "mass term included",
    }


def _run_solve(config: RunConfig) -> int:
    op = config.operator_spec()
    result = solve(op, config.nonlinearity_spec(), config.grid, config.solver_config())
    _json_dump(config.out_dir / "ground_state.json", _solve_record(config, op, result))
    for fmt in config.formats:
        save_field(result.field, config.out_dir / "ground_state_field", fmt=fmt)
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _sweep_artifacts(config: RunConfig, s_list):
    """Solve the sweep and assemble (records, summary dict, reference solve).

    The solved reference keeps its octant and coefficients, which the sweep,
    the gap, the identity residual, the optimality forms and the norms read.
    """
    grid, nl, cfg = config.grid, config.nonlinearity_spec(), config.solver_config()
    u_inf = solve(nonrelativistic(), nl, grid, cfg)
    records = sweep(config.c_list, s_list, nl, u_inf=u_inf, cfg=cfg)

    floor = 100.0 * config.tolerance
    fits = {}
    for s in config.s_list:
        try:
            fit = fit_rate(records, s, floor=floor)
        except ValueError:
            continue
        fits[_label(s)] = {
            "slope": fit.slope,
            "A_hat": fit.A_hat,
            "B_hat": fit.B_hat,
            "c_range": list(fit.c_range),
        }

    gap = nondegeneracy_gap(u_inf.field, nl)
    identity = linearization_identity_residual(u_inf.field, nl)
    forms = optimality_forms(u_inf.field, config.c_list)
    c2a = {_label(c): c * c * form for c, form in zip(config.c_list, forms)}
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
            "limit_estimate": c2a[_label(records[-1].c)],
            "laplacian_norm_sq": laplacian_norm_sq,
        },
        "ladder": list(LADDER),
        "reference_state": {
            "action": u_inf.action,
            "residual": u_inf.residual,
            "iterations": u_inf.iterations,
            "norms": {_label(s): norm for s, norm in norms.items()},
        },
        "action_convention": "mass term included",
    }
    return records, summary, u_inf


def _run_sweep(config: RunConfig) -> int:
    """`sweep` and `report` (`_run_report`, over s_list and UNIFORM_BOUND_ORDERS), with one failure path:
    on a SweepError, sweep.csv holds the converged points' rows and summary.json the error (exit 3)."""
    report, s_list = config.command == "report", config.sweep_orders
    try:
        records, summary, u_inf = _sweep_artifacts(config, s_list)
    except SweepError as exc:
        (config.out_dir / "sweep.csv").write_text(_csv_rows(exc.records, s_list))
        _json_dump(config.out_dir / "summary.json", {"error": str(exc), "partial_rows": len(exc.records)})
        print(f"{config.command} aborted: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    (config.out_dir / "sweep.csv").write_text(_csv_rows(records, s_list))
    _json_dump(config.out_dir / "summary.json", summary)
    return _run_report(config, records, summary, u_inf) if report else EXIT_OK


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


@lru_cache(maxsize=1)
def _taylor_column(grid: Grid) -> tuple[tuple[float, float], ...]:
    """(cutoff fraction, Taylor residual) at each c of SYMBOL_C_GRID; a box too short to hold
    a lattice mode in a Taylor window is a ValueError, which parse_config reports at grid.L."""
    column = []
    for c in SYMBOL_C_GRID:
        cutoff = 0.1 if 0.1 * c >= 2.0 * np.pi / grid.length else 0.5
        try:
            column.append((cutoff, taylor_residual(pseudo_relativistic(c), grid, cutoff)))
        except ValueError as exc:
            raise ValueError(f"L = {grid.length:g} is too short for the symbol table at c = {c:g}: {exc}") from None
    return tuple(column)


def _symbol_table(config: RunConfig) -> dict:
    """Symbol bounds over SYMBOL_C_GRID; the dense minimum is the proven one (`symbol_gap_scan` witnesses it).
    The lattice minimum (1.0 at xi = 0) is its numeric witness: a fault in `operators.symbol` shows there, not in
    the proof.  perfbench/reference/ pins both columns."""
    rows = []
    for c, (cutoff, taylor) in zip(SYMBOL_C_GRID, _taylor_column(config.grid)):
        spec = pseudo_relativistic(c)
        rows.append(
            {
                "c": c,
                "lattice_min_ratio": symbol_gap_ratio(spec, config.grid),
                "dense_min_ratio": _proven_min_ratio(spec),
                "taylor_residual": taylor,
                "cutoff_fraction": cutoff,
            }
        )
    overall = min(min(r["lattice_min_ratio"], r["dense_min_ratio"]) for r in rows)
    return {"c_grid": list(SYMBOL_C_GRID), "rows": rows, "overall_min_ratio": overall}


def _meets(value: float | None, bound: str) -> bool:
    """Whether `value` meets `bound` as printed ("<= 1e-6", ">= 0.5", "> 0", "<= 2%", "in [a, b]"); n/a (None) fails."""
    if value is None:
        return False
    op, limit = bound.split(" ", 1)
    if op == "in":
        lo, hi = map(float, limit.strip("[]").split(","))
        return lo <= value <= hi
    x = float(limit.rstrip("%")) / (100.0 if limit.endswith("%") else 1.0)
    return {"<=": value <= x, ">=": value >= x, ">": value > x}[op]


def _checks(
    config: RunConfig, records: list[ConvergenceRecord], summary: dict, symbols: dict, u_inf: GroundStateResult
):
    """(name, measured, bound, passed) of each report check that applies, in report order.  A table row is
    (name, format, bound, applies, value), its value read from the run's records, summary, symbols or reference."""
    fits, norms, opt = summary["rate_fits"], summary["reference_state"]["norms"], summary["optimality"]
    # a requested order without a fit (too few c values, or too few above the floor) keeps its rows, as n/a
    orders = [k for k in ("0.5", "1", "2", "3") if k in set(map(_label, config.s_list))]
    slope = {k: fit["slope"] for k, fit in fits.items()}
    spread = {k: fit["B_hat"] / fit["A_hat"] for k, fit in fits.items()}
    power, hartree, grid = config.nonlinearity == "power", config.nonlinearity == "hartree", config.grid
    cubic_1d = power and config.n == 1 and config.p == 3
    exact = np.sqrt(2.0) / np.cosh(grid.axis[: grid.octant_shape[0]])  # the 1D cubic's sqrt(2) sech x on the octant
    soliton = float(np.max(np.abs(u_inf.field.octant - exact))) if cubic_1d else None
    # every c >= 16 is in the tail; with fewer than two there is no drift to measure (n/a)
    tail = [r for r in records if r.c >= 16.0]
    tail_name = f"c in {tail[0].c:g}..{tail[-1].c:g}" if len(tail) >= 2 else "needs two c >= 16"
    stab = [r.c * r.c * r.h_minus1_residual for r in tail]
    # the 1D cubic's constant is exactly 28/15; elsewhere the reference is ||Laplacian u_inf||^2
    ref = 28.0 / 15.0 if cubic_1d else opt["laplacian_norm_sq"]
    ratios = [r.diff_norms[3.0] / (r.diff_norms[0.5] + 1.0 / (r.c * r.c)) for r in records]
    h1_sq = norms["1"] ** 2
    decomp = [abs(r.diff_norms[1.0] ** 2 - r.lam**2 * h1_sq - r.v_norm_h1**2) / r.diff_norms[1.0] ** 2 for r in records]
    table = [
        ("soliton profile (sup error vs exact)", ".3e", "<= 1e-6", cubic_1d, soliton),
        ("soliton residual", ".3e", "<= 1e-10", cubic_1d, summary["reference_state"]["residual"]),
        *[row for k in orders for row in (
            (f"rate slope at s={k}", ".4f", "in [-2.15, -1.85]", power, slope.get(k)),
            (f"two-sided spread at s={k}", ".3f", "<= 3", power, spread.get(k)),
            (f"rate slope at s={k}", ".4f", "in [-2.3, -1.7]", hartree and k in ("0.5", "1"), slope.get(k)),
        )],
        (f"H^-1 defect stability ({tail_name})", ".4f", "<= 1.05", power and config.n == 1,
         max(stab) / min(stab) if len(stab) >= 2 else None),
        ("symbol lower bound (lattice + dense scan)", ".4f", ">= 0.5", True, symbols["overall_min_ratio"]),
        ("optimality limit vs reference", ".4%", "<= 2%", True, abs(opt["limit_estimate"] - ref) / ref),
        ("nondegeneracy gap", ".6f", "> 0", True, summary["nondegeneracy_gap"]),
        ("linearization identity residual", ".3e", "<= 1e-8", True, summary["linearization_identity_residual"]),
        *[(f"uniform bound at s={_label(s)}", ".4f", "<= 1.5", True,
           max(r.sup_norms[s] for r in records) / norms[_label(s)]) for s in UNIFORM_BOUND_ORDERS],
        ("bootstrap ratio spread (1/2 -> 3)", ".3f", "<= 3", True, max(ratios) / min(ratios)),
        # round-off sentinel of convergence_record (v = w - lam u_inf holds it exactly); perfbench/reference/ pins it
        ("projection decomposition identity", ".3e", "<= 1e-8", True, max(0.0, *decomp)),
    ]
    rows = [(name, fmt, bound, v) for name, fmt, bound, applies, v in table if applies]
    return [(name, "n/a" if v is None else f"{v:{fmt}}", bound, _meets(v, bound)) for name, fmt, bound, v in rows]


def _run_report(config: RunConfig, records: list[ConvergenceRecord], summary: dict, u_inf: GroundStateResult) -> int:
    """The report's symbols.json and report.md, from the sweep `_run_sweep` has written."""
    symbols = _symbol_table(config)
    checks = _checks(config, records, summary, symbols, u_inf)
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
    profile = any(name.startswith("soliton profile") for name, *_ in checks)
    exception = " except the soliton profile error, which reads the unwritten reference field," if profile else ""
    lines += [
        "",
        f"{len(checks) - len(failed)}/{len(checks)} checks passed.",
        f"All numbers above{exception} are computed from sweep.csv, summary.json and symbols.json in this directory.",
        "",
    ]

    _json_dump(config.out_dir / "symbols.json", symbols)
    (config.out_dir / "report.md").write_text("\n".join(lines))
    return EXIT_REPORT_FAILURE if failed else EXIT_OK


def run(config: RunConfig) -> int:
    """Execute a validated config; writes artifacts under config.out_dir."""
    _prepare_out_dir(config.out_dir)
    if config.command == "solve":
        return _run_solve(config)
    if config.command in ("sweep", "report"):
        return _run_sweep(config)
    if config.command == "nondeg":
        return _run_nondeg(config)
    if config.command == "verify-symbols":
        _json_dump(config.out_dir / "symbols.json", _symbol_table(config))
        return EXIT_OK
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
        return run(config)
    except ConfigError as exc:
        for line in exc.violations:
            print(line, file=sys.stderr)
        return EXIT_VALIDATION
    except (GroundStateError, SweepError, GapEigensolveError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NONCONVERGENCE


def entry() -> NoReturn:
    """The `nrlimit` process: run `main` on sys.argv and exit with its code.

    Every artifact is written and closed when `main` returns, so the objects
    still alive die with the process: freezing them first spares the
    interpreter's shutdown collections a walk over all of them.  atexit
    handlers and the stdio flushes still run.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
