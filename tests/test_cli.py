from __future__ import annotations

import ast
import contextlib
import copy
import dataclasses
import gc
import importlib.util
import io
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrlimit as nr
import nrlimit.cli as cli
from conftest import traced_peak
from nrlimit.cli import ConfigError, main, parse_config


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("{}")
        assert cfg.command == "solve"
        assert (cfg.n, cfg.nonlinearity, cfg.p) == (1, "power", 3)
        assert (cfg.L, cfg.N) == (32.0, 1024)
        assert cfg.tolerance == 1e-12
        assert cfg.s_list == (0.5, 1.0, 2.0, 3.0)

    def test_three_dimensional_defaults(self):
        cfg = parse_config(json.dumps({"problem": {"n": 3, "nonlinearity": "hartree"}}))
        assert (cfg.L, cfg.N) == (16.0, 64)
        assert cfg.c_list == (4.0, 8.0, 16.0, 32.0)

    def test_hartree_in_one_dimension_rejected(self):
        with pytest.raises(ConfigError, match="n = 3"):
            parse_config(json.dumps({"problem": {"n": 1, "nonlinearity": "hartree"}}))

    def test_supercritical_power_rejected(self):
        with pytest.raises(ConfigError, match="2n"):
            parse_config(json.dumps({"problem": {"n": 2, "p": 5}}))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps({"problem": {"n": 1, "px": 3}}))
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps({"extra": {}}))
        # the solver has one iteration and no method, step or exponent to choose
        for key, value in (("method", "petviashvili"), ("time_step", 0.5), ("gamma", 1.5)):
            with pytest.raises(ConfigError, match=f"solver.{key}: unknown key"):
                parse_config(json.dumps({"solver": {key: value}}))

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    def test_violations_are_collected(self):
        doc = {"problem": {"n": 2, "p": 5}, "grid": {"N": 15}, "solver": {"tolerance": 1.0}}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(doc))
        assert len(info.value.violations) == 3

    @pytest.mark.parametrize("command", cli.COMMANDS)
    @pytest.mark.parametrize("kind", ["pseudo_relativistic", "nonrelativistic"])
    def test_operator_kind_is_an_unknown_key(self, tmp_path, capsys, command, kind):
        # operator.c alone picks solve's operator: no second key can drop it
        out = tmp_path / "o"
        assert main([command, "--out", str(out), "--override", f"operator.kind={kind}"]) == 2
        assert capsys.readouterr().err == "operator.kind: unknown key (allowed: c, c_list)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "solve"])
    def test_operator_c_is_read_by_solve_alone(self, tmp_path, monkeypatch, capsys, command):
        # nondeg solves at c = inf, sweep and report at each c of operator.c_list:
        # a c given to them was checked and then ignored
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail(f"{command} solved"))
        out = tmp_path / "o"
        assert main([command, "--out", str(out), "--override", "grid.N=256", "--override", "operator.c=5"]) == 2
        assert capsys.readouterr().err == f"operator.c: only solve reads operator.c, {command} does not\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, line",
        [
            ("grid.L=true", "grid.L: L must be a real number, got True"),
            ("grid.N=256.0", "grid.N: N must be an integer, got 256.0"),
            ("operator.c=1" + "0" * 400, "operator.c: c must be finite, got an integer beyond float range"),
            ("operator.c_list=[4,true]", "operator.c_list: c_list must be a nonempty list of numbers, got [4, True]"),
            ("problem.n=4", "problem.n: n must be one of 1, 2, 3, got 4"),
        ],
    )
    def test_a_refused_value_is_one_line_at_its_path(self, tmp_path, capsys, override, line):
        # numbers are refused by the library's _as_integer and _as_real, every value at its config path
        assert main(["solve", "--out", str(tmp_path / "o"), "--override", override]) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not (tmp_path / "o").exists()


class TestSolveCommand:
    def test_soliton_artifacts(self, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--out", str(out)]) == 0
        record = json.loads((out / "ground_state.json").read_text())
        assert record["converged"] is True
        assert record["residual"] <= 1e-10
        # 1D takes no coarse level
        assert record["coarse_iterations"] == 0 and record["coarse_start"] is False
        field = nr.load_field(out / "ground_state_field")
        x = field.grid.coordinates()[0]
        assert np.max(np.abs(field.values - np.sqrt(2.0) / np.cosh(x))) <= 1e-6

    @pytest.mark.parametrize(
        "formats, data_files",
        [(["csv"], [".csv"]), ([], []), (["binary", "csv"], [".bin", ".csv"])],
    )
    def test_writes_exactly_the_listed_formats(self, tmp_path, formats, data_files):
        out = tmp_path / "run"
        formats_arg = f"output.formats={json.dumps(formats)}"
        assert main(["solve", "--out", str(out), "--override", "grid.N=256", "--override", formats_arg]) == 0
        field_files = [f"ground_state_field{suffix}" for suffix in [*data_files, ".json"]] if formats else []
        assert sorted(p.name for p in out.iterdir()) == sorted(["ground_state.json", *field_files])
        if formats:
            # the default run writes the binary samples; every format holds the same field
            assert main(["solve", "--out", str(tmp_path / "default"), "--override", "grid.N=256"]) == 0
            default = nr.load_field(tmp_path / "default" / "ground_state_field")
            assert np.array_equal(nr.load_field(out / "ground_state_field").values, default.values)

    def test_3d_record_counts_both_levels(self, tmp_path):
        out = tmp_path / "run"
        overrides = ["problem.n=3", "problem.nonlinearity=hartree", "output.formats=[]"]
        assert main(["solve", "--out", str(out), *(a for o in overrides for a in ("--override", o))]) == 0
        record = json.loads((out / "ground_state.json").read_text())
        assert record["coarse_start"] is True
        assert record["coarse_iterations"] > 0
        assert record["iterations"] <= 5

    def test_operator_c_picks_the_pseudo_relativistic_solve(self, tmp_path):
        args = ["--override", "grid.N=256", "--override", "output.formats=[]"]
        assert main(["solve", "--out", str(tmp_path / "finite"), *args, "--override", "operator.c=8"]) == 0
        assert main(["solve", "--out", str(tmp_path / "limit"), *args]) == 0
        finite, limit = (json.loads((tmp_path / run / "ground_state.json").read_text()) for run in ("finite", "limit"))
        assert (finite["operator"], finite["c"]) == ("pseudo_relativistic", 8.0)
        assert (limit["operator"], limit["c"]) == ("nonrelativistic", None)
        grid = nr.make_grid(1, 32.0, 256)
        for record, op in ((finite, nr.pseudo_relativistic(8.0)), (limit, nr.nonrelativistic())):
            assert record["action"] == nr.solve(op, nr.power(3), grid).action

    def test_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--out", str(out), "--override", "solver.max_iterations=3"])
        assert code == 3
        record = json.loads((out / "ground_state.json").read_text())
        assert record["converged"] is False

    def test_unwritable_output(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = main(["solve", "--out", str(blocker / "sub")])
        assert code == 2
        assert not (tmp_path / "blocked" / "sub").exists()

    def test_validation_exit_code(self, tmp_path):
        code = main(["solve", "--out", str(tmp_path), "--override", "problem.p=2"])
        assert code == 2

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{broken json")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_bad_override_syntax(self, tmp_path):
        assert main(["solve", "--out", str(tmp_path), "--override", "justakey"]) == 2

    def test_command_override_rejected(self, tmp_path, capsys):
        # the subcommand names the run; an override of it would run another one
        out = tmp_path / "o"
        assert main(["solve", "--out", str(out), "--override", "command=verify-symbols"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("command:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_command_in_config_file_yields_to_subcommand(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"command": "solve"}))
        out = tmp_path / "o"
        assert main(["verify-symbols", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["symbols.json"]

    def test_undecodable_config_file(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_bytes(b"\xff\xfe\x7b")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["5", "null"])
    def test_non_string_output_directory_rejected(self, tmp_path, monkeypatch, capsys, value):
        # no --out: it would overwrite output.directory
        monkeypatch.setenv("NRLIMIT_OUTPUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--override", f"output.directory={value}"]) == 2
        assert "output.directory:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_environment_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NRLIMIT_OUTPUT_ROOT", str(tmp_path / "root"))
        assert main(["solve"]) == 0
        assert (tmp_path / "root" / "solve" / "ground_state.json").exists()


SWEEP_OVERRIDES = [
    "--override",
    "grid.N=256",
    "--override",
    "operator.c_list=[4,8,16,32]",
    "--override",
    "analysis.s_list=[0.5,1]",
]


class TestSweepCommand:
    def test_artifacts_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--out", str(out1), *SWEEP_OVERRIDES]) == 0
        assert main(["sweep", "--out", str(out2), *SWEEP_OVERRIDES]) == 0
        csv1 = (out1 / "sweep.csv").read_bytes()
        assert csv1 == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

        lines = csv1.decode().strip().splitlines()
        assert lines[0] == "c,s,norm_diff,h_minus1_residual,lambda,v_norm_h1,action_c,sup_norm"
        assert len(lines) == 1 + 4 * 2  # four c values, two orders

        summary = json.loads((out1 / "summary.json").read_text())
        assert set(summary["rate_fits"]) == {"0.5", "1"}
        assert summary["nondegeneracy_gap"] > 0.0
        assert summary["ladder"][0] == 0.5

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_config_without_ladder_rejected_before_solving(self, tmp_path, capsys, command):
        # the 2D cubic is H^1-subcritical, so it solves at c = inf, but H^(1/2)-critical:
        # the finite-c rule refuses it for the sweep's points before the reference is solved
        out = tmp_path / command
        assert main([command, "--out", str(out), "--override", "problem.n=2"]) == 2
        assert "problem.p" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_finite_c_two_dimensional_solve_rejected_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "solve"
        finite_c = ["--override", "operator.c=8"]
        assert main(["solve", "--out", str(out), "--override", "problem.n=2", *finite_c]) == 2
        err = capsys.readouterr().err
        assert err.startswith("problem.p: ") and "at finite c" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, override, field",
        [
            ("solve", "operator.c=Infinity", "operator.c"),
            ("solve", "operator.c=NaN", "operator.c"),
            ("sweep", "operator.c_list=[4,8,16,Infinity]", "operator.c_list"),
            ("sweep", "operator.c_list=[4,8,NaN,32]", "operator.c_list"),
            ("sweep", "grid.L=Infinity", "grid.L"),
            ("sweep", "grid.L=NaN", "grid.L"),
            # JSON integers too large for a float (10^400)
            pytest.param("solve", "grid.L=1" + "0" * 400, "grid.L", id="solve-grid.L=10^400"),
            pytest.param("solve", "operator.c=1" + "0" * 400, "operator.c", id="solve-operator.c=10^400"),
            pytest.param(
                "sweep", "operator.c_list=[4,8,16,1" + "0" * 400 + "]", "operator.c_list", id="sweep-operator.c_list=10^400"
            ),
            # JSON booleans are not numbers, and 1.0 is not an integer
            ("solve", "problem.n=true", "problem.n"),
            ("solve", "problem.n=1.0", "problem.n"),
            ("sweep", "grid.L=true", "grid.L"),
            ("solve", "operator.c=true", "operator.c"),
            ("sweep", "analysis.s_list=[true]", "analysis.s_list"),
        ],
    )
    def test_non_finite_input_rejected_before_solving(self, tmp_path, capsys, command, override, field):
        out = tmp_path / "nf"
        base = [] if command == "solve" else SWEEP_OVERRIDES
        assert main([command, "--out", str(out), *base, "--override", override]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        assert not (out / "ground_state.json").exists()

    def test_repeated_c_values_rejected_before_solving(self, tmp_path, capsys):
        # a repeated c would solve one point four times and fit a NaN slope, which strict JSON rejects
        out = tmp_path / "rep"
        args = ["sweep", "--out", str(out), "--override", "operator.c_list=[4,4,4,4]", "--override", "grid.N=256"]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("operator.c_list: c values must be strictly ascending")
        assert not out.exists()

    def test_c_values_that_share_a_summary_label_rejected_before_solving(self, tmp_path, monkeypatch, capsys):
        # summary.json keys each c by its %g label: 32.000001 would overwrite 32's entries
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solved a colliding c_list"))
        out = tmp_path / "c"
        assert main(["sweep", "--out", str(out), "--override", "operator.c_list=[4,8,16,32,32.000001]"]) == 2
        assert capsys.readouterr().err == "operator.c_list: 32.0 and 32.000001 share the summary label '32'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, s_list, message",
        [
            ("sweep", "[1,1.0000001]", "1.0 and 1.0000001 share the summary label '1'"),
            # report adds the uniform-bound orders, and the user's 1.0000001 would overwrite the norm of order 1
            ("report", "[1.0000001]", "1.0 and 1.0000001 share the summary label '1'"),
        ],
    )
    def test_orders_that_share_a_summary_label_rejected_before_solving(
        self, tmp_path, monkeypatch, capsys, command, s_list, message
    ):
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solved a colliding s_list"))
        out = tmp_path / command
        assert main([command, "--out", str(out), "--override", f"analysis.s_list={s_list}"]) == 2
        assert capsys.readouterr().err == f"analysis.s_list: {message}\n"
        assert not out.exists()

    def test_equal_orders_and_the_uniform_bound_orders_are_no_collision(self):
        for command in ("sweep", "report"):
            config = parse_config(json.dumps({"command": command, "analysis": {"s_list": [1, 1.0, 0.5]}}))
            assert config.s_list == (1.0, 1.0, 0.5)
        assert config.sweep_orders == (0.5, 1.0, 2.0, 3.0, 4.0)

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_partial_output_on_nonconvergence(self, tmp_path, capsys, command):
        # sweep and report fail one way: the converged rows, the error in summary.json, exit 3
        out = tmp_path / "p"
        code = main([command, "--out", str(out), *SWEEP_OVERRIDES, "--override", "solver.max_iterations=4"])
        assert code == 3
        assert (out / "sweep.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "error" in summary
        assert capsys.readouterr().err == f"{command} aborted: {summary['error']}\n"
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "sweep.csv"]

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_partial_output_when_a_point_raises(self, tmp_path, monkeypatch, capsys, command):
        # a GroundStateError at one c (a collapse, a non-finite iterate) takes the nonconvergence path:
        # the other points' rows, the error naming the c and its reason in summary.json, exit 3
        core = nr.limit_lab.solve

        def failing(op, *args):
            if op.c == 16.0:
                raise nr.GroundStateError("iterate collapsed to the zero field; bad initial guess")
            return core(op, *args)

        monkeypatch.setattr(nr.limit_lab, "solve", failing)
        out = tmp_path / "p"
        assert main([command, "--out", str(out), *SWEEP_OVERRIDES]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {
            "error": "sweep points failed: c = 16.0: iterate collapsed to the zero field; bad initial guess",
            "partial_rows": 3,
        }
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert sorted({float(row.split(",")[0]) for row in rows}) == [4.0, 8.0, 32.0]
        assert capsys.readouterr().err == f"{command} aborted: {summary['error']}\n"
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "sweep.csv"]

    def test_threads_is_not_an_option(self, tmp_path, capsys):
        # the sweep is one serial loop: argparse refuses the option before any config is read
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--out", str(out), "--threads", "2", *SWEEP_OVERRIDES])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    def test_octant_sweep_reads_the_reference_coefficients(self, monkeypatch, transform_counts):
        # a record reads the coefficients that the solved reference and its solved point carry and
        # transforms only the difference; the sweep transforms no solved reference and unfolds nothing
        config = parse_config(json.dumps({"command": "sweep", "grid": {"N": 256}, "operator": {"c_list": [4, 8, 16]}}))
        nl, cfg = config.nonlinearity_spec(), config.solver_config()
        u_inf = nr.solve(nr.nonrelativistic(), nl, config.grid, cfg)
        solves = []
        core = nr.limit_lab.solve

        def counted(*args):
            before = transform_counts["dct"]
            point = core(*args)
            solves.append(transform_counts["dct"] - before)
            return point

        monkeypatch.setattr(nr.limit_lab, "solve", counted)
        before = transform_counts["dct"]
        records = nr.sweep(config.c_list, [0.5, 1.0], nl, u_inf=u_inf, cfg=cfg)
        assert len(records) == len(solves) == 3
        assert transform_counts["dct"] - before - sum(solves) == 3
        assert "values" not in vars(u_inf.field)

        # a plain full-grid copy of the reference is found exactly even and gives the same records;
        # its coefficients take one transform, before any point starts
        plain = dataclasses.replace(u_inf, field=nr.SpectralField(config.grid, u_inf.field.values))
        solves.clear()
        before = transform_counts["dct"]
        assert nr.sweep(config.c_list, [0.5, 1.0], nl, u_inf=plain, cfg=cfg) == records
        assert transform_counts["dct"] - before - sum(solves) == 3 + 1


class TestPublicPath:
    """The CLI walks solve -> sweep -> gap and report through the public
    library, the same functions any caller uses (and the benchmark's tracer
    spans), not through private kernels of its own."""

    SOLVER, LAB = "ground_state", "limit_lab"
    # the private kernels that each public diagnostic was folded into
    FOLDED = {"_gap", "_identity_residual", "_optimality_forms", "_sweep_octant", "_octant_reference"}

    def test_cli_imports_no_private_solver_name_and_no_folded_kernel(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        names = {self.SOLVER: set(), self.LAB: set()}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # a module object would let private names through as attributes
                assert not {a.name.rsplit(".", 1)[-1] for a in node.names} & set(names)
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").rsplit(".", 1)[-1]
                assert not {a.name for a in node.names} & set(names), "import names from the module instead"
                if module in names:
                    names[module] |= {a.name for a in node.names}
        assert names[self.SOLVER] and names[self.LAB]
        assert [name for name in names[self.SOLVER] if name.startswith("_")] == []
        assert names[self.LAB] & self.FOLDED == set()
        assert {"solve", "sweep", "nondegeneracy_gap", "linearization_identity_residual"} <= (
            names[self.SOLVER] | names[self.LAB]
        )

    def test_lab_imports_no_private_solver_name(self):
        # every sweep point is a public solve: the sweep cannot drift back to the octant core
        tree = ast.parse(Path(nr.limit_lab.__file__).read_text())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not {a.name.rsplit(".", 1)[-1] for a in node.names} & {self.SOLVER}
            elif isinstance(node, ast.ImportFrom):
                imported = {a.name for a in node.names}
                assert self.SOLVER not in imported, "import names from the module instead"
                if (node.module or "").rsplit(".", 1)[-1] == self.SOLVER:
                    names |= imported
        assert "solve" in names
        assert [name for name in names if name.startswith("_")] == []
        assert not hasattr(nr.limit_lab, "_solve_octant")

    def test_cli_leaves_refusing_booleans_to_the_library(self):
        # a JSON boolean is refused by grid._as_integer and grid._as_real alone, not by a CLI copy of them
        tree = ast.parse(Path(cli.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                types = node.args[1]
                names = types.elts if isinstance(types, ast.Tuple) else [types]
                assert not any(isinstance(t, ast.Name) and t.id == "bool" for t in names), ast.unparse(node)

    def test_the_folded_kernels_and_the_second_result_type_are_gone(self):
        assert self.FOLDED & set(vars(nr.limit_lab)) == set()
        # solved fields carry their coefficients, and sweep records through the public convergence_record
        assert not hasattr(nr.limit_lab, "_Reference") and not hasattr(nr.limit_lab, "_record")
        assert not hasattr(nr.ground_state, "_OctantSolve") and not hasattr(nr.GroundStateResult, "result")
        assert not hasattr(cli, "_reference_solve")


class TestNondegCommand:
    def test_gap_artifact(self, tmp_path):
        out = tmp_path / "n"
        assert main(["nondeg", "--out", str(out), "--override", "grid.N=256"]) == 0
        payload = json.loads((out / "nondeg.json").read_text())
        assert payload["positive"] is True
        assert abs(payload["gap"] - 0.5) < 1e-6
        assert payload["linearization_identity_residual"] <= 1e-8

    def test_gap_nonconvergence_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(nr.limit_lab, "LANCZOS_MAX_STEPS", 3)
        out = tmp_path / "n"
        assert main(["nondeg", "--out", str(out), "--override", "grid.N=256"]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert "Lanczos did not converge in 3 steps" in err
        assert "Traceback" not in err
        assert not (out / "nondeg.json").exists()

    def test_reference_nonconvergence_exits_3(self, tmp_path, capsys):
        out = tmp_path / "n"
        assert main(["nondeg", "--out", str(out), "--override", "solver.max_iterations=3"]) == 3
        assert capsys.readouterr().err == "reference solve did not converge\n"
        assert not (out / "nondeg.json").exists()

    def test_3d_hartree_run_peak(self, tmp_path):
        # the benchmark's 64^3 Hartree nondeg, warm: its peak, 2.95 MB, is in
        # the gap's seven 33^3 octants, the solve's eight-octant fine level
        # peaking 0.14 MB lower (3.28 MB in the fine level while it held nine
        # octants; 3.77 MB in the gap while it held nine, 4.64 MB when the fine
        # level held 13 octants and the gap 12; 5.87 MB before the level's
        # 13-octant working set); the bound leaves half an octant (0.14 MB) of
        # headroom
        assert _warm_3d_hartree_peak("nondeg", tmp_path) <= 3.09e6


def _warm_3d_hartree_peak(command: str, tmp_path: Path) -> int:
    """The traced peak of a 64^3 Hartree CLI run after one run has filled the caches."""
    args = [command, "--override", "problem.n=3", "--override", "problem.nonlinearity=hartree"]
    assert main([*args, "--out", str(tmp_path / "cold")]) == 0
    codes = []
    peak = traced_peak(lambda: codes.append(main([*args, "--out", str(tmp_path / "warm")])))
    assert codes == [0]
    return peak


def _src_env() -> dict[str, str]:
    """This process's environment, finding nrlimit in src/ first."""
    src = str(Path(nr.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestProcessFootprint:
    """What a CLI run loads and calls, each in a fresh interpreter: the first
    LAPACK call of a process costs about 1 MB of peak RSS, loading numpy.fft
    about 0.6 MB, and unfolding the 64^3 reference 2 MB.  A solved field
    unfolds its octant through `grid._unfold` on the first read of its
    values, so refusing that function refuses every unfolding."""

    REFUSE_LAPACK = (
        "import sys, numpy as np, nrlimit.cli as cli, nrlimit.grid as grid\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('refused call')\n"
        "np.linalg.solve = np.linalg.eigh = np.linalg.eigvalsh = refuse\n"
    )

    @staticmethod
    def run_fresh(code: str) -> None:
        subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True)

    def test_3d_nondeg_keeps_the_reference_on_the_octant_and_loads_no_numpy_fft(self, tmp_path):
        args = ["nondeg", "--out", str(tmp_path / "n"), "--override", "problem.n=3"]
        args += ["--override", "problem.nonlinearity=hartree", "--override", "grid.N=32"]
        self.run_fresh(
            self.REFUSE_LAPACK
            + "grid._unfold = refuse\n"
            + f"assert cli.main({args!r}) == 0\n"
            + "assert 'numpy.fft._pocketfft_umath' not in sys.modules\n"
        )
        assert json.loads((tmp_path / "n" / "nondeg.json").read_text())["positive"] is True

    def test_3d_report_keeps_the_reference_on_the_octant_and_loads_no_numpy_fft(self, tmp_path):
        # the benchmark's 64^3 Hartree report: five solves, the sweep, the gap and every reference diagnostic
        args = ["report", "--out", str(tmp_path / "r"), "--override", "problem.n=3"]
        args += ["--override", "problem.nonlinearity=hartree"]
        self.run_fresh(
            self.REFUSE_LAPACK
            + "grid._unfold = refuse\n"
            + f"assert cli.main({args!r}) == 0\n"
            + "assert 'numpy.fft._pocketfft_umath' not in sys.modules\n"
        )
        assert "checks passed" in (tmp_path / "r" / "report.md").read_text()

    def test_1d_report_makes_no_lapack_call(self, tmp_path):
        # exit 4: the s=4 uniform bound is the one known FAIL row
        args = ["report", "--out", str(tmp_path / "r"), *SWEEP_OVERRIDES]
        self.run_fresh(self.REFUSE_LAPACK + f"assert cli.main({args!r}) == 4\n")
        assert (tmp_path / "r" / "report.md").exists()


class TestProcessEntry:
    """`cli.entry`, the one way into an `nrlimit` process: `main`, then `gc.freeze()` and `sys.exit`."""

    ROOT = Path(__file__).resolve().parents[1]

    def test_every_way_in_calls_entry(self):
        pyproject = (self.ROOT / "pyproject.toml").read_text()
        scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert [line for line in scripts.splitlines() if line.strip()] == ['nrlimit = "nrlimit.cli:entry"']
        package = self.ROOT / "src" / "nrlimit"
        assert (package / "__main__.py").read_text() == "from .cli import entry\n\nentry()\n"
        assert (package / "cli.py").read_text().endswith('\nif __name__ == "__main__":\n    entry()\n')

    def test_entry_freezes_after_main_and_atexit_still_runs(self, tmp_path):
        code = (
            "import atexit, gc, sys\n"
            "import nrlimit.cli as cli\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['nrlimit', 'verify-symbols', '--out', {str(tmp_path / 'v')!r}]\n"
            "cli.entry()\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "True\n")
        assert main(["verify-symbols", "--out", str(tmp_path / "in-process")]) == 0
        fresh, in_process = ((tmp_path / run / "symbols.json").read_bytes() for run in ("v", "in-process"))
        assert fresh == in_process

    @pytest.mark.parametrize(
        "args, code, err",
        [
            (["solve", "--override", "justakey"], 2, "override 'justakey': expected key.path=value\n"),
            # the s=4 uniform bound is the one known FAIL row
            (["report", *SWEEP_OVERRIDES], 4, ""),
        ],
    )
    def test_exit_code_reaches_the_parent(self, tmp_path, args, code, err):
        cmd = [sys.executable, "-m", "nrlimit", *args, "--out", str(tmp_path / "o")]
        proc = subprocess.run(cmd, env=_src_env(), capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (code, err)

    def test_in_process_main_leaves_the_collector_alone(self, tmp_path):
        frozen = gc.get_freeze_count()
        assert main(["verify-symbols", "--out", str(tmp_path / "v")]) == 0
        assert gc.get_freeze_count() == frozen

    def test_fresh_process_writes_what_main_writes(self, tmp_path):
        # every file is complete when main returns: none waits for a finalizer at shutdown
        args = ["solve", "--override", "grid.N=256", "--override", 'output.formats=["binary", "csv"]']
        cmd = [sys.executable, "-m", "nrlimit", *args, "--out", str(tmp_path / "process")]
        subprocess.run(cmd, env=_src_env(), check=True)
        assert main([*args, "--out", str(tmp_path / "in-process")]) == 0
        names = sorted(p.name for p in (tmp_path / "process").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "in-process").iterdir())
        assert len(names) == 4  # ground_state.json and the field's .bin, .csv and .json
        for name in names:
            assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "in-process" / name).read_bytes(), name


class TestVerifySymbolsCommand:
    def test_symbol_table(self, tmp_path):
        out = tmp_path / "v"
        assert main(["verify-symbols", "--out", str(out)]) == 0
        payload = json.loads((out / "symbols.json").read_text())
        assert payload["overall_min_ratio"] >= 0.5
        assert len(payload["rows"]) == 8
        for row in payload["rows"]:
            assert row["lattice_min_ratio"] >= 0.5
            assert row["dense_min_ratio"] >= 0.5
            assert 0.0 < row["taylor_residual"] <= 1.0


class TestReportCommand:
    def test_3d_hartree_report_peak(self, tmp_path):
        # the benchmark's 64^3 Hartree report, warm: its peak, 3.38 MB, is in
        # a sweep point's fine level (eight octants; 3.86 MB with nine, 5.01
        # MB when the fine level held 13 octants, the gap 12 and a sweep
        # record 10); the bound leaves half an octant of headroom
        assert _warm_3d_hartree_peak("report", tmp_path) <= 3.52e6

    def test_report_flags_known_high_order_deviation(self, tmp_path):
        out = tmp_path / "r"
        code = main(["report", "--out", str(out)])
        assert code == 4
        text = (out / "report.md").read_text()
        rows = [line for line in text.splitlines() if line.startswith("|") and "status" not in line and "---" not in line]
        failing = [r for r in rows if "FAIL" in r]
        assert len(failing) == 1
        assert "s=4" in failing[0]
        assert (out / "sweep.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "symbols.json").exists()

    @pytest.mark.parametrize("command", ["verify-symbols", "report"])
    def test_box_too_short_for_symbol_table_rejected_before_solving(self, tmp_path, monkeypatch, capsys, command):
        # the Taylor window at c = 1 needs 2 pi / L <= 1/2, that is L >= 4 pi
        solves = []
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: solves.append(args))
        monkeypatch.setattr(nr.ground_state, "_solve_octant", lambda *args, **kwargs: solves.append(args))
        out = tmp_path / command
        assert main([command, "--out", str(out), "--override", "grid.L=8", "--override", "grid.N=256"]) == 2
        assert "grid.L:" in capsys.readouterr().err
        assert solves == []
        assert not out.exists()

    @pytest.mark.parametrize("command, code", [("verify-symbols", 0), ("report", 4)])
    def test_symbol_table_takes_the_proven_minimum_without_scanning(self, tmp_path, monkeypatch, command, code):
        def refuse(*args, **kwargs):
            raise AssertionError("the symbol table scanned")

        monkeypatch.setattr(nr.operators, "symbol_gap_scan", refuse)
        monkeypatch.setattr(nr, "symbol_gap_scan", refuse)
        out = tmp_path / command
        assert main([command, "--out", str(out), *SWEEP_OVERRIDES]) == code
        rows = json.loads((out / "symbols.json").read_text())["rows"]
        assert [row["dense_min_ratio"] for row in rows] == [1.0] * len(cli.SYMBOL_C_GRID)

    @pytest.mark.parametrize("length", [5e-324, 1e-300, 1.0, math.nextafter(4.0 * math.pi, 0.0)])
    def test_short_box_exits_2_at_grid_length_and_writes_nothing(self, tmp_path, capsys, length):
        out = tmp_path / "symbols"
        assert main(["verify-symbols", "--out", str(out), "--override", f"grid.L={length!r}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("grid.L: ") and "Traceback" not in err
        assert not out.exists()

    def test_grid_built_once(self, tmp_path, monkeypatch):
        built = []
        post_init = nr.Grid.__post_init__

        def counting(grid):
            built.append((grid.n, grid.length, grid.points))
            post_init(grid)

        monkeypatch.setattr(nr.Grid, "__post_init__", counting)
        main(["report", "--out", str(tmp_path / "r"), *SWEEP_OVERRIDES])
        assert built == [(1, 32.0, 256)]

    @pytest.mark.parametrize(
        "c_list, row",
        [
            ("[4,8,16,32,64]", "| H^-1 defect stability (c in 16..64) | 1.0097 | <= 1.05 | PASS |"),
            ("[4,8,12,20,40]", "| H^-1 defect stability (c in 20..40) | 1.0050 | <= 1.05 | PASS |"),
            ("[4,6,8,12,16]", "| H^-1 defect stability (needs two c >= 16) | n/a | <= 1.05 | FAIL |"),
        ],
    )
    def test_defect_stability_row_on_every_ladder(self, tmp_path, c_list, row):
        out = tmp_path / "r"
        main(["report", "--out", str(out), "--override", "grid.N=256", "--override", f"operator.c_list={c_list}"])
        rows = [line for line in (out / "report.md").read_text().splitlines() if line.startswith("| ")]
        assert len(rows) == 1 + 22  # the header and every check
        assert [r for r in rows if "H^-1 defect stability" in r] == [row]

    def test_footer_excepts_the_one_number_no_artifact_holds(self, tmp_path):
        out = tmp_path / "r"
        assert main(["report", "--out", str(out)]) == 4
        lines = (out / "report.md").read_text().splitlines()
        assert lines[-1] == (
            "All numbers above except the soliton profile error, which reads the unwritten reference field,"
            " are computed from sweep.csv, summary.json and symbols.json in this directory."
        )
        # the soliton profile error (3.183e-07) is no number of the three files, at its printed precision
        profile = next(line for line in lines if line.startswith("| soliton profile")).split(" | ")[1]
        written = " ".join((out / name).read_text() for name in ("sweep.csv", "summary.json", "symbols.json"))
        numbers = re.findall(r"-?\d+\.\d+(?:e[-+]\d+)?", written)
        assert numbers and profile not in {f"{float(x):.3e}" for x in numbers}

    def test_report_numbers_traceable(self, tmp_path):
        out = tmp_path / "r2"
        main(["report", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        text = (out / "report.md").read_text()
        gap_row = next(line for line in text.splitlines() if "nondegeneracy gap" in line)
        reported = float(gap_row.split("|")[2])
        assert np.isclose(reported, summary["nondegeneracy_gap"], atol=1e-6)

    def test_1d_report_keeps_the_reference_on_the_octant(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("unfolded a field")

        monkeypatch.setattr(nr.grid, "_unfold", refuse)
        out = tmp_path / "r"
        assert main(["report", "--out", str(out), *SWEEP_OVERRIDES]) == 4
        assert "| soliton profile (sup error vs exact) | 3.183e-07 |" in (out / "report.md").read_text()


def _report_run(monkeypatch, out: Path, *args: str) -> tuple:
    """Run `nrlimit report` and return what its check table read: (config, records, summary, symbols, u_inf)."""
    runs = []
    checks = cli._checks
    monkeypatch.setattr(cli, "_checks", lambda *run: runs.append(run) or checks(*run))
    main(["report", "--out", str(out), *args])
    return runs[0]


def _statuses(checks) -> list[tuple[str, str, str]]:
    return [(name, bound, "PASS" if ok else "FAIL") for name, _, bound, ok in checks]


# (name, bound, status) of every row of two reports the benchmark does not run, as report.md prints them
P5_ROWS = [
    ("rate slope at s=0.5", "in [-2.15, -1.85]", "PASS"),
    ("two-sided spread at s=0.5", "<= 3", "PASS"),
    ("rate slope at s=1", "in [-2.15, -1.85]", "PASS"),
    ("two-sided spread at s=1", "<= 3", "PASS"),
    ("rate slope at s=2", "in [-2.15, -1.85]", "PASS"),
    ("two-sided spread at s=2", "<= 3", "PASS"),
    ("rate slope at s=3", "in [-2.15, -1.85]", "PASS"),
    ("two-sided spread at s=3", "<= 3", "PASS"),
    ("H^-1 defect stability (c in 16..64)", "<= 1.05", "PASS"),
    ("symbol lower bound (lattice + dense scan)", ">= 0.5", "PASS"),
    ("optimality limit vs reference", "<= 2%", "PASS"),
    ("nondegeneracy gap", "> 0", "PASS"),
    ("linearization identity residual", "<= 1e-8", "PASS"),
    ("uniform bound at s=0.5", "<= 1.5", "PASS"),
    ("uniform bound at s=1", "<= 1.5", "PASS"),
    ("uniform bound at s=2", "<= 1.5", "PASS"),
    ("uniform bound at s=3", "<= 1.5", "FAIL"),
    ("uniform bound at s=4", "<= 1.5", "FAIL"),
    ("bootstrap ratio spread (1/2 -> 3)", "<= 3", "PASS"),
    ("projection decomposition identity", "<= 1e-8", "PASS"),
]
SHORT_LADDER_ROWS = [
    ("soliton profile (sup error vs exact)", "<= 1e-6", "PASS"),
    ("soliton residual", "<= 1e-10", "PASS"),
    ("rate slope at s=0.5", "in [-2.15, -1.85]", "FAIL"),
    ("two-sided spread at s=0.5", "<= 3", "PASS"),
    ("rate slope at s=1", "in [-2.15, -1.85]", "FAIL"),
    ("two-sided spread at s=1", "<= 3", "PASS"),
    ("rate slope at s=2", "in [-2.15, -1.85]", "PASS"),
    ("two-sided spread at s=2", "<= 3", "PASS"),
    ("rate slope at s=3", "in [-2.15, -1.85]", "PASS"),
    ("two-sided spread at s=3", "<= 3", "PASS"),
    ("H^-1 defect stability (needs two c >= 16)", "<= 1.05", "FAIL"),
    ("symbol lower bound (lattice + dense scan)", ">= 0.5", "PASS"),
    ("optimality limit vs reference", "<= 2%", "FAIL"),
    ("nondegeneracy gap", "> 0", "PASS"),
    ("linearization identity residual", "<= 1e-8", "PASS"),
    ("uniform bound at s=0.5", "<= 1.5", "PASS"),
    ("uniform bound at s=1", "<= 1.5", "PASS"),
    ("uniform bound at s=2", "<= 1.5", "PASS"),
    ("uniform bound at s=3", "<= 1.5", "FAIL"),
    ("uniform bound at s=4", "<= 1.5", "FAIL"),
    ("bootstrap ratio spread (1/2 -> 3)", "<= 3", "PASS"),
    ("projection decomposition identity", "<= 1e-8", "PASS"),
]

# three c values: fit_rate needs four, so no order has a fit and each rate row reads n/a
NO_FIT_ROWS = [
    ("soliton profile (sup error vs exact)", "<= 1e-6", "PASS"),
    ("soliton residual", "<= 1e-10", "PASS"),
    *[row for k in ("0.5", "1", "2", "3") for row in (
        (f"rate slope at s={k}", "in [-2.15, -1.85]", "FAIL"),
        (f"two-sided spread at s={k}", "<= 3", "FAIL"),
    )],
    ("H^-1 defect stability (needs two c >= 16)", "<= 1.05", "FAIL"),
    ("symbol lower bound (lattice + dense scan)", ">= 0.5", "PASS"),
    ("optimality limit vs reference", "<= 2%", "FAIL"),
    ("nondegeneracy gap", "> 0", "PASS"),
    ("linearization identity residual", "<= 1e-8", "PASS"),
    ("uniform bound at s=0.5", "<= 1.5", "PASS"),
    ("uniform bound at s=1", "<= 1.5", "PASS"),
    ("uniform bound at s=2", "<= 1.5", "PASS"),
    ("uniform bound at s=3", "<= 1.5", "PASS"),
    ("uniform bound at s=4", "<= 1.5", "FAIL"),
    ("bootstrap ratio spread (1/2 -> 3)", "<= 3", "PASS"),
    ("projection decomposition identity", "<= 1e-8", "PASS"),
]


class TestReportChecks:
    """The report's check table, enumerated on the runs it reads."""

    @pytest.mark.parametrize(
        "workload, args",
        [
            ("report-1d-cubic", []),
            ("report-3d-hartree", ["--override", "problem.n=3", "--override", "problem.nonlinearity=hartree"]),
        ],
    )
    def test_benchmark_reports_yield_their_reference_rows(self, tmp_path, monkeypatch, workload, args):
        checks = cli._checks(*_report_run(monkeypatch, tmp_path / "r", *args))
        expected = json.loads((PERFBENCH / "reference" / workload / "report_status.json").read_text())
        assert [[name, status] for name, _, status in _statuses(checks)] == expected

    @pytest.mark.parametrize(
        "args, rows",
        [
            (["--override", "problem.p=5", "--override", "grid.N=256"], P5_ROWS),
            (["--override", "operator.c_list=[2,4,8,16]"], SHORT_LADDER_ROWS),
            (["--override", "grid.N=256", "--override", "operator.c_list=[4,8,16]"], NO_FIT_ROWS),
        ],
    )
    def test_rows_off_the_benchmark(self, tmp_path, monkeypatch, args, rows):
        assert _statuses(cli._checks(*_report_run(monkeypatch, tmp_path / "r", *args))) == rows

    @pytest.mark.parametrize(
        "path, value, row",
        [
            (("summary", "nondegeneracy_gap"), -0.5, "nondegeneracy gap"),
            (("summary", "linearization_identity_residual"), 2.0e-8, "linearization identity residual"),
            (("summary", "reference_state", "residual"), 1.0e-9, "soliton residual"),
            (("summary", "rate_fits", "2", "slope"), -1.5, "rate slope at s=2"),
            (("summary", "reference_state", "norms", "4"), 1.0e3, "uniform bound at s=4"),
            (("symbols", "overall_min_ratio"), 0.25, "symbol lower bound (lattice + dense scan)"),
        ],
    )
    def test_moving_one_value_across_its_bound_flips_only_its_row(self, tmp_path, monkeypatch, path, value, row):
        config, records, summary, symbols, u_inf = _report_run(monkeypatch, tmp_path / "r", "--override", "grid.N=256")
        moved = {"summary": copy.deepcopy(summary), "symbols": copy.deepcopy(symbols)}
        node = moved[path[0]]
        for key in path[1:-1]:
            node = node[key]
        node[path[-1]] = value
        before = cli._checks(config, records, summary, symbols, u_inf)
        after = cli._checks(config, records, moved["summary"], moved["symbols"], u_inf)
        assert [b[0] for b, a in zip(before, after, strict=True) if b[3] != a[3]] == [row]

    @pytest.mark.parametrize(
        "bound, inside, outside",
        [
            ("<= 1e-6", 1.0e-6, math.nextafter(1.0e-6, 1.0)),
            (">= 0.5", 0.5, math.nextafter(0.5, 0.0)),
            ("> 0", 5e-324, 0.0),
            ("<= 2%", 0.02, math.nextafter(0.02, 1.0)),
            ("in [-2.3, -1.7]", -2.3, math.nextafter(-1.7, 0.0)),
        ],
    )
    def test_printed_bound_is_the_bound_checked(self, bound, inside, outside):
        assert cli._meets(inside, bound) and not cli._meets(outside, bound)
        assert not cli._meets(None, bound) and not cli._meets(math.nan, bound)


def _override_args(doc: dict) -> list[str]:
    args = []
    for section, fields in doc.items():
        if section != "command":
            for key, value in fields.items():
                args += ["--override", f"{section}.{key}={json.dumps(value)}"]
    return args


ABSENT = object()


def _fields(draw, **strategies) -> dict:
    """Each field drawn from its strategy, or left out to take its default."""
    drawn = {key: draw(st.one_of(st.just(ABSENT), strategy)) for key, strategy in strategies.items()}
    return {key: value for key, value in drawn.items() if value is not ABSENT}


def _label(value: float) -> str:
    """The %g label that keys a c value or an order in summary.json."""
    return f"{value:g}"


UNIFORM_BOUND_LABELS = {_label(s) for s in cli.UNIFORM_BOUND_ORDERS}


def _colliding(values):
    """A pair of different values in the range of `values` that share one %g label."""
    return values.map(lambda v: float(_label(v))).map(lambda v: [v, v * (1.0 + 1e-9)])


@st.composite
def valid_configs(draw):
    """Config documents parse_config accepts."""
    n = draw(st.sampled_from([1, 2, 3]))
    # the finite-c rule admits no 2D power: 2D runs no sweep or report, and solves only at c = inf
    command = draw(st.sampled_from(["solve", "nondeg", "verify-symbols"] if n == 2 else cli.COMMANDS))
    if n == 3:
        problem = {"n": 3, "nonlinearity": "hartree", **_fields(draw, p=st.none())}
    else:
        p = st.integers(3, 9) if n == 1 else st.just(3)
        problem = {"n": n, **_fields(draw, nonlinearity=st.just("power"), p=p)}
    c = st.floats(1.0, 1.0e3)
    # only solve reads c, and a 2D solve at finite c is refused: 2D solves only at c = inf (c null)
    solve_c = {"c": st.none() if n == 2 else st.one_of(st.none(), c)} if command == "solve" else {}
    operator = _fields(
        draw,
        **solve_c,
        # summary.json keys c values and orders by their %g labels, which must differ
        c_list=st.lists(c, min_size=1, max_size=5, unique_by=_label).map(sorted),
    )
    orders = st.floats(-4.0, 8.0)
    if command == "report":
        # nor may a label equal that of a different uniform-bound order, which the report adds
        orders = orders.filter(lambda s: s in cli.UNIFORM_BOUND_ORDERS or _label(s) not in UNIFORM_BOUND_LABELS)
    max_points = {1: 2048, 2: 128, 3: 32}[n]
    lengths = st.one_of(st.integers(1, 1000), st.floats(0.5, 1000.0))
    if command in ("verify-symbols", "report"):
        # the symbol table's Taylor window at c = 1 needs L >= 4 pi
        lengths = st.one_of(st.integers(13, 1000), st.floats(13.0, 1000.0))
    return {
        "command": command,
        "problem": problem,
        "grid": _fields(
            draw,
            L=lengths,
            N=st.integers(8, max_points // 2).map(lambda k: 2 * k),
        ),
        "operator": operator,
        "solver": _fields(draw, tolerance=st.floats(1.0e-14, 1.0e-4), max_iterations=st.integers(1, 10**6)),
        "analysis": _fields(draw, s_list=st.lists(orders, min_size=1, max_size=5, unique_by=_label)),
        "output": _fields(
            draw,
            directory=st.text(string.ascii_letters + "/_-", min_size=1, max_size=12),
            formats=st.lists(st.sampled_from(["binary", "csv"]), max_size=2),
        ),
    }


NOT_NUMBERS = st.one_of(st.booleans(), st.text(max_size=4), st.lists(st.integers(), max_size=2), st.just({"a": 1}))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
NOT_LISTS = st.one_of(st.booleans(), st.integers(), st.text(max_size=4), st.none())

# one invalid value per field, against the defaults (1D cubic) for the rest
INVALID = {
    "command": st.one_of(st.text(max_size=6).filter(lambda v: v not in cli.COMMANDS), NOT_NUMBERS, st.integers()),
    "problem.n": st.one_of(st.integers().filter(lambda v: v not in (1, 2, 3)), st.floats(), NOT_NUMBERS, st.none()),
    "problem.nonlinearity": st.one_of(st.text(max_size=8).filter(lambda v: v != "power"), st.integers(), st.none()),
    "problem.p": st.one_of(st.integers(max_value=2), st.floats(), NOT_NUMBERS, st.none()),
    "grid.L": st.one_of(
        st.floats(max_value=0.0),
        st.integers(max_value=0),
        # too short for the symbol table's Taylor window at c = 1
        st.floats(0.0, 4.0 * math.pi, exclude_min=True, exclude_max=True),
        NON_FINITE,
        NOT_NUMBERS,
        st.none(),
    ),
    "grid.N": st.one_of(st.integers().filter(lambda v: v % 2 == 1 or v < 16), st.floats(), NOT_NUMBERS, st.none()),
    "operator.c": st.one_of(
        st.floats(max_value=1.0, exclude_max=True), st.integers(max_value=0), NON_FINITE, NOT_NUMBERS
    ),
    "operator.c_list": st.one_of(
        st.just([]),
        st.lists(st.floats(max_value=1.0, exclude_max=True), min_size=1, max_size=3).map(lambda v: [4.0, *v]),
        st.lists(st.floats(1.0, 1.0e3), min_size=2, max_size=4, unique=True).map(lambda v: sorted(v, reverse=True)),
        # ascending but not strictly: a repeated c would fit a NaN slope, which strict JSON rejects
        st.lists(st.floats(1.0, 1.0e3), min_size=1, max_size=3).map(lambda v: sorted([*v, v[0]])),
        st.lists(st.one_of(NON_FINITE, st.booleans()), min_size=1, max_size=2),
        _colliding(st.floats(1.0, 1.0e3)),
        NOT_LISTS,
    ),
    "solver.tolerance": st.one_of(
        st.floats(1.0e-4, exclude_min=True),
        st.floats(max_value=1.0e-14, exclude_max=True),
        NON_FINITE,
        NOT_NUMBERS,
        st.none(),
    ),
    "solver.max_iterations": st.one_of(st.integers(max_value=0), st.floats(), NOT_NUMBERS, st.none()),
    "analysis.s_list": st.one_of(
        st.just([]),
        st.lists(
            st.one_of(st.floats(8.0, exclude_min=True), st.floats(max_value=-4.0, exclude_max=True)),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.one_of(NON_FINITE, st.booleans()), min_size=1, max_size=2),
        _colliding(st.floats(0.5, 4.0)),
        NOT_LISTS,
    ),
    "output.directory": st.one_of(
        st.integers(), st.floats(allow_nan=False), st.booleans(), st.none(), st.lists(st.text(max_size=2), max_size=2)
    ),
    "output.formats": st.one_of(
        st.lists(st.text(max_size=6), min_size=1, max_size=3).filter(lambda v: set(v) - {"binary", "csv"}), NOT_LISTS
    ),
}
UNKNOWN_KEYS = st.sampled_from([name for name, entry in cli.SCHEMA.items() if isinstance(entry, dict)]).flatmap(
    lambda section: st.text(string.ascii_lowercase, min_size=1, max_size=6)
    .filter(lambda key: key not in cli.SCHEMA[section])
    .map(lambda key: f"{section}.{key}")
)


class TestConfigProperties:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(doc=valid_configs())
    def test_valid_config_round_trips_through_overrides(self, doc):
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "run", lambda config: seen.append(config) or 0)
            assert main([doc["command"], *_override_args(doc)]) == 0
        assert seen == [parse_config(json.dumps(doc))]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_invalid_field_exits_2_naming_it(self, data):
        path = data.draw(st.one_of(st.sampled_from(sorted(INVALID)), UNKNOWN_KEYS), label="path")
        value = data.draw(INVALID.get(path, st.integers()), label="value")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            # no --out, so that output.directory stays the value under test
            mp.setenv("NRLIMIT_OUTPUT_ROOT", tmp)
            mp.chdir(tmp)
            with contextlib.redirect_stderr(err):
                code = main(["verify-symbols", "--override", f"{path}={json.dumps(value)}"])
            written = list(Path(tmp).iterdir())
        assert code == 2, err.getvalue()
        assert f"{path}:" in err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert written == []

    # the property above draws grid.L in few examples; this one draws only boxes
    # shorter than the symbol table's Taylor window at c = 1 needs (L >= 4 pi)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["verify-symbols", "report"]),
        length=st.one_of(st.floats(0.0, 4.0 * math.pi, exclude_min=True, exclude_max=True), st.integers(1, 12)),
    )
    def test_short_box_exits_2_naming_grid_length(self, command, length):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setenv("NRLIMIT_OUTPUT_ROOT", tmp)
            mp.chdir(tmp)
            mp.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solved a box too short for the symbol table"))
            with contextlib.redirect_stderr(err):
                code = main([command, "--override", f"grid.L={json.dumps(length)}"])
            written = list(Path(tmp).iterdir())
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith("grid.L: ") and err.getvalue().count("\n") == 1
        assert written == []

    # the property above draws a colliding list in few examples; this one draws only
    # c values or orders that share a %g label, for report also with a uniform-bound order
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), command=st.sampled_from(["sweep", "report"]))
    def test_colliding_labels_exit_2_naming_the_list(self, data, command):
        lists = [
            ("operator.c_list", _colliding(st.floats(1.0, 1.0e3))),
            ("analysis.s_list", _colliding(st.one_of(st.floats(-3.5, -0.5), st.floats(0.5, 7.5)))),
        ]
        if command == "report":
            uniform = st.sampled_from(cli.UNIFORM_BOUND_ORDERS).map(lambda s: [s * (1.0 + 1e-9)])
            lists.append(("analysis.s_list", uniform))
        path, values = data.draw(st.one_of(*(v.map(lambda v, path=path: (path, v)) for path, v in lists)))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setenv("NRLIMIT_OUTPUT_ROOT", tmp)
            mp.chdir(tmp)
            mp.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("solved a colliding list"))
            with contextlib.redirect_stderr(err):
                code = main([command, "--override", f"{path}={json.dumps(values)}"])
            written = list(Path(tmp).iterdir())
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith(f"{path}: ") and err.getvalue().count("\n") == 1
        assert "share the summary label" in err.getvalue()
        assert written == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestBenchmarkArtifacts:
    """The benchmark's workloads, run in process with `perfbench/run.py`'s arguments
    and checked by `perfbench/compare.py` against `perfbench/reference/`."""

    @staticmethod
    def load(monkeypatch, name: str):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        return module

    # exit 4: the s=4 uniform bound is the one known FAIL row of the 1D report
    @pytest.mark.parametrize(
        "workload, code", [("report-1d-cubic", 4), ("report-3d-hartree", 0), ("nondeg-3d-hartree", 0)]
    )
    def test_workload_matches_its_reference(self, tmp_path, monkeypatch, workload, code):
        compare = self.load(monkeypatch, "compare")
        wl = self.load(monkeypatch, "run").WORKLOADS[workload]
        assert wl.expected_exit == code
        out = tmp_path / workload
        exit_code = main([*wl.cli_args, "--out", str(out)])
        assert compare.compare_run(PERFBENCH / "reference" / workload, out, wl.expected_exit, exit_code) == []

    def test_3d_report_solves_start_from_their_coarse_solutions(self, tmp_path, monkeypatch):
        # one level took 18 iterations for the reference and 57 for the four c points
        self.load(monkeypatch, "compare")  # run.py imports it
        wl = self.load(monkeypatch, "run").WORKLOADS["report-3d-hartree"]
        core, solves = nr.ground_state._solve_octant, []

        def recorded(*args):
            result = core(*args)
            solves.append(result)
            return result

        monkeypatch.setattr(nr.ground_state, "_solve_octant", recorded)
        assert main([*wl.cli_args, "--out", str(tmp_path / "report")]) == wl.expected_exit
        reference, *points = solves
        assert len(points) == 4
        assert all(s.coarse_start for s in solves)
        assert reference.iterations <= 5
        assert sum(p.iterations for p in points) <= 20

    # whole-field DCT-I transforms per run; 199, 523 and 184 while each diagnostic transformed the solved
    # reference itself and each sweep record its solved point
    @pytest.mark.parametrize(
        "workload, transforms", [("report-1d-cubic", 189), ("report-3d-hartree", 509), ("nondeg-3d-hartree", 181)]
    )
    def test_whole_field_transforms_per_run(self, tmp_path, monkeypatch, transform_counts, workload, transforms):
        self.load(monkeypatch, "compare")  # run.py imports it
        wl = self.load(monkeypatch, "run").WORKLOADS[workload]
        assert main([*wl.cli_args, "--out", str(tmp_path / workload)]) == wl.expected_exit
        assert transform_counts["dct"] == transforms

    def test_benchmark_command_matches_its_reference(self, tmp_path, monkeypatch):
        # the `python -m nrlimit` process the benchmark spawns, in the benchmark's environment
        compare, run = self.load(monkeypatch, "compare"), self.load(monkeypatch, "run")
        wl, out = run.WORKLOADS["report-1d-cubic"], tmp_path / "report-1d-cubic"
        proc = subprocess.run(run.cli_command(wl, out), env=run.child_env(), cwd=run.ROOT)
        reference = PERFBENCH / "reference" / "report-1d-cubic"
        assert compare.compare_run(reference, out, wl.expected_exit, proc.returncode) == []
