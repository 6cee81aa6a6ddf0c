"""The BLAS thread rule of `import nrlimit` (see the package docstring).

The test process imported numpy before nrlimit, so the rule is off here; every
check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nrlimit as nr

SRC = str(Path(nr.__file__).resolve().parents[1])
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# the OS threads of this interpreter, and its thread variables, as JSON
REPORT = (
    "import json, os, pathlib, re\n"
    "status = pathlib.Path('/proc/self/status').read_text()\n"
    "threads = int(re.search(r'^Threads:\\s*(\\d+)', status, re.M).group(1))\n"
    f"print(json.dumps([threads, {{k: os.environ.get(k) for k in {THREAD_VARS!r}}}]))\n"
)


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        return ""


needs_proc = pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc/self/status")
needs_openblas = pytest.mark.skipif("openblas" not in _blas_name(), reason="the rule sets OpenBLAS's thread count")


def _env(**thread_vars: str) -> dict[str, str]:
    """This process's environment without the thread variables, plus `thread_vars`, finding nrlimit in src/."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return {**env, **thread_vars}


def _fresh(code: str, **thread_vars: str):
    cmd = [sys.executable, "-c", code]
    return json.loads(subprocess.run(cmd, env=_env(**thread_vars), check=True, capture_output=True, text=True).stdout)


@needs_proc
@needs_openblas
def test_import_runs_on_one_thread():
    threads, variables = _fresh("import nrlimit\n" + REPORT)
    assert threads == 1
    assert variables == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}


@needs_proc
@needs_openblas
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS runs at most one thread per CPU")
@pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_callers_thread_count_is_kept(name):
    threads, variables = _fresh("import nrlimit\n" + REPORT, **{name: "2"})
    assert threads == 2
    assert variables == {var: "2" if var == name else None for var in THREAD_VARS}


def test_numpy_imported_first_leaves_the_environment_alone():
    code = "import json, os, numpy\nbefore = dict(os.environ)\nimport nrlimit\nprint(json.dumps(os.environ == before))\n"
    assert _fresh(code) is True


def test_sweep_artifacts_do_not_depend_on_threads(tmp_path):
    # N = 32: every octant axis takes the matrix DCT-I, the BLAS route
    args = ["--override", "problem.n=3", "--override", "problem.nonlinearity=hartree", "--override", "grid.N=32"]
    runs = {"default": {}, "blas-2": {"OPENBLAS_NUM_THREADS": "2"}}
    for name, thread_vars in runs.items():
        cmd = [sys.executable, "-m", "nrlimit", "sweep", "--out", str(tmp_path / name), *args]
        subprocess.run(cmd, env=_env(**thread_vars), check=True, capture_output=True)
    for artifact in ("sweep.csv", "summary.json"):
        contents = {(tmp_path / name / artifact).read_bytes() for name in runs}
        assert len(contents) == 1, artifact
