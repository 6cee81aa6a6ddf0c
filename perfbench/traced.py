"""One traced nrlimit CLI run, for the per-layer metrics.

Usage: python3 perfbench/traced.py TRACE_JSON -- <nrlimit CLI arguments>

Before nrlimit is imported, every numpy.fft / scipy.fft transform entry point
(fft*, ifft*, rfft*, irfft*) is replaced by a wrapper that counts calls, wall
time and computed flops.  After the import, the public layer functions the CLI
reaches are wrapped in spans (name, start, end, parent), kept in memory.  The
CLI then runs in process through nrlimit.cli.main; afterwards the FFT wrappers
are removed and single layer calls are timed on the 1D 1024-point and the 3D
64^3 grids.  Everything is written to TRACE_JSON at the end.  A wrapped name
that no longer exists is listed under "missing"; it never stops the run.
The counters assume one thread, which is what the CLI's default --threads 1 gives.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time

import numpy as np

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
)
SPAN_NAMES = (
    "solve",
    "sweep",
    "nondegeneracy_gap",
    "linearization_identity_residual",
    "symbol_gap_scan",
    "symbol_gap_ratio",
    "taylor_residual",
)
MICRO_MIN_SECONDS = 0.2
MICRO_MIN_REPS = 5


class Tracer:
    """Counters, spans and installed wrappers of one traced process."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.fft_calls = 0
        self.fft_seconds = 0.0
        self.fft_flops = 0.0
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._inside_fft = False
        self._installed: list[tuple[object, str, object]] = []

    def _fft_wrapper(self, name: str, orig):
        # 5 N log2 N flops per complex transform of N points, half that per
        # real one; N is the larger of input and output, which is the real
        # signal for rfft* and irfft*.  nrlimit transforms over all axes.
        per_point = 2.5 if name.startswith(("rfft", "irfft")) else 5.0

        def wrapper(*args, **kwargs):
            if self._inside_fft:
                return orig(*args, **kwargs)
            self._inside_fft = True
            start = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self._inside_fft = False
            self.fft_seconds += time.perf_counter() - start
            self.fft_calls += 1
            signal = args[0] if args else kwargs.get("a", kwargs.get("x"))
            points = max(np.size(signal), np.size(out))
            self.fft_flops += per_point * points * math.log2(points)
            return out

        return wrapper

    def install_fft(self) -> None:
        for module_name in FFT_MODULES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(module_name)
                continue
            for name in FFT_NAMES:
                orig = getattr(module, name, None)
                if orig is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                self._installed.append((module, name, orig))
                setattr(module, name, self._fft_wrapper(name, orig))

    def uninstall_fft(self) -> None:
        for module, name, orig in self._installed:
            setattr(module, name, orig)
        self._installed.clear()

    def _span_wrapper(self, name: str, orig):
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            calls, seconds = self.fft_calls, self.fft_seconds
            span["start"] = time.perf_counter() - self.t0
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter() - self.t0
                span["fft_calls"] = self.fft_calls - calls
                span["fft_s"] = self.fft_seconds - seconds
                self._stack.pop()
            iterations = getattr(result, "iterations", None)
            if iterations is not None:
                span["iterations"] = int(iterations)
            return result

        return wrapper

    def install_spans(self) -> None:
        """Wrap each SPAN_NAMES function wherever an nrlimit module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "nrlimit" or n.startswith("nrlimit.")]
        for name in SPAN_NAMES:
            wrappers: dict[int, object] = {}
            for module in modules:
                orig = module.__dict__.get(name)
                if not callable(orig) or not getattr(orig, "__module__", "").startswith("nrlimit"):
                    continue
                wrapper = wrappers.setdefault(id(orig), self._span_wrapper(name, orig))
                setattr(module, name, wrapper)
            if not wrappers:
                self.missing.append(f"nrlimit.{name}")


def _median_call_seconds(fn) -> float:
    fn()  # warm-up
    times = []
    begin = time.perf_counter()
    while len(times) < MICRO_MIN_REPS or time.perf_counter() - begin < MICRO_MIN_SECONDS:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def microbenchmarks(tracer: Tracer) -> dict[str, float]:
    """Median ms per call of single layer functions on the two workload grids."""
    import nrlimit as nr

    needed = ("make_grid", "SpectralField", "transform", "sobolev_norm", "symbol",
              "pseudo_relativistic", "evaluate", "power", "hartree", "hartree_potential")
    absent = [f"nrlimit.{n}" for n in needed if not hasattr(nr, n)]
    if absent:
        tracer.missing.extend(absent)
        return {}

    out: dict[str, float] = {}
    cases = (
        ("1d", nr.make_grid(1, 32.0, 1024), nr.power(3)),
        ("3d", nr.make_grid(3, 16.0, 64), nr.hartree()),
    )
    for tag, grid, spec in cases:
        u = nr.SpectralField(grid, np.exp(-0.5 * grid.radius_sq()))
        uh = nr.transform(u, "forward")
        xi_sq = grid.xi_sq
        op = nr.pseudo_relativistic(8.0)
        fwd = _median_call_seconds(lambda: nr.transform(u, "forward"))
        inv = _median_call_seconds(lambda: nr.transform(uh, "inverse"))
        out[f"grid.transform_ms.{tag}"] = 500.0 * (fwd + inv)
        out[f"grid.sobolev_norm_ms.{tag}"] = 1e3 * _median_call_seconds(lambda: nr.sobolev_norm(u, 1.0))
        out[f"operators.symbol_ms.{tag}"] = 1e3 * _median_call_seconds(lambda: nr.symbol(op, xi_sq))
        out[f"nonlinearity.evaluate_ms.{tag}"] = 1e3 * _median_call_seconds(lambda: nr.evaluate(spec, u))
        if grid.n == 3:
            out[f"nonlinearity.hartree_potential_ms.{tag}"] = 1e3 * _median_call_seconds(
                lambda: nr.hartree_potential(u)
            )
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]

    tracer = Tracer()
    tracer.install_fft()
    import nrlimit.cli

    tracer.install_spans()
    start = time.perf_counter()
    exit_code = nrlimit.cli.main(cli_args)
    run_s = time.perf_counter() - start
    cli_end = time.monotonic()
    fft = {"calls": tracer.fft_calls, "seconds": tracer.fft_seconds, "flops": tracer.fft_flops}
    tracer.uninstall_fft()

    micro = microbenchmarks(tracer)
    trace = {
        "exit_code": exit_code,
        "cli_run_s": run_s,
        "cli_end_monotonic": cli_end,
        "fft": fft,
        "spans": tracer.spans,
        "micro": micro,
        "missing": tracer.missing,
    }
    with open(trace_path, "w") as fh:
        json.dump(trace, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
