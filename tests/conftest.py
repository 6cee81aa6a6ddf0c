from __future__ import annotations

import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import nrlimit as nr
import nrlimit.grid as grid_module


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees allocated while `call()` runs, counted from zero."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_field(grid, rng, scale=1.0):
    return nr.SpectralField(grid, scale * rng.standard_normal(grid.shape))


def stand_in_reference(grid):
    """A converged `GroundStateResult` holding the Gaussian start on `grid`: a sweep's reference for checks that
    must fire before any solve."""
    return nr.GroundStateResult(nr.gaussian_guess(grid), 0.0, 0.0, 1, True)


def smooth_random_field(grid, rng, width=2.0, scale=1.0):
    """Band-limited random field: white noise with a Gaussian spectral envelope."""
    noise = rng.standard_normal(grid.shape)
    envelope = np.exp(-grid.xi_sq / (2.0 * width**2))
    vals = np.fft.ifftn(envelope * np.fft.fftn(noise)).real
    peak = np.max(np.abs(vals))
    return nr.SpectralField(grid, scale * vals / peak)


@pytest.fixture(scope="session")
def grid1d():
    return nr.make_grid(1, 32.0, 1024)


@pytest.fixture(scope="session")
def sech_exact(grid1d):
    x = grid1d.coordinates()[0]
    return nr.SpectralField(grid1d, np.sqrt(2.0) / np.cosh(x))


@pytest.fixture(scope="session")
def u_inf_1d(grid1d):
    result = nr.solve(nr.nonrelativistic(), nr.power(3), grid1d)
    assert result.converged
    return result


@pytest.fixture(scope="session")
def sweep_1d(grid1d, u_inf_1d):
    """Canonical 1D cubic sweep: c in {4,...,64}, orders up to 4, timed."""
    start = time.perf_counter()
    u_inf = nr.solve(nr.nonrelativistic(), nr.power(3), grid1d)
    records = nr.sweep([4.0, 8.0, 16.0, 32.0, 64.0], [0.5, 1.0, 2.0, 3.0, 4.0], nr.power(3), u_inf=u_inf)
    elapsed = time.perf_counter() - start
    return {"records": records, "u_inf": u_inf, "elapsed": elapsed}


@pytest.fixture(scope="session")
def grid3d():
    return nr.make_grid(3, 16.0, 64)


@pytest.fixture(scope="session")
def sweep_3d(grid3d):
    """3D Hartree sweep: c in {4,...,32}, orders up to 4, timed."""
    start = time.perf_counter()
    u_inf = nr.solve(nr.nonrelativistic(), nr.hartree(), grid3d)
    assert u_inf.converged
    records = nr.sweep([4.0, 8.0, 16.0, 32.0], [0.5, 1.0, 2.0, 3.0, 4.0], nr.hartree(), u_inf=u_inf)
    elapsed = time.perf_counter() - start
    return {"records": records, "u_inf": u_inf, "elapsed": elapsed}


COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
REAL_FFTS = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


@pytest.fixture
def transform_counts(monkeypatch):
    """Count whole-field octant transforms (`grid._dct` calls, key "dct") and
    calls of every numpy.fft transform, per name and split into complex and real."""
    counts = Counter(complex=0, real=0, dct=0)

    def counted(kinds, orig):
        def wrapper(*args, **kwargs):
            for kind in kinds:
                counts[kind] += 1
            return orig(*args, **kwargs)

        return wrapper

    for kind, names in (("complex", COMPLEX_FFTS), ("real", REAL_FFTS)):
        for name in names:
            monkeypatch.setattr(np.fft, name, counted((kind, name), getattr(np.fft, name)))
    monkeypatch.setattr(grid_module, "_dct", counted(("dct",), grid_module._dct))
    return counts
