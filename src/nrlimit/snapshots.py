"""Field snapshot I/O: real-space samples plus a JSON header {n, L, N}.

The binary form (float64, C order, little endian) round-trips bit exactly;
the CSV form stores one sample per line with 17 significant digits, which
also reproduces every float64 exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .grid import SpectralField, _real_values, make_grid

__all__ = ["save_field", "load_field"]


def save_field(f: SpectralField, stem: str | Path, fmt: str = "binary") -> tuple[Path, Path]:
    """Write <stem>.json header and <stem>.bin or <stem>.csv samples."""
    grid, (values,) = _real_values(f)
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    header = {"n": grid.n, "L": grid.length, "N": grid.points}
    header_path = stem.with_suffix(".json")
    header_path.write_text(json.dumps(header, sort_keys=True) + "\n")
    if fmt == "binary":
        data_path = stem.with_suffix(".bin")
        values.astype("<f8").tofile(data_path)
    elif fmt == "csv":
        data_path = stem.with_suffix(".csv")
        np.savetxt(data_path, values.ravel(), fmt="%.17g")
    else:
        raise ValueError(f"fmt must be 'binary' or 'csv', got {fmt!r}")
    return header_path, data_path


def load_field(stem: str | Path) -> SpectralField:
    """Read a snapshot written by save_field (binary preferred when both exist)."""
    stem = Path(stem)
    header = json.loads(stem.with_suffix(".json").read_text())
    grid = make_grid(header["n"], header["L"], header["N"])
    bin_path = stem.with_suffix(".bin")
    csv_path = stem.with_suffix(".csv")
    if bin_path.exists():
        values = np.fromfile(bin_path, dtype="<f8")
    elif csv_path.exists():
        values = np.loadtxt(csv_path, dtype=np.float64).ravel()
    else:
        raise FileNotFoundError(f"no snapshot data found for stem {stem}")
    if values.size != grid.points**grid.n:
        raise ValueError("snapshot sample count does not match header")
    return SpectralField(grid, values.reshape(grid.shape))
