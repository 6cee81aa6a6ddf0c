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
    """Write <stem>.json header and <stem>.bin or <stem>.csv samples; a bad fmt writes nothing."""
    if fmt not in ("binary", "csv"):
        raise ValueError(f"fmt must be 'binary' or 'csv', got {fmt!r}")
    grid, (values,) = _real_values(f)
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    header = {"n": grid.n, "L": grid.length, "N": grid.points}
    header_path = stem.with_suffix(".json")
    header_path.write_text(json.dumps(header, sort_keys=True) + "\n")
    if fmt == "binary":
        data_path = stem.with_suffix(".bin")
        values.astype("<f8").tofile(data_path)
    else:
        data_path = stem.with_suffix(".csv")
        np.savetxt(data_path, values.ravel(), fmt="%.17g")
    return header_path, data_path


def load_field(stem: str | Path) -> SpectralField:
    """Read a snapshot written by save_field (binary preferred when both exist); a malformed one is a ValueError."""
    stem = Path(stem)
    header_path, bin_path, csv_path = (stem.with_suffix(suffix) for suffix in (".json", ".bin", ".csv"))
    try:
        header = json.loads(header_path.read_text())
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{header_path}: header is not valid JSON ({exc})") from None
    if not (isinstance(header, dict) and {"n", "L", "N"} <= header.keys()):
        raise ValueError(f"{header_path}: header must be a JSON object with keys n, L and N")
    grid = make_grid(header["n"], header["L"], header["N"])
    if bin_path.exists():
        data_path, values = bin_path, np.fromfile(bin_path, dtype="<f8")
        if bin_path.stat().st_size != values.nbytes:
            raise ValueError(f"{bin_path}: size is not a whole number of float64 samples")
    elif csv_path.exists():
        try:
            data_path, values = csv_path, np.loadtxt(csv_path, dtype=np.float64).ravel()
        except ValueError as exc:
            raise ValueError(f"{csv_path}: {exc}") from None
    else:
        raise FileNotFoundError(f"no snapshot data found for stem {stem}")
    if values.size != grid.points**grid.n:
        raise ValueError(f"{data_path}: snapshot sample count does not match header")
    return SpectralField(grid, values.reshape(grid.shape))
