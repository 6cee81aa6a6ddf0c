"""Periodic-box spectral discretization: grids, sampled fields, transforms, norms.

The box is the cube [-L/2, L/2)^n sampled on N points per axis, with the
frequency lattice {2*pi*k/L : k in [-N/2, N/2)}^n.  Forward transforms are
continuum-normalized (multiplied by dx^n) so that coefficients approximate
the integral transform of the sampled function, and Sobolev norms carry the
weight (1+|xi|^2)^s with the measure (2*pi/L)^n / (2*pi)^n per mode.

Fields live in one of two representations:

- the octant, indices 0..N/2 on every axis, which stores a field that is even
  in every axis (f(x_i) = f(-x_i), index j <-> -j mod N): (N/2 + 1)^n values
  instead of N^n.  Its transform is the DCT-I, taken one axis at a time; it
  is its own inverse up to 1/N per axis, and its frequencies are those of
  indices 0..N/2 of the lattice on every axis.  An axis of at most
  _MATRIX_DCT_MAX_POINTS octant points is multiplied by the cached DCT-I
  matrix, a longer one goes through rfft of its even extension
  [a, a[-2:0:-1]] (see `_dct`);
- the full lattice, which holds everything else: `transform` and
  frequency-space `SpectralField`s (complex coefficients of every mode,
  continuum-normalized and centered at x = 0), and the kernel's complex
  transform of a real field that is not even.

The kernel (`_forward`, `_inverse`, `_lattice_sum`) takes an octant or a
full-grid array and works on the octant or the full lattice accordingly.  An
octant entry stands for all its mirror images, so octant sums carry the
multiplicity weights `octant_weight`; the same weights serve real-space and
Parseval sums.  The solver, the Coulomb convolution inside it, the sweep
records and the gap eigensolve run on the octant; `_kernel_values` sends an
exactly even field there and any other real field to the full lattice.  The
full-lattice |xi|^2 array `Grid.xi_sq` is built on first use only.

Fields enter the kernel through one gate, which checks each input constraint
once for every module: `_real_values` (real-space fields on one grid),
`_sobolev_weight` (an order in [SOBOLEV_ORDER_MIN, SOBOLEV_ORDER_MAX]) and
`_recentered_octant` (recentre at the peak, take the even part, keep the octant).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "SpectralField",
    "make_grid",
    "transform",
    "sobolev_norm",
    "inner_product",
    "symmetrize",
    "recenter",
    "lp_norm",
]

SOBOLEV_ORDER_MIN = -4.0
SOBOLEV_ORDER_MAX = 8.0
# Longest octant axis (N/2 + 1 points) that `_dct` transforms by matrix product.
_MATRIX_DCT_MAX_POINTS = 64


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: dimension n, box length L, N points per axis.

    The sample coordinates, the frequency axis and the octant arrays
    (frequencies and multiplicities) are built once and read-only; the
    full-lattice |xi|^2 is built on first use.  Instances are immutable and
    cheap to share.
    """

    n: int
    length: float
    points: int

    def __post_init__(self) -> None:
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"box length must be positive and finite, got {self.length}")
        if self.points % 2 != 0 or self.points < 16:
            raise ValueError(f"points per axis must be even and >= 16, got {self.points}")

        dx = self.length / self.points
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "shape", (self.points,) * self.n)

        axis = -0.5 * self.length + dx * np.arange(self.points)
        freq_axis = 2.0 * np.pi * np.fft.fftfreq(self.points, d=dx)
        # the octant keeps indices 0..N/2 on every axis; (-N/2)^2 = (N/2)^2 and
        # (-k)^2 = k^2, so it holds every full-lattice |xi|^2 value bit for bit.
        # Indices 0 and N/2 are their own mirror images, every other index
        # stands for itself and its mirror.
        half = self.points // 2 + 1
        octant_freqs = freq_axis[:half]
        octant_xi_sq = sum(a * a for a in np.meshgrid(*([octant_freqs] * self.n), indexing="ij"))
        multiplicity = np.full(half, 2.0)
        multiplicity[[0, -1]] = 1.0
        octant_weight = np.ones((half,) * self.n)
        for w in np.meshgrid(*([multiplicity] * self.n), indexing="ij"):
            octant_weight = octant_weight * w

        derived = {
            "axis": axis,
            "freq_axis": freq_axis,
            "octant_xi_sq": octant_xi_sq,
            "octant_weight": octant_weight,
        }
        for name, arr in derived.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "axes", tuple(range(self.n)))
        object.__setattr__(self, "octant_index", (slice(0, half),) * self.n)
        object.__setattr__(self, "octant_shape", (half,) * self.n)

    @cached_property
    def xi_sq(self) -> np.ndarray:
        """|xi|^2 on the full frequency lattice (read-only), built on first use."""
        xi_sq = sum(a * a for a in np.meshgrid(*([self.freq_axis] * self.n), indexing="ij"))
        xi_sq.setflags(write=False)
        return xi_sq

    @property
    def cell_volume(self) -> float:
        return self.dx**self.n

    @property
    def volume(self) -> float:
        return self.length**self.n

    @property
    def size(self) -> int:
        """Number of samples, N^n."""
        return self.points**self.n

    @property
    def center_index(self) -> tuple[int, ...]:
        """Index of the x = 0 sample."""
        return (self.points // 2,) * self.n

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Meshed coordinate arrays, one per axis."""
        return tuple(np.meshgrid(*([self.axis] * self.n), indexing="ij"))

    def radius_sq(self) -> np.ndarray:
        """|x|^2 on the mesh."""
        return sum(a * a for a in self.coordinates())


@dataclass(frozen=True)
class SpectralField:
    """Samples of a real field on a Grid, in real or frequency representation.

    Real-space values are real float64; frequency-space values are the
    continuum-normalized complex coefficients of a real field (conjugate
    symmetric).  Instances are value objects: the stored array is copied and
    frozen at construction.
    """

    grid: Grid
    values: np.ndarray
    space: str = "real"

    def __post_init__(self) -> None:
        if self.space not in ("real", "freq"):
            raise ValueError(f"space must be 'real' or 'freq', got {self.space!r}")
        arr = np.asarray(self.values)
        if arr.shape != self.grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid shape {self.grid.shape}")
        if self.space == "real":
            if np.iscomplexobj(arr):
                raise TypeError("real-space field must have real values")
            arr = np.array(arr, dtype=np.float64)
        else:
            arr = np.array(arr, dtype=np.complex128)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def make_grid(n: int, length: float, points: int) -> Grid:
    """Build a periodic cubic grid; rejects odd N, N < 16, L <= 0, n not in 1..3."""
    return Grid(n=n, length=float(length), points=int(points))


def transform(f: SpectralField, direction: str) -> SpectralField:
    """Continuum-normalized FFT between real and frequency representations.

    Forward multiplies the discrete transform by dx^n so coefficients
    approximate the integral of f * exp(-i xi . x) over the box; inverse
    undoes this exactly.  The samples are shifted by N/2 per axis so that the
    transform origin is the box center x = 0; for even N this is the phase
    (-1)^k per axis.
    """
    if direction == "forward":
        if f.space != "real":
            raise ValueError("forward transform requires a real-space field")
        coeff = np.fft.fftn(np.fft.fftshift(f.values)) * f.grid.cell_volume
        return SpectralField(f.grid, coeff, space="freq")
    if direction == "inverse":
        if f.space != "freq":
            raise ValueError("inverse transform requires a frequency-space field")
        vals = np.fft.ifftshift(np.fft.ifftn(f.values).real) / f.grid.cell_volume
        return SpectralField(f.grid, vals, space="real")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _even_extension(values: np.ndarray, ax: int) -> np.ndarray:
    """[a, a[-2:0:-1]] along one axis: indices 0..N/2 extended to the full period."""
    mirror = (slice(None),) * ax + (slice(-2, 0, -1),)
    return np.concatenate((values, values[mirror]), axis=ax)


@lru_cache(maxsize=8)
def _dct_matrix(h: int) -> np.ndarray:
    """The h x h DCT-I matrix C[k, j] = w_j cos(pi jk / (h - 1)), w = 1 at both ends and 2 elsewhere (read-only).

    The angle is reduced as (jk) mod 2(h - 1) before the cosine, so equal
    angles give equal entries and C[k, j] / w_j is exactly symmetric.  The
    matrix is stored in Fortran order: numpy's matmul hands both C and the
    C-ordered C.T to BLAS without a copy.
    """
    j = np.arange(h)
    weight = np.full(h, 2.0)
    weight[[0, -1]] = 1.0
    matrix = np.asfortranarray(np.cos(np.pi * (np.outer(j, j) % (2 * (h - 1))) / (h - 1)) * weight)
    matrix.setflags(write=False)
    return matrix


def _dct(values: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I of an octant array along every axis.

    An axis of h <= _MATRIX_DCT_MAX_POINTS points is multiplied by
    `_dct_matrix(h)`, batched over the other axes so that every BLAS call is
    one h x h by h x h product (a vector product in 1D); a longer axis takes
    one `numpy.fft.rfft` of its even extension, whose imaginary part vanishes
    and is dropped.  Both routes agree to a few units of round-off.

    Where the cut-off sits (numpy 2.4 with OpenBLAS 0.3.31, 2-core x86-64):
    on 3D octants the matrix route is 2x (h = 9) to 5x (h = 33, 0.14 ms
    against 0.72 ms) faster than rfft at every h measured up to 129, so the
    crossover does not bound it there; in 1D rfft overtakes it near h = 260
    and is 3-4x faster at h = 513 (the 1D default).  The cut-off h = 64 is
    set by threads instead: h^3 <= 2^18 keeps every product within
    OpenBLAS's default single-thread limit (m n k <= 65536 * 4), so no call
    wakes a BLAS worker thread, whose spin would add CPU time to the work
    that follows.
    """
    for ax in range(values.ndim):
        h = values.shape[ax]
        if h > _MATRIX_DCT_MAX_POINTS:
            values = np.fft.rfft(_even_extension(values, ax), axis=ax).real
        elif ax == values.ndim - 1:
            values = values @ _dct_matrix(h).T
        else:
            # C times each h x h slice whose rows run along ax, stored in the input's axis order
            out = np.empty(values.shape)
            np.matmul(_dct_matrix(h), np.moveaxis(values, ax, -2), out=np.moveaxis(out, ax, -2))
            values = out
    return values


def _octant(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Restriction of a full-grid array to the octant (a view)."""
    return values[grid.octant_index]


def _unfold(grid: Grid, octant: np.ndarray) -> np.ndarray:
    """The even full-grid array whose octant is `octant`."""
    for ax in grid.axes:
        octant = _even_extension(octant, ax)
    return octant


def _real_values(*fields: SpectralField, grid: Grid | None = None) -> tuple[Grid, list[np.ndarray]]:
    """The grid and samples of real-space fields on one grid (`grid`, if given); else a ValueError."""
    if grid is None:
        grid = fields[0].grid
    for f in fields:
        if f.space != "real":
            raise ValueError("requires real-space fields, got a frequency-space field")
        if f.grid != grid:
            raise ValueError(f"fields must share one grid, got {f.grid} and {grid}")
    return grid, [f.values for f in fields]


def _kernel_values(*fields: SpectralField) -> tuple[Grid, list[np.ndarray], np.ndarray]:
    """The grid of real-space fields, the arrays the kernel works on, and the frequencies of their coefficients.

    If every field is exactly even (equal, bit for bit, to the unfolding of its
    octant) the octants are returned with `octant_xi_sq`; otherwise the samples
    themselves, whose transforms live on the full lattice, with `xi_sq`.
    """
    grid, arrays = _real_values(*fields)
    octants = [_octant(grid, a) for a in arrays]
    if all(np.array_equal(_unfold(grid, o), a) for o, a in zip(octants, arrays)):
        return grid, octants, grid.octant_xi_sq
    return grid, arrays, grid.xi_sq


def _forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unnormalized transform of a real array: DCT-I of an octant, fftn of a full-grid array."""
    if values.shape == grid.octant_shape:
        return _dct(values)
    return np.fft.fftn(values)


def _inverse(grid: Grid, coeff: np.ndarray) -> np.ndarray:
    """Inverse of `_forward`: real (octant) coefficients go back to the octant, complex ones to the full grid."""
    if np.iscomplexobj(coeff):
        return np.fft.ifftn(coeff).real
    return _dct(coeff) / grid.size


def _pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(conj(a) b) of two real or two complex coefficient arrays."""
    if np.iscomplexobj(a):
        return a.real * b.real + a.imag * b.imag
    return a * b


def _abs_sq(coeff: np.ndarray) -> np.ndarray:
    return _pair(coeff, coeff)


def _lattice_sum(grid: Grid, q: np.ndarray) -> float:
    """Full-grid sum of a quantity stored on the full grid or the octant.

    An octant entry stands for all its mirror images and carries `octant_weight`.
    """
    if q.shape == grid.octant_shape:
        return float(np.sum(q * grid.octant_weight))
    return float(np.sum(q))


def _spectral_integral(grid: Grid, mult: np.ndarray, q: np.ndarray) -> float:
    """Continuum value of the mode sum of mult * q, q a product of two `_forward` coefficient arrays."""
    return _lattice_sum(grid, mult * q) * grid.cell_volume**2 / grid.volume


def _spectral_norm(grid: Grid, mult: np.ndarray, coeff: np.ndarray) -> float:
    """sqrt of `_spectral_integral` of mult |coeff|^2: with mult = (1+|xi|^2)^s the H^s norm."""
    return float(np.sqrt(_spectral_integral(grid, mult, _abs_sq(coeff))))


def _coefficients(f: SpectralField) -> np.ndarray:
    if f.space == "freq":
        return f.values
    return transform(f, "forward").values


def _sobolev_weight(xi_sq: np.ndarray | float, s: float) -> np.ndarray | float:
    """The H^s weight (1+|xi|^2)^s; an order outside [SOBOLEV_ORDER_MIN, SOBOLEV_ORDER_MAX] (or nan) is a ValueError."""
    if not SOBOLEV_ORDER_MIN <= s <= SOBOLEV_ORDER_MAX:
        raise ValueError(f"Sobolev order s={s} outside supported range [{SOBOLEV_ORDER_MIN}, {SOBOLEV_ORDER_MAX}]")
    return (1.0 + xi_sq) ** s


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm of f via (1+|xi|^2)^s spectral weights; s = 0 is the L^2 norm."""
    grid = f.grid
    weight = _sobolev_weight(grid.xi_sq, s)
    if f.space == "real":
        return _spectral_norm(grid, weight, _forward(grid, f.values))
    return float(np.sqrt(np.sum(weight * _abs_sq(f.values)) / grid.volume))


def inner_product(f: SpectralField, g: SpectralField, weight: str = "L2") -> float:
    """Integral pairing of two fields on the same grid.

    'L2' returns the integral of f*g; 'H1' returns the integral of
    grad f . grad g + f*g, evaluated spectrally.
    """
    if f.grid != g.grid:
        raise ValueError("inner_product requires fields on the same grid")
    if weight not in ("L2", "H1"):
        raise ValueError(f"weight must be 'L2' or 'H1', got {weight!r}")
    grid = f.grid
    if f.space == "real" and g.space == "real":
        if weight == "L2":
            return float(np.sum(f.values * g.values) * grid.cell_volume)
        return _spectral_integral(grid, 1.0 + grid.xi_sq, _pair(_forward(grid, f.values), _forward(grid, g.values)))
    fh, gh = _coefficients(f), _coefficients(g)
    pairing = np.conj(fh) * gh if weight == "L2" else (1.0 + grid.xi_sq) * np.conj(fh) * gh
    return float(np.sum(pairing).real / grid.volume)


def _reflect(values: np.ndarray, ax: int) -> np.ndarray:
    # index j -> (-j) mod N realizes x -> -x on the centered periodic lattice
    return np.roll(np.flip(values, axis=ax), 1, axis=ax)


def _even_part(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Average of a real array over the per-axis reflections x_i -> -x_i."""
    for ax in grid.axes:
        values = 0.5 * (values + _reflect(values, ax))
    return values


def _recentered(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Circular shift of a real array that moves the peak of |values| to x = 0."""
    peak = np.unravel_index(np.argmax(np.abs(values)), grid.shape)
    shift = tuple(c - p for c, p in zip(grid.center_index, peak))
    if all(s == 0 for s in shift):
        return values
    return np.roll(values, shift, axis=grid.axes)


def _recentered_octant(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The octant of the even part of a real array recentred at its peak (`_recentered`, then `_even_part`).

    `values` is a full-grid array or an even field stored on its octant.  The
    first octant argmax of an even field is its first full-grid argmax, so an
    octant whose peak is at the center (its last entry) is returned as it is.
    """
    if values.shape == grid.octant_shape:
        if np.argmax(np.abs(values)) == values.size - 1:
            return values
        values = _unfold(grid, values)
    return _octant(grid, _even_part(grid, _recentered(grid, values)))


def symmetrize(f: SpectralField) -> SpectralField:
    """Average of f over the per-axis reflections x_i -> -x_i; idempotent."""
    grid, (values,) = _real_values(f)
    return SpectralField(grid, _even_part(grid, values))


def recenter(f: SpectralField) -> SpectralField:
    """Circularly shift the peak of |f| to the x = 0 sample."""
    grid, (values,) = _real_values(f)
    vals = _recentered(grid, values)
    return f if vals is values else SpectralField(grid, vals)


def lp_norm(f: SpectralField, p: float) -> float:
    """Lebesgue L^p norm of a real-space field (cell-volume weighted), for finite p >= 1."""
    grid, (values,) = _real_values(f)
    if not (np.isfinite(p) and p >= 1.0):
        raise ValueError(f"lp_norm requires a finite exponent p >= 1, got {p}")
    return float((np.sum(np.abs(values) ** p) * grid.cell_volume) ** (1.0 / p))
