"""Periodic-box spectral discretization: grids, sampled fields, transforms, norms.

The box is the cube [-L/2, L/2)^n sampled on N points per axis, with the
frequency lattice {2*pi*k/L : k in [-N/2, N/2)}^n in numpy.fft's order
(`Grid.freq_axis` is 2*pi*fftfreq(N, dx), built without numpy.fft).  Forward
transforms are continuum-normalized (multiplied by dx^n) so that coefficients
approximate the integral transform of the sampled function, and Sobolev norms
carry the weight (1+|xi|^2)^s with the measure (2*pi/L)^n / (2*pi)^n per mode.

Fields live in one of two representations:

- the octant, indices 0..N/2 on every axis, which stores a field that is even
  in every axis (f(x_i) = f(-x_i), index j <-> -j mod N): (N/2 + 1)^n values
  instead of N^n.  Its transform is the DCT-I, taken one axis at a time; it
  is its own inverse up to 1/N per axis, and its frequencies are those of
  indices 0..N/2 of the lattice on every axis.  An axis of at most
  _MATRIX_DCT_MAX_POINTS octant points is multiplied by the cached DCT-I
  matrix, a longer one goes through rfft of its even extension
  [a, a[-2:0:-1]] (see `_dct`);
- the full lattice, for a real field that is not even and every
  frequency-space `SpectralField`, in one convention: fftn of the samples
  shifted by N/2 per axis (origin x = 0).  `transform` is the kernel's
  transform times dx^n, so a frequency-space field's values over dx^n are
  its kernel coefficients.

The kernel (`_forward`, `_inverse`, `_lattice_dot`) takes an octant or a
full-grid array and works on the octant or the full lattice accordingly (on
the octant, optionally in the caller's work arrays).
`_prolonged` takes an even field's coefficients to the grid with twice the
points per axis by trigonometric interpolation, in one inverse DCT-I: the
start of the solver's fine level.  An octant entry stands for all its mirror
images, so octant sums carry the multiplicity weights `octant_weight`; the
same weights serve real-space and Parseval sums.  They are powers of two, so
a product or quotient by one is exact: (a W) b and (a b) W give the same
bits.  The solver, the Coulomb convolution inside it, the sweep records and
the gap eigensolve run on the octant; `_kernel_coefficients` sends an
exactly even field there and any other real field to the full lattice.  The
full-lattice |xi|^2 array `Grid.xi_sq` is built on first use only.  On the
octant with N <= 126 nothing calls numpy.fft, so a 3D run at the default
N = 64 never loads it.

A field the library computes as exactly even (a solved ground state, an
octant multiplier's output) is an `_EvenField`: a `SpectralField` that stores
its read-only octant (`octant`) and unfolds it into `values` on first read
only, and carries the octant's DCT-I (`coefficients`), which a solve hands
over.  The gate reads that octant (`_stored`) and those coefficients, so the
kernel, the diagnostics and a solver start take such a field with no
evenness test, no full-grid array and no transform of it.

Fields enter the kernel through one gate, which checks each input constraint
once for every module: `_real_grid` and `_real_values` (real-space fields on
one grid), `_kernel_coefficients` (the arrays the kernel works on and their
coefficients), `_coefficients` (coefficients of real- or frequency-space
fields on one grid), `_sobolev_order` (a real order in [SOBOLEV_ORDER_MIN,
SOBOLEV_ORDER_MAX], which `_sobolev_weight` checks) and `_recentered_octant`
(recentre at the peak, take the even part, keep the octant).  Integer and
real parameters, here and in every other module, pass `_as_integer` and
`_as_real`: a Python or numpy number, never a bool, stored as an int or a
float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

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
]

SOBOLEV_ORDER_MIN = -4.0
SOBOLEV_ORDER_MAX = 8.0
# Longest octant axis (N/2 + 1 points) that `_dct` transforms by matrix product.
_MATRIX_DCT_MAX_POINTS = 64


def _as_integer(value, name: str, minimum: int | None = None) -> int:
    """`value` as an int: a Python or numpy integer, not a bool, and at least `minimum` if one is given;
    else a ValueError naming `name`."""
    at_least = "" if minimum is None else f" >= {minimum}"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or (minimum is not None and value < minimum):
        raise ValueError(f"{name} must be an integer{at_least}, got {value!r}")
    return int(value)


def _as_real(value, name: str) -> float:
    """`value` as a float: a Python or numpy integer or float, not a bool, and within float range;
    else a ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got an integer beyond float range") from None


@dataclass(frozen=True)
class Grid:
    """Cubic periodic grid: dimension n, box length L, N points per axis.

    The sample coordinates, the frequency axis and the octant arrays
    (frequencies and multiplicities) are built once and read-only; the
    full-lattice |xi|^2 is built on first use.  Instances are immutable and
    cheap to share.

    `octant_weight` holds the multiplicities 1, 2, 4 or 8 (2 to the number of
    axes whose index is neither 0 nor N/2) as uint8, an eighth of a float64
    octant.  Every use in the package is a multiply, a divide or a copy into
    a float64 array: uint8 arithmetic such as `1 - W` wraps around.  A
    float64 ufunc with it casts through a buffer of up to 8192 elements, so
    a loop that must allocate nothing copies it into a free float64 array
    first (`np.copyto` allocates nothing).
    """

    n: int
    length: float
    points: int

    def __post_init__(self) -> None:
        for name in ("n", "points"):
            object.__setattr__(self, name, _as_integer(getattr(self, name), name))
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.n}")
        # stored as a float, so that dx and a snapshot header do not depend on the type given
        object.__setattr__(self, "length", _as_real(self.length, "length"))
        if not np.isfinite(self.length) or self.length <= 0:
            raise ValueError(f"box length must be positive and finite, got {self.length}")
        if self.points % 2 != 0 or self.points < 16:
            raise ValueError(f"points per axis must be even and >= 16, got {self.points}")

        dx = self.length / self.points
        if not (dx > 0.0 and self.n * (np.pi / dx) * (np.pi / dx) < np.inf):
            raise ValueError(f"box length {self.length} is too small for {self.points} points: |xi|^2 overflows")
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "shape", (self.points,) * self.n)

        axis = -0.5 * self.length + dx * np.arange(self.points)
        # 2 pi fftfreq(N, dx) bit for bit (integer k times 1/(N dx)), without loading numpy.fft
        k = np.arange(self.points)
        k[self.points // 2 :] -= self.points
        freq_axis = 2.0 * np.pi * (k * (1.0 / (self.points * dx)))
        # the octant keeps indices 0..N/2 on every axis; (-N/2)^2 = (N/2)^2 and
        # (-k)^2 = k^2, so it holds every full-lattice |xi|^2 value bit for bit.
        # Indices 0 and N/2 are their own mirror images, every other index
        # stands for itself and its mirror.
        half = self.points // 2 + 1
        octant_freqs = freq_axis[:half]
        octant_xi_sq = sum(a * a for a in np.meshgrid(*([octant_freqs] * self.n), indexing="ij", sparse=True))
        multiplicity = np.full(half, 2, dtype=np.uint8)
        multiplicity[[0, -1]] = 1
        octant_weight = np.ones((half,) * self.n, dtype=np.uint8)
        for w in np.meshgrid(*([multiplicity] * self.n), indexing="ij", sparse=True):
            octant_weight *= w

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
        xi_sq = sum(a * a for a in np.meshgrid(*([self.freq_axis] * self.n), indexing="ij", sparse=True))
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


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Samples of a real field on a Grid, in real or frequency representation.

    Real-space values are real float64; frequency-space values are the
    continuum-normalized complex coefficients of a real field (conjugate
    symmetric).  Instances are immutable: the stored array is copied and
    frozen at construction.  Fields compare and hash by identity, so that
    `==` and `hash` never compare arrays; the objects that hold one
    (`GroundStateResult`, `SolverConfig`) compare and hash without raising.
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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class _EvenField(SpectralField):
    """An exactly even real-space field stored as its octant, which it owns and freezes.

    `values` is the unfolding of the octant (`_unfold`), bit for bit the
    field a full-grid constructor would hold; `coefficients` is
    `_forward(grid, octant)`, handed over by a caller that holds it bit for
    bit (a solve).  Each is read-only, built on first read and kept.  Like
    every `SpectralField` it is immutable.
    """

    octant: np.ndarray

    def __init__(self, grid: Grid, octant: np.ndarray, coefficients: np.ndarray | None = None) -> None:
        octant.setflags(write=False)
        self.__dict__.update(grid=grid, octant=octant, space="real")
        if coefficients is not None:
            coefficients.setflags(write=False)
            self.__dict__["coefficients"] = coefficients

    @cached_property
    def values(self) -> np.ndarray:
        full = _unfold(self.grid, self.octant)
        full.setflags(write=False)
        return full

    @cached_property
    def coefficients(self) -> np.ndarray:
        coeff = _forward(self.grid, self.octant)
        coeff.setflags(write=False)
        return coeff


def make_grid(n: int, length: float, points: int) -> Grid:
    """Build a periodic cubic grid; rejects odd N, N < 16, L <= 0, n not in 1..3, non-integer n or N, non-real L."""
    return Grid(n=n, length=length, points=points)


def transform(f: SpectralField, direction: str) -> SpectralField:
    """Continuum-normalized FFT between real and frequency representations.

    Forward multiplies the kernel's full-lattice transform by dx^n so that
    coefficients approximate the integral of f * exp(-i xi . x) over the box;
    inverse undoes this exactly.  The transform origin is the box center x = 0
    (the samples are shifted by N/2 per axis; for even N the phase (-1)^k).
    """
    grid = f.grid
    if direction == "forward":
        if f.space != "real":
            raise ValueError("forward transform requires a real-space field")
        return SpectralField(grid, _forward(grid, f.values) * grid.cell_volume, space="freq")
    if direction == "inverse":
        if f.space != "freq":
            raise ValueError("inverse transform requires a frequency-space field")
        return SpectralField(grid, _inverse(grid, f.values) / grid.cell_volume, space="real")
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def _even_extension(values: np.ndarray, ax: int) -> np.ndarray:
    """[a, a[-2:0:-1]] along one axis: indices 0..N/2 extended to the full period."""
    mirror = (slice(None),) * ax + (slice(-2, 0, -1),)
    return np.concatenate((values, values[mirror]), axis=ax)


@lru_cache(maxsize=16)
def _dct_matrix(h: int, divisor: int = 1) -> np.ndarray:
    """The h x h DCT-I matrix C[k, j] = w_j cos(pi jk / (h - 1)) / divisor, w = 1 at both ends, 2 elsewhere (read-only).

    The angle is reduced as (jk) mod 2(h - 1) before the cosine, so equal
    angles give equal entries and C[k, j] / w_j is exactly symmetric.  The
    matrix is stored in Fortran order: numpy's matmul hands both C and the
    C-ordered C.T to BLAS without a copy.
    """
    j = np.arange(h)
    weight = np.full(h, 2.0)
    weight[[0, -1]] = 1.0
    matrix = np.asfortranarray(np.cos(np.pi * (np.outer(j, j) % (2 * (h - 1))) / (h - 1)) * weight / divisor)
    matrix.setflags(write=False)
    return matrix


def _dct(
    values: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None, divisor: int = 1
) -> np.ndarray:
    """Unnormalized DCT-I of an octant array along every axis, divided by `divisor`.

    An axis of h <= _MATRIX_DCT_MAX_POINTS points is multiplied by
    `_dct_matrix(h)`, batched over the other axes so that every BLAS call is
    one h x h by h x h product (a vector product in 1D); a longer axis takes
    one `numpy.fft.rfft` of its even extension, whose imaginary part vanishes
    and is dropped.  Both routes agree to a few units of round-off.  The
    divisor rides in the last axis's matrix or rfft copy.  The axes write
    alternately to `work` and `out` (new arrays if None), the last to out;
    `work` may be `values` itself, which is then overwritten.

    Where the cut-off sits (numpy 2.4 with OpenBLAS 0.3.31, 2-core x86-64):
    on 3D octants the matrix route is 2x (h = 9) to 5x (h = 33, 0.14 ms
    against 0.72 ms) faster than rfft at every h measured up to 129, so the
    crossover does not bound it there; in 1D rfft overtakes it near h = 260
    and is 3-4x faster at h = 513 (the 1D default).  The cut-off h = 64 is
    set by threads instead: h^3 <= 2^18 keeps every product within
    OpenBLAS's single-thread limit (m n k <= 65536 * 4).  Importing nrlimit
    first leaves OpenBLAS one thread (package docstring); where numpy was
    imported first, the limit still keeps every call off the worker thread,
    whose spin would add CPU time to the work that follows.
    """
    ndim = values.ndim
    if out is None:
        out = np.empty(values.shape)
    if ndim > 1 and (work is None or (work is values and ndim % 2 == 0)):
        work = np.empty(values.shape)
    for ax in range(ndim):
        h = values.shape[ax]
        last = ax == ndim - 1
        target = out if (ndim - 1 - ax) % 2 == 0 else work
        if h > _MATRIX_DCT_MAX_POINTS:
            np.divide(np.fft.rfft(_even_extension(values, ax), axis=ax).real, divisor if last else 1, out=target)
        elif last:
            np.matmul(values, _dct_matrix(h, divisor).T, out=target)
        else:
            # C times each h x h slice whose rows run along ax, stored in the input's axis order
            np.matmul(_dct_matrix(h), values.swapaxes(ax, -2), out=target.swapaxes(ax, -2))
        values = target
    return out


def _prolonged(coarse: _EvenField, grid: Grid) -> np.ndarray:
    """The octant on `grid` of the trigonometric interpolant of `coarse`, an even field on the grid with N/2 points.

    Coarse index j is fine index 2j, so both octants end at x = 0.  The
    coarse field's `coefficients`, times 2^n (the two inverses divide by N^n
    and (N/2)^n), fill the low corner of a zero fine octant; the coarse
    Nyquist index N/4 is halved once per axis, since on the fine lattice it
    stands for the pair +-N/4.  One inverse DCT-I then gives the samples.
    """
    h = coarse.grid.octant_shape[0]
    coeff = np.zeros(grid.octant_shape)
    low = coeff[(slice(0, h),) * grid.n]
    np.multiply(coarse.coefficients, 2.0**grid.n, out=low)
    for ax in grid.axes:
        low[(slice(None),) * ax + (h - 1,)] *= 0.5
    return _inverse(grid, coeff, work=coeff)


def _octant(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Restriction of a full-grid array to the octant (a view); an octant array itself."""
    return values if values.shape == grid.octant_shape else values[grid.octant_index]


def _unfold(grid: Grid, octant: np.ndarray) -> np.ndarray:
    """The even full-grid array whose octant is `octant`, written into one new array.

    Each of the 2^n blocks takes, along every axis, indices 0..N/2 of the
    octant or their mirrors N/2-1..1: bit for bit the per-axis
    `_even_extension`, with no intermediate array.
    """
    half = grid.octant_shape[0]
    full = np.empty(grid.shape)
    blocks = ((slice(0, half), slice(None)), (slice(half, None), slice(half - 2, 0, -1)))
    for block in product(blocks, repeat=grid.n):
        target, source = zip(*block)
        full[target] = octant[source]
    return full


def _is_even(grid: Grid, values: np.ndarray) -> bool:
    """Whether an array is exactly even: an octant always, a full-grid array when it equals, value for value, the
    unfolding of its octant.

    Each axis is compared with its mirror image j <-> N - j through views, so
    no full-grid array is built.
    """
    if values.shape == grid.octant_shape:
        return True
    half = grid.points // 2
    for ax in grid.axes:
        lead = (slice(None),) * ax
        if not np.array_equal(values[lead + (slice(half + 1, None),)], values[lead + (slice(half - 1, 0, -1),)]):
            return False
    return True


def _one_grid(fields, grid: Grid | None = None) -> Grid:
    """The grid that every field lies on (`grid`, if given); else a ValueError."""
    grid = fields[0].grid if grid is None else grid
    for f in fields:
        if f.grid != grid:
            raise ValueError(f"fields must share one grid, got {f.grid} and {grid}")
    return grid


def _real_grid(fields, grid: Grid | None = None) -> Grid:
    """The grid of real-space fields on one grid (`grid`, if given); else a ValueError."""
    grid = _one_grid(fields, grid)
    if any(f.space != "real" for f in fields):
        raise ValueError("requires real-space fields, got a frequency-space field")
    return grid


def _real_values(*fields: SpectralField) -> tuple[Grid, list[np.ndarray]]:
    """The grid and samples of real-space fields on one grid (`_real_grid`)."""
    return _real_grid(fields), [f.values for f in fields]


def _stored(f: SpectralField) -> np.ndarray:
    """The array a real-space field stores: an `_EvenField`'s octant, any other field's samples."""
    return f.octant if isinstance(f, _EvenField) else f.values


def _kernel_coefficients(*fields: SpectralField) -> tuple[Grid, list[np.ndarray], list[np.ndarray], np.ndarray]:
    """The grid of real-space fields, their kernel arrays and `_forward` coefficients, and the frequencies of those.

    If every field is exactly even (a stored octant, or samples equal bit for
    bit to the unfolding of their octant): the octants, their coefficients
    (`_carried_forward`) and `octant_xi_sq`; else the samples, transformed, and `xi_sq`.
    """
    grid = _real_grid(fields)
    arrays = [_stored(f) for f in fields]
    if all(_is_even(grid, a) for a in arrays):
        arrays = [_octant(grid, a) for a in arrays]
        return grid, arrays, [_carried_forward(f, a) for f, a in zip(fields, arrays)], grid.octant_xi_sq
    arrays = [f.values for f in fields]
    return grid, arrays, [_forward(grid, a) for a in arrays], grid.xi_sq


def _carried_forward(f: SpectralField, array: np.ndarray) -> np.ndarray:
    """`_forward(f.grid, array)`, `array` f's kernel array: read-only and no transform if it is f's stored octant."""
    return f.coefficients if isinstance(f, _EvenField) and array is f.octant else _forward(f.grid, array)


def _forward(
    grid: Grid, values: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized transform of a real array: DCT-I of an octant (`_dct`, its out and work), else the centred fftn."""
    if values.shape == grid.octant_shape:
        return _dct(values, out, work)
    return np.fft.fftn(np.fft.fftshift(values))


def _inverse(
    grid: Grid, coeff: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """Inverse of `_forward`: real (octant) coefficients go back to the octant (1/N^n in the DCT-I), complex
    ones to the full grid."""
    if np.iscomplexobj(coeff):
        return np.fft.ifftshift(np.fft.ifftn(coeff).real)
    return _dct(coeff, out, work, divisor=grid.size)


def _weighted_pair(grid: Grid, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Re(conj(a) b) of two real or two complex coefficient arrays, in `out` (a real array, new if None), times each
    entry's multiplicity, `octant_weight` on the octant and 1 on the full lattice: its plain sum is the pair's
    full-grid sum, since an octant entry stands for all its mirror images."""
    if np.iscomplexobj(a):
        q = np.multiply(a.real, b.real, out=out)
        q += a.imag * b.imag
        return q
    q = np.multiply(a, b, out=out)
    if q.shape == grid.octant_shape:
        q *= grid.octant_weight
    return q


def _lattice_dot(grid: Grid, a: np.ndarray, b: np.ndarray, work: np.ndarray | None = None) -> float:
    """Full-grid sum of Re(conj(a) b), `_weighted_pair` summed; real products formed in `work` (new if None; a or b)."""
    return float(np.sum(_weighted_pair(grid, a, b, None if np.iscomplexobj(a) else work)))


def _dot(a: np.ndarray, b: np.ndarray, work: np.ndarray | None = None) -> float:
    """sum(a * b) of real arrays, the products formed in `work` (new if None).

    np.sum, as in every nrlimit reduction, not the BLAS dot behind np.dot and
    np.linalg.norm: where numpy was imported before nrlimit (package docstring),
    a 64^3 BLAS dot is threaded, and its spinning worker doubles a solve's CPU time.
    """
    return float(np.sum(np.multiply(a, b, out=work)))


def _spectral_integral(
    grid: Grid, mult: np.ndarray | float, weighted: np.ndarray, work: np.ndarray | None = None
) -> float:
    """Continuum value of the mode sum of mult * q, q a product of two `_forward` coefficient arrays given as its
    `_weighted_pair` `weighted`, the products formed in `work` (new if None)."""
    return _dot(mult, weighted, work) * grid.cell_volume**2 / grid.volume


def _sobolev_order(s) -> float:
    """An order as a float: a real number (`_as_real`) in [SOBOLEV_ORDER_MIN, SOBOLEV_ORDER_MAX]; else a ValueError."""
    s = _as_real(s, "Sobolev order")
    if not SOBOLEV_ORDER_MIN <= s <= SOBOLEV_ORDER_MAX:
        raise ValueError(f"Sobolev order s={s} outside supported range [{SOBOLEV_ORDER_MIN}, {SOBOLEV_ORDER_MAX}]")
    return s


def _sobolev_weight(xi_sq: np.ndarray | float, s: float, out: np.ndarray | None = None) -> np.ndarray | float:
    """The H^s weight (1+|xi|^2)^s, s a `_sobolev_order`, in `out` (new if None)."""
    return np.power(np.add(1.0, xi_sq, out=out), _sobolev_order(s), out=out)


def _coefficients(*fields: SpectralField) -> tuple[Grid, list[np.ndarray], np.ndarray]:
    """The grid of fields on one grid, their `_forward` coefficients and the frequencies of those.

    Real-space fields go through `_kernel_coefficients` (to the octant when
    every one is exactly even); if any field is in frequency space, every
    field goes to the full lattice, where its coefficients are its values
    divided by dx^n.  Carried coefficients are read-only.
    """
    if all(f.space == "real" for f in fields):
        grid, _, coeffs, xi_sq = _kernel_coefficients(*fields)
        return grid, coeffs, xi_sq
    grid = _one_grid(fields)
    coeffs = [f.values / grid.cell_volume if f.space == "freq" else _forward(grid, f.values) for f in fields]
    return grid, coeffs, grid.xi_sq


def sobolev_norm(f: SpectralField, s: float) -> float:
    """H^s norm of f via (1+|xi|^2)^s spectral weights; s = 0 is the L^2 norm."""
    grid, (coeff,), xi_sq = _coefficients(f)
    return float(np.sqrt(_spectral_integral(grid, _sobolev_weight(xi_sq, s), _weighted_pair(grid, coeff, coeff))))


def inner_product(f: SpectralField, g: SpectralField, weight: str = "L2") -> float:
    """Integral pairing of two fields on one grid.

    'L2' returns the integral of f*g; 'H1' returns the integral of
    grad f . grad g + f*g, evaluated spectrally.
    """
    if weight not in ("L2", "H1"):
        raise ValueError(f"weight must be 'L2' or 'H1', got {weight!r}")
    grid, (fh, gh), xi_sq = _coefficients(f, g)
    return _spectral_integral(grid, 1.0 if weight == "L2" else 1.0 + xi_sq, _weighted_pair(grid, fh, gh))


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


def _recentered_octant(grid: Grid, values: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """The octant of the even part of a real array recentred at its peak (`_recentered`, then `_even_part`).

    `values` is a full-grid array or an even field stored on its octant.  The
    first octant argmax of an even field is its first full-grid argmax, so an
    even field whose peak is at the center (the octant's last entry) needs
    neither shift nor symmetrization: an octant is returned as it is, an
    exactly even full-grid array as its octant (a view), bit for bit what the
    shift and the even part would give.  The peak test takes |values| in
    `work` (an octant array, new if None).
    """
    if _is_even(grid, values):
        values = _octant(grid, values)
    if values.shape == grid.octant_shape:
        if np.argmax(np.abs(values, out=work)) == values.size - 1:
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
