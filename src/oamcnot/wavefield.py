"""Scalar wave optics on a square grid: vortex-beam synthesis, aperture
masking, and single-lens far-field propagation.

All lengths are SI meters.  Grid samples sit at (i - n/2) * pitch along
each axis, so the optical axis is the (n/2, n/2) sample.  A field sample
``samples[i, j]`` lives at x = coords[j], y = coords[i].

A field may hold samples on a box of the grid only (a row slice and a
column slice, zero elsewhere): the aperture's box is all a camera sees
through it.  ``far_field`` is the one lens, the paper's ``FOCAL_LENGTH``
at its one ``WAVELENGTH``: a matrix DFT from the field's box onto a
centred camera window, the whole frame being the widest one.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

MAX_CHARGE = 10

#: The paper's fixed optics, wavelength and lens focal length: the camera
#: pitch is WAVELENGTH * FOCAL_LENGTH / window, so neither moves a spot.
WAVELENGTH = 532e-9
FOCAL_LENGTH = 0.30

TRIANGLE = "equilateral-triangle"

#: A box of grid samples: (row slice, column slice), used as an index.
Box = tuple[slice, slice]
#: The whole grid as a box.
FULL: Box = (slice(None), slice(None))

#: Samples per block of rows in ``window_tail_bound``'s summation.
_TV_BLOCK = 1 << 14


@dataclass(frozen=True)
class Grid:
    """Square sampling grid: ``n`` samples per side over a physical window.

    A simulation grid is a power of two >= 64 wide, at pitch window / n.  A
    camera window (``far_field``) is any even width from 64 and carries its
    frame's pitch as ``step``: window / n can be an ulp off it, and its
    coordinates must be the frame's slice."""

    n: int
    window: float
    step: float | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.step is None and (self.n < 64 or (self.n & (self.n - 1)) != 0):
            raise ValueError(f"grid size must be a power of two >= 64, got {self.n}")
        if not (np.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be positive, got {self.window}")

    @property
    def pitch(self) -> float:
        return self.window / self.n if self.step is None else self.step

    def coords(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.pitch


@dataclass(frozen=True)
class ApertureSpec:
    """Equilateral-triangle aperture: shape (``TRIANGLE``, the only one),
    side and rotation in radians, kept modulo 2 pi / 3 by the exact math.fmod.
    Orientation 0 points one vertex along +y."""

    shape: str
    size: float
    orientation: float = 0.0

    def __post_init__(self) -> None:
        if self.shape != TRIANGLE:
            raise ValueError(f"unknown aperture shape {self.shape!r}; expected {TRIANGLE!r}")
        if not (np.isfinite(self.size) and self.size > 0):
            raise ValueError(f"aperture size must be positive, got {self.size}")
        if not np.isfinite(self.orientation):
            raise ValueError(f"aperture orientation must be finite, got {self.orientation}")
        object.__setattr__(self, "orientation", math.fmod(self.orientation, 2.0 * math.pi / 3.0))


@dataclass(frozen=True)
class OpticalParams:
    """Beam waist of the optical train, the one optic a camera may set."""

    beam_waist: float = 0.5e-3

    def __post_init__(self) -> None:
        if not (np.isfinite(self.beam_waist) and self.beam_waist > 0):
            raise ValueError(f"beam_waist must be positive, got {self.beam_waist}")


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Complex field samples on a box of a grid (the whole grid by
    default), at the one ``WAVELENGTH``; the field is zero outside the box.

    A complex ndarray passed in is frozen in place (made read-only), not
    copied; any other input is converted to a new read-only complex array."""

    samples: np.ndarray
    grid: Grid
    box: Box = FULL

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        shape = tuple(len(range(self.grid.n)[s]) for s in self.box)
        if samples.shape != shape:
            raise ValueError(
                f"samples shape {samples.shape} does not match the {shape} box "
                f"of grid n = {self.grid.n}"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def check_mode(grid: Grid, ell: int, waist: float) -> None:
    """Refuse a vortex mode the grid cannot hold: |ell| above MAX_CHARGE,
    or a waist outside (4 pitches, a quarter of the window)."""
    if abs(ell) > MAX_CHARGE:
        raise ValueError(f"|ell| = {abs(ell)} exceeds the supported range {MAX_CHARGE}")
    lo, hi = 4 * grid.pitch, grid.window / 4
    if not lo < waist < hi:
        raise ValueError(
            f"beam waist {waist:g} m is outside the resolvable range "
            f"({lo:g}, {hi:g}) m for this grid"
        )


def lg_mode(
    grid: Grid, ell: int, waist: float, wavelength: float, box: Box = FULL,
    mask: np.ndarray | None = None,
) -> ScalarField:
    """Vortex mode of topological charge ``ell``, normalized to unit power
    on the whole grid, sampled on ``box`` and, given a ``mask`` of the box's
    shape, multiplied by it in place; ``check_mode`` refuses it first, and
    any ``wavelength`` but ``WAVELENGTH`` (the parameter stays only because
    the benchmark's tracer, ``perfbench/spans.py``, reads it by position).

    Amplitude (r sqrt2 / w0)^|ell| exp(-r^2/w0^2) with helical phase
    exp(i ell phi); ell = 0 degenerates to a plain Gaussian.  With
    s = sqrt2 / w0, g(c) = exp(-c^2/w0^2) and L = |ell|, the mode
    (s (x +- iy))^L g(x) g(y) = sum_k C(L, k) (+-i)^(L-k) [(s x)^k g(x)] [(s y)^(L-k) g(y)]
    is one real matrix product of 1-D factors (the normalization on x, the
    coefficients on y) whose output columns alternate the real part (even
    L - k) and the imaginary part (odd L - k).  It is stored as the
    transpose of a C-ordered array: the samples are column-major, the
    layout the lens reads in place.  ``lg_mode(-ell)`` negates the odd
    terms, so it is the exact conjugate of ``lg_mode(ell)``.  A box's
    samples are the whole grid's to within 2e-15 of the peak, the
    product's rounding (1.3e-15 the largest seen for |ell| <= 10).  The
    power of the whole grid comes from 1-D sums, since
    |x + iy|^2L = sum_k C(L, k) x^2k y^2(L-k).
    """
    if wavelength != WAVELENGTH:
        raise ValueError(f"wavelength is fixed at {WAVELENGTH:g} m, got {wavelength!r}")
    check_mode(grid, ell, waist)
    big_l = abs(ell)
    c = grid.coords()
    scaled = c * (np.sqrt(2.0) / waist)
    # powers[k] = scaled^k g, a running product over k
    powers = np.empty((big_l + 1, grid.n))
    powers[0] = np.exp(-((c / waist) ** 2))
    for k in range(big_l):
        np.multiply(powers[k], scaled, out=powers[k + 1])
    moments = (powers * powers).sum(axis=1).tolist()  # sum of scaled^2k g^2
    total = sum(math.comb(big_l, k) * a * moments[-1 - k] for k, a in enumerate(moments))
    # C(L, k) (+-i)^(L-k), Gaussian integers held exactly
    unit = 1j if ell >= 0 else -1j
    coefficients = np.array([math.comb(big_l, k) * unit ** (big_l - k) for k in range(big_l + 1)])
    x_factors = powers[:, box[1]] / np.sqrt(total * grid.pitch**2)
    y_factors = (coefficients[:, np.newaxis] * powers[::-1, box[0]]).view(float)
    out = np.empty((x_factors.shape[1], y_factors.shape[1] // 2), dtype=complex)
    np.matmul(x_factors.T, y_factors, out=out.view(float))
    field = out.T
    if mask is not None:
        if np.shape(mask) != field.shape:
            raise ValueError(f"mask shape {np.shape(mask)} does not match the {field.shape} box")
        field *= mask
    return ScalarField(field, grid, box)


def _vertices(grid: Grid, aperture: ApertureSpec) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the aperture's triangle vertices, counterclockwise; refused
    if the triangle does not fit the window, or if its side is narrower than
    4 pitches, as ``check_mode`` refuses a waist."""
    radius = aperture.size / np.sqrt(3.0)
    if radius >= grid.window / 2.0:
        raise ValueError(
            f"triangle side {aperture.size:g} m does not fit in the {grid.window:g} m window"
        )
    if aperture.size < 4 * grid.pitch:
        raise ValueError(
            f"triangle side {aperture.size:g} m is narrower than 4 grid pitches "
            f"({4 * grid.pitch:g} m)"
        )
    angles = aperture.orientation + np.pi / 2.0 + 2.0 * np.pi * np.arange(3) / 3.0
    return radius * np.cos(angles), radius * np.sin(angles)


def aperture_box(grid: Grid, aperture: ApertureSpec) -> Box:
    """The smallest box of grid samples that holds the aperture's vertices;
    ``aperture_mask`` is zero outside it.  A pixel left out lies a whole
    pitch or more outside the triangle, so rounding cannot let it in."""
    vx, vy = _vertices(grid, aperture)

    def span(v: np.ndarray) -> slice:
        first = math.floor(v.min() / grid.pitch) + grid.n // 2
        last = math.ceil(v.max() / grid.pitch) + grid.n // 2
        return slice(first, min(last, grid.n - 1) + 1)

    return span(vy), span(vx)


def aperture_mask(grid: Grid, aperture: ApertureSpec, box: Box = FULL) -> np.ndarray:
    """Binary transmission mask on ``box``, centroid on the optical axis:
    a bool array, column-major as ``lg_mode``'s samples are.

    A pixel transmits when its center falls inside the triangle.  Each edge
    compares a column of x terms with a row of y terms, so it builds the
    box's bools with no float temporary of the box's size.
    """
    vx, vy = _vertices(grid, aperture)
    c = grid.coords()
    # [x index, y index], the transpose of the box
    x, y = c[box[1]][:, np.newaxis], c[box[0]][np.newaxis, :]
    inside = np.ones((x.size, y.size), dtype=bool)
    for k in range(3):
        x1, y1 = vx[k], vy[k]
        x2, y2 = vx[(k + 1) % 3], vy[(k + 1) % 3]
        # Vertices are counterclockwise, so inside means a non-negative cross
        # product against every edge; a - b >= 0 is a >= b in IEEE arithmetic.
        inside &= (x2 - x1) * (y - y1) >= (y2 - y1) * (x - x1)
    return inside.T


def _lens_scale(field: ScalarField) -> float:
    """Amplitude scale of the lens transform: pitch^2 / (WAVELENGTH FOCAL_LENGTH)."""
    return field.grid.pitch**2 / (WAVELENGTH * FOCAL_LENGTH)


def _half_dft(a: np.ndarray, axis: slice, n: int, m: int) -> np.ndarray:
    """W . a^T for ``far_field``'s W on the grid indices ``axis``, a's columns.
    W[+-u] = C -+ iD for C and D the cosine and sine of W's phase, so one real
    product [C; D] . a^T over u = 0..m/2, a^T read as interleaved real and
    imaginary parts, gives the rows of u and -u at once: (C a^T)[u] -+ i (D a^T)[u].
    a^T must be C-contiguous to be read so: a column-major ``a`` (``lg_mode``'s
    samples) is read in place, a row-major one is copied.  The output is
    row-major."""
    a = np.ascontiguousarray(a.T)
    h = m // 2
    k = np.outer(np.arange(h + 1), np.arange(n)[axis] - n // 2)
    k &= n - 1  # k mod n, as n is a power of two
    angle = 2.0 * np.pi * np.arange(n) / n
    trig = np.take(np.stack((np.cos(angle), np.sin(angle))), k, axis=1)
    ca, da = np.split((trig.reshape(2 * h + 2, -1) @ a.view(float)).view(complex), 2)
    del k, trig, a  # freed before the output is allocated
    out = np.empty((m, ca.shape[1]), dtype=complex)  # u = -h..h-1: rows h.. hold u >= 0
    np.add(ca.real[:h], da.imag[:h], out=out[h:].real)
    np.subtract(ca.imag[:h], da.real[:h], out=out[h:].imag)
    np.subtract(ca.real[h:0:-1], da.imag[h:0:-1], out=out[:h].real)
    np.add(ca.imag[h:0:-1], da.real[h:0:-1], out=out[:h].imag)
    return out


def far_field(field: ScalarField, m: int | None = None) -> ScalarField:
    """Focal-plane field of a thin lens placed at the input plane, on the
    centred m x m window of the n x n camera frame (the whole frame when
    ``m`` is omitted; a window is any even width from 64 to n).

    The frame is the centred DFT of the field with output coordinates
    x' = WAVELENGTH * FOCAL_LENGTH * spatial frequency, scaled so the whole
    frame holds the field's power.  It is computed from the field's box
    alone as the matrix DFT W_rows . samples . W_cols^T (Soummer et al.,
    Opt. Express 15, 15935 (2007)):
    W[u, p] = exp(-2 pi i ((u p) mod n) / n) for window frequency u in
    [-m/2, m/2) and box index p, both centred; reducing the integer
    product mod n keeps the phase exact; W_rows . (W_cols . samples^T)^T
    takes one real product (``_half_dft``) per factor.  Every window
    carries the frame's pitch, so its coordinates are the frame's slice.
    """
    scale = _lens_scale(field)
    n = field.grid.n
    m = n if m is None else m
    if m > n:
        raise ValueError(f"window of {m} pixels exceeds the {n}-pixel grid")
    if m < 64 or m % 2:
        raise ValueError(f"window of {m} pixels is not an even width >= 64")
    spectrum = _half_dft(_half_dft(field.samples, field.box[1], n, m), field.box[0], n, m)
    spectrum *= scale
    pitch = WAVELENGTH * FOCAL_LENGTH / field.grid.window
    return ScalarField(spectrum, Grid(m, m * pitch, pitch))


def window_tail_bound(field: ScalarField) -> Callable[[int], float]:
    """Upper bound on |far_field(field)| at every pixel outside the centred
    m x m window, as a function of m.

    F(k) (1 - exp(-2 pi i k_x / n)) is the DFT of the field's difference
    along x, whose magnitude is at most its total variation TV_x (the sum
    of |f[i, j] - f[i, j-1]| over the zero-padded box).  A pixel outside
    the window has |k_x| >= m/2 or |k_y| >= m/2, so
    |F| <= scale max(TV_x, TV_y) / (2 sin(pi m / 2n)).  The variation is
    summed once, here, on whichever of the samples and their transpose is
    C-contiguous (the maximum over both axes is the same on either), in
    blocks of rows of about ``_TV_BLOCK`` samples: a block gives the
    differences along its rows and, with the one row before it, those
    across rows, so no temporary is the box's size.  The zero padding adds
    the first and last samples along each axis, once.
    """
    scale = _lens_scale(field)
    f = field.samples if field.samples.flags.c_contiguous else field.samples.T
    rows = max(1, _TV_BLOCK // f.shape[1])
    tv = np.array([np.abs(f[:, [0, -1]]).sum(), np.abs(f[[0, -1]]).sum()])
    for r in range(0, f.shape[0], rows):
        tv[0] += np.abs(np.diff(f[r : r + rows], axis=1)).sum()
        tv[1] += np.abs(np.diff(f[max(r - 1, 0) : r + rows], axis=0)).sum()
    tail = scale * float(tv.max())
    n = field.grid.n
    return lambda m: tail / (2.0 * math.sin(math.pi * m / (2 * n)))


def intensity(field: ScalarField) -> np.ndarray:
    """Pointwise squared magnitude of the field."""
    return np.abs(field.samples) ** 2


def point_reflect(img: np.ndarray) -> np.ndarray:
    """Reflect a grid image through the on-axis sample (n/2, n/2).

    Sample index k maps to (n - k) mod n on both axes, which is the
    coordinate map (x, y) -> (-x, -y) for grids centered this way.
    """
    return np.roll(img[::-1, ::-1], (1, 1), axis=(0, 1))
