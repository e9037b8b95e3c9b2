"""Scalar wave optics on a square grid: vortex-beam synthesis, aperture
masking, and single-lens far-field propagation.

All lengths are SI meters.  Grid samples sit at (i - n/2) * pitch along
each axis, so the optical axis is the (n/2, n/2) sample.  A field sample
``samples[i, j]`` lives at x = coords[j], y = coords[i].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_CHARGE = 10

TRIANGLE = "equilateral-triangle"
CIRCLE = "circle"
APERTURE_SHAPES = (TRIANGLE, CIRCLE)


@dataclass(frozen=True)
class Grid:
    """Square sampling grid: ``n`` samples per side over a physical window."""

    n: int
    window: float

    def __post_init__(self) -> None:
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"grid size must be a power of two >= 64, got {self.n}")
        if not (np.isfinite(self.window) and self.window > 0):
            raise ValueError(f"window must be positive, got {self.window}")

    @property
    def pitch(self) -> float:
        return self.window / self.n

    def coords(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.pitch

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        c = self.coords()
        return np.meshgrid(c, c)


@dataclass(frozen=True)
class ApertureSpec:
    """Aperture geometry: shape, size (triangle side or circle diameter),
    and rotation.  Orientation 0 points one triangle vertex along +y."""

    shape: str
    size: float
    orientation: float = 0.0

    def __post_init__(self) -> None:
        if self.shape not in APERTURE_SHAPES:
            raise ValueError(
                f"unknown aperture shape {self.shape!r}; expected one of {APERTURE_SHAPES}"
            )
        if not (np.isfinite(self.size) and self.size > 0):
            raise ValueError(f"aperture size must be positive, got {self.size}")


@dataclass(frozen=True)
class OpticalParams:
    """Wavelength, lens focal length, and beam waist of the optical train."""

    wavelength: float = 532e-9
    focal_length: float = 0.30
    beam_waist: float = 0.5e-3

    def __post_init__(self) -> None:
        for name in ("wavelength", "focal_length", "beam_waist"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Complex field samples on a grid, with the wavelength they carry.

    A complex ndarray passed in is frozen in place (made read-only), not
    copied; any other input is converted to a new read-only complex array."""

    samples: np.ndarray
    grid: Grid
    wavelength: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid n = {self.grid.n}"
            )
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def lg_mode(grid: Grid, ell: int, waist: float, wavelength: float) -> ScalarField:
    """Vortex mode of topological charge ``ell``, normalized to unit power.

    Amplitude (r sqrt2 / w0)^|ell| exp(-r^2/w0^2) with helical phase
    exp(i ell phi); ell = 0 degenerates to a plain Gaussian.  Built as
    ((x +- iy) sqrt2 / w0)^|ell| g(x) g(y), g(c) = exp(-c^2/w0^2), from the
    1-D coordinates, so ``lg_mode(-ell)`` is the exact conjugate of
    ``lg_mode(ell)``.
    """
    if abs(ell) > MAX_CHARGE:
        raise ValueError(f"|ell| = {abs(ell)} exceeds the supported range {MAX_CHARGE}")
    lo, hi = 4 * grid.pitch, grid.window / 4
    if not lo < waist < hi:
        raise ValueError(
            f"beam waist {waist:g} m is outside the resolvable range "
            f"({lo:g}, {hi:g}) m for this grid"
        )
    c = grid.coords()
    if ell == 0:
        field = np.ones((grid.n, grid.n), dtype=complex)
    else:
        scaled = c * (np.sqrt(2.0) / waist)
        base = np.empty((grid.n, grid.n), dtype=complex)
        base.real = scaled[np.newaxis, :]
        base.imag = (scaled if ell > 0 else -scaled)[:, np.newaxis]
        field = base.copy() if abs(ell) > 1 else base
        for _ in range(abs(ell) - 1):
            field *= base
    g = np.exp(-((c / waist) ** 2))
    field *= g[:, np.newaxis]
    field *= g[np.newaxis, :]
    field /= np.sqrt(np.sum(np.abs(field) ** 2) * grid.pitch**2)
    return ScalarField(field, grid, wavelength)


def aperture_mask(grid: Grid, aperture: ApertureSpec) -> np.ndarray:
    """Binary transmission mask, centroid on the optical axis.

    A pixel transmits when its center falls inside the shape.  The
    inequalities are evaluated on a row of x and a column of y, which
    broadcast to the full grid.
    """
    c = grid.coords()
    x, y = c[np.newaxis, :], c[:, np.newaxis]
    if aperture.shape == CIRCLE:
        radius = aperture.size / 2.0
        if radius >= grid.window / 2.0:
            raise ValueError(
                f"circle diameter {aperture.size:g} m does not fit in the "
                f"{grid.window:g} m window"
            )
        return (x**2 + y**2 <= radius**2).astype(float)

    circumradius = aperture.size / np.sqrt(3.0)
    if circumradius >= grid.window / 2.0:
        raise ValueError(
            f"triangle side {aperture.size:g} m does not fit in the "
            f"{grid.window:g} m window"
        )
    angles = aperture.orientation + np.pi / 2.0 + 2.0 * np.pi * np.arange(3) / 3.0
    vx = circumradius * np.cos(angles)
    vy = circumradius * np.sin(angles)
    inside = np.ones((grid.n, grid.n), dtype=bool)
    for k in range(3):
        x1, y1 = vx[k], vy[k]
        x2, y2 = vx[(k + 1) % 3], vy[(k + 1) % 3]
        # Vertices are counterclockwise, so inside means a non-negative cross
        # product against every edge.
        inside &= (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0.0
    return inside.astype(float)


def apply_mask(field: ScalarField, mask: np.ndarray) -> ScalarField:
    """Pointwise transmission of the field through a real mask."""
    mask = np.asarray(mask)
    if mask.shape != field.samples.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match field shape {field.samples.shape}"
        )
    return ScalarField(field.samples * mask, field.grid, field.wavelength)


def far_field(field: ScalarField, focal_length: float) -> ScalarField:
    """Focal-plane field of a thin lens placed at the input plane.

    A centered discrete Fourier transform with output coordinates
    x' = wavelength * focal_length * spatial frequency; the amplitude
    scale is chosen so total power is conserved exactly.
    """
    if not focal_length > 0:
        raise ValueError(f"focal length must be positive, got {focal_length}")
    lam_f = field.wavelength * focal_length
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(field.samples)))
    spectrum *= field.grid.pitch**2 / lam_f
    out_grid = Grid(field.grid.n, field.grid.n * lam_f / field.grid.window)
    return ScalarField(spectrum, out_grid, field.wavelength)


def intensity(field: ScalarField) -> np.ndarray:
    """Pointwise squared magnitude of the field."""
    return np.abs(field.samples) ** 2


def power(field: ScalarField) -> float:
    """Total power: sum of |sample|^2 times the pixel area."""
    return float(np.sum(np.abs(field.samples) ** 2) * field.grid.pitch**2)


def point_reflect(img: np.ndarray) -> np.ndarray:
    """Reflect a grid image through the on-axis sample (n/2, n/2).

    Sample index k maps to (n - k) mod n on both axes, which is the
    coordinate map (x, y) -> (-x, -y) for grids centered this way.
    """
    return np.roll(img[::-1, ::-1], (1, 1), axis=(0, 1))
