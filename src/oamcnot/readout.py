"""Automated readout of a vortex beam's topological charge from the
far-field pattern behind a triangular aperture.

The camera path is ``Camera.image``, the one way from an aperture and an
outcome to an image (through ``render_image``: lens and intensity of a
masked field, onto a centred camera window that provably holds every
spot), and ``classify_oam`` (peaks at the fixed threshold and the
lattice-based separation floor, then the sign vote), which ``Camera.read``
runs once per window it is asked to read.

The pattern is a finite triangular lattice of bright spots; counting N
spots on a side gives the magnitude |ell| = N - 1, and the lattice's
pointing direction gives the sign.  In this simulation's propagation
convention a positive charge (counterclockwise helical phase) produces
the lattice rotated +90 degrees from the aperture's own direction, and a
negative charge gives the point reflection of that.  The sign vote
``orientation_score`` is the peaks' normalized third angular harmonic.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .wavefield import (
    FOCAL_LENGTH,
    FULL,
    MAX_CHARGE,
    WAVELENGTH,
    ApertureSpec,
    Box,
    Grid,
    OpticalParams,
    ScalarField,
    aperture_box,
    aperture_mask,
    check_mode,
    factor_tail_bound,
    far_field,
    intensity,
    lg_mode,
    point_reflect,
    window_tail_bound,
)

#: Peak threshold as a fraction of the image maximum, fixed as the
#: camera's optics are.
THRESHOLD_FRAC = 0.3
#: Default peak separation as a fraction of lambda * f / aperture size.
SEPARATION_FRACTION = 0.3
#: Minimum |orientation_score| below which the vote is declared ambiguous.
AMBIGUITY_MARGIN = 0.05
#: Image values closer than this fraction of the maximum are taken as
#: equal.  Spots that a mirror symmetry makes equal come out of a transform
#: with ~1e-15 of rounding noise, which must not pick the peak pixel.
TIE_FRACTION = 1e-9
#: Side of the first camera window tried, in pixels.
FIRST_WINDOW = 64
#: The largest |ell| whose first window is tried against the mode's factor
#: bound.  Its looseness grows with |ell| (1.3 and 1.6 times the summed
#: bound at |ell| = 1 and 2): at the reference optics it proves the first
#: window at |ell| <= 1 and not at 2, where it would only add its cost.
FACTOR_BOUND_MAX_CHARGE = 1

# An ideal lattice for a positive charge points this far counterclockwise
# from the aperture vertex direction (calibrated against the wave engine).
POSITIVE_LATTICE_ROTATION = np.pi / 2


class ReadoutError(RuntimeError):
    """Base class for readout failures."""


class ClassificationError(ReadoutError):
    """Detected peak count is not a triangular number, or is one whose
    charge exceeds ``MAX_CHARGE``."""

    def __init__(self, peak_count: int, reason: str = "is not triangular (1, 3, 6, 10, ...)"):
        super().__init__(f"peak count {peak_count} {reason}")
        self.peak_count = peak_count


class AmbiguousOrientationError(ReadoutError):
    """Orientation vote margin too small to call a sign."""

    def __init__(self, score: float):
        super().__init__(
            f"orientation score {score:+.4f} is inside the ambiguity margin "
            f"{AMBIGUITY_MARGIN}; cannot call the sign"
        )
        self.score = score


@dataclass(frozen=True, eq=False)
class PeakSet:
    """Peaks surviving the threshold and separation constraints: a (k, 3)
    array of (x, y, value) rows, positions in meters, in ``find_peaks``'
    order.  Sets compare by identity; compare ``peaks`` with np.array_equal."""

    peaks: np.ndarray


@dataclass(frozen=True)
class ReadoutResult:
    """Signed charge and orientation vote margin; the rest is read off the charge."""

    topological_charge: int
    orientation_score: float

    @property
    def magnitude(self) -> int:
        return abs(self.topological_charge)

    @property
    def sign(self) -> str:
        if self.topological_charge > 0:
            return "+"
        if self.topological_charge < 0:
            return "-"
        return "undefined"

    @property
    def spots_per_side(self) -> int:
        return self.magnitude + 1


def find_peaks(
    img: np.ndarray, threshold_frac: float, min_separation: float, grid: Grid
) -> PeakSet:
    """Detect bright spots in an intensity image, one (x, y, value) row each.

    A spot is an 8-neighbor local maximum (no neighbor is larger) at or
    above ``threshold_frac`` times the global maximum, so every pixel of
    a flat top is a candidate.  Candidates are then pruned greedily in
    descending value: a candidate closer than ``min_separation`` (meters)
    to an already accepted peak is dropped, which keeps one pixel of a
    tied top.  Ordering is deterministic: value descending, ties row-major.
    Values within ``TIE_FRACTION`` of the maximum of each other are ties
    here, so rounding noise neither makes nor breaks a local maximum or
    reorders a tie; a run of values each that close to the next is one tie.
    """
    img = np.asarray(img, dtype=float)
    if img.shape != (grid.n, grid.n):
        raise ValueError(f"image shape {img.shape} does not match grid n = {grid.n}")
    if np.isnan(img).any():
        raise ValueError("image contains NaN samples")
    if not 0.0 < threshold_frac < 1.0:
        raise ValueError(f"threshold_frac must be in (0, 1), got {threshold_frac}")
    if min_separation < 2.0 * grid.pitch:
        raise ValueError(
            f"min_separation {min_separation:g} m is below two output pixels "
            f"({2.0 * grid.pitch:g} m)"
        )

    gmax = float(img.max())
    if gmax <= 0.0:
        return PeakSet(np.empty((0, 3)))

    tie = TIE_FRACTION * gmax
    rows, cols = np.nonzero(img >= threshold_frac * gmax)  # row-major
    values = img[rows, cols]
    padded = np.pad(img, 1, constant_values=-np.inf)
    di, dj = np.divmod(np.delete(np.arange(9), 4), 3)  # the 8 neighbours, in padded
    is_max = (values[:, None] >= padded[rows[:, None] + di, cols[:, None] + dj] - tie).all(1)
    rows, cols, values = rows[is_max], cols[is_max], values[is_max]
    ranked = np.argsort(-values, kind="stable")
    level = np.cumsum(np.diff(values[ranked], prepend=values[ranked[0]]) < -tie)
    order = ranked[np.lexsort((ranked, level))]
    rows, cols, values = rows[order], cols[order], values[order]

    coords = grid.coords()
    # An accepted peak closer than min_separation is at most `cell` pixels
    # off on each axis: in the candidate's cell or one of the 8 around it.  A
    # cell's key is row * width + column, and a width 3 above the column
    # count keeps the keys of neighbours apart.
    cell = math.ceil(min(grid.n, min_separation / grid.pitch))
    width = grid.n // cell + 3
    around = [di * width + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    keys = ((rows // cell) * width + cols // cell).tolist()
    near: dict[int, list[tuple[float, float]]] = {}
    accepted = []
    min_sep_sq = min_separation**2
    for x, y, v, key in zip(coords[cols].tolist(), coords[rows].tolist(), values.tolist(), keys):
        if any(
            (px - x) * (px - x) + (py - y) * (py - y) < min_sep_sq
            for o in around
            for px, py in near.get(key + o, ())
        ):
            continue
        near.setdefault(key, []).append((x, y))
        accepted.append((x, y, v))
    return PeakSet(np.array(accepted).reshape(-1, 3))


def count_spots_per_side(peaks: PeakSet) -> int:
    """Side length N of the triangular arrangement with T(N) = len(peaks).
    A count above T(MAX_CHARGE + 1) reads a charge no source can carry."""
    count = len(peaks.peaks)
    if count >= 1:
        n_side = (math.isqrt(8 * count + 1) - 1) // 2
        if n_side * (n_side + 1) // 2 == count:
            if n_side - 1 > MAX_CHARGE:
                raise ClassificationError(
                    count,
                    f"is T({n_side}): |ell| = {n_side - 1} "
                    f"exceeds the supported range {MAX_CHARGE}",
                )
            return n_side
    raise ClassificationError(count)


def _harmonic_score(points: np.ndarray, direction: float) -> float:
    """``classify_oam``'s score of the (x, y) ``points``, at unit rms (z^3 in
    meters leaves the floats at the ceiling window) with exactly rounded
    sums, so a point reflection in any order scores exactly -score."""
    z = points[:, 0] + 1j * points[:, 1]
    z -= complex(math.fsum(z.real), math.fsum(z.imag)) / len(z)
    z /= math.sqrt(math.fsum(np.abs(z) ** 2) / len(z))
    return math.fsum((z * z * z * np.exp(-3j * direction)).real) / math.fsum(np.abs(z) ** 3)


def classify_oam(img: np.ndarray, aperture: ApertureSpec, grid: Grid) -> ReadoutResult:
    """Infer (sign, magnitude) of the charge from a far-field image.

    ``grid`` is the far-field grid the image lives on.  Peaks are found
    at ``THRESHOLD_FRAC`` with the lattice-based separation floor of
    ``aperture``.

    The magnitude comes from the spots-per-side count; the sign from
    ``orientation_score`` = Re(sum z^3 e^(-3i phi)) / sum |z|^3 in [-1, 1]
    over the centred peaks z (1 for three spots, about 0.67 for T(11)), with
    phi the vertex direction of the positive-charge lattice.
    """
    min_separation = default_min_separation(aperture.size, grid.pitch)
    peaks = find_peaks(img, THRESHOLD_FRAC, min_separation, grid)
    magnitude = count_spots_per_side(peaks) - 1
    if magnitude == 0:
        return ReadoutResult(0, 0.0)

    phi = aperture.orientation + np.pi / 2.0 + POSITIVE_LATTICE_ROTATION
    orientation_score = _harmonic_score(peaks.peaks[:, :2], phi)
    if abs(orientation_score) < AMBIGUITY_MARGIN:
        raise AmbiguousOrientationError(orientation_score)
    charge = magnitude if orientation_score > 0 else -magnitude
    return ReadoutResult(charge, orientation_score)


def default_min_separation(aperture_size: float, far_pitch: float) -> float:
    """Peak separation floor: a fraction of the far-field lattice scale,
    never below the two-pixel validity bound of the peak finder."""
    return max(
        SEPARATION_FRACTION * WAVELENGTH * FOCAL_LENGTH / aperture_size,
        2.0 * far_pitch,
    )


def render_image(
    field: ScalarField, factor_bound: Callable[[int], float] | None = None
) -> tuple[np.ndarray, Grid]:
    """Camera image of a masked field through the lens of ``FOCAL_LENGTH``.

    Returns the far-field intensity on a centred window whose tail bound
    puts every pixel outside it below ``THRESHOLD_FRAC`` times the
    window's maximum, and the far-field grid of that window: the first
    (``FIRST_WINDOW`` pixels wide), else the narrowest even width whose
    bound passes against the first window's maximum, up to the whole
    frame.  That window holds the first, so its maximum is no lower and it
    passes against its own: at most two renders.  The global maximum and
    every peak candidate then lie inside, and a window edge pixel's
    outside neighbors are below threshold, so ``find_peaks`` finds the
    same peaks in the window as in the whole frame.
    A pure mode's ``factor_bound`` (``factor_tail_bound``), never below the
    summed bound but for rounding the margin covers, is tried on the first
    window before the field's variation is summed: the same width either way.
    """
    n = field.grid.n
    far = far_field(field, FIRST_WINDOW)
    img = intensity(far)
    top = THRESHOLD_FRAC * float(img.max())
    # the margin covers the rounding of either bound and of the transform
    if factor_bound is not None and factor_bound(FIRST_WINDOW) ** 2 * (1.0 + 1e-9) < top:
        return img, far.grid
    bound = window_tail_bound(field)
    m = next((m for m in range(FIRST_WINDOW, n, 2) if bound(m) ** 2 * (1.0 + 1e-9) < top), n)
    if m > FIRST_WINDOW:
        far = far_field(field, m)
        img = intensity(far)
    return img, far.grid


class Camera:
    """The camera of one command: a grid, the beam waist (the lens is fixed),
    and every image it renders.  Make one per command; nothing it holds outlives it.

    ``image`` is the only code that turns an aperture and an outcome into
    an image, kept by (aperture, |ell|, weights, frame); each render builds
    its own mask, a small cost beside the lens, into the mode's samples.
    ``read`` classifies a window once per (aperture, ell, weights).  The
    +|ell| vortex behind an aperture is rendered once onto the window
    ``render_image`` proves, and once onto the whole frame if that is
    asked for; a -|ell| outcome is that image's point reflection.  The
    mask is real and lg_mode(-ell) is the exact conjugate of lg_mode(ell),
    so F_-(k) = conj(F_+(-k)).  The one row and column a window's
    reflection wraps (k = -m/2) lie at |k| = m/2, which the tail bound
    puts below the peak threshold in both images; the whole frame (m = n)
    is periodic and wraps exactly.  A
    superposition, kept by its weights, is never reflected; ``run_wave``
    renders its frame to write it, but a window only for an outcome read
    as one sign whose other sign carries a nonzero residue below 1e-9."""

    def __init__(self, grid: Grid, params: OpticalParams):
        # The lens scale pitch^2 / (wavelength f) lies between pitch^2 and
        # (n window / (wavelength f))^2, and that ceiling bounds every
        # far-field value and the window tail bound.  A window that takes
        # either end out of the normal floats is refused here, not met as
        # an overflow or a blank image.
        ceiling = grid.n * grid.window / (WAVELENGTH * FOCAL_LENGTH)
        for name, value in (
            ("pitch^2", grid.pitch * grid.pitch),
            ("camera ceiling (n window / (wavelength f))^2", ceiling * ceiling),
        ):
            if not sys.float_info.min <= value <= sys.float_info.max:
                raise ValueError(
                    f"window {grid.window:g} m at grid n {grid.n} gives a {name} of "
                    f"{value:g}, outside the finite normal floats"
                )
        self.grid = grid
        self.params = params
        self._images: dict[tuple, tuple[np.ndarray, Grid]] = {}
        self._readouts: dict[tuple, ReadoutResult] = {}

    def refuse(self, aperture: ApertureSpec | None, ell: int) -> Box:
        """The aperture's box (the whole grid without an aperture), after
        refusing what the camera cannot render, in this order: an aperture
        that does not fit, then what ``check_mode`` refuses of the charge
        and the waist.  Builds no mask, mode or lens."""
        box = FULL if aperture is None else aperture_box(self.grid, aperture)
        check_mode(self.grid, ell, self.params.beam_waist)
        return box

    def image(
        self,
        aperture: ApertureSpec | None,
        ell: int,
        weights: tuple[complex, complex] | None = None,
        *,
        frame: bool = False,
    ) -> tuple[np.ndarray, Grid]:
        """Intensity of the vortex of charge ``ell`` behind ``aperture``
        (None for none) and its far-field grid: on the window
        ``render_image`` proves, or with ``frame`` on the whole frame.
        With ``weights`` (w+, w-) the outcome is the superposition of the
        +|ell| and -|ell| modes, w+ plus + w- conj(plus), whatever the
        sign of ``ell``.  Every image it returns is read-only, because
        outcomes of one key share theirs."""
        key = aperture, abs(ell), weights, frame
        if key not in self._images:
            # a key in the cache has passed the refusals, which depend on it alone
            box = self.refuse(aperture, ell)
            mask = None if aperture is None else aperture_mask(self.grid, aperture, box)
            field = lg_mode(self.grid, abs(ell), self.params.beam_waist, WAVELENGTH, box, mask)
            if weights is not None:
                samples = weights[0] * field.samples
                samples += weights[1] * field.samples.conj()
                field = ScalarField(samples, self.grid, box)
            if frame:
                far = far_field(field)
                rendered = intensity(far), far.grid
            elif weights is None and abs(ell) <= FACTOR_BOUND_MAX_CHARGE:
                waist = self.params.beam_waist
                rendered = render_image(field, factor_tail_bound(self.grid, abs(ell), waist, box))
            else:
                rendered = render_image(field)
            rendered[0].setflags(write=False)
            self._images[key] = rendered
        img, far_grid = self._images[key]
        if ell < 0 and weights is None:
            img = point_reflect(img)
            img.setflags(write=False)
        return img, far_grid

    def read(
        self, aperture: ApertureSpec, ell: int, weights: tuple[complex, complex] | None = None
    ) -> ReadoutResult:
        """``classify_oam`` of the window ``image`` gives for these
        arguments, classified once and kept by them; a refusal or a failed
        classification is raised again on each call, not kept."""
        key = aperture, ell, weights
        if key not in self._readouts:
            img, far_grid = self.image(aperture, ell, weights)
            self._readouts[key] = classify_oam(img, aperture, far_grid)
        return self._readouts[key]


def readout_roundtrip(
    ell: int, params: OpticalParams, grid: Grid, aperture: ApertureSpec
) -> ReadoutResult:
    """One charge read out on a camera of its own."""
    return Camera(grid, params).read(aperture, ell)
