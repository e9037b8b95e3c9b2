"""Automated readout of a vortex beam's topological charge from the
far-field pattern behind a triangular aperture.

The camera path is two steps that every caller shares: ``render_image``
(mask, lens, intensity) and ``read_image`` (separation floor, classify).

The pattern is a finite triangular lattice of bright spots; counting N
spots on a side gives the magnitude |ell| = N - 1, and the lattice's
pointing direction gives the sign.  In this simulation's propagation
convention a positive charge (counterclockwise helical phase) produces
the lattice rotated +90 degrees from the aperture's own direction, and a
negative charge gives the point reflection of that.  The classifier
votes between those two ideal orientations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavefield import (
    ApertureSpec,
    Grid,
    OpticalParams,
    ScalarField,
    aperture_mask,
    apply_mask,
    far_field,
    intensity,
    lg_mode,
)

SIGN_POSITIVE = "+"
SIGN_NEGATIVE = "-"
SIGN_UNDEFINED = "undefined"

DEFAULT_THRESHOLD_FRAC = 0.3
#: Default peak separation as a fraction of lambda * f / aperture size.
SEPARATION_FRACTION = 0.3
#: Minimum |orientation_score| below which the vote is declared ambiguous.
AMBIGUITY_MARGIN = 0.05
#: Gaussian kernel width of the template match, in units of lattice spacing.
MATCH_KERNEL = 0.5

# An ideal lattice for a positive charge points this far counterclockwise
# from the aperture vertex direction (calibrated against the wave engine).
POSITIVE_LATTICE_ROTATION = np.pi / 2


class ReadoutError(RuntimeError):
    """Base class for readout failures."""


class ClassificationError(ReadoutError):
    """Detected peak count is not a triangular number."""

    def __init__(self, peak_count: int):
        super().__init__(
            f"peak count {peak_count} is not triangular (1, 3, 6, 10, ...); "
            "the grid, threshold, or separation is likely misconfigured"
        )
        self.peak_count = peak_count


class AmbiguousOrientationError(ReadoutError):
    """Orientation vote margin too small to call a sign."""

    def __init__(self, score: float):
        super().__init__(
            f"orientation score {score:+.4f} is inside the ambiguity margin "
            f"{AMBIGUITY_MARGIN}; cannot call the sign"
        )
        self.score = score


@dataclass(frozen=True)
class Peak:
    """One bright spot: physical position (meters) and image value."""

    x: float
    y: float
    value: float


@dataclass(frozen=True)
class PeakSet:
    """Peaks surviving the threshold and separation constraints."""

    peaks: tuple[Peak, ...]
    threshold_frac: float
    min_separation: float


@dataclass(frozen=True)
class ReadoutResult:
    """Inferred charge: magnitude |ell|, sign, spots per side, vote margin."""

    magnitude: int
    sign: str
    spots_per_side: int
    orientation_score: float

    def __post_init__(self) -> None:
        if self.magnitude != self.spots_per_side - 1:
            raise ValueError(
                f"magnitude {self.magnitude} must be spots_per_side - 1 "
                f"({self.spots_per_side - 1})"
            )
        if (self.sign == SIGN_UNDEFINED) != (self.magnitude == 0):
            raise ValueError("sign is undefined exactly when the magnitude is 0")
        if self.sign not in (SIGN_POSITIVE, SIGN_NEGATIVE, SIGN_UNDEFINED):
            raise ValueError(f"unknown sign label {self.sign!r}")

    @property
    def topological_charge(self) -> int:
        """Signed charge; 0 when the sign is undefined."""
        if self.sign == SIGN_POSITIVE:
            return self.magnitude
        if self.sign == SIGN_NEGATIVE:
            return -self.magnitude
        return 0


def find_peaks(
    img: np.ndarray, threshold_frac: float, min_separation: float, grid: Grid
) -> PeakSet:
    """Detect bright spots in an intensity image.

    A spot is a strict 8-neighbor local maximum at or above
    ``threshold_frac`` times the global maximum.  Candidates are then
    pruned greedily in descending value: a candidate closer than
    ``min_separation`` (meters) to an already accepted peak is dropped.
    Ordering is deterministic: value descending, ties row-major.
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
        return PeakSet((), threshold_frac, min_separation)

    padded = np.pad(img, 1, constant_values=-np.inf)
    is_max = np.ones_like(img, dtype=bool)
    n = grid.n
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_max &= img > padded[1 + di : 1 + di + n, 1 + dj : 1 + dj + n]
    is_max &= img >= threshold_frac * gmax

    rows, cols = np.nonzero(is_max)
    values = img[rows, cols]
    order = np.lexsort((cols, rows, -values))
    rows, cols, values = rows[order], cols[order], values[order]

    coords = grid.coords()
    xs, ys = coords[cols], coords[rows]
    accepted: list[Peak] = []
    ax: list[float] = []
    ay: list[float] = []
    min_sep_sq = min_separation**2
    for x, y, v in zip(xs, ys, values):
        if accepted:
            d_sq = (np.array(ax) - x) ** 2 + (np.array(ay) - y) ** 2
            if float(d_sq.min()) < min_sep_sq:
                continue
        accepted.append(Peak(float(x), float(y), float(v)))
        ax.append(float(x))
        ay.append(float(y))
    return PeakSet(tuple(accepted), threshold_frac, min_separation)


def count_spots_per_side(peaks: PeakSet) -> int:
    """Side length N of the triangular arrangement with T(N) = len(peaks)."""
    count = len(peaks.peaks)
    if count >= 1:
        n_side = (math.isqrt(8 * count + 1) - 1) // 2
        if n_side * (n_side + 1) // 2 == count:
            return n_side
    raise ClassificationError(count)


def _lattice_template(n_side: int) -> np.ndarray:
    """Ideal unit-spacing lattice patch of T(n_side) points.

    Built with one vertex pointing along +y and centered on its centroid.
    """
    u1 = np.array([1.0, 0.0])
    u2 = np.array([0.5, np.sqrt(3.0) / 2.0])
    pts = np.array(
        [i * u1 + j * u2 for i in range(n_side) for j in range(n_side - i)]
    )
    return pts - pts.mean(axis=0)


def _rotate(pts: np.ndarray, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return pts @ np.array([[c, s], [-s, c]])


def _match_score(points: np.ndarray, template: np.ndarray, kernel: float) -> float:
    """Mean Gaussian proximity of template points to their nearest peak."""
    d_sq = ((points[None, :, :] - template[:, None, :]) ** 2).sum(axis=-1)
    nearest = np.sqrt(d_sq.min(axis=1))
    return float(np.mean(np.exp(-((nearest / kernel) ** 2))))


def classify_oam(
    img: np.ndarray,
    aperture: ApertureSpec,
    grid: Grid,
    *,
    threshold_frac: float = DEFAULT_THRESHOLD_FRAC,
    min_separation: float | None = None,
) -> ReadoutResult:
    """Infer (sign, magnitude) of the charge from a far-field image.

    ``grid`` is the far-field grid the image lives on.  When
    ``min_separation`` is omitted the two-pixel floor is used; callers
    that know the optics should pass the lattice-based default instead.

    The magnitude comes from the spots-per-side count; the sign from a
    vote between the ideal lattice at the positive-charge orientation
    (aperture direction rotated +90 degrees) and its point reflection.
    ``orientation_score`` is the normalized margin between the two votes.
    """
    if min_separation is None:
        min_separation = 2.0 * grid.pitch
    peaks = find_peaks(img, threshold_frac, min_separation, grid)
    n_side = count_spots_per_side(peaks)
    magnitude = n_side - 1
    if magnitude == 0:
        return ReadoutResult(0, SIGN_UNDEFINED, 1, 0.0)

    pts = np.array([[p.x, p.y] for p in peaks.peaks])
    rel = pts - pts.mean(axis=0)
    rms = float(np.sqrt((rel**2).sum(axis=1).mean()))

    apex = aperture.orientation + np.pi / 2.0
    template = _lattice_template(n_side)
    scale = rms / float(np.sqrt((template**2).sum(axis=1).mean()))
    positive = _rotate(template, apex + POSITIVE_LATTICE_ROTATION - np.pi / 2.0) * scale
    negative = -positive  # point reflection of the positive orientation

    kernel = MATCH_KERNEL * scale  # scale is the fitted lattice spacing
    score_pos = _match_score(rel, positive, kernel)
    score_neg = _match_score(rel, negative, kernel)
    orientation_score = (score_pos - score_neg) / (score_pos + score_neg)
    if abs(orientation_score) < AMBIGUITY_MARGIN:
        raise AmbiguousOrientationError(orientation_score)
    sign = SIGN_POSITIVE if orientation_score > 0 else SIGN_NEGATIVE
    return ReadoutResult(magnitude, sign, n_side, orientation_score)


def default_min_separation(
    wavelength: float, focal_length: float, aperture_size: float, far_pitch: float
) -> float:
    """Peak separation floor: a fraction of the far-field lattice scale,
    never below the two-pixel validity bound of the peak finder."""
    return max(
        SEPARATION_FRACTION * wavelength * focal_length / aperture_size,
        2.0 * far_pitch,
    )


def render_image(
    field: ScalarField, mask: np.ndarray | None, focal_length: float
) -> tuple[np.ndarray, Grid]:
    """Camera image of a field: through the mask (if any) and the lens.

    Returns the far-field intensity and the far-field grid it lives on.
    """
    if mask is not None:
        field = apply_mask(field, mask)
    far = far_field(field, focal_length)
    return intensity(far), far.grid


def read_image(
    img: np.ndarray,
    grid: Grid,
    aperture: ApertureSpec,
    params: OpticalParams,
    threshold_frac: float,
) -> ReadoutResult:
    """Classify a camera image with the lattice-based separation floor."""
    min_sep = default_min_separation(
        params.wavelength, params.focal_length, aperture.size, grid.pitch
    )
    return classify_oam(
        img, aperture, grid, threshold_frac=threshold_frac, min_separation=min_sep
    )


def readout_roundtrip(
    ell: int,
    params: OpticalParams,
    grid: Grid,
    aperture: ApertureSpec,
    *,
    threshold_frac: float = DEFAULT_THRESHOLD_FRAC,
) -> ReadoutResult:
    """Full pipeline: synthesize the vortex, mask it, propagate, classify."""
    img, far_grid = render_image(
        lg_mode(grid, ell, params.beam_waist, params.wavelength),
        aperture_mask(grid, aperture),
        params.focal_length,
    )
    return read_image(img, far_grid, aperture, params, threshold_frac)
