import math

import numpy as np
import pytest

from oamcnot.hybrid import CNOT_MATRIX, HybridState
from oamcnot.readout import (
    TIE_FRACTION,
    PeakSet,
    ReadoutResult,
    classify_oam,
    render_image,
)
from oamcnot.wavefield import (
    FULL,
    ApertureSpec,
    Grid,
    OpticalParams,
    ScalarField,
    TRIANGLE,
    WAVELENGTH,
    aperture_box,
    aperture_mask,
    lg_mode,
)


#: Each axis's Jones vector (H, V components) and the OAM-sign vectors of +
#: and -, written out as complex literals: byte references for the stored ones.
LITERAL_JONES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "A": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}
LITERAL_SIGNS = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


def random_hybrid_state(rng: np.random.Generator, magnitude: int = 1) -> HybridState:
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return HybridState(amps / np.linalg.norm(amps), magnitude)


def mesh(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """x and y of every grid sample, as ``samples[i, j]`` lives at (x[i, j], y[i, j])."""
    c = grid.coords()
    return np.meshgrid(c, c)


def circle_field(grid: Grid, diameter: float, wavelength: float) -> ScalarField:
    """Unit transmission through a centred circle: the pixels whose centres
    satisfy x^2 + y^2 <= (d/2)^2, on the smallest box of grid samples that
    holds the circle.  The aperture whose far field is the Airy pattern."""
    radius = diameter / 2.0
    half = math.ceil(radius / grid.pitch)
    span = slice(grid.n // 2 - half, grid.n // 2 + half + 1)
    c = grid.coords()[span]
    inside = c[np.newaxis, :] ** 2 + c[:, np.newaxis] ** 2 <= radius**2
    return ScalarField(inside.astype(complex), grid, wavelength, (span, span))


def verify_cnot(matrix: np.ndarray) -> float:
    """Max elementwise deviation from the CNOT matrix, one global phase out."""
    m = np.asarray(matrix, dtype=complex)
    overlap = np.trace(CNOT_MATRIX.conj().T @ m)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.max(np.abs(m / phase - CNOT_MATRIX)))


def apply_mask(field: ScalarField, mask: np.ndarray) -> ScalarField:
    """Pointwise transmission of the field through a real mask: the
    reference for the mask that ``lg_mode`` multiplies in place."""
    mask = np.asarray(mask)
    if mask.shape != field.samples.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match field shape {field.samples.shape}"
        )
    return ScalarField(field.samples * mask, field.grid, field.wavelength, field.box)


def direct_field(
    grid: Grid,
    params: OpticalParams,
    aperture: ApertureSpec | None,
    ell: int,
    weights: tuple[complex, complex] | None = None,
) -> ScalarField:
    """The field a camera sees, built without ``readout.Camera``: the signed
    mode ``lg_mode(ell)`` on the aperture's box (the whole grid without an
    aperture), or w+ lg_mode(+|ell|) + w- lg_mode(-|ell|) for ``weights``
    (w+, w-), through the aperture's mask."""
    box = FULL if aperture is None else aperture_box(grid, aperture)

    def mode(charge):
        return lg_mode(grid, charge, params.beam_waist, WAVELENGTH, box).samples

    if weights is None:
        samples = mode(ell)
    else:
        samples = weights[0] * mode(abs(ell)) + weights[1] * mode(-abs(ell))
    field = ScalarField(samples, grid, WAVELENGTH, box)
    return field if aperture is None else apply_mask(field, aperture_mask(grid, aperture, box))


def direct_readout(
    ell: int, params: OpticalParams, grid: Grid, aperture: ApertureSpec
) -> ReadoutResult:
    """The signed mode's readout without ``readout.Camera``: ``lg_mode(ell)``
    on the box, the mask, ``render_image`` and ``classify_oam``."""
    img, far_grid = render_image(direct_field(grid, params, aperture, ell))
    return classify_oam(img, aperture, far_grid)


def fft_far_field(field: ScalarField, focal_length: float) -> ScalarField:
    """Reference lens, independent of the package's matrix DFT: the field
    zero-padded to the whole grid, a centred FFT, and the power-conserving
    scale pitch^2 / (wavelength f), on the whole camera frame."""
    n = field.grid.n
    samples = np.zeros((n, n), dtype=complex)
    samples[field.box] = field.samples
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(samples)))
    lam_f = field.wavelength * focal_length
    spectrum *= field.grid.pitch**2 / lam_f
    return ScalarField(spectrum, Grid(n, n * lam_f / field.grid.window), field.wavelength)


def matrix_far_field(field: ScalarField, focal_length: float, m: int | None = None) -> np.ndarray:
    """``far_field``'s samples by its definition, in complex arithmetic: the
    matrix DFT W_rows . samples . W_cols^T with
    W[u, p] = exp(-2 pi i ((u p) mod n) / n) for u in [-m/2, m/2), times the
    lens scale pitch^2 / (wavelength f)."""
    n = field.grid.n
    m = n if m is None else m
    phase = np.exp(-2j * np.pi * np.arange(n) / n)
    u = np.arange(m) - m // 2

    def dft(axis: slice) -> np.ndarray:
        return phase[np.outer(u, np.arange(n)[axis] - n // 2) % n]

    spectrum = dft(field.box[0]) @ field.samples @ dft(field.box[1]).T
    return spectrum * (field.grid.pitch**2 / (field.wavelength * focal_length))


def full_image_find_peaks(
    img: np.ndarray, threshold_frac: float, min_separation: float, grid: Grid
) -> PeakSet:
    """``find_peaks`` by its definition, for valid arguments: the 8-neighbour
    local-maximum test (with ``TIE_FRACTION`` ties) on every pixel of the
    image, then the threshold, the tie-aware ordering and the greedy
    separation pruning, which rebuilds the accepted positions as arrays for
    every candidate."""
    gmax = float(img.max())
    if gmax <= 0.0:
        return PeakSet(np.empty((0, 3)))
    tie = TIE_FRACTION * gmax
    padded = np.pad(img, 1, constant_values=-np.inf)
    is_max = np.ones_like(img, dtype=bool)
    n = grid.n
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_max &= img >= padded[1 + di : 1 + di + n, 1 + dj : 1 + dj + n] - tie
    is_max &= img >= threshold_frac * gmax

    rows, cols = np.nonzero(is_max)  # row-major
    values = img[rows, cols]
    ranked = np.argsort(-values, kind="stable")
    level = np.cumsum(np.diff(values[ranked], prepend=values[ranked[0]]) < -tie)
    order = ranked[np.lexsort((ranked, level))]
    rows, cols, values = rows[order], cols[order], values[order]

    coords = grid.coords()
    xs, ys = coords[cols], coords[rows]
    accepted: list[tuple[float, float, float]] = []
    ax: list[float] = []
    ay: list[float] = []
    min_sep_sq = min_separation**2
    for x, y, v in zip(xs, ys, values):
        if accepted:
            d_sq = (np.array(ax) - x) ** 2 + (np.array(ay) - y) ** 2
            if float(d_sq.min()) < min_sep_sq:
                continue
        accepted.append((float(x), float(y), float(v)))
        ax.append(float(x))
        ay.append(float(y))
    return PeakSet(np.array(accepted).reshape(-1, 3))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20210532)


@pytest.fixture
def params() -> OpticalParams:
    return OpticalParams()


@pytest.fixture
def paper_aperture() -> ApertureSpec:
    return ApertureSpec(TRIANGLE, 2e-3, 0.0)


@pytest.fixture
def fast_grid() -> Grid:
    # Small grid for unit tests; classification verified stable down to 256.
    return Grid(256, 8e-3)


@pytest.fixture
def default_grid() -> Grid:
    return Grid(1024, 8e-3)
