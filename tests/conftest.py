import numpy as np
import pytest

from oamcnot.hybrid import HybridState
from oamcnot.wavefield import ApertureSpec, Grid, OpticalParams, ScalarField, TRIANGLE


def random_hybrid_state(rng: np.random.Generator, magnitude: int = 1) -> HybridState:
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return HybridState(amps / np.linalg.norm(amps), magnitude)


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
