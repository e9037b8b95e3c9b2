"""The readout's camera window against the full frame it stands for.

A readout synthesizes the vortex on the aperture's box alone and renders
only a centred window of the far field, as large as a total-variation
bound needs to prove that every pixel outside it is below the peak
threshold.  These tests check the pieces (box, mask, mode, matrix DFT),
the bound itself, and that a window reads out exactly as the full frame.
"The full frame" is always the zero-padded FFT of ``conftest``, never the
lens under test.
"""

from __future__ import annotations

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fft_far_field
from oamcnot.cli import main
from oamcnot.readout import (
    ReadoutError,
    classify_oam,
    find_peaks,
    readout_roundtrip,
    render_image,
)
from oamcnot.wavefield import (
    CIRCLE,
    FULL,
    ApertureSpec,
    Grid,
    OpticalParams,
    ScalarField,
    TRIANGLE,
    aperture_box,
    aperture_mask,
    apply_mask,
    far_field,
    intensity,
    lg_mode,
    power,
    window_tail_bound,
)

F = 0.30


def masked_box_field(grid, ell, aperture, params):
    box = aperture_box(grid, aperture)
    mode = lg_mode(grid, ell, params.beam_waist, params.wavelength, box)
    return apply_mask(mode, aperture_mask(grid, aperture, box))


def outcome(fn):
    """A readout's repr, or its error's type and message."""
    try:
        return repr(fn())
    except (ReadoutError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestBox:
    @pytest.mark.parametrize("degrees", [0.0, 15.0, 33.3, 60.0, 90.0, 117.9])
    @pytest.mark.parametrize("side_mm", [1.0, 2.0, 4.0])
    def test_mask_is_zero_outside_the_box(self, degrees, side_mm):
        grid = Grid(256, 8e-3)
        aperture = ApertureSpec(TRIANGLE, side_mm * 1e-3, math.radians(degrees))
        box = aperture_box(grid, aperture)
        full = aperture_mask(grid, aperture)
        inside = np.zeros_like(full)
        inside[box] = aperture_mask(grid, aperture, box)
        assert np.array_equal(full, inside)
        # at most two spare rows or columns on each side of the transmitting pixels
        rows, cols = np.nonzero(full)
        assert box[0].stop - box[0].start <= rows.max() - rows.min() + 5
        assert box[1].stop - box[1].start <= cols.max() - cols.min() + 5

    def test_circle_box_holds_the_mask(self):
        grid = Grid(256, 8e-3)
        aperture = ApertureSpec(CIRCLE, 3e-3)
        box = aperture_box(grid, aperture)
        inside = np.zeros((256, 256))
        inside[box] = aperture_mask(grid, aperture, box)
        assert np.array_equal(aperture_mask(grid, aperture), inside)

    def test_oversized_aperture_is_refused_by_the_box(self):
        with pytest.raises(ValueError, match="triangle side 0.02 m does not fit"):
            aperture_box(Grid(256, 8e-3), ApertureSpec(TRIANGLE, 20e-3))

    @pytest.mark.parametrize("ell", [0, 1, -2, 5, -10])
    def test_mode_on_a_box_is_the_full_mode_there(self, ell):
        grid = Grid(256, 8e-3)
        box = aperture_box(grid, ApertureSpec(TRIANGLE, 2e-3, 0.3))
        full = lg_mode(grid, ell, 0.5e-3, 532e-9)
        on_box = lg_mode(grid, ell, 0.5e-3, 532e-9, box)
        assert on_box.box == box and full.box == FULL
        # one normalization, from 1-D sums, whatever the box
        assert np.array_equal(on_box.samples, full.samples[box])
        assert abs(power(full) - 1.0) < 1e-12

    def test_box_field_shape_is_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            ScalarField(np.zeros((3, 4)), Grid(64, 8e-3), 532e-9, (slice(0, 4), slice(0, 4)))


class TestWindowTransform:
    @pytest.mark.parametrize("ell", [1, -1, 4])
    def test_window_is_the_full_frames_centre(self, ell, params):
        grid = Grid(256, 8e-3)
        field = masked_box_field(grid, ell, ApertureSpec(TRIANGLE, 2e-3, 0.4), params)
        full = fft_far_field(field, F)
        for m in (64, 128, 256):
            window = far_field(field, F, m)
            lo = grid.n // 2 - m // 2
            centre = full.samples[lo : lo + m, lo : lo + m]
            scale = np.abs(full.samples).max()
            assert np.abs(window.samples - centre).max() < 1e-12 * scale
            assert window.grid.pitch == full.grid.pitch
            assert np.array_equal(window.grid.coords(), full.grid.coords()[lo : lo + m])

    def test_window_wider_than_the_grid_is_refused(self, params):
        field = masked_box_field(Grid(128, 8e-3), 1, ApertureSpec(TRIANGLE, 2e-3), params)
        with pytest.raises(ValueError, match="exceeds"):
            far_field(field, F, 256)

    @pytest.mark.parametrize("case", ["unapertured vortex, 256", "masked box, 1024"])
    def test_whole_frame_is_the_fft(self, case, params):
        if case.startswith("unapertured"):
            field = lg_mode(Grid(256, 8e-3), 3, params.beam_waist, params.wavelength)
        else:
            grid = Grid(1024, 8e-3)
            field = masked_box_field(grid, -2, ApertureSpec(TRIANGLE, 2e-3, 0.4), params)
        full = fft_far_field(field, F)
        whole = far_field(field, F)
        scale = np.abs(full.samples).max()
        assert np.abs(whole.samples - full.samples).max() < 1e-12 * scale
        assert whole.grid == full.grid


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([256, 512]),
    side_mm=st.floats(1.0, 4.0),
    waist_mm=st.floats(0.4, 0.6),
    degrees=st.floats(0.0, 120.0, exclude_max=True),
    ell=st.integers(-10, 10),
)
# the small side and large charges whose spots spread farthest
@example(n=256, side_mm=2.0, waist_mm=0.5, degrees=0.0, ell=1)
@example(n=256, side_mm=1.0, waist_mm=0.4, degrees=15.0, ell=10)
@example(n=256, side_mm=4.0, waist_mm=0.6, degrees=47.0, ell=-7)
@example(n=512, side_mm=1.0, waist_mm=0.5, degrees=71.3, ell=-10)
@example(n=1024, side_mm=1.0, waist_mm=0.5, degrees=20.0, ell=10)
def test_every_pixel_outside_a_window_is_within_its_bound(n, side_mm, waist_mm, degrees, ell):
    grid = Grid(n, 8e-3)
    params = OpticalParams(beam_waist=waist_mm * 1e-3)
    aperture = ApertureSpec(TRIANGLE, side_mm * 1e-3, math.radians(degrees))
    field = masked_box_field(grid, ell, aperture, params)
    img = intensity(fft_far_field(field, F))
    bound = window_tail_bound(field, F)
    m = 64
    while m < n:
        outside = img.copy()
        lo = n // 2 - m // 2
        outside[lo : lo + m, lo : lo + m] = 0.0
        assert outside.max() <= bound(m) ** 2
        m *= 2


def test_the_bound_is_tight_for_a_plane_wave_just_outside_the_window():
    # A plane wave at k_x = m/2, the first column outside the window, puts
    # all its power on one pixel there; the bound exceeds that pixel only
    # by the box's two edge terms of TV_x.
    n, m = 256, 64
    grid = Grid(n, 8e-3)
    box = (slice(96, 160), slice(64, 192))
    x = np.arange(box[1].start, box[1].stop) - n // 2
    samples = np.tile(np.exp(2j * np.pi * (m // 2) * x / n), (64, 1))
    field = ScalarField(samples, grid, 532e-9, box)
    peak = intensity(fft_far_field(field, F)).max()
    assert peak <= window_tail_bound(field, F)(m) ** 2 <= 1.05 * peak


@pytest.mark.parametrize(
    "ell, m", [(0, 64), (1, 64), (-2, 64), (3, 128), (-5, 128), (6, 256), (-8, 256), (10, 256)]
)
def test_window_chosen_at_the_reference_optics(ell, m, params, paper_aperture, default_grid):
    field = masked_box_field(default_grid, ell, paper_aperture, params)
    img, grid = render_image(field, F)
    assert img.shape == (m, m) and grid.n == m


@settings(max_examples=60, deadline=None)
@given(
    ell=st.integers(-10, 10),
    degrees=st.floats(0.0, 120.0, exclude_max=True),
    side_mm=st.floats(1.0, 4.0),
    waist_mm=st.floats(0.4, 0.6),
)
@pytest.mark.parametrize("n", [256, 512])
def test_window_reads_out_as_the_full_frame(n, ell, degrees, side_mm, waist_mm):
    grid = Grid(n, 8e-3)
    params = OpticalParams(beam_waist=waist_mm * 1e-3)
    aperture = ApertureSpec(TRIANGLE, side_mm * 1e-3, math.radians(degrees))

    def full_frame():
        mode = lg_mode(grid, ell, params.beam_waist, params.wavelength)
        far = fft_far_field(apply_mask(mode, aperture_mask(grid, aperture)), params.focal_length)
        return classify_oam(intensity(far), aperture, far.grid, params)

    window = outcome(lambda: readout_roundtrip(ell, params, grid, aperture))
    assert window == outcome(full_frame)


@pytest.mark.parametrize("swap", [False, True])
def test_rounding_noise_does_not_pick_a_tied_peak(swap):
    # two adjacent pixels equal but for the last bits: the row-major one
    # is kept whichever is larger
    grid = Grid(64, 8e-3)
    img = np.zeros((64, 64))
    img[30, 30], img[30, 31] = (1.0, 1.0 + 4e-16) if swap else (1.0 + 4e-16, 1.0)
    img[40, 40] = 0.5
    peaks = find_peaks(img, 0.3, 4 * grid.pitch, grid).peaks
    assert [(p.x, p.y) for p in peaks] == [
        (grid.coords()[30], grid.coords()[30]),
        (grid.coords()[40], grid.coords()[40]),
    ]


def test_a_readout_builds_no_full_grid_array():
    # one 1024^2 complex array is 16 MiB
    tracemalloc.start()
    try:
        assert main(["truth-table"], io.StringIO()) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
