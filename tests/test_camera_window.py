"""The readout's camera window against the full frame it stands for.

A readout synthesizes the vortex on the aperture's box alone and renders
only a centred window of the far field, as large as a total-variation
bound needs to prove that every pixel outside it is below the peak
threshold.  These tests check the pieces (box, mask, mode, matrix DFT),
the bound itself, and that a window reads out exactly as the full frame.
"The full frame" is always the zero-padded FFT of ``conftest``, never the
lens under test.  A command's ``readout.Camera`` reads a -|ell| outcome
from the point reflection of the +|ell| window; the last tests check that
it reads what the signed mode built without the camera reads, that a
camera shared by many circuits renders what a fresh one renders, and that
a superposition is rendered once per weights, never reflected and never read.
"""

from __future__ import annotations

import io
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import apply_mask, direct_readout, fft_far_field, power
from oamcnot import readout
from oamcnot.circuit import (
    Circuit,
    Detect,
    Source,
    TriangleAperture,
    format_circuit,
    parse,
    run_wave,
)
from oamcnot.cli import main
from oamcnot.interferometer import MODE_LABELS
from oamcnot.readout import (
    THRESHOLD_FRAC,
    Camera,
    ReadoutError,
    classify_oam,
    find_peaks,
    readout_roundtrip,
    render_image,
)
from oamcnot.wavefield import (
    FOCAL_LENGTH,
    FULL,
    ApertureSpec,
    Grid,
    OpticalParams,
    ScalarField,
    TRIANGLE,
    WAVELENGTH,
    aperture_box,
    aperture_mask,
    factor_tail_bound,
    far_field,
    intensity,
    lg_mode,
    point_reflect,
    window_tail_bound,
)

#: How far a mode's samples on a box may be from the whole grid's there, as
#: a fraction of the peak: the matrix product that builds the mode rounds
#: by the box's shape (1.3e-15 the largest seen for |ell| <= 10).
BOX_ROUNDING = 2e-15


def masked_box_field(grid, ell, aperture, params):
    box = aperture_box(grid, aperture)
    mode = lg_mode(grid, ell, params.beam_waist, WAVELENGTH, box)
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
        peak = np.abs(full.samples).max()
        assert np.abs(on_box.samples - full.samples[box]).max() <= BOX_ROUNDING * peak
        assert abs(power(full) - 1.0) < 1e-12

    @pytest.mark.parametrize("ell", range(11))
    def test_every_box_holds_the_whole_grids_mode_to_rounding(self, ell):
        grid = Grid(1024, 8e-3)
        full = lg_mode(grid, ell, 0.5e-3, 532e-9).samples
        peak = np.abs(full).max()
        boxes = [
            aperture_box(grid, ApertureSpec(TRIANGLE, side, math.radians(degrees)))
            for side in (1e-3, 2e-3, 3e-3)
            for degrees in (0.0, 15.0, 37.0, 90.0)
        ]
        rng = np.random.default_rng(ell)
        for _ in range(10):  # random spans of rows and columns
            rows, cols = (np.sort(rng.choice(grid.n + 1, 2, replace=False)) for axis in (0, 1))
            boxes.append((slice(*rows), slice(*cols)))
        for box in boxes:
            on_box = lg_mode(grid, ell, 0.5e-3, 532e-9, box).samples
            assert np.abs(on_box - full[box]).max() <= BOX_ROUNDING * peak, box

    def test_box_field_shape_is_checked(self):
        with pytest.raises(ValueError, match="does not match"):
            ScalarField(np.zeros((3, 4)), Grid(64, 8e-3), (slice(0, 4), slice(0, 4)))


class TestWindowTransform:
    @pytest.mark.parametrize("ell", [1, -1, 4])
    def test_window_is_the_full_frames_centre(self, ell, params):
        grid = Grid(256, 8e-3)
        field = masked_box_field(grid, ell, ApertureSpec(TRIANGLE, 2e-3, 0.4), params)
        full = fft_far_field(field)
        for m in (64, 128, 256):
            window = far_field(field, m)
            lo = grid.n // 2 - m // 2
            centre = full.samples[lo : lo + m, lo : lo + m]
            scale = np.abs(full.samples).max()
            assert np.abs(window.samples - centre).max() < 1e-12 * scale
            assert window.grid.pitch == full.grid.pitch
            assert np.array_equal(window.grid.coords(), full.grid.coords()[lo : lo + m])

    def test_every_even_window_has_the_frames_coordinates(self, params, default_grid):
        # window / m is an ulp off the frame's pitch at some widths (100,
        # 110, 200, ...), so a window carries the frame's pitch itself and its
        # coordinates are the frame's slice, bit for bit
        n = default_grid.n
        point = (slice(n // 2, n // 2 + 1),) * 2
        field = ScalarField(np.ones((1, 1)), default_grid, point)
        frame = fft_far_field(field).grid
        assert any((m * frame.pitch) / m != frame.pitch for m in range(64, n + 1, 2))
        for m in range(64, n + 1, 2):
            lo = n // 2 - m // 2
            window = far_field(field, m).grid
            assert window.coords().tobytes() == frame.coords()[lo : lo + m].tobytes(), m

    def test_window_wider_than_the_grid_is_refused(self, params):
        field = masked_box_field(Grid(128, 8e-3), 1, ApertureSpec(TRIANGLE, 2e-3), params)
        with pytest.raises(ValueError, match="exceeds"):
            far_field(field, 256)

    @pytest.mark.parametrize("case", ["unapertured vortex, 256", "masked box, 1024"])
    def test_whole_frame_is_the_fft(self, case, params):
        if case.startswith("unapertured"):
            field = lg_mode(Grid(256, 8e-3), 3, params.beam_waist, WAVELENGTH)
        else:
            grid = Grid(1024, 8e-3)
            field = masked_box_field(grid, -2, ApertureSpec(TRIANGLE, 2e-3, 0.4), params)
        full = fft_far_field(field)
        whole = far_field(field)
        scale = np.abs(full.samples).max()
        assert np.abs(whole.samples - full.samples).max() < 1e-12 * scale
        assert whole.grid == full.grid


def ring_maxima(img):
    """The largest value of an even-sided, non-negative image on each centred
    square ring: entry r (1 to m/2 for an m-wide image) over the pixels in
    the centred 2r-wide window but not in the (2r - 2)-wide one; entry 0 is 0."""
    m = img.shape[0]
    d = np.arange(m) - m // 2
    ring = np.maximum(-d, d + 1)  # the narrowest centred window holding an index is 2 ring wide
    out = np.zeros(m // 2 + 1)
    np.maximum.at(out, np.maximum.outer(ring, ring).ravel(), img.ravel())
    return out


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
    rings = ring_maxima(intensity(fft_far_field(field)))
    # beyond[r]: the largest pixel on ring r or outside it
    beyond = np.maximum.accumulate(rings[::-1])[::-1]
    bound = window_tail_bound(field)
    for m in range(64, n, 2):
        assert beyond[m // 2 + 1] <= bound(m) ** 2, m


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([256, 512]),
    ell=st.integers(-10, 10),
    side_per_waist=st.floats(1.0, 8.0),
    waist_mm=st.floats(0.4, 0.6),
    radians=st.floats(-10.0, 10.0),
)
# the reference optics, where the factor bound proves the first window for
# |ell| <= 1 and not for |ell| = 2; and the largest side, where the two are closest
@example(n=1024, ell=1, side_per_waist=4.0, waist_mm=0.5, radians=0.0)
@example(n=1024, ell=-2, side_per_waist=4.0, waist_mm=0.5, radians=0.0)
@example(n=512, ell=0, side_per_waist=8.0, waist_mm=0.52, radians=1.04)
# the summed bound just refuses the first window (bound^2 is 1.01 of the
# threshold), so a looser test of the factor bound would take it
@example(n=512, ell=1, side_per_waist=1.9054493875446403, waist_mm=0.4934466281331178,
         radians=8.47430237391469)
def test_the_cascade_proves_the_summed_bounds_window_with_the_factor_bound(
    n, ell, side_per_waist, waist_mm, radians
):
    # factor_tail_bound is never below window_tail_bound, and it holds every
    # pixel of the whole frame outside each window; so render_image, which
    # tries it on the first window before it sums the variation, picks the
    # window and image that the summed bound alone picks
    grid = Grid(n, 8e-3)
    waist = waist_mm * 1e-3
    aperture = ApertureSpec(TRIANGLE, side_per_waist * waist, radians)
    box = aperture_box(grid, aperture)
    field = lg_mode(grid, ell, waist, WAVELENGTH, box, aperture_mask(grid, aperture, box))
    factor, summed = factor_tail_bound(grid, ell, waist, box), window_tail_bound(field)
    frame = intensity(fft_far_field(field))
    beyond = np.maximum.accumulate(ring_maxima(frame)[::-1])[::-1]
    for m in range(64, n, 2):
        assert factor(m) >= summed(m), m
        assert beyond[m // 2 + 1] <= factor(m) ** 2, m
    img, far_grid = render_image(field, factor)
    alone, alone_grid = render_image(field)
    assert far_grid == alone_grid and np.array_equal(img, alone)
    if factor(64) ** 2 * (1.0 + 1e-9) < THRESHOLD_FRAC * img.max():
        assert far_grid.n == 64
        assert beyond[33] < THRESHOLD_FRAC * frame.max()


def test_the_factor_bound_is_the_summed_one_for_a_gaussian_on_the_whole_grid(params):
    # With no mask and one factor (ell = 0) each step of the factor bound
    # is an equality: the two differ only by rounding.
    grid = Grid(256, 8e-3)
    field = lg_mode(grid, 0, params.beam_waist, WAVELENGTH)
    factor = factor_tail_bound(grid, 0, params.beam_waist)(64)
    assert abs(factor - window_tail_bound(field)(64)) <= 1e-14 * factor


def test_the_factor_bound_refuses_what_the_mode_refuses(params):
    with pytest.raises(ValueError, match="exceeds the supported range"):
        factor_tail_bound(Grid(256, 8e-3), 11, params.beam_waist)


def test_the_bound_is_tight_for_a_plane_wave_just_outside_the_window():
    # A plane wave at k_x = m/2, the first column outside the window, puts
    # all its power on one pixel there; the bound exceeds that pixel only
    # by the box's two edge terms of TV_x.
    n, m = 256, 64
    grid = Grid(n, 8e-3)
    box = (slice(96, 160), slice(64, 192))
    x = np.arange(box[1].start, box[1].stop) - n // 2
    samples = np.tile(np.exp(2j * np.pi * (m // 2) * x / n), (64, 1))
    field = ScalarField(samples, grid, box)
    peak = intensity(fft_far_field(field)).max()
    assert peak <= window_tail_bound(field)(m) ** 2 <= 1.05 * peak


def direct_tail_bound(field, m):
    """``window_tail_bound(field)(m)`` with each axis's variation summed
    over the whole box at once: one ``np.diff`` of the samples per axis."""
    f = field.samples
    variation = max(
        np.abs(np.diff(f, axis=axis)).sum() + np.abs(f.take([0, -1], axis=axis)).sum()
        for axis in (0, 1)
    )
    scale = field.grid.pitch**2 / (WAVELENGTH * FOCAL_LENGTH)
    return scale * variation / (2.0 * math.sin(math.pi * m / (2 * field.grid.n)))


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("degrees", [0.0, 37.0, 90.0, 211.5])
def test_the_blocked_bound_is_the_whole_box_sum(n, degrees, params):
    # a 1024^2 box at 2 mm spans several blocks of rows, a 256^2 one a single block
    aperture = ApertureSpec(TRIANGLE, 2e-3, math.radians(degrees))
    for ell in range(-10, 11):
        field = masked_box_field(Grid(n, 8e-3), ell, aperture, params)
        for m in (64, n // 2, n):
            want = direct_tail_bound(field, m)
            assert abs(window_tail_bound(field)(m) - want) <= 1e-15 * want, (ell, m)


@pytest.mark.parametrize("layout", ["row-major", "column-major"])
def test_blocks_with_a_short_last_one_sum_every_difference(layout):
    # 130 rows of 1000 samples are 8 blocks of 16 rows and one of 2; a
    # column-major box is summed on its transpose, 1000 rows of 130
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(130, 1000)) + 1j * rng.normal(size=(130, 1000))
    if layout == "column-major":
        samples = np.asfortranarray(samples)
    field = ScalarField(samples, Grid(1024, 8e-3), (slice(40, 170), slice(12, 1012)))
    want = direct_tail_bound(field, 64)
    assert abs(window_tail_bound(field)(64) - want) <= 1e-15 * want


@pytest.mark.parametrize("ell", [1, 8])
def test_the_bound_allocates_less_than_the_box(ell, params, default_grid):
    # whole-box differences and their magnitudes took 1.5 times the box
    aperture = ApertureSpec(TRIANGLE, 2e-3, math.radians(37.0))
    field = masked_box_field(default_grid, ell, aperture, params)
    tracemalloc.start()
    try:
        window_tail_bound(field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < field.samples.nbytes


@pytest.mark.parametrize(
    "ell, m", [(0, 64), (1, 64), (-2, 64), (3, 76), (-5, 124), (6, 132), (-8, 146), (10, 166)]
)
def test_window_chosen_at_the_reference_optics(ell, m, params, paper_aperture, default_grid):
    field = masked_box_field(default_grid, ell, paper_aperture, params)
    img, grid = render_image(field)
    assert img.shape == (m, m) and grid.n == m


def counting_windows(monkeypatch):
    """The width of every window ``render_image`` renders, in order."""
    widths = []
    real = readout.far_field

    def wrapper(field, m=None):
        widths.append(m)
        return real(field, m)

    monkeypatch.setattr(readout, "far_field", wrapper)
    return widths


def test_a_wide_window_skips_the_widths_the_first_rules_out(
    monkeypatch, params, paper_aperture, default_grid
):
    # at the reference optics |ell| = 8 fails at 64 pixels, and every even
    # width up to 144 fails against the 64-pixel window's maximum, so the
    # second window rendered is the last: 146, not the next power of two
    widths = counting_windows(monkeypatch)
    render_image(masked_box_field(default_grid, 8, paper_aperture, params))
    assert widths == [64, 146]


def doubling_width(field):
    """The narrowest of 64, 128, ... that passes the acceptance test against
    its own maximum, every narrower one rendered and refused."""
    bound = window_tail_bound(field)
    m = 64
    while m < field.grid.n:
        top = THRESHOLD_FRAC * float(intensity(far_field(field, m)).max())
        if bound(m) ** 2 * (1.0 + 1e-9) < top:
            break
        m *= 2
    return m


def narrowest_passing_width(field, widest):
    """The narrowest even width from 64 to ``widest`` whose window passes the
    acceptance test against its own maximum, every one of them tried, or
    None.  Each window's maximum is that of its centred rings in one
    ``widest``-wide window, which holds them all."""
    bound = window_tail_bound(field)
    within = np.maximum.accumulate(ring_maxima(intensity(far_field(field, widest))))
    for m in range(64, widest + 1, 2):
        if bound(m) ** 2 * (1.0 + 1e-9) < THRESHOLD_FRAC * within[m // 2]:
            return m
    return None


@pytest.mark.parametrize("ell", range(-10, 11))
def test_the_window_is_the_narrowest_passing_even_width_in_at_most_two_renders(
    monkeypatch, ell, params, default_grid
):
    # the window render_image takes, straight after the first, is the
    # narrowest even width that passes against its own maximum
    widths = counting_windows(monkeypatch)
    for degrees in range(0, 120, 10):
        aperture = ApertureSpec(TRIANGLE, 2e-3, math.radians(degrees))
        field = masked_box_field(default_grid, ell, aperture, params)
        widths.clear()
        m = render_image(field)[1].n
        assert widths == ([64] if m == 64 else [64, m]), degrees
        assert narrowest_passing_width(field, m) == m, degrees


def test_a_window_whose_maximum_lies_past_the_first_still_holds_every_spot():
    # A dim spot on the axis and a bright one at k_x = 40, outside the
    # first window: the first window's maximum is the dim spot's, so the
    # skip takes a window wider than the doubling rule's.  The window it
    # returns still passes the acceptance test against its own maximum,
    # which is the bright spot's, and nothing outside it reaches threshold.
    n = 1024
    grid = Grid(n, 8e-3)
    box = (slice(384, 640), slice(384, 640))
    x = np.arange(384, 640) - n // 2
    envelope = np.exp(-((x[:, None] / 40.0) ** 2) - (x[None, :] / 40.0) ** 2)
    samples = envelope * (0.5 + np.exp(2j * np.pi * 40 * x[None, :] / n))
    field = ScalarField(samples, grid, box)
    frame = intensity(fft_far_field(field))
    top, centre = frame.max(), frame[n // 2 - 32 : n // 2 + 32, n // 2 - 32 : n // 2 + 32]
    assert centre.max() < top

    img, far_grid = render_image(field)
    m = far_grid.n
    assert doubling_width(field) < m < n
    assert window_tail_bound(field)(m) ** 2 * (1.0 + 1e-9) < THRESHOLD_FRAC * img.max()
    assert abs(img.max() - top) < 1e-12 * top
    outside = frame.copy()
    outside[n // 2 - m // 2 : n // 2 + m // 2, n // 2 - m // 2 : n // 2 + m // 2] = 0.0
    assert outside.max() < THRESHOLD_FRAC * top


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
        mode = lg_mode(grid, ell, params.beam_waist, WAVELENGTH)
        far = fft_far_field(apply_mask(mode, aperture_mask(grid, aperture)))
        return classify_oam(intensity(far), aperture, far.grid)

    window = outcome(lambda: readout_roundtrip(ell, params, grid, aperture))
    assert window == outcome(full_frame)


@pytest.mark.parametrize("ell, degrees", [(4, 0.0), (6, 15.0), (7, 0.0), (8, 0.0)])
def test_a_window_two_off_a_multiple_of_four_reflects_to_the_negated_read(
    ell, degrees, params, default_grid
):
    # A window 2 off a multiple of four has an odd half-width m/2.  The
    # -|ell| read, from the point reflection of the +|ell| window, is still
    # the +|ell| read negated, with the same score magnitude.
    camera = Camera(default_grid, params)
    aperture = ApertureSpec(TRIANGLE, 2e-3, math.radians(degrees))

    def read(charge):
        img, far_grid = camera.image(aperture, charge)
        assert far_grid.n % 4 == 2
        return classify_oam(img, aperture, far_grid)

    plus, minus = read(ell), read(-ell)
    assert minus.topological_charge == -plus.topological_charge == -ell
    assert minus.orientation_score == -plus.orientation_score


@pytest.mark.parametrize("swap", [False, True])
def test_rounding_noise_does_not_pick_a_tied_peak(swap):
    # two adjacent pixels equal but for the last bits: the row-major one
    # is kept whichever is larger
    grid = Grid(64, 8e-3)
    img = np.zeros((64, 64))
    img[30, 30], img[30, 31] = (1.0, 1.0 + 4e-16) if swap else (1.0 + 4e-16, 1.0)
    img[40, 40] = 0.5
    peaks = find_peaks(img, 0.3, 4 * grid.pitch, grid).peaks
    assert peaks[:, :2].tolist() == [
        [grid.coords()[30], grid.coords()[30]],
        [grid.coords()[40], grid.coords()[40]],
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


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([256, 512]),
    side_mm=st.floats(1.0, 4.0),
    waist_mm=st.floats(0.4, 0.6),
    degrees=st.floats(0.0, 120.0, exclude_max=True),
    ell=st.integers(0, 10),
)
@example(n=1024, side_mm=2.0, waist_mm=0.5, degrees=0.0, ell=1)
@example(n=1024, side_mm=2.0, waist_mm=0.5, degrees=71.3, ell=8)
@example(n=1024, side_mm=1.0, waist_mm=0.5, degrees=20.0, ell=10)
@example(n=256, side_mm=1.0, waist_mm=0.4, degrees=15.0, ell=10)
def test_an_accepted_window_has_its_wrapped_edge_below_threshold(
    n, side_mm, waist_mm, degrees, ell
):
    # The point reflection of a window maps row and column 0 (k = -m/2)
    # onto themselves, so they are the one edge where the reflected +|ell|
    # window and the -|ell| window differ.  Every narrower window that
    # render_image accepts holds no peak candidate there, and off that
    # edge the two agree to rounding.  The whole frame (m = n) is periodic:
    # its reflection wraps exactly.
    grid = Grid(n, 8e-3)
    params = OpticalParams(beam_waist=waist_mm * 1e-3)
    aperture = ApertureSpec(TRIANGLE, side_mm * 1e-3, math.radians(degrees))
    plus, far_grid = render_image(masked_box_field(grid, ell, aperture, params))
    minus, minus_grid = render_image(masked_box_field(grid, -ell, aperture, params))
    assert minus_grid == far_grid
    top = float(plus.max())
    if far_grid.n < n:
        for img in (plus, minus):
            assert img[0].max() < THRESHOLD_FRAC * img.max()
            assert img[:, 0].max() < THRESHOLD_FRAC * img.max()
        off_edge = (slice(1, None), slice(1, None))
    else:
        off_edge = (slice(None), slice(None))
    assert np.abs(point_reflect(plus)[off_edge] - minus[off_edge]).max() < 1e-12 * top


def reading(fn):
    """A readout's signed charge and its orientation score to 9 decimals, as
    reports print it, or its error's type and message."""
    try:
        result = fn()
    except (ReadoutError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return result.topological_charge, f"{result.orientation_score:.9f}"


def counting_modes(monkeypatch):
    calls = []
    real = readout.lg_mode

    def wrapper(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(readout, "lg_mode", wrapper)
    return calls


#: 15 + 30k degrees, where a mirror symmetry makes spots tie, and orientations away from it.
ON_TIES = (15.0, 45.0, 105.0)
OFF_TIES = (0.0, 37.0, 71.3, 118.2)


@pytest.mark.parametrize(
    "n, ell, degrees",
    [
        *((256, ell, degrees) for ell in range(1, 9) for degrees in OFF_TIES + ON_TIES),
        (1024, 1, 0.0),
        (1024, 2, 15.0),
        (1024, 5, 37.0),
        (1024, 8, 71.3),
    ],
)
def test_camera_reads_the_reflected_window_as_the_one_shot_readout(
    monkeypatch, n, ell, degrees, params
):
    grid = Grid(n, 8e-3)
    aperture = TriangleAperture(2.0, degrees)
    camera = Camera(grid, params)
    modes = counting_modes(monkeypatch)
    for charge in (ell, -ell):
        source = Circuit((Source("H", charge), aperture, Detect()))
        got = reading(lambda: run_wave(source, camera).outcomes[0].readout)
        assert got == reading(lambda: direct_readout(charge, params, grid, aperture.spec))
    # -ell was read from the reflection of the +ell window
    assert modes == [ell]


@pytest.mark.parametrize(
    "n, ell, degrees, angle",
    [(256, 1, 0.0, 5.0), (256, 2, 37.0, 3.0), (256, 3, 15.0, 10.0), (1024, 1, 0.0, 5.0)],
)
def test_camera_renders_a_superposition_from_both_modes(n, ell, degrees, angle, params):
    # An HWP after the CNOT leaves each polarization outcome with both
    # OAM signs.  The camera has rendered the pure +ell window first, and
    # must not give it for the superposition, which run_wave does not read.
    grid = Grid(n, 8e-3)
    aperture = TriangleAperture(2.0, degrees)
    camera = Camera(grid, params)
    pure = run_wave(Circuit((Source("H", ell), aperture, Detect())), camera)
    assert pure.outcomes[0].readout.topological_charge == ell
    text = (
        f"SOURCE pol=D oam={ell}\nMZI_CNOT\nHWP angle={angle}\n"
        f"TRIAPERTURE side=2 orientation={degrees}\nDETECT"
    )
    wave = run_wave(parse(text), camera)
    assert [o.axis.value for o in wave.outcomes] == ["H", "V"]
    box = aperture_box(grid, aperture.spec)
    mask = aperture_mask(grid, aperture.spec, box)
    plus, minus = (
        lg_mode(grid, sign * ell, params.beam_waist, WAVELENGTH, box).samples
        for sign in (1, -1)
    )
    for wave_outcome in wave.outcomes:
        amps = wave.logical.final_state.amplitudes.reshape(2, 2)
        chi = wave_outcome.axis.jones.conj() @ amps
        w_plus, w_minus = chi / np.linalg.norm(chi)
        assert w_plus != 0 and w_minus != 0 and wave_outcome.expected is None
        field = ScalarField(w_plus * plus + w_minus * minus, grid, box)
        img, far_grid = render_image(apply_mask(field, mask))
        got, got_grid = camera.image(aperture.spec, ell, (w_plus, w_minus))
        assert got.tobytes() == img.tobytes() and got_grid == far_grid
        assert wave_outcome.readout is None


def lens_inputs(monkeypatch):
    """The samples of every field the camera hands the lens, in order."""
    fields = []
    real = readout.far_field

    def wrapper(field, m=None):
        fields.append(field.samples)
        return real(field, m)

    monkeypatch.setattr(readout, "far_field", wrapper)
    return fields


@pytest.mark.parametrize("frame", [False, True])
@pytest.mark.parametrize("weights", [None, (0.6, 0.8j)])
@pytest.mark.parametrize("ell", [0, 1, 3, 8])
def test_the_camera_masks_the_mode_in_place(monkeypatch, ell, weights, frame, params):
    # The mask is multiplied into lg_mode's samples before they are frozen:
    # for one mode the very bits of mask * lg_mode, for a superposition the
    # values of mask * (w+ lg_mode(+|ell|) + w- lg_mode(-|ell|)).
    grid = Grid(256, 8e-3)
    aperture = ApertureSpec(TRIANGLE, 2e-3, math.radians(37.0))
    fields = lens_inputs(monkeypatch)
    Camera(grid, params).image(aperture, ell, weights, frame=frame)
    box = aperture_box(grid, aperture)
    mask = aperture_mask(grid, aperture, box)
    plus, minus = (
        lg_mode(grid, sign * ell, params.beam_waist, WAVELENGTH, box).samples
        for sign in (1, -1)
    )
    assert fields
    for samples in fields:
        if weights is None:
            assert samples.tobytes() == (plus * mask).tobytes()
        else:
            assert np.array_equal(samples, (weights[0] * plus + weights[1] * minus) * mask)


@pytest.mark.parametrize("degrees", [1e19, -1e19, 1.23e8])
def test_an_orientation_of_any_size_reads_the_charge(degrees, params):
    # At a huge angle the three vertex angles round onto one value, and the
    # mask would fill the grid; TRIAPERTURE reduces the angle modulo 120
    # degrees, the triangle's symmetry, before it takes radians.
    assert 0.0 <= TriangleAperture(2.0, degrees).spec.orientation < 2.0 * math.pi / 3.0
    camera = Camera(Grid(256, 8e-3), params)
    for ell in (1, -1, 3, -3):
        circ = parse(f"SOURCE pol=H oam={ell}\nTRIAPERTURE side=2 orientation={degrees}\nDETECT")
        (only,) = run_wave(circ, camera).outcomes
        assert only.readout.topological_charge == ell


@pytest.mark.parametrize("radians", [1e17, -1e17, 1e300])
def test_an_aperture_at_any_orientation_in_radians_keeps_its_triangle(radians, params):
    # ApertureSpec keeps the angle modulo 2 pi / 3 with the exact math.fmod;
    # unreduced, 1e17 rad rounded the vertex angles onto one value, a 4-pixel mask
    aperture = ApertureSpec(TRIANGLE, 2e-3, radians)
    assert abs(aperture.orientation) < 2.0 * math.pi / 3.0
    assert ApertureSpec(TRIANGLE, 2e-3, -2.0).orientation == -2.0
    grid = Grid(256, 8e-3)
    # the triangle's area is 1773.6 pixels
    assert abs(aperture_mask(grid, aperture, FULL).sum() - 1773.6) < 2
    camera = Camera(grid, params)
    for ell in (1, -3):
        assert camera.read(aperture, ell).topological_charge == ell


#: (side mm, orientation degrees) of the apertures drawn, so that draws repeat
SHARED_APERTURES = ((2.0, 0.0), (2.0, 37.0), (1.5, 0.0))


def random_circuit(rng: random.Random) -> Circuit:
    ell = rng.randint(-4, 4)
    lines = [f"SOURCE pol={rng.choice('HVDA')} oam={ell}"]
    for _ in range(rng.randint(0, 3)):
        kind = rng.choice(("HWP", "MZI_CNOT", "POLARIZER"))
        if kind == "HWP":
            lines.append(f"HWP angle={rng.choice((22.5, 45, 10, 3))}")
        elif kind == "MZI_CNOT" and ell != 0:
            lines.append(f"MZI_CNOT mode={rng.choice(MODE_LABELS)}")
        elif kind == "POLARIZER":
            lines.append(f"POLARIZER {rng.choice('HV')}")
    if rng.random() < 0.85:
        side, degrees = rng.choice(SHARED_APERTURES)
        lines.append(f"TRIAPERTURE side={side} orientation={degrees}")
    if rng.random() < 0.7:
        lines.append("DETECT")
    return parse("\n".join(lines))


def rendered(circ, camera, full_frame):
    """Each outcome's axis, probability, readout repr, expected charge and
    written image bytes, or the run's error."""
    try:
        wave = run_wave(circ, camera, full_frame=full_frame)
    except (ReadoutError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return [
        (
            o.axis,
            o.probability,
            repr(o.readout),
            o.expected,
            None if o.intensity_map is None else o.intensity_map.tobytes(),
        )
        for o in wave.outcomes
    ]


@pytest.mark.parametrize("seed", range(16))
def test_a_shared_camera_renders_as_a_fresh_one(seed, params):
    # What one circuit leaves in a command's camera (a window, a frame, a
    # mask) must not change what the next circuit reads or writes.
    rng = random.Random(seed)
    grid = Grid(128, 8e-3)
    shared = Camera(grid, params)
    for _ in range(32):
        circ = random_circuit(rng)
        full_frame = rng.random() < 0.5
        got = rendered(circ, shared, full_frame)
        assert got == rendered(circ, Camera(grid, params), full_frame), format_circuit(circ)
        if isinstance(got, str):  # the run was refused
            continue
        # read exactly when the circuit reads out and the outcome names one mode
        reads_out = None not in (circ.first_of(TriangleAperture), circ.first_of(Detect))
        for _, _, readout_repr, expected, _ in got:
            assert (readout_repr == "None") == (not reads_out or expected is None)


@pytest.mark.parametrize("frame", [False, True])
@pytest.mark.parametrize("weights", [None, (0.6, 0.8j)])
@pytest.mark.parametrize("ell", [2, -2])
def test_every_image_the_camera_returns_is_read_only(ell, weights, frame, params, paper_aperture):
    # Outcomes of one key share a cached image, so no outcome's image may
    # be written into: not the cached +|ell| one, its reflection or a
    # superposition.
    camera = Camera(Grid(128, 8e-3), params)
    for _ in range(2):  # rendered, then read back
        img, _ = camera.image(paper_aperture, ell, weights, frame=frame)
        assert not img.flags.writeable
        with pytest.raises(ValueError):
            img[0, 0] = 1.0


def test_a_superposition_is_rendered_once_per_weights_and_frame(
    monkeypatch, params, paper_aperture
):
    # A superposition is kept under its weights, as a pure mode is under
    # its |ell|: asked for again, on the window or the frame, it is the
    # same read-only array, and other weights are a new render.
    camera = Camera(Grid(128, 8e-3), params)
    modes = counting_modes(monkeypatch)
    for frame in (False, True):
        first, _ = camera.image(paper_aperture, 2, (0.6, 0.8j), frame=frame)
        again, _ = camera.image(paper_aperture, 2, (0.6, 0.8j), frame=frame)
        assert again is first and not first.flags.writeable
    assert modes == [2, 2]
    camera.image(paper_aperture, 2, (0.8, 0.6j))
    assert modes == [2, 2, 2]


@pytest.mark.parametrize("frame", [False, True])
def test_a_superposition_ignores_the_sign_of_ell(frame, params, paper_aperture):
    # the weights say how much of each sign the outcome holds, so -|ell| is
    # rendered as +|ell| and never reflected, on a fresh camera each
    grid = Grid(128, 8e-3)
    plus, plus_grid = Camera(grid, params).image(paper_aperture, 2, (0.6, 0.8j), frame=frame)
    minus, minus_grid = Camera(grid, params).image(paper_aperture, -2, (0.6, 0.8j), frame=frame)
    assert minus.tobytes() == plus.tobytes() and minus_grid == plus_grid
