import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import apply_mask, circle_field, matrix_far_field, mesh, power
from oamcnot import wavefield
from oamcnot.wavefield import (
    FOCAL_LENGTH,
    FULL,
    MAX_CHARGE,
    ApertureSpec,
    Grid,
    OpticalParams,
    ScalarField,
    TRIANGLE,
    WAVELENGTH,
    aperture_box,
    aperture_mask,
    far_field,
    intensity,
    lg_mode,
    point_reflect,
)

LAM, F, W0 = 532e-9, 0.30, 0.5e-3


def random_field(rng, grid):
    samples = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal(
        (grid.n, grid.n)
    )
    return ScalarField(samples, grid)


def radial_profile(img, grid, bin_px=1.0):
    x, y = mesh(grid)
    r = np.hypot(x, y)
    width = bin_px * grid.pitch
    idx = np.round(r / width).astype(int)
    counts = np.bincount(idx.ravel())
    prof = np.bincount(idx.ravel(), img.ravel()) / np.maximum(counts, 1)
    return prof, width


def polar_lg_mode(grid, ell, waist):
    """The vortex mode's closed form in polar coordinates, unit power."""
    x, y = mesh(grid)
    r = np.hypot(x, y)
    field = (r * np.sqrt(2.0) / waist) ** abs(ell) * np.exp(-((r / waist) ** 2))
    field = field * np.exp(1j * ell * np.arctan2(y, x))
    return field / np.sqrt(np.sum(np.abs(field) ** 2) * grid.pitch**2)


def meshgrid_mask(grid, aperture):
    """The triangle's edge inequalities evaluated on full-grid coordinate meshes."""
    x, y = mesh(grid)
    circumradius = aperture.size / np.sqrt(3.0)
    angles = aperture.orientation + np.pi / 2.0 + 2.0 * np.pi * np.arange(3) / 3.0
    vx, vy = circumradius * np.cos(angles), circumradius * np.sin(angles)
    inside = np.ones(x.shape, dtype=bool)
    for k in range(3):
        x1, y1, x2, y2 = vx[k], vy[k], vx[(k + 1) % 3], vy[(k + 1) % 3]
        inside &= (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0.0
    return inside.astype(float)


class TestGrid:
    def test_pitch_and_coords(self):
        grid = Grid(128, 8e-3)
        assert grid.pitch == 8e-3 / 128
        coords = grid.coords()
        assert coords[64] == 0.0
        assert coords[0] == -64 * grid.pitch

    @pytest.mark.parametrize("n", [32, 63, 100, 1000])
    def test_bad_sizes_rejected(self, n):
        with pytest.raises(ValueError, match="power of two"):
            Grid(n, 8e-3)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            Grid(128, 0.0)


def test_the_beam_waist_is_the_one_optic_to_set(fast_grid):
    # the wavelength and the lens are the paper's, WAVELENGTH and FOCAL_LENGTH
    assert [f.name for f in dataclasses.fields(OpticalParams)] == ["beam_waist"]
    with pytest.raises(ValueError, match="beam_waist must be positive"):
        OpticalParams(beam_waist=0.0)
    # a field carries no wavelength, and a mode is built at WAVELENGTH alone
    assert [f.name for f in dataclasses.fields(ScalarField)] == ["samples", "grid", "box"]
    with pytest.raises(ValueError, match="wavelength is fixed"):
        lg_mode(fast_grid, 1, W0, 633e-9)


class TestScalarField:
    def test_complex_array_is_frozen_not_copied(self, fast_grid):
        samples = np.ones((fast_grid.n, fast_grid.n), dtype=complex)
        field = ScalarField(samples, fast_grid)
        assert field.samples is samples
        assert not samples.flags.writeable

    def test_other_input_is_converted(self, fast_grid):
        samples = np.ones((fast_grid.n, fast_grid.n))
        field = ScalarField(samples, fast_grid)
        assert field.samples.dtype == complex and not field.samples.flags.writeable
        assert samples.flags.writeable


class TestLgMode:
    def test_center_null_for_nonzero_charge(self, fast_grid):
        field = lg_mode(fast_grid, 1, W0, LAM)
        c = fast_grid.n // 2
        assert abs(field.samples[c, c]) == 0.0

    @pytest.mark.parametrize("ell", [-3, 0, 1, 5])
    def test_unit_power(self, fast_grid, ell):
        assert abs(power(lg_mode(fast_grid, ell, W0, LAM)) - 1.0) < 1e-12

    def test_phase_winding(self, fast_grid):
        # total phase accumulated once around the axis is 2*pi*ell
        field = lg_mode(fast_grid, 2, W0, LAM)
        angles = np.linspace(0.0, 2.0 * np.pi, 721)
        ix = np.round(W0 * np.cos(angles) / fast_grid.pitch).astype(int)
        iy = np.round(W0 * np.sin(angles) / fast_grid.pitch).astype(int)
        c = fast_grid.n // 2
        phase = np.unwrap(np.angle(field.samples[c + iy, c + ix]))
        total = phase[-1] - phase[0]
        assert abs(total - 4.0 * np.pi) / (4.0 * np.pi) < 0.01

    def test_opposite_charges_are_conjugates(self, fast_grid):
        plus = lg_mode(fast_grid, 3, W0, LAM)
        minus = lg_mode(fast_grid, -3, W0, LAM)
        assert np.array_equal(minus.samples, plus.samples.conj())

    @pytest.mark.parametrize("ell", range(MAX_CHARGE + 1))
    def test_opposite_charges_are_exact_conjugates_on_an_aperture_box(self, ell, default_grid):
        # the camera reads -|ell| from the point reflection of the +|ell| image
        box = aperture_box(default_grid, ApertureSpec(TRIANGLE, 2e-3, np.radians(37.0)))
        plus = lg_mode(default_grid, ell, W0, LAM, box)
        minus = lg_mode(default_grid, -ell, W0, LAM, box)
        assert np.array_equal(minus.samples, plus.samples.conj())

    def test_samples_and_mask_are_column_major_and_masked_in_place(self, default_grid):
        # the lens reads the column-major samples' transpose without a copy
        aperture = ApertureSpec(TRIANGLE, 2e-3, np.radians(37.0))
        box = aperture_box(default_grid, aperture)
        mask = aperture_mask(default_grid, aperture, box)
        assert mask.dtype == bool and mask.flags.f_contiguous
        masked = lg_mode(default_grid, 3, W0, LAM, box, mask)
        assert masked.samples.flags.f_contiguous and not masked.samples.flags.writeable
        unmasked = lg_mode(default_grid, 3, W0, LAM, box)
        assert masked.samples.tobytes() == apply_mask(unmasked, mask).samples.tobytes()
        # a mask that would broadcast against the box is refused, not broadcast
        with pytest.raises(ValueError, match="does not match"):
            lg_mode(default_grid, 3, W0, LAM, box, mask[0])

    @pytest.mark.parametrize(
        "n, ell",
        [(256, ell) for ell in range(-10, 11)] + [(1024, ell) for ell in (-8, -1, 1, 8)],
    )
    def test_matches_polar_closed_form(self, n, ell):
        grid = Grid(n, 8e-3)
        want = polar_lg_mode(grid, ell, W0)
        got = lg_mode(grid, ell, W0, LAM).samples
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_the_kept_factors_are_those_of_the_grids_pitch(self):
        # lg_mode keeps the last mode's whole-grid factors by n and pitch:
        # a window's step, which Grid equality leaves out, is another key
        grid = Grid(256, 8e-3)
        window = Grid(256, 8e-3, step=np.nextafter(grid.pitch, 1.0))
        wavefield._grid_factors.cache_clear()
        on_grid = lg_mode(grid, 2, W0, LAM).samples
        on_window = lg_mode(window, 2, W0, LAM).samples
        assert not np.array_equal(on_window, on_grid)
        wavefield._grid_factors.cache_clear()
        assert np.array_equal(lg_mode(window, 2, W0, LAM).samples, on_window)

    def test_waist_bounds_reported(self, fast_grid):
        with pytest.raises(ValueError) as err:
            lg_mode(fast_grid, 1, 1e-8, LAM)
        message = str(err.value)
        assert f"{4 * fast_grid.pitch:g}" in message
        assert f"{fast_grid.window / 4:g}" in message
        with pytest.raises(ValueError):
            lg_mode(fast_grid, 1, fast_grid.window, LAM)

    def test_charge_range_enforced(self, fast_grid):
        with pytest.raises(ValueError, match="supported range"):
            lg_mode(fast_grid, 11, W0, LAM)

    @pytest.mark.parametrize(
        "wavelength",
        [633e-9, np.nextafter(WAVELENGTH, 1.0), 0.0, -WAVELENGTH, float("nan")],
    )
    def test_any_other_wavelength_is_refused(self, fast_grid, wavelength):
        # the nearest float above 532 nm is refused as 633 nm is, and so are
        # the zero, negative and NaN wavelengths a positivity check once refused
        with pytest.raises(ValueError, match="wavelength is fixed at 5.32e-07 m"):
            lg_mode(fast_grid, 1, W0, wavelength)


class TestApertureMask:
    def test_triangle_area(self):
        grid = Grid(1024, 8e-3)
        side = 2e-3
        mask = aperture_mask(grid, ApertureSpec(TRIANGLE, side))
        area_frac = mask.sum() / grid.n**2
        exact = (np.sqrt(3.0) / 4.0) * side**2 / grid.window**2
        tolerance = 2.0 * 3.0 * side * grid.pitch / grid.window**2
        assert abs(area_frac - exact) < tolerance

    @pytest.mark.parametrize(
        "aperture",
        [ApertureSpec(TRIANGLE, 2e-3, np.radians(deg)) for deg in (0.0, 15.0, 37.3, 90.0)]
        # at 15 + 30k degrees an edge runs along a grid axis, so pixel
        # centres lie on it and the >= comparison decides them
        + [
            ApertureSpec(TRIANGLE, 2e-3, np.radians(15.0 + 30.0 * k + d))
            for k in range(4)
            for d in (-0.05, 0.0, 0.05)
        ],
    )
    def test_matches_meshgrid_reference(self, aperture):
        grid = Grid(1024, 8e-3)
        want = meshgrid_mask(grid, aperture)
        assert np.array_equal(aperture_mask(grid, aperture), want)
        box = aperture_box(grid, aperture)
        assert np.array_equal(aperture_mask(grid, aperture, box), want[box])

    def test_half_turn_is_point_reflection(self, fast_grid):
        mask0 = aperture_mask(fast_grid, ApertureSpec(TRIANGLE, 2e-3, 0.0))
        mask_pi = aperture_mask(fast_grid, ApertureSpec(TRIANGLE, 2e-3, np.pi))
        assert np.array_equal(mask_pi, point_reflect(mask0))

    def test_full_turn_by_thirds_is_identity(self, fast_grid):
        mask0 = aperture_mask(fast_grid, ApertureSpec(TRIANGLE, 2e-3, 0.3))
        mask120 = aperture_mask(
            fast_grid, ApertureSpec(TRIANGLE, 2e-3, 0.3 + 2.0 * np.pi / 3.0)
        )
        assert np.array_equal(mask0, mask120)

    def test_oversized_rejected(self, fast_grid):
        with pytest.raises(ValueError, match="fit"):
            aperture_mask(fast_grid, ApertureSpec(TRIANGLE, 8e-3))

    def test_bad_spec_rejected(self):
        for shape in ("hexagon", "circle"):
            with pytest.raises(ValueError, match="shape"):
                ApertureSpec(shape, 1e-3)
        with pytest.raises(ValueError, match="positive"):
            ApertureSpec(TRIANGLE, 0.0)
        # refused when built, not when a mask is rendered from it
        for orientation in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="orientation"):
                ApertureSpec(TRIANGLE, 2e-3, orientation)


class TestApplyMask:
    def test_identity_mask(self, rng, fast_grid):
        field = random_field(rng, fast_grid)
        out = apply_mask(field, np.ones((fast_grid.n, fast_grid.n)))
        assert np.array_equal(out.samples, field.samples)

    def test_zero_mask(self, rng, fast_grid):
        field = random_field(rng, fast_grid)
        out = apply_mask(field, np.zeros((fast_grid.n, fast_grid.n)))
        assert power(out) == 0.0

    def test_partial_transmission(self, fast_grid):
        field = lg_mode(fast_grid, 1, W0, LAM)
        mask = aperture_mask(fast_grid, ApertureSpec(TRIANGLE, 2e-3))
        transmitted = power(apply_mask(field, mask))
        assert 0.0 < transmitted < 1.0

    def test_shape_mismatch_rejected(self, rng, fast_grid):
        field = random_field(rng, fast_grid)
        with pytest.raises(ValueError, match="does not match"):
            apply_mask(field, np.ones((8, 8)))


class TestFarField:
    def test_parseval(self, rng, fast_grid):
        for _ in range(20):
            field = random_field(rng, fast_grid)
            ratio = power(far_field(field)) / power(field)
            assert abs(ratio - 1.0) < 1e-10

    def test_output_grid_scaling(self, fast_grid):
        out = far_field(lg_mode(fast_grid, 0, W0, LAM))
        assert out.grid.n == fast_grid.n
        assert abs(out.grid.pitch - LAM * F / fast_grid.window) < 1e-18

    def test_gaussian_waist(self, default_grid):
        # the centred 128-pixel window holds the spot out to 12 waists
        out = far_field(lg_mode(default_grid, 0, W0, LAM), 128)
        img = intensity(out)
        x, y = mesh(out.grid)
        w_measured = np.sqrt(2.0 * np.sum(img * (x**2 + y**2)) / np.sum(img))
        w_predicted = LAM * F / (np.pi * W0)
        assert abs(w_measured - w_predicted) < out.grid.pitch

    def test_airy_first_zero(self):
        grid = Grid(1024, 16e-3)
        d = 1e-3
        out = far_field(circle_field(grid, d))
        prof, width = radial_profile(intensity(out), out.grid)
        k = int(np.argmax(prof))
        while k + 1 < len(prof) and prof[k + 1] < prof[k]:
            k += 1
        a, b, c = prof[k - 1], prof[k], prof[k + 1]
        r_zero = (k + 0.5 * (a - c) / (a - 2.0 * b + c)) * width
        r_predicted = 1.22 * LAM * F / d
        assert abs(r_zero - r_predicted) / r_predicted < 0.02

    @pytest.mark.parametrize(
        "n, ell", [(256, ell) for ell in range(-10, 11)] + [(1024, ell) for ell in (0, 1, -3, 5)]
    )
    def test_vortex_mode_maps_onto_its_conjugate_waist(self, n, ell):
        # An unapertured vortex is its own Fourier transform up to scale:
        # the lens gives (-i)^|ell| times the mode of the same charge and
        # waist lambda f / (pi w0) on the far grid (window n lambda f / W).
        # This pins the lens scale, the conjugate waist and the winding sign.
        grid = Grid(n, 8e-3)
        out = far_field(lg_mode(grid, ell, W0, LAM))
        assert out.grid.window == n * (LAM * F / grid.window)
        want = (-1j) ** abs(ell) * lg_mode(out.grid, ell, LAM * F / (np.pi * W0), LAM).samples
        assert np.max(np.abs(out.samples - want)) <= 1e-14 * np.max(np.abs(want))

    def test_linearity(self, rng, fast_grid):
        a = random_field(rng, fast_grid)
        b = random_field(rng, fast_grid)
        alpha, beta = 0.3 - 0.8j, 1.1 + 0.2j
        mixed = ScalarField(alpha * a.samples + beta * b.samples, fast_grid)
        direct = far_field(mixed).samples
        separate = alpha * far_field(a).samples + beta * far_field(b).samples
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(direct - separate)) / scale < 1e-12

    def test_donut_null(self, default_grid):
        for ell in (1, -2):
            # the centred 64-pixel window holds the whole donut
            img = intensity(far_field(lg_mode(default_grid, ell, W0, LAM), 64))
            c = 64 // 2
            assert img[c, c] < 1e-6 * img.max()

    def test_point_inversion_symmetry(self, fast_grid):
        # conjugating the input field point-reflects the far-field intensity;
        # this is what makes the sign readout possible at all
        mask = aperture_mask(fast_grid, ApertureSpec(TRIANGLE, 2e-3))
        for ell in (1, 2, 3):
            plus = intensity(far_field(apply_mask(lg_mode(fast_grid, ell, W0, LAM), mask)))
            minus = intensity(far_field(apply_mask(lg_mode(fast_grid, -ell, W0, LAM), mask)))
            assert np.max(np.abs(plus - point_reflect(minus))) / plus.max() < 1e-9

    def test_either_layout_gives_the_same_bits(self, default_grid):
        # a column-major field is read in place, a row-major one copied
        aperture = ApertureSpec(TRIANGLE, 2e-3, np.radians(37.0))
        box = aperture_box(default_grid, aperture)
        field = lg_mode(default_grid, 2, W0, LAM, box, aperture_mask(default_grid, aperture, box))
        row_major = ScalarField(np.ascontiguousarray(field.samples), default_grid, box)
        for m in (64, None):
            got = far_field(field, m).samples
            assert got.tobytes() == far_field(row_major, m).samples.tobytes()

    @pytest.mark.parametrize("m", [32, 0, -64, 97])
    def test_window_not_an_even_width_from_64_is_refused(self, m):
        # any even width from 64 to n is a window; 96 is accepted
        field = lg_mode(Grid(128, 8e-3), 1, W0, LAM)
        with pytest.raises(ValueError, match=f"window of {m} pixels is not an even width >= 64"):
            far_field(field, m)

    def test_the_lens_is_the_fixed_optics(self, fast_grid):
        # no focal length to pass: the far pitch and the lens scale are the
        # products of WAVELENGTH and FOCAL_LENGTH, bit for bit
        assert list(inspect.signature(far_field).parameters) == ["field", "m"]
        assert list(inspect.signature(wavefield.window_tail_bound).parameters) == ["field"]
        field = lg_mode(fast_grid, 1, W0, WAVELENGTH)
        lam_f = WAVELENGTH * FOCAL_LENGTH
        assert far_field(field).grid.pitch == lam_f / fast_grid.window
        assert wavefield._lens_scale(field.grid) == fast_grid.pitch**2 / lam_f


@st.composite
def lens_cases(draw):
    """A grid, a window width, and a box of it: the whole grid, or odd- and
    even-sized spans, some touching the grid's first or last sample."""
    n = 2 ** draw(st.integers(6, 10))
    m = 2 ** draw(st.integers(6, n.bit_length() - 1))
    if draw(st.booleans()) and draw(st.booleans()):
        return n, m, FULL

    def span():
        size = draw(st.integers(1, min(n, 160)))
        start = draw(st.one_of(st.just(0), st.just(n - size), st.integers(0, n - size)))
        return slice(start, start + size)

    return n, m, (span(), span())


@settings(max_examples=60, deadline=None)
@given(case=lens_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=(1024, 1024, FULL), seed=1)
@example(case=(1024, 64, FULL), seed=2)
@example(case=(64, 64, (slice(0, 1), slice(63, 64))), seed=3)
@example(case=(256, 128, (slice(0, 255), slice(1, 256))), seed=4)
def test_lens_is_its_matrix_dft_definition(case, seed):
    # The real products of u and -u rows reproduce the complex matrix DFT
    # on every window of every box shape, to rounding.
    n, m, box = case
    grid = Grid(n, 8e-3)
    shape = tuple(len(range(n)[s]) for s in box)
    rng = np.random.default_rng(seed)
    field = ScalarField(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape), grid, box
    )
    want = matrix_far_field(field, m)
    got = far_field(field, m)
    assert got.samples.dtype == complex and got.samples.flags.c_contiguous
    assert got.samples.shape == (m, m) and got.grid.n == m
    assert np.abs(got.samples - want).max() <= 1e-14 * np.abs(want).max()


class TestIntensityAndPower:
    def test_zero_field(self, fast_grid):
        field = ScalarField(np.zeros((fast_grid.n, fast_grid.n)), fast_grid)
        assert np.array_equal(intensity(field), np.zeros((fast_grid.n, fast_grid.n)))
        assert power(field) == 0.0

    def test_global_phase_invariance(self, fast_grid):
        field = lg_mode(fast_grid, 1, W0, LAM)
        rotated = ScalarField(np.exp(0.7j) * field.samples, fast_grid)
        assert np.allclose(intensity(rotated), intensity(field), atol=1e-15)

    def test_power_scales_quadratically(self, fast_grid):
        field = lg_mode(fast_grid, 1, W0, LAM)
        half = ScalarField(0.5 * field.samples, fast_grid)
        assert abs(power(half) - 0.25) < 1e-12


def test_point_reflect_is_involution(rng):
    img = rng.standard_normal((16, 16))
    assert np.array_equal(point_reflect(point_reflect(img)), img)


def test_resolution_stability():
    # doubling the sampling at fixed window moves the lattice peaks by
    # less than one coarse output pixel
    from oamcnot.readout import find_peaks

    side = 2e-3
    positions = {}
    for n in (1024, 2048):
        grid = Grid(n, 8e-3)
        aperture = ApertureSpec(TRIANGLE, side)
        box = aperture_box(grid, aperture)
        field = apply_mask(lg_mode(grid, 1, W0, LAM, box), aperture_mask(grid, aperture, box))
        out = far_field(field)
        img = intensity(out)
        peaks = find_peaks(img, 0.3, 2.0 * out.grid.pitch, out.grid)
        positions[n] = sorted(map(tuple, peaks.peaks[:, :2].tolist()))
        coarse_pitch = LAM * F / 8e-3
    assert len(positions[1024]) == len(positions[2048]) == 3
    for (x1, y1), (x2, y2) in zip(positions[1024], positions[2048]):
        assert np.hypot(x1 - x2, y1 - y2) < coarse_pitch
