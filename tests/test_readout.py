from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import apply_mask, full_image_find_peaks, mesh
from oamcnot import readout
from oamcnot.readout import (
    AMBIGUITY_MARGIN,
    FIRST_WINDOW,
    POSITIVE_LATTICE_ROTATION,
    THRESHOLD_FRAC,
    TIE_FRACTION,
    AmbiguousOrientationError,
    Camera,
    ClassificationError,
    PeakSet,
    ReadoutError,
    ReadoutResult,
    classify_oam,
    count_spots_per_side,
    default_min_separation,
    find_peaks,
    readout_roundtrip,
    render_image,
)
from oamcnot.wavefield import (
    FOCAL_LENGTH,
    MAX_CHARGE,
    WAVELENGTH,
    ApertureSpec,
    Grid,
    OpticalParams,
    TRIANGLE,
    aperture_box,
    aperture_mask,
    far_field,
    intensity,
    lg_mode,
    point_reflect,
    window_tail_bound,
)

LAM, F, W0 = WAVELENGTH, FOCAL_LENGTH, 0.5e-3


def gaussian_spots(grid, centers, widths=None, amplitudes=None):
    """Synthetic image: one Gaussian bump per (x, y) center in meters."""
    x, y = mesh(grid)
    img = np.zeros((grid.n, grid.n))
    widths = widths or [3.0 * grid.pitch] * len(centers)
    amplitudes = amplitudes or [1.0] * len(centers)
    for (cx, cy), w, a in zip(centers, widths, amplitudes):
        img += a * np.exp(-(((x - cx) ** 2 + (y - cy) ** 2) / w**2))
    return img


def far_intensity(ell, grid, aperture):
    field = lg_mode(grid, ell, W0, LAM)
    out = far_field(apply_mask(field, aperture_mask(grid, aperture)), F)
    return intensity(out), out.grid


class TestFindPeaks:
    def test_single_spot(self, fast_grid):
        img = gaussian_spots(fast_grid, [(1e-3, -0.5e-3)])
        peaks = find_peaks(img, 0.3, 2 * fast_grid.pitch, fast_grid)
        assert len(peaks.peaks) == 1
        x, y, _ = peaks.peaks[0]
        assert abs(x - 1e-3) <= fast_grid.pitch
        assert abs(y - (-0.5e-3)) <= fast_grid.pitch

    def test_two_spots_three_separations_apart(self, fast_grid):
        min_sep = 2 * fast_grid.pitch
        img = gaussian_spots(
            fast_grid,
            [(-1.5 * min_sep, 0.0), (1.5 * min_sep, 0.0)],
            widths=[2 * fast_grid.pitch] * 2,
        )
        peaks = find_peaks(img, 0.3, min_sep, fast_grid)
        assert len(peaks.peaks) == 2

    def test_close_pair_pruned_keeps_stronger(self, fast_grid):
        img = np.zeros((fast_grid.n, fast_grid.n))
        c = fast_grid.n // 2
        img[c, c] = 1.0
        img[c, c + 3] = 0.9
        peaks = find_peaks(img, 0.3, 5 * fast_grid.pitch, fast_grid)
        assert len(peaks.peaks) == 1
        assert peaks.peaks[0, 2] == 1.0

    def test_ordering_value_then_row_major(self, fast_grid):
        img = np.zeros((fast_grid.n, fast_grid.n))
        img[40, 80] = 0.8
        img[10, 30] = 1.0
        img[10, 90] = 1.0
        peaks = find_peaks(img, 0.3, 2 * fast_grid.pitch, fast_grid)
        values = peaks.peaks[:, 2].tolist()
        assert values == [1.0, 1.0, 0.8]
        first, second = peaks.peaks[0], peaks.peaks[1]
        assert first[0] < second[0]  # ties broken row-major: column 30 before 90

    def test_all_zero_image(self, fast_grid):
        img = np.zeros((fast_grid.n, fast_grid.n))
        peaks = find_peaks(img, 0.3, 2 * fast_grid.pitch, fast_grid)
        assert len(peaks.peaks) == 0

    def test_flat_top_keeps_its_first_pixel(self, fast_grid):
        # a spot whose top spans two equal pixels is one peak, not none
        img = gaussian_spots(fast_grid, [(0.0, 0.0)]) * 0.5
        c = fast_grid.n // 2
        img[c, c] = img[c, c + 1] = 1.0
        peaks = find_peaks(img, 0.3, 2 * fast_grid.pitch, fast_grid)
        coords = fast_grid.coords()
        assert peaks.peaks[:, :2].tolist() == [[coords[c], coords[c]]]

    def test_nan_rejected(self, fast_grid):
        img = np.zeros((fast_grid.n, fast_grid.n))
        img[3, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            find_peaks(img, 0.3, 2 * fast_grid.pitch, fast_grid)

    def test_threshold_range_validated(self, fast_grid):
        img = np.zeros((fast_grid.n, fast_grid.n))
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="threshold"):
                find_peaks(img, bad, 2 * fast_grid.pitch, fast_grid)

    def test_min_separation_floor_validated(self, fast_grid):
        img = np.zeros((fast_grid.n, fast_grid.n))
        with pytest.raises(ValueError, match="min_separation"):
            find_peaks(img, 0.3, 1.5 * fast_grid.pitch, fast_grid)

    def test_result_satisfies_invariants(self, fast_grid, paper_aperture):
        img, far_grid = far_intensity(2, fast_grid, paper_aperture)
        min_sep = 2 * far_grid.pitch
        peaks = find_peaks(img, 0.3, min_sep, far_grid)
        values = peaks.peaks[:, 2]
        assert (values >= 0.3 * img.max()).all()
        pts = peaks.peaks[:, :2]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert np.hypot(*(pts[i] - pts[j])) >= min_sep


@st.composite
def peak_images(draw):
    """Plateaus (rectangles of one level, some cut by the border) whose
    levels repeat, so that separate spots tie exactly, sometimes over a
    background of 4 x 4 plateaus; then a jitter of about TIE_FRACTION, so
    that near ties fall on both sides of the tie band."""
    n = draw(st.sampled_from([64, 128]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a tenth of the background plateaus lit, at levels up to 0.32, or none
    lit = rng.random((n // 4, n // 4)) < draw(st.sampled_from([0.0, 0.1]))
    rough = 0.32 * rng.random((n // 4, n // 4)) * lit
    img = np.kron(rough, np.ones((4, 4)))
    for _ in range(draw(st.integers(0, 12))):
        i, j = rng.integers(-2, n, size=2)
        h, w = rng.integers(1, 5, size=2)
        img[max(i, 0) : i + h, max(j, 0) : j + w] = rng.choice([0.2, 0.3, 0.6, 1.0])
    jitter = draw(st.sampled_from([0.0, 0.3, 0.9, 1.1, 3.0])) * TIE_FRACTION
    return img * (1.0 + jitter * rng.integers(-2, 3, size=img.shape))


@settings(max_examples=100, deadline=None)
@given(img=peak_images(), threshold=st.sampled_from([0.3, 0.5]), sep_px=st.floats(2.0, 8.0))
@example(img=np.zeros((64, 64)), threshold=0.3, sep_px=2.0)
# a dense image: uniform noise keeps 877 peaks, so the pruning meets hundreds of accepted rows
@example(img=np.random.default_rng(44).random((128, 128)), threshold=0.3, sep_px=3.0)
def test_peaks_are_the_full_image_definition(img, threshold, sep_px):
    # testing only the pixels at or above threshold for a local maximum
    # keeps every peak, value, tie and order of the full-image test
    grid = Grid(img.shape[0], 8e-3)
    got = find_peaks(img, threshold, sep_px * grid.pitch, grid)
    want = full_image_find_peaks(img, threshold, sep_px * grid.pitch, grid)
    assert np.array_equal(got.peaks, want.peaks)


@pytest.mark.parametrize("sep_px", [2.0, 2.5, 3.0, 7.9, 200.0])
@pytest.mark.parametrize("seed", range(3))
def test_bucketed_pruning_keeps_the_pairwise_rules_peaks(seed, sep_px):
    # find_peaks tests a candidate only against the accepted peaks in the 9
    # cells around its own; on uniform noise, with over a thousand peaks at
    # the narrowest separation, it keeps the rows of the rule that tests
    # every candidate against every accepted peak
    img = np.random.default_rng(seed).random((128, 128))
    grid = Grid(128, 8e-3)
    got = find_peaks(img, 0.3, sep_px * grid.pitch, grid)
    want = full_image_find_peaks(img, 0.3, sep_px * grid.pitch, grid)
    assert np.array_equal(got.peaks, want.peaks)


class TestCountSpotsPerSide:
    @pytest.mark.parametrize(
        "count,n_side", [(1, 1), (3, 2), (6, 3), (10, 4), (21, 6), (66, MAX_CHARGE + 1)]
    )
    def test_triangular_counts(self, count, n_side):
        peaks = PeakSet(np.zeros((count, 3)))
        assert count_spots_per_side(peaks) == n_side

    @pytest.mark.parametrize("count", [0, 2, 4, 5, 7, 11])
    def test_non_triangular_rejected(self, count):
        peaks = PeakSet(np.zeros((count, 3)))
        with pytest.raises(ClassificationError) as err:
            count_spots_per_side(peaks)
        assert err.value.peak_count == count

    @pytest.mark.parametrize("count", [78, 91])
    def test_triangular_count_above_max_charge_rejected(self, count):
        # T(12) and T(13) would read |ell| = 11 and 12, charges no source carries
        peaks = PeakSet(np.zeros((count, 3)))
        with pytest.raises(ClassificationError) as err:
            count_spots_per_side(peaks)
        assert err.value.peak_count == count
        assert str(err.value).endswith(f"exceeds the supported range {MAX_CHARGE}")


@pytest.mark.parametrize(
    "charge,magnitude,sign,spots", [(-3, 3, "-", 4), (0, 0, "undefined", 1), (2, 2, "+", 3)]
)
def test_readout_result_derives_from_the_charge(charge, magnitude, sign, spots):
    result = ReadoutResult(charge, 0.5)
    assert [f.name for f in fields(ReadoutResult)] == ["topological_charge", "orientation_score"]
    assert (result.magnitude, result.sign, result.spots_per_side) == (magnitude, sign, spots)


class TestClassify:
    @pytest.mark.parametrize("ell", [-3, -2, -1, 1, 2, 3])
    def test_roundtrip_signs_and_magnitudes(self, ell, fast_grid, params, paper_aperture):
        result = readout_roundtrip(ell, params, fast_grid, paper_aperture)
        assert result.magnitude == abs(ell)
        assert result.topological_charge == ell
        assert result.spots_per_side == abs(ell) + 1
        assert abs(result.orientation_score) >= 0.05

    @pytest.mark.parametrize("ell", [-3, -2, -1, 1, 2, 3])
    @pytest.mark.parametrize("orientation_deg", [15, 45, 75, 105])
    def test_reads_where_a_spot_top_is_two_equal_pixels(
        self, ell, orientation_deg, fast_grid, params
    ):
        # at 15 + 30k degrees the lattice is mirror-symmetric about a pixel
        # diagonal, so a spot can peak on two pixels equal to the last bit
        aperture = ApertureSpec(TRIANGLE, 2e-3, np.radians(orientation_deg))
        result = readout_roundtrip(ell, params, fast_grid, aperture)
        assert result.topological_charge == ell
        assert result.spots_per_side == abs(ell) + 1

    def test_zero_charge_undefined_sign(self, fast_grid, params, paper_aperture):
        result = readout_roundtrip(0, params, fast_grid, paper_aperture)
        assert result.magnitude == 0
        assert result.sign == "undefined"
        assert result.spots_per_side == 1
        assert result.topological_charge == 0

    def test_point_reflected_image_flips_sign(self, fast_grid, params, paper_aperture):
        img, far_grid = far_intensity(2, fast_grid, paper_aperture)
        forward = classify_oam(img, paper_aperture, far_grid)
        mirrored = classify_oam(point_reflect(img), paper_aperture, far_grid)
        assert forward.sign == "+"
        assert mirrored.sign == "-"
        assert forward.magnitude == mirrored.magnitude == 2

    def test_rotation_equivariance_at_thirds(self, fast_grid, params):
        # rotating the aperture by 120 degrees changes neither the mask nor
        # the ideal lattice, so the classification must not move
        base = ApertureSpec(TRIANGLE, 2e-3, 0.2)
        rotated = ApertureSpec(TRIANGLE, 2e-3, 0.2 + 2.0 * np.pi / 3.0)
        img, far_grid = far_intensity(-2, fast_grid, base)
        a = classify_oam(img, base, far_grid)
        b = classify_oam(img, rotated, far_grid)
        assert (a.magnitude, a.sign, a.spots_per_side) == (
            b.magnitude,
            b.sign,
            b.spots_per_side,
        )
        assert abs(a.orientation_score - b.orientation_score) < 1e-9

    def test_threshold_robustness(self, fast_grid, params, paper_aperture):
        # moving the peak finder's threshold across a band around the fixed
        # one finds the same spots on the rendered camera window
        box = aperture_box(fast_grid, paper_aperture)
        mask = aperture_mask(fast_grid, paper_aperture, box)
        for ell in (-3, -1, 2):
            field = lg_mode(fast_grid, ell, params.beam_waist, WAVELENGTH, box)
            img, far_grid = render_image(apply_mask(field, mask))
            min_sep = default_min_separation(paper_aperture.size, far_grid.pitch)
            positions = [
                find_peaks(img, threshold, min_sep, far_grid).peaks[:, :2].tolist()
                for threshold in (0.2, 0.3, 0.4)
            ]
            n_side = abs(ell) + 1
            assert len(positions[0]) == n_side * (n_side + 1) // 2
            assert positions[0] == positions[1] == positions[2]

    def test_consistent_across_grid_resolutions(self, params, paper_aperture):
        for ell in (-3, 1, 2):
            coarse = readout_roundtrip(ell, params, Grid(1024, 8e-3), paper_aperture)
            fine = readout_roundtrip(ell, params, Grid(2048, 8e-3), paper_aperture)
            assert (coarse.magnitude, coarse.sign, coarse.spots_per_side) == (
                fine.magnitude,
                fine.sign,
                fine.spots_per_side,
            )

    def test_deterministic(self, fast_grid, params, paper_aperture):
        a = readout_roundtrip(2, params, fast_grid, paper_aperture)
        b = readout_roundtrip(2, params, fast_grid, paper_aperture)
        assert a == b
        img, far_grid = far_intensity(2, fast_grid, paper_aperture)
        min_sep = 2 * far_grid.pitch
        assert np.array_equal(
            find_peaks(img, 0.3, min_sep, far_grid).peaks,
            find_peaks(img, 0.3, min_sep, far_grid).peaks,
        )

    def test_hexagon_is_ambiguous(self, fast_grid, params, paper_aperture):
        # six equal spots on a regular hexagon match both orientations
        radius = 20 * fast_grid.pitch
        angles = np.pi / 2 + np.arange(6) * np.pi / 3
        centers = [(radius * np.cos(a), radius * np.sin(a)) for a in angles]
        img = gaussian_spots(fast_grid, centers)
        with pytest.raises(AmbiguousOrientationError):
            classify_oam(img, paper_aperture, fast_grid)

    def test_non_lattice_count_raises_with_count(self, fast_grid, params, paper_aperture):
        img = gaussian_spots(
            fast_grid,
            [(-3e-3, 0.0), (3e-3, 0.0), (0.0, 3e-3), (0.0, -3e-3)],
        )
        with pytest.raises(ClassificationError) as err:
            classify_oam(img, paper_aperture, fast_grid)
        assert err.value.peak_count == 4

    def test_under_resolved_grid_propagates_waist_error(self, params, paper_aperture):
        with pytest.raises(ValueError, match="waist"):
            readout_roundtrip(1, params, Grid(64, 8e-3), paper_aperture)

    def test_window_outside_the_floats_is_refused_before_any_mode(self, monkeypatch):
        # the library refuses the window as the CLI does, with the same message
        calls = []
        monkeypatch.setattr(readout, "lg_mode", lambda *args: calls.append(args))
        with pytest.raises(ValueError) as info:
            readout_roundtrip(
                1, OpticalParams(beam_waist=1e156), Grid(256, 1e157), ApertureSpec(TRIANGLE, 2e156)
            )
        assert str(info.value) == (
            "window 1e+157 m at grid n 256 gives a pitch^2 of inf, "
            "outside the finite normal floats"
        )
        assert calls == []


def ideal_lattice(n_side, direction):
    """(x, y) rows of the T(n_side) points of a unit triangular lattice
    whose vertex lies along ``direction`` (radians) from its centroid."""
    i, j = np.array([(i, j) for i in range(n_side) for j in range(n_side - i)], float).T
    x, y = i + 0.5 * j, np.sqrt(3.0) / 2.0 * j  # the vertex at j = n_side - 1 is along +y
    c, s = np.cos(direction - np.pi / 2.0), np.sin(direction - np.pi / 2.0)
    return np.column_stack([x * c - y * s, x * s + y * c])


@pytest.mark.parametrize("n_side", range(2, MAX_CHARGE + 2))
def test_the_vote_scores_an_ideal_lattice_and_its_point_reflection(n_side):
    # the lattice a positive charge gives behind an aperture at 0.3 rad,
    # without the wave layer: three spots score 1, T(11) about two thirds
    direction = 0.3 + np.pi / 2.0 + POSITIVE_LATTICE_ROTATION
    pts = 40e-6 * ideal_lattice(n_side, direction)
    score = readout._harmonic_score(pts, direction)
    assert AMBIGUITY_MARGIN < score <= 1.0 + 1e-15
    assert score == pytest.approx({2: 1.0, 11: 0.668}.get(n_side, score), abs=1e-3)
    # a point-reflected image lists the negated positions in another order
    assert readout._harmonic_score(-pts[::-1], direction) == -score
    # a shift of a few spacings: a farther one rounds the positions themselves
    shifted = pts + [120e-6, -40e-6]
    rng = np.random.default_rng(n_side)
    for moved in (pts * 1e-150, pts * 1e150, shifted, rng.permutation(pts)):
        assert abs(readout._harmonic_score(moved, direction) - score) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(
    wavelength_nm=st.floats(400.0, 1100.0),
    focal_cm=st.floats(5.0, 100.0),
    ell=st.integers(-8, 8),
    degrees=st.floats(0.0, 120.0, exclude_max=True),
)
def test_wavelength_and_focal_length_move_no_spot(wavelength_nm, focal_cm, ell, degrees):
    # The camera pitch is wavelength * f / window, so the optics only
    # rescale the image: the tail bound takes the camera's window at any
    # wavelength and focal length, and the intensities scale by (lambda f)^-2.
    grid = Grid(256, 8e-3)
    aperture = ApertureSpec(TRIANGLE, 2e-3, np.radians(degrees))
    box = aperture_box(grid, aperture)
    mask = aperture_mask(grid, aperture, box)

    def window(lam, f):
        """The field at ``lam`` and the width render_image's rule takes through ``f``."""
        field = apply_mask(lg_mode(grid, ell, W0, lam, box), mask)
        bound = window_tail_bound(field, f)
        top = THRESHOLD_FRAC * float(intensity(far_field(field, f, FIRST_WINDOW)).max())
        widths = range(FIRST_WINDOW, grid.n, 2)
        return field, next((m for m in widths if bound(m) ** 2 * (1.0 + 1e-9) < top), grid.n)

    lam, f = wavelength_nm * 1e-9, focal_cm * 1e-2
    field, m = window(lam, f)
    camera_field, camera_m = window(WAVELENGTH, FOCAL_LENGTH)
    reference, far_grid = render_image(camera_field)
    assert m == camera_m == far_grid.n
    scaled = reference * (WAVELENGTH * FOCAL_LENGTH / (lam * f)) ** 2
    image = intensity(far_field(field, f, m))
    assert np.max(np.abs(image - scaled)) <= 1e-12 * np.max(scaled)


def test_a_half_degree_orientation_scan_never_misreads():
    # every orientation reads the charge or refuses it, never another charge
    # (ell = +-8 has 43 or 44 peaks in bands about 0.2 degrees wide)
    grid, refused = Grid(256, 8e-3), 0
    for degrees in np.arange(0.0, 120.0, 0.5):
        camera = Camera(grid, OpticalParams())
        aperture = ApertureSpec(TRIANGLE, 2e-3, np.radians(degrees))
        for ell in [*range(-8, 0), *range(1, 9)]:
            try:
                charge = camera.read(aperture, ell).topological_charge
            except ReadoutError:
                refused += 1
                continue
            assert charge == ell, (degrees, ell)
    # and refusals stay rare: 8 of the 3840 reads, ell = +-8 at 15 + 30k degrees
    assert refused <= 16


def test_default_min_separation_clamps_to_pixel_floor():
    far_pitch = LAM * F / 8e-3
    lattice_based = 0.3 * LAM * F / 2e-3
    assert lattice_based < 2 * far_pitch  # the clamp is active at defaults
    assert default_min_separation(2e-3, far_pitch) == 2 * far_pitch
    # with a coarser aperture scale the lattice term wins
    assert default_min_separation(0.2e-3, far_pitch) == 0.3 * LAM * F / 0.2e-3
