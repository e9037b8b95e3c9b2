"""The camera's symmetries, as oracles that need no golden bytes.

Mirror: the aperture at 120 - theta degrees is the one at theta mirrored in
x -> -x, which also takes the vortex ell to -ell; the conjugation the camera
reflects a -|ell| window by takes it back.  So the image at 120 - theta is
the image at theta mirrored in k_y -> -k_y.  Scale: a read depends on the
optics only through window / waist and side / waist, so scaling the window,
the waist and the side together keeps the window width, the image up to
its brightness, and the read.

Each compares window widths exactly and images to about 1e-14 of their peak,
at 256^2 and 512^2, so a lens or a mask that breaks a symmetry (a mask built
off the grid's symmetric samples, say) fails it.  Its masks must be the
symmetric ones but at pixel centres that lie on an edge to rounding, where
the rounded vertices decide: at 256^2 with a 1.5 mm side at 0 degrees,
(-0.5 mm, 0) transmits and (0.5 mm, 0) does not, and the images differ by
1.8e-4 of their peak.  A draw with such a pixel checks its masks alone.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from oamcnot import wavefield
from oamcnot.readout import Camera, ReadoutError, classify_oam
from oamcnot.wavefield import TRIANGLE, ApertureSpec, Grid, OpticalParams, aperture_mask

#: How far two images a symmetry makes equal may differ, as a fraction of
#: the peak: each comes out of its own transforms (2e-15 and 6.6e-15 the
#: largest of 3000 draws, for the mirror and the scale).
IMAGE_ROUNDING = 1e-14


def reading(fn):
    """A read's signed charge and its score to 9 decimals, as reports print
    it, or its error's type and message."""
    try:
        result = fn()
    except (ReadoutError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return result.topological_charge, f"{result.orientation_score:.9f}"


def charge(fn):
    """A read's signed charge, or its error's type."""
    try:
        return fn().topological_charge
    except (ReadoutError, ValueError) as exc:
        return type(exc).__name__


def y_mirrored(img):
    """An m-wide window's image under k_y -> -k_y: row r (k_y = r - m/2)
    goes to row m - r, and row 0 (k_y = -m/2) wraps onto itself."""
    return np.roll(img[::-1], 1, axis=0)


def on_an_edge(grid, aperture):
    """The grid pixels whose centres lie within 1e-9 of a pitch of a line
    through two of the aperture's vertices."""
    c = grid.coords()
    x, y = c[np.newaxis, :], c[:, np.newaxis]
    vx, vy = wavefield._vertices(grid, aperture)
    near = np.zeros((grid.n, grid.n), dtype=bool)
    for k in range(3):
        ex, ey = vx[(k + 1) % 3] - vx[k], vy[(k + 1) % 3] - vy[k]
        cross = ex * (y - vy[k]) - ey * (x - vx[k])
        near |= np.abs(cross) < 1e-9 * grid.pitch * math.hypot(ex, ey)
    return near


def masks_agree(want, got, grid, aperture):
    """Whether two whole-grid masks are equal: they may differ only on an
    edge of ``aperture``, and a draw where they do is left out."""
    differ = want != got
    assert not (differ & ~on_an_edge(grid, aperture)).any()
    assume(not differ.any())


optics = {
    "n": st.sampled_from([256, 512]),
    "ell": st.integers(-10, 10),
    "side_per_waist": st.floats(1.0, 8.0),
    "waist_mm": st.floats(0.4, 0.6),
}


@settings(max_examples=80, deadline=None)
@given(**optics, degrees=st.floats(0.0, 120.0))
# near 15 degrees, where the mirror makes a spot's top pixels tie, the two
# reads keep different top pixels, and their scores differ (0.98379 and 0.98301)
@example(n=256, ell=1, side_per_waist=3.63559910658993, waist_mm=0.5273719740678745,
         degrees=14.946159240475192)
# the whole frame, and a refusal whose peak count differs (106 and 105)
@example(n=256, ell=10, side_per_waist=1.0334829618431045, waist_mm=0.40310601208657,
         degrees=41.02566480757277)
# two pixel centres on an edge, one in the mask and one out
@example(n=256, ell=0, side_per_waist=3.0, waist_mm=0.5, degrees=0.0)
def test_the_image_at_120_minus_theta_is_the_mirrored_image_at_theta(
    n, ell, side_per_waist, waist_mm, degrees
):
    waist = waist_mm * 1e-3
    camera = Camera(Grid(n, 8e-3), OpticalParams(waist))
    at, mirror = (
        ApertureSpec(TRIANGLE, side_per_waist * waist, math.radians(angle))
        for angle in (degrees, 120.0 - degrees)
    )
    x_mirrored = np.roll(aperture_mask(camera.grid, at)[:, ::-1], 1, axis=1)
    masks_agree(x_mirrored, aperture_mask(camera.grid, mirror), camera.grid, mirror)
    img, far_grid = camera.image(at, ell)
    mirror_img, mirror_grid = camera.image(mirror, ell)
    assert mirror_grid == far_grid
    # the whole frame is periodic and wraps exactly; a window's row 0 lies
    # outside the mirrored window, below threshold by the tail bound
    rows = slice(None) if far_grid.n == n else slice(1, None)
    flipped = y_mirrored(img)
    assert np.abs(flipped[rows] - mirror_img[rows]).max() <= IMAGE_ROUNDING * img.max()
    assert reading(lambda: camera.read(mirror, ell)) == reading(
        lambda: classify_oam(flipped, mirror, far_grid)
    )
    # find_peaks breaks a tie row-major, which the mirror does not keep, so
    # only the charge, or the kind of refusal, is the same read from both
    assert charge(lambda: camera.read(at, ell)) == charge(lambda: camera.read(mirror, ell))


@settings(max_examples=80, deadline=None)
@given(**optics, radians=st.floats(-10.0, 10.0), factor=st.floats(0.25, 4.0))
@example(n=256, ell=1, side_per_waist=4.0, waist_mm=0.5, radians=0.0, factor=3.0)
@example(n=512, ell=-8, side_per_waist=2.0, waist_mm=0.5, radians=1.2, factor=0.5)
def test_scaling_window_waist_and_side_together_keeps_the_window_and_the_read(
    n, ell, side_per_waist, waist_mm, radians, factor
):
    def render(scale):
        waist = waist_mm * 1e-3 * scale
        camera = Camera(Grid(n, 8e-3 * scale), OpticalParams(waist))
        aperture = ApertureSpec(TRIANGLE, side_per_waist * waist, radians)
        mask = aperture_mask(camera.grid, aperture)
        img, far_grid = camera.image(aperture, ell)
        read = reading(lambda: camera.read(aperture, ell))
        return mask, (camera.grid, aperture), img / img.max(), far_grid.n, read

    mask, optics_at, img, m, read = render(1.0)
    scaled_mask, _, scaled_img, scaled_m, scaled_read = render(factor)
    masks_agree(mask, scaled_mask, *optics_at)
    assert scaled_m == m
    assert np.abs(scaled_img - img).max() <= IMAGE_ROUNDING
    assert scaled_read == read
