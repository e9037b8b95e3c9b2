"""Print the camera readout's map: for each grid n, side/w0 and charge,
how the 12 orientations 3.7 + 10k degrees read.

Every read goes through ``Camera.read`` at W = 8 mm and w0 = 0.5 mm,
through the camera's fixed lens.  A -ell outcome is the point
reflection of the +ell image, so only ell = +1..+10 are read.  Each line
counts the correct reads, the misreads (each charge read, with its count),
the ``ClassificationError``s, the ``AmbiguousOrientationError``s and the
refusals ``Camera.refuse`` makes before any render.  The output is
deterministic and kept as ``tests/golden/readout_map.txt``; the script
takes no flags.  Run it from the repository root with the package
installed, or as

    PYTHONPATH=src python tools/readout_map.py
"""

from collections import Counter

import numpy as np

from oamcnot.readout import AmbiguousOrientationError, Camera, ClassificationError
from oamcnot.wavefield import TRIANGLE, ApertureSpec, Grid, OpticalParams

WINDOW = 8e-3
WAIST = 0.5e-3
GRID_SIZES = (256, 1024)
SIDES_PER_WAIST = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 8.0)
CHARGES = range(1, 11)
ORIENTATIONS_DEG = [3.7 + 10.0 * k for k in range(12)]


def map_cell(n: int, side_per_waist: float, ell: int) -> str:
    """One line of the map: the reads of charge ``ell`` at every orientation."""
    # a camera per cell keeps only that cell's 12 images alive
    camera = Camera(Grid(n, WINDOW), OpticalParams(beam_waist=WAIST))
    counts: Counter[str] = Counter()
    misreads: Counter[int] = Counter()
    for degrees in ORIENTATIONS_DEG:
        aperture = ApertureSpec(TRIANGLE, side_per_waist * WAIST, np.radians(degrees))
        try:
            camera.refuse(aperture, ell)
        except ValueError:
            counts["refused"] += 1
            continue
        try:
            charge = camera.read(aperture, ell).topological_charge
        except ClassificationError:
            counts["not_triangular"] += 1
        except AmbiguousOrientationError:
            counts["ambiguous"] += 1
        else:
            if charge == ell:
                counts["correct"] += 1
            else:
                misreads[charge] += 1
    read_as = ",".join(f"{charge}:{k}" for charge, k in sorted(misreads.items()))
    read_as = f"({read_as})" if read_as else ""
    return (
        f"n={n} side/w0={side_per_waist:.1f} ell={ell} correct={counts['correct']} "
        f"misread={sum(misreads.values())}{read_as} "
        f"not_triangular={counts['not_triangular']} ambiguous={counts['ambiguous']} "
        f"refused={counts['refused']}"
    )


def main() -> None:
    for n in GRID_SIZES:
        for side_per_waist in SIDES_PER_WAIST:
            for ell in CHARGES:
                print(map_cell(n, side_per_waist, ell), flush=True)


if __name__ == "__main__":
    main()
