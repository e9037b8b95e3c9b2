"""Byte-for-byte reports of the canned commands and of a set of circuits.

Each file in ``tests/golden/`` is the report one command printed when the
file was written.  A change that should keep the program's behaviour must
keep every byte of them; a change that moves a report on purpose edits
that file and says why in CHANGES.md.  Never regenerate them from changed
code.

The files hold with numpy 2.4.6.  Whether another numpy, FFT or BLAS
build moves a last digit (of an orientation score, a probability or a
fidelity) is unverified.

The commands run without ``--out`` so that no output path enters a
report, and circuit files are named relative to the working directory.
``truth_table_images.sha256`` holds the SHA-256 of the eight PGM images
that ``truth-table --grid-n 256 --out DIR --raw-float`` writes in the two
modes, so the full-frame render that writes images is pinned as well.
``readout_map.txt`` is what ``tools/readout_map.py`` prints; it takes
about 8 s, so CI compares it, not this file.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import pytest

from oamcnot.cli import EXIT_MISMATCH, EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
FAST = ["--grid-n", "256"]

#: Circuits covering a readout, an H/V superposition, HWP with the
#: strict-parity MZI, a zero charge, a blocked beam, no aperture, no
#: DETECT, a charge the classifier cannot read and an oversized triangle.
CIRCUITS = {
    "readout": "SOURCE pol=V oam=1\nMZI_CNOT\nPOLARIZER V\nTRIAPERTURE side=2\nDETECT\n",
    "superposition": "SOURCE pol=D oam=1\nMZI_CNOT\nTRIAPERTURE side=2\nDETECT\n",
    "hwp_strict_parity": (
        "SOURCE pol=H oam=2\nHWP angle=22.5\nMZI_CNOT mode=strict-parity\n"
        "POLARIZER V\nTRIAPERTURE side=2\nDETECT\n"
    ),
    "oam_zero": "SOURCE pol=H oam=0\nTRIAPERTURE side=2\nDETECT\n",
    "blocked": "SOURCE pol=H oam=1\nPOLARIZER V\nTRIAPERTURE side=2\nDETECT\n",
    "no_aperture": "SOURCE pol=V oam=1\nMZI_CNOT\nPOLARIZER V\nDETECT\n",
    "no_detect": "SOURCE pol=D oam=1\nMZI_CNOT\nTRIAPERTURE side=2\n",
    "ell_minus_10": "SOURCE pol=H oam=-10\nTRIAPERTURE side=2\nDETECT\n",
    "oversized_side": "SOURCE pol=H oam=1\nTRIAPERTURE side=20\nDETECT\n",
}

#: report name -> (argv, exit code)
COMMANDS = {
    "truth_table": (["truth-table"], EXIT_OK),
    "truth_table_strict_parity": (["truth-table", "--mode", "strict-parity"], EXIT_OK),
    "bell": (["bell"], EXIT_OK),
    # |l| = 9 and 10 do not read out at the reference optics.
    "readout_sweep": (
        ["readout-sweep", "--ell-min", "-10", "--ell-max", "10", *FAST],
        EXIT_MISMATCH,
    ),
    # Optics that refuse every point: each row carries the error note.
    "readout_sweep_waist_3": (
        ["readout-sweep", "--ell-min", "-1", "--ell-max", "1", "--waist-mm", "3", *FAST],
        EXIT_MISMATCH,
    ),
    "readout_sweep_side_20": (
        ["readout-sweep", "--ell-min", "-1", "--ell-max", "1", "--side-mm", "20", *FAST],
        EXIT_MISMATCH,
    ),
    **{
        f"simulate_{name}": (
            ["simulate", f"{name}.circ", *FAST],
            EXIT_MISMATCH if name in ("ell_minus_10", "oversized_side") else EXIT_OK,
        )
        for name in CIRCUITS
    },
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_is_byte_identical_to_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for circuit_name, text in CIRCUITS.items():
        (tmp_path / f"{circuit_name}.circ").write_text(text)
    argv, expected_code = COMMANDS[name]
    stream = io.StringIO()
    code = main(argv, stream)
    assert stream.getvalue().encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()
    assert code == expected_code


def test_truth_table_images_are_byte_identical_to_golden(tmp_path):
    for mode in ("paper-default", "strict-parity"):
        argv = ["truth-table", *FAST, "--mode", mode, "--out", str(tmp_path / mode), "--raw-float"]
        assert main(argv, io.StringIO()) == EXIT_OK
    digests = {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.glob("*/*.pgm")
    }
    golden = (GOLDEN / "truth_table_images.sha256").read_text().splitlines()
    assert digests == {name: digest for digest, name in (line.split() for line in golden)}
