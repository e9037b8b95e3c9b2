"""Acceptance suite: every exit criterion at its stated tolerance, one
printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import io
import random
import string
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oamcnot.circuit import Circuit, ParseError, format_circuit, parse, run_logical
from oamcnot.cli import EXIT_OK, main
from oamcnot.hybrid import (
    CNOT_MATRIX,
    HybridState,
    basis_state,
    bell_state,
    cnot,
    concurrence,
    hadamard_pol,
)
from oamcnot.interferometer import PAPER_DEFAULT, STRICT_PARITY, compose_mzi
from oamcnot.readout import find_peaks, readout_roundtrip
from oamcnot.wavefield import (
    ApertureSpec,
    Grid,
    OpticalParams,
    ScalarField,
    TRIANGLE,
    aperture_box,
    aperture_mask,
    far_field,
    intensity,
    lg_mode,
    point_reflect,
    power,
)
from conftest import apply_mask, circle_field, mesh, verify_cnot
from test_circuit import circuits
from test_interferometer import X_TARGET_AFTER_CNOT, oracle_matrix

LAM, F, W0, SIDE = 532e-9, 0.30, 0.5e-3, 2e-3
DEFAULT_GRID = Grid(1024, 8e-3)
PARAMS = OpticalParams()
APERTURE = ApertureSpec(TRIANGLE, SIDE, 0.0)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream)
    return code, stream.getvalue()


def test_criterion_1_truth_table(tmp_path):
    with criterion(1, "truth table reproduced by both layers at defaults"):
        start = time.perf_counter()
        code, report = run_cli(["truth-table", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK
        assert "rows_ok=4/4" in report
        assert "H,+1,H,+1,H,+1,yes" in report
        assert "H,-1,H,-1,H,-1,yes" in report
        assert "V,-1,V,+1,V,+1,yes" in report
        assert "V,+1,V,-1,V,-1,yes" in report
        # logical layer: amplitude-exact against the four transformation rows
        for pol, ell, out_index in ((0, 1, 0), (0, -1, 1), (1, -1, 2), (1, 1, 3)):
            text = f"SOURCE pol={'HV'[pol]} oam={ell}\nMZI_CNOT"
            final = run_logical(parse(text)).final_state
            expected = np.zeros(4, dtype=complex)
            expected[out_index] = 1.0
            assert np.max(np.abs(final.amplitudes - expected)) < 1e-12
        assert elapsed < 60.0, f"truth table took {elapsed:.1f}s"


def test_criterion_2_interferometer_composes_to_cnot():
    with criterion(2, "element composition equals CNOT (and its relabeled twin)"):
        default = compose_mzi(PAPER_DEFAULT)
        assert np.max(np.abs(default - CNOT_MATRIX)) < 1e-12
        assert verify_cnot(default) < 1e-12
        strict = compose_mzi(STRICT_PARITY)
        assert np.max(np.abs(strict - X_TARGET_AFTER_CNOT)) < 1e-12
        # independent brute-force matrix oracle agrees with both
        assert np.max(np.abs(default - oracle_matrix(PAPER_DEFAULT))) < 1e-12
        assert np.max(np.abs(strict - oracle_matrix(STRICT_PARITY))) < 1e-12


def test_criterion_3_bell_family():
    with criterion(3, "entangled family amplitudes, concurrences, Gram matrix"):
        code, report = run_cli(["bell"])
        assert code == EXIT_OK
        inv = 1.0 / np.sqrt(2.0)
        expected = {
            "00": [inv, 0, 0, inv],
            "01": [0, inv, inv, 0],
            "10": [inv, 0, 0, -inv],
            "11": [0, inv, -inv, 0],
        }
        amp_rows = [l for l in report.splitlines() if l[:3] in ("00,", "01,", "10,", "11,")][:4]
        assert len(amp_rows) == 4
        for row in amp_rows:
            seed, *amps, conc = row.split(",")
            parsed = np.array([complex(a) for a in amps])
            assert np.max(np.abs(parsed - np.array(expected[seed]))) < 1e-12
            assert abs(float(conc) - 1.0) < 1e-12
        states = [bell_state(p, o, 1) for p in (0, 1) for o in (0, 1)]
        gram = np.array(
            [[np.vdot(a.amplitudes, b.amplitudes) for b in states] for a in states]
        )
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def test_criterion_4_indistinguishable_donuts():
    with criterion(4, "without the aperture the two signs are identical donuts"):
        # the centred 64-pixel window holds the whole donut
        plus = intensity(far_field(lg_mode(DEFAULT_GRID, +1, W0, LAM), F, 64))
        minus = intensity(far_field(lg_mode(DEFAULT_GRID, -1, W0, LAM), F, 64))
        center = 64 // 2
        assert plus[center, center] < 1e-6 * plus.max()
        assert minus[center, center] < 1e-6 * minus.max()
        assert np.max(np.abs(plus - point_reflect(minus))) / plus.max() < 1e-9


def test_criterion_5_aperture_separates_the_signs():
    with criterion(5, "with the aperture the two signs point opposite ways"):
        box = aperture_box(DEFAULT_GRID, APERTURE)
        mask = aperture_mask(DEFAULT_GRID, APERTURE, box)
        peak_sets = {}
        for ell in (+1, -1):
            out = far_field(apply_mask(lg_mode(DEFAULT_GRID, ell, W0, LAM, box), mask), F)
            img = intensity(out)
            result = readout_roundtrip(ell, PARAMS, DEFAULT_GRID, APERTURE)
            assert result.magnitude == 1
            assert result.sign == ("+" if ell > 0 else "-")
            peaks = find_peaks(img, 0.3, 2 * out.grid.pitch, out.grid)
            peak_sets[ell] = sorted(map(tuple, peaks.peaks[:, :2].tolist()))
            pitch = out.grid.pitch
        assert len(peak_sets[+1]) == len(peak_sets[-1]) == 3
        reflected = sorted((-x, -y) for (x, y) in peak_sets[-1])
        for (x1, y1), (x2, y2) in zip(peak_sets[+1], reflected):
            assert np.hypot(x1 - x2, y1 - y2) <= pitch


def test_criterion_6_spots_count_the_charge():
    with criterion(6, "N spots per side give magnitude N-1 and the right sign"):
        start = time.perf_counter()
        expected_counts = {1: 3, 2: 6, 3: 10}
        for ell in (-3, -2, -1, 1, 2, 3):
            result = readout_roundtrip(ell, PARAMS, DEFAULT_GRID, APERTURE)
            assert result.topological_charge == ell
            assert result.magnitude == abs(ell)
            n_side = result.spots_per_side
            assert n_side * (n_side + 1) // 2 == expected_counts[abs(ell)]
        elapsed = time.perf_counter() - start
        assert elapsed < 180.0, f"sweep took {elapsed:.1f}s"


def test_criterion_7_numerical_soundness(rng):
    with criterion(7, "Parseval, Airy first zero, Gaussian focal waist"):
        grid = Grid(256, 8e-3)
        for _ in range(100):
            samples = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal(
                (grid.n, grid.n)
            )
            field = ScalarField(samples, grid, LAM)
            assert abs(power(far_field(field, F)) / power(field) - 1.0) < 1e-10

        airy_grid = Grid(1024, 16e-3)
        d = 1e-3
        out = far_field(circle_field(airy_grid, d, LAM), F)
        img = intensity(out)
        x, y = mesh(out.grid)
        r = np.hypot(x, y)
        idx = np.round(r / out.grid.pitch).astype(int)
        prof = np.bincount(idx.ravel(), img.ravel()) / np.maximum(
            np.bincount(idx.ravel()), 1
        )
        k = int(np.argmax(prof))
        while k + 1 < len(prof) and prof[k + 1] < prof[k]:
            k += 1
        a, b, c = prof[k - 1], prof[k], prof[k + 1]
        r_zero = (k + 0.5 * (a - c) / (a - 2.0 * b + c)) * out.grid.pitch
        assert abs(r_zero - 1.22 * LAM * F / d) / (1.22 * LAM * F / d) < 0.02

        # the centred 128-pixel window holds the spot out to 12 waists
        out = far_field(lg_mode(DEFAULT_GRID, 0, W0, LAM), F, 128)
        img = intensity(out)
        x, y = mesh(out.grid)
        w_measured = np.sqrt(2.0 * np.sum(img * (x**2 + y**2)) / np.sum(img))
        assert abs(w_measured - LAM * F / (np.pi * W0)) < out.grid.pitch


def test_criterion_8a_gate_properties():
    with criterion(8, "gate properties on 1000 random states"):
        rng = np.random.default_rng(8)
        matrix = compose_mzi(PAPER_DEFAULT)
        for _ in range(1000):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amps /= np.linalg.norm(amps)
            state = HybridState(amps, 1)
            flipped = cnot(state)
            rotated = hadamard_pol(state)
            assert abs(np.sum(np.abs(flipped.amplitudes) ** 2) - 1.0) < 1e-12
            assert abs(np.sum(np.abs(rotated.amplitudes) ** 2) - 1.0) < 1e-12
            assert np.max(np.abs(cnot(flipped).amplitudes - amps)) < 1e-12
            assert np.max(np.abs(hadamard_pol(rotated).amplitudes - amps)) < 1e-12
            # the path-resolved circuit is amplitude-identical to the gate
            assert np.max(np.abs(matrix @ amps - flipped.amplitudes)) < 1e-12
        for pol in (0, 1):
            for oam in (0, 1):
                assert abs(concurrence(bell_state(pol, oam, 1)) - 1.0) < 1e-12
                assert concurrence(basis_state(pol, oam, 1)) < 1e-12


def test_criterion_8b_parser_fuzz_totality():
    with criterion(8, "parser is total on 10000 random inputs"):
        rnd = random.Random(532)
        alphabets = [
            string.printable,
            " \t\n#=+-.eE0123456789SOURCEHWPMZICNOTPOLARIZERTRIAPERTUREDETECT_",
            "".join(chr(c) for c in range(0x20, 0x2FF)),
        ]
        for i in range(10_000):
            alphabet = alphabets[i % len(alphabets)]
            text = "".join(
                rnd.choice(alphabet) for _ in range(rnd.randrange(0, 120))
            )
            try:
                circuit = parse(text)
                assert isinstance(circuit, Circuit)
            except ParseError as err:
                assert err.line >= 1 and err.column >= 1


@pytest.mark.parametrize("seed", range(3))
def test_criterion_8c_round_trip(seed):
    with criterion(8, "format/parse round trip on generated circuits"):
        # structural generation via the hypothesis strategy, driven manually
        # so the sample set is deterministic
        from hypothesis import given, seed as hseed, settings

        @settings(max_examples=120, database=None, deadline=None)
        @hseed(seed)
        @given(circuits())
        def check(circuit):
            assert parse(format_circuit(circuit)) == circuit

        check()


def test_criterion_8d_byte_determinism(tmp_path):
    with criterion(8, "reports and images are byte-identical across runs"):
        reports = []
        for _ in range(2):
            code, report = run_cli(["truth-table", "--grid-n", "512"])
            assert code == EXIT_OK
            reports.append(report.encode())
        assert reports[0] == reports[1]

        images = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _ = run_cli(
                ["truth-table", "--grid-n", "512", "--out", str(out)]
            )
            assert code == EXIT_OK
            images.append(
                [
                    (out / f"truth_{pol}{ell:+d}.pgm").read_bytes()
                    for pol, ell in (("H", 1), ("H", -1), ("V", -1), ("V", 1))
                ]
            )
        assert images[0] == images[1]
