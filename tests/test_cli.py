import io
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import oamcnot
from oamcnot import circuit, readout, wavefield
from oamcnot.circuit import format_circuit
from oamcnot.cli import (
    COMMAND_FIELDS,
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    RunConfig,
    _row_circuit,
    main,
    write_image,
)

REFERENCE_TEXT = (
    "SOURCE pol=V oam=1\n"
    "MZI_CNOT\n"
    "POLARIZER V\n"
    "TRIAPERTURE side=2\n"
    "DETECT\n"
)

FAST = ["--grid-n", "256"]


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream)
    return code, stream.getvalue()


def read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    magic, dims, maxval, raster = data.split(b"\n", 3)
    assert magic == b"P5"
    w, h = (int(v) for v in dims.split())
    assert maxval == b"65535"
    samples = np.frombuffer(raster, dtype=">u2").reshape(h, w)
    return samples


class TestWriteImage:
    def test_exact_scaling_and_layout(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_image(np.array([[0.0, 1.0], [1.0, 0.5]]), str(path))
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n65535\n")
        samples = np.frombuffer(data.split(b"\n", 3)[3], dtype=">u2")
        assert samples.tolist() == [0, 65535, 65535, 32768]

    def test_all_zero_image(self, tmp_path):
        path = tmp_path / "zero.pgm"
        write_image(np.zeros((3, 4)), str(path))
        samples = read_pgm(str(path))
        assert samples.shape == (3, 4)
        assert not samples.any()

    def test_rejects_bad_values(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            write_image(np.array([[1.0, np.nan]]), str(tmp_path / "x.pgm"))
        with pytest.raises(ValueError, match="non-negative"):
            write_image(np.array([[-1.0, 2.0]]), str(tmp_path / "x.pgm"))

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write image"):
            write_image(np.ones((2, 2)), str(tmp_path / "missing" / "x.pgm"))


class TestTruthTable:
    def test_reference_rows(self, tmp_path):
        code, report = run_cli(
            ["truth-table", *FAST, "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert "H,+1,H,+1,H,+1,yes" in report
        assert "H,-1,H,-1,H,-1,yes" in report
        assert "V,-1,V,+1,V,+1,yes" in report
        assert "V,+1,V,-1,V,-1,yes" in report
        assert "rows_ok=4/4" in report
        images = sorted(p for p in os.listdir(tmp_path) if p.endswith(".pgm"))
        assert images == [
            "truth_H+1.pgm",
            "truth_H-1.pgm",
            "truth_V+1.pgm",
            "truth_V-1.pgm",
        ]

    def test_strict_parity_relabels_and_flags(self):
        code, report = run_cli(["truth-table", *FAST, "--mode", "strict-parity"])
        assert code == EXIT_OK
        assert "non-paper mode" in report
        assert "H,+1,H,-1,H,-1,yes" in report
        assert "V,+1,V,+1,V,+1,yes" in report

    def test_under_resolved_grid_fails(self):
        code, report = run_cli(["truth-table", "--grid-n", "64"])
        assert code == EXIT_MISMATCH
        assert "row_error=" in report
        assert "status=mismatch" in report

    def test_config_echoed(self):
        code, report = run_cli(["truth-table", *FAST, "--waist-mm", "0.6"])
        assert code == EXIT_OK
        assert "grid_n=256" in report
        assert "waist_mm=0.6" in report


class TestBell:
    def test_states_and_concurrences(self):
        code, report = run_cli(["bell"])
        assert code == EXIT_OK
        lines = report.splitlines()
        rows = [l for l in lines if l[:3] in ("00,", "01,", "10,", "11,")]
        amp_rows = rows[:4]
        inv = 1 / np.sqrt(2.0)
        expected = {
            "00": [inv, 0, 0, inv],
            "01": [0, inv, inv, 0],
            "10": [inv, 0, 0, -inv],
            "11": [0, inv, -inv, 0],
        }
        for row in amp_rows:
            seed, *amps, conc = row.split(",")
            parsed = [complex(a) for a in amps]
            assert np.allclose(parsed, expected[seed], atol=1e-12)
            assert abs(float(conc) - 1.0) < 1e-12
        fid_rows = rows[4:]
        fid = np.array([[float(v) for v in r.split(",")[1:]] for r in fid_rows])
        assert np.max(np.abs(fid - np.eye(4))) < 1e-12


class TestSimulate:
    def test_reference_circuit(self, tmp_path):
        circ = tmp_path / "ref.circ"
        circ.write_text(REFERENCE_TEXT)
        out = tmp_path / "out"
        code, report = run_cli(
            ["simulate", str(circ), *FAST, "--out", str(out), "--raw-float"]
        )
        assert code == EXIT_OK
        assert "outcome_sign=-" in report
        assert "outcome_magnitude=1" in report
        assert "outcome_agreement=yes" in report
        assert (out / "simulate_V.pgm").exists()
        assert (out / "simulate_V.npy").exists()
        raw = np.load(out / "simulate_V.npy")
        assert raw.shape == (256, 256)

    def test_readme_example(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Circuit files", 1)[1]
        block = re.search(r"```\n(.*?)```", section, re.S).group(1)
        circ = tmp_path / "readme.circ"
        circ.write_text(block)
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_OK
        assert report_values(report, "outcome_axis") == ["V"]
        assert report_values(report, "outcome_sign") == ["-"]

    def test_without_aperture_reports_no_readout(self, tmp_path):
        circ = tmp_path / "donut.circ"
        circ.write_text("SOURCE pol=V oam=1\nMZI_CNOT\nPOLARIZER V\nDETECT\n")
        out = tmp_path / "out"
        code, report = run_cli(["simulate", str(circ), *FAST, "--out", str(out)])
        assert code == EXIT_OK
        assert "readout=none (missing TRIAPERTURE)" in report
        assert "status=no-readout" in report
        # the image is the unmasked far field: a donut with a dark center
        img = read_pgm(str(out / "simulate_V.pgm"))
        c = img.shape[0] // 2
        assert img[c, c] == 0
        assert img.max() == 65535

    def test_aperture_without_detect_renders_the_detect_images(self, tmp_path):
        # Both branches of simulate share one render path, so dropping DETECT
        # drops the readout but leaves every camera image byte-identical.
        text = "SOURCE pol=D oam=1\nMZI_CNOT\nTRIAPERTURE side=2\n"
        runs = {}
        for name, body in (("readout", text + "DETECT\n"), ("none", text)):
            circ = tmp_path / f"{name}.circ"
            circ.write_text(body)
            out = tmp_path / name
            code, report = run_cli(["simulate", str(circ), *FAST, "--out", str(out)])
            assert code == EXIT_OK
            runs[name] = (report, out)
        assert "outcome_agreement=yes" in runs["readout"][0]
        assert "readout=none (missing DETECT)" in runs["none"][0]
        assert "status=no-readout" in runs["none"][0]
        for image in ("simulate_H.pgm", "simulate_V.pgm"):
            with_detect = (runs["readout"][1] / image).read_bytes()
            assert (runs["none"][1] / image).read_bytes() == with_detect

    @pytest.mark.parametrize(
        "aperture, options, message",
        [
            ("TRIAPERTURE side=20", [], "wave_error=triangle side 0.02 m does not fit"),
            ("TRIAPERTURE side=2", ["--waist-mm", "3"], "wave_error=beam waist 0.003 m"),
        ],
    )
    def test_bad_geometry_is_a_wave_error_with_or_without_detect(
        self, tmp_path, aperture, options, message
    ):
        reports = []
        for name, tail in (("readout", "DETECT\n"), ("none", "")):
            circ = tmp_path / f"{name}.circ"
            circ.write_text(f"SOURCE pol=H oam=1\n{aperture}\n{tail}")
            code, report = run_cli(["simulate", str(circ), *FAST, *options])
            assert code == EXIT_MISMATCH
            assert message in report
            assert report.endswith("status=mismatch\n")
            reports.append(report)
        assert "readout=none (missing DETECT)" in reports[1]
        errors = [[ln for ln in r.splitlines() if ln.startswith("wave_error=")] for r in reports]
        assert errors[0] == errors[1] and len(errors[0]) == 1

    def test_lattice_read_above_max_charge_is_a_wave_error(self, tmp_path):
        # at 256^2 and a 0.6 mm waist this |ell| = 10 image shows 78 = T(12) peaks
        circ = tmp_path / "ell10.circ"
        circ.write_text("SOURCE pol=H oam=10\nTRIAPERTURE side=1 orientation=36.22\nDETECT\n")
        code, report = run_cli(["simulate", str(circ), *FAST, "--waist-mm", "0.6"])
        assert code == EXIT_MISMATCH
        assert report_values(report, "wave_error") == [
            "peak count 78 is T(12): |ell| = 11 exceeds the supported range 10"
        ]
        assert "outcome_magnitude=11" not in report
        assert report.endswith("status=mismatch\n")

    def test_parse_error_position_and_exit(self, tmp_path):
        circ = tmp_path / "bad.circ"
        circ.write_text("SOURCE pol=H oam=1\nHWP angle=abc\n")
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_PARSE
        assert "line 2, column 11" in report

    def test_aperture_before_the_gate_is_a_parse_error(self, tmp_path):
        # read as if it stood after the gate, it gave -1 with status=ok
        circ = tmp_path / "early.circ"
        circ.write_text(
            "SOURCE pol=V oam=1\nTRIAPERTURE side=2 orientation=10\nMZI_CNOT\n"
            "POLARIZER V\nDETECT\n"
        )
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_PARSE
        assert report == (
            f"parse error: {circ}: line 3, column 1: "
            "MZI_CNOT after TRIAPERTURE; the aperture follows the optics\n"
        )

    def test_non_utf8_byte_is_a_parse_error_at_its_position(self, tmp_path):
        circ = tmp_path / "bad.circ"
        circ.write_bytes(b"SOURCE pol=H oam=1\n\xff\n")
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_PARSE
        assert report == (
            f"parse error: {circ}: line 2, column 1: "
            "byte 0xff is not UTF-8 (invalid start byte)\n"
        )
        # lines end as parse sees them; columns count characters, not bytes
        circ.write_bytes(b"SOURCE pol=H oam=1\r\nHWP angle=1 # \xc3\xa9\xe9\n")
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_PARSE
        assert "line 2, column 16: byte 0xe9 is not UTF-8" in report

    def test_a_byte_order_mark_at_the_start_is_skipped(self, tmp_path):
        # some editors start a UTF-8 file with one; it was read as part of SOURCE
        plain, marked = tmp_path / "plain.circ", tmp_path / "marked.circ"
        plain.write_text(REFERENCE_TEXT)
        marked.write_bytes(b"\xef\xbb\xbf" + REFERENCE_TEXT.encode())
        code, report = run_cli(["simulate", str(marked), *FAST])
        assert code == EXIT_OK
        assert report == run_cli(["simulate", str(plain), *FAST])[1].replace(
            str(plain), str(marked)
        )
        assert report.endswith("outcome_agreement=yes\nstatus=ok\n")
        # a bad byte's column does not count the mark
        marked.write_bytes(b"\xef\xbb\xbfSOURCE \xff pol=H oam=1\n")
        code, report = run_cli(["simulate", str(marked), *FAST])
        assert code == EXIT_PARSE
        assert "line 1, column 8: byte 0xff is not UTF-8" in report
        # anywhere else, U+FEFF is a character of the statement
        marked.write_bytes(b"SOURCE pol=H oam=1\n\xef\xbb\xbfDETECT\n")
        code, report = run_cli(["simulate", str(marked), *FAST])
        assert code == EXIT_PARSE
        assert report.endswith("line 2, column 1: unknown keyword '\\ufeffDETECT'\n")

    def assert_superposition_is_not_read(self, report):
        assert report_values(report, "wave_error") == []
        assert report_values(report, "outcome_readout") == [
            "none (OAM superposition of both signs)"
        ]
        for key in ("outcome_sign", "outcome_magnitude", "outcome_agreement"):
            assert report_values(report, key) == []
        assert report.endswith("status=ok\n")

    def test_superposition_is_reported_as_not_read(self, tmp_path):
        # H after the Hadamard holds both OAM signs equally: two spots, no lattice
        circ = tmp_path / "sup.circ"
        circ.write_text(
            "SOURCE pol=D oam=1\nMZI_CNOT\nHWP angle=22.5\nPOLARIZER H\n"
            "TRIAPERTURE side=2\nDETECT\n"
        )
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_OK
        assert report_values(report, "outcome_axis") == ["H"]
        assert report_values(report, "outcome_probability") == ["0.4999999999999999"]
        self.assert_superposition_is_not_read(report)

    def test_superposition_that_would_read_a_wrong_magnitude_is_not_read(self, tmp_path):
        # mostly +3 with some -3: its lattice would read as magnitude 2
        circ = tmp_path / "sup3.circ"
        circ.write_text(
            "SOURCE pol=H oam=3\nHWP angle=5\nMZI_CNOT\nHWP angle=30\nPOLARIZER H\n"
            "TRIAPERTURE side=2\nDETECT\n"
        )
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_OK
        assert report_values(report, "outcome_axis") == ["H"]
        self.assert_superposition_is_not_read(report)

    def test_missing_file(self, tmp_path):
        code, report = run_cli(["simulate", str(tmp_path / "nope.circ"), *FAST])
        assert code == EXIT_IO
        assert "io error" in report


class TestReadoutSweep:
    def test_small_sweep_all_correct(self, tmp_path):
        code, report = run_cli(
            ["readout-sweep", "--ell-min", "-2", "--ell-max", "2", *FAST,
             "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert "0,1,undefined,0,0.000000000,yes," in report
        assert "-2,3,-,2," in report
        assert "2,3,+,2," in report
        csv = (tmp_path / "readout_sweep.csv").read_text()
        assert csv.splitlines()[0] == (
            "ell,spots_per_side,sign,magnitude,orientation_score,correct,note"
        )
        assert len(csv.splitlines()) == 6

    def test_range_validation(self):
        with pytest.raises(SystemExit) as err:
            main(["readout-sweep", "--ell-min", "-11", "--ell-max", "0"], io.StringIO())
        assert err.value.code == 2


def report_values(report, key):
    return [ln.split("=", 1)[1] for ln in report.splitlines() if ln.startswith(key + "=")]


class TestCommandsAgree:
    @pytest.mark.parametrize("ell_min, ell_max", [(-2, 2), (9, 10)])
    def test_sweep_rows_match_simulate(self, tmp_path, ell_min, ell_max):
        code, sweep = run_cli(
            ["readout-sweep", "--ell-min", str(ell_min), "--ell-max", str(ell_max), *FAST]
        )
        lines = sweep.splitlines()
        header = lines.index("ell,spots_per_side,sign,magnitude,orientation_score,correct,note")
        rows = lines[header + 1 : header + 2 + ell_max - ell_min]
        assert [int(row.split(",")[0]) for row in rows] == list(range(ell_min, ell_max + 1))
        for row in rows:
            ell, spots, sign, magnitude, score, correct, note = row.split(",", 6)
            circ = tmp_path / f"ell{ell}.circ"
            circ.write_text(f"SOURCE pol=H oam={ell}\nTRIAPERTURE side=2\nDETECT\n")
            sim_code, report = run_cli(["simulate", str(circ), *FAST])
            errors = report_values(report, "wave_error")
            if correct == "no":
                assert [e.replace(",", ";") for e in errors] == [note]
                assert sim_code == EXIT_MISMATCH
                continue
            assert errors == []
            # a source with no polarizer renders one outcome, on its own axis
            assert report_values(report, "outcome_axis") == ["H"]
            assert report_values(report, "outcome_sign") == [sign]
            assert report_values(report, "outcome_magnitude") == [magnitude]
            assert report_values(report, "outcome_spots_per_side") == [spots]
            assert report_values(report, "outcome_orientation_score") == [score]
            assert report_values(report, "outcome_agreement") == [correct]
        assert code == (EXIT_OK if ell_max < 9 else EXIT_MISMATCH)

    def test_truth_table_row_matches_simulate(self, tmp_path):
        code, table = run_cli(["truth-table", *FAST])
        assert code == EXIT_OK
        (row,) = [ln for ln in table.splitlines() if ln.startswith("V,-1,")]
        wave_pol, wave_ell, ok = row.split(",")[4:]
        circ = tmp_path / "row.circ"
        circ.write_text(format_circuit(_row_circuit("V", -1, RunConfig(grid_n=256))))
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_OK
        assert report_values(report, "outcome_axis") == [wave_pol]
        assert report_values(report, "outcome_sign") == [wave_ell[0]]
        assert report_values(report, "outcome_magnitude") == [wave_ell[1:]]
        assert report_values(report, "outcome_agreement") == [ok]


class TestExitCodes:
    def test_bad_grid_config(self):
        code, report = run_cli(["truth-table", "--grid-n", "100"])
        assert code == EXIT_PARSE
        assert "config error" in report

    def test_out_dir_under_a_file(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code, report = run_cli(
            ["bell", "--out", str(blocker / "sub")]
        )
        assert code == EXIT_IO
        assert "io error" in report

    def test_window_whose_numbers_overflow_is_a_config_error(self):
        # pitch^2 overflows a float; refused before lg_mode can raise OverflowError
        code, report = run_cli(
            ["truth-table", *FAST, "--window-mm", "1e160", "--waist-mm", "1e159"]
        )
        assert code == EXIT_PARSE
        assert report == (
            "config error: window 1e+157 m at grid n 256 gives a pitch^2 of inf, "
            "outside the finite normal floats\n"
        )

    @pytest.mark.parametrize(
        "window_mm, name",
        [
            ("1e-150", "pitch^2"),  # underflows to a subnormal
            ("8.5e147", "camera ceiling"),  # the largest camera value overflows
        ],
    )
    def test_window_at_the_ends_of_the_floats_is_a_config_error(self, window_mm, name):
        waist_mm = str(float(window_mm) / 10)
        code, report = run_cli(
            ["truth-table", *FAST, "--window-mm", window_mm, "--waist-mm", waist_mm]
        )
        assert code == EXIT_PARSE
        assert report.startswith(f"config error: window {float(window_mm) * 1e-3:g} m ")
        assert f" gives a {name}" in report

    def test_aperture_narrower_than_four_pitches_is_refused(self):
        # a 2 mm side on a 3.9e94 m pitch transmits at most one pixel
        code, report = run_cli(
            ["truth-table", *FAST, "--window-mm", "1e100", "--waist-mm", "1e99"]
        )
        assert code == EXIT_MISMATCH
        refusals = [ln for ln in report.splitlines() if ln.startswith("row_error=")]
        assert len(refusals) == 4
        for line in refusals:
            assert line.endswith(
                ": triangle side 0.002 m is narrower than 4 grid pitches (1.5625e+95 m)"
            )

    def test_largest_window_below_the_ceiling_reads_out(self):
        code, report = run_cli(
            ["truth-table", *FAST, "--window-mm", "8e147", "--waist-mm", "8e146",
             "--side-mm", "2e147"]
        )
        assert code == EXIT_OK
        assert "rows_ok=4/4" in report


def counting_everywhere(monkeypatch, name):
    """Wrap the wavefield/readout function ``name`` at every binding in the
    package's modules, so that every call is recorded."""
    calls = []
    real = getattr(wavefield, name, None) or getattr(readout, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (wavefield, readout, circuit):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, wrapper)
    return calls


class TestOneCameraPerCommand:
    """A command's outcomes share one camera, and nothing outlives the command."""

    def test_truth_table_builds_one_mask_and_one_transform(self, monkeypatch):
        masks = counting_everywhere(monkeypatch, "aperture_mask")
        lenses = counting_everywhere(monkeypatch, "far_field")
        assert run_cli(["truth-table", *FAST])[0] == EXIT_OK
        assert (len(masks), len(lenses)) == (1, 1)
        assert run_cli(["truth-table", *FAST, "--mode", "strict-parity"])[0] == EXIT_OK
        assert (len(masks), len(lenses)) == (2, 2)

    def test_truth_table_reads_each_image_once(self, monkeypatch):
        # four rows end in two signed charges, +1 and -1, each read once
        reads = counting_everywhere(monkeypatch, "classify_oam")
        code, report = run_cli(["truth-table", *FAST])
        assert code == EXIT_OK and "rows_ok=4/4" in report
        assert len(reads) == 2

    def test_readout_sweep_renders_one_window_per_magnitude(self, monkeypatch):
        modes = counting_everywhere(monkeypatch, "lg_mode")
        windows = counting_everywhere(monkeypatch, "render_image")
        code, _ = run_cli(["readout-sweep", "--ell-min", "-3", "--ell-max", "3", *FAST])
        assert code == EXIT_OK
        assert [args[1] for args in modes] == [3, 2, 1, 0]
        assert len(windows) == 4


class TestTheFactorBoundFirst:
    """A pure mode's first window is tried against its factor bound before
    the field's variation is summed."""

    def test_truth_table_at_the_reference_optics_sums_no_variation(self, monkeypatch):
        # |l| = 1: the factor bound proves the 64^2 window
        sums = counting_everywhere(monkeypatch, "window_tail_bound")
        code, report = run_cli(["truth-table"])
        assert code == EXIT_OK and "rows_ok=4/4" in report
        assert sums == []

    def test_a_read_builds_its_modes_factors_once(self):
        # the mode and its factor bound share lg_mode's whole-grid factors
        wavefield._grid_factors.cache_clear()
        assert run_cli(["truth-table"])[0] == EXIT_OK
        info = wavefield._grid_factors.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_a_charge_of_two_sums_it_and_tries_no_factor_bound(self, monkeypatch):
        # |l| = 1 is proved by the factor bound alone; |l| = 2, where it
        # cannot prove the first window, skips it and sums the variation
        sums = counting_everywhere(monkeypatch, "window_tail_bound")
        factors = counting_everywhere(monkeypatch, "factor_tail_bound")
        code, report = run_cli(["readout-sweep", "--ell-min", "1", "--ell-max", "2"])
        assert code == EXIT_OK and "status=ok" in report.splitlines()
        assert len(sums) == 1
        assert [args[1] for args in factors] == [1]


FIELDS = [f.name for f in fields(RunConfig)]


class TestFlags:
    #: a value for each field's flag, none of them the default, each echoed as given
    SETTINGS = {
        "grid_n": "256",
        "window_mm": "7",
        "waist_mm": "0.45",
        "side_mm": "1.9",
        "mode": "strict-parity",
    }

    @pytest.mark.parametrize(
        "argv, reads",
        [
            (["truth-table"], FIELDS),
            (["bell"], ["out"]),
            (["simulate", "CIRC"], [n for n in FIELDS if n not in ("side_mm", "mode")]),
            (
                ["readout-sweep", "--ell-min", "1", "--ell-max", "1"],
                [n for n in FIELDS if n not in ("mode", "raw_float")],
            ),
        ],
        ids=["truth-table", "bell", "simulate", "readout-sweep"],
    )
    def test_report_echoes_each_flag_the_command_reads(self, tmp_path, argv, reads):
        circ = tmp_path / "ref.circ"
        circ.write_text(REFERENCE_TEXT)
        settings = {**self.SETTINGS, "out": str(tmp_path / "out"), "raw_float": "true"}
        argv = [str(circ) if a == "CIRC" else a for a in argv]
        for name in reads:
            argv.append("--" + name.replace("_", "-"))
            if name != "raw_float":
                argv.append(settings[name])
        _, report = run_cli(argv)
        lines = report.splitlines()
        start = 2 if argv[0] == "simulate" else 1
        assert lines[start : start + len(reads)] == [f"{n}={settings[n]}" for n in reads]
        assert lines[start + len(reads)].split("=", 1)[0] not in FIELDS

    @pytest.mark.parametrize(
        "argv",
        [
            ["truth-table"],
            ["simulate", "CIRC"],
            # at 256^2 and 512^2 the reference spots of |ell| <= 3 are on the same pixels
            ["readout-sweep", "--ell-min", "1", "--ell-max", "4"],
        ],
        ids=["truth-table", "simulate", "readout-sweep"],
    )
    def test_each_value_flag_changes_the_report_or_an_image(self, tmp_path, argv):
        circ = tmp_path / "ref.circ"
        circ.write_text(REFERENCE_TEXT)
        argv = [str(circ) if a == "CIRC" else a for a in argv]
        reads = COMMAND_FIELDS[argv[0]]

        def outputs(run, settings):
            out = tmp_path / run
            flags = [f"--{n.replace('_', '-')}={v}" for n, v in settings.items()]
            _, report = run_cli([*argv, *flags, "--out", str(out)])
            lines = report.replace(str(out), "DIR").splitlines()
            unechoed = [l for l in lines if l.split("=", 1)[0] not in reads]
            return unechoed, {p.name: p.read_bytes() for p in out.glob("*.pgm")}

        baseline = outputs("defaults", {"grid_n": "256"})
        for name in reads:
            if name in ("out", "raw_float"):
                continue
            value = "512" if name == "grid_n" else self.SETTINGS[name]
            assert outputs(name, {"grid_n": "256", name: value}) != baseline, name

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "c.circ", "--side-mm", "3"],
            ["simulate", "c.circ", "--mode", "strict-parity"],
            ["readout-sweep", "--ell-min", "0", "--ell-max", "0", "--mode", "strict-parity"],
            ["readout-sweep", "--ell-min", "0", "--ell-max", "0", "--raw-float"],
            ["bell", "--grid-n", "256"],
            ["truth-table", "--threshold", "0.3"],
            ["simulate", "c.circ", "--threshold", "0.3"],
            ["readout-sweep", "--ell-min", "0", "--ell-max", "0", "--threshold", "0.3"],
            ["truth-table", "--lambda-nm", "633"],
            ["simulate", "c.circ", "--lambda-nm", "633"],
            ["readout-sweep", "--ell-min", "0", "--ell-max", "0", "--lambda-nm", "633"],
            ["truth-table", "--focal-cm", "25"],
            ["simulate", "c.circ", "--focal-cm", "25"],
            ["readout-sweep", "--ell-min", "0", "--ell-max", "0", "--focal-cm", "25"],
        ],
        ids=[
            "simulate/--side-mm",
            "simulate/--mode",
            "readout-sweep/--mode",
            "readout-sweep/--raw-float",
            "bell/--grid-n",
            "truth-table/--threshold",
            "simulate/--threshold",
            "readout-sweep/--threshold",
            "truth-table/--lambda-nm",
            "simulate/--lambda-nm",
            "readout-sweep/--lambda-nm",
            "truth-table/--focal-cm",
            "simulate/--focal-cm",
            "readout-sweep/--focal-cm",
        ],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv, io.StringIO())
        assert err.value.code == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv",
        [
            ["bell", "--o", "DIR"],
            ["readout-sweep", "--ell-mi", "1", "--ell-ma", "1", "--grid", "256"],
        ],
        ids=["bell/--o", "readout-sweep/--ell-mi"],
    )
    def test_a_prefix_of_a_flag_is_a_usage_error(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv, io.StringIO())
        assert err.value.code == EXIT_PARSE
        assert list(tmp_path.iterdir()) == []


def fresh_process_report(argv):
    """What ``oamcnot argv`` prints when it runs in a new interpreter."""
    src = str(Path(oamcnot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "oamcnot.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return done.stdout


class TestOneParserPerProcess:
    """The parser is built once, at import; no call leaves anything in it."""

    def test_truth_table_after_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["truth-table", *FAST, "--threshold", "0.3"], io.StringIO())
        assert err.value.code == EXIT_PARSE
        code, report = run_cli(["truth-table", *FAST])
        assert code == EXIT_OK
        assert report == fresh_process_report(["truth-table", *FAST])

    def test_bell_after_readout_sweep(self):
        assert run_cli(["readout-sweep", "--ell-min", "1", "--ell-max", "1", *FAST])[0] == EXIT_OK
        code, report = run_cli(["bell"])
        assert code == EXIT_OK
        assert report == fresh_process_report(["bell"])


class TestDeterminism:
    def test_reports_and_images_are_byte_identical(self, tmp_path):
        circ = tmp_path / "ref.circ"
        circ.write_text(REFERENCE_TEXT)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, report = run_cli(
                ["simulate", str(circ), *FAST, "--out", str(out)]
            )
            assert code == EXIT_OK
            # drop the lines naming the output directory itself
            stable = "\n".join(
                l for l in report.splitlines() if str(out) not in l
            )
            outputs.append((stable, (out / "simulate_V.pgm").read_bytes()))
        assert outputs[0] == outputs[1]


def test_run_config_validation():
    with pytest.raises(ValueError, match="positive"):
        RunConfig(side_mm=-1.0)
    with pytest.raises(ValueError, match="mode"):
        RunConfig(mode="other")
    with pytest.raises(ValueError, match="power of two"):
        RunConfig(grid_n=100)
