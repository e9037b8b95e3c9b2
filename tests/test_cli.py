import io
import os

import numpy as np
import pytest

from oamcnot.cli import (
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    RunConfig,
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
    data = open(path, "rb").read()
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
        assert "lambda_nm=532" in report


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

    def test_parse_error_position_and_exit(self, tmp_path):
        circ = tmp_path / "bad.circ"
        circ.write_text("SOURCE pol=H oam=1\nHWP angle=abc\n")
        code, report = run_cli(["simulate", str(circ), *FAST])
        assert code == EXIT_PARSE
        assert "line 2, column 11" in report

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
    with pytest.raises(ValueError, match="threshold"):
        RunConfig(threshold=1.5)
    with pytest.raises(ValueError, match="mode"):
        RunConfig(mode="other")
