"""Command-line front end: canned reproductions (truth table, entangled
family, readout sweep), arbitrary circuit files, PGM image emission, and
line-oriented key=value / CSV reports.

Exit codes: 0 success, 2 circuit parse failure, 3 physics or
classification disagreement, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import circuit as dsl
from .hybrid import basis_state, bell_state, concurrence, fidelity
from .interferometer import MODE_LABELS, PAPER_DEFAULT, STRICT_PARITY
from .readout import (
    DEFAULT_THRESHOLD_FRAC,
    ReadoutError,
    SIGN_UNDEFINED,
    readout_roundtrip,
)
from .wavefield import (
    MAX_CHARGE,
    ApertureSpec,
    Grid,
    OpticalParams,
    TRIANGLE,
    aperture_mask,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_IO = 4

#: Truth-table inputs in presentation order: (polarization, signed charge).
TRUTH_TABLE_INPUTS = (("H", 1), ("H", -1), ("V", -1), ("V", 1))


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; defaults are the reference experiment."""

    grid_n: int = 1024
    window_mm: float = 8.0
    waist_mm: float = 0.5
    lambda_nm: float = 532.0
    focal_cm: float = 30.0
    side_mm: float = 2.0
    threshold: float = DEFAULT_THRESHOLD_FRAC
    mode: str = PAPER_DEFAULT
    out: str | None = None
    raw_float: bool = False

    def __post_init__(self) -> None:
        for name in ("window_mm", "waist_mm", "lambda_nm", "focal_cm", "side_mm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.mode not in MODE_LABELS:
            raise ValueError(f"mode must be one of {MODE_LABELS}, got {self.mode!r}")

    @property
    def grid(self) -> Grid:
        return Grid(self.grid_n, self.window_mm * 1e-3)

    @property
    def optical_params(self) -> OpticalParams:
        return OpticalParams(
            wavelength=self.lambda_nm * 1e-9,
            focal_length=self.focal_cm * 1e-2,
            beam_waist=self.waist_mm * 1e-3,
        )

    def echo_lines(self) -> list[str]:
        return [
            f"grid_n={self.grid_n}",
            f"window_mm={dsl._format_number(self.window_mm)}",
            f"waist_mm={dsl._format_number(self.waist_mm)}",
            f"lambda_nm={dsl._format_number(self.lambda_nm)}",
            f"focal_cm={dsl._format_number(self.focal_cm)}",
            f"side_mm={dsl._format_number(self.side_mm)}",
            f"threshold={dsl._format_number(self.threshold)}",
            f"mode={self.mode}",
            f"out={self.out if self.out is not None else '-'}",
            f"raw_float={'true' if self.raw_float else 'false'}",
        ]


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}j"


def write_image(img: np.ndarray, path: str) -> None:
    """Write a 16-bit binary PGM, linearly scaled so the maximum maps
    to 65535 (all-zero images stay all zero).  Rounding is half up."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2:
        raise ValueError(f"expected a 2D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)) or bool((img < 0).any()):
        raise ValueError("image must be finite and non-negative")
    peak = float(img.max())
    if peak > 0:
        samples = np.floor(img / peak * 65535.0 + 0.5).astype(">u2")
    else:
        samples = np.zeros(img.shape, dtype=">u2")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(samples.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write image {path}: {exc}") from exc


def _emit(lines: list[str], stream, config: RunConfig, name: str) -> None:
    text = "\n".join(lines) + "\n"
    stream.write(text)
    if config.out is not None:
        with open(os.path.join(config.out, f"{name}_report.txt"), "w") as fh:
            fh.write(text)


def _ensure_out(config: RunConfig) -> None:
    if config.out is not None:
        os.makedirs(config.out, exist_ok=True)


def _save_outputs(img: np.ndarray, stem: str, config: RunConfig) -> str | None:
    if config.out is None:
        return None
    path = os.path.join(config.out, stem + ".pgm")
    write_image(img, path)
    if config.raw_float:
        np.save(os.path.join(config.out, stem + ".npy"), img)
    return path


def _basis_readout(state) -> tuple[str, int] | None:
    """(pol label, signed charge) when the state is a basis state."""
    probs = np.abs(state.amplitudes) ** 2
    idx = int(np.argmax(probs))
    if probs[idx] < 1.0 - 1e-9:
        return None
    pol = "H" if idx < 2 else "V"
    ell = state.oam_magnitude * (1 if idx % 2 == 0 else -1)
    return pol, ell


def _expected_truth_output(pol: str, ell: int, mode: str) -> tuple[str, int]:
    """Controlled-flip action on a truth-table input; strict-parity mode
    additionally relabels the target bit on the output."""
    flip = (pol == "V") ^ (mode == STRICT_PARITY)
    return pol, -ell if flip else ell


def _row_circuit(pol: str, ell: int, config: RunConfig) -> dsl.Circuit:
    return dsl.Circuit(
        (
            dsl.Source(pol, ell),
            dsl.MziCnot(config.mode),
            dsl.Polarizer(pol),
            dsl.TriangleAperture(config.side_mm),
            dsl.Detect(),
        )
    )


def cmd_truth_table(config: RunConfig, stream) -> int:
    _ensure_out(config)
    lines = ["command=truth-table", *config.echo_lines()]
    lines.append(
        "expectation="
        + ("relabeled (non-paper mode)" if config.mode == STRICT_PARITY else "standard")
    )
    lines.append("input_pol,input_ell,logical_pol,logical_ell,wave_pol,wave_ell,ok")

    rows_ok = 0
    errors: list[str] = []
    for pol, ell in TRUTH_TABLE_INPUTS:
        expected = _expected_truth_output(pol, ell, config.mode)
        try:
            circ = _row_circuit(pol, ell, config)
            logical = dsl.run_logical(circ)
            basis = _basis_readout(logical.final_state)
            wave = dsl.run_wave(
                circ, config.grid, config.optical_params,
                threshold_frac=config.threshold,
            )
            (outcome,) = wave.outcomes
            exp_amps = basis_state(
                0 if expected[0] == "H" else 1, 0 if expected[1] > 0 else 1, abs(ell)
            ).amplitudes
            deviation = float(
                np.max(np.abs(logical.final_state.amplitudes - exp_amps))
            )
            wave_ell = outcome.readout.topological_charge
            ok = (
                deviation < 1e-12
                and basis == expected
                and outcome.axis.value == expected[0]
                and outcome.readout.magnitude == abs(expected[1])
                and wave_ell == expected[1]
            )
            lines.append(
                f"{pol},{ell:+d},"
                + (f"{basis[0]},{basis[1]:+d}," if basis else "?,?,")
                + f"{outcome.axis.value},{wave_ell:+d},{'yes' if ok else 'no'}"
            )
            rows_ok += int(ok)
            _save_outputs(outcome.intensity_map, f"truth_{pol}{ell:+d}", config)
        except (ValueError, ReadoutError, dsl.CircuitError) as exc:
            lines.append(f"{pol},{ell:+d},err,err,err,err,no")
            errors.append(f"row_error={pol},{ell:+d}: {exc}")
    lines.extend(errors)
    lines.append(f"rows_ok={rows_ok}/4")
    lines.append("status=" + ("ok" if rows_ok == 4 else "mismatch"))
    _emit(lines, stream, config, "truth_table")
    return EXIT_OK if rows_ok == 4 else EXIT_MISMATCH


def cmd_bell(config: RunConfig, stream) -> int:
    _ensure_out(config)
    lines = ["command=bell", *config.echo_lines()]
    lines.append("seed,amp_H+,amp_H-,amp_V+,amp_V-,concurrence")
    states = []
    for pol in (0, 1):
        for oam in (0, 1):
            state = bell_state(pol, oam, 1)
            states.append((f"{pol}{oam}", state))
            amps = ",".join(_fmt_complex(a) for a in state.amplitudes)
            lines.append(f"{pol}{oam},{amps},{concurrence(state)!r}")
    lines.append("fidelity," + ",".join(label for label, _ in states))
    for label, state in states:
        row = ",".join(repr(fidelity(state, other)) for _, other in states)
        lines.append(f"{label},{row}")
    lines.append("status=ok")
    _emit(lines, stream, config, "bell")
    return EXIT_OK


def _expected_outcome_charge(logical: dsl.LogicalRun, axis) -> tuple[int, str] | None:
    """(magnitude, sign) the readout should report for an outcome, or None
    when the outcome's OAM is a genuine superposition."""
    if logical.oam_is_zero:
        return 0, SIGN_UNDEFINED
    state = logical.final_state
    weights = np.abs(dsl._oam_components(state, axis)) ** 2
    for weight, sign in zip(weights, "+-"):
        if weight > 1.0 - 1e-9:
            return state.oam_magnitude, sign
    return None


def cmd_simulate(circuit_path: str, config: RunConfig, stream) -> int:
    try:
        text = open(circuit_path).read()
    except OSError as exc:
        stream.write(f"io error: {exc}\n")
        return EXIT_IO
    try:
        circ = dsl.parse(text)
    except dsl.ParseError as exc:
        stream.write(
            f"parse error: {circuit_path}: line {exc.line}, column {exc.column}: "
            f"{exc.message}\n"
        )
        return EXIT_PARSE

    _ensure_out(config)
    lines = ["command=simulate", f"circuit_file={circuit_path}", *config.echo_lines()]
    for stmt_line in dsl.format_circuit(circ).rstrip("\n").split("\n"):
        lines.append(f"stmt={stmt_line}")

    logical = dsl.run_logical(circ)
    if logical.final_state is None:
        lines.append("final_state=none (zero-probability polarizer outcome)")
    else:
        amps = ",".join(_fmt_complex(a) for a in logical.final_state.amplitudes)
        lines.append(f"final_amplitudes={amps}")
        lines.append(
            f"oam_magnitude={0 if logical.oam_is_zero else logical.final_state.oam_magnitude}"
        )
    for event in logical.projections:
        lines.append(
            f"projection={event.axis.value},probability={event.probability!r}"
        )

    status = "ok"
    aperture_stmt = circ.first_of(dsl.TriangleAperture)
    has_detect = circ.first_of(dsl.Detect) is not None
    if aperture_stmt is not None and has_detect:
        try:
            wave = dsl.run_wave(
                circ, config.grid, config.optical_params,
                threshold_frac=config.threshold,
            )
        except (ReadoutError, ValueError, dsl.CircuitError) as exc:
            lines.append(f"wave_error={exc}")
            status = "mismatch"
            wave = None
        if wave is not None:
            for outcome in wave.outcomes:
                expected = _expected_outcome_charge(logical, outcome.axis)
                got = (outcome.readout.magnitude, outcome.readout.sign)
                agreement = "n/a" if expected is None else (
                    "yes" if got == expected else "no"
                )
                if agreement == "no":
                    status = "mismatch"
                lines.append(f"outcome_axis={outcome.axis.value}")
                lines.append(f"outcome_probability={outcome.probability!r}")
                lines.append(f"outcome_sign={outcome.readout.sign}")
                lines.append(f"outcome_magnitude={outcome.readout.magnitude}")
                lines.append(f"outcome_spots_per_side={outcome.readout.spots_per_side}")
                lines.append(
                    f"outcome_orientation_score={outcome.readout.orientation_score:.9f}"
                )
                lines.append(f"outcome_agreement={agreement}")
                path = _save_outputs(
                    outcome.intensity_map, f"simulate_{outcome.axis.value}", config
                )
                if path is not None:
                    lines.append(f"outcome_image={path}")
    else:
        missing = "TRIAPERTURE" if aperture_stmt is None else "DETECT"
        lines.append(f"readout=none (missing {missing})")
        if logical.final_state is not None:
            mask = None
            if aperture_stmt is not None:
                mask = aperture_mask(config.grid, aperture_stmt.spec)
            for axis, probability, img, _ in dsl.render_outcomes(
                logical, config.grid, config.optical_params, mask
            ):
                lines.append(f"outcome_axis={axis.value}")
                lines.append(f"outcome_probability={probability!r}")
                path = _save_outputs(img, f"simulate_{axis.value}", config)
                if path is not None:
                    lines.append(f"outcome_image={path}")
        status = "no-readout"
    lines.append(f"status={status}")
    _emit(lines, stream, config, "simulate")
    return EXIT_MISMATCH if status == "mismatch" else EXIT_OK


def cmd_readout_sweep(ell_min: int, ell_max: int, config: RunConfig, stream) -> int:
    _ensure_out(config)
    lines = ["command=readout-sweep", *config.echo_lines()]
    lines.append(f"ell_min={ell_min}")
    lines.append(f"ell_max={ell_max}")
    csv = ["ell,spots_per_side,sign,magnitude,orientation_score,correct,note"]
    aperture = ApertureSpec(TRIANGLE, config.side_mm * 1e-3, 0.0)
    all_correct = True
    for ell in range(ell_min, ell_max + 1):
        try:
            result = readout_roundtrip(
                ell, config.optical_params, config.grid, aperture,
                threshold_frac=config.threshold,
            )
        except (ReadoutError, ValueError) as exc:
            note = str(exc).replace(",", ";")
            csv.append(f"{ell},,,,,no,{note}")
            all_correct = False
            continue
        if ell == 0:
            correct = result.magnitude == 0 and result.sign == SIGN_UNDEFINED
        else:
            correct = result.topological_charge == ell
        all_correct &= correct
        csv.append(
            f"{ell},{result.spots_per_side},{result.sign},{result.magnitude},"
            f"{result.orientation_score:.9f},{'yes' if correct else 'no'},"
        )
    lines.extend(csv)
    lines.append("status=" + ("ok" if all_correct else "mismatch"))
    _emit(lines, stream, config, "readout_sweep")
    if config.out is not None:
        with open(os.path.join(config.out, "readout_sweep.csv"), "w") as fh:
            fh.write("\n".join(csv) + "\n")
    return EXIT_OK if all_correct else EXIT_MISMATCH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamcnot",
        description="Simulate the polarization/OAM controlled-NOT optical circuit "
        "and its triangular-aperture readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunConfig()

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--grid-n", type=int, default=defaults.grid_n,
                       help="grid samples per side")
        p.add_argument("--window-mm", type=float, default=defaults.window_mm,
                       help="grid window (mm)")
        p.add_argument("--waist-mm", type=float, default=defaults.waist_mm,
                       help="beam waist (mm)")
        p.add_argument("--lambda-nm", type=float, default=defaults.lambda_nm,
                       help="wavelength (nm)")
        p.add_argument("--focal-cm", type=float, default=defaults.focal_cm,
                       help="focal length (cm)")
        p.add_argument("--side-mm", type=float, default=defaults.side_mm,
                       help="triangle side (mm)")
        p.add_argument("--threshold", type=float, default=defaults.threshold,
                       help="peak threshold as a fraction of the image maximum")
        p.add_argument("--mode", choices=list(MODE_LABELS), default=defaults.mode,
                       help="interferometer reflection-parity convention")
        p.add_argument("--out", default=None, help="directory for images and reports")
        p.add_argument("--raw-float", action="store_true",
                       help="also dump raw float64 .npy images")

    add_common(sub.add_parser("truth-table", help="reproduce the four-row truth table"))
    add_common(sub.add_parser("bell", help="emit the entangled-state family"))
    p_sim = sub.add_parser("simulate", help="run a circuit file through both layers")
    p_sim.add_argument("circuit_file")
    add_common(p_sim)
    p_sweep = sub.add_parser("readout-sweep", help="classify a range of charges")
    p_sweep.add_argument("--ell-min", type=int, required=True)
    p_sweep.add_argument("--ell-max", type=int, required=True)
    add_common(p_sweep)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def main(argv: list[str] | None = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "readout-sweep":
        if not (-MAX_CHARGE <= args.ell_min <= args.ell_max <= MAX_CHARGE):
            parser.error(
                f"need -{MAX_CHARGE} <= ell-min <= ell-max <= {MAX_CHARGE}"
            )
    try:
        config = _config_from_args(args)
        config.grid  # validate the grid geometry before running anything
    except ValueError as exc:
        stream.write(f"config error: {exc}\n")
        return EXIT_PARSE
    try:
        if args.command == "truth-table":
            return cmd_truth_table(config, stream)
        if args.command == "bell":
            return cmd_bell(config, stream)
        if args.command == "simulate":
            return cmd_simulate(args.circuit_file, config, stream)
        return cmd_readout_sweep(args.ell_min, args.ell_max, config, stream)
    except OSError as exc:
        stream.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
