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
from dataclasses import dataclass

import numpy as np

from . import circuit as dsl
from .hybrid import basis_state, bell_state, concurrence, fidelity
from .interferometer import MODE_LABELS, PAPER_DEFAULT, STRICT_PARITY
from .readout import Camera, ReadoutError
from .wavefield import MAX_CHARGE, Grid, OpticalParams

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_MISMATCH = 3
EXIT_IO = 4

#: Truth-table inputs in presentation order: (polarization, signed charge).
TRUTH_TABLE_INPUTS = (("H", 1), ("H", -1), ("V", -1), ("V", 1))


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; defaults are the reference experiment.
    ``grid`` is built on construction, so a bad grid size is refused here."""

    grid_n: int = 1024
    window_mm: float = 8.0
    waist_mm: float = 0.5
    side_mm: float = 2.0
    mode: str = PAPER_DEFAULT
    out: str | None = None
    raw_float: bool = False

    def __post_init__(self) -> None:
        for name in ("window_mm", "waist_mm", "side_mm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive, got {value}")
        if self.mode not in MODE_LABELS:
            raise ValueError(f"mode must be one of {MODE_LABELS}, got {self.mode!r}")
        object.__setattr__(self, "grid", Grid(self.grid_n, self.window_mm * 1e-3))

    @property
    def optical_params(self) -> OpticalParams:
        # the waist is the one optic a run sets; wavefield fixes wavelength and lens
        return OpticalParams(beam_waist=self.waist_mm * 1e-3)


#: add_argument keywords of each RunConfig field's flag, in field order.
_FLAGS = {
    "grid_n": dict(type=int, help="grid samples per side"),
    "window_mm": dict(type=float, help="grid window (mm)"),
    "waist_mm": dict(type=float, help="beam waist (mm)"),
    "side_mm": dict(type=float, help="triangle side (mm)"),
    "mode": dict(choices=MODE_LABELS, help="interferometer reflection-parity convention"),
    "out": dict(help="directory for images and reports"),
    "raw_float": dict(action="store_true", help="also dump raw float64 .npy images"),
}

#: The RunConfig fields each command reads: its only flags, and the only
#: settings its report echoes.  simulate's circuit file sets side and mode.
COMMAND_FIELDS = {
    "truth-table": tuple(_FLAGS),
    "bell": ("out",),
    "simulate": tuple(n for n in _FLAGS if n not in ("side_mm", "mode")),
    "readout-sweep": tuple(n for n in _FLAGS if n not in ("mode", "raw_float")),
}


def _header(command: str, config: RunConfig, *lines: str) -> list[str]:
    """A report's first lines: the command, ``lines``, then the settings it reads."""
    echo = (f"{n}={_echo_value(getattr(config, n))}" for n in COMMAND_FIELDS[command])
    return [f"command={command}", *lines, *echo]


def _echo_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return dsl.format_number(value)
    return str(value)


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


def cmd_truth_table(config: RunConfig, camera: Camera, stream) -> int:
    _ensure_out(config)
    lines = _header("truth-table", config)
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
            circuit = _row_circuit(pol, ell, config)
            wave = dsl.run_wave(circuit, camera, full_frame=config.out is not None)
            (outcome,) = wave.outcomes
            exp_amps = basis_state(
                0 if expected[0] == "H" else 1, 0 if expected[1] > 0 else 1, abs(ell)
            ).amplitudes
            deviation = float(
                np.max(np.abs(wave.logical.final_state.amplitudes - exp_amps))
            )
            wave_ell = outcome.readout.topological_charge
            ok = deviation < 1e-12 and wave_ell == outcome.expected
            axis = outcome.axis.value
            lines.append(
                f"{pol},{ell:+d},{axis},{outcome.expected:+d},"
                f"{axis},{wave_ell:+d},{'yes' if ok else 'no'}"
            )
            rows_ok += int(ok)
            _save_outputs(outcome.intensity_map, f"truth_{pol}{ell:+d}", config)
        except (ValueError, ReadoutError) as exc:
            lines.append(f"{pol},{ell:+d},err,err,err,err,no")
            errors.append(f"row_error={pol},{ell:+d}: {exc}")
    lines.extend(errors)
    lines.append(f"rows_ok={rows_ok}/4")
    lines.append("status=" + ("ok" if rows_ok == 4 else "mismatch"))
    _emit(lines, stream, config, "truth_table")
    return EXIT_OK if rows_ok == 4 else EXIT_MISMATCH


def cmd_bell(config: RunConfig, stream) -> int:
    _ensure_out(config)
    lines = _header("bell", config)
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


def _read_circuit(path: str) -> dsl.Circuit:
    """Parse a circuit file, read as UTF-8 after any byte-order mark.  A byte
    that is not UTF-8 is a ParseError at its line and column, counted as
    parse counts them."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            # read() decodes the whole file at once, so exc.start is a file offset
            before = exc.object[: exc.start].decode("utf-8")
            before = before.replace("\r\n", "\n").replace("\r", "\n")
            raise dsl.ParseError(
                before.count("\n") + 1,
                len(before) - before.rfind("\n"),
                f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})",
            ) from None
    return dsl.parse(text)


def cmd_simulate(circuit_path: str, config: RunConfig, camera: Camera, stream) -> int:
    try:
        circ = _read_circuit(circuit_path)
    except OSError as exc:
        stream.write(f"io error: {exc}\n")
        return EXIT_IO
    except dsl.ParseError as exc:
        stream.write(
            f"parse error: {circuit_path}: line {exc.line}, column {exc.column}: "
            f"{exc.message}\n"
        )
        return EXIT_PARSE

    _ensure_out(config)
    lines = _header("simulate", config, f"circuit_file={circuit_path}")
    lines += (f"stmt={stmt_line}" for stmt_line in dsl.format_circuit(circ).splitlines())

    try:
        wave = dsl.run_wave(circ, camera, full_frame=config.out is not None)
        logical, outcomes, wave_error = wave.logical, wave.outcomes, None
    except (ReadoutError, ValueError) as exc:
        logical, outcomes, wave_error = dsl.run_logical(circ), (), str(exc)
    if logical.final_state is None:
        lines.append("final_state=none (zero-probability polarizer outcome)")
    else:
        amps = ",".join(_fmt_complex(a) for a in logical.final_state.amplitudes)
        lines.append(f"final_amplitudes={amps}")
        lines.append(f"oam_magnitude={abs(circ.statements[0].oam)}")
    for event in logical.projections:
        lines.append(
            f"projection={event.axis.value},probability={event.probability!r}"
        )

    status = "ok"
    has_aperture = circ.first_of(dsl.TriangleAperture) is not None
    reads_out = has_aperture and circ.first_of(dsl.Detect) is not None
    if not reads_out:
        lines.append(f"readout=none (missing {'DETECT' if has_aperture else 'TRIAPERTURE'})")
        status = "no-readout"
    if wave_error is not None:
        lines.append(f"wave_error={wave_error}")
        status = "mismatch"
    for outcome in outcomes:
        lines.append(f"outcome_axis={outcome.axis.value}")
        lines.append(f"outcome_probability={outcome.probability!r}")
        result = outcome.readout
        if result is not None:
            agrees = result.topological_charge == outcome.expected
            if not agrees:
                status = "mismatch"
            lines.append(f"outcome_sign={result.sign}")
            lines.append(f"outcome_magnitude={result.magnitude}")
            lines.append(f"outcome_spots_per_side={result.spots_per_side}")
            lines.append(f"outcome_orientation_score={result.orientation_score:.9f}")
            lines.append(f"outcome_agreement={'yes' if agrees else 'no'}")
        elif reads_out:
            lines.append("outcome_readout=none (OAM superposition of both signs)")
        path = _save_outputs(outcome.intensity_map, f"simulate_{outcome.axis.value}", config)
        if path is not None:
            lines.append(f"outcome_image={path}")
    lines.append(f"status={status}")
    _emit(lines, stream, config, "simulate")
    return EXIT_MISMATCH if status == "mismatch" else EXIT_OK


def cmd_readout_sweep(
    ell_min: int, ell_max: int, config: RunConfig, camera: Camera, stream
) -> int:
    _ensure_out(config)
    lines = [*_header("readout-sweep", config), f"ell_min={ell_min}", f"ell_max={ell_max}"]
    csv = ["ell,spots_per_side,sign,magnitude,orientation_score,correct,note"]
    all_correct = True
    for ell in range(ell_min, ell_max + 1):
        circ = dsl.Circuit(
            (dsl.Source("H", ell), dsl.TriangleAperture(config.side_mm), dsl.Detect())
        )
        try:
            wave = dsl.run_wave(circ, camera)
        except (ReadoutError, ValueError) as exc:
            note = str(exc).replace(",", ";")
            csv.append(f"{ell},,,,,no,{note}")
            all_correct = False
            continue
        (outcome,) = wave.outcomes
        result = outcome.readout
        correct = result.topological_charge == outcome.expected
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
    # allow_abbrev=False: a flag is spelled in full, so a prefix is a usage error
    parser = argparse.ArgumentParser(
        prog="oamcnot",
        description="Simulate the polarization/OAM controlled-NOT optical circuit "
        "and its triangular-aperture readout.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("truth-table", help="reproduce the four-row truth table", allow_abbrev=False)
    sub.add_parser("bell", help="emit the entangled-state family", allow_abbrev=False)
    p_sim = sub.add_parser(
        "simulate", help="run a circuit file through both layers", allow_abbrev=False
    )
    p_sim.add_argument("circuit_file")
    p_sweep = sub.add_parser(
        "readout-sweep", help="classify a range of charges", allow_abbrev=False
    )
    p_sweep.add_argument("--ell-min", type=int, required=True)
    p_sweep.add_argument("--ell-max", type=int, required=True)
    for command, names in COMMAND_FIELDS.items():
        for name in names:
            sub.choices[command].add_argument(
                "--" + name.replace("_", "-"), default=argparse.SUPPRESS, **_FLAGS[name]
            )
    return parser


#: Built once: parse_args keeps nothing of one call for the next.
_PARSER = _build_parser()


def main(argv: list[str] | None = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = _PARSER.parse_args(argv)
    if args.command == "readout-sweep":
        if not (-MAX_CHARGE <= args.ell_min <= args.ell_max <= MAX_CHARGE):
            _PARSER.error(
                f"need -{MAX_CHARGE} <= ell-min <= ell-max <= {MAX_CHARGE}"
            )
    try:
        config = RunConfig(**{n: v for n, v in vars(args).items() if n in _FLAGS})
        # the command's one camera, which refuses a window it cannot render
        camera = Camera(config.grid, config.optical_params)
    except ValueError as exc:
        stream.write(f"config error: {exc}\n")
        return EXIT_PARSE
    try:
        if args.command == "truth-table":
            return cmd_truth_table(config, camera, stream)
        if args.command == "bell":
            return cmd_bell(config, stream)
        if args.command == "simulate":
            return cmd_simulate(args.circuit_file, config, camera, stream)
        return cmd_readout_sweep(args.ell_min, args.ell_max, config, camera, stream)
    except OSError as exc:
        stream.write(f"io error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
