"""Line-oriented text format for optical circuits, plus interpreters that
run a parsed circuit on the logical layer (state-vector gates) and the
wave layer (field synthesis, aperture, far field, readout).

Grammar: one statement per line, ``#`` starts a comment, keywords are
case-insensitive.

    SOURCE pol=<H|V|D|A> oam=<signed int>
    HWP angle=<real degrees>
    MZI_CNOT [mode=<paper-default|strict-parity>]
    POLARIZER <H|V>
    TRIAPERTURE side=<real mm> [orientation=<real deg>]
    DETECT

Exactly one SOURCE, and it comes first.  At most one DETECT, last if
present.  A zero OAM charge cannot drive MZI_CNOT (there is no sign bit
to act on).  The half-wave plate takes the physical plate angle: a plate
at angle theta rotates linear polarization by 2*theta, so 22.5 degrees
implements the polarization Hadamard.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .hybrid import (
    HybridState,
    PolarizationAxis,
    ZERO_PROBABILITY,
    project_polarization,
)
from .interferometer import ElementConfig, MODE_LABELS, PAPER_DEFAULT, compose_mzi
from .readout import DEFAULT_THRESHOLD_FRAC, ReadoutResult, read_image, render_image
from .wavefield import (
    ApertureSpec,
    Grid,
    OpticalParams,
    ScalarField,
    TRIANGLE,
    aperture_mask,
    lg_mode,
)

_POL_LABELS = ("H", "V", "D", "A")
_AXIS_BY_LABEL = {
    "H": PolarizationAxis.HORIZONTAL,
    "V": PolarizationAxis.VERTICAL,
    "D": PolarizationAxis.DIAGONAL,
    "A": PolarizationAxis.ANTIDIAGONAL,
}

_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


class ParseError(Exception):
    """Syntax or structure error, pointing at the first offending character."""

    def __init__(self, line: int, column: int, message: str, token: str = ""):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.token = token


class CircuitError(RuntimeError):
    """Semantic error while interpreting a circuit."""


@dataclass(frozen=True)
class Source:
    pol: str
    oam: int

    def __post_init__(self) -> None:
        if self.pol not in _POL_LABELS:
            raise ValueError(f"pol must be one of {_POL_LABELS}, got {self.pol!r}")


@dataclass(frozen=True)
class Hwp:
    angle_deg: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle_deg):
            raise ValueError(f"angle must be finite, got {self.angle_deg}")


@dataclass(frozen=True)
class MziCnot:
    mode: str = PAPER_DEFAULT

    def __post_init__(self) -> None:
        if self.mode not in MODE_LABELS:
            raise ValueError(f"mode must be one of {MODE_LABELS}, got {self.mode!r}")


@dataclass(frozen=True)
class Polarizer:
    axis: str

    def __post_init__(self) -> None:
        if self.axis not in ("H", "V"):
            raise ValueError(f"polarizer axis must be H or V, got {self.axis!r}")


@dataclass(frozen=True)
class TriangleAperture:
    side_mm: float
    orientation_deg: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.side_mm) and self.side_mm > 0):
            raise ValueError(f"side must be positive, got {self.side_mm}")
        if not math.isfinite(self.orientation_deg):
            raise ValueError(f"orientation must be finite, got {self.orientation_deg}")

    @property
    def side_m(self) -> float:
        return self.side_mm * 1e-3

    @property
    def orientation_rad(self) -> float:
        return math.radians(self.orientation_deg)

    @property
    def spec(self) -> ApertureSpec:
        return ApertureSpec(TRIANGLE, self.side_m, self.orientation_rad)


@dataclass(frozen=True)
class Detect:
    pass


Statement = Source | Hwp | MziCnot | Polarizer | TriangleAperture | Detect


@dataclass(frozen=True)
class Circuit:
    statements: tuple[Statement, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", tuple(self.statements))
        stmts = self.statements
        if not stmts or not isinstance(stmts[0], Source):
            raise ValueError("circuit must start with exactly one SOURCE")
        if any(isinstance(s, Source) for s in stmts[1:]):
            raise ValueError("circuit has more than one SOURCE")
        detects = [i for i, s in enumerate(stmts) if isinstance(s, Detect)]
        if len(detects) > 1 or (detects and detects[0] != len(stmts) - 1):
            raise ValueError("DETECT must be unique and last")
        if stmts[0].oam == 0 and any(isinstance(s, MziCnot) for s in stmts):
            raise ValueError("MZI_CNOT needs a nonzero OAM charge")

    @property
    def source(self) -> Source:
        return self.statements[0]  # type: ignore[return-value]

    def first_of(self, kind: type) -> Statement | None:
        for s in self.statements:
            if isinstance(s, kind):
                return s
        return None


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens with their 1-based start columns."""
    tokens = []
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        start = i
        while i < len(line) and not line[i].isspace():
            i += 1
        tokens.append((line[start:i], start + 1))
    return tokens


def _split_kv(
    arg_tokens: list[tuple[str, int]],
    line_no: int,
    allowed: tuple[str, ...],
) -> dict[str, tuple[str, int]]:
    """key=value arguments -> {key: (value, value column)}."""
    seen: dict[str, tuple[str, int]] = {}
    for token, col in arg_tokens:
        key, sep, value = token.partition("=")
        key = key.lower()
        if not sep or not key:
            raise ParseError(line_no, col, f"expected key=value, got {token!r}", token)
        if key not in allowed:
            raise ParseError(line_no, col, f"unknown parameter {key!r}", key)
        if key in seen:
            raise ParseError(line_no, col, f"duplicate parameter {key!r}", key)
        if not value:
            raise ParseError(line_no, col, f"missing value for {key!r}", token)
        seen[key] = (value, col + len(key) + 1)
    return seen


def _require(
    kv: dict[str, tuple[str, int]], key: str, line_no: int, kw_col: int, kw: str
) -> tuple[str, int]:
    if key not in kv:
        raise ParseError(line_no, kw_col, f"{kw} requires {key}=...", kw)
    return kv[key]


def _parse_float(value: str, line_no: int, col: int) -> float:
    if not _FLOAT_RE.match(value):
        raise ParseError(line_no, col, f"malformed number {value!r}", value)
    parsed = float(value)
    if not math.isfinite(parsed):
        raise ParseError(line_no, col, f"number out of range {value!r}", value)
    return parsed


def _parse_int(value: str, line_no: int, col: int) -> int:
    if not _INT_RE.match(value):
        raise ParseError(line_no, col, f"malformed integer {value!r}", value)
    return int(value)


def parse(text: str) -> Circuit:
    """Parse circuit text; raises ParseError with a 1-based position."""
    statements: list[Statement] = []
    source_oam: int | None = None
    detect_seen = False

    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize(line)
        if not tokens:
            continue
        (kw_token, kw_col), args = tokens[0], tokens[1:]
        kw = kw_token.upper()

        if detect_seen:
            raise ParseError(line_no, kw_col, "statement after DETECT", kw_token)
        if not statements and kw != "SOURCE":
            raise ParseError(
                line_no, kw_col, "circuit must start with SOURCE", kw_token
            )

        if kw == "SOURCE":
            if statements:
                raise ParseError(line_no, kw_col, "duplicate SOURCE", kw_token)
            kv = _split_kv(args, line_no, ("pol", "oam"))
            pol_value, pol_col = _require(kv, "pol", line_no, kw_col, kw)
            pol = pol_value.upper()
            if pol not in _POL_LABELS:
                raise ParseError(
                    line_no, pol_col, f"pol must be one of H, V, D, A, got {pol_value!r}",
                    pol_value,
                )
            oam_value, oam_col = _require(kv, "oam", line_no, kw_col, kw)
            oam = _parse_int(oam_value, line_no, oam_col)
            source_oam = oam
            statements.append(Source(pol, oam))
        elif kw == "HWP":
            kv = _split_kv(args, line_no, ("angle",))
            value, col = _require(kv, "angle", line_no, kw_col, kw)
            statements.append(Hwp(_parse_float(value, line_no, col)))
        elif kw == "MZI_CNOT":
            kv = _split_kv(args, line_no, ("mode",))
            mode = PAPER_DEFAULT
            if "mode" in kv:
                value, col = kv["mode"]
                if value not in MODE_LABELS:
                    raise ParseError(
                        line_no, col, f"mode must be one of {MODE_LABELS}, got {value!r}",
                        value,
                    )
                mode = value
            if source_oam == 0:
                raise ParseError(
                    line_no, kw_col, "MZI_CNOT needs a nonzero OAM charge", kw_token
                )
            statements.append(MziCnot(mode))
        elif kw == "POLARIZER":
            if not args:
                raise ParseError(line_no, kw_col, "POLARIZER requires an axis (H or V)", kw_token)
            (value, col) = args[0]
            if len(args) > 1:
                raise ParseError(
                    line_no, args[1][1], f"unexpected token {args[1][0]!r}", args[1][0]
                )
            axis = value.upper()
            if axis not in ("H", "V"):
                raise ParseError(
                    line_no, col, f"polarizer axis must be H or V, got {value!r}", value
                )
            statements.append(Polarizer(axis))
        elif kw == "TRIAPERTURE":
            kv = _split_kv(args, line_no, ("side", "orientation"))
            value, col = _require(kv, "side", line_no, kw_col, kw)
            side = _parse_float(value, line_no, col)
            if side <= 0:
                raise ParseError(line_no, col, f"side must be positive, got {value}", value)
            orientation = 0.0
            if "orientation" in kv:
                o_value, o_col = kv["orientation"]
                orientation = _parse_float(o_value, line_no, o_col)
            statements.append(TriangleAperture(side, orientation))
        elif kw == "DETECT":
            if args:
                raise ParseError(
                    line_no, args[0][1], f"unexpected token {args[0][0]!r}", args[0][0]
                )
            statements.append(Detect())
            detect_seen = True
        else:
            raise ParseError(line_no, kw_col, f"unknown keyword {kw_token!r}", kw_token)

    if not statements:
        raise ParseError(1, 1, "empty circuit: missing SOURCE statement")
    return Circuit(tuple(statements))


def _format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_circuit(circuit: Circuit) -> str:
    """Canonical text: uppercase keywords, one statement per line,
    defaults rendered explicitly.  parse(format_circuit(c)) == c."""
    lines = []
    for s in circuit.statements:
        if isinstance(s, Source):
            lines.append(f"SOURCE pol={s.pol} oam={s.oam}")
        elif isinstance(s, Hwp):
            lines.append(f"HWP angle={_format_number(s.angle_deg)}")
        elif isinstance(s, MziCnot):
            lines.append(f"MZI_CNOT mode={s.mode}")
        elif isinstance(s, Polarizer):
            lines.append(f"POLARIZER {s.axis}")
        elif isinstance(s, TriangleAperture):
            lines.append(
                f"TRIAPERTURE side={_format_number(s.side_mm)} "
                f"orientation={_format_number(s.orientation_deg)}"
            )
        else:
            lines.append("DETECT")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ProjectionEvent:
    """A polarizer encounter: statement index, axis, transmitted
    probability, and the collapsed state (None when nothing transmits)."""

    index: int
    axis: PolarizationAxis
    probability: float
    collapsed: HybridState | None


@dataclass(frozen=True)
class LogicalRun:
    """State after each statement plus all polarizer events.

    For a zero-charge source there is no sign qubit; the polarization
    algebra then runs on a stand-in positive-sign state and
    ``oam_is_zero`` marks the record.
    """

    circuit: Circuit
    states: tuple[HybridState | None, ...]
    projections: tuple[ProjectionEvent, ...]
    oam_is_zero: bool

    @property
    def final_state(self) -> HybridState | None:
        return self.states[-1]


def _hwp_matrix(angle_deg: float) -> np.ndarray:
    """Half-wave plate Jones matrix at plate angle theta (fast axis from
    horizontal): rotates linear polarization by 2*theta."""
    two_theta = 2.0 * math.radians(angle_deg)
    c, s = math.cos(two_theta), math.sin(two_theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _source_state(source: Source) -> tuple[HybridState, bool]:
    jones = _AXIS_BY_LABEL[source.pol].jones
    oam_is_zero = source.oam == 0
    magnitude = abs(source.oam) if not oam_is_zero else 1
    sign_bit = 1 if source.oam < 0 else 0
    oam_vec = np.zeros(2, dtype=complex)
    oam_vec[sign_bit] = 1.0
    return HybridState(np.kron(jones, oam_vec), magnitude), oam_is_zero


def run_logical(circuit: Circuit) -> LogicalRun:
    """Evolve the hybrid state through the circuit, statement by statement."""
    states: list[HybridState | None] = []
    projections: list[ProjectionEvent] = []
    state: HybridState | None = None
    oam_is_zero = False

    for index, stmt in enumerate(circuit.statements):
        if isinstance(stmt, Source):
            state, oam_is_zero = _source_state(stmt)
        elif state is None:
            # A zero-probability polarizer killed the beam upstream.
            if isinstance(stmt, Polarizer):
                projections.append(
                    ProjectionEvent(index, _AXIS_BY_LABEL[stmt.axis], 0.0, None)
                )
        elif isinstance(stmt, Hwp):
            amps = np.kron(_hwp_matrix(stmt.angle_deg), np.eye(2)) @ state.amplitudes
            state = HybridState(amps, state.oam_magnitude)
        elif isinstance(stmt, MziCnot):
            matrix = compose_mzi(ElementConfig(mode_label=stmt.mode))
            state = HybridState(matrix @ state.amplitudes, state.oam_magnitude)
        elif isinstance(stmt, Polarizer):
            axis = _AXIS_BY_LABEL[stmt.axis]
            probability, collapsed = project_polarization(state, axis)
            projections.append(ProjectionEvent(index, axis, probability, collapsed))
            state = collapsed
        # TriangleAperture and Detect do not act on the logical state.
        states.append(state)

    return LogicalRun(circuit, tuple(states), tuple(projections), oam_is_zero)


@dataclass(frozen=True)
class WaveOutcome:
    """One polarization outcome rendered through the wave pipeline."""

    axis: PolarizationAxis
    probability: float
    intensity_map: np.ndarray
    far_grid: Grid
    readout: ReadoutResult


@dataclass(frozen=True)
class WaveRun:
    logical: LogicalRun
    aperture: ApertureSpec
    outcomes: tuple[WaveOutcome, ...]


def _oam_components(state: HybridState, axis: PolarizationAxis) -> np.ndarray:
    """Normalized OAM-sign amplitudes riding on the given axis."""
    chi = axis.jones.conj() @ state.amplitudes.reshape(2, 2)
    return chi / np.linalg.norm(chi)


def outcome_axes(run: LogicalRun) -> list[tuple[PolarizationAxis, float]]:
    """(axis, probability) pairs to render.

    With polarizers in the circuit the analyzer axis is fixed and the
    probability is the survival product; otherwise both H and V outcomes
    of the final state are rendered.
    """
    if run.projections:
        survival = 1.0
        for event in run.projections:
            survival *= event.probability
        axis = run.projections[-1].axis
        return [(axis, survival)] if survival > ZERO_PROBABILITY else []
    axes = []
    final = run.final_state
    assert final is not None
    for axis in (PolarizationAxis.HORIZONTAL, PolarizationAxis.VERTICAL):
        probability, _ = project_polarization(final, axis)
        if probability > ZERO_PROBABILITY:
            axes.append((axis, probability))
    return axes


def synthesize_field(
    run: LogicalRun, axis: PolarizationAxis, grid: Grid, params: OpticalParams
) -> ScalarField:
    """Transverse field of the OAM component carried by a polarization
    outcome: a superposition of the +|ell| and -|ell| vortex modes."""
    if run.oam_is_zero:
        return lg_mode(grid, 0, params.beam_waist, params.wavelength)
    state = run.final_state
    assert state is not None
    chi = _oam_components(state, axis)
    m = state.oam_magnitude
    plus = lg_mode(grid, +m, params.beam_waist, params.wavelength)
    minus = lg_mode(grid, -m, params.beam_waist, params.wavelength)
    samples = chi[0] * plus.samples + chi[1] * minus.samples
    return ScalarField(samples, grid, params.wavelength)


def render_outcomes(
    run: LogicalRun, grid: Grid, params: OpticalParams, mask: np.ndarray | None
) -> Iterator[tuple[PolarizationAxis, float, np.ndarray, Grid]]:
    """Yield (axis, probability, camera image, far-field grid) for each
    polarization outcome, one outcome at a time."""
    for axis, probability in outcome_axes(run):
        img, far_grid = render_image(
            synthesize_field(run, axis, grid, params), mask, params.focal_length
        )
        yield axis, probability, img, far_grid


def run_wave(
    circuit: Circuit,
    grid: Grid,
    params: OpticalParams,
    *,
    threshold_frac: float = DEFAULT_THRESHOLD_FRAC,
) -> WaveRun:
    """Render each polarization outcome through aperture, lens, and readout."""
    aperture_stmt = circuit.first_of(TriangleAperture)
    if aperture_stmt is None or circuit.first_of(Detect) is None:
        raise CircuitError(
            "wave-layer run needs both TRIAPERTURE and DETECT in the circuit"
        )
    aperture = aperture_stmt.spec
    logical = run_logical(circuit)
    mask = aperture_mask(grid, aperture)
    outcomes = tuple(
        WaveOutcome(
            axis, probability, img, far_grid,
            read_image(img, far_grid, aperture, params, threshold_frac),
        )
        for axis, probability, img, far_grid in render_outcomes(logical, grid, params, mask)
    )
    return WaveRun(logical, aperture, outcomes)
