"""Line-oriented text format for optical circuits, plus interpreters that
run a parsed circuit on the logical layer (state-vector gates) and on a
``readout.Camera`` (the wave layer: aperture, far field, readout).

Grammar: one statement per line, ``#`` starts a comment, keywords are
case-insensitive.

    SOURCE pol=<H|V|D|A> oam=<signed int>
    HWP angle=<real degrees>
    MZI_CNOT [mode=<paper-default|strict-parity>]
    POLARIZER <H|V>
    TRIAPERTURE side=<real mm> [orientation=<real deg>]
    DETECT

Exactly one SOURCE, and it comes first.  At most one TRIAPERTURE, after
every HWP, MZI_CNOT and POLARIZER: the aperture stands at the camera.  At
most one DETECT, last if present.  A zero OAM charge cannot drive
MZI_CNOT (there is no sign bit to act on).  The half-wave plate takes the
physical plate angle: a plate at angle theta rotates linear polarization
by 2*theta, so 22.5 degrees implements the polarization Hadamard.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .hybrid import (
    HybridState,
    PolarizationAxis,
    SIGN_VECTORS,
    ZERO_PROBABILITY,
    project_polarization,
)
from .interferometer import MODE_LABELS, PAPER_DEFAULT, compose_mzi
from .readout import Camera, ReadoutResult
from .wavefield import TRIANGLE, ApertureSpec

_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")


class ParseError(Exception):
    """Syntax or structure error, pointing at the first offending character."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ArgumentError(ValueError):
    """A statement argument outside its domain; ``parameter`` is the
    argument's name in the circuit text."""

    def __init__(self, parameter: str, message: str):
        super().__init__(message)
        self.parameter = parameter


@dataclass(frozen=True)
class Source:
    pol: str
    oam: int

    def __post_init__(self) -> None:
        try:
            PolarizationAxis(self.pol)
        except ValueError:
            labels = ", ".join(axis.value for axis in PolarizationAxis)
            raise ArgumentError("pol", f"pol must be one of {labels}, got {self.pol!r}") from None


@dataclass(frozen=True)
class Hwp:
    angle_deg: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.angle_deg):
            raise ArgumentError("angle", f"angle must be finite, got {self.angle_deg}")


@dataclass(frozen=True)
class MziCnot:
    mode: str = PAPER_DEFAULT

    def __post_init__(self) -> None:
        if self.mode not in MODE_LABELS:
            raise ArgumentError("mode", f"mode must be one of {MODE_LABELS}, got {self.mode!r}")


@dataclass(frozen=True)
class Polarizer:
    axis: str

    def __post_init__(self) -> None:
        if self.axis not in ("H", "V"):
            raise ArgumentError("axis", f"polarizer axis must be H or V, got {self.axis!r}")


@dataclass(frozen=True)
class TriangleAperture:
    side_mm: float
    orientation_deg: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.side_mm) and self.side_mm > 0):
            raise ArgumentError("side", f"side must be positive, got {self.side_mm}")
        if not math.isfinite(self.orientation_deg):
            raise ArgumentError(
                "orientation", f"orientation must be finite, got {self.orientation_deg}"
            )

    @property
    def spec(self) -> ApertureSpec:
        # reduced exactly modulo the symmetry: unreduced, a huge angle collapses the vertices
        degrees = self.orientation_deg % 120.0
        return ApertureSpec(TRIANGLE, self.side_mm * 1e-3, math.radians(degrees))


@dataclass(frozen=True)
class Detect:
    pass


Statement = Source | Hwp | MziCnot | Polarizer | TriangleAperture | Detect


_EMPTY = "empty circuit: missing SOURCE statement"


def _placement_error(before: Sequence[Statement], kind: type | None) -> str | None:
    """Why a statement of type ``kind`` cannot follow ``before``, a prefix
    that passed this check, or None when it can.  ``kind`` None is an
    unknown keyword, which must still respect where SOURCE and DETECT stand."""
    if not before:
        return None if kind is Source else "circuit must start with SOURCE"
    if isinstance(before[-1], Detect):
        return "statement after DETECT"
    if kind is Source:
        return "duplicate SOURCE"
    if isinstance(before[-1], TriangleAperture):  # only DETECT may follow one
        if kind is TriangleAperture:
            return "duplicate TRIAPERTURE"
        if kind in (Hwp, MziCnot, Polarizer):
            return f"{_FORMAT[kind][0]} after TRIAPERTURE; the aperture follows the optics"
    if kind is MziCnot and before[0].oam == 0:
        return "MZI_CNOT needs a nonzero OAM charge"
    return None


@dataclass(frozen=True)
class Circuit:
    statements: tuple[Statement, ...]

    def __post_init__(self) -> None:
        # parse builds its Circuit without this, having checked each
        # statement as it read it: what is set or checked here, it must match
        object.__setattr__(self, "statements", tuple(self.statements))
        if not self.statements:
            raise ValueError(_EMPTY)
        before: list[Statement] = []
        for stmt in self.statements:
            message = _placement_error(before, type(stmt))
            if message is not None:
                raise ValueError(message)
            before.append(stmt)

    def first_of(self, kind: type) -> Statement | None:
        for s in self.statements:
            if isinstance(s, kind):
                return s
        return None


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated tokens with their 1-based start columns."""
    tokens, end = [], 0
    for token in line.split():
        end = line.index(token, end) + len(token)  # only whitespace since end
        tokens.append((token, end - len(token) + 1))
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
            raise ParseError(line_no, col, f"expected key=value, got {token!r}")
        if key not in allowed:
            raise ParseError(line_no, col, f"unknown parameter {key!r}")
        if key in seen:
            raise ParseError(line_no, col, f"duplicate parameter {key!r}")
        if not value:
            raise ParseError(line_no, col, f"missing value for {key!r}")
        seen[key] = (value, col + len(key) + 1)
    return seen


def _decimal(value: str) -> float:
    if not _FLOAT_RE.match(value):
        raise ValueError(f"malformed number {value!r}")
    parsed = float(value)
    if not math.isfinite(parsed):
        raise ValueError(f"number out of range {value!r}")
    return parsed


def _integer(value: str) -> int:
    if not _INT_RE.match(value):
        raise ValueError(f"malformed integer {value!r}")
    return int(value)


# keyword -> (statement type, parameters as (key, field, converter, required)),
# and _KEYS below holds each keyword's keys.  POLARIZER takes its one
# parameter as a bare token, not as key=value.
_SYNTAX: dict[str, tuple[type, tuple[tuple[str, str, Callable[[str], object], bool], ...]]] = {
    "SOURCE": (Source, (("pol", "pol", str.upper, True), ("oam", "oam", _integer, True))),
    "HWP": (Hwp, (("angle", "angle_deg", _decimal, True),)),
    "MZI_CNOT": (MziCnot, (("mode", "mode", str, False),)),
    "POLARIZER": (Polarizer, (("axis", "axis", str.upper, True),)),
    "TRIAPERTURE": (TriangleAperture, (
        ("side", "side_mm", _decimal, True),
        ("orientation", "orientation_deg", _decimal, False),
    )),
    "DETECT": (Detect, ()),
}
_KEYS = {kw: tuple(p[0] for p in params) for kw, (_, params) in _SYNTAX.items()}


def parse(text: str) -> Circuit:
    """Parse circuit text; raises ParseError with a 1-based position.

    The placement and argument rules are the ones ``Circuit`` and the
    statement types enforce.  parse adds the token, key=value and number
    syntax, and points a placement error at the keyword and an argument
    error at the rejected value.
    """
    statements: list[Statement] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        tokens = _tokenize(raw.split("#", 1)[0])
        if not tokens:
            continue
        (kw_token, kw_col), args = tokens[0], tokens[1:]
        kw = kw_token.upper()
        kind, params = _SYNTAX.get(kw, (None, ()))
        message = _placement_error(statements, kind)
        if message is None and kind is None:
            message = f"unknown keyword {kw_token!r}"
        if message is not None:
            raise ParseError(line_no, kw_col, message)

        if kind is Polarizer:
            if not args:
                raise ParseError(line_no, kw_col, "POLARIZER requires an axis (H or V)")
            found, extra = {"axis": args[0]}, args[1:]
        elif params:
            found, extra = _split_kv(args, line_no, _KEYS[kw]), []
        else:
            found, extra = {}, args
        if extra:
            token, col = extra[0]
            raise ParseError(line_no, col, f"unexpected token {token!r}")

        values = {}
        for key, field, convert, required in params:
            if key in found:
                value, col = found[key]
                try:
                    values[field] = convert(value)
                except ValueError as exc:
                    raise ParseError(line_no, col, str(exc)) from None
            elif required:
                raise ParseError(line_no, kw_col, f"{kw} requires {key}=...")
        try:
            statements.append(kind(**values))
        except ArgumentError as exc:
            value, col = found[exc.parameter]
            raise ParseError(line_no, col, str(exc)) from None

    if not statements:
        raise ParseError(1, 1, _EMPTY)
    circuit = object.__new__(Circuit)  # each placement is checked above, not again
    object.__setattr__(circuit, "statements", tuple(statements))
    return circuit


def format_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


# statement type -> (keyword, parameters as (key, field)), read off _SYNTAX.
_FORMAT = {
    kind: (kw, tuple((key, field) for key, field, _, _ in params))
    for kw, (kind, params) in _SYNTAX.items()
}


def format_statement(s: Statement) -> str:
    """Canonical text of one statement: uppercase keyword, defaults
    rendered explicitly."""
    kw, params = _FORMAT[type(s)]
    if isinstance(s, Polarizer):
        return f"{kw} {s.axis}"
    parts = [kw]
    for key, field in params:
        value = getattr(s, field)
        parts.append(f"{key}={value if isinstance(value, str) else format_number(value)}")
    return " ".join(parts)


def format_circuit(circuit: Circuit) -> str:
    """Canonical text, one statement per line.  parse(format_circuit(c)) == c."""
    return "\n".join(map(format_statement, circuit.statements)) + "\n"


@dataclass(frozen=True)
class ProjectionEvent:
    """A polarizer encounter: its axis and transmitted probability."""

    axis: PolarizationAxis
    probability: float


@dataclass(frozen=True)
class LogicalRun:
    """The final state (None once a polarizer passes nothing), all
    polarizer events, and ``analyzer``: the last polarizer's axis, or None
    when there is none or a half-wave plate follows it.

    For a zero-charge source there is no sign qubit; the polarization
    algebra then runs on a stand-in positive-sign state of magnitude 1.
    """

    final_state: HybridState | None
    projections: tuple[ProjectionEvent, ...]
    analyzer: PolarizationAxis | None


def _hwp_matrix(angle_deg: float) -> np.ndarray:
    """Half-wave plate Jones matrix at plate angle theta (fast axis from
    horizontal): rotates linear polarization by 2*theta."""
    two_theta = 2.0 * math.radians(angle_deg)
    c, s = math.cos(two_theta), math.sin(two_theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _source_state(source: Source) -> HybridState:
    """The source's basis state; a zero charge stands in as +1."""
    jones, sign = PolarizationAxis(source.pol).jones, SIGN_VECTORS[source.oam < 0]
    return HybridState(np.outer(jones, sign).reshape(4), abs(source.oam) or 1)


def run_logical(circuit: Circuit) -> LogicalRun:
    """Evolve the hybrid state through the circuit, statement by statement."""
    projections: list[ProjectionEvent] = []
    state: HybridState | None = None
    analyzer: PolarizationAxis | None = None

    for stmt in circuit.statements:
        if isinstance(stmt, Source):
            state = _source_state(stmt)
        elif isinstance(stmt, Polarizer):
            analyzer = PolarizationAxis(stmt.axis)
            # A zero-probability polarizer upstream leaves nothing to project.
            probability, state = (
                (0.0, None) if state is None else project_polarization(state, analyzer)
            )
            projections.append(ProjectionEvent(analyzer, probability))
        elif isinstance(stmt, Hwp):
            analyzer = None
            if state is not None:
                # on the polarization index; + 0.0 gives kron(plate, I)'s +0.0 for -0.0
                plate = _hwp_matrix(stmt.angle_deg)
                amps = (plate @ state.amplitudes.reshape(2, 2)).reshape(4) + 0.0
                state = HybridState(amps, state.oam_magnitude)
        elif isinstance(stmt, MziCnot) and state is not None:
            matrix = compose_mzi(stmt.mode)
            state = HybridState(matrix @ state.amplitudes, state.oam_magnitude)
        # TriangleAperture and Detect do not act on the logical state.

    return LogicalRun(state, tuple(projections), analyzer)


@dataclass(frozen=True)
class WaveOutcome:
    """One polarization outcome at the camera.  ``intensity_map`` is the
    whole camera frame, read-only, when the outcome is written, else None.
    ``expected`` is the signed charge the readout must give (0 for a
    zero-charge source), or None when the outcome's OAM is a genuine
    superposition: this is the one judge of every command's readouts.
    ``readout`` is None unless the circuit has TRIAPERTURE and DETECT and
    ``expected`` is not None: the triangle names a single vortex mode."""

    axis: PolarizationAxis
    probability: float
    intensity_map: np.ndarray | None
    readout: ReadoutResult | None
    expected: int | None


@dataclass(frozen=True)
class WaveRun:
    logical: LogicalRun
    outcomes: tuple[WaveOutcome, ...]


def outcome_axes(run: LogicalRun) -> list[tuple[PolarizationAxis, float]]:
    """(axis, probability) pairs to render; each probability includes the
    survival product of the circuit's polarizers.

    The analyzer, if any, is the one axis; otherwise the H and V outcomes
    of the final state are rendered.
    """
    survival = 1.0
    for event in run.projections:
        survival *= event.probability
    if survival <= ZERO_PROBABILITY:
        return []
    if run.analyzer is not None:
        return [(run.analyzer, survival)]
    axes = []
    for axis in (PolarizationAxis.HORIZONTAL, PolarizationAxis.VERTICAL):
        probability = survival * project_polarization(run.final_state, axis)[0]
        if probability > ZERO_PROBABILITY:
            axes.append((axis, probability))
    return axes


def run_wave(circuit: Circuit, camera: Camera, *, full_frame: bool = False) -> WaveRun:
    """Each polarization outcome at the camera, rendered only when it is
    read out (the circuit has TRIAPERTURE and DETECT, and the outcome an
    expected charge) or written (``full_frame``: the whole frame).  A
    readout is always read from the camera window, never from the frame.
    An outcome left unrendered is refused as a rendered one would be, by
    the camera's refusal step alone; a blocked beam is not refused.  An
    outcome that carries one vortex mode is that mode's image; one that
    carries both is their superposition, written but never read.  A mode
    whose weight is exactly zero is not carried; a sign whose weight is
    above 1 - 1e-9 is the expected charge."""
    aperture_stmt = circuit.first_of(TriangleAperture)
    aperture = None if aperture_stmt is None else aperture_stmt.spec
    reads_out = aperture is not None and circuit.first_of(Detect) is not None
    logical = run_logical(circuit)
    magnitude = abs(circuit.statements[0].oam)
    outcomes = []
    for axis, probability in outcome_axes(logical):
        charge, weights, expected = magnitude, None, 0
        if magnitude:
            # the normalized OAM-sign amplitudes riding on the axis
            chi = axis.jones.conj() @ logical.final_state.amplitudes.reshape(2, 2)
            plus, minus = chi / np.linalg.norm(chi)
            if plus == 0:
                charge = -magnitude
            elif minus != 0:
                weights = plus, minus
            plus_only, minus_only = (abs(w) ** 2 > 1.0 - 1e-9 for w in (plus, minus))
            expected = magnitude if plus_only else -magnitude if minus_only else None
        reads = reads_out and expected is not None
        if not (reads or full_frame):
            camera.refuse(aperture, magnitude)
        readout = camera.read(aperture, charge, weights) if reads else None
        frame = camera.image(aperture, charge, weights, frame=True)[0] if full_frame else None
        outcomes.append(WaveOutcome(axis, probability, frame, readout, expected))
    return WaveRun(logical, tuple(outcomes))
