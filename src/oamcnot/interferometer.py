"""Path-resolved model of the two-arm polarizing interferometer that
implements the controlled OAM-sign flip.

Light enters on the lower port of the first polarizing splitter.  H is
transmitted along the lower arm (plain mirror), V is reflected into the
upper arm (pentaprism, which inverts the OAM sign), and the second
splitter recombines both arms onto the lower output port.  Composing the
four elements on the logical basis must reproduce the CNOT matrix.

Amplitude layout: ``amplitudes[path, pol, sign]`` with path 0 = lower arm,
1 = upper arm; pol 0 = H, 1 = V; sign 0 = positive OAM, 1 = negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hybrid import CNOT_MATRIX, NORM_TOL

LOWER, UPPER = 0, 1

PAPER_DEFAULT = "paper-default"
STRICT_PARITY = "strict-parity"
MODE_LABELS = (PAPER_DEFAULT, STRICT_PARITY)

ROUTING_TOL = 1e-12

_BASIS_LABELS = ("lower |H,+>", "lower |H,->", "lower |V,+>", "lower |V,->")


class RoutingError(RuntimeError):
    """Amplitude left on a non-output port after traversing the circuit."""

    def __init__(self, input_label: str, leak: float):
        super().__init__(
            f"input {input_label} leaves {leak:.3e} amplitude on the unused "
            "output port; the element configuration does not route losslessly"
        )
        self.input_label = input_label
        self.leak = leak


@dataclass(frozen=True)
class ElementConfig:
    """Optical-element conventions for the interferometer.

    ``pbs_reflection_phase`` is applied on every splitter reflection.
    The mode label decides how reflections treat the OAM sign: the
    default mode takes the arms at face value (mirror preserves the
    sign, pentaprism inverts it), while strict-parity mode toggles the
    sign on every physical reflection: the splitter reflections and the
    mirror flip it, and the pentaprism's two internal reflections cancel.
    The three flip flags are read-only, derived from the label.
    """

    pbs_reflection_phase: float = 0.0
    mode_label: str = PAPER_DEFAULT

    def __post_init__(self) -> None:
        if self.mode_label not in MODE_LABELS:
            raise ValueError(
                f"unknown mode label {self.mode_label!r}; expected one of {MODE_LABELS}"
            )

    @property
    def pbs_reflection_flips_oam(self) -> bool:
        return self.mode_label == STRICT_PARITY

    @property
    def mirror_flips_oam(self) -> bool:
        return self.mode_label == STRICT_PARITY

    @property
    def pentaprism_flips_oam(self) -> bool:
        return self.mode_label == PAPER_DEFAULT

    @classmethod
    def paper_default(cls) -> "ElementConfig":
        return cls()

    @classmethod
    def strict_parity(cls) -> "ElementConfig":
        return cls(mode_label=STRICT_PARITY)


@dataclass(frozen=True, eq=False)
class PathState:
    """Normalized amplitude over path (x) polarization (x) OAM sign."""

    amplitudes: np.ndarray
    oam_magnitude: int

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (2, 2, 2):
            raise ValueError(f"expected (2, 2, 2) amplitudes, got {amps.shape}")
        if self.oam_magnitude < 1:
            raise ValueError("OAM magnitude must be >= 1")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


def inject_lower(pol: int, sign: int, magnitude: int = 1) -> PathState:
    """Unit amplitude entering the first splitter on the lower port."""
    if pol not in (0, 1) or sign not in (0, 1):
        raise ValueError(f"pol and sign must be bits, got ({pol}, {sign})")
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[LOWER, pol, sign] = 1.0
    return PathState(amps, magnitude)


def pbs_apply(state: PathState, config: ElementConfig) -> PathState:
    """Polarizing splitter: H transmits (path kept), V reflects (path swapped).

    Each reflection multiplies by exp(i * pbs_reflection_phase) and, in
    strict-parity mode, also toggles the OAM sign.
    """
    a = state.amplitudes
    out = np.zeros_like(a)
    out[:, 0, :] = a[:, 0, :]
    reflected = a[::-1, 1, :]
    if config.pbs_reflection_flips_oam:
        reflected = reflected[:, ::-1]
    out[:, 1, :] = np.exp(1j * config.pbs_reflection_phase) * reflected
    return PathState(out, state.oam_magnitude)


def mirror_apply(state: PathState, config: ElementConfig) -> PathState:
    """Plain mirror on the lower arm; the upper arm is untouched."""
    a = state.amplitudes.copy()
    if config.mirror_flips_oam:
        a[LOWER] = a[LOWER, :, ::-1]
    return PathState(a, state.oam_magnitude)


def pentaprism_apply(state: PathState, config: ElementConfig) -> PathState:
    """Pentaprism on the upper arm; the lower arm is untouched."""
    a = state.amplitudes.copy()
    if config.pentaprism_flips_oam:
        a[UPPER] = a[UPPER, :, ::-1]
    return PathState(a, state.oam_magnitude)


def _logical_output(state: PathState, input_label: str) -> np.ndarray:
    """Read the logical 4-vector off the lower output port.

    Raises RoutingError if the upper port still carries amplitude.
    """
    leak = float(np.max(np.abs(state.amplitudes[UPPER])))
    if leak > ROUTING_TOL:
        raise RoutingError(input_label, leak)
    return state.amplitudes[LOWER].reshape(4)


def compose_mzi(config: ElementConfig) -> np.ndarray:
    """Logical 4x4 transfer matrix of the full interferometer.

    Each logical basis state is injected on the lower input port, pushed
    through splitter -> {mirror, pentaprism} -> splitter, and read off the
    lower output port.
    """
    columns = []
    for pol in (0, 1):
        for sign in (0, 1):
            s = inject_lower(pol, sign)
            s = pbs_apply(s, config)
            s = mirror_apply(s, config)
            s = pentaprism_apply(s, config)
            s = pbs_apply(s, config)
            columns.append(_logical_output(s, _BASIS_LABELS[2 * pol + sign]))
    matrix = np.column_stack(columns)
    gram = matrix.conj().T @ matrix
    if float(np.max(np.abs(gram - np.eye(4)))) > NORM_TOL:
        raise RoutingError("composite", float(np.max(np.abs(gram - np.eye(4)))))
    return matrix


def verify_cnot(matrix: np.ndarray) -> float:
    """Max elementwise deviation from the CNOT matrix, one global phase out."""
    m = np.asarray(matrix, dtype=complex)
    overlap = np.trace(CNOT_MATRIX.conj().T @ m)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.max(np.abs(m / phase - CNOT_MATRIX)))
