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

from .hybrid import NORM_TOL, read_only, validate_amplitudes

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


def _strict(mode_label: str) -> bool:
    """Whether a mode label is strict parity.

    The default mode takes the arms at face value (mirror preserves the
    OAM sign, pentaprism inverts it), while strict-parity mode toggles the
    sign on every physical reflection: the splitter reflections and the
    mirror flip it, and the pentaprism's two internal reflections cancel.
    """
    if mode_label not in MODE_LABELS:
        raise ValueError(f"unknown mode label {mode_label!r}; expected one of {MODE_LABELS}")
    return mode_label == STRICT_PARITY


@dataclass(frozen=True, eq=False)
class PathState:
    """Normalized amplitude over path (x) polarization (x) OAM sign."""

    amplitudes: np.ndarray
    oam_magnitude: int

    def __post_init__(self) -> None:
        validate_amplitudes(self, (2, 2, 2))


def inject_lower(pol: int, sign: int) -> PathState:
    """Unit amplitude of OAM magnitude 1 entering the first splitter on the
    lower port."""
    if pol not in (0, 1) or sign not in (0, 1):
        raise ValueError(f"pol and sign must be bits, got ({pol}, {sign})")
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[LOWER, pol, sign] = 1.0
    return PathState(amps, 1)


def pbs_apply(state: PathState, mode_label: str) -> PathState:
    """Polarizing splitter: H transmits (path kept), V reflects (path swapped).

    In strict-parity mode each reflection also toggles the OAM sign.
    """
    a = state.amplitudes
    out = np.zeros_like(a)
    out[:, 0, :] = a[:, 0, :]
    reflected = a[::-1, 1, :]
    out[:, 1, :] = reflected[:, ::-1] if _strict(mode_label) else reflected
    return PathState(out, state.oam_magnitude)


def mirror_apply(state: PathState, mode_label: str) -> PathState:
    """Plain mirror on the lower arm; the upper arm is untouched."""
    a = state.amplitudes.copy()
    if _strict(mode_label):
        a[LOWER] = a[LOWER, :, ::-1]
    return PathState(a, state.oam_magnitude)


def pentaprism_apply(state: PathState, mode_label: str) -> PathState:
    """Pentaprism on the upper arm; the lower arm is untouched."""
    a = state.amplitudes.copy()
    if not _strict(mode_label):
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


def _compose(mode_label: str) -> np.ndarray:
    """Logical 4x4 transfer matrix of the full interferometer, read-only.

    Each logical basis state is injected on the lower input port, pushed
    through splitter -> {mirror, pentaprism} -> splitter, and read off the
    lower output port.
    """
    columns = []
    for pol in (0, 1):
        for sign in (0, 1):
            s = inject_lower(pol, sign)
            for element in (pbs_apply, mirror_apply, pentaprism_apply, pbs_apply):
                s = element(s, mode_label)
            columns.append(_logical_output(s, _BASIS_LABELS[2 * pol + sign]))
    matrix = np.column_stack(columns)
    gram = matrix.conj().T @ matrix
    if float(np.max(np.abs(gram - np.eye(4)))) > NORM_TOL:
        raise RoutingError("composite", float(np.max(np.abs(gram - np.eye(4)))))
    return read_only(matrix)


MZI_MATRICES = {mode: _compose(mode) for mode in MODE_LABELS}


def compose_mzi(mode_label: str) -> np.ndarray:
    """The mode's read-only logical matrix, composed once at import by ``_compose``."""
    _strict(mode_label)
    return MZI_MATRICES[mode_label]
