"""State-vector algebra for a single photon carrying two qubits at once:
linear polarization (control) and the sign of its orbital angular momentum
(target).

Basis order is (|H,+>, |H,->, |V,+>, |V,->), i.e. the amplitude vector
(a, b, c, d) keeps the polarization bit high and the OAM-sign bit low.
The OAM magnitude is metadata riding along with the state: gates act on
the sign only and never touch the magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

NORM_TOL = 1e-12
ZERO_PROBABILITY = 1e-14

_SQRT2 = np.sqrt(2.0)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, no longer writeable."""
    a.setflags(write=False)
    return a


CNOT_MATRIX = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)

# Hadamard on polarization, identity on the OAM sign.
HADAMARD_POL_MATRIX = np.kron(
    np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2,
    np.eye(2, dtype=complex),
)

# Each axis's unit Jones vector (H, V components) by its label, and the
# OAM-sign vectors of + and -, each stored once.
_JONES = {
    "H": read_only(np.array([1.0, 0.0], dtype=complex)),
    "V": read_only(np.array([0.0, 1.0], dtype=complex)),
    "D": read_only(np.array([1.0, 1.0], dtype=complex) / _SQRT2),
    "A": read_only(np.array([1.0, -1.0], dtype=complex) / _SQRT2),
}
SIGN_VECTORS = tuple(read_only(np.eye(2, dtype=complex)))


def validate_amplitudes(state, shape: tuple[int, ...]) -> None:
    """Check that a state's amplitudes have ``shape`` and unit norm and that
    its OAM magnitude is >= 1, then store a read-only complex copy of the
    amplitudes on the (frozen) state."""
    amps = np.array(state.amplitudes, dtype=complex)
    if amps.shape != shape:
        raise ValueError(f"expected amplitudes of shape {shape}, got {amps.shape}")
    if state.oam_magnitude < 1:
        raise ValueError(
            "OAM magnitude must be >= 1: magnitude 0 has no sign and "
            "cannot encode the target qubit"
        )
    norm_sq = float(np.vdot(amps, amps).real)
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(f"state not normalized: sum |amp|^2 = {norm_sq!r}")
    object.__setattr__(state, "amplitudes", read_only(amps))


class PolarizationAxis(Enum):
    """Linear polarization analyzer directions."""

    HORIZONTAL = "H"
    VERTICAL = "V"
    DIAGONAL = "D"
    ANTIDIAGONAL = "A"

    @property
    def jones(self) -> np.ndarray:
        """Unit Jones vector (H, V components) of the axis, read-only."""
        return _JONES[self._value_]


@dataclass(frozen=True, eq=False)
class HybridState:
    """Normalized pure state of the polarization (x) OAM-sign pair.

    ``amplitudes`` is a read-only length-4 complex vector in the basis
    order above; ``oam_magnitude`` is the fixed positive topological-charge
    magnitude whose sign encodes the target qubit.
    """

    amplitudes: np.ndarray
    oam_magnitude: int

    def __post_init__(self) -> None:
        validate_amplitudes(self, (4,))


def basis_state(pol: int, oam: int, magnitude: int) -> HybridState:
    """Computational basis state |pol, oam> at the given OAM magnitude.

    ``pol``: 0 = H, 1 = V.  ``oam``: 0 = positive sign, 1 = negative sign.
    """
    if pol not in (0, 1) or oam not in (0, 1):
        raise ValueError(f"pol and oam must be bits, got ({pol}, {oam})")
    return HybridState(np.eye(4, dtype=complex)[2 * pol + oam], magnitude)


def cnot(state: HybridState) -> HybridState:
    """Flip the OAM sign exactly when the polarization is V.

    (a, b, c, d) -> (a, b, d, c).
    """
    a = state.amplitudes
    return HybridState(a[[0, 1, 3, 2]], state.oam_magnitude)


def hadamard_pol(state: HybridState) -> HybridState:
    """Hadamard on the polarization qubit: H <-> (H+V)/sqrt2, V <-> (H-V)/sqrt2."""
    return HybridState(HADAMARD_POL_MATRIX @ state.amplitudes, state.oam_magnitude)


def bell_state(pol: int, oam: int, magnitude: int) -> HybridState:
    """Maximally entangled state indexed by the (pol, oam) seed bits.

    Equal to the controlled OAM flip applied after the polarization
    Hadamard on the corresponding basis state.
    """
    return cnot(hadamard_pol(basis_state(pol, oam, magnitude)))


def project_polarization(
    state: HybridState, axis: PolarizationAxis
) -> tuple[float, HybridState | None]:
    """Project onto a linear polarization axis.

    Returns (probability, collapsed state).  The collapsed state is the
    renormalized remainder; when the probability is below the zero cutoff
    there is nothing to renormalize and None is returned instead.
    """
    e = axis.jones
    # OAM-sign components riding on the chosen axis.
    chi = e.conj() @ state.amplitudes.reshape(2, 2)
    prob = float((np.abs(chi) ** 2).sum())
    if prob < ZERO_PROBABILITY:
        return prob, None
    collapsed = np.outer(e, chi / np.sqrt(prob)).reshape(4)
    return prob, HybridState(collapsed, state.oam_magnitude)


def concurrence(state: HybridState) -> float:
    """Entanglement of the pure two-qubit state: 2|ad - bc|."""
    a, b, c, d = state.amplitudes
    return float(2.0 * abs(a * d - b * c))


def fidelity(s1: HybridState, s2: HybridState) -> float:
    """Squared overlap |<s1|s2>|^2 of two states on the same OAM magnitude."""
    if s1.oam_magnitude != s2.oam_magnitude:
        raise ValueError(
            "states encode different OAM magnitudes "
            f"({s1.oam_magnitude} vs {s2.oam_magnitude}); overlap is undefined"
        )
    return float(abs(np.vdot(s1.amplitudes, s2.amplitudes)) ** 2)
