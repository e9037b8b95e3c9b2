"""The benchmark's own answers, computed without the package.

Circuits are evolved with plain numpy matrices (half-wave plate, CNOT,
polarization projector) on the basis (|H,+>, |H,->, |V,+>, |V,->).  The
program's own verdicts (``ok`` columns, ``outcome_agreement`` and
``status`` lines, exit codes) are never consulted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Below this probability an outcome carries no light (matches the report's
#: cut-off for rendering an outcome).
ZERO_PROBABILITY = 1e-14
#: A sign component above 1 - BASIS_TOL of the outcome's weight is a basis
#: state whose sign the readout must call; anything else is a superposition.
BASIS_TOL = 1e-9
AMPLITUDE_TOL = 1e-12

_S = 1.0 / math.sqrt(2.0)
JONES = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_S, _S], dtype=complex),
    "A": np.array([_S, -_S], dtype=complex),
}
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_I = np.eye(2, dtype=complex)
CNOT = np.block([[_I, np.zeros((2, 2))], [np.zeros((2, 2)), _X]])
STRICT_PARITY_MZI = np.kron(_I, _X) @ CNOT

#: Truth-table inputs in the report's row order: (polarization, signed charge).
TRUTH_TABLE_INPUTS = (("H", 1), ("H", -1), ("V", -1), ("V", 1))


@dataclass(frozen=True)
class CircuitSpec:
    """A generated circuit: source, gates, optional analyzer, aperture, camera.

    ``gates`` holds ("HWP", angle_deg) and ("MZI", mode or None) items in
    order; ``mode`` None means the statement omits ``mode=``.
    """

    pol: str
    ell: int
    gates: tuple[tuple[str, object], ...]
    polarizer: str | None
    orientation_deg: float
    detect: bool

    def text(self, canonical: bool = False) -> str:
        """Circuit file text; ``canonical`` spells out the default MZI mode,
        as the package's formatter must."""
        lines = [f"SOURCE pol={self.pol} oam={self.ell}"]
        for kind, arg in self.gates:
            if kind == "HWP":
                lines.append(f"HWP angle={arg!r}")
            elif arg is None and not canonical:
                lines.append("MZI_CNOT")
            else:
                lines.append(f"MZI_CNOT mode={arg or 'paper-default'}")
        if self.polarizer is not None:
            lines.append(f"POLARIZER {self.polarizer}")
        lines.append(f"TRIAPERTURE side=2 orientation={self.orientation_deg!r}")
        if self.detect:
            lines.append("DETECT")
        return "\n".join(lines) + "\n"


def random_circuit(rng, detect: bool) -> CircuitSpec:
    """Source H/V/D/A with |ell| in 1..10, zero to two HWP or MZI_CNOT
    statements, an optional polarizer, and an aperture at a real orientation."""
    ell = rng.randint(1, 10) * rng.choice((1, -1))
    gates = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            gates.append(("HWP", rng.uniform(0.0, 90.0)))
        else:
            gates.append(("MZI", rng.choice((None, "paper-default", "strict-parity"))))
    polarizer = rng.choice((None, "H", "V"))
    return CircuitSpec(
        rng.choice("HVDA"), ell, tuple(gates), polarizer, rng.uniform(0.0, 120.0), detect
    )


def hwp(angle_deg: float) -> np.ndarray:
    two_theta = 2.0 * math.radians(angle_deg)
    c, s = math.cos(two_theta), math.sin(two_theta)
    return np.kron(np.array([[c, s], [s, -c]], dtype=complex), _I)


def projector(axis: str) -> np.ndarray:
    e = JONES[axis]
    return np.kron(np.outer(e, e.conj()), _I)


@dataclass(frozen=True)
class Expected:
    """What a correct run of a circuit reports.

    ``final`` is None when the polarizer passes no light.  ``outcomes`` holds
    (axis, probability, sign) per rendered polarization outcome, with sign
    "+" or "-" for a basis state and None for a genuine superposition.
    """

    final: np.ndarray | None
    outcomes: tuple[tuple[str, float, str | None], ...]


def expected_run(spec: CircuitSpec) -> Expected:
    sign = np.array([1.0, 0.0] if spec.ell > 0 else [0.0, 1.0], dtype=complex)
    state = np.kron(JONES[spec.pol], sign)
    for kind, arg in spec.gates:
        if kind == "HWP":
            state = hwp(arg) @ state
        else:
            state = (STRICT_PARITY_MZI if arg == "strict-parity" else CNOT) @ state
    if spec.polarizer is not None:
        projected = projector(spec.polarizer) @ state
        survival = float(np.vdot(projected, projected).real)
        if survival < ZERO_PROBABILITY:
            return Expected(None, ())
        state = projected / math.sqrt(survival)
        axes = [(spec.polarizer, survival)]
    else:
        axes = []
        for axis in ("H", "V"):
            chi = JONES[axis].conj() @ state.reshape(2, 2)
            probability = float(np.vdot(chi, chi).real)
            if probability > ZERO_PROBABILITY:
                axes.append((axis, probability))
    outcomes = []
    for axis, probability in axes:
        weights = np.abs(JONES[axis].conj() @ state.reshape(2, 2)) ** 2
        weights = weights / weights.sum()
        sign_label = "+" if weights[0] > 1 - BASIS_TOL else "-" if weights[1] > 1 - BASIS_TOL else None
        outcomes.append((axis, probability, sign_label))
    return Expected(state, tuple(outcomes))


def concurrence(state: np.ndarray) -> float:
    a, b, c, d = state
    return float(2.0 * abs(a * d - b * c))


def close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=AMPLITUDE_TOL)


def _report_fields(report: str) -> list[tuple[str, str]]:
    return [tuple(line.split("=", 1)) for line in report.splitlines() if "=" in line]


def check_simulate_report(spec: CircuitSpec, report: str) -> bool:
    """True when a ``simulate`` report states the reference final state and
    probabilities and, where the circuit detects, reads every basis-state
    outcome's signed charge and every superposition's magnitude."""
    want = expected_run(spec)
    fields = _report_fields(report)
    values = dict(fields)
    if want.final is None:
        if "final_amplitudes" in values or "final_state" not in values:
            return False
    else:
        if "final_amplitudes" not in values:
            return False
        got = np.array([complex(z) for z in values["final_amplitudes"].split(",")])
        if got.shape != (4,) or not np.allclose(got, want.final, rtol=0, atol=AMPLITUDE_TOL):
            return False
        if values.get("oam_magnitude") != str(abs(spec.ell)):
            return False

    outcomes: list[dict[str, str]] = []
    for key, value in fields:
        if key == "outcome_axis":
            outcomes.append({})
        if key.startswith("outcome_") and outcomes:
            outcomes[-1][key] = value
    if len(outcomes) != len(want.outcomes):
        return False
    for got, (axis, probability, sign) in zip(outcomes, want.outcomes):
        if got["outcome_axis"] != axis or not close(float(got["outcome_probability"]), probability):
            return False
        if not spec.detect:
            continue
        if got.get("outcome_magnitude") != str(abs(spec.ell)):
            return False
        if sign is not None and got.get("outcome_sign") != sign:
            return False
    return True


def expected_truth_table(mode: str) -> list[tuple[str, int]]:
    """CNOT on each input: V flips the charge's sign; strict-parity mode
    additionally relabels the target bit on every row."""
    strict = mode == "strict-parity"
    return [(pol, -ell if (pol == "V") != strict else ell) for pol, ell in TRUTH_TABLE_INPUTS]


def check_truth_table_report(mode: str, report: str) -> bool:
    """True when the report's four rows give, through both the logical and
    the wave columns, the expected (polarization, signed charge)."""
    rows = [
        line.split(",")
        for line in report.splitlines()
        if line[:2] in ("H,", "V,") and line.count(",") == 6
    ]
    if len(rows) != 4:
        return False
    for row, (pol, ell), (want_pol, want_ell) in zip(
        rows, TRUTH_TABLE_INPUTS, expected_truth_table(mode)
    ):
        if row[0] != pol or row[1] != f"{ell:+d}":
            return False
        if row[2:6] != [want_pol, f"{want_ell:+d}", want_pol, f"{want_ell:+d}"]:
            return False
    return True
