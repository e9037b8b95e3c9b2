import numpy as np
import pytest

from conftest import verify_cnot
from oamcnot import interferometer
from oamcnot.circuit import _source_state, parse, run_logical
from oamcnot.hybrid import CNOT_MATRIX, HybridState, cnot
from oamcnot.interferometer import (
    MODE_LABELS,
    PAPER_DEFAULT,
    STRICT_PARITY,
    PathState,
    RoutingError,
    _compose,
    _logical_output,
    compose_mzi,
    inject_lower,
    mirror_apply,
    pbs_apply,
    pentaprism_apply,
)

X_TARGET_AFTER_CNOT = np.array(
    [[0, 1, 0, 0],
     [1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 0, 0, 1]],
    dtype=complex,
)


def _index(path, pol, sign):
    return 4 * path + 2 * pol + sign


def oracle_matrix(mode: str) -> np.ndarray:
    """Brute-force 8x8 matrix composition, built element by element from
    the stated rules, independent of the state-propagation code: in
    strict-parity mode the splitter reflections and the mirror flip the
    OAM sign, in the default mode only the pentaprism does."""
    strict = mode == STRICT_PARITY
    pbs = np.zeros((8, 8), dtype=complex)
    for path in (0, 1):
        for sign in (0, 1):
            pbs[_index(path, 0, sign), _index(path, 0, sign)] = 1.0
            out_sign = sign ^ 1 if strict else sign
            pbs[_index(1 - path, 1, out_sign), _index(path, 1, sign)] = 1.0
    mirror = np.eye(8, dtype=complex)
    if strict:
        mirror = np.zeros((8, 8), dtype=complex)
        for pol in (0, 1):
            for sign in (0, 1):
                mirror[_index(0, pol, sign ^ 1), _index(0, pol, sign)] = 1.0
                mirror[_index(1, pol, sign), _index(1, pol, sign)] = 1.0
    prism = np.eye(8, dtype=complex)
    if not strict:
        prism = np.zeros((8, 8), dtype=complex)
        for pol in (0, 1):
            for sign in (0, 1):
                prism[_index(1, pol, sign ^ 1), _index(1, pol, sign)] = 1.0
                prism[_index(0, pol, sign), _index(0, pol, sign)] = 1.0

    full = pbs @ prism @ mirror @ pbs
    logical = np.zeros((4, 4), dtype=complex)
    for pol_in in (0, 1):
        for sign_in in (0, 1):
            column = full[:, _index(0, pol_in, sign_in)]
            assert np.max(np.abs(column[4:])) < 1e-15, "oracle leaked to upper port"
            logical[:, 2 * pol_in + sign_in] = column[:4]
    return logical


def random_path_state(rng):
    amps = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    return PathState(amps / np.linalg.norm(amps), 1)


class TestElements:
    def test_pbs_transmits_h(self):
        out = pbs_apply(inject_lower(0, 0), PAPER_DEFAULT)
        assert out.amplitudes[0, 0, 0] == 1.0

    def test_pbs_reflects_v_to_upper(self):
        out = pbs_apply(inject_lower(1, 0), PAPER_DEFAULT)
        assert out.amplitudes[1, 1, 0] == 1.0
        assert np.sum(np.abs(out.amplitudes)) == 1.0

    def test_pbs_splits_superposition(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[0, 0, 0] = amps[0, 1, 0] = 1 / np.sqrt(2)
        out = pbs_apply(PathState(amps, 1), PAPER_DEFAULT)
        assert abs(out.amplitudes[0, 0, 0] - 1 / np.sqrt(2)) < 1e-15
        assert abs(out.amplitudes[1, 1, 0] - 1 / np.sqrt(2)) < 1e-15

    def test_pbs_strict_parity_toggles_sign_on_reflection(self):
        out = pbs_apply(inject_lower(1, 0), STRICT_PARITY)
        assert out.amplitudes[1, 1, 1] == 1.0

    def test_mirror_paper_default_keeps_sign(self):
        out = mirror_apply(inject_lower(0, 0), PAPER_DEFAULT)
        assert out.amplitudes[0, 0, 0] == 1.0

    def test_mirror_strict_parity_flips_sign(self):
        out = mirror_apply(inject_lower(0, 0), STRICT_PARITY)
        assert out.amplitudes[0, 0, 1] == 1.0

    def test_mirror_ignores_upper_arm(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[1, 1, 1] = 1.0
        state = PathState(amps, 1)
        for mode in MODE_LABELS:
            out = mirror_apply(state, mode)
            assert np.array_equal(out.amplitudes, amps)

    def test_pentaprism_flips_upper_sign(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[1, 1, 0] = 1.0
        out = pentaprism_apply(PathState(amps, 1), PAPER_DEFAULT)
        assert out.amplitudes[1, 1, 1] == 1.0
        back = pentaprism_apply(out, PAPER_DEFAULT)
        assert back.amplitudes[1, 1, 0] == 1.0

    def test_pentaprism_ignores_lower_arm(self):
        out = pentaprism_apply(inject_lower(0, 0), PAPER_DEFAULT)
        assert out.amplitudes[0, 0, 0] == 1.0

    def test_pentaprism_strict_parity_is_identity_on_sign(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[1, 0, 0] = 1.0
        out = pentaprism_apply(PathState(amps, 1), STRICT_PARITY)
        assert np.array_equal(out.amplitudes, amps)

    def test_elements_preserve_norm_and_are_linear(self, rng):
        for mode in MODE_LABELS:
            for op in (pbs_apply, mirror_apply, pentaprism_apply):
                a = random_path_state(rng)
                b = random_path_state(rng)
                alpha, beta = 0.6 + 0.2j, -0.3 + 0.5j
                mix = alpha * a.amplitudes + beta * b.amplitudes
                mix_state = PathState(mix / np.linalg.norm(mix), 1)
                combined = op(mix_state, mode).amplitudes * np.linalg.norm(mix)
                separate = alpha * op(a, mode).amplitudes + beta * op(b, mode).amplitudes
                assert np.allclose(combined, separate, atol=1e-12)
                assert abs(np.linalg.norm(op(a, mode).amplitudes) - 1.0) < 1e-12


class TestComposition:
    def test_paper_default_is_cnot(self):
        matrix = compose_mzi(PAPER_DEFAULT)
        assert np.max(np.abs(matrix - CNOT_MATRIX)) < 1e-12

    def test_strict_parity_is_cnot_with_relabeled_target(self):
        matrix = compose_mzi(STRICT_PARITY)
        assert np.max(np.abs(matrix - X_TARGET_AFTER_CNOT)) < 1e-12

    def test_strict_parity_matches_oracle(self):
        assert np.max(np.abs(compose_mzi(STRICT_PARITY) - oracle_matrix(STRICT_PARITY))) < 1e-12

    def test_any_config_matches_oracle_and_is_unitary(self):
        for mode in MODE_LABELS:
            matrix = compose_mzi(mode)
            assert np.max(np.abs(matrix - oracle_matrix(mode))) < 1e-12
            assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(4))) < 1e-12

    def test_matches_logical_cnot_on_random_states(self, rng):
        matrix = compose_mzi(PAPER_DEFAULT)
        for _ in range(100):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amps /= np.linalg.norm(amps)
            state = HybridState(amps, 1)
            assert np.allclose(matrix @ amps, cnot(state).amplitudes, atol=1e-12)


class TestComposedOnce:
    def test_repeat_calls_return_one_read_only_array_per_mode(self):
        first = {mode: compose_mzi(mode) for mode in MODE_LABELS}
        for mode in MODE_LABELS:
            assert compose_mzi(mode) is first[mode]
            assert not first[mode].flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                first[mode][0, 0] = 0.0
        assert not np.array_equal(first[PAPER_DEFAULT], first[STRICT_PARITY])

    def test_stored_matrix_equals_a_fresh_composition_and_the_oracle(self):
        for mode in MODE_LABELS:
            assert np.array_equal(compose_mzi(mode), _compose(mode))
            assert np.array_equal(compose_mzi(mode), oracle_matrix(mode))

    def test_run_logical_pushes_no_state_through_the_elements(self, monkeypatch):
        text = "SOURCE pol=D oam=-2\nMZI_CNOT\nMZI_CNOT mode=strict-parity\nMZI_CNOT"
        circuit = parse(text)
        amps = _source_state(circuit.statements[0]).amplitudes
        for mode in (PAPER_DEFAULT, STRICT_PARITY, PAPER_DEFAULT):
            amps = _compose(mode) @ amps

        calls = []
        for name in ("pbs_apply", "mirror_apply", "pentaprism_apply"):
            element = getattr(interferometer, name)

            def counted(state, mode_label, name=name, element=element):
                calls.append(name)
                return element(state, mode_label)

            monkeypatch.setattr(interferometer, name, counted)
        run = run_logical(circuit)
        assert calls == []
        assert np.array_equal(run.final_state.amplitudes, amps)
        # The counters do count: a fresh composition goes through them.
        _compose(STRICT_PARITY)
        assert len(calls) == 4 * 4


class TestVerifyCnot:
    def test_exact_cnot(self):
        assert verify_cnot(CNOT_MATRIX) == 0.0

    def test_identity_deviates_by_one(self):
        assert abs(verify_cnot(np.eye(4, dtype=complex)) - 1.0) < 1e-12

    def test_global_phase_factored_out(self):
        assert verify_cnot(np.exp(0.321j) * CNOT_MATRIX) < 1e-12

    def test_composed_circuit(self):
        assert verify_cnot(compose_mzi(PAPER_DEFAULT)) < 1e-12


class TestRouting:
    def test_leak_detected(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[0, 0, 0] = np.sqrt(1 - 1e-4)
        amps[1, 0, 0] = 1e-2
        with pytest.raises(RoutingError, match="unused"):
            _logical_output(PathState(amps, 1), "lower |H,+>")

    def test_mode_label_validated(self):
        with pytest.raises(ValueError, match="mode label"):
            compose_mzi("frobnicate")
        for op in (pbs_apply, mirror_apply, pentaprism_apply):
            with pytest.raises(ValueError, match="mode label"):
                op(inject_lower(0, 0), "frobnicate")

    def test_path_state_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            PathState(np.ones((2, 2, 2)), 1)


@pytest.mark.parametrize("kind,shape", [(HybridState, (4,)), (PathState, (2, 2, 2))])
def test_both_state_types_validate_and_freeze_amplitudes(kind, shape):
    amps = np.zeros(shape)
    amps.flat[0] = 1.0
    state = kind(amps, 2)
    assert state.amplitudes is not amps
    assert state.amplitudes.dtype == complex and not state.amplitudes.flags.writeable
    with pytest.raises(ValueError, match="shape"):
        kind(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError, match="magnitude"):
        kind(amps, 0)
    with pytest.raises(ValueError, match="not normalized"):
        kind(2 * amps, 1)
    # the norm prints as a plain float, not as a numpy scalar's repr
    with pytest.raises(ValueError, match=r"sum \|amp\|\^2 = 4\.0$"):
        kind(2 * amps, 1)
