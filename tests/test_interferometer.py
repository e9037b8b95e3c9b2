import numpy as np
import pytest
from hypothesis import given, strategies as st

from oamcnot.hybrid import CNOT_MATRIX, HybridState, cnot
from oamcnot.interferometer import (
    ElementConfig,
    PathState,
    RoutingError,
    _logical_output,
    compose_mzi,
    inject_lower,
    mirror_apply,
    pbs_apply,
    pentaprism_apply,
    verify_cnot,
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


def oracle_matrix(config: ElementConfig) -> np.ndarray:
    """Brute-force 8x8 matrix composition, built element by element from
    the stated rules, independent of the state-propagation code."""
    pbs = np.zeros((8, 8), dtype=complex)
    for path in (0, 1):
        for sign in (0, 1):
            pbs[_index(path, 0, sign), _index(path, 0, sign)] = 1.0
            out_sign = sign ^ 1 if config.pbs_reflection_flips_oam else sign
            pbs[_index(1 - path, 1, out_sign), _index(path, 1, sign)] = np.exp(
                1j * config.pbs_reflection_phase
            )
    mirror = np.eye(8, dtype=complex)
    if config.mirror_flips_oam:
        mirror = np.zeros((8, 8), dtype=complex)
        for pol in (0, 1):
            for sign in (0, 1):
                mirror[_index(0, pol, sign ^ 1), _index(0, pol, sign)] = 1.0
                mirror[_index(1, pol, sign), _index(1, pol, sign)] = 1.0
    prism = np.eye(8, dtype=complex)
    if config.pentaprism_flips_oam:
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
        out = pbs_apply(inject_lower(0, 0), ElementConfig.paper_default())
        assert out.amplitudes[0, 0, 0] == 1.0

    def test_pbs_reflects_v_to_upper(self):
        out = pbs_apply(inject_lower(1, 0), ElementConfig.paper_default())
        assert out.amplitudes[1, 1, 0] == 1.0
        assert np.sum(np.abs(out.amplitudes)) == 1.0

    def test_pbs_splits_superposition(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[0, 0, 0] = amps[0, 1, 0] = 1 / np.sqrt(2)
        out = pbs_apply(PathState(amps, 1), ElementConfig.paper_default())
        assert abs(out.amplitudes[0, 0, 0] - 1 / np.sqrt(2)) < 1e-15
        assert abs(out.amplitudes[1, 1, 0] - 1 / np.sqrt(2)) < 1e-15

    def test_pbs_reflection_phase(self):
        config = ElementConfig(pbs_reflection_phase=np.pi / 2)
        out = pbs_apply(inject_lower(1, 0), config)
        assert abs(out.amplitudes[1, 1, 0] - 1j) < 1e-15

    def test_pbs_strict_parity_toggles_sign_on_reflection(self):
        out = pbs_apply(inject_lower(1, 0), ElementConfig.strict_parity())
        assert out.amplitudes[1, 1, 1] == 1.0

    def test_mirror_paper_default_keeps_sign(self):
        out = mirror_apply(inject_lower(0, 0), ElementConfig.paper_default())
        assert out.amplitudes[0, 0, 0] == 1.0

    def test_mirror_strict_parity_flips_sign(self):
        out = mirror_apply(inject_lower(0, 0), ElementConfig.strict_parity())
        assert out.amplitudes[0, 0, 1] == 1.0

    def test_mirror_ignores_upper_arm(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[1, 1, 1] = 1.0
        state = PathState(amps, 1)
        for config in (ElementConfig.paper_default(), ElementConfig.strict_parity()):
            out = mirror_apply(state, config)
            assert np.array_equal(out.amplitudes, amps)

    def test_pentaprism_flips_upper_sign(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[1, 1, 0] = 1.0
        out = pentaprism_apply(PathState(amps, 1), ElementConfig.paper_default())
        assert out.amplitudes[1, 1, 1] == 1.0
        back = pentaprism_apply(out, ElementConfig.paper_default())
        assert back.amplitudes[1, 1, 0] == 1.0

    def test_pentaprism_ignores_lower_arm(self):
        out = pentaprism_apply(inject_lower(0, 0), ElementConfig.paper_default())
        assert out.amplitudes[0, 0, 0] == 1.0

    def test_pentaprism_strict_parity_is_identity_on_sign(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[1, 0, 0] = 1.0
        out = pentaprism_apply(PathState(amps, 1), ElementConfig.strict_parity())
        assert np.array_equal(out.amplitudes, amps)

    def test_elements_preserve_norm_and_are_linear(self, rng):
        config = ElementConfig(pbs_reflection_phase=0.7)
        for op in (pbs_apply, mirror_apply, pentaprism_apply):
            a = random_path_state(rng)
            b = random_path_state(rng)
            alpha, beta = 0.6 + 0.2j, -0.3 + 0.5j
            mix = alpha * a.amplitudes + beta * b.amplitudes
            mix_state = PathState(mix / np.linalg.norm(mix), 1)
            combined = op(mix_state, config).amplitudes * np.linalg.norm(mix)
            separate = alpha * op(a, config).amplitudes + beta * op(b, config).amplitudes
            assert np.allclose(combined, separate, atol=1e-12)
            assert abs(np.linalg.norm(op(a, config).amplitudes) - 1.0) < 1e-12


class TestComposition:
    def test_paper_default_is_cnot(self):
        matrix = compose_mzi(ElementConfig.paper_default())
        assert np.max(np.abs(matrix - CNOT_MATRIX)) < 1e-12

    def test_strict_parity_is_cnot_with_relabeled_target(self):
        matrix = compose_mzi(ElementConfig.strict_parity())
        assert np.max(np.abs(matrix - X_TARGET_AFTER_CNOT)) < 1e-12

    def test_strict_parity_matches_oracle(self):
        config = ElementConfig.strict_parity()
        assert np.max(np.abs(compose_mzi(config) - oracle_matrix(config))) < 1e-12

    def test_reflection_phase_squares_on_v_columns(self):
        config = ElementConfig(pbs_reflection_phase=np.pi / 2)
        matrix = compose_mzi(config)
        expected = CNOT_MATRIX @ np.diag([1, 1, -1, -1])
        assert np.max(np.abs(matrix - expected)) < 1e-12
        assert np.max(np.abs(matrix - oracle_matrix(config))) < 1e-12

    @given(
        st.floats(-np.pi, np.pi, allow_nan=False),
        st.sampled_from(["paper-default", "strict-parity"]),
    )
    def test_any_config_matches_oracle_and_is_unitary(self, phase, mode):
        config = ElementConfig(phase, mode)
        matrix = compose_mzi(config)
        assert np.max(np.abs(matrix - oracle_matrix(config))) < 1e-12
        assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(4))) < 1e-12

    def test_matches_logical_cnot_on_random_states(self, rng):
        matrix = compose_mzi(ElementConfig.paper_default())
        for _ in range(100):
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amps /= np.linalg.norm(amps)
            state = HybridState(amps, 1)
            assert np.allclose(matrix @ amps, cnot(state).amplitudes, atol=1e-12)


class TestVerifyCnot:
    def test_exact_cnot(self):
        assert verify_cnot(CNOT_MATRIX) == 0.0

    def test_identity_deviates_by_one(self):
        assert abs(verify_cnot(np.eye(4, dtype=complex)) - 1.0) < 1e-12

    def test_global_phase_factored_out(self):
        assert verify_cnot(np.exp(0.321j) * CNOT_MATRIX) < 1e-12

    def test_composed_circuit(self):
        assert verify_cnot(compose_mzi(ElementConfig.paper_default())) < 1e-12


class TestRouting:
    def test_leak_detected(self):
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[0, 0, 0] = np.sqrt(1 - 1e-4)
        amps[1, 0, 0] = 1e-2
        with pytest.raises(RoutingError, match="unused"):
            _logical_output(PathState(amps, 1), "lower |H,+>")

    def test_mode_label_validated(self):
        with pytest.raises(ValueError, match="mode label"):
            ElementConfig(mode_label="frobnicate")

    def test_preset_fields(self):
        default = ElementConfig.paper_default()
        assert (default.pbs_reflection_phase, default.mirror_flips_oam,
                default.pentaprism_flips_oam) == (0.0, False, True)
        assert not default.pbs_reflection_flips_oam
        strict = ElementConfig.strict_parity()
        assert (strict.pbs_reflection_phase, strict.mirror_flips_oam,
                strict.pentaprism_flips_oam) == (0.0, True, False)
        assert strict.pbs_reflection_flips_oam

    def test_path_state_requires_normalization(self):
        with pytest.raises(ValueError, match="not normalized"):
            PathState(np.ones((2, 2, 2)), 1)
