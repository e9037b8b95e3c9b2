import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import LITERAL_JONES
from oamcnot.circuit import Source, _source_state
from oamcnot.hybrid import (
    CNOT_MATRIX,
    SIGN_VECTORS,
    HybridState,
    PolarizationAxis,
    basis_state,
    bell_state,
    cnot,
    concurrence,
    fidelity,
    hadamard_pol,
    project_polarization,
)

SQRT2 = np.sqrt(2.0)


def amplitude_lists():
    reals = st.floats(-1.0, 1.0, allow_nan=False)
    return st.lists(st.tuples(reals, reals), min_size=4, max_size=4).filter(
        lambda parts: sum(re * re + im * im for re, im in parts) > 1e-6
    )


def state_from_parts(parts, magnitude=1):
    amps = np.array([complex(re, im) for re, im in parts])
    return HybridState(amps / np.linalg.norm(amps), magnitude)


class TestBasisState:
    @pytest.mark.parametrize(
        "pol,oam,magnitude,expected",
        [
            (0, 0, 1, [1, 0, 0, 0]),
            (1, 0, 1, [0, 0, 1, 0]),
            (1, 1, 2, [0, 0, 0, 1]),
        ],
    )
    def test_one_hot(self, pol, oam, magnitude, expected):
        state = basis_state(pol, oam, magnitude)
        assert state.amplitudes.tobytes() == np.array(expected, dtype=complex).tobytes()
        assert state.oam_magnitude == magnitude

    def test_zero_magnitude_rejected(self):
        with pytest.raises(ValueError, match="magnitude"):
            basis_state(0, 0, 0)

    def test_non_bit_rejected(self):
        with pytest.raises(ValueError):
            basis_state(2, 0, 1)

    def test_not_normalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            HybridState(np.array([1.0, 1.0, 0.0, 0.0]), 1)

    def test_amplitudes_read_only(self):
        state = basis_state(0, 0, 1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestCnot:
    def test_transforms_each_basis_state(self):
        # control 0 leaves the sign alone, control 1 flips it
        expected = {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)}
        for (pol, oam), (pol_out, oam_out) in expected.items():
            got = cnot(basis_state(pol, oam, 1))
            want = basis_state(pol_out, oam_out, 1)
            assert np.array_equal(got.amplitudes, want.amplitudes)

    def test_swaps_last_two_amplitudes(self, rng):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        out = cnot(HybridState(amps, 3))
        assert np.array_equal(out.amplitudes, amps[[0, 1, 3, 2]])
        assert out.oam_magnitude == 3

    def test_matrix_is_the_permutation(self):
        columns = [
            cnot(basis_state(pol, oam, 1)).amplitudes
            for pol in (0, 1)
            for oam in (0, 1)
        ]
        assert np.array_equal(np.column_stack(columns), CNOT_MATRIX)

    @given(amplitude_lists())
    def test_involution(self, parts):
        state = state_from_parts(parts)
        back = cnot(cnot(state))
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    @given(amplitude_lists())
    def test_norm_preserved(self, parts):
        out = cnot(state_from_parts(parts))
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12


class TestHadamard:
    def test_h_input(self):
        out = hadamard_pol(basis_state(0, 0, 1))
        assert np.allclose(out.amplitudes, [1 / SQRT2, 0, 1 / SQRT2, 0], atol=1e-15)

    def test_v_input(self):
        out = hadamard_pol(basis_state(1, 0, 1))
        assert np.allclose(out.amplitudes, [1 / SQRT2, 0, -1 / SQRT2, 0], atol=1e-15)

    def test_explicit_amplitude_map(self, rng):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        a, b, c, d = amps
        out = hadamard_pol(HybridState(amps, 1))
        want = np.array([a + c, b + d, a - c, b - d]) / SQRT2
        assert np.allclose(out.amplitudes, want, atol=1e-14)

    @given(amplitude_lists())
    def test_involution(self, parts):
        state = state_from_parts(parts)
        back = hadamard_pol(hadamard_pol(state))
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


class TestBellFamily:
    @pytest.mark.parametrize(
        "pol,oam,expected",
        [
            (0, 0, [1 / SQRT2, 0, 0, 1 / SQRT2]),
            (0, 1, [0, 1 / SQRT2, 1 / SQRT2, 0]),
            (1, 0, [1 / SQRT2, 0, 0, -1 / SQRT2]),
            (1, 1, [0, 1 / SQRT2, -1 / SQRT2, 0]),
        ],
    )
    def test_amplitudes(self, pol, oam, expected):
        state = bell_state(pol, oam, 1)
        assert np.allclose(state.amplitudes, expected, atol=1e-15)

    def test_orthonormal(self):
        states = [bell_state(p, o, 1) for p in (0, 1) for o in (0, 1)]
        gram = np.array(
            [[np.vdot(a.amplitudes, b.amplitudes) for b in states] for a in states]
        )
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_maximally_entangled(self):
        for pol in (0, 1):
            for oam in (0, 1):
                assert abs(concurrence(bell_state(pol, oam, 1)) - 1.0) < 1e-12


class TestProjection:
    def test_half_probability_on_entangled_state(self):
        prob, collapsed = project_polarization(
            bell_state(0, 0, 1), PolarizationAxis.HORIZONTAL
        )
        assert abs(prob - 0.5) < 1e-12
        assert np.allclose(collapsed.amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_orthogonal_axis_yields_nothing(self):
        prob, collapsed = project_polarization(
            basis_state(0, 1, 1), PolarizationAxis.VERTICAL
        )
        assert prob == 0.0
        assert collapsed is None

    def test_eigenstate_passes_unchanged(self):
        state = basis_state(0, 1, 1)
        prob, collapsed = project_polarization(state, PolarizationAxis.HORIZONTAL)
        assert abs(prob - 1.0) < 1e-12
        assert np.allclose(collapsed.amplitudes, state.amplitudes, atol=1e-12)

    def test_diagonal_axis(self):
        # H input has half its weight along the diagonal axis
        prob, collapsed = project_polarization(
            basis_state(0, 0, 1), PolarizationAxis.DIAGONAL
        )
        assert abs(prob - 0.5) < 1e-12
        assert np.allclose(
            collapsed.amplitudes, [0.5, 0, 0.5, 0] / np.linalg.norm([0.5, 0, 0.5, 0]),
            atol=1e-12,
        )

    @given(amplitude_lists())
    def test_probabilities_sum_to_one(self, parts):
        state = state_from_parts(parts)
        p_h, _ = project_polarization(state, PolarizationAxis.HORIZONTAL)
        p_v, _ = project_polarization(state, PolarizationAxis.VERTICAL)
        assert abs(p_h + p_v - 1.0) < 1e-12

    @given(amplitude_lists())
    def test_collapsed_amplitudes_equal_the_kronecker_product(self, parts):
        # project_polarization builds the product with np.outer; every
        # entry is the same single multiply that np.kron makes.
        state = state_from_parts(parts)
        for axis in PolarizationAxis:
            prob, collapsed = project_polarization(state, axis)
            if collapsed is None:
                continue
            e = axis.jones
            chi = e.conj() @ state.amplitudes.reshape(2, 2)
            want = np.kron(e, chi / np.sqrt(prob))
            assert collapsed.amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("pol", ["H", "V", "D", "A"])
@pytest.mark.parametrize("oam", [3, 0, -3])
def test_source_state_equals_the_kronecker_product(pol, oam):
    state = _source_state(Source(pol, oam))
    oam_vec = np.array([1.0, 0.0] if oam >= 0 else [0.0, 1.0], dtype=complex)
    jones = PolarizationAxis(pol).jones
    assert state.amplitudes.tobytes() == np.kron(jones, oam_vec).tobytes()
    # the stored Jones and sign vectors are read-only; Jones holds the literal entries
    assert not jones.flags.writeable and not SIGN_VECTORS[oam < 0].flags.writeable
    assert jones.tobytes() == LITERAL_JONES[pol].tobytes()
    with pytest.raises(ValueError):
        jones[0] = 0.0


class TestDiagnostics:
    def test_concurrence_of_product_state(self):
        assert concurrence(basis_state(1, 0, 1)) == 0.0

    def test_concurrence_of_rotated_separable_state(self):
        state = hadamard_pol(basis_state(0, 0, 1))
        assert abs(concurrence(state)) < 1e-12

    def test_fidelity_with_self(self, rng):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = HybridState(amps / np.linalg.norm(amps), 1)
        assert abs(fidelity(state, state) - 1.0) < 1e-12

    def test_fidelity_orthogonal(self):
        assert fidelity(basis_state(0, 0, 1), basis_state(1, 1, 1)) == 0.0

    def test_fidelity_of_distinct_entangled_states(self):
        assert abs(fidelity(bell_state(0, 0, 1), bell_state(1, 0, 1))) < 1e-12

    def test_fidelity_rejects_mismatched_magnitudes(self):
        with pytest.raises(ValueError, match="magnitudes"):
            fidelity(basis_state(0, 0, 1), basis_state(0, 0, 2))


def test_gates_preserve_magnitude_metadata():
    state = basis_state(1, 0, 7)
    assert cnot(state).oam_magnitude == 7
    assert hadamard_pol(state).oam_magnitude == 7
