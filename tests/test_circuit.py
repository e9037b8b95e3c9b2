import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import LITERAL_JONES, LITERAL_SIGNS, direct_field
from oamcnot import circuit, readout
from oamcnot.circuit import (
    Circuit,
    Detect,
    Hwp,
    MziCnot,
    ParseError,
    Polarizer,
    Source,
    TriangleAperture,
    format_circuit,
    format_statement,
    outcome_axes,
    parse,
    run_logical,
    run_wave,
)
from oamcnot.hybrid import (
    CNOT_MATRIX,
    ZERO_PROBABILITY,
    HybridState,
    PolarizationAxis,
    bell_state,
)
from oamcnot.interferometer import compose_mzi
from oamcnot.readout import Camera
from oamcnot.wavefield import TRIANGLE, Grid, OpticalParams, far_field, intensity

REFERENCE_TEXT = (
    "SOURCE pol=V oam=1\n"
    "MZI_CNOT\n"
    "POLARIZER V\n"
    "TRIAPERTURE side=2\n"
    "DETECT"
)

SQRT2 = np.sqrt(2.0)


def finite_floats(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def circuits(draw):
    oam = draw(st.integers(-10, 10))
    statements = [Source(draw(st.sampled_from("HVDA")), oam)]
    body = st.one_of(
        st.builds(Hwp, finite_floats(min_value=-1e6, max_value=1e6)),
        st.builds(Polarizer, st.sampled_from("HV")),
        *([st.builds(MziCnot, st.sampled_from(["paper-default", "strict-parity"]))]
          if oam != 0 else []),
    )
    statements.extend(draw(st.lists(body, max_size=5)))
    if draw(st.booleans()):  # a circuit holds at most one aperture, after the optics
        aperture = st.builds(
            TriangleAperture,
            finite_floats(min_value=1e-3, max_value=1e3),
            finite_floats(min_value=-1e6, max_value=1e6),
        )
        statements.append(draw(aperture))
    if draw(st.booleans()):
        statements.append(Detect())
    return Circuit(tuple(statements))


# Any statement anywhere, so that lists miss or repeat SOURCE, run on after
# DETECT or repeat it, and put MZI_CNOT behind a zero charge.
any_statement = st.one_of(
    st.builds(Source, st.sampled_from("HVDA"), st.integers(-2, 2)),
    st.builds(Hwp, finite_floats(min_value=-1e6, max_value=1e6)),
    st.builds(MziCnot, st.sampled_from(["paper-default", "strict-parity"])),
    st.builds(Polarizer, st.sampled_from("HV")),
    st.builds(TriangleAperture, finite_floats(min_value=1e-3, max_value=1e3)),
    st.just(Detect()),
)


class TestParse:
    def test_reference_circuit(self):
        circuit = parse(REFERENCE_TEXT)
        assert circuit.statements == (
            Source("V", 1),
            MziCnot("paper-default"),
            Polarizer("V"),
            TriangleAperture(2.0, 0.0),
            Detect(),
        )

    def test_units_of_aperture_statement(self):
        circuit = parse("SOURCE pol=H oam=1\nTRIAPERTURE side=2 orientation=90")
        spec = circuit.statements[1].spec
        assert spec.shape == TRIANGLE and spec.size == 2e-3
        assert abs(spec.orientation - np.pi / 2) < 1e-15

    def test_case_insensitive_keywords(self):
        circuit = parse("source pol=h oam=-2\nmzi_cnot MODE=strict-parity")
        assert circuit.statements[0] == Source("H", -2)
        assert circuit.statements[1] == MziCnot("strict-parity")

    def test_comments_and_blank_lines(self):
        text = "# preamble\n\nSOURCE pol=H oam=1  # charge +1\n\n# done\nDETECT"
        circuit = parse(text)
        assert len(circuit.statements) == 2

    @pytest.mark.parametrize(
        "text,line,column",
        [
            ("", 1, 1),                                          # missing SOURCE
            ("DETECT", 1, 1),                                    # SOURCE not first
            ("SOURCE pol=H oam=0\nMZI_CNOT", 2, 1),              # no sign to act on
            ("SOURCE pol=H oam=1\nSOURCE pol=V oam=1", 2, 1),    # duplicate SOURCE
            ("SOURCE pol=H oam=1\nTRIAPERTURE side=2\nTRIAPERTURE side=3", 3, 1),  # duplicate
            ("SOURCE pol=V oam=1\nTRIAPERTURE side=2\nMZI_CNOT", 3, 1),  # aperture first
            ("SOURCE pol=V oam=1\nTRIAPERTURE side=2\n  HWP angle=1", 3, 3),  # aperture first
            ("SOURCE pol=V oam=1\nTRIAPERTURE side=2\nPOLARIZER V", 3, 1),  # aperture first
            ("SOURCE pol=H oam=1\n  BOGUS x=1", 2, 3),           # unknown keyword
            ("SOURCE pol=Q oam=1", 1, 12),                       # bad pol label
            ("SOURCE pol=H oam=x1", 1, 18),                      # malformed integer
            ("SOURCE pol=H oam=1.5", 1, 18),                     # non-integer charge
            ("SOURCE pol=H", 1, 1),                              # missing oam
            ("SOURCE pol=H pol=V oam=1", 1, 14),                 # duplicate parameter
            ("SOURCE pol=H oam=1\nHWP angle=abc", 2, 11),        # malformed number
            ("SOURCE pol=H oam=1\nHWP angle=nan", 2, 11),        # nan is not decimal
            ("SOURCE pol=H oam=1\nHWP angle=1e999", 2, 11),      # overflows to inf
            ("SOURCE pol=H oam=1\nPOLARIZER X", 2, 11),          # bad axis
            ("SOURCE pol=H oam=1\nPOLARIZER", 2, 1),             # missing axis
            ("SOURCE pol=H oam=1\nTRIAPERTURE side=-2", 2, 18),  # negative side
            ("SOURCE pol=H oam=1\nMZI_CNOT mode=weird", 2, 15),  # unknown mode
            ("SOURCE pol=H oam=1\nDETECT\nHWP angle=1", 3, 1),   # after DETECT
            ("SOURCE pol=H oam=1\nDETECT extra", 2, 8),          # unexpected token
            ("SOURCE pol=H oam=1\nHWP frequency=2", 2, 5),       # unknown parameter
        ],
    )
    def test_error_positions(self, text, line, column):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)

    def test_integer_past_the_conversion_limit_is_a_parse_error(self):
        # Python's int() refuses strings of more than 4300 digits.
        with pytest.raises(ParseError) as err:
            parse("SOURCE pol=H oam=" + "1" * 5000)
        assert (err.value.line, err.value.column) == (1, 18)

    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from(" \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2003\u2028\u3000"),
                st.characters(),
            ),
            max_size=40,
        )
    )
    @example("SOURCE\x1cpol=H\xa0oam=1\u2003 # x")
    def test_tokens_and_columns_match_a_character_loop(self, line):
        # The character-by-character tokenizer that the regex replaced.
        expected = []
        i = 0
        while i < len(line):
            if line[i].isspace():
                i += 1
                continue
            start = i
            while i < len(line) and not line[i].isspace():
                i += 1
            expected.append((line[start:i], start + 1))
        assert circuit._tokenize(line) == expected

    def test_exponent_numbers_accepted(self):
        circuit = parse("SOURCE pol=H oam=1\nHWP angle=2.25e1")
        assert circuit.statements[1] == Hwp(22.5)

    @settings(max_examples=300)
    @given(st.one_of(
        st.text(),
        st.text(alphabet=" \t\n#=+-.eE0123456789SOURCEHWPMZICNOTPOLARIZERTRIAPERTUREDETECTpolamangesidhv_"),
    ))
    def test_total_on_arbitrary_text(self, text):
        try:
            circuit = parse(text)
            assert isinstance(circuit, Circuit)
        except ParseError as err:
            assert err.line >= 1
            assert err.column >= 1
            assert err.line <= max(1, text.count("\n") + 1)


class TestFormat:
    def test_integral_numbers_render_bare(self):
        assert "HWP angle=45" in format_circuit(
            Circuit((Source("H", 1), Hwp(45.0)))
        )

    def test_defaults_render_explicitly(self):
        text = format_circuit(Circuit((Source("H", 1), MziCnot(), TriangleAperture(2.0))))
        assert "MZI_CNOT mode=paper-default" in text
        assert "TRIAPERTURE side=2 orientation=0" in text

    def test_reference_round_trip(self):
        circuit = parse(REFERENCE_TEXT)
        assert parse(format_circuit(circuit)) == circuit

    @settings(max_examples=200)
    @given(circuits())
    def test_round_trip_on_generated_circuits(self, circuit):
        parsed = parse(format_circuit(circuit))
        assert parsed == circuit
        # parse skips __post_init__, so its circuit must equal one built
        # through it, attribute for attribute
        rebuilt = Circuit(parsed.statements)
        assert parsed == rebuilt and vars(parsed) == vars(rebuilt)


class TestCircuitInvariants:
    def test_source_must_lead(self):
        with pytest.raises(ValueError, match="SOURCE"):
            Circuit((Hwp(10.0),))

    def test_detect_must_be_last(self):
        with pytest.raises(ValueError, match="DETECT"):
            Circuit((Source("H", 1), Detect(), Hwp(1.0)))

    def test_zero_charge_cannot_drive_the_gate(self):
        with pytest.raises(ValueError, match="nonzero"):
            Circuit((Source("H", 0), MziCnot()))

    @pytest.mark.parametrize("optic", [Hwp(22.5), MziCnot(), Polarizer("V")])
    def test_aperture_must_follow_the_optics(self, optic):
        # The camera reads the aperture's diffraction of the final field, so
        # an aperture before an optic would be read as if it stood after it.
        with pytest.raises(ValueError, match="after TRIAPERTURE"):
            Circuit((Source("V", 1), TriangleAperture(2.0, 10.0), optic, Detect()))
        assert Circuit((Source("V", 1), optic, TriangleAperture(2.0, 10.0), Detect()))

    def test_parse_checks_each_statements_placement_once(self, monkeypatch):
        # parse checks each statement as it reads it, and the circuit it
        # returns is not checked again; one built directly still is
        calls = []
        real = circuit._placement_error

        def counting(before, kind):
            calls.append(kind)
            return real(before, kind)

        monkeypatch.setattr(circuit, "_placement_error", counting)
        parsed = parse(REFERENCE_TEXT)
        assert calls == [Source, MziCnot, Polarizer, TriangleAperture, Detect]
        calls.clear()
        assert Circuit(parsed.statements) == parsed
        assert len(calls) == 5
        with pytest.raises(ValueError, match="MZI_CNOT after TRIAPERTURE"):
            Circuit((Source("V", 1), TriangleAperture(2.0), MziCnot()))

    @settings(max_examples=300)
    @given(st.lists(any_statement, max_size=6))
    @example([])
    @example([Hwp(1.0), Source("H", 1)])
    @example([Source("H", 1), Source("V", 1)])
    @example([Source("H", 1), TriangleAperture(2.0), TriangleAperture(3.0)])
    @example([Source("H", 1), Detect(), Hwp(1.0)])
    @example([Source("H", 1), Detect(), Detect()])
    @example([Source("H", 0), MziCnot()])
    @example([Source("V", 1), TriangleAperture(2.0), MziCnot(), Polarizer("V"), Detect()])
    def test_parse_and_circuit_reject_alike(self, statements):
        text = "".join(format_statement(s) + "\n" for s in statements)
        try:
            expected = Circuit(tuple(statements))
        except ValueError as err:
            with pytest.raises(ParseError) as parse_err:
                parse(text)
            assert parse_err.value.message == str(err)
        else:
            assert parse(text) == expected


class TestRunLogical:
    def test_gate_flips_sign_for_v(self):
        run = run_logical(parse("SOURCE pol=V oam=1\nMZI_CNOT"))
        assert np.allclose(run.final_state.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_gate_leaves_h_alone(self):
        run = run_logical(parse("SOURCE pol=H oam=1\nMZI_CNOT"))
        assert np.allclose(run.final_state.amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_hadamard_plate_then_gate_entangles(self):
        run = run_logical(parse("SOURCE pol=H oam=1\nHWP angle=22.5\nMZI_CNOT"))
        expected = bell_state(0, 0, 1)
        assert np.allclose(run.final_state.amplitudes, expected.amplitudes, atol=1e-12)

    def test_hwp_is_the_physical_retarder(self):
        # plate at 22.5 deg: V -> (H - V)/sqrt2; plate at 45 deg swaps H and V
        run = run_logical(parse("SOURCE pol=V oam=1\nHWP angle=22.5"))
        assert np.allclose(
            run.final_state.amplitudes, [1 / SQRT2, 0, -1 / SQRT2, 0], atol=1e-12
        )
        run = run_logical(parse("SOURCE pol=V oam=1\nHWP angle=45"))
        assert np.allclose(run.final_state.amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_diagonal_source(self):
        run = run_logical(parse("SOURCE pol=D oam=-2"))
        assert np.allclose(
            run.final_state.amplitudes, [0, 1 / SQRT2, 0, 1 / SQRT2], atol=1e-12
        )
        assert run.final_state.oam_magnitude == 2

    def test_polarizer_records_probability(self):
        run = run_logical(
            parse("SOURCE pol=H oam=1\nHWP angle=22.5\nMZI_CNOT\nPOLARIZER V")
        )
        (event,) = run.projections
        assert event.axis is PolarizationAxis.VERTICAL
        assert abs(event.probability - 0.5) < 1e-12
        assert np.allclose(run.final_state.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_zero_probability_outcome(self):
        run = run_logical(parse("SOURCE pol=H oam=1\nPOLARIZER V\nDETECT"))
        (event,) = run.projections
        assert event.probability == 0.0
        assert run.final_state is None
        # a polarizer after the blocked beam records no light and no state
        run = run_logical(parse("SOURCE pol=H oam=1\nPOLARIZER V\nHWP angle=45\nPOLARIZER H"))
        assert [(e.axis.value, e.probability) for e in run.projections] == [("V", 0.0), ("H", 0.0)]
        assert run.final_state is None and run.analyzer is PolarizationAxis.HORIZONTAL

    def test_zero_charge_runs_the_polarization_algebra(self):
        run = run_logical(parse("SOURCE pol=H oam=0\nHWP angle=45\nPOLARIZER V"))
        (event,) = run.projections
        assert abs(event.probability - 1.0) < 1e-12

    def test_aperture_and_detect_leave_the_state(self):
        run = run_logical(parse(REFERENCE_TEXT))
        bare = run_logical(parse("SOURCE pol=V oam=1\nMZI_CNOT\nPOLARIZER V"))
        assert np.array_equal(run.final_state.amplitudes, bare.final_state.amplitudes)
        assert run.projections == bare.projections
        assert run.analyzer is bare.analyzer is PolarizationAxis.VERTICAL


def kron_amplitudes(circ):
    """``run_logical``'s final amplitudes, or None when no state is left,
    each as a Kronecker product: the source is kron(Jones, sign), a
    polarizer keeps kron(e, chi / sqrt(p)) for the OAM-sign components chi
    on its axis e, and a half-wave plate is the 4 x 4 kron(plate, I)."""
    amps = None
    for stmt in circ.statements:
        if isinstance(stmt, Source):
            amps = np.kron(LITERAL_JONES[stmt.pol], LITERAL_SIGNS[stmt.oam < 0])
        elif isinstance(stmt, Polarizer) and amps is not None:
            e = LITERAL_JONES[stmt.axis]
            chi = e.conj() @ amps.reshape(2, 2)
            prob = float(np.sum(np.abs(chi) ** 2))
            amps = None if prob < ZERO_PROBABILITY else np.kron(e, chi / np.sqrt(prob))
        elif isinstance(stmt, Hwp) and amps is not None:
            amps = np.kron(circuit._hwp_matrix(stmt.angle_deg), np.eye(2)) @ amps
        elif isinstance(stmt, MziCnot) and amps is not None:
            amps = compose_mzi(stmt.mode) @ amps
    return amps


@st.composite
def plate_heavy_circuits(draw):
    """SOURCE and up to eight statements, mostly half-wave plates: at 0 or
    -0 degrees, whose matrix holds exact zeros, near the other axes, or at
    any angle."""
    oam = draw(st.sampled_from((-1, 1, 3)))
    angles = st.sampled_from((0.0, -0.0, 22.5, 45.0, -45.0, 90.0, 180.0)) | finite_floats(
        min_value=-360, max_value=360
    )
    body = st.one_of(
        *[angles.map(Hwp)] * 3,
        st.sampled_from(("H", "V")).map(Polarizer),
        st.sampled_from(("paper-default", "strict-parity")).map(MziCnot),
    )
    statements = [Source(draw(st.sampled_from("HVDA")), oam), *draw(st.lists(body, max_size=8))]
    return Circuit(tuple(statements))


class TestHalfWavePlate:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(circuits(), plate_heavy_circuits()))
    def test_plates_give_the_kron_forms_bytes(self, circ):
        # byte equality: a -0.0 where the kron form gives +0.0 is a failure,
        # since the reports print the sign
        want = kron_amplitudes(circ)
        final = run_logical(circ).final_state
        if want is None:
            assert final is None
        else:
            assert final.amplitudes.tobytes() == want.tobytes()

    def test_a_plate_at_zero_leaves_a_positive_zero(self):
        amps = run_logical(parse("SOURCE pol=V oam=1\nHWP angle=0")).final_state.amplitudes
        assert amps.tolist() == [0, 0, -1, 0]
        assert not np.signbit(amps[3].real) and not np.signbit(amps[3].imag)


class TestRunWave:
    def test_reference_circuit_reads_negative_charge(self, fast_grid, params):
        wave = run_wave(parse(REFERENCE_TEXT), Camera(fast_grid, params))
        (outcome,) = wave.outcomes
        assert outcome.axis is PolarizationAxis.VERTICAL
        assert abs(outcome.probability - 1.0) < 1e-12
        assert outcome.readout.magnitude == 1
        assert outcome.readout.sign == "-"

    def test_h_variant_reads_positive_charge(self, fast_grid, params):
        text = REFERENCE_TEXT.replace("pol=V", "pol=H").replace("POLARIZER V", "POLARIZER H")
        wave = run_wave(parse(text), Camera(fast_grid, params))
        (outcome,) = wave.outcomes
        assert outcome.readout.sign == "+"
        assert outcome.readout.magnitude == 1

    def test_layer_agreement_on_truth_table(self, fast_grid, params):
        for pol, ell in (("H", 1), ("H", -1), ("V", -1), ("V", 1)):
            text = (
                f"SOURCE pol={pol} oam={ell}\nMZI_CNOT\nPOLARIZER {pol}\n"
                "TRIAPERTURE side=2\nDETECT"
            )
            wave = run_wave(parse(text), Camera(fast_grid, params))
            (outcome,) = wave.outcomes
            amps = np.abs(wave.logical.final_state.amplitudes) ** 2
            oam_bit = int(np.argmax(amps)) % 2
            assert outcome.readout.sign == ("+" if oam_bit == 0 else "-")

    def test_requires_aperture_and_detect(self, monkeypatch, fast_grid, params):
        # An outcome that is neither read out (TRIAPERTURE and DETECT) nor
        # written is not rendered: no mode, no mask, no lens.
        calls = [
            counting(monkeypatch, name)
            for name in ("lg_mode", "aperture_mask", "far_field", "render_image")
        ]
        for text in ("SOURCE pol=D oam=1\nDETECT", "SOURCE pol=D oam=1\nTRIAPERTURE side=2"):
            wave = run_wave(parse(text), Camera(fast_grid, params))
            assert [o.axis.value for o in wave.outcomes] == ["H", "V"]
            for outcome in wave.outcomes:
                assert outcome.intensity_map is None and outcome.readout is None
        assert calls == [[], [], [], []]

    @pytest.mark.parametrize(
        "waist, text, message",
        [
            (0.5e-3, "SOURCE pol=H oam=11", "|ell| = 11 exceeds"),
            (0.5e-3, "SOURCE pol=H oam=-11\nTRIAPERTURE side=2", "|ell| = 11 exceeds"),
            (3e-3, "SOURCE pol=H oam=0\nDETECT", "beam waist 0.003 m"),
            (3e-3, "SOURCE pol=H oam=11\nTRIAPERTURE side=20", "triangle side 0.02 m"),
        ],
    )
    def test_unrendered_outcome_is_refused_as_a_rendered_one(self, waist, text, message, fast_grid):
        params = OpticalParams(beam_waist=waist)
        refusals = []
        for full_frame in (False, True):
            with pytest.raises(ValueError) as info:
                run_wave(parse(text), Camera(fast_grid, params), full_frame=full_frame)
            refusals.append(str(info.value))
        assert refusals[0] == refusals[1] and refusals[0].startswith(message)

    def test_written_outcome_is_the_whole_frame_from_the_aperture_box(self, fast_grid, params):
        for text, aperture in (
            ("SOURCE pol=D oam=1\nDETECT", None),
            ("SOURCE pol=D oam=1\nTRIAPERTURE side=2", TriangleAperture(2).spec),
        ):
            wave = run_wave(parse(text), Camera(fast_grid, params), full_frame=True)
            assert [o.axis.value for o in wave.outcomes] == ["H", "V"]
            for outcome in wave.outcomes:
                assert outcome.readout is None
                field = direct_field(fast_grid, params, aperture, 1)
                img = intensity(far_field(field))
                assert img.shape == (fast_grid.n, fast_grid.n)
                assert np.array_equal(outcome.intensity_map, img)

    @pytest.mark.parametrize(
        "text",
        [REFERENCE_TEXT, "SOURCE pol=D oam=1\nTRIAPERTURE side=2\nDETECT"],
        ids=["reference", "two-outcomes"],
    )
    def test_written_outcome_is_read_from_the_camera_window(
        self, monkeypatch, text, fast_grid, params
    ):
        # Writing the whole frame does not move the readout onto it: the
        # peak finder sees only the window, and every readout is the one
        # of the same run without the frame.
        calls = counting(monkeypatch, "find_peaks", readout)
        written = run_wave(parse(text), Camera(fast_grid, params), full_frame=True)
        read = run_wave(parse(text), Camera(fast_grid, params))
        shapes = [args[0].shape for args in calls]
        assert shapes and (fast_grid.n, fast_grid.n) not in shapes
        assert [o.readout for o in written.outcomes] == [o.readout for o in read.outcomes]
        for outcome in written.outcomes:
            assert outcome.intensity_map.shape == (fast_grid.n, fast_grid.n)
        for outcome in read.outcomes:
            assert outcome.intensity_map is None

    def test_no_polarizer_renders_both_outcomes(self, fast_grid, params):
        text = "SOURCE pol=D oam=1\nTRIAPERTURE side=2\nDETECT"
        wave = run_wave(parse(text), Camera(fast_grid, params))
        assert [o.axis.value for o in wave.outcomes] == ["H", "V"]
        for outcome in wave.outcomes:
            assert abs(outcome.probability - 0.5) < 1e-12
            assert outcome.readout.topological_charge == 1

    def test_zero_charge_classifies_undefined(self, fast_grid, params):
        text = "SOURCE pol=H oam=0\nPOLARIZER H\nTRIAPERTURE side=2\nDETECT"
        wave = run_wave(parse(text), Camera(fast_grid, params))
        (outcome,) = wave.outcomes
        assert outcome.readout.magnitude == 0
        assert outcome.readout.sign == "undefined"

    def test_outcome_axes_skips_dead_branches(self):
        run = run_logical(parse("SOURCE pol=H oam=1\nPOLARIZER V"))
        assert outcome_axes(run) == []

    def test_hwp_after_polarizer_renders_both_outcomes(self, fast_grid, params):
        # A transparent polarizer before the plate changes nothing.
        body = "HWP angle=22.5\nMZI_CNOT\nTRIAPERTURE side=2\nDETECT"
        with_polarizer = run_wave(
            parse(f"SOURCE pol=H oam=1\nPOLARIZER H\n{body}"), Camera(fast_grid, params)
        )
        without = run_wave(parse(f"SOURCE pol=H oam=1\n{body}"), Camera(fast_grid, params))
        for wave in (with_polarizer, without):
            assert [o.axis.value for o in wave.outcomes] == ["H", "V"]
            assert [o.readout.topological_charge for o in wave.outcomes] == [1, -1]
            for outcome in wave.outcomes:
                assert abs(outcome.probability - 0.5) < 1e-12
        assert [o.probability for o in with_polarizer.outcomes] == [
            o.probability for o in without.outcomes
        ]

    def test_hwp_after_polarizer_moves_the_outcome_axis(self):
        run = run_logical(parse("SOURCE pol=H oam=1\nPOLARIZER H\nHWP angle=45"))
        assert run.analyzer is None
        ((axis, probability),) = outcome_axes(run)
        assert axis is PolarizationAxis.VERTICAL
        assert abs(probability - 1.0) < 1e-12

    def test_outcome_probability_includes_polarizer_survival(self):
        run = run_logical(parse("SOURCE pol=D oam=1\nPOLARIZER H\nHWP angle=22.5"))
        axes = outcome_axes(run)
        assert [axis.value for axis, _ in axes] == ["H", "V"]
        for _, probability in axes:
            assert abs(probability - 0.25) < 1e-12


def counting(monkeypatch, name, module=readout):
    """Wrap ``module.<name>`` so that every call is recorded."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSynthesizeField:
    """The field an outcome is rendered from, against the signed modes
    built without the camera (``conftest.direct_field``)."""

    def test_basis_outcome_builds_one_mode(self, monkeypatch, fast_grid, params):
        calls = counting(monkeypatch, "lg_mode")
        text = "SOURCE pol=H oam=1\nMZI_CNOT"
        wave = run_wave(parse(text), Camera(fast_grid, params), full_frame=True)
        (outcome,) = wave.outcomes
        assert [args[1] for args in calls] == [1]
        far = far_field(direct_field(fast_grid, params, None, 1))
        assert np.array_equal(outcome.intensity_map, intensity(far))

    def test_superposition_outcome_builds_both_modes(self, monkeypatch, fast_grid, params):
        text = "SOURCE pol=D oam=1\nMZI_CNOT\nHWP angle=22.5"
        calls = counting(monkeypatch, "lg_mode")
        wave = run_wave(parse(text), Camera(fast_grid, params), full_frame=True)
        assert len(wave.outcomes) == 2
        # -1 is the exact conjugate of the one mode each outcome builds
        assert [args[1] for args in calls] == [1, 1]
        for outcome in wave.outcomes:
            chi = outcome.axis.jones.conj() @ wave.logical.final_state.amplitudes.reshape(2, 2)
            w_plus, w_minus = chi / np.linalg.norm(chi)
            assert w_plus != 0 and w_minus != 0 and outcome.expected is None
            field = direct_field(fast_grid, params, None, 1, (w_plus, w_minus))
            img = intensity(far_field(field))
            assert np.array_equal(outcome.intensity_map, img)


class TestRunWaveMask:
    def test_blocked_beam_builds_no_mask(self, monkeypatch, fast_grid, params):
        calls = counting(monkeypatch, "aperture_mask")
        blocked = "SOURCE pol=H oam=1\nPOLARIZER V\nTRIAPERTURE side=2"
        for text in (blocked + "\nDETECT", blocked):
            assert run_wave(parse(text), Camera(fast_grid, params)).outcomes == ()
        assert calls == []

    def test_one_mask_for_all_outcomes(self, monkeypatch, fast_grid, params):
        calls = counting(monkeypatch, "aperture_mask")
        text = "SOURCE pol=D oam=1\nTRIAPERTURE side=2\nDETECT"
        assert len(run_wave(parse(text), Camera(fast_grid, params)).outcomes) == 2
        assert len(calls) == 1


#: Jones vectors of the source and polarizer labels, written out here.
JONES = {
    "H": np.array([1, 0]),
    "V": np.array([0, 1]),
    "D": np.array([1, 1]) / SQRT2,
    "A": np.array([1, -1]) / SQRT2,
}
#: Paper-default gate, and strict parity: the CNOT, then a flip of the target.
GATES = {
    "paper-default": CNOT_MATRIX,
    "strict-parity": np.kron(np.eye(2), [[0, 1], [1, 0]]) @ CNOT_MATRIX,
}


def reference_outcomes(statements):
    """(axis label, probability, expected charge) per outcome, from plain
    matrices: an unnormalized state that each polarizer projects.  Returns
    None when a probability or a sign weight lies near a cut-off, where
    rounding may fall either side."""
    source, *rest = statements
    state = np.kron(JONES[source.pol], [1, 0] if source.oam >= 0 else [0, 1])
    analyzer = None
    for stmt in rest:
        if isinstance(stmt, Hwp):
            c, s = np.cos(np.radians(2 * stmt.angle_deg)), np.sin(np.radians(2 * stmt.angle_deg))
            state = np.kron([[c, s], [s, -c]], np.eye(2)) @ state
            analyzer = None
        elif isinstance(stmt, MziCnot):
            state = GATES[stmt.mode] @ state
        elif isinstance(stmt, Polarizer):
            analyzer = stmt.axis
            state = np.kron(np.outer(JONES[analyzer], JONES[analyzer]), np.eye(2)) @ state
    outcomes = []
    for axis in [analyzer] if analyzer else ["H", "V"]:
        chi = JONES[axis] @ state.reshape(2, 2)
        probability = float(np.sum(np.abs(chi) ** 2))
        if 1e-16 < probability < 1e-12:
            return None
        if probability <= 1e-14:
            continue
        weights = np.abs(chi) ** 2 / probability
        if any(1 - 1e-7 < w < 1 - 1e-11 for w in weights):
            return None
        signs = [sign for sign, w in zip((1, -1), weights) if w > 1 - 1e-9]
        expected = signs[0] * abs(source.oam) if signs else None
        outcomes.append((axis, probability, 0 if source.oam == 0 else expected))
    return outcomes


@st.composite
def logical_circuits(draw):
    """SOURCE, then HWP, MZI_CNOT (a nonzero charge only) and POLARIZER in
    any order, then DETECT or not; no TRIAPERTURE, so nothing is rendered."""
    oam = draw(st.integers(-10, 10))
    angles = st.integers(-24, 24).map(lambda k: 7.5 * k) | finite_floats(
        min_value=-90, max_value=90
    )
    body = st.one_of(
        angles.map(Hwp),
        st.sampled_from(("H", "V")).map(Polarizer),
        *([st.sampled_from(("paper-default", "strict-parity")).map(MziCnot)] if oam else []),
    )
    statements = [Source(draw(st.sampled_from("HVDA")), oam), *draw(st.lists(body, max_size=6))]
    return Circuit((*statements, Detect()) if draw(st.booleans()) else statements)


class TestOutcomeRecord:
    @settings(max_examples=300, deadline=None)
    @given(logical_circuits())
    def test_every_outcome_matches_the_plain_matrices(self, circ):
        want = reference_outcomes(circ.statements)
        assume(want is not None)
        wave = run_wave(circ, Camera(Grid(64, 4e-3), OpticalParams()))
        assert [o.axis.value for o in wave.outcomes] == [axis for axis, _, _ in want]
        for outcome, (_, probability, expected) in zip(wave.outcomes, want):
            assert abs(outcome.probability - probability) <= 1e-9 * probability
            assert outcome.expected == expected
            assert outcome.intensity_map is None and outcome.readout is None
