"""The four benchmark workloads.

Each workload builds its inputs from a seed, runs one op per call of
``run`` (the timed part), and checks an op's result with ``check`` against
the benchmark's own answer (the untimed part).  ``check`` returns the bytes
that enter the workload's ``output_sha256`` and whether the op passed.

Calls into the package go through module attributes (``readout.x``, never a
name imported from it), so the tracer's patches reach them.
"""

from __future__ import annotations

import io
import math
import os
import random

from oamcnot import circuit, cli, hybrid, readout, wavefield

import reference

MODES = ("paper-default", "strict-parity")


def _failure(exc: BaseException) -> tuple[bytes, bool]:
    return f"{type(exc).__name__}: {exc}".encode(), False


class TruthTable:
    """``oamcnot truth-table`` in-process at the reference configuration
    (1024^2 grid, 8 mm window), alternating paper-default and strict-parity."""

    name = "truth_table"
    why = (
        "The paper's headline result at 1024^2: four basis rows at |l|=1 that rebuild"
        " the same mask and both vortex modes, so mask/far-field caching and a faster"
        " lg_mode act here"
    )
    grid_n = 1024
    #: The first ``prefix`` ops of every run, the same inputs for a given
    #: seed: their outputs are hashed, their failures make ``failed_ratio``
    #: and their per-layer counts are reported.  A run always completes them.
    prefix = 8
    #: Fixed tail percentile.  A run of ~40 s holds ~27 ops of ~1.5 s, so no
    #: percentile above p62 has ten samples beyond it; p75 is reported with
    #: its (smaller) count of samples beyond.
    tail_pct = 75.0

    def __init__(self, seed: int, workdir: str):
        self.modes = [MODES[(seed + i) % 2] for i in range(2)]

    def run(self, i: int) -> str:
        stream = io.StringIO()
        cli.main(["truth-table", "--mode", self.modes[i % 2]], stream=stream)
        return stream.getvalue()

    def check(self, i: int, result) -> tuple[bytes, bool]:
        if isinstance(result, BaseException):
            return _failure(result)
        return result.encode(), reference.check_truth_table_report(self.modes[i % 2], result)


class ChargeSweep:
    """``readout.readout_roundtrip`` at 1024^2 on seeded draws of the signed
    charge (uniform over -8..8) and of the aperture orientation (uniform
    over the reals in [0, 120) degrees).

    The draws stay where the readout is meant to be right, so that no op
    fails: |l| = 9 and 10, which the CLI accepts but the readout mostly
    cannot classify (51 and 56 peaks), are not drawn, and neither are
    orientations within ``degenerate_deg`` of 15 + 30k degrees, where
    |l| <= 3 loses a spot.  Both are known readout defects; ``simulate_mix``
    keeps |l| up to 10.

    The charges come in blocks of 17, each a shuffle of -8..8, so every
    run's first ``prefix`` ops hold each charge equally often."""

    name = "charge_sweep"
    why = (
        "Readout at 1024^2 with a new aperture orientation per op, so mask and far "
        "field never repeat (caching bypass), and |l| up to 8 with up to 45 spots"
    )
    grid_n = 1024
    charges = range(-8, 9)
    prefix = 5 * len(charges)
    tail_pct = 90.0
    pool = 48 * len(charges)
    #: Orientations closer than this to 15 + 30k degrees are drawn again.
    degenerate_deg = 0.05

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}:{seed}")
        self.grid = wavefield.Grid(1024, 8e-3)
        self.params = wavefield.OpticalParams()
        self.draws = []
        while len(self.draws) < self.pool:
            block = list(self.charges)
            rng.shuffle(block)
            for ell in block:
                degrees = rng.uniform(0.0, 120.0)
                while abs(degrees % 30.0 - 15.0) < self.degenerate_deg:
                    degrees = rng.uniform(0.0, 120.0)
                self.draws.append(
                    (ell, wavefield.ApertureSpec(wavefield.TRIANGLE, 2e-3, math.radians(degrees)))
                )

    def run(self, i: int):
        ell, aperture = self.draws[i % self.pool]
        return readout.readout_roundtrip(ell, self.params, self.grid, aperture)

    def check(self, i: int, result) -> tuple[bytes, bool]:
        if isinstance(result, BaseException):
            return _failure(result)
        ell = self.draws[i % self.pool][0]
        out = f"{result.magnitude},{result.sign},{result.spots_per_side},{result.orientation_score!r}"
        ok = result.magnitude == abs(ell) and result.topological_charge == ell
        return out.encode(), ok


class SimulateMix:
    """``oamcnot simulate`` in-process on seeded random circuit files at a
    256^2 grid, with the beam waist drawn per op from [0.4, 0.6] mm."""

    name = "simulate_mix"
    why = (
        "Random circuit files at 256^2 with a new waist per op: no field repeats, and"
        " per-call overhead, superposition outcomes and the no-readout branch weigh "
        "more than the FFT"
    )
    grid_n = 256
    files = 256
    prefix = files
    tail_pct = 99.0
    pool = 8192

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}:{seed}")
        self.specs, self.paths = [], []
        for k in range(self.files):
            spec = reference.random_circuit(rng, detect=k % 3 != 2)
            path = os.path.join(workdir, f"{self.name}-{seed}-{k:03d}.circ")
            with open(path, "w") as fh:
                fh.write(spec.text())
            self.specs.append(spec)
            self.paths.append(path)
        self.waists = [repr(rng.uniform(0.4, 0.6)) for _ in range(self.pool)]

    def run(self, i: int) -> str:
        stream = io.StringIO()
        argv = ["simulate", self.paths[i % self.files], "--grid-n", "256",
                "--waist-mm", self.waists[i % self.pool]]
        cli.main(argv, stream=stream)
        return stream.getvalue()

    def check(self, i: int, result) -> tuple[bytes, bool]:
        if isinstance(result, BaseException):
            return _failure(result)
        return result.encode(), reference.check_simulate_report(self.specs[i % self.files], result)


class LogicalCircuits:
    """The same circuit generator's texts through ``circuit.parse``,
    ``format_circuit``, a re-parse, ``run_logical`` and
    ``hybrid.concurrence``; no wave layer."""

    name = "logical_circuits"
    why = (
        "Parse, format, re-parse, run_logical and concurrence with no wave layer, so "
        "changes to circuit, interferometer and hybrid (under 1% of the wave "
        "workloads) show"
    )
    grid_n = None
    #: p99.9 has ten samples beyond it in a run, but stalls of the shared
    #: machine moved it by 2x between runs; p99 moved by under 10%.
    tail_pct = 99.0
    pool = 8192
    prefix = pool

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"{self.name}:{seed}")
        self.specs = [reference.random_circuit(rng, detect=k % 3 != 2) for k in range(self.pool)]
        self.texts = [spec.text() for spec in self.specs]

    def run(self, i: int):
        parsed = circuit.parse(self.texts[i % self.pool])
        canonical = circuit.format_circuit(parsed)
        reparsed = circuit.parse(canonical)
        final = circuit.run_logical(parsed).final_state
        return parsed, canonical, reparsed, final, None if final is None else hybrid.concurrence(final)

    def check(self, i: int, result) -> tuple[bytes, bool]:
        if isinstance(result, BaseException):
            return _failure(result)
        spec = self.specs[i % self.pool]
        parsed, canonical, reparsed, final, conc = result
        want = reference.expected_run(spec).final
        out = f"{canonical}{None if final is None else final.amplitudes.tolist()!r},{conc!r}"
        ok = canonical == spec.text(canonical=True) and parsed == reparsed
        if want is None or final is None:
            ok = ok and want is None and final is None
        else:
            ok = (
                ok
                and final.oam_magnitude == abs(spec.ell)
                and all(abs(g - w) <= reference.AMPLITUDE_TOL for g, w in zip(final.amplitudes, want))
                and reference.close(conc, reference.concurrence(want))
            )
        return out.encode(), ok


WORKLOADS = {w.name: w for w in (TruthTable, ChargeSweep, SimulateMix, LogicalCircuits)}
