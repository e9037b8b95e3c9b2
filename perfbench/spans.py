"""Span tracing around the package's public functions, from outside it.

``Tracer.install`` replaces every binding of each traced function inside
the ``oamcnot`` modules (``wavefield.lg_mode`` and ``readout.lg_mode`` are
separate names for one function) with a wrapper that records a span:
name, start, end, parent span and op id.  Some wrappers also note a count
taken at the call boundary (the lg_mode inputs, the peaks found, ...).
Spans stay in memory until ``write``.

A function's self time is its span's duration minus the time its child
spans cover.  Counts are taken over the first ``prefix`` ops of a run, which
are the same inputs for a given seed, so they repeat exactly; self times
are averaged over every traced op.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

from oamcnot import readout

#: Relative weight below which a vortex mode enters a superposition with
#: zero weight (the reference's cut-off for an outcome carrying no light).
ZERO_WEIGHT = 1e-14

TRACED = {
    "hybrid": ("project_polarization", "concurrence"),
    "interferometer": ("compose_mzi",),
    "wavefield": ("lg_mode", "aperture_mask", "apply_mask", "far_field", "intensity"),
    "readout": ("find_peaks", "classify_oam", "readout_roundtrip"),
    "circuit": ("parse", "format_circuit", "run_logical", "run_wave", "synthesize_field"),
    "cli": ("main",),
}

#: The per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = [
    ("wavefield.lg_mode.calls_per_op", "count", "lower"),
    ("wavefield.lg_mode.self_ms_per_op", "ms", "lower"),
    ("wavefield.lg_mode.repeat_ratio", "ratio", "lower"),
    ("wavefield.lg_mode.magnitude_repeat_ratio", "ratio", "lower"),
    ("wavefield.aperture_mask.calls_per_op", "count", "lower"),
    ("wavefield.aperture_mask.self_ms_per_op", "ms", "lower"),
    ("wavefield.aperture_mask.repeat_ratio", "ratio", "lower"),
    ("wavefield.apply_mask.self_ms_per_op", "ms", "lower"),
    ("wavefield.intensity.self_ms_per_op", "ms", "lower"),
    ("wavefield.far_field.calls_per_op", "count", "lower"),
    ("wavefield.far_field.self_ms_per_op", "ms", "lower"),
    ("wavefield.far_field.flops_computed_per_op", "flop", "lower"),
    ("wavefield.far_field.bytes_computed_per_op", "B", "lower"),
    ("circuit.synthesize_field.self_ms_per_op", "ms", "lower"),
    ("circuit.synthesize_field.useful_mode_ratio", "ratio", "higher"),
    ("readout.find_peaks.calls_per_op", "count", "lower"),
    ("readout.find_peaks.self_ms_per_op", "ms", "lower"),
    ("readout.find_peaks.peaks_per_call", "count", "higher"),
    ("readout.classify_oam.self_ms_per_op", "ms", "lower"),
    ("readout.classify_oam.not_triangular_ratio", "ratio", "lower"),
    ("readout.classify_oam.ambiguous_ratio", "ratio", "lower"),
    ("readout.readout_roundtrip.self_ms_per_op", "ms", "lower"),
    ("circuit.parse.self_ms_per_op", "ms", "lower"),
    ("circuit.format_circuit.self_ms_per_op", "ms", "lower"),
    ("circuit.run_logical.self_ms_per_op", "ms", "lower"),
    ("circuit.run_wave.self_ms_per_op", "ms", "lower"),
    ("interferometer.compose_mzi.calls_per_op", "count", "lower"),
    ("interferometer.compose_mzi.self_ms_per_op", "ms", "lower"),
    ("interferometer.compose_mzi.repeat_ratio", "ratio", "lower"),
    ("hybrid.project_polarization.calls_per_op", "count", "lower"),
    ("hybrid.project_polarization.self_ms_per_op", "ms", "lower"),
    ("hybrid.concurrence.calls_per_op", "count", "lower"),
    ("hybrid.concurrence.self_ms_per_op", "ms", "lower"),
    ("cli.main.self_ms_per_op", "ms", "lower"),
    ("cli.report_bytes_per_op", "B", "lower"),
    ("trace_overhead_ratio", "ratio", "higher"),
]


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# Notes: what a wrapper records about one call, from its arguments and its
# result (or the exception it raised).


def _note_lg_mode(args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    ell = _arg(args, kwargs, 1, "ell")
    rest = (_arg(args, kwargs, 2, "waist"), _arg(args, kwargs, 3, "wavelength"))
    return [grid.n, grid.window, ell, *rest]


def _note_aperture_mask(args, kwargs, result):
    grid, aperture = _arg(args, kwargs, 0, "grid"), _arg(args, kwargs, 1, "aperture")
    return [grid.n, grid.window, aperture.shape, aperture.size, aperture.orientation]


def _note_far_field(args, kwargs, result):
    field = _arg(args, kwargs, 0, "field")
    out_bytes = result.samples.nbytes if hasattr(result, "samples") else 0
    return [field.grid.n, field.samples.nbytes + out_bytes]


def _note_synthesize_field(args, kwargs, result):
    """Number of vortex modes the outcome's field needs: one for a zero
    charge, else the signs whose weight chi (from the public state and
    axis) is nonzero."""
    run, axis = _arg(args, kwargs, 0, "run"), _arg(args, kwargs, 1, "axis")
    if run.oam_is_zero:
        return 1
    chi = axis.jones.conj() @ run.final_state.amplitudes.reshape(2, 2)
    weights = abs(chi) ** 2
    return int(sum(w > ZERO_WEIGHT * weights.sum() for w in weights))


def _note_find_peaks(args, kwargs, result):
    return len(result.peaks) if hasattr(result, "peaks") else None


def _note_classify_oam(args, kwargs, result):
    if isinstance(result, readout.ClassificationError):
        return "not_triangular"
    if isinstance(result, readout.AmbiguousOrientationError):
        return "ambiguous"
    return None


def _note_compose_mzi(args, kwargs, result):
    return repr(_arg(args, kwargs, 0, "config"))


def _note_cli_main(args, kwargs, result):
    stream = kwargs.get("stream", args[1] if len(args) > 1 else None)
    return len(stream.getvalue().encode()) if hasattr(stream, "getvalue") else None


NOTES = {
    "wavefield.lg_mode": _note_lg_mode,
    "wavefield.aperture_mask": _note_aperture_mask,
    "wavefield.far_field": _note_far_field,
    "circuit.synthesize_field": _note_synthesize_field,
    "readout.find_peaks": _note_find_peaks,
    "readout.classify_oam": _note_classify_oam,
    "interferometer.compose_mzi": _note_compose_mzi,
    "cli.main": _note_cli_main,
}


class Tracer:
    """Records spans for calls into the traced functions while installed."""

    def __init__(self) -> None:
        # One span: [name, start, end, parent index, op id, note].
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(index)
            outcome = None
            span[1] = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if note is not None:
                    span[5] = note(args, kwargs, outcome)

        return traced

    def install(self) -> None:
        """Patch every binding of every traced function in the package."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"oamcnot.{module_name}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:  # gone from the package: its metrics read 0
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{module_name}.{name}", fn))
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "oamcnot"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent, op, note."""
        keys = ("name", "start", "end", "parent", "op", "note")
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **dict(zip(keys, span))}) + "\n")

    def metrics(self, prefix: int, ops: int) -> dict[str, float]:
        """Per-layer metrics: counts per op over ops [0, prefix), self times
        per op over all ``ops`` traced ops."""
        child_time: dict[int, float] = defaultdict(float)
        children: dict[int, Counter] = defaultdict(Counter)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
                children[parent][name] += 1
        self_ms: dict[str, float] = defaultdict(float)
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            self_ms[name] += (end - start - child_time[index]) * 1e3
        counted = [
            (index, span) for index, span in enumerate(self.spans) if span[4] < prefix
        ]

        def notes(name):
            return [span[5] for _, span in counted if span[0] == name]

        def repeat_ratio(keys):
            seen, repeats = set(), 0
            for key in keys:
                key = json.dumps(key)
                repeats += key in seen
                seen.add(key)
            return repeats / len(keys) if keys else 0.0

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for name, _, _ in PER_LAYER:
            layer, _, quantity = name.rpartition(".")
            if quantity == "self_ms_per_op":
                out[name] = self_ms[layer] / ops
            elif quantity == "calls_per_op":
                out[name] = sum(span[0] == layer for _, span in counted) / prefix

        lg = notes("wavefield.lg_mode")
        out["wavefield.lg_mode.repeat_ratio"] = repeat_ratio(lg)
        out["wavefield.lg_mode.magnitude_repeat_ratio"] = repeat_ratio(
            [[n, window, abs(ell), *rest] for n, window, ell, *rest in lg]
        )
        out["wavefield.aperture_mask.repeat_ratio"] = repeat_ratio(notes("wavefield.aperture_mask"))
        out["interferometer.compose_mzi.repeat_ratio"] = repeat_ratio(
            notes("interferometer.compose_mzi")
        )
        ffts = notes("wavefield.far_field")
        out["wavefield.far_field.flops_computed_per_op"] = (
            sum(5 * n * n * math.log2(n * n) for n, _ in ffts) / prefix
        )
        out["wavefield.far_field.bytes_computed_per_op"] = sum(b for _, b in ffts) / prefix
        useful = built = 0
        for index, span in counted:
            if span[0] == "circuit.synthesize_field":
                useful += span[5]
                built += children[index]["wavefield.lg_mode"]
        out["circuit.synthesize_field.useful_mode_ratio"] = ratio(useful, built)
        peaks = [p for p in notes("readout.find_peaks") if p is not None]
        out["readout.find_peaks.peaks_per_call"] = ratio(sum(peaks), len(peaks))
        verdicts = notes("readout.classify_oam")
        out["readout.classify_oam.not_triangular_ratio"] = ratio(
            verdicts.count("not_triangular"), len(verdicts)
        )
        out["readout.classify_oam.ambiguous_ratio"] = ratio(verdicts.count("ambiguous"), len(verdicts))
        out["cli.report_bytes_per_op"] = sum(b or 0 for b in notes("cli.main")) / prefix
        return out
