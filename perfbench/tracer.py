"""Spans around the calls into each bideriv module, recorded from outside.

The tracer replaces public functions and methods of the library with
wrappers that record a span each: layer name, start, end, parent span and
task id.  Spans are kept in flat arrays in memory and written out once, when
the run ends.  Module-level functions are replaced in every bideriv module
that binds them (``weights``, ``simplicity``, ``jordan``, ``automorphisms``
and ``cli`` import ``circ`` by name), so no call path escapes.

A layer's self time is its spans' durations minus the time covered by their
direct child spans and minus the tracer's own bookkeeping.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter

# layer -> (module, function) bindings
FUNCTIONS = {
    "poly.circ": [("bideriv.poly", "circ")],
    "weights.cartan_action": [("bideriv.weights", "cartan_action")],
    "simplicity.sweep": [("bideriv.simplicity", "is_simple_bimodule")],
    "simplicity.closure": [("bideriv.simplicity", "bimodule_closure")],
    "jordan.residual": [("bideriv.jordan", "jordan_identity_defect"),
                        ("bideriv.jordan", "bimodule_defects"),
                        ("bideriv.jordan", "matrix_correspondence_residual")],
    "automorphisms.check": [("bideriv.automorphisms", "check_automorphism")],
    "textio.parse": [("bideriv.textio", "parse_polynomial")],
    "textio.format": [("bideriv.textio", "format_polynomial")],
}

# layer -> (module, class, method) bindings
METHODS = {
    "fields.coerce": [("bideriv.fields", "RationalField", "__call__"),
                      ("bideriv.fields", "PrimeField", "__call__")],
    "poly.mul": [("bideriv.poly", "Polynomial", "__mul__")],
    "poly.add": [("bideriv.poly", "Polynomial", "__add__")],
    "poly.derivative": [("bideriv.poly", "Polynomial", "derivative")],
    "simplicity.transfer": [("bideriv.simplicity", "TransferOperator", "apply")],
    "automorphisms.substitute": [("bideriv.automorphisms", "Substitution", "apply")],
    "matrices.mul": [("bideriv.matrices", "SquareMatrix", "__mul__")],
}

# (metric, unit, better) reported by a traced run, in BENCHMARK.json order
PER_LAYER = [
    ("fields.coerce.calls", "count", "lower"),
    ("fields.coerce.self_s", "s", "lower"),
    ("fields.coeff_bits_max", "bits", "lower"),
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.mul.term_pairs", "count", "lower"),
    ("poly.mul.terms_out", "count", "lower"),
    ("poly.derivative.calls", "count", "lower"),
    ("poly.derivative.self_s", "s", "lower"),
    ("poly.add.calls", "count", "lower"),
    ("poly.add.self_s", "s", "lower"),
    ("poly.circ.calls", "count", "lower"),
    ("poly.circ.self_s", "s", "lower"),
    ("weights.cartan_action.calls", "count", "lower"),
    ("weights.cartan_action.self_s", "s", "lower"),
    ("simplicity.sweep.calls", "count", "lower"),
    ("simplicity.sweep.self_s", "s", "lower"),
    ("simplicity.closure.calls", "count", "lower"),
    ("simplicity.closure.self_s", "s", "lower"),
    ("simplicity.closure.images", "count", "lower"),
    ("simplicity.closure.useful_ratio", "1", "higher"),
    ("simplicity.transfer.calls", "count", "lower"),
    ("simplicity.transfer.self_s", "s", "lower"),
    ("jordan.residual.calls", "count", "lower"),
    ("jordan.residual.self_s", "s", "lower"),
    ("automorphisms.substitute.calls", "count", "lower"),
    ("automorphisms.substitute.self_s", "s", "lower"),
    ("automorphisms.check.calls", "count", "lower"),
    ("automorphisms.check.self_s", "s", "lower"),
    ("matrices.mul.calls", "count", "lower"),
    ("matrices.mul.self_s", "s", "lower"),
    ("textio.parse.calls", "count", "lower"),
    ("textio.parse.self_s", "s", "lower"),
    ("textio.parse.bytes_per_s", "B/s", "higher"),
    ("textio.format.calls", "count", "lower"),
    ("textio.format.self_s", "s", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.parse_args_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
]

COUNTERS = ("poly.mul.term_pairs", "poly.mul.terms_out", "textio.parse.bytes",
            "simplicity.closure.dims", "fields.coeff_bits_max")


def _bits(c) -> int:
    value = getattr(c, "value", None)
    if value is not None:
        return value.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.task_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("d")  # bookkeeping time inside a span, excluded from self time
        self.stack: list[int] = []
        self.task = 0
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def _layer(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def wrap(self, layer: str, fn, note=None):
        idx = self._layer(layer)
        name, parent, task_of = self.name, self.parent, self.task_of
        start, end, extra, stack = self.start, self.end, self.extra, self.stack

        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            task_of.append(self.task)
            extra.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            start.append(t0)
            end.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[i] = perf_counter()
                stack.pop()
                raise
            t1 = perf_counter()
            if note is not None:
                note(args, result)
                t2 = perf_counter()
                extra[i] = t2 - t1
                t1 = t2
            end[i] = t1
            stack.pop()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters recorded at the same boundaries ----------------------

    def _note_mul(self, args, result):
        if result is NotImplemented:
            return
        a, b = args
        coeffs = result.terms.values()
        self.counts["poly.mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if hasattr(b, "terms") else 1)
        self.counts["poly.mul.terms_out"] += len(coeffs)
        if coeffs:
            bits = max(_bits(c) for c in coeffs)
            if bits > self.counts["fields.coeff_bits_max"]:
                self.counts["fields.coeff_bits_max"] = bits

    def _note_parse(self, args, result):
        self.counts["textio.parse.bytes"] += len(args[0].encode())

    def _note_closure(self, args, result):
        self.counts["simplicity.closure.dims"] += result.dimension

    # -- installing the wrappers ---------------------------------------

    def install(self):
        notes = {"poly.mul": self._note_mul, "textio.parse": self._note_parse,
                 "simplicity.closure": self._note_closure}
        mods = {k: m for k, m in sys.modules.items()
                if m is not None and (k == "bideriv" or k.startswith("bideriv."))}
        for layer, targets in FUNCTIONS.items():
            for modname, attr in targets:
                original = getattr(mods.get(modname), attr, None)
                if original is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                wrapper = self.wrap(layer, original, notes.get(layer))
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))
        for layer, targets in METHODS.items():
            for modname, clsname, attr in targets:
                cls = getattr(mods.get(modname), clsname, None)
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:
                    self.missing.append(f"{modname}.{clsname}.{attr}")
                    continue
                setattr(cls, attr, self.wrap(layer, original, notes.get(layer)))
                self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- export, merge and aggregation ---------------------------------

    def export(self) -> dict:
        return {"layers": self.layers, "name": list(self.name), "parent": list(self.parent),
                "task": list(self.task_of), "start": list(self.start), "end": list(self.end),
                "extra": list(self.extra), "counts": self.counts, "missing": self.missing}

    def merge(self, other: dict):
        """Append spans recorded by another process (a CLI child)."""
        offset = len(self.name)
        index = [self._layer(layer) for layer in other["layers"]]
        self.name.extend(index[i] for i in other["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in other["parent"])
        self.task_of.extend(other["task"])
        self.start.extend(other["start"])
        self.end.extend(other["end"])
        self.extra.extend(other["extra"])
        for key, value in other["counts"].items():
            if key == "fields.coeff_bits_max":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.missing.extend(m for m in other["missing"] if m not in self.missing)

    def write(self, path: str):
        with gzip.open(path, "wt") as fh:
            json.dump(self.export(), fh, separators=(",", ":"))

    def layer_metrics(self) -> dict:
        n = len(self.name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = dict.fromkeys(self.layers, 0)
        self_s = dict.fromkeys(self.layers, 0.0)
        total_s = dict.fromkeys(self.layers, 0.0)
        images = 0
        closure = self._layer("simplicity.closure")
        generators = {self._layer("weights.cartan_action"), self._layer("simplicity.transfer")}
        for i in range(n):
            layer = self.layers[self.name[i]]
            duration = self.end[i] - self.start[i]
            calls[layer] += 1
            total_s[layer] += duration
            self_s[layer] += duration - covered[i] - self.extra[i]
            p = self.parent[i]
            if self.name[i] in generators and p >= 0 and self.name[p] == closure:
                images += 1
        out = {}
        for metric, _, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(layer, 0)
            elif kind == "self_s":
                out[metric] = max(self_s.get(layer, 0.0), 0.0)
        out["fields.coeff_bits_max"] = self.counts["fields.coeff_bits_max"]
        out["poly.mul.term_pairs"] = self.counts["poly.mul.term_pairs"]
        out["poly.mul.terms_out"] = self.counts["poly.mul.terms_out"]
        out["simplicity.closure.images"] = images
        out["simplicity.closure.useful_ratio"] = (
            self.counts["simplicity.closure.dims"] / images if images else 0.0)
        parse_s = total_s.get("textio.parse", 0.0)
        out["textio.parse.bytes_per_s"] = (
            self.counts["textio.parse.bytes"] / parse_s if parse_s else 0.0)
        return out
