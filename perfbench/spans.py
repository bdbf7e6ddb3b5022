"""Span tracer that wraps the program's public functions from outside.

Each target is wrapped wherever a caller looks it up: every module of the
package that binds the original function object gets the wrapper, and methods
are wrapped on their class. A span records its name, start, end, parent span,
op and an optional size. Spans are kept in memory and reduced to per-op
figures when the run ends. A target that no longer exists is reported as
missing and simply records no calls.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter_ns


def _letters(obj) -> int:
    return len(obj.letters)


def _terms(obj) -> int:
    return len(obj.terms)


# (span name, defining module, attribute, size of (args, result) or None)
TARGETS = (
    ("words.parse_word", "curveobs.words", "parse_word",
     lambda args, out: (_letters(out),)),
    ("words.format_word", "curveobs.words", "format_word", None),
    ("homology.abelianize", "curveobs.homology", "abelianize", None),
    ("homology.intersection", "curveobs.homology", "intersection", None),
    ("homology.lattice_member", "curveobs.homology", "lattice_member", None),
    ("wedge.wedge", "curveobs.wedge", "wedge", None),
    ("wedge.act2", "curveobs.wedge", "act2", None),
    ("ell.ell", "curveobs.ell", "ell",
     lambda args, out: (_letters(args[0]), _terms(out))),
    ("ell.obstruction_vector", "curveobs.ell", "obstruction_vector", None),
    ("tensor.mul", "curveobs.tensor", "TruncTensor.__mul__", None),
    ("tensor.derive", "curveobs.tensor", "derive", None),
    ("tensor.cyclic_N", "curveobs.tensor", "cyclic_N", None),
    ("expansion.theta0", "curveobs.expansion", "theta0", None),
    ("expansion.L_theta", "curveobs.expansion", "L_theta",
     lambda args, out: (_terms(out),)),
    ("expansion.johnson_twist", "curveobs.expansion", "johnson_twist", None),
    ("obstruction.analyze", "curveobs.obstruction", "analyze", None),
    ("obstruction.twist_consistency", "curveobs.obstruction",
     "twist_consistency", None),
    ("obstruction.to_json", "curveobs.obstruction", "Report.to_json", None),
    ("cli.main", "curveobs.cli", "main", None),
)

# span record fields
NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[int, int]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    def _wrap(self, name, fn, size):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, perf_counter_ns(), 0, stack[-1] if stack else -1,
                   tracer._op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if size is not None:
                try:
                    rec[SIZE] = size(args, out)
                except (AttributeError, TypeError, IndexError):
                    pass
            return out

        return traced

    @contextmanager
    def op(self):
        """Delimit one op; spans are recorded only inside an op."""
        self._op = len(self.ops)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.ops.append((start, perf_counter_ns()))
            self._op = None
            self._stack.clear()

    # --- installing ------------------------------------------------------------

    @contextmanager
    def installed(self, targets=TARGETS):
        self.missing = []
        try:
            for name, module, attr, size in targets:
                self._install(name, module, attr, size)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self, name, module, attr, size):
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.missing.append(name)
            return
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(mod, cls_name, None)
            original = vars(cls).get(meth) if isinstance(cls, type) else None
            if not callable(original):
                self.missing.append(name)
                return
            self._patch(cls, meth, original, self._wrap(name, original, size))
            return
        original = getattr(mod, attr, None)
        if not callable(original):
            self.missing.append(name)
            return
        wrapper = self._wrap(name, original, size)
        package = module.split(".")[0]
        for mod_name, m in list(sys.modules.items()):
            if m is None or not (mod_name == package
                                 or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # --- reducing ----------------------------------------------------------------

    def per_op(self):
        """Per-op self time (ns) and call count by span name, and per-op time
        not covered by any top-level span."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        self_ns = [dict() for _ in self.ops]
        calls = [dict() for _ in self.ops]
        covered = [0] * len(self.ops)
        for i, rec in enumerate(self.spans):
            op, name, dur = rec[OP], rec[NAME], rec[END] - rec[START]
            self_ns[op][name] = self_ns[op].get(name, 0) + dur - child[i]
            calls[op][name] = calls[op].get(name, 0) + 1
            if rec[PARENT] < 0:
                covered[op] += dur
        unattributed = [end - start - covered[i]
                        for i, (start, end) in enumerate(self.ops)]
        return self_ns, calls, unattributed

    def sizes(self, name: str):
        """(duration ns, size) of every span of `name` that recorded a size."""
        return [(rec[END] - rec[START], rec[SIZE]) for rec in self.spans
                if rec[NAME] == name and rec[SIZE] is not None]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, traced: float,
                  untraced: float) -> dict[str, float]:
    """The per-layer metrics of one traced run, by metric name."""
    self_ns, calls, unattributed = tracer.per_op()
    out: dict[str, float] = {}

    def self_ms(name):
        return median([op.get(name, 0) for op in self_ns]) / 1e6

    def n_calls(name):
        return median([op.get(name, 0) for op in calls])

    for name, *_ in TARGETS:
        out[f"{name}.self_ms"] = self_ms(name)
    for name in ("ell.ell", "wedge.wedge", "tensor.derive"):
        out[f"{name}.calls"] = n_calls(name)

    ell = tracer.sizes("ell.ell")
    out["ell.ell.us_per_letter"] = median(
        [d / 1e3 / s[0] for d, s in ell if s[0]])
    out["wedge.terms_per_ell"] = median([s[1] for _, s in ell])
    out["tensor.terms_per_L"] = median(
        [s[0] for _, s in tracer.sizes("expansion.L_theta")])
    parsed = tracer.sizes("words.parse_word")
    out["words.parse_word.us_per_letter"] = median(
        [d / 1e3 / s[0] for d, s in parsed if s[0]])
    letters = [0] * len(tracer.ops)
    for rec in tracer.spans:
        if rec[NAME] == "words.parse_word" and rec[SIZE] is not None:
            letters[rec[OP]] += rec[SIZE][0]
    out["words.letters_per_op"] = median(letters)

    op_ns = sum(end - start for start, end in tracer.ops)
    out["trace.overhead_share"] = traced / untraced - 1.0
    out["trace.unattributed_share"] = sum(unattributed) / op_ns if op_ns else 0.0
    return out


def module_shares(tracer: Tracer) -> dict[str, float]:
    """Share of all op time spent in each module's own code (self time)."""
    total = sum(end - start for start, end in tracer.ops)
    shares: dict[str, float] = {}
    for op in tracer.per_op()[0]:
        for name, ns in op.items():
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0) + ns
    return {m: ns / total for m, ns in sorted(shares.items())} if total else {}
