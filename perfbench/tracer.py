"""In-memory span tracing of qkdlab's layer boundaries.

The tracer wraps the public functions of every qkdlab module, plus a few
named methods, and patches each wrapper in wherever a caller looks the
name up: every ``qkdlab.*`` module attribute that is the original object
is replaced, and so is the attribute on the defining class.  A wrapper
records a span (name, parent span, start, end, op label) and, for the
boundaries that carry a count, adds to named counters.  Spans stay in
memory until :meth:`Tracer.write_spans` is called.

:class:`DistillObserver` is the one wrapper the untraced run keeps: it
sees every ``DistillationResult`` where ``qkdlab.cli`` receives it, so a
key mismatch is caught without timing anything.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("rng", "qstate", "channel", "protocol", "adversary", "postprocess", "bounds", "cli")

# (span name, module, class, method): methods traced besides the public functions
METHODS = (
    ("channel.sample_labels", "channel", "ChannelModel", "sample_labels"),
    ("protocol.Transcript.write_jsonl", "protocol", "Transcript", "write_jsonl"),
    ("adversary.CoherentAttack.from_file", "adversary", "CoherentAttack", "from_file"),
)


def _qkdlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qkdlab" or name.startswith("qkdlab."))]


def _patch_everywhere(original, replacement, undo: list) -> None:
    """Rebind every qkdlab module attribute that is ``original``."""
    for module in _qkdlab_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


# -- counters: (tracer, bound arguments, result) -> None ---------------------

def _count_labels(tr, args, result):
    tr.add("channel.sample_labels.pairs", args["n"])


def _count_session(tr, args, result):
    tr.add("protocol.sessions", 1)
    tr.add("protocol.accepted", int(result.accepted))
    tr.add("protocol.sifted_fraction_sum", result.sifted_fraction)


def _count_records(tr, args, result):
    tr.add("protocol.Transcript.write_jsonl.records", args["self"].n)


def _count_reconcile(tr, args, result):
    key_a = np.asarray(args["key_a"], dtype=np.uint8)
    corrected, leaked = result
    tr.add("postprocess.reconcile.bits", key_a.size)
    tr.add("postprocess.reconcile.leaked_bits", leaked)
    tr.add("postprocess.reconcile.residual_errors", int(np.count_nonzero(key_a != corrected)))


def _count_amplify(tr, args, result):
    tr.add("postprocess.privacy_amplify.bits_in", np.asarray(args["key_bits"]).size)
    tr.add("postprocess.privacy_amplify.bits_out", args["output_length"])


def _count_distill(tr, args, result):
    tr.add("postprocess.key_mismatches", int(result.final_length > 0 and not result.keys_equal))


def _count_samples(tr, args, result):
    tr.add("adversary.axis_averaged_passing_probability.samples", args["n_samples"])


COUNTERS = {
    "channel.sample_labels": _count_labels,
    "protocol.run_epr_session": _count_session,
    "protocol.run_bb84_session": _count_session,
    "protocol.Transcript.write_jsonl": _count_records,
    "postprocess.reconcile": _count_reconcile,
    "postprocess.privacy_amplify": _count_amplify,
    "postprocess.distill_key": _count_distill,
    "adversary.axis_averaged_passing_probability": _count_samples,
}


class Tracer:
    """Context manager that traces qkdlab while active."""

    def __init__(self):
        # one row per span: [name, parent index, start, end, child seconds, op]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.op = ""  # label of the op being run, recorded on its spans
        self._stack: list[int] = []
        self._undo: list = []

    def add(self, counter: str, value) -> None:
        self.counters[counter] += value

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        sig = inspect.signature(fn) if count else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, self.op]
            spans.append(row)
            stack.append(idx)
            row[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[3] = clock()
                stack.pop()
                if row[1] >= 0:
                    spans[row[1]][4] += row[3] - row[2]
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        import qkdlab.cli  # noqa: F401  (loads every layer module)

        for layer in LAYERS:
            module = sys.modules[f"qkdlab.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                _patch_everywhere(fn, self._wrap(f"{layer}.{attr}", fn), self._undo)
        for name, layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"qkdlab.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            else:
                replacement = self._wrap(name, raw)
            setattr(cls, meth, replacement)
            self._undo.append((cls, meth, raw))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_ms, self_ms and max_ms."""
        out: dict[str, dict[str, float]] = {}
        for name, _parent, t0, t1, child, _op in self.spans:
            s = out.setdefault(name, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0, "max_ms": 0.0})
            dt = (t1 - t0) * 1e3
            s["calls"] += 1
            s["busy_ms"] += dt
            s["self_ms"] += dt - child * 1e3
            s["max_ms"] = max(s["max_ms"], dt)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, parent, t0, t1, _child, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1}) + "\n")


class DistillObserver:
    """Collects each ``DistillationResult`` that ``qkdlab.cli`` receives."""

    def __init__(self):
        self.results: list = []
        self._original = None

    def __enter__(self) -> "DistillObserver":
        import qkdlab.cli as cli

        self._original = original = cli.distill_key
        results = self.results

        def observed(*args, **kwargs):
            result = original(*args, **kwargs)
            results.append(result)
            return result

        cli.distill_key = observed
        return self

    def __exit__(self, *exc) -> None:
        import qkdlab.cli as cli

        cli.distill_key = self._original
