"""Span recorder for the traced benchmark run.

The recorder wraps public seqkey functions from outside the package by
rebinding module attributes. A function that another module imported with
``from x import y`` is bound under the same name in that module too (for
example ``seqkey.cli.optimize_partition`` or ``seqkey.protocol.gf_mul``), so
every module of the package that holds the original object is rebound.
``restore`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` lists,
with ``parent`` the index of the span that was open when this one began
(-1 at the top). The recorder is single-threaded by design: the benchmark
child runs with one thread.
"""

import json
import sys
import time
from functools import wraps

# (module, attribute, span name); "Class.method" names a classmethod.
TARGETS = (
    ("seqkey.cli", "main", "cli.main"),
    ("seqkey.protocol", "run_experiment", "protocol.run_experiment"),
    ("seqkey.protocol", "ReconCode.generate", "protocol.generate"),
    ("seqkey.protocol", "reconcile", "protocol.reconcile"),
    ("seqkey.protocol", "sample_source", "protocol.sample_source"),
    ("seqkey.protocol", "privacy_amplify", "protocol.privacy_amplify"),
    ("seqkey.protocol", "leakage_estimate", "protocol.leakage_estimate"),
    ("seqkey.gf2n", "gf_mul", "gf2n.gf_mul"),
    ("seqkey.quantize", "optimize_partition", "quantize.optimize_partition"),
    ("seqkey.quantize", "partition_mi", "quantize.partition_mi"),
    ("seqkey.quantize", "partition_rate", "quantize.partition_rate"),
    ("seqkey.quantize", "bound_check", "quantize.bound_check"),
    ("seqkey.optimizer", "optimize_oneway", "optimizer.optimize_oneway"),
    ("seqkey.binary", "counterexample_solve", "binary.counterexample_solve"),
    ("seqkey.binary", "c_rec_bsc", "binary.closed_form"),
    ("seqkey.binary", "c_wsk_bsc", "binary.closed_form"),
    ("seqkey.binary", "c_wsk_bec", "binary.closed_form"),
    ("seqkey.binary", "beta0_solve", "binary.closed_form"),
    ("seqkey.gaussian", "c_rec_gauss", "gaussian.closed_form"),
    ("seqkey.gaussian", "c_wsk_gauss", "gaussian.closed_form"),
    ("seqkey.gaussian", "sigma0", "gaussian.closed_form"),
)


class SpanRecorder:
    """Records one span per call of each wrapped function."""

    def __init__(self, keep_results=()):
        self.spans = []
        self.results = {}       # span name -> values returned, if kept
        self.keep_results = frozenset(keep_results)
        self.run_id = ""
        self._stack = []
        self._saved = []        # (owner, attribute, original object)

    def _wrap(self, fun, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        keep = name in self.keep_results

        @wraps(fun)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None,
                          stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                out = fun(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if keep:
                self.results.setdefault(name, []).append(out)
            return out
        return traced

    def install(self):
        """Wrap every target where the package binds it."""
        for modname, attr, name in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, classmethod(
                    self._wrap(orig.__func__, name)))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, name)
            # every module of the package that imported the same object
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("seqkey")
                        and other.__dict__.get(attr) is orig):
                    self._saved.append((other, attr, orig))
                    setattr(other, attr, wrapped)

    def restore(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run_id}) + "\n")


def layer_times(spans):
    """Per span name: (total duration, self duration, call count).

    Self time is a span's duration minus the time its direct children
    cover; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        tot, slf, calls = out.get(name, (0.0, 0.0, 0))
        out[name] = (tot + end - start, slf + end - start - child[i],
                     calls + 1)
    return out


def durations(spans, name):
    return [end - start for n, start, end, _, _ in spans if n == name]
