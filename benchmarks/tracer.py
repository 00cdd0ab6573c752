"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each omsqueeze module
(plus ``SystemParams.build``) and rebinds every module-level name that
refers to them, including names bound by ``from ... import``.  Each call
records a span (name, start, end, parent span, op id) in memory;
``Tracer.remove`` restores the original objects.  Self times and the
per-layer metrics are computed from the spans after the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

MODULES = ("core", "noise", "instrument", "estimate", "oracle", "config", "cli")
CLASS_METHODS = (("core", "SystemParams", "build"),)


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def self_times(spans):
    """Span duration minus the time covered by its direct children.

    ``spans`` is a sequence of (name, start, end, parent, op) with parent
    an index into ``spans`` or -1; children of one span never overlap.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def rbw_macs(fine, rbw, *_args, **_kw):
    """Multiply-accumulates of one ``rbw_resample`` call: fine-grid outputs x
    Gaussian kernel taps (the kernel spans +-5 sigma, sigma = rbw / 2.355)."""
    from omsqueeze.instrument import FWHM_TO_SIGMA

    df = fine.freqs[1] - fine.freqs[0]
    taps = 2 * math.ceil(5 * rbw * FWHM_TO_SIGMA / df) + 1
    return len(fine.values) * taps


def sde_samples(result):
    """Samples integrated by ``sde_time_domain_psd``, read from its trace."""
    meta = result.meta
    return meta["segments"] * round(1.0 / (meta["resolution_hz"] * meta["dt_s"]))


class Tracer:
    """Records spans of every wrapped call while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []
        # name -> hook(tracer, args, kwargs, result) recording counts at the boundary
        self._hooks = {
            "instrument.rbw_resample": lambda t, a, kw, r: t.count(
                "instrument.rbw_resample.macs", rbw_macs(*a, **kw)
            ),
            "estimate.fit_thermometry": lambda t, a, kw, r: t.count(
                "estimate.fit_thermometry.sequential", r.method == "sequential"
            ),
            "oracle.sde_time_domain_psd": lambda t, a, kw, r: t.count(
                "oracle.sde_time_domain_psd.samples", sde_samples(r)
            ),
        }

    def count(self, name, value):
        self.counters[name] += value

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _rebind(self, original, wrapper):
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "omsqueeze"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for short in MODULES:
            module = importlib.import_module(f"omsqueeze.{short}")
            for name, fn in public_functions(module).items():
                self._rebind(fn, self._wrap(f"{short}.{name}", fn))
        for short, cls_name, meth in CLASS_METHODS:
            cls = getattr(importlib.import_module(f"omsqueeze.{short}"), cls_name)
            original = vars(cls)[meth]
            wrapped = self._wrap(f"{short}.{cls_name}.{meth}", original.__func__)
            self._patches.append((cls, meth, original))
            setattr(cls, meth, classmethod(wrapped))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self):
        """Per span name: (calls, summed self time, summed inclusive time)."""
        calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            self_s[name] += own
            incl_s[name] += end - start
        return calls, self_s, incl_s

    def op_self_time(self):
        """Summed self time of every span, per op id."""
        per_op = defaultdict(float)
        for (_, _, _, _, op), own in zip(self.spans, self_times(self.spans)):
            per_op[op] += own
        return per_op

    def write(self, path):
        """Write the spans as gzipped CSV: name,start_s,end_s,parent,op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
