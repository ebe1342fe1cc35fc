"""Per-layer tracing for the benchmark, done from the benchmark's own files.

`Tracer.install()` replaces each traced library function with a wrapper in
the module that defines it and in every package module that bound it with
``from ... import`` (``analytic`` binds ``integrate``, ``cdf_derivative``,
the ``hyper_*`` series and the Bessel sweep; the package ``__init__``
re-exports the public names).  ``cli`` reaches the library through module
attributes, so patching the defining modules covers it.  A traced name that
no longer exists is skipped and reported as zero.

Each wrapper records a span (job, parent span, name, start, end, ok).  A
span's self time is its duration minus the durations of its direct child
spans.  A call made while a span of the same name is open (recursion, or one
``moment_*`` calling another under the ``analytic.moments`` aggregate) opens
no new span, so ``calls`` counts outermost calls.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

PKG = "elastic_telegraph"


def _points(args, kwargs):
    return int(np.size(args[0])) if args else 0


def _sweep(stat, args, kwargs, result):
    m_max, z = args[0], args[1]
    n = int(np.size(z))
    stat["points"] += n
    stat["lane_orders"] += (int(m_max) + 1) * n


def _integrate(stat, args, kwargs, result):
    stat["evaluations"] += int(result.evaluations)
    stat["max_tail_bound"] = max(stat["max_tail_bound"], float(result.tail_bound))


def _paths(stat, args, kwargs, result):
    stat["paths"] += int(args[2] if len(args) > 2 else kwargs["n"])


def _within_cycle(stat, args, kwargs, result):
    stat["cycles"] += int(result.n_cycles)
    stat["accepted"] += int(result.n_accepted)


# span name -> (defining module, function names, extra counters, hook).
# `_points` counts the size of the first argument, also for failed calls;
# the other hooks read the result of a call that returned.
TARGETS = {
    "specfun.bessel_sweep": ("specfun", ("_bessel_i_scaled_sweep",), ("points", "lane_orders"), _sweep),
    "specfun.hyper_1f2": ("specfun", ("hyper_1f2",), (), None),
    "specfun.hyper_0f1": ("specfun", ("hyper_0f1",), (), None),
    "specfun.hyper_2f1": ("specfun", ("hyper_2f1",), (), None),
    "analytic.psi0": ("analytic", ("psi0",), ("points",), _points),
    "analytic.pdf_c0": ("analytic", ("pdf_c0",), ("points",), _points),
    "analytic.pdf_a0": ("analytic", ("pdf_a0",), ("points",), _points),
    "analytic.pdf_cx": ("analytic", ("pdf_cx",), ("points",), _points),
    "analytic.psi_x_series": ("analytic", ("psi_x_series",), ("points",), _points),
    "analytic.joint_subdist": ("analytic", ("joint_subdist",), (), None),
    "analytic.cond_atom": ("analytic", ("cond_atom",), (), None),
    "analytic.cond_cdf_within_cycle": ("analytic", ("cond_cdf_within_cycle",), (), None),
    "analytic.cond_pdf_within_cycle": ("analytic", ("cond_pdf_within_cycle",), (), None),
    "analytic.moments": ("analytic", ("moment_c0", "moment_a0", "moment_cx", "moment_ax"), (), None),
    "analytic.mgf": ("analytic", ("mgf_c0", "mgf_a0", "mgf_cx", "mgf_ax", "mgf_tx"), (), None),
    "numeric.integrate": ("numeric", ("integrate",), ("evaluations", "max_tail_bound"), _integrate),
    "numeric.cdf_derivative": ("numeric", ("cdf_derivative",), (), None),
    "sim.sample_paths": ("sim", ("sample_paths",), ("paths",), _paths),
    "sim.sample_many": ("sim", ("sample_many",), ("paths",), _paths),
    "sim.sample_within_cycle": ("sim", ("sample_within_cycle",), ("cycles", "accepted"), _within_cycle),
    "cli.main": ("cli", ("main",), (), None),
}

# (ancestor, descendant) pairs whose nested call counts feed the derived ratios
NESTED = (
    ("analytic.pdf_a0", "specfun.bessel_sweep"),
    ("analytic.cond_pdf_within_cycle", "analytic.joint_subdist"),
)

BASE_FIELDS = ("calls", "self_s", "failed")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the benchmark reports, with its unit."""
    units = {}
    for name, (_, _, extra, _) in TARGETS.items():
        for field in BASE_FIELDS + extra:
            unit = {"self_s": "s", "max_tail_bound": "prob"}.get(field, "count")
            units[f"{name}.{field}"] = unit
    units["cli.bytes_out"] = "bytes"
    units["analytic.pdf_a0.sweeps_per_call"] = "ratio"
    units["analytic.cond_pdf_within_cycle.joint_per_point"] = "ratio"
    units["sim.within_cycle.acceptance"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    """Collects spans and per-name counters while installed."""

    def __init__(self):
        self.stats = {
            name: dict.fromkeys(BASE_FIELDS + extra, 0) for name, (_, _, extra, _) in TARGETS.items()
        }
        for s in self.stats.values():
            s["self_s"] = 0.0
        self.nested = dict.fromkeys(NESTED, 0)
        self.bytes_out = 0
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.job = -1
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._open: dict[str, int] = {}
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, hook):
        stat = self.stats[name]
        pre = hook is _points
        watch = [a for a, d in NESTED if d == name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self._open.get(name):
                return fn(*args, **kwargs)
            for anc in watch:
                if self._open.get(anc):
                    self.nested[(anc, name)] += 1
            parent = self._stack[-1][0] if self._stack else -1
            sid = len(self.spans)
            self.spans.append(None)
            self._open[name] = 1
            entry = [sid, name, clock(), 0.0]
            self._stack.append(entry)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                self._stack.pop()
                self._open[name] = 0
                dur = end - entry[2]
                if self._stack:
                    self._stack[-1][3] += dur
                stat["calls"] += 1
                stat["self_s"] += dur - entry[3]
                if not ok:
                    stat["failed"] += 1
                if hook is not None:
                    if pre:
                        stat["points"] += hook(args, kwargs)
                    elif ok:
                        hook(stat, args, kwargs, result)
                self.spans[sid] = (self.job, parent, name, entry[2], end, ok)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items()) if k == PKG or k.startswith(PKG + ".")]
        for name, (modname, funcs, _, hook) in TARGETS.items():
            home = sys.modules.get(f"{PKG}.{modname}")
            for func in funcs:
                orig = getattr(home, func, None)
                if orig is None:
                    self.missing.append(f"{modname}.{func}")
                    continue
                wrapper = self._wrap(name, orig, hook)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def metrics(self, overhead: float, speed: float = 1.0) -> dict[str, float]:
        """Per-layer metrics; ``speed`` scales self times to reference speed."""
        out = {}
        for name, stat in self.stats.items():
            for field, v in stat.items():
                out[f"{name}.{field}"] = v * speed if field == "self_s" else v
        out["cli.bytes_out"] = self.bytes_out
        a0 = self.stats["analytic.pdf_a0"]["calls"]
        cp = self.stats["analytic.cond_pdf_within_cycle"]["calls"]
        wc = self.stats["sim.sample_within_cycle"]
        out["analytic.pdf_a0.sweeps_per_call"] = self.nested[NESTED[0]] / a0 if a0 else 0.0
        out["analytic.cond_pdf_within_cycle.joint_per_point"] = self.nested[NESTED[1]] / cp if cp else 0.0
        out["sim.within_cycle.acceptance"] = wc["accepted"] / wc["cycles"] if wc["cycles"] else 0.0
        out["trace.overhead"] = overhead
        return out

    def write_spans(self, path, job_names) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"jobs": job_names, "missing": self.missing}) + "\n")
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                job, parent, name, start, end, ok = span
                fh.write(json.dumps([sid, job, parent, name, start, end, ok]) + "\n")
