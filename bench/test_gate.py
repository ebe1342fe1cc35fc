"""Tests of the benchmark's own machinery: the correctness gate, the seeded
job lists and the tracing wrappers.

Run from the repository root:

    python3 -m pytest -q bench/test_gate.py
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from elastic_telegraph import analytic, numeric  # noqa: E402


def _judge(job):
    _, out, reason = W.execute(job, 60.0)
    return reason if reason is not None else W.verdict(job, out)


@pytest.mark.parametrize("job,must_fail", W.control_jobs(), ids=lambda v: getattr(v, "name", str(v)))
def test_gate_judges_negative_controls(job, must_fail):
    reason = _judge(job)
    assert (reason is not None) == must_fail, reason


def test_control_failures_is_empty_when_gate_works():
    assert W.control_failures(60.0) == []


def test_job_lists_depend_only_on_seed():
    for name, make in W.SPEC_MAKERS.items():
        a, b, c = make(11), make(11), make(12)
        assert W.digest_specs(a) == W.digest_specs(b), name
        assert W.digest_specs(a) != W.digest_specs(c), name
        assert len({s["name"] for s in a}) == len(a), name


def test_every_workload_pass_has_enough_jobs_for_p90():
    for make in W.SPEC_MAKERS.values():
        assert len(make(1)) >= 100


def test_tables_keeps_full_parameter_ranges():
    specs = [s for s in W.tables_specs(5) if s["name"].startswith("g")]
    ratios = [s["lam"] / s["mu"] for s in specs]
    alphas = [s["alpha"] for s in specs if "pdf-a0" in s["name"]]
    # one draw in each of 8 log strata of [1.01, 1e3]: the ends are always hit
    assert min(ratios) < 1.01 * (1e3 / 1.01) ** (1 / 8) and max(ratios) > 1e3 / (1e3 / 1.01) ** (1 / 8)
    assert min(alphas) < 2e-3 and max(alphas) > 0.5


def test_tracer_patches_defining_and_importing_modules():
    tr = tracing.Tracer()
    tr.install()
    try:
        assert numeric.integrate is not numeric.integrate.__wrapped__
        assert analytic.integrate is numeric.integrate
        p = analytic.ModelParams(lam=2.0, mu=0.5, alpha=0.5)
        analytic.pdf_a0(np.linspace(0.0, 5.0, 7), p)
        analytic.cond_pdf_within_cycle(1.0, 2.0, 3.0, analytic.ModelParams(lam=2.0, mu=0.5))
    finally:
        tr.uninstall()
    assert not hasattr(numeric.integrate, "__wrapped__")
    m = tr.metrics(0.0)
    assert m["analytic.pdf_a0.calls"] == 1 and m["analytic.pdf_a0.points"] == 7
    assert m["analytic.pdf_a0.sweeps_per_call"] >= 1.0
    assert m["analytic.cond_pdf_within_cycle.joint_per_point"] == 4.0
    assert m["numeric.cdf_derivative.calls"] == 1
    # self time excludes children: the parent's self time is below its span
    spans = [s for s in tr.spans if s is not None]
    assert all(s[4] >= s[3] for s in spans)
    assert m["analytic.cond_pdf_within_cycle.self_s"] < sum(
        s[4] - s[3] for s in spans if s[2] == "analytic.cond_pdf_within_cycle"
    )


def test_tracer_reports_zero_for_a_missing_name(monkeypatch):
    targets = dict(tracing.TARGETS, **{"analytic.gone": ("analytic", ("no_such_function",), ("points",), None)})
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    assert tr.missing == ["analytic.no_such_function"]
    assert tr.metrics(0.0)["analytic.gone.calls"] == 0
