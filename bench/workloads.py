"""Seeded job lists for the three workloads, and the jobs they build.

A workload is a list of plain-data specs made from the seed; `build` turns a
spec into a `Job` whose `run` is the timed call into the program and whose
`check` (untimed) returns ``None`` or a one-line failure reason.  CLI jobs
call ``cli.main(argv)`` in-process and write CSV to a temporary directory.
Library jobs call through module attributes (``analytic.pdf_a0``), so the
tracing wrappers see them.

Why each workload exists (also in BENCHMARK.json):

* ``tables``: the Bessel sweep, the printed double series behind ``pdf_cx``
  and the moment series do the work; the conditional law and the samplers
  sit idle.
* ``conditional``: ``joint_subdist``'s nested 1F2 and bracket series, called
  four times per density point by the Richardson differentiation, take
  nearly all the time; the sweep runs only at order 1.
* ``montecarlo``: the batch, scalar and rejection samplers and CSV formatting
  do the work; ``analytic`` runs only in the untimed checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import signal
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle as O
from elastic_telegraph import analytic, cli, numeric, sim

GRID_POINTS = 50  # seeded mass grids
DENSE_POINTS = 10_000  # a 10^4-lane sweep buffer is (m_max+1) * 160 KB, past L2
SPOTS = 3  # oracle spot checks per grid
CELL_KEY = 20260815  # fixes the stratum layout; not a workload seed
N_SE = 5.0  # Monte Carlo means must sit within this many standard errors


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------


def _stratified(rng, cells, n: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """One draw in each of n equal strata of [lo, hi].

    ``cells`` (a generator with a fixed key) decides which set gets which
    stratum and where in it the draw centres; the seed moves the draw by up
    to 1/40 of the stratum width.  Every seed covers the whole range with the
    same mix of easy and hard corners, so the cost of a pass moves little with
    the seed, while each seed still makes new inputs.  The cost of some jobs
    (moments at large x, pdf_a0 at small alpha) changes severalfold across
    one stratum, so a wider move would make the timings follow the seed.
    """
    centre = cells.permutation(n) + cells.uniform(0.1, 0.9, n)
    u = (centre + rng.uniform(-0.025, 0.025, n)) / n
    if log:
        return [float(v) for v in np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))]
    return [float(v) for v in lo + u * (hi - lo)]


def _mass_hi(mean: float, var: float) -> float:
    return mean + 8.0 * math.sqrt(var)


def _spots(rng, n: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, SPOTS, replace=False))


def tables_specs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    cells = np.random.default_rng([CELL_KEY, 1])
    groups = 10
    sizes = [3 if g % 2 == 0 else 1 for g in range(groups)]
    # quadrature to infinity dominates the pass, so only some sets integrate:
    # pdf_cx in groups 0 and 5, pdf_a0 for the first member of even groups.
    # Those sets get their own stratified draws, so that every seed spreads
    # the expensive jobs over the whole range in the same way.
    cx_groups = (0, 5)
    a0_sets = [(g, 0) for g in range(0, groups, 2)]
    ratios = _stratified(rng, cells, groups - 2, 1.01, 1e3, log=True)
    mus = _stratified(rng, cells, groups - 2, 0.5, 2.0, log=True)
    xs = _stratified(rng, cells, groups - 2, 0.0, 20.0)
    for g, r, m, x in zip(cx_groups, _stratified(rng, cells, 2, 1.01, 1e3, log=True),
                          _stratified(rng, cells, 2, 0.5, 2.0, log=True), _stratified(rng, cells, 2, 0.0, 20.0)):
        ratios.insert(g, r)
        mus.insert(g, m)
        xs.insert(g, x)
    alphas = iter(_stratified(rng, cells, sum(sizes) - len(a0_sets), 1e-3, 1.0, log=True))
    a0_alphas = iter(_stratified(rng, cells, len(a0_sets), 1e-3, 1.0, log=True))
    specs: list[dict] = []
    for g in range(groups):
        mu, x = mus[g], xs[g]
        lam = ratios[g] * mu
        grp = [next(a0_alphas) if (g, j) in a0_sets else next(alphas) for j in range(sizes[g])]
        e_c0, v_c0, _, _ = O.closed_mean_var(lam, mu, 1.0, 0.0)
        e_cx, v_cx, _, _ = O.closed_mean_var(lam, mu, 1.0, x)
        base = {"lam": lam, "mu": mu, "x": x}
        t_hi = _mass_hi(e_c0, v_c0) / 2.0
        specs.append({"op": "eval", "name": f"g{g}/eval-psi0", "target": "psi0", **base, "alpha": 1.0,
                      "grid": [t_hi / GRID_POINTS, t_hi, GRID_POINTS], "spots": _spots(rng, GRID_POINTS)})
        specs.append({"op": "eval", "name": f"g{g}/eval-pdf-cx", "target": "pdf-cx", **base, "alpha": 1.0,
                      "grid": [x, _mass_hi(e_cx, v_cx), GRID_POINTS], "spots": _spots(rng, GRID_POINTS)})
        if g in cx_groups:
            specs.append({"op": "integrate", "name": f"g{g}/integrate-pdf-cx", "pdf": "pdf_cx", **base, "alpha": 1.0})
        # members of a group differ only in alpha and share one grid, as the
        # fig2 presets do, so their pdf_a0 calls sweep the same Bessel lanes
        _, _, e_a0, v_a0 = O.closed_mean_var(lam, mu, min(grp), 0.0)
        a_grid = [0.0, _mass_hi(e_a0, v_a0), GRID_POINTS]
        for j, alpha in enumerate(grp):
            p = {**base, "alpha": alpha}
            tag = f"g{g}a{j}"
            specs.append({"op": "eval", "name": f"{tag}/eval-pdf-a0", "target": "pdf-a0", **p,
                          "grid": a_grid, "spots": _spots(rng, GRID_POINTS)})
            specs.append({"op": "moments", "name": f"{tag}/moments", **p})
            specs.append({"op": "mgf", "name": f"{tag}/mgf", **p})
            if (g, j) in a0_sets:
                specs.append({"op": "integrate", "name": f"{tag}/integrate-pdf-a0", "pdf": "pdf_a0", **p})
    # dense grids draw from a moderate corner so the sweep buffer stays in
    # the tens of MB: its size grows with m_max, which is unbounded at small
    # alpha and extreme ratios (those corners are covered by the mass grids)
    d_ratio = _stratified(rng, cells, 3, 1.5, 20.0, log=True)
    d_alpha = _stratified(rng, cells, 3, 0.3, 1.0, log=True)
    for i, target in enumerate(("pdf-a0", "pdf-a0", "psi0")):
        lam, mu, alpha = d_ratio[i], 1.0, d_alpha[i]
        _, _, e_a0, v_a0 = O.closed_mean_var(lam, mu, alpha, 0.0)
        hi = _mass_hi(e_a0, v_a0)
        lo = 0.0 if target == "pdf-a0" else hi / DENSE_POINTS
        specs.append({"op": "eval", "name": f"dense{i}/eval-{target}", "target": target,
                      "lam": lam, "mu": mu, "alpha": alpha, "x": 0.0,
                      "grid": [lo, hi, DENSE_POINTS], "spots": _spots(rng, DENSE_POINTS)})
    for preset in ("fig2-left", "fig2-right", "fig3-left", "fig3-right"):
        specs.append({"op": "preset", "name": f"preset/{preset}", "preset": preset, "spots": _spots(rng, 161)})
    specs.append({"op": "verify", "name": "verify/fast"})
    specs.extend(EDGE_SPECS)
    return specs


# Defects found while sizing the workloads; each is its own named job.
EDGE_SPECS = [
    {"op": "psi_x", "name": "edge/psi_x(10,1,x=20,t=3.95)", "lam": 10.0, "mu": 1.0, "alpha": 1.0, "x": 20.0, "t": 3.95},
    {"op": "integrate", "name": "edge/integrate-pdf-cx(10,1,x=20)", "pdf": "pdf_cx", "lam": 10.0, "mu": 1.0, "alpha": 1.0, "x": 20.0},
    {"op": "integrate", "name": "edge/integrate-pdf-cx(1000,1,x=20)", "pdf": "pdf_cx", "lam": 1000.0, "mu": 1.0, "alpha": 1.0, "x": 20.0},
    {"op": "moment", "name": "edge/moment_ax(1;10,1,1e-3,20)", "which": "moment_ax", "n": 1, "lam": 10.0, "mu": 1.0, "alpha": 1e-3, "x": 20.0},
    {"op": "moment", "name": "edge/moment_c0(1;1.05,1)", "which": "moment_c0", "n": 1, "lam": 1.05, "mu": 1.0, "alpha": 1.0, "x": 0.0},
    {"op": "moment", "name": "edge/moment_a0(2;1.05,1,0.5)", "which": "moment_a0", "n": 2, "lam": 1.05, "mu": 1.0, "alpha": 0.5, "x": 0.0},
    {"op": "pdf_a0_grid", "name": "edge/pdf_a0-mass-grid(10,1,1e-3)", "lam": 10.0, "mu": 1.0, "alpha": 1e-3, "x": 0.0},
    {"op": "pdf_a0_grid", "name": "edge/pdf_a0-mass-grid(1000,1,1e-3)", "lam": 1000.0, "mu": 1.0, "alpha": 1e-3, "x": 0.0},
    {"op": "mgf_point", "name": "edge/mgf_a0(0.01;2,0.5,1e-4)", "which": "mgf_a0", "s": 0.01, "lam": 2.0, "mu": 0.5, "alpha": 1e-4, "x": 0.0},
]

FIG6_MUS = (0.1, 0.5, 1.0, 1.5)


def conditional_specs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    cells = np.random.default_rng([CELL_KEY, 2])
    specs: list[dict] = []
    # the shape of `eval --preset fig6`: 4 mu values x an x grid at t=5, tau=6
    for mu in FIG6_MUS:
        specs.append({"op": "eval-cond", "name": f"fig6/mu={mu:g}", "lam": 2.0, "mu": mu, "t": 5.0, "tau": 6.0,
                      "grid": [0.1, 4.9, 13]})
        specs.append({"op": "eval-atom", "name": f"fig6/atom-mu={mu:g}", "lam": 2.0, "mu": mu, "t": 5.0, "tau": 6.0})
    n = 32
    ratios = _stratified(rng, cells, n, 1.1, 20.0, log=True)
    mus = _stratified(rng, cells, n, 0.1, 1.5, log=True)
    ts = _stratified(rng, cells, n, 1.0, 6.0)
    gaps = _stratified(rng, cells, n, 0.25, 3.0)
    # evaluation points as fractions of t; the cost of joint_subdist grows with them
    cdf_u = [_stratified(rng, cells, n, lo, lo + 0.32) for lo in (0.02, 0.34, 0.66)]
    pdf_u = _stratified(rng, cells, n, 0.05, 0.95)
    for i in range(n):
        c = {"lam": ratios[i] * mus[i], "mu": mus[i], "t": ts[i], "tau": ts[i] + gaps[i]}
        specs.append({"op": "cond_atom", "name": f"c{i}/atom", **c})
        specs.append({"op": "cond_cdf", "name": f"c{i}/cdf", **c,
                      "xs": [0.0] + [u[i] * c["t"] for u in cdf_u] + [c["t"]]})
        specs.append({"op": "cond_pdf", "name": f"c{i}/pdf", **c, "x": pdf_u[i] * c["t"]})
        if i < 2:
            specs.append({"op": "cond_mass", "name": f"c{i}/mass", **c})
    return specs


def montecarlo_specs(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    cells = np.random.default_rng([CELL_KEY, 3])
    n = 34
    ratios = _stratified(rng, cells, n, 1.1, 20.0, log=True)
    mus = _stratified(rng, cells, n, 0.5, 2.0, log=True)
    alphas = _stratified(rng, cells, n, 0.05, 1.0, log=True)
    xs = _stratified(rng, cells, n, 0.0, 5.0)
    keys = [int(v) for v in rng.integers(0, 2**63, 3 * n + 2)]
    specs: list[dict] = []
    for i in range(n):
        p = {"lam": ratios[i] * mus[i], "mu": mus[i], "alpha": alphas[i], "x": xs[i]}
        specs.append({"op": "simulate", "name": f"m{i}/simulate", **p, "n": 5000, "seed": keys[3 * i], "stream": i})
        specs.append({"op": "sample_many", "name": f"m{i}/sample_many", **p, "n": 20000,
                      "reducer": ("c_x", "m", "a_x")[i % 3], "seed": keys[3 * i + 1], "stream": 0})
        specs.append({"op": "sample_many", "name": f"m{i}/sample_many-callable", **p, "n": 400,
                      "reducer": "callable", "seed": keys[3 * i + 2], "stream": 0})
    # one large CSV dump at verify's parameters, so its size and cost do not
    # move with the seed
    specs.append({"op": "simulate", "name": "big/simulate", "lam": 2.0, "mu": 0.5, "alpha": 0.5, "x": 1.0,
                  "n": 200_000, "seed": keys[-2], "stream": 0})
    # around the verify check's window (t=5, tau=6, delta=0.3), verify's rates
    specs.append({"op": "within_cycle", "name": "within_cycle", "lam": 2.0, "mu": 0.5,
                  "t": 5.0 + float(rng.uniform(-0.25, 0.25)), "tau": 6.0 + float(rng.uniform(-0.25, 0.25)),
                  "delta": 0.3, "n_target": 5000, "seed": keys[-1], "stream": 7})
    return specs


SPEC_MAKERS = {"tables": tables_specs, "conditional": conditional_specs, "montecarlo": montecarlo_specs}


def digest_specs(specs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


@dataclass
class CliOutput:
    text: str | None = None  # stdout, or the --out file once collected
    path: str | None = None


class CliFailure(RuntimeError):
    pass


class JobTimeout(BaseException):
    """Raised by the per-job alarm; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def execute(job: Job, budget_s: float):
    """Run one job under a wall-clock budget: (seconds, output, reason)."""
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    out, reason = None, None
    t0 = time.perf_counter()
    try:
        out = job.run()
    except JobTimeout:
        reason = f"over the {budget_s:g} s job budget"
    except Exception as exc:  # the program under test failed this job
        reason = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    return dt, out, reason


def collect(out):
    """Untimed: read what a CLI job wrote to its --out file."""
    if isinstance(out, CliOutput) and out.text is None:
        with open(out.path, encoding="ascii") as fh:
            out.text = fh.read()
    return out


def verdict(job: Job, out) -> str | None:
    """Untimed correctness check of one job's output."""
    try:
        return job.check(out)
    except Exception as exc:  # malformed output is a failed job
        return f"check raised {type(exc).__name__}: {str(exc)[:200]}"


def _cli_runner(argv: list[str], out_path: str | None):
    def run():
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code if isinstance(exc.code, int) else 2
        if code != 0:
            last = (se.getvalue().strip().splitlines() or [""])[-1]
            raise CliFailure(f"exit {code}: {last[:200]}")
        if out_path is None:
            return CliOutput(text=so.getvalue())
        return CliOutput(path=out_path)

    return run


def _model_flags(s: dict) -> list[str]:
    return ["--lambda", repr(s["lam"]), "--mu", repr(s["mu"]), "--alpha", repr(s["alpha"]), "--x", repr(s["x"])]


def _grid_flag(grid) -> list[str]:
    return ["--grid", f"{grid[0]!r}:{grid[1]!r}:{grid[2]}"]


def _csv(text: str):
    lines = text.rstrip("\n").split("\n")
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _params(s: dict) -> analytic.ModelParams:
    return analytic.ModelParams(lam=s["lam"], mu=s["mu"], alpha=s.get("alpha", 1.0), x=s.get("x", 0.0))


# ---------------------------------------------------------------------------
# job builders
# ---------------------------------------------------------------------------


def _oracle_for(target: str, s: dict):
    """Reference density for a CLI target (``pdf-a0``) or table label (``pdf_a0``)."""
    lam, mu, alpha, x = s["lam"], s["mu"], s.get("alpha", 1.0), s.get("x", 0.0)
    return {
        "psi0": lambda v: O.psi0(v, lam, mu),
        "pdf_a0": lambda v: O.pdf_a0(v, lam, mu, alpha),
        "pdf_cx": lambda v: O.pdf_cx(v, lam, mu, x),
    }[target.replace("-", "_")]


def _check_grid_table(out: CliOutput, s: dict):
    _, rows = _csv(out.text)
    start, stop, n = s["grid"]
    if len(rows) != n:
        return f"expected {n} rows, got {len(rows)}"
    grid = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    if not np.array_equal(grid, np.linspace(start, stop, n)):
        return "grid column differs from the requested grid"
    reason = O.finite_in_range(vals, what=s["target"])
    if reason:
        return reason
    ref = _oracle_for(s["target"], s)
    return O.spot_values(vals[s["spots"]], [ref(float(grid[i])) for i in s["spots"]],
                         f"{s['target']} spot", scale=float(vals.max()))


def _build_eval(s, work):
    out_path = os.path.join(work, "eval.csv")
    argv = ["eval", s["target"], *_model_flags(s), *_grid_flag(s["grid"]), "--out", out_path]
    return _cli_runner(argv, out_path), lambda out: _check_grid_table(out, s)


def _check_moments(out: CliOutput, s: dict):
    lam, mu, alpha, x = s["lam"], s["mu"], s["alpha"], s["x"]
    lines = out.text.split("\n")
    rows = [ln.split(",") for ln in lines[1:5]]
    moms = np.array([[float(v) for v in r[1:]] for r in rows])  # n=1..4 x (C0, A0, Cx, Ax)
    reason = O.finite_in_range(moms, lo=0.0, what="moment")
    if reason:
        return reason
    e_c0, v_c0, e_a0, v_a0 = O.closed_mean_var(lam, mu, alpha, 0.0)
    e_cx, v_cx, e_ax, v_ax = O.closed_mean_var(lam, mu, alpha, x)
    names = ("C0", "A0", "Cx", "Ax")
    for col, (e, v) in enumerate(((e_c0, v_c0), (e_a0, v_a0), (e_cx, v_cx), (e_ax, v_ax))):
        reason = O.first(
            O.close(moms[0, col], e, 1e-8, what=f"E[{names[col]}]"),
            O.close(moms[1, col], v + e * e, 1e-8, what=f"E[{names[col]}^2]"),
        )
        if reason:
            return reason
        m = np.concatenate([[1.0], moms[:, col]])
        for k in range(1, 4):  # log-convexity of raw moments of a positive variable
            if m[k] ** 2 > m[k - 1] * m[k + 1] * (1.0 + 1e-9):
                return f"E[{names[col]}^n] not log-convex at n={k}"
    return None


def _build_moments(s, work):
    out_path = os.path.join(work, "moments.csv")
    argv = ["moments", *_model_flags(s), "--n-max", "4", "--out", out_path]
    return _cli_runner(argv, out_path), lambda out: _check_moments(out, s)


_MGF_FAMILIES = ("mgf_c0", "mgf_a0", "mgf_cx", "mgf_ax", "mgf_tx")


def _build_mgf(s, work):
    p = _params(s)

    def run():
        dom = analytic.mgf_domain(p)
        out = {}
        for fam in _MGF_FAMILIES:
            b = dom.bound_t if fam == "mgf_tx" else dom.bound_c
            fn = getattr(analytic, fam)
            out[fam] = [(sv, fn(sv, p)) for sv in (-1.0, 0.0, 0.25 * b, 0.5 * b, 0.9 * b)]
        return out

    def check(out):
        for fam, pts in out.items():
            vals = [v for _, v in pts]
            reason = O.first(
                O.finite_in_range(vals, lo=1e-300, what=f"{fam}(s)"),
                O.close(vals[1], 1.0, 1e-12, what=f"{fam}(0)"),
            )
            if reason:
                return reason
            if any(b < a for a, b in zip(vals, vals[1:])):
                return f"{fam} decreases in s: {vals}"
        return None

    return run, check


def _build_integrate(s, work):
    p = _params(s)
    pdf_name = s["pdf"]
    lo = p.x if pdf_name == "pdf_cx" else 0.0

    def run():
        pdf = getattr(analytic, pdf_name)
        return numeric.integrate(lambda y: pdf(y, p), lo, math.inf, 1e-9)

    return run, lambda q: O.normalized(q.value, what=f"integral of {pdf_name}")


def _check_preset(out: CliOutput, s: dict):
    header, rows = _csv(out.text)
    if len(rows) != 161:
        return f"expected 161 rows, got {len(rows)}"
    cols = header.split(",")[1:]
    table = np.array([[float(v) for v in r] for r in rows])
    reason = O.finite_in_range(table[:, 1:], what=s["preset"])
    if reason:
        return reason
    for j, label in enumerate(cols, start=1):
        kind, *pairs = label.split()
        kv = {k: float(v) for k, v in (pr.split("=") for pr in pairs)}
        ref = _oracle_for(kind, {"lam": kv["lambda"], "mu": kv["mu"], "alpha": kv.get("alpha", 1.0), "x": kv.get("x", 0.0)})
        reason = O.spot_values(table[s["spots"], j], [ref(float(table[i, 0])) for i in s["spots"]],
                               f"{s['preset']} {label}", scale=float(table[:, j].max()))
        if reason:
            return reason
    return None


def _build_preset(s, work):
    out_path = os.path.join(work, "preset.csv")
    return _cli_runner(["eval", "--preset", s["preset"], "--out", out_path], out_path), lambda o: _check_preset(o, s)


def _check_verify(out: CliOutput):
    report = json.loads(out.text)
    bad = [c["name"] for c in report["checks"] if not c["passed"]]
    return f"verify checks failed: {bad}" if bad else None


def _build_verify(s, work):
    return _cli_runner(["verify", "--json"], None), _check_verify


def _build_psi_x(s, work):
    p = _params(s)
    ref = O.psi_x(s["t"], s["lam"], s["mu"], s["x"])
    return (lambda: analytic.psi_x_series(s["t"], p)), lambda v: O.close(float(v), ref, 1e-9, what="psi_x")


def _build_moment(s, work):
    p = _params(s)
    e_c, v_c, e_a, v_a = O.closed_mean_var(s["lam"], s["mu"], s["alpha"], s["x"])
    mean, var = (e_a, v_a) if s["which"] in ("moment_a0", "moment_ax") else (e_c, v_c)
    ref = mean if s["n"] == 1 else var + mean * mean
    return (lambda: getattr(analytic, s["which"])(s["n"], p)), lambda v: O.close(v, ref, 1e-8, what=s["which"])


def _build_pdf_a0_grid(s, work):
    p = _params(s)
    _, _, e_a0, v_a0 = O.closed_mean_var(s["lam"], s["mu"], s["alpha"], 0.0)
    ys = np.linspace(0.0, _mass_hi(e_a0, v_a0), GRID_POINTS)

    def check(vals):
        reason = O.finite_in_range(vals, what="pdf_a0")
        if reason:
            return reason
        i = GRID_POINTS // 2
        return O.spot_values([vals[i]], [O.pdf_a0(float(ys[i]), s["lam"], s["mu"], s["alpha"])], "pdf_a0 spot",
                             scale=float(np.max(vals)))

    return (lambda: analytic.pdf_a0(ys, p)), check


def _build_mgf_point(s, work):
    p = _params(s)
    return (lambda: getattr(analytic, s["which"])(s["s"], p)), lambda v: O.finite_in_range([v], lo=1.0, what=s["which"])


def _check_cond_table(out: CliOutput, s: dict):
    _, rows = _csv(out.text)
    if len(rows) != s["grid"][2]:
        return f"expected {s['grid'][2]} rows, got {len(rows)}"
    return O.finite_in_range([float(r[1]) for r in rows], what="cond_pdf")


def _build_eval_cond(s, work):
    out_path = os.path.join(work, "cond.csv")
    argv = ["eval", "cond-pdf", "--lambda", repr(s["lam"]), "--mu", repr(s["mu"]), "--t", repr(s["t"]),
            "--tau", repr(s["tau"]), *_grid_flag(s["grid"]), "--out", out_path]
    return _cli_runner(argv, out_path), lambda o: _check_cond_table(o, s)


def _atom_ref(s) -> float:
    """exp(-lam t) psi_t(tau - t) / psi0(tau), from the oracle densities."""
    lam, mu, t, tau = s["lam"], s["mu"], s["t"], s["tau"]
    return math.exp(-lam * t) * O.psi_x(tau - t, lam, mu, t) / O.psi0(tau, lam, mu)


def _build_eval_atom(s, work):
    out_path = os.path.join(work, "atom.csv")
    argv = ["eval", "atom", "--lambda", repr(s["lam"]), "--mu", repr(s["mu"]), "--t", repr(s["t"]),
            "--tau", repr(s["tau"]), "--out", out_path]

    def check(out):
        v = float(_csv(out.text)[1][0][2])
        return O.first(O.finite_in_range([v], hi=1.0, what="atom"), O.close(v, _atom_ref(s), 1e-9, what="atom"))

    return _cli_runner(argv, out_path), check


def _build_cond_atom(s, work):
    p = _params(s)

    def check(v):
        return O.first(O.finite_in_range([v], hi=1.0, what="cond_atom"), O.close(v, _atom_ref(s), 1e-9, what="cond_atom"))

    return (lambda: analytic.cond_atom(s["t"], s["tau"], p)), check


def _build_cond_cdf(s, work):
    p = _params(s)

    def run():
        return [analytic.cond_cdf_within_cycle(xv, s["t"], s["tau"], p) for xv in s["xs"]]

    def check(vals):
        atom = _atom_ref(s)
        reason = O.finite_in_range(vals, hi=1.0, what="cond_cdf")
        if reason:
            return reason
        if vals[0] != 0.0:
            return f"cond_cdf(0) = {vals[0]!r}, not 0"
        if any(b < a for a, b in zip(vals, vals[1:])):
            return f"cond_cdf not monotone: {vals}"
        return O.close(vals[-1], 1.0 - atom, 1e-9, 1e-12, what="cond_cdf(t) vs 1 - atom")

    return run, check


def _build_cond_pdf(s, work):
    p = _params(s)
    return (lambda: analytic.cond_pdf_within_cycle(s["x"], s["t"], s["tau"], p)), \
        lambda v: O.finite_in_range([v], what="cond_pdf")


def _build_cond_mass(s, work):
    p = _params(s)
    t, tau = s["t"], s["tau"]

    def run():
        def dens(xs):
            return np.array([analytic.cond_pdf_within_cycle(float(v), t, tau, p) for v in np.atleast_1d(xs)])

        return analytic.cond_atom(t, tau, p) + numeric.integrate(dens, 0.0, t, 1e-6).value

    return run, lambda total: O.close(total, 1.0, 0.0, 1e-4, what="atom + integrated cond_pdf")


def _mean_gate(what: str, mean: float, n: int, target: float, var: float):
    se = math.sqrt(var / n)
    if not math.isfinite(mean) or abs(mean - target) > N_SE * se:
        return f"{what} mean {mean!r} is {abs(mean - target) / se:.1f} SE from {target!r}"
    return None


def _targets(s):
    e_cx, v_cx, e_ax, v_ax = O.closed_mean_var(s["lam"], s["mu"], s["alpha"], s["x"])
    a = s["alpha"]
    return {"c_x": (e_cx, v_cx), "a_x": (e_ax, v_ax), "m": (1.0 / a, (1.0 - a) / a**2)}


def _build_simulate(s, work):
    out_path = os.path.join(work, "simulate.csv")
    argv = ["simulate", *_model_flags(s), "--n", str(s["n"]), "--seed", str(s["seed"]),
            "--stream", str(s["stream"]), "--out", out_path]

    def check(out):
        header, rows = _csv(out.text)
        if header != "seed,stream,c_x,m,a_x" or len(rows) != s["n"]:
            return f"bad CSV shape: {header!r}, {len(rows)} rows"
        c_txt, m_txt, a_txt = zip(*((r[2], r[3], r[4]) for r in rows))
        c = np.array(c_txt, dtype=float)
        m = np.array(m_txt, dtype=np.int64)
        a = np.array(a_txt, dtype=float)
        # round trip: the printed rows re-parse to the sampler's own doubles
        c_ref, m_ref, a_ref = sim.sample_paths(_params(s), sim.RngSpec(s["seed"], s["stream"]), s["n"])
        if not (np.array_equal(c, c_ref) and np.array_equal(m, m_ref) and np.array_equal(a, a_ref)):
            return "CSV rows do not round-trip to sample_paths output"
        if any(f"{v:.17g}" != txt for v, txt in zip(c[:100], c_txt[:100])):
            return "CSV value text is not the 17-digit form"
        if not (np.all(c > 0) and np.all(a >= c) and np.all(m >= 1)):
            return "CSV rows violate 0 < c_x <= a_x, m >= 1"
        tg = _targets(s)
        return O.first(*(_mean_gate(k, float(np.mean(arr)), s["n"], *tg[k]) for k, arr in (("c_x", c), ("m", m), ("a_x", a))))

    return _cli_runner(argv, out_path), check


def _a_x_of(record) -> float:
    return record.c_x + sum(record.cycles)


def _build_sample_many(s, work):
    p = _params(s)
    reducer = _a_x_of if s["reducer"] == "callable" else s["reducer"]
    key = "a_x" if s["reducer"] == "callable" else s["reducer"]

    def run():
        return sim.sample_many(p, sim.RngSpec(s["seed"], s["stream"]), s["n"], reducer=reducer)

    def check(st):
        if st.n != s["n"]:
            return f"sample_many returned n={st.n}"
        return _mean_gate(key, st.mean, st.n, *_targets(s)[key])

    return run, check


def _build_within_cycle(s, work):
    p = _params(s)
    t, tau = s["t"], s["tau"]

    def run():
        return sim.sample_within_cycle(p, sim.RngSpec(s["seed"], s["stream"]), t=t, tau=tau,
                                       delta=s["delta"], n_target=s["n_target"])

    def check(ws):
        n = ws.n_accepted
        xs = np.linspace(0.02 * t, 0.98 * t, 25)
        emp = np.array([np.count_nonzero(ws.values <= xv) for xv in xs]) / n
        ana = np.array([analytic.cond_cdf_within_cycle(float(xv), t, tau, p) for xv in xs])
        # DKW at level 1e-6, plus the bias of conditioning on a window of
        # half-width delta rather than on tau itself
        eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n)) + 0.01
        sup = float(np.max(np.abs(emp - ana)))
        if sup > eps:
            return f"within-cycle sample CDF off by {sup:.4f} > {eps:.4f}"
        atom = _atom_ref({"lam": s["lam"], "mu": s["mu"], "t": t, "tau": tau})
        se = math.sqrt(atom * (1.0 - atom) / n)
        freq = ws.atom_count / n
        if abs(freq - atom) > N_SE * se + 0.005:
            return f"atom frequency {freq:.5f} vs {atom:.5f}"
        return None

    return run, check


BUILDERS = {
    "eval": _build_eval,
    "moments": _build_moments,
    "mgf": _build_mgf,
    "integrate": _build_integrate,
    "preset": _build_preset,
    "verify": _build_verify,
    "psi_x": _build_psi_x,
    "moment": _build_moment,
    "pdf_a0_grid": _build_pdf_a0_grid,
    "mgf_point": _build_mgf_point,
    "eval-cond": _build_eval_cond,
    "eval-atom": _build_eval_atom,
    "cond_atom": _build_cond_atom,
    "cond_cdf": _build_cond_cdf,
    "cond_pdf": _build_cond_pdf,
    "cond_mass": _build_cond_mass,
    "simulate": _build_simulate,
    "sample_many": _build_sample_many,
    "within_cycle": _build_within_cycle,
}


def build(spec: dict, work: str) -> Job:
    run, check = BUILDERS[spec["op"]](spec, work)
    return Job(spec["name"], run, check)


def control_jobs() -> list[tuple[Job, bool]]:
    """Negative controls for the gate: (job, must fail).  Three defective
    inputs the gate must catch, and one correct function it must pass."""
    p = analytic.ModelParams(lam=2.0, mu=0.5)
    px = analytic.ModelParams(lam=2.0, mu=0.5, x=1.0)
    ref = O.psi_x(1.0, 2.0, 0.5, 1.0)

    def integral_of(pdf):
        return lambda: numeric.integrate(lambda y: pdf(y, p), 0.0, math.inf, 1e-9)

    def norm(q):
        return O.normalized(q.value)

    def nan_stub(y, p):
        return np.full(np.shape(y), np.nan)

    return [
        (Job("control/pdf_c0_lambda_scaled", integral_of(analytic.pdf_c0_lambda_scaled), norm), True),
        (Job("control/nan-stub", integral_of(nan_stub), norm), True),
        (Job("control/psi_x-off-19%", lambda: 1.19 * float(analytic.psi_x_series(1.0, px)),
             lambda v: O.close(v, ref, 1e-9, what="psi_x")), True),
        (Job("control/pdf_c0", integral_of(analytic.pdf_c0), norm), False),
    ]


def control_failures(budget_s: float) -> list[str]:
    """Names of controls the gate judged wrongly; empty when the gate works."""
    wrong = []
    for job, must_fail in control_jobs():
        _, out, reason = execute(job, budget_s)
        if reason is None:
            reason = verdict(job, out)
        if (reason is not None) != must_fail:
            wrong.append(job.name)
    return wrong
