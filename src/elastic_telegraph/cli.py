"""Command-line front end for the elastic-boundary telegraph toolkit.

Four subcommands:

* ``eval``      tabulate a density, CDF or atom probability on a grid
* ``moments``   print raw moments and closed-form means/variances
* ``simulate``  dump simulated absorption records as CSV
* ``verify``    run the self-check suite (fast or full)

CSV output uses '.' as the decimal separator regardless of locale and 17
significant digits, enough to round-trip IEEE doubles.  Exit codes:
0 success, 2 domain error (including bad flags), 3 verification failure,
4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import analytic, numeric, sim
from .analytic import ModelParams
from .errors import ConvergenceError, DomainError
from .specfun import SeriesControl

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_CONVERGENCE = 4


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalGrid:
    """Uniform evaluation grid; at least two points, increasing."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise DomainError("grid: start and stop must be finite")
        if not self.start < self.stop:
            raise DomainError(f"grid: requires start < stop, got {self.start}:{self.stop}")
        if not (isinstance(self.points, int) and self.points >= 2):
            raise DomainError(f"grid: requires an integer point count >= 2, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def _parse_grid(text: str) -> EvalGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid: expected start:stop:points, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError as exc:
        raise DomainError(f"grid: could not parse {text!r}: {exc}") from None
    return EvalGrid(start, stop, points)


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _params(args) -> ModelParams:
    return ModelParams(lam=args.lam, mu=args.mu, alpha=args.alpha, x=args.x)


def _ctrl(args) -> SeriesControl:
    return SeriesControl(rel_tol=args.rel_tol, max_terms=args.max_terms)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _echo(p: ModelParams, with_alpha: bool, with_x: bool) -> str:
    parts = [f"lambda={p.lam:g}", f"mu={p.mu:g}"]
    if with_alpha:
        parts.append(f"alpha={p.alpha:g}")
    if with_x:
        parts.append(f"x={p.x:g}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

_PRESET_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
_PRESET_MUS = (0.1, 0.5, 1.0, 1.5)


def _preset_lines(name: str, ctrl: SeriesControl) -> list[str]:
    """Parameter sets baked in for the standard comparison curves."""
    if name in ("fig2-left", "fig2-right"):
        mu = 0.5 if name == "fig2-left" else 1.5
        ys = np.linspace(0.0, 8.0, 161)
        cols = []
        for a in _PRESET_ALPHAS:
            p = ModelParams(lam=2.0, mu=mu, alpha=a)
            cols.append(np.asarray(analytic.pdf_a0(ys, p, ctrl), float))
        header = "y," + ",".join(
            f"pdf_a0 lambda=2 mu={mu:g} alpha={a:g}" for a in _PRESET_ALPHAS
        )
        lines = [header]
        for i, y in enumerate(ys):
            lines.append(",".join([_fmt(y)] + [_fmt(c[i]) for c in cols]))
        return lines
    if name in ("fig3-left", "fig3-right"):
        x = 1.0 if name == "fig3-left" else 2.0
        ys = np.linspace(x, x + 8.0, 161)
        cols = []
        for mu in _PRESET_MUS:
            p = ModelParams(lam=2.0, mu=mu, x=x)
            cols.append(np.asarray(analytic.pdf_cx(ys, p, ctrl), float))
        header = "y," + ",".join(
            f"pdf_cx lambda=2 x={x:g} mu={mu:g}" for mu in _PRESET_MUS
        )
        lines = [header]
        for i, y in enumerate(ys):
            lines.append(",".join([_fmt(y)] + [_fmt(c[i]) for c in cols]))
        return lines
    if name == "fig6":
        t, tau = 5.0, 6.0
        xs = np.linspace(0.1, 4.9, 97)
        cols = []
        for mu in _PRESET_MUS:
            p = ModelParams(lam=2.0, mu=mu)
            cols.append(analytic.cond_pdf_within_cycle(xs, t, tau, p, ctrl))
        header = "x," + ",".join(
            f"cond_pdf lambda=2 t=5 tau=6 mu={mu:g}" for mu in _PRESET_MUS
        )
        lines = [header]
        for i, xv in enumerate(xs):
            lines.append(",".join([_fmt(xv)] + [_fmt(c[i]) for c in cols]))
        return lines
    raise DomainError(f"eval: unknown preset {name!r}")


def cmd_eval(args) -> int:
    ctrl = _ctrl(args)
    if args.preset is not None:
        if args.target is not None:
            raise DomainError("eval: give either a target or --preset, not both")
        _emit(_preset_lines(args.preset, ctrl), args.out)
        return EXIT_OK
    if args.target is None:
        raise DomainError("eval: a target (or --preset) is required")
    target = args.target
    p = _params(args)

    if target == "atom":
        if args.t is None or args.tau is None:
            raise DomainError("eval atom: requires --t and --tau")
        v = analytic.cond_atom(args.t, args.tau, p, ctrl)
        header = f"t,tau,atom_prob {_echo(p, False, False)}"
        _emit([header, ",".join([_fmt(args.t), _fmt(args.tau), _fmt(v)])], args.out)
        return EXIT_OK

    if args.grid is None:
        raise DomainError(f"eval {target}: requires --grid start:stop:points")
    grid = _parse_grid(args.grid)
    gv = grid.values()

    if target in ("cond-cdf", "cond-pdf"):
        if args.t is None or args.tau is None:
            raise DomainError(f"eval {target}: requires --t and --tau")
        t, tau = args.t, args.tau
        if grid.start < 0.0 or grid.stop > t:
            raise DomainError(f"eval {target}: grid must lie within [0, t={t:g}]")
        if target == "cond-cdf":
            vals = analytic.cond_cdf_within_cycle(gv, t, tau, p, ctrl)
            label = "cond_cdf"
        else:
            vals = analytic.cond_pdf_within_cycle(gv, t, tau, p, ctrl)
            label = "cond_pdf"
        header = f"x,{label} {_echo(p, False, False)} t={t:g} tau={tau:g}"
        lines = [header] + [",".join([_fmt(xv), _fmt(v)]) for xv, v in zip(gv, vals)]
        _emit(lines, args.out)
        return EXIT_OK

    if target == "psi0":
        vals = np.asarray(analytic.psi0(gv, p, ctrl), float)
        header = f"t,psi0 {_echo(p, False, False)}"
    elif target == "psix":
        vals = np.asarray(analytic.psi_x_series(gv, p, ctrl), float)
        header = f"t,psix {_echo(p, False, True)}"
    elif target == "pdf-c0":
        vals = np.asarray(analytic.pdf_c0(gv, p, ctrl), float)
        header = f"y,pdf_c0 {_echo(p, False, False)}"
    elif target == "pdf-cx":
        vals = np.asarray(analytic.pdf_cx(gv, p, ctrl), float)
        header = f"y,pdf_cx {_echo(p, False, True)}"
    else:
        vals = np.asarray(analytic.pdf_a0(gv, p, ctrl), float)
        header = f"y,pdf_a0 {_echo(p, True, False)}"
    lines = [header] + [",".join([_fmt(g), _fmt(v)]) for g, v in zip(gv, vals)]
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def cmd_moments(args) -> int:
    p = _params(args)
    ctrl = _ctrl(args)
    if not (isinstance(args.n_max, int) and args.n_max >= 1):
        raise DomainError(f"moments: --n-max must be an integer >= 1, got {args.n_max!r}")
    lines = [f"n,E[C0^n],E[A0^n],E[Cx^n],E[Ax^n] {_echo(p, True, True)}"]
    for n in range(1, args.n_max + 1):
        row = [
            str(n),
            _fmt(analytic.moment_c0(n, p, ctrl)),
            _fmt(analytic.moment_a0(n, p, ctrl)),
            _fmt(analytic.moment_cx(n, p, ctrl)),
            _fmt(analytic.moment_ax(n, p, ctrl)),
        ]
        lines.append(",".join(row))
    mv0 = analytic.closed_mean_var(replace(p, x=0.0))
    mv = analytic.closed_mean_var(p)
    lines.append("")
    lines.append("quantity,closed_form")
    lines.append(f"mean_c0,{_fmt(mv0.e_cx)}")
    lines.append(f"var_c0,{_fmt(mv0.var_cx)}")
    lines.append(f"mean_a0,{_fmt(mv0.e_ax)}")
    lines.append(f"var_a0,{_fmt(mv0.var_ax)}")
    lines.append(f"mean_cx,{_fmt(mv.e_cx)}")
    lines.append(f"var_cx,{_fmt(mv.var_cx)}")
    lines.append(f"mean_ax,{_fmt(mv.e_ax)}")
    lines.append(f"var_ax,{_fmt(mv.var_ax)}")
    _emit(lines, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    p = _params(args)
    if not (isinstance(args.n, int) and args.n >= 1):
        raise DomainError(f"simulate: --n must be an integer >= 1, got {args.n!r}")
    spec = sim.RngSpec(seed=args.seed, stream=args.stream)
    c, m, a = sim.sample_paths(p, spec, args.n)
    pre = f"{args.seed},{args.stream},"
    out = (contextlib.nullcontext(sys.stdout) if args.out is None
           else open(args.out, "w", encoding="ascii", newline=""))
    with out as fh:  # rows are formatted and written 16384 at a time
        fh.write("seed,stream,c_x,m,a_x\n")
        for i in range(0, args.n, 16384):
            rows = zip(c[i : i + 16384].tolist(), m[i : i + 16384].tolist(), a[i : i + 16384].tolist())
            fh.write("".join([f"{pre}{cv:.17g},{mv},{av:.17g}\n" for cv, mv, av in rows]))
    ddof = 1 if args.n > 1 else 0
    print(
        f"n={args.n} mean_c_x={np.mean(c):.10g} var_c_x={np.var(c, ddof=ddof):.10g} "
        f"mean_m={np.mean(m):.10g} mean_a_x={np.mean(a):.10g} "
        f"var_a_x={np.var(a, ddof=ddof):.10g}",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class _Suite:
    """Collects named pass/fail checks and renders the report."""

    def __init__(self):
        self.checks: list[dict] = []

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _busy_period_reference(t: float, lam: float, mu: float) -> float:
    # independent route: queue busy-period density with arrival mu, service
    # lam, coded directly from its exponential-times-power series
    term = lam
    acc = lam
    k = 0
    while True:
        k += 1
        term *= lam * mu * t * t / (k * (k + 1.0))
        acc += term
        if term < 1e-18 * acc:
            break
        if k > 100000:
            raise ConvergenceError("busy-period reference", term, k)
    return math.exp(-(lam + mu) * t) * acc


def _mgf_d1(mgf, s0: float, h: float) -> float:
    return (-mgf(s0 + 2 * h) + 8 * mgf(s0 + h) - 8 * mgf(s0 - h) + mgf(s0 - 2 * h)) / (12 * h)


def _mgf_d2(mgf, s0: float, h: float) -> float:
    return (
        -mgf(s0 + 2 * h) + 16 * mgf(s0 + h) - 30 * mgf(s0) + 16 * mgf(s0 - h) - mgf(s0 - 2 * h)
    ) / (12 * h * h)


def _verify_fast(suite: _Suite) -> None:
    ctrl = SeriesControl(rel_tol=1e-12, max_terms=4000)
    p = ModelParams(lam=2.0, mu=0.5, alpha=0.5, x=1.0)

    # normalization of every lifetime density
    i_psi = numeric.integrate(lambda t: analytic.psi0(t, p, ctrl), 0.0, math.inf, 1e-9).value
    suite.add("psi0 integrates to one", abs(i_psi - 1.0) < 1e-7, f"integral={i_psi:.12g}")
    i_c0 = numeric.integrate(lambda y: analytic.pdf_c0(y, p, ctrl), 0.0, math.inf, 1e-9).value
    suite.add("pdf_c0 integrates to one", abs(i_c0 - 1.0) < 1e-7, f"integral={i_c0:.12g}")
    i_cx = numeric.integrate(lambda y: analytic.pdf_cx(y, p, ctrl), p.x, math.inf, 1e-9).value
    suite.add("pdf_cx integrates to one", abs(i_cx - 1.0) < 1e-7, f"integral={i_cx:.12g}")
    i_a0 = numeric.integrate(lambda y: analytic.pdf_a0(y, p, ctrl), 0.0, math.inf, 1e-9).value
    suite.add("pdf_a0 integrates to one", abs(i_a0 - 1.0) < 1e-7, f"integral={i_a0:.12g}")

    # mutation control: the deliberately mis-scaled density must be caught
    # by exactly the normalization diagnostic above
    i_bad = numeric.integrate(
        lambda y: analytic.pdf_c0_lambda_scaled(y, p, ctrl), 0.0, math.inf, 1e-9
    ).value
    caught = abs(i_bad - p.lam) < 1e-6 and abs(i_bad - 1.0) > 0.5
    suite.add(
        "mis-scaled density variant is caught",
        caught,
        f"integral={i_bad:.12g} equals lam={p.lam:g}, not 1",
    )

    # independent busy-period series
    worst = 0.0
    for t in (0.1, 0.5, 1.0, 2.0, 3.0, 5.0):
        worst = max(worst, _rel(float(analytic.psi0(t, p, ctrl)), _busy_period_reference(t, p.lam, p.mu)))
    suite.add("psi0 matches independent busy-period series", worst < 1e-10, f"max rel diff={worst:.3g}")

    # series route vs quadrature route for the positive-start density
    s_val = float(analytic.psi_x_series(1.0, p, ctrl))
    q_val = analytic.psi_x_integral(1.0, p, ctrl)
    d = _rel(s_val, q_val)
    suite.add("first-passage series matches quadrature", d < 1e-8, f"rel diff={d:.3g}")

    # boundary values of the densities
    b1 = float(analytic.pdf_a0(1e-6, p, ctrl))
    d1 = _rel(b1, 0.5 * p.alpha * p.lam)
    suite.add("pdf_a0 boundary value alpha*lam/2", d1 < 1e-5, f"rel diff={d1:.3g}")
    b2 = float(analytic.pdf_cx(p.x + 1e-6, p, ctrl))
    d2 = _rel(b2, 0.5 * p.lam * math.exp(-p.mu * p.x))
    suite.add("pdf_cx boundary value lam*exp(-mu x)/2", d2 < 1e-5, f"rel diff={d2:.3g}")

    # the cycle MGF must solve its defining quadratic
    worst = 0.0
    for s in (-1.0, -0.25, 0.1, 0.2):
        mv = analytic.mgf_c0(s, p)
        res = p.mu * mv * mv - (p.lam + p.mu - 2.0 * s) * mv + p.lam
        worst = max(worst, abs(res))
    suite.add("cycle MGF solves its quadratic", worst < 1e-10, f"max residual={worst:.3g}")

    # closed MGFs vs direct exponential-weighted quadrature
    q = numeric.numeric_mgf(lambda y: analytic.pdf_c0(y, p, ctrl), 0.2, 1e-10)
    d = _rel(q, analytic.mgf_c0(0.2, p))
    suite.add("cycle MGF matches quadrature", d < 1e-8, f"rel diff={d:.3g}")
    q = numeric.numeric_mgf(lambda y: analytic.pdf_a0(y, p, ctrl), 0.2, 1e-10)
    d = _rel(q, analytic.mgf_a0(0.2, p))
    suite.add("absorption MGF matches quadrature", d < 1e-8, f"rel diff={d:.3g}")

    # three-way moment agreement for the boundary start
    for label, moment, pdf, mgf in (
        ("cycle", analytic.moment_c0, analytic.pdf_c0, analytic.mgf_c0),
        ("absorption", analytic.moment_a0, analytic.pdf_a0, analytic.mgf_a0),
    ):
        for n in (1, 2):
            taylor = moment(n, p, ctrl)
            quad = numeric.numeric_moment(lambda y: pdf(y, p, ctrl), n, 1e-10)
            fd = (_mgf_d1 if n == 1 else _mgf_d2)(lambda s: mgf(s, p), 0.0, 1e-3)
            suite.add(
                f"{label} moment n={n} agrees three ways",
                _rel(taylor, quad) < 1e-6 and _rel(taylor, fd) < 1e-4,
                f"taylor={taylor:.10g} quad={quad:.10g} mgf-fd={fd:.10g}",
            )

    # conditional law endpoints
    t, tau = 2.0, 4.0
    atom = analytic.cond_atom(t, tau, p, ctrl)
    lo = analytic.cond_cdf_within_cycle(0.0, t, tau, p, ctrl)
    hi = analytic.cond_cdf_within_cycle(t, t, tau, p, ctrl)
    ok = lo == 0.0 and abs(hi - (1.0 - atom)) < 1e-12 and 0.0 < atom < 1.0
    suite.add(
        "conditional CDF endpoints",
        ok,
        f"cdf(0)={lo:.3g} cdf(t)={hi:.10g} atom={atom:.10g}",
    )


def _verify_full(suite: _Suite) -> None:
    ctrl = SeriesControl(rel_tol=1e-12, max_terms=4000)
    p = ModelParams(lam=2.0, mu=0.5, alpha=0.5, x=1.0)
    mv = analytic.closed_mean_var(p)

    # one large fixed-seed run reused by the next three checks
    n = 1_000_000
    c, m, a = sim.sample_paths(p, sim.RngSpec(seed=20260815, stream=0), n)
    checks = (
        ("c_x", c, mv.e_cx, mv.var_cx),
        ("a_x", a, mv.e_ax, mv.var_ax),
        ("m", m.astype(float), 1.0 / p.alpha, (1.0 - p.alpha) / p.alpha**2),
    )
    for name, arr, mean_true, var_true in checks:
        se = math.sqrt(var_true / n)
        dev = abs(float(np.mean(arr)) - mean_true) / se
        suite.add(
            f"simulated mean of {name} within 3 SE",
            dev < 3.0,
            f"mean={np.mean(arr):.6g} target={mean_true:.6g} dev={dev:.2f} SE",
        )

    # absorption-count distribution vs its geometric law (chi-square,
    # 11 categories, 1% critical value of a 10-dof chi-square)
    mmax = 10
    observed = np.array(
        [np.count_nonzero(m == k) for k in range(1, mmax + 1)] + [np.count_nonzero(m > mmax)],
        float,
    )
    probs = np.array(
        [p.alpha * (1 - p.alpha) ** (k - 1) for k in range(1, mmax + 1)]
        + [(1 - p.alpha) ** mmax]
    )
    expected = n * probs
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    suite.add(
        "absorption count matches geometric law",
        chi2 < 23.209,
        f"chi-square={chi2:.2f} (1% critical 23.209)",
    )

    # KS test of the boundary-start cycle sample against the analytic CDF
    p0 = replace(p, x=0.0)
    nks = 100_000
    c0, _, _ = sim.sample_paths(p0, sim.RngSpec(seed=777, stream=1), nks)
    ygrid = np.linspace(0.0, 90.0, 18001)
    dens = np.asarray(analytic.pdf_c0(ygrid, p0, ctrl), float)
    cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(ygrid))])
    dks = numeric.ks_statistic(c0, lambda s: np.interp(s, ygrid, cdf_grid, left=0.0, right=1.0))
    crit = 1.628 / math.sqrt(nks)
    suite.add(
        "KS test of cycle sample at 1% level",
        dks < crit,
        f"D={dks:.5f} critical={crit:.5f}",
    )

    # quadrature route for the positive-start mean/variance, composed with
    # the stopping-time identities for the absorbed total
    e1 = numeric.numeric_moment(lambda y: analytic.pdf_cx(y, p, ctrl), 1, 1e-10)
    e2 = numeric.numeric_moment(lambda y: analytic.pdf_cx(y, p, ctrl), 2, 1e-10)
    f1 = numeric.numeric_moment(lambda y: analytic.pdf_c0(y, p, ctrl), 1, 1e-10)
    f2 = numeric.numeric_moment(lambda y: analytic.pdf_c0(y, p, ctrl), 2, 1e-10)
    var_cx_q = e2 - e1 * e1
    geo = (1.0 - p.alpha) / p.alpha
    e_ax_q = e1 + geo * f1
    var_ax_q = var_cx_q + geo * (f2 - f1 * f1) + geo / p.alpha * f1 * f1
    ok = (
        _rel(e1, mv.e_cx) < 1e-5
        and _rel(var_cx_q, mv.var_cx) < 1e-5
        and _rel(e_ax_q, mv.e_ax) < 1e-5
        and _rel(var_ax_q, mv.var_ax) < 1e-5
    )
    suite.add(
        "closed means/variances match quadrature",
        ok,
        f"E[Cx]={e1:.8g}/{mv.e_cx:.8g} Var[Ax]={var_ax_q:.8g}/{mv.var_ax:.8g}",
    )

    # conditional law: atom plus integrated density must exhaust the mass
    t, tau = 5.0, 6.0
    for mu in (0.5, 1.5):
        pc = ModelParams(lam=2.0, mu=mu)
        atom = analytic.cond_atom(t, tau, pc, ctrl)

        def dens_vec(xs):
            return analytic.cond_pdf_within_cycle(xs, t, tau, pc, ctrl)

        mass = numeric.integrate(dens_vec, 0.0, t, 1e-6).value
        total = atom + mass
        suite.add(
            f"conditional atom+density mass is one (mu={mu:g})",
            abs(total - 1.0) < 1e-4,
            f"atom={atom:.6g} mass={mass:.8g} total={total:.8g}",
        )

    # conditional simulation against the analytic conditional CDF
    pc = ModelParams(lam=2.0, mu=0.5)
    ws = sim.sample_within_cycle(pc, sim.RngSpec(seed=4242, stream=7), t=5.0, tau=6.0,
                                 delta=0.3, n_target=20_000)
    xs = np.linspace(0.1, 4.9, 25)
    emp = np.array([np.count_nonzero(ws.values <= xv) for xv in xs]) / ws.n_accepted
    ana = analytic.cond_cdf_within_cycle(xs, 5.0, 6.0, pc, ctrl)
    sup = float(np.max(np.abs(emp - ana)))
    suite.add(
        "conditional simulation matches analytic CDF",
        sup < 0.01,
        f"sup diff={sup:.4f} over {ws.n_accepted} accepted of {ws.n_cycles} cycles run at (lambda, mu)="
        f"({ws.sim_rates[0]:.4g}, {ws.sim_rates[1]:.4g}), thinning kept {ws.thinning_acceptance:.3f}",
    )
    atom_ana = analytic.cond_atom(5.0, 6.0, pc, ctrl)
    atom_emp = ws.atom_count / ws.n_accepted
    suite.add(
        "conditional simulation atom frequency",
        abs(atom_emp - atom_ana) < 0.005,
        f"empirical={atom_emp:.5f} analytic={atom_ana:.5f}",
    )

    # near the origin the conditional density rises with the downward rate
    # while the atom falls
    dens_at = []
    atoms = []
    for mu in _PRESET_MUS:
        pc = ModelParams(lam=2.0, mu=mu)
        dens_at.append(analytic.cond_pdf_within_cycle(0.25, 5.0, 6.0, pc, ctrl))
        atoms.append(analytic.cond_atom(5.0, 6.0, pc, ctrl))
    inc = all(b > a for a, b in zip(dens_at, dens_at[1:]))
    dec = all(b < a for a, b in zip(atoms, atoms[1:]))
    suite.add(
        "conditional density ordering in mu",
        inc and dec,
        f"density@0.25={['%.4g' % v for v in dens_at]} atom={['%.4g' % v for v in atoms]}",
    )


def cmd_verify(args) -> int:
    suite = _Suite()
    _verify_fast(suite)
    if args.level == "full":
        _verify_full(suite)
    if args.json:
        print(
            json.dumps(
                {"level": args.level, "passed": suite.all_passed, "checks": suite.checks},
                indent=2,
            )
        )
    else:
        for c in suite.checks:
            print(f"{'PASS' if c['passed'] else 'FAIL'}  {c['name']}: {c['detail']}")
        n_bad = sum(not c["passed"] for c in suite.checks)
        print(f"{len(suite.checks) - n_bad}/{len(suite.checks)} checks passed")
    return EXIT_OK if suite.all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_model_flags(sp, with_x_default=0.0):
    sp.add_argument("--lambda", dest="lam", type=float, default=2.0,
                    help="upward phase rate (default 2.0)")
    sp.add_argument("--mu", type=float, default=0.5,
                    help="downward phase rate, must be below --lambda (default 0.5)")
    sp.add_argument("--alpha", type=float, default=1.0,
                    help="absorption probability per boundary visit (default 1.0)")
    sp.add_argument("--x", type=float, default=with_x_default,
                    help="starting height (default %(default)s)")
    sp.add_argument("--rel-tol", type=float, default=1e-12,
                    help="series stopping tolerance (default 1e-12)")
    sp.add_argument("--max-terms", type=int, default=4000,
                    help="series term budget before giving up (default 4000)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="elastic-telegraph",
        description="Distributions and simulation for the unit-speed telegraph "
        "process with an elastic boundary at the origin.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="tabulate a density/CDF/atom on a grid as CSV")
    ev.add_argument("target", nargs="?", default=None,
                    choices=["psi0", "psix", "pdf-c0", "pdf-cx", "pdf-a0",
                             "cond-cdf", "cond-pdf", "atom"],
                    help="quantity to tabulate")
    _add_model_flags(ev)
    ev.add_argument("--grid", default=None, help="evaluation grid start:stop:points")
    ev.add_argument("--t", type=float, default=None, help="observation time (conditional targets)")
    ev.add_argument("--tau", type=float, default=None,
                    help="conditioning first-return value (conditional targets)")
    ev.add_argument("--preset", default=None,
                    choices=["fig2-left", "fig2-right", "fig3-left", "fig3-right", "fig6"],
                    help="emit a standard multi-curve table instead of a single target")
    ev.add_argument("--out", default=None, help="write CSV here instead of stdout")
    ev.set_defaults(func=cmd_eval)

    mo = sub.add_parser("moments", help="print raw moments and closed means/variances")
    _add_model_flags(mo)
    mo.add_argument("--n-max", type=int, default=4, help="highest moment order (default 4)")
    mo.add_argument("--out", default=None, help="write CSV here instead of stdout")
    mo.set_defaults(func=cmd_moments)

    si = sub.add_parser("simulate", help="simulate absorption records to CSV")
    _add_model_flags(si)
    si.add_argument("--n", type=int, required=True, help="number of paths")
    si.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    si.add_argument("--stream", type=int, default=0, help="independent stream index (default 0)")
    si.add_argument("--out", default=None, help="write CSV here instead of stdout")
    si.set_defaults(func=cmd_simulate)

    ve = sub.add_parser("verify", help="run the self-check suite")
    ve.add_argument("--level", default="fast", choices=["fast", "full"],
                    help="fast: analytic cross-checks; full: adds Monte Carlo (default fast)")
    ve.add_argument("--json", action="store_true", help="emit a JSON report instead of lines")
    ve.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
