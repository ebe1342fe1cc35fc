"""Command-line interface: output formats, exit codes, reproducibility."""

import json
import math

import numpy as np
import pytest

from elastic_telegraph import analytic
from elastic_telegraph.analytic import ModelParams
from elastic_telegraph.cli import EvalGrid, _parse_grid, main
from elastic_telegraph.errors import DomainError
from elastic_telegraph.sim import RngSpec, sample_paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n")]
    return lines[0], [ln.split(",") for ln in lines[1:] if ln]


# ---------------------------------------------------------------------------
# grid plumbing
# ---------------------------------------------------------------------------


def test_grid_parsing():
    g = _parse_grid("0:10:200")
    assert g == EvalGrid(0.0, 10.0, 200)
    assert g.values().shape == (200,)
    assert g.values()[0] == 0.0 and g.values()[-1] == 10.0
    with pytest.raises(DomainError):
        _parse_grid("1:2")
    with pytest.raises(DomainError):
        _parse_grid("a:2:5")
    with pytest.raises(DomainError):
        _parse_grid("5:1:10")  # start must be below stop
    with pytest.raises(DomainError):
        _parse_grid("0:1:1")  # need at least two points
    with pytest.raises(DomainError):
        EvalGrid(0.0, math.inf, 5)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_pdf_a0_boundary_row(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "pdf-a0", "--lambda", "2", "--mu", "0.5",
        "--alpha", "0.5", "--grid", "0:10:200",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header.startswith("y,pdf_a0")
    assert "alpha=0.5" in header
    assert len(rows) == 200
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == 0.5  # alpha * lam / 2


def test_eval_pdf_cx_boundary_row(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "pdf-cx", "--lambda", "2", "--mu", "0.5",
        "--x", "1", "--grid", "1:12:200",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][0]) == 1.0
    assert float(rows[0][1]) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_eval_psi0_nonnegative(capsys):
    code, out, _ = run_cli(capsys, "eval", "psi0", "--grid", "0.01:8:100")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 100
    assert all(float(r[1]) >= 0.0 for r in rows)


def test_eval_values_round_trip_exactly(capsys):
    # 17 significant digits must reproduce the library doubles bit for bit
    code, out, _ = run_cli(
        capsys, "eval", "psix", "--lambda", "2", "--mu", "0.5", "--x", "1",
        "--grid", "0.5:2:4",
    )
    assert code == 0
    _, rows = parse_csv(out)
    p = ModelParams(lam=2.0, mu=0.5, x=1.0)
    grid = np.linspace(0.5, 2.0, 4)
    want = analytic.psi_x_series(grid, p)
    for row, g, v in zip(rows, grid, want):
        assert float(row[0]) == g
        assert float(row[1]) == v


def test_eval_atom_single_row(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "atom", "--lambda", "2", "--mu", "0.5", "--t", "5", "--tau", "6",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header.startswith("t,tau,atom_prob")
    assert len(rows) == 1
    p = ModelParams(lam=2.0, mu=0.5)
    assert float(rows[0][2]) == analytic.cond_atom(5.0, 6.0, p)


def test_eval_cond_cdf(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "cond-cdf", "--lambda", "2", "--mu", "0.5",
        "--t", "5", "--tau", "6", "--grid", "0.5:4.5:5",
    )
    assert code == 0
    _, rows = parse_csv(out)
    vals = [float(r[1]) for r in rows]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    p = ModelParams(lam=2.0, mu=0.5)
    assert vals[0] == analytic.cond_cdf_within_cycle(0.5, 5.0, 6.0, p)


def test_eval_preset_structure(capsys):
    code, out, _ = run_cli(capsys, "eval", "--preset", "fig2-left")
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 161
    assert len(rows[0]) == 6  # y plus one column per absorption probability
    assert header.count("pdf_a0") == 5
    # spot value: column for alpha=0.5 at the second grid point
    p = ModelParams(lam=2.0, mu=0.5, alpha=0.5)
    y = float(rows[1][0])
    assert float(rows[1][3]) == pytest.approx(float(analytic.pdf_a0(y, p)), rel=1e-12)


def test_eval_preset_first_visit_curves(capsys):
    code, out, _ = run_cli(capsys, "eval", "--preset", "fig3-left")
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 161
    assert len(rows[0]) == 5
    assert float(rows[0][0]) == 1.0  # support starts at the travel time x


def test_eval_errors(capsys):
    # target and preset together
    code, _, err = run_cli(capsys, "eval", "psi0", "--preset", "fig2-left", "--grid", "0.1:1:5")
    assert code == 2 and "error:" in err
    # no target at all
    code, _, err = run_cli(capsys, "eval")
    assert code == 2
    # missing grid
    code, _, err = run_cli(capsys, "eval", "psi0")
    assert code == 2
    # conditional grid outside [0, t]
    code, _, err = run_cli(
        capsys, "eval", "cond-cdf", "--t", "5", "--tau", "6", "--grid", "0:6:10"
    )
    assert code == 2
    # conditional targets need --t/--tau
    code, _, err = run_cli(capsys, "eval", "cond-pdf", "--grid", "0:1:5")
    assert code == 2
    # malformed grid
    code, _, err = run_cli(capsys, "eval", "psi0", "--grid", "1:2")
    assert code == 2


def test_eval_bad_model_is_domain_exit(capsys):
    code, _, err = run_cli(capsys, "eval", "psi0", "--mu", "3", "--grid", "0.5:1:5")
    assert code == 2
    assert "error:" in err


def test_unknown_flag_is_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "psi0", "--grid", "0.1:1:5", "--bogus"])
    assert exc.value.code == 2


def test_unknown_preset_is_argparse_exit():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--preset", "fig9"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moments_table(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--lambda", "2", "--mu", "0.5", "--alpha", "0.5",
        "--x", "1", "--n-max", "3",
    )
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    header, rows = parse_csv(blocks[0])
    assert header.startswith("n,E[C0^n],E[A0^n],E[Cx^n],E[Ax^n]")
    assert len(rows) == 3
    n1 = {"c0": float(rows[0][1]), "a0": float(rows[0][2]),
          "cx": float(rows[0][3]), "ax": float(rows[0][4])}
    assert n1["c0"] == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert n1["a0"] == pytest.approx(8.0 / 3.0, rel=1e-14)
    assert n1["cx"] == pytest.approx(3.0, rel=1e-14)
    assert n1["ax"] == pytest.approx(13.0 / 3.0, rel=1e-14)

    closed = dict(ln.split(",") for ln in blocks[1].split("\n")[1:])
    p = ModelParams(lam=2.0, mu=0.5, alpha=0.5, x=1.0)
    mv = analytic.closed_mean_var(p)
    assert float(closed["mean_cx"]) == mv.e_cx
    assert float(closed["var_cx"]) == mv.var_cx
    assert float(closed["mean_ax"]) == mv.e_ax
    assert float(closed["var_ax"]) == mv.var_ax
    # closed means must agree with the raw-moment columns
    assert float(closed["mean_a0"]) == pytest.approx(n1["a0"], rel=1e-13)
    assert float(closed["var_a0"]) == pytest.approx(
        float(rows[1][2]) - n1["a0"] ** 2, rel=1e-12
    )


def test_moments_rejects_bad_order(capsys):
    code, _, err = run_cli(capsys, "moments", "--n-max", "0")
    assert code == 2


def test_moments_budget_exhaustion_is_exit_four(capsys):
    # moments need no series budget; the conditional-law series still do
    code, _, err = run_cli(
        capsys, "eval", "cond-cdf", "--lambda", "2", "--mu", "0.5", "--t", "5", "--tau", "6",
        "--grid", "1:4:3", "--max-terms", "3",
    )
    assert code == 4
    assert "error:" in err


def test_cond_pdf_budget_exhaustion_is_exit_four(capsys):
    code, _, err = run_cli(
        capsys, "eval", "cond-pdf", "--lambda", "2", "--mu", "0.5", "--t", "5", "--tau", "6",
        "--grid", "1:4:3", "--max-terms", "3",
    )
    assert code == 4
    assert "error:" in err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_csv_and_summary(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--alpha", "0.5", "--x", "1", "--n", "8", "--seed", "31",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == "seed,stream,c_x,m,a_x"
    assert len(rows) == 8
    assert all(r[0] == "31" and r[1] == "0" for r in rows)
    assert err.startswith("n=8 mean_c_x=")
    # values come from the vectorized engine verbatim
    p = ModelParams(lam=2.0, mu=0.5, alpha=0.5, x=1.0)
    c, m, a = sample_paths(p, RngSpec(seed=31), 8)
    for i, r in enumerate(rows):
        assert float(r[2]) == c[i]
        assert int(r[3]) == int(m[i])
        assert float(r[4]) == a[i]


def test_simulate_byte_identical(tmp_path, capsys):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    for f in (f1, f2):
        code, _, _ = run_cli(
            capsys, "simulate", "--alpha", "0.5", "--n", "50", "--seed", "7",
            "--out", str(f),
        )
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()
    f3 = tmp_path / "c.csv"
    run_cli(capsys, "simulate", "--alpha", "0.5", "--n", "50", "--seed", "7",
            "--stream", "1", "--out", str(f3))
    assert f3.read_bytes() != f1.read_bytes()


def test_simulate_always_absorb_columns_coincide(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "20", "--seed", "3")
    assert code == 0
    _, rows = parse_csv(out)
    # default alpha is 1: exactly one visit, total equals first visit
    assert all(r[3] == "1" and r[2] == r[4] for r in rows)


def test_simulate_rejects_bad_count(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--n", "0", "--seed", "1")
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_fast_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "fast")
    assert code == 0
    assert "17/17 checks passed" in out
    assert "FAIL" not in out


def test_verify_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--level", "fast", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == "fast"
    assert doc["passed"] is True
    assert len(doc["checks"]) == 17
    assert all(set(c) == {"name", "passed", "detail"} for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert "mis-scaled density variant is caught" in names
