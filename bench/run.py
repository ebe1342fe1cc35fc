"""Benchmark of the elastic-telegraph package.

Run from the repository root:

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

One process, no worker threads.  The seed makes the workload's job list (its
digest is printed); the program receives only the generated inputs.  Jobs
run in passes over that fixed list until the next pass would overrun
``--seconds``; at least one pass always runs.

Job times are scaled to a reference speed.  A fixed reference block (about
4 ms of interpreted and small-array work) is timed before the first job and
after every job; each job time is multiplied by the block's nominal time over
the median of the six blocks around the job.  On a shared machine whose speed
drifts between states by half, this removes most of the drift from the
timings while leaving any change in the program's own cost in them.  Raw
times are in the report.  Each job runs once per pass; a cache that outlives
a call is hit by later passes, so the report keeps pass 1's times apart.

Each job's output is checked outside the timed region: the first pass against
independent identities and mpmath reference values, later passes for
bit-identical output.  A job fails when it raises, exceeds the per-job
budget, or fails its check; failures are named in the output.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then one traced pass, and prints the per-layer
metrics with ``trace.overhead``.  ``correct`` is false when the gate misjudges
one of its negative controls, so that a broken gate cannot report a pass.
The last line of stdout is one JSON object; a fuller report and the spans of
a traced pass go to ``bench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", ".out")
MODULES = ("specfun", "analytic", "numeric", "sim", "cli")
JOB_BUDGET_S = 30.0  # no seeded job measured above 9 s; keeps a run under 180 s
SETUP_REPEATS = 7
REF_BLOCK_S = 0.0038  # reference_block() on an idle 2.1 GHz Xeon core


def reference_block() -> float:
    """Seconds taken by a fixed mix of interpreted arithmetic and small
    longdouble array operations, like the program's own inner loops."""
    import numpy as np

    t0 = time.perf_counter()
    for _ in range(3):
        a = np.linspace(1.0, 2.0, 64, dtype=np.longdouble)
        acc = 0.0
        for k in range(300):
            a = a * np.longdouble(1.0000001) + 1e-9
            acc += float(a[k % 64]) * 1.5
        for i in range(4000):
            acc += (i * 0.5) / (i + 1.0)
    return time.perf_counter() - t0


def setup_seconds() -> float:
    """Median time a fresh interpreter takes to import the package and its
    CLI, the cost every CLI invocation pays, timed inside the child so that
    the sandbox's process start-up does not count.  One untimed start warms
    the file cache first.  Not scaled to the reference speed: import time
    follows the file cache more than the processor."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (
        "import time; t0 = time.perf_counter(); import elastic_telegraph, elastic_telegraph.cli; "
        "print(time.perf_counter() - t0)"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        res = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                             capture_output=True, text=True)
        times.append(float(res.stdout))
    return statistics.median(times[1:])


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    src_hash = hashlib.sha256()
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "git_commit": commit,
    }
    for mod in MODULES:
        with open(os.path.join(SRC, "elastic_telegraph", f"{mod}.py"), "rb") as fh:
            data = fh.read()
        src_hash.update(data)
        env[f"{mod}.src_lines"] = data.count(b"\n")
    env["src_sha256"] = src_hash.hexdigest()
    return env


def fingerprint(obj, h=None) -> str:
    """Digest of a job output, for the bit-identical check across passes."""
    import numpy as np

    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(obj.dtype.str.encode() + obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            fingerprint(v, h)
    elif isinstance(obj, dict):
        for k in sorted(obj):
            h.update(str(k).encode())
            fingerprint(obj[k], h)
    elif hasattr(obj, "__dataclass_fields__"):
        for k in obj.__dataclass_fields__:
            if k != "path":
                fingerprint(getattr(obj, k), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


class Runner:
    def __init__(self, jobs, workloads_mod):
        self.jobs = jobs
        self.W = workloads_mod
        self.first: list = [None] * len(jobs)  # (output, run reason) of pass 1
        self.prints: list = [None] * len(jobs)
        self.first_times = self.first_raw = self.first_refs = None  # pass 1, for the report
        self.reasons: dict[str, str] = {}
        self.job_times: list[float] = []
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.raw_job_times: list[float] = []
        self.attempted = 0
        self.peak_rss_mb = None
        self.failed_runs: list[list[int]] = []

    def one_pass(self, tracer=None) -> tuple[float, float]:
        """Run every job once; returns the pass time at reference speed and raw."""
        W = self.W
        failed = []
        raw_times = []
        refs = [reference_block()]  # refs[i] just before job i, refs[i+1] just after
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
            raw_dt, out, reason = W.execute(job, JOB_BUDGET_S)
            refs.append(reference_block())
            raw_times.append(raw_dt)
            out = W.collect(out) if reason is None else None
            if tracer is not None and isinstance(out, W.CliOutput):
                tracer.bytes_out += len(out.text)
            fp = fingerprint(out) if reason is None else None
            if self.prints[i] is None and not self.walls and tracer is None:
                self.first[i] = (out, reason)
                self.prints[i] = fp
            elif reason is None and self.prints[i] is not None and fp != self.prints[i]:
                reason = "output differs from the first pass"
            if reason is not None:
                self.reasons.setdefault(job.name, reason)
                failed.append(i)
        # scale to the reference speed (see the module docstring)
        times = [
            dt * REF_BLOCK_S / statistics.median(refs[max(0, i - 2) : i + 4]) for i, dt in enumerate(raw_times)
        ]
        if self.first_refs is None:
            self.first_times, self.first_raw, self.first_refs = times, raw_times, refs
        self.attempted += len(self.jobs)
        self.failed_runs.append(failed)
        if tracer is None:
            self.job_times.extend(times)
            self.raw_job_times.extend(raw_times)
            self.walls.append(sum(times))
            self.raw_walls.append(sum(raw_times))
        return sum(times), sum(raw_times)

    def passes_for(self, seconds: float) -> None:
        start = time.perf_counter()
        elapsed = []
        while True:
            t0 = time.perf_counter()
            self.one_pass()
            elapsed.append(time.perf_counter() - t0)
            if self.peak_rss_mb is None:
                # later passes allocate while pass-1 outputs are still held
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - start + statistics.median(elapsed) > seconds:
                return

    def check_first_pass(self) -> set[int]:
        """Untimed verdicts on pass-1 outputs; returns indices that failed."""
        bad = set()
        for i, job in enumerate(self.jobs):
            out, reason = self.first[i]
            if reason is None:
                reason = self.W.verdict(job, out)
                if reason is not None:
                    self.reasons[job.name] = reason
            if reason is not None:
                bad.add(i)
        return bad


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile: a beta-weighted mean of
    the order statistics.  Job times cluster by job kind, and a single order
    statistic jumps between clusters from run to run; this estimate does not."""
    import mpmath
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = q / 100.0 * (n + 1), (1.0 - q / 100.0) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return float(np.dot(np.diff(cdf), x))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("tables", "conditional", "montecarlo"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "elastic_telegraph", "__init__.py")):
        print(f"error: no package source under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup_s = setup_seconds() if args.trace == 0 else None

    import workloads as W
    import tracing

    specs = W.SPEC_MAKERS[args.workload](args.seed)
    digest = W.digest_specs(specs)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as work:
        jobs = [W.build(s, work) for s in specs]
        runner = Runner(jobs, W)
        tracer = None
        if args.trace == 0:
            runner.passes_for(args.seconds)
        else:
            runner.passes_for(args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_wall, traced_raw = runner.one_pass(tracer)
            finally:
                tracer.uninstall()
        bad_first = runner.check_first_pass()
        wrong_controls = W.control_failures(JOB_BUDGET_S)

    # a job failing its check fails in every pass, since later passes must
    # reproduce pass 1 bit for bit
    failed = sum(len(set(f) | bad_first) for f in runner.failed_runs)
    attempted = runner.attempted
    env = environment()
    wall_s = statistics.median(runner.walls)
    if args.trace == 0:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "job_s.p50": (percentile(runner.job_times, 50), "s"),
            "job_s.p90": (percentile(runner.job_times, 90), "s"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (runner.peak_rss_mb, "MB"),
        }
    else:
        units = tracing.metric_units()
        # self times are scaled by the traced pass's own speed factor
        values = tracer.metrics(traced_wall / wall_s - 1.0, traced_wall / traced_raw)
        metrics = {k: (values[k], units[k]) for k in units}
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                           [j.name for j in jobs])

    failing = {j.name: runner.reasons[j.name] for j in jobs if j.name in runner.reasons}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": len(jobs),
        "jobs_digest": digest,
        "passes": len(runner.walls) + (1 if tracer else 0),
        "pass_walls_s": runner.walls,
        "raw_pass_walls_s": runner.raw_walls,
        "job_samples": len(runner.job_times),
        "raw_job_s.p50": percentile(runner.raw_job_times, 50),
        "raw_job_s.p90": percentile(runner.raw_job_times, 90),
        "env": env,
        "fail_frac": failed / attempted,
        "failing_jobs": failing,
        "first_pass_job_s": {j.name: t for j, t in zip(jobs, runner.first_times)},
        "first_pass_raw_job_s": runner.first_raw,
        "first_pass_reference_s": runner.first_refs,
        "gate_controls_misjudged": wrong_controls,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        report["trace_missing_names"] = tracer.missing
    with open(os.path.join(OUT_DIR, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload={args.workload} seed={args.seed} jobs={len(jobs)} digest={digest}")
    print(f"passes={report['passes']} pass_walls_s={[round(w, 4) for w in runner.walls]} "
          f"job_samples={len(runner.job_times)}")
    print("env " + json.dumps(env))
    print(f"fail_frac={failed / attempted:.6g} ({failed}/{attempted})")
    for name, reason in failing.items():
        print(f"FAIL {name}: {reason}")
    for name in wrong_controls:
        print(f"GATE MISJUDGED {name}")
    for name, (v, u) in metrics.items():
        print(f"{name} {v:.6g} {u}")
    result = {
        "correct": not wrong_controls,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
