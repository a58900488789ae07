"""Verify-job benchmark for funclag.

    python3 perfbench/run.py --workload bundled-ood --seed 1 --seconds 25 --trace 0

Runs ``funclag verify`` jobs in-process through the CLI entry point
(``funclag.cli.main``), one at a time from this single process: a closed
loop with one client, BLAS/OpenMP pools pinned to one thread.  Each job
is one spec file, one ``--family`` and one seed.  The loop runs whole
passes over the workload's jobs, one and then more while the next is
predicted to end within ``--seconds``; repeats must reproduce the first
certificate byte for byte.  Job and set-up times are scaled to a reference
host speed by ``hostspeed.py``; the unscaled ones are printed as ``raw.*``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced and then passes traced (spans recorded around funclag's module
boundaries by ``tracing.py``) and prints the per-layer metrics.  Every
output passes the gates in ``gates.py``; a violation prints
``"correct": false`` and exits 1.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Set-up (``setup_s``) is the median over several fresh interpreters of the
time to import ``funclag.cli`` and load the workload's model.  Inputs,
certificates, spans and a result record go under ``.perfbench/`` in the
checkout; the per-job input and output files are removed at exit.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import gates
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 7
SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import funclag.cli
funclag.cli.load_model(sys.argv[2])
print(time.perf_counter() - t0)
"""


@dataclass
class JobRun:
    job: object
    seconds: float
    code: int | None
    error: str | None
    cert: bytes | None
    # factor to reference host speed, from hostspeed.Probe
    scale: float = 1.0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.code not in (0, 1)

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="use only the first N jobs of the workload (smoke tests)")
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_cli():
    if not (SRC / "funclag" / "cli.py").is_file():
        fail(f"no funclag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import funclag.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        fail(f"imported funclag from {cli.__file__}, not from {SRC}")
    return cli


def measure_setup(model: Path) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: (scaled, raw) seconds."""
    import hostspeed

    env = {**os.environ, **BLAS_PIN}
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        with hostspeed.Probe() as probe:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(model)],
                capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
            )
        if proc.returncode != 0:
            fail(f"set-up interpreter failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * probe.scale)
    return statistics.median(scaled), statistics.median(raw)


def run_job(cli, workload, job, seed: int, out: Path, tracer=None) -> JobRun:
    import hostspeed

    args = workload.verify_args(job, seed, out)
    sink = io.StringIO()
    code, error = 0, None
    out.unlink(missing_ok=True)
    with hostspeed.Probe() as probe:
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                if tracer is None:
                    cli.main.main(args=args, prog_name="funclag", standalone_mode=True)
                else:
                    with tracer.span(tracing.ROOT_SPAN):
                        cli.main.main(args=args, prog_name="funclag", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start - probe.inside
    run = JobRun(job, seconds, code, error, out.read_bytes() if out.exists() else None,
                 probe.scale)
    if run.failed:
        detail = error or f"exit code {code}: {sink.getvalue().strip()[-500:]}"
        print(f"job {job.job_id} failed: {detail}", file=sys.stderr)
    return run


def run_loop(cli, workload, jobs, seed, workdir, deadline, tracer=None) -> list:
    """Run whole passes over ``jobs``: one, then more while the next fits before
    ``deadline``.  Whole passes weight every job equally in the medians."""
    runs = []
    start = time.perf_counter()
    passes = 0
    while True:
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{job.job_id}#{passes}"
            runs.append(run_job(cli, workload, job, seed, workdir / f"cert{i:02d}.json", tracer))
        passes += 1
        now = time.perf_counter()
        if now + (now - start) / passes > deadline:
            return runs


def gate_violations(first_pass: list, repeats: list) -> list[str]:
    """Gate every first-pass output and compare every repeat byte for byte."""
    violations = []
    reference = {}
    for run in first_pass:
        if run.failed:
            continue
        reference[run.job.job_id] = (run.code, run.cert)
        if run.cert is None:
            violations.append(f"{run.job.job_id}: no output file")
            continue
        try:
            doc = json.loads(run.cert)
        except json.JSONDecodeError as exc:
            violations.append(f"{run.job.job_id}: unreadable output: {exc}")
            continue
        violations.extend(
            f"{run.job.job_id}: {v}"
            for v in gates.check_output(doc, run.code, run.job.n_problems)
        )
    for run in repeats:
        if run.failed or run.job.job_id not in reference:
            continue
        if (run.code, run.cert) != reference[run.job.job_id]:
            violations.append(f"{run.job.job_id}: repeat output differs from first run")
    return violations


def certificates(runs: list) -> list[dict]:
    certs = []
    for run in runs:
        if not run.failed and run.cert is not None:
            certs.extend(gates.decode(json.loads(run.cert))["certificates"])
    return certs


def tail(runs: list) -> tuple[int, float]:
    """The slowest job's median over its repeats, and the number of jobs.

    The rank is fixed (the slowest of the workload's jobs), so the statistic
    does not change with how many passes fit in ``--seconds``.  Medians over
    repeats keep host noise out of it, which the maximum of single runs
    would mostly measure.
    """
    per_job: dict = {}
    for r in runs:
        per_job.setdefault(r.job.job_id, []).append(r.scaled)
    return len(per_job), max(statistics.median(times) for times in per_job.values())


def end_to_end(runs: list, first_pass: list, setup_s: float,
               configured_steps: int) -> tuple[dict, dict]:
    """End-to-end metrics; times are scaled to reference host speed."""
    done = [r for r in runs if not r.failed]
    certs = certificates(first_pass)
    tail_jobs, tail_s = tail(done)
    problems = sum(r.job.n_problems for r in done)
    metrics = {
        "setup_s": setup_s,
        "verify_s.p50": statistics.median(r.scaled for r in done),
        "verify_s.tail": tail_s,
        "problems_per_s": problems / sum(r.scaled for r in done),
        "gap.mean": statistics.fmean(
            c["metadata"]["objective_bound"] - c["metadata"]["attack_value"] for c in certs
        ),
        "verified_frac": statistics.fmean(1.0 if c["verified"] else 0.0 for c in certs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "jobs": len(runs),
        "tail_jobs": tail_jobs,
        "failed_frac": (len(runs) - len(done)) / len(runs),
        "early_stop_frac": early_stop_frac(certs, configured_steps),
        "problems": len(certs),
        "margin_mean": statistics.fmean(c["bound"] for c in certs),
        "raw_p50_s": statistics.median(r.seconds for r in done),
        "raw_problems_per_s": problems / sum(r.seconds for r in done),
        "host_scale_median": statistics.median(r.scale for r in runs),
    }
    return metrics, info


def last_steps(certs: list[dict]) -> list[int]:
    """Adam steps each problem ran before it stopped."""
    return [max(entry["step"] for entry in c["trace"]) for c in certs]


def early_stop_frac(certs: list[dict], configured_steps: int) -> float:
    return sum(1 for s in last_steps(certs) if s < configured_steps) / len(certs)


def per_layer(all_spans: list, jobs: set, certs: list[dict], configured_steps: int,
              overhead: float) -> dict:
    """Layer metrics over the spans of the job runs tagged in ``jobs``."""
    children_s = [0.0] * len(all_spans)
    certify = [False] * len(all_spans)
    for i, span in enumerate(all_spans):
        if span.parent is not None:
            children_s[span.parent] += span.seconds
            parent = all_spans[span.parent]
            certify[i] = certify[span.parent] or parent.name == tracing.CERTIFY_SPAN
    spans = [(i, s) for i, s in enumerate(all_spans) if s.job in jobs]

    def total(name, self_time=False):
        return sum(s.seconds - (children_s[i] if self_time else 0.0)
                   for i, s in spans if s.name == name)

    def calls(name):
        return sum(1 for _, s in spans if s.name == name)

    metrics = {
        "cli.verify.self_s": total(tracing.ROOT_SPAN, self_time=True),
        "model.load_model.s": total("model.load_model"),
        "specs.build_problem.s": total("specs.build_problem"),
        "jsonio.encode_reals.s": total("jsonio.encode_reals"),
        "bounds.propagate_intervals.calls": calls("bounds.propagate_intervals"),
        "bounds.propagate_intervals.s": total("bounds.propagate_intervals"),
        "dual.optimize.calls": calls("dual.optimize"),
        "dual.optimize.self_s": total("dual.optimize", self_time=True),
        "dual.certify.calls": calls(tracing.CERTIFY_SPAN),
        "dual.certify.self_s": total(tracing.CERTIFY_SPAN, self_time=True),
    }
    steps = last_steps(certs)
    certified = [[e["certified_value"] for e in c["trace"] if e["certified_value"] is not None]
                 for c in certs]
    useful = 0
    for values in certified:
        best = math.inf
        for v in values:
            if v < best:
                useful += 1
                best = v
    metrics["dual.steps"] = sum(steps)
    metrics["dual.early_stop_frac"] = early_stop_frac(certs, configured_steps)
    metrics["dual.certify_useful_frac"] = useful / sum(len(v) for v in certified)
    for qualified in tracing.INNER_SOLVERS:
        name = f"inner.{qualified}"
        mine = [(i, s) for i, s in spans if s.name == name]
        metrics[f"{name}.train_calls"] = sum(1 for i, _ in mine if not certify[i])
        metrics[f"{name}.train_s"] = sum(s.seconds for i, s in mine if not certify[i])
        metrics[f"{name}.certify_calls"] = sum(1 for i, _ in mine if certify[i])
        metrics[f"{name}.certify_s"] = sum(s.seconds for i, s in mine if certify[i])
    metrics["inner.softmax_exact.assignments"] = sum(
        3 ** s.width for _, s in spans if s.name == tracing.EXACT_SOFTMAX_SPAN and s.width
    )
    for mode in ("exact", "upper_bound", "heuristic_lower"):
        metrics[f"inner.result.{mode}"] = sum(1 for _, s in spans if s.mode == mode)
    metrics["oracle.sample_lower_bound.calls"] = calls("oracle.sample_lower_bound")
    metrics["oracle.sample_lower_bound.s"] = total("oracle.sample_lower_bound")
    metrics["trace.overhead_frac"] = overhead
    return metrics


def job_counts(spans: list) -> dict:
    """Per job run: calls of each span name, result modes and softmax widths."""
    counts: dict = {}
    for span in spans:
        seen = counts.setdefault(span.job, {})
        for key, n in ((span.name, 1), (f"mode {span.mode}", 1), ("widths", span.width or 0)):
            seen[key] = seen.get(key, 0) + n
    return counts


def count_mismatches(spans: list) -> list[str]:
    """Repeat runs of a job must make exactly the calls its first run made."""
    counts = job_counts(spans)
    mismatches = []
    for tag, seen in counts.items():
        job_id, repeat = tag.rsplit("#", 1)
        if repeat != "0" and seen != counts.get(f"{job_id}#0"):
            mismatches.append(f"{job_id}: traced repeat {repeat} made different calls")
    return mismatches


def git_commit() -> str:
    # the ceiling keeps git from reporting a repository that merely encloses ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pin": BLAS_PIN,
        "commit": git_commit(),
    }


def require_completed(first_pass: list) -> None:
    if all(r.failed for r in first_pass):
        fail("no job completed, so no metric can be computed")


# what a metric raises on an output that failed the gates: missing fields,
# non-finite reals, no certificate left to average
METRIC_ERRORS = (KeyError, TypeError, ValueError, ZeroDivisionError,
                 statistics.StatisticsError)


def unmeasurable(violations: list, runs: list) -> int:
    """Report gate violations whose outputs leave no metric to compute."""
    for v in violations:
        print(f"gate violation: {v}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": len(runs),
                      "failed": sum(1 for r in runs if r.failed), "metrics": {}}))
    return 1


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def report(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name:<58} {value:>14.6g} {unit}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_PIN)
    cli = import_cli()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = OUT_DIR / "work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(cli, workloads, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, workloads, args, workdir: Path) -> int:
    workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
    jobs = workload.jobs[: args.jobs] if args.jobs else workload.jobs
    setup_s, raw_setup_s = measure_setup(workload.setup_model)
    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload.name}: {len(jobs)} jobs, {sum(j.n_problems for j in jobs)} "
          f"problems per pass, seed {args.seed}, trace {args.trace}")

    start = time.perf_counter()
    deadline = start + args.seconds
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "env": env}
    notes = {}
    if args.trace == 0:
        section = "end_to_end"
        runs = run_loop(cli, workload, jobs, args.seed, workdir, deadline)
        first = runs[: len(jobs)]
        require_completed(first)
        violations = gate_violations(first, runs[len(jobs):])
        try:
            metrics, info = end_to_end(runs, first, setup_s, workload.steps)
        except METRIC_ERRORS:
            if not violations:
                raise
            return unmeasurable(violations, runs)
        notes["verify_s.tail"] = (f"  (slowest of {info['tail_jobs']} per-job medians, "
                                  f"{info['jobs']} job runs)")
        info["raw_setup_s"] = raw_setup_s
        extra = [("margin.mean", info["margin_mean"], "objective", "  (unbounded: may be <= 0)"),
                 ("raw.setup_s", raw_setup_s, "s", "  (unscaled wall time)"),
                 ("raw.verify_s.p50", info["raw_p50_s"], "s", "  (unscaled wall time)"),
                 ("raw.problems_per_s", info["raw_problems_per_s"], "1/s", "  (unscaled)"),
                 ("host.scale", info["host_scale_median"], "ratio",
                  "  (median factor to reference speed)"),
                 ("failed_frac", info["failed_frac"], "ratio", "  (also in 'failed')"),
                 ("early_stop_frac", info["early_stop_frac"], "ratio", "")]
        record["info"] = info
    else:
        section = "per_layer"
        untraced = run_loop(cli, workload, jobs, args.seed, workdir, start)
        require_completed(untraced)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_loop(cli, workload, jobs, args.seed, workdir, deadline, tracer)
        finally:
            tracer.uninstall()
        runs = untraced + traced
        violations = gate_violations(untraced, traced)
        violations.extend(count_mismatches(tracer.spans))
        overhead = (sum(r.scaled for r in traced[: len(jobs)])
                    / sum(r.scaled for r in untraced) - 1.0)
        first_pass = {f"{j.job_id}#0" for j in jobs}
        try:
            metrics = per_layer(tracer.spans, first_pass, certificates(untraced),
                                workload.steps, overhead)
        except METRIC_ERRORS:
            if not violations:
                raise
            return unmeasurable(violations, runs)
        # span times include probe samples, so shares are of root-span time too
        traced_s = sum(s.seconds for s in tracer.spans
                       if s.name == tracing.ROOT_SPAN and s.job in first_pass)
        extra = [(f"share.inner.{q}", (metrics[f"inner.{q}.train_s"]
                                       + metrics[f"inner.{q}.certify_s"]) / traced_s,
                  "ratio", "  (of traced job time)")
                 for q in tracing.INNER_SOLVERS]
        extra = [e for e in extra if e[1] > 0.0]
        if tracer.absent:
            print(f"absent (0 calls): {', '.join(tracer.absent)}")
        record["absent"] = tracer.absent
        (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / "results" / f"{workload.name}-seed{args.seed}.spans.json"
        spans_path.write_text(json.dumps(tracing.to_jsonable(tracer.spans)))

    units = declared_units(section)
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} differ from {BENCHMARK.name}")
    for name, value in metrics.items():
        report(name, value, units[name], notes.get(name, ""))
    for line in extra:
        report(*line)
    for v in violations:
        print(f"gate violation: {v}", file=sys.stderr)
    result = {
        "correct": not violations,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record.update(result, violations=violations,
                  job_runs=[{"job": r.job.job_id, "seconds": r.seconds, "scale": r.scale,
                             "code": r.code, "failed": r.failed} for r in runs])
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
