"""Benchmark of nonholo: one workload run through ``nonholo.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.  One
process, one job at a time (closed loop, one client).  Each job is a
``nonholo`` command line with ``--check --out DIR --format csv,svg,json``; a
job fails when its exit code is not 0, its stdout JSON does not parse, a
declared check fails, or an artifact's sha256 differs from the first pass of
the same workload and seed in this checkout.

``--trace 0`` repeats passes over the job list while another pass fits in
``--seconds`` (at least one) and prints the end-to-end metrics.  ``--trace 1``
makes one untraced pass and two traced passes, prints the per-layer metrics
and the tracing overhead, and fails unless both traced passes give the same
counts.  The last stdout line is the JSON result.  Work files go to
``.perfbench_run/``.
"""

import os

# the benchmark machine has 2 cores: keep numpy's BLAS/OpenMP pools at 1 thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_geomean_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
JOB_FLAGS = ["--check", "--format", "csv,svg,json"]


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _declared_metrics(root):
    """Check BENCHMARK.json declares exactly the metrics this script prints."""
    path = root / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", tracing.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec.get(key, [])]
        if declared != list(ours):
            raise BenchError(f"BENCHMARK.json {key} does not match the metrics run.py prints")


def _setup_seconds(root, workload, seed, work):
    """Median wall time of fresh interpreters importing nonholo.cli and writing inputs."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for i in range(SETUP_PROBES):
        t0 = time.perf_counter()
        try:
            subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
                 str(work / f"probe{i}")],
                env=env, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL,
            )
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"set-up probe failed: {exc}") from exc
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _run_job(main, argv, out_dir):
    """One CLI run; returns (seconds, failure message or None, {artifact: sha256})."""
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, *JOB_FLAGS, "--out", str(out_dir)])
    except (Exception, SystemExit) as exc:  # a traceback or argparse exit is a failed job
        return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}", {}
    seconds = time.perf_counter() - t0
    if code != 0:
        return seconds, f"exit code {code}: {stderr.getvalue().strip()[:300]}", {}
    try:
        report = json.loads(stdout.getvalue())
    except json.JSONDecodeError as exc:
        return seconds, f"stdout is not JSON: {exc}", {}
    failed = [c["name"] for c in report.get("checks", []) if not c["pass"]]
    if not report.get("checks") or failed:
        return seconds, f"checks not passed: {failed or 'none declared'}", {}
    digests = {}
    for path in map(Path, report.get("outputs", [])):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return seconds, None, digests


def run_pass(main, jobs, out_root, reference, tracer=None):
    """One pass over the job list; returns job times, failures and artifact bytes."""
    times, failures, artifact_bytes = [], [], 0
    for name, argv in jobs:
        if tracer is not None:
            tracer.job = name
        out_dir = out_root / name
        seconds, failure, digests = _run_job(main, argv, out_dir)
        times.append(seconds)
        artifact_bytes += sum(p.stat().st_size for p in out_dir.glob("*")) if out_dir.is_dir() else 0
        if failure is None:
            expected = reference.setdefault(name, digests)
            if expected != digests:
                changed = sorted(k for k in set(expected) | set(digests)
                                 if expected.get(k) != digests.get(k))
                failure = f"artifacts differ from the first pass: {changed}"
        if failure is not None:
            failures.append(f"{name}: {failure}")
            print(f"FAILED {name}: {failure}", file=sys.stderr)
    return {"wall": sum(times), "times": times, "failures": failures,
            "artifact_bytes": artifact_bytes}


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _geomean(values):
    return math.exp(sum(map(math.log, values)) / len(values))


def timed_run(main, jobs, out_root, reference, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(main, jobs, out_root, reference))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            return passes


def traced_run(main, jobs, out_root, reference):
    untraced = run_pass(main, jobs, out_root, reference)
    tracer = tracing.Tracer()
    traced_main = tracer.install()
    traced, layers, counts = [], [], []
    for _ in range(2):
        tracer.reset()
        result = run_pass(traced_main, jobs, out_root, reference, tracer)
        traced.append(result)
        layers.append(tracer.layer_metrics(result["artifact_bytes"]))
        counts.append({k: layers[-1][k] for k in tracing.DETERMINISTIC_COUNTS})
    metrics = layers[-1]
    overhead = statistics.median(p["wall"] for p in traced) - untraced["wall"]
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced["wall"]
    mismatched = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
    return [untraced, *traced], metrics, mismatched, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description="nonholo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nonholo" / "cli.py").is_file():
        raise BenchError(f"no src/nonholo/cli.py under {root}; run from the repository root")
    _declared_metrics(root)
    sys.path.insert(0, str(src))
    from nonholo import cli

    if Path(cli.__file__).resolve().parent != (src / "nonholo").resolve():
        raise BenchError(f"imported nonholo from {cli.__file__}, not from {src}")

    base = Path(".perfbench_run")
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    # a fixed relative artifact directory keeps summary.json's paths, and so its hash, stable
    out_root = base / "out" / args.workload
    store = base / "hashes" / f"{args.workload}-{args.seed}.json"
    reference = json.loads(store.read_text()) if store.is_file() else {}
    try:
        jobs = workloads.write_inputs(args.workload, args.seed, work / "inputs")
        if args.trace:
            passes, metrics, mismatched, spans = traced_run(cli.main, jobs, out_root, reference)
            units = dict(tracing.PER_LAYER)
            (base / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(
                [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                 for n, s, e, p, _, j in spans]))
        else:
            setup_s = _setup_seconds(root, args.workload, args.seed, work)
            passes = timed_run(cli.main, jobs, out_root, reference, args.seconds)
            mismatched = []
            walls = [p["wall"] for p in passes]
            geomeans = [_geomean(p["times"]) for p in passes]
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(walls),
                "job_geomean_s": statistics.median(geomeans),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(out_root, ignore_errors=True)

    attempted = len(jobs) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    if failed == 0:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(reference, indent=1, sort_keys=True))
    for key in mismatched:
        print(f"FAILED counter self-check: {key} differs between traced passes", file=sys.stderr)
    correct = failed == 0 and not mismatched

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs/pass {len(jobs)}")
    if not args.trace:
        for name, values in (("wall_s", walls), ("job_geomean_s", geomeans)):
            q1, q2, q3 = _quartiles(values)
            print(f"  {name:40s} median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}")
        print(f"  {'fail_frac':40s} {failed / attempted:.4f} ratio  ({failed}/{attempted} jobs)")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
