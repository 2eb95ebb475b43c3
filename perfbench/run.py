"""The twistnets benchmark: one workload in one process, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload circular_pcen --seed 1 --seconds 20 --trace 0

``--trace 0`` runs tasks back to back (closed loop, one thread) for
``--seconds`` and reports the end-to-end metrics of BENCHMARK.json, with
task and set-up times in reference seconds (see calibration.py).
``--trace 1`` alternates untraced and traced runs of the same tasks for
``--seconds``, then probes the remaining layers, and reports the per-layer
metrics.  Every task's output is checked.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACES = os.path.join(ROOT, "perfbench", "traces")
SETUPS = 5          # set-ups per timed run: this process plus SETUPS - 1 fresh ones
SETUP_CAL_RUNS = 50  # calibration kernel runs that scale each set-up time
P90_MIN_TASKS = 100
# most unspanned time the traced tasks may hold: a share of their time, plus
# an allowance per span for the tracer's and the gate's own bookkeeping
GLUE_SHARE, GLUE_PER_SPAN_S = 0.015, 15e-6


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in benchmark()["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=benchmark()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print the set-up time and exit")
    return ap.parse_args(argv)


def setup(name, seed, workdir):
    """Import the library, make the inputs and run one warm-up task.

    Returns the set-up time in reference seconds (see calibration.py), the
    workload, the warm-up task's gate and its wall time.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import twistnets
    if not os.path.abspath(twistnets.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"twistnets imported from {twistnets.__file__}, not {SRC}")
    import workloads
    from tracing import NullTracer
    wl = workloads.Workload(name, seed, workdir)
    warm = workloads.Gate()
    t1 = time.perf_counter()
    wl.run(0, NullTracer(), warm)
    t2 = time.perf_counter()
    import calibration
    ref_s = calibration.run(SETUP_CAL_RUNS) * calibration.REF_RUNS
    return (t2 - t0) / ref_s, wl, warm, t2 - t1


def fresh_setups(args, count):
    """Set-up times of ``count`` fresh processes, one after another."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(count):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=150, check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


def timed_run(wl, gate, seconds, cal_runs):
    """Tasks back to back for ``seconds``, with ``cal_runs`` runs of the
    calibration kernel before and after each.

    Returns each task's wall time and the mean kernel time around it.
    """
    import calibration
    from tracing import NullTracer
    null = NullTracer()
    gc.collect()
    times, cal = [], [calibration.run(cal_runs)]
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        wl.run(i, null, gate)
        times.append(time.perf_counter() - t0)
        cal.append(calibration.run(cal_runs))
        i += 1
    return times, [(a + b) / 2 for a, b in zip(cal, cal[1:])]


def traced_run(wl, gate, seconds):
    """Alternate untraced and traced runs of each task for ``seconds``.

    Returns the tracer and the (untraced, traced) wall time of every task.
    """
    from tracing import NullTracer, Tracer
    null, tr = NullTracer(), Tracer()
    pairs = []
    start = time.perf_counter()
    i = 1
    while time.perf_counter() - start < seconds or len(pairs) < 2:
        walls = {}
        for traced in ((False, True) if i % 2 else (True, False)):
            t0 = time.perf_counter()
            if traced:
                with tr.task_scope(i):
                    wl.run(i, tr, gate)
            else:
                wl.run(i, null, gate)
            walls[traced] = time.perf_counter() - t0
        pairs.append((i, walls[False], walls[True]))
        i += 1
    return tr, pairs


def self_time_check(tr):
    """Self time per span name, per task, of the workload's traced tasks; the
    share of their time that lies outside every library and check span; and
    the most that share may be.

    Self times add up to each task's root span by construction; the root's
    own self time is the benchmark's unspanned glue.  A library call left
    without a span would show up there, so the run is marked incorrect when
    the glue exceeds GLUE_SHARE of the tasks' time plus GLUE_PER_SPAN_S per
    span.
    """
    per_name, tasks = {}, set()
    glue = total = 0.0
    spans = 0
    for (name, start, end, parent, task, calls), s in zip(tr.spans, tr.self_times()):
        if isinstance(task, int):
            tasks.add(task)
            spans += 1
            per_name[name] = per_name.get(name, 0.0) + s
            if parent is None:
                glue += s
                total += end - start
    limit = GLUE_SHARE + GLUE_PER_SPAN_S * spans / total
    return {k: 1e3 * v / len(tasks) for k, v in per_name.items()}, glue / total, limit


def overhead(pairs):
    """Median over task pairs of traced over untraced wall time, minus one,
    and the standard error of that median, from the pairs' spread."""
    ratios = [t / u - 1.0 for _, u, t in pairs]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return statistics.median(ratios), 0.93 * (q3 - q1) / len(ratios) ** 0.5


def per_layer(gate, probe_gate, tr, pairs, glue_frac):
    from layers import span_metrics
    spans = span_metrics(tr)
    tasks = [t for t, _, _ in pairs]
    linalg = {g: sum(tr.counts[t][g] for t in tasks) / len(tasks)
              for g in ("svd", "lstsq", "other")}

    def residual(layer):
        return gate.residual.get(layer, probe_gate.residual.get(layer))

    coins = gate if gate.tally.get("touching_coins_check") else probe_gate
    values = {
        "linalg.svd.calls_per_task": linalg["svd"],
        "linalg.lstsq.calls_per_task": linalg["lstsq"],
        "linalg.other.calls_per_task": linalg["other"],
        "nets.max_residual": residual("nets"),
        "contact.max_residual": residual("contact"),
        "lie.coins_rejected_frac": coins.rejected_frac(),
        "cli.doc_bytes_per_task": statistics.mean(gate.doc_bytes or probe_gate.doc_bytes),
        "trace.overhead_frac": overhead(pairs)[0],
        "trace.glue_frac": glue_frac,
    }
    scale = {"us": 1e6, "ms": 1e3}
    for name, unit in metric_units("per_layer").items():
        if name not in values:
            values[name] = spans[name.rsplit(".", 1)[0]] * scale[unit]
    return values


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units(kind):
    return {m["name"]: m["unit"] for m in benchmark()[kind]}


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment():
    import numpy
    pkg = os.path.join(SRC, "twistnets")
    loc = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                loc += fh.read().count(b"\n")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_loc": loc,
    }


def report_failures(gate):
    for label, (attempted, failed) in sorted(gate.tally.items()):
        if failed:
            print(f"  {label}: {failed} of {attempted} failed")
    for reason, count in gate.reasons.most_common():
        print(f"  reason x{count}: {reason}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twistnets", "__init__.py")):
        print(f"error: no twistnets sources under {SRC}", file=sys.stderr)
        return 2
    # one thread per workload: keep BLAS from starting its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s, wl, warm, warm_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup_s)
            return 0
        import workloads
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        gate = workloads.Gate()
        if args.trace:
            metrics, correct = traced(args, wl, gate, warm, env)
        else:
            metrics, correct = timed(args, wl, gate, warm, warm_s, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report_failures(gate)
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


def timed(args, wl, gate, warm, warm_s, setup_s):
    import calibration
    # calibrate for about 5% of each task's time
    cal_runs = max(1, round(0.05 * warm_s / calibration.run(20)))
    times, cal = timed_run(wl, gate, args.seconds, cal_runs)
    setups = [setup_s] + fresh_setups(args, SETUPS - 1)
    # task times in reference seconds, each scaled by the kernel time around it
    ref = [t / (c * calibration.REF_RUNS) for t, c in zip(times, cal)]
    values = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(times) / sum(ref),
        "task_ms_p50": 1e3 * statistics.median(ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = metric_units("end_to_end")
    print(f"{args.workload} seed {args.seed}: {len(times)} tasks in {sum(times):.2f} s, "
          f"calibration kernel {1e6 * statistics.median(cal):.1f} us x {cal_runs} per task")
    for name, unit in units.items():
        print(f"  {name:<12} {values[name]:12.4f} {unit}")
    if len(times) >= P90_MIN_TASKS:
        p90 = 1e3 * statistics.quantiles(ref, n=10)[8]
        print(f"  {'task_ms_p90':<12} {p90:12.4f} ref_ms (n={len(times)})")
    else:
        print(f"  task_ms_p90  omitted: {len(times)} tasks < {P90_MIN_TASKS}")
    print(f"  {'fail_frac':<12} {gate.failed / gate.attempted:12.4f} ratio "
          f"({gate.failed} of {gate.attempted} operations)")
    if gate.known:
        print(f"  known coin rejections, counted apart: {gate.known} "
              f"({gate.known / gate.attempted:.4f} of operations, "
              f"{gate.rejected_frac():.4f} of coin checks)")
    print(f"  wall clock: {len(times) / sum(times):.4f} tasks/s, "
          f"p50 {1e3 * statistics.median(times):.4f} ms")
    print("  setup samples: " + " ".join(f"{s:.4f}" for s in setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, gate.wrong == 0 and warm.wrong == 0


def traced(args, wl, gate, warm, env):
    import layers
    import workloads
    tr, pairs = traced_run(wl, gate, args.seconds)
    self_ms, glue_frac, glue_max = self_time_check(tr)
    probe_gate = workloads.Gate()
    layers.probe(wl, tr, probe_gate, args.seed)
    values = per_layer(gate, probe_gate, tr, pairs, glue_frac)
    over, err = overhead(pairs)
    print(f"{args.workload} seed {args.seed}: {len(pairs)} task pairs, untraced and traced")
    print(f"  self time per task (ms), {len(pairs)} traced tasks:")
    for name, ms in sorted(self_ms.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<36} {ms:10.3f}")
    glue_ok = glue_frac <= glue_max
    print(f"  self-time check: {100 * glue_frac:.3f}% of task time outside any span, "
          f"limit {100 * glue_max:.3f}%: {'ok' if glue_ok else 'FAILED'}")
    print(f"  trace.overhead_frac {over:+.4f} +- {err:.4f} (median of {len(pairs)} pairs"
          f"{', within noise' if abs(over) < 2 * err else ''})")
    if probe_gate.failed:
        print("  probe:")
        report_failures(probe_gate)
    units = metric_units("per_layer")
    os.makedirs(TRACES, exist_ok=True)
    tr.write(os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json"),
             {"workload": args.workload, "seed": args.seed, "env": env,
              "pairs": pairs, "metrics": values})
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    correct = (gate.wrong == 0 and warm.wrong == 0 and probe_gate.wrong == 0 and glue_ok)
    return metrics, correct


if __name__ == "__main__":
    sys.exit(main())
