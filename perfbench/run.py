"""hrrpgnn benchmark: end-to-end and per-layer timings of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train-501 --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops, prints the per-layer metrics plus the tracing
overhead, and writes every span to ``perfbench/out/``. ``--workload all``
runs the three workloads one after another, each in its own process. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
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
import traceback
from pathlib import Path

from tracing import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("train-501", "infer-io-501", "ablate-128")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Before every op the set-up runs as one burst, repeated until both minimums
# are met, so short set-ups get more samples. The host's speed shifts by up to
# 2x for seconds at a time; bursts spread over the whole run, each reduced to
# its mean, see the same mix of speeds as the ops do.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 0.2, 50
# One BLAS thread: on a 2-core machine two threads measured slower on
# ablate-128's small matrices and about doubled its run-to-run spread.
BLAS_THREADS = 1
MIN_TIMED_OPS = 2  # a traced run needs one untraced and one traced op

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("samples_per_s", "samples/s"),
    ("step_ms.p50", "ms"),
    ("step_ms.p90", "ms"),
)
# the job-level names each workload's generic metrics stand for
JOB_METRICS = {
    "train-501": (
        ("train.samples_per_s", "samples_per_s"),
        ("train.step_ms.p50", "step_ms.p50"),
        ("train.step_ms.p90", "step_ms.p90"),
        ("train.wall_s", "wall_s"),
    ),
    "infer-io-501": (
        ("eval.samples_per_s", "samples_per_s"),
        ("eval.cold_s", "read"),
        ("gen_data_s", "write"),
    ),
    "ablate-128": (("ablate.wall_s", "wall_s"),),
}
TRACE_OVERHEAD = (("trace.overhead_s", "s"), ("trace.overhead_pct", "%"))


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, blas_threads: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
        "seed": seed,
    }


def import_hrrpgnn():
    """hrrpgnn from this checkout's src/, never an installed copy."""
    package = ROOT / "src" / "hrrpgnn"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no hrrpgnn sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import hrrpgnn

    if Path(hrrpgnn.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported hrrpgnn from {hrrpgnn.__file__}, not {package}")
    return hrrpgnn


class StepClock:
    """Start and end of every model step, from thin wrappers on two methods.

    A training step runs from a training-mode ``GraphClassifier.forward_batch``
    call to the end of the ``Adam.step`` after it (forward, loss, backward,
    Adam). An eval step is one eval-mode ``forward_batch`` call, which is one
    ``evaluate`` chunk. The wrappers add at most three clock reads per step.
    """

    def __init__(self, hrrpgnn):
        self.events = []  # (training flag or None for Adam, start, end, batch size)
        self._classes = (hrrpgnn.GraphClassifier, hrrpgnn.Adam)
        forward, adam_step = hrrpgnn.GraphClassifier.forward_batch, hrrpgnn.Adam.step
        events = self.events

        @functools.wraps(forward)
        def forward_batch(model, amplitudes, training=False):
            start = time.perf_counter()
            out = forward(model, amplitudes, training)
            events.append((training, start, time.perf_counter(), len(amplitudes)))
            return out

        @functools.wraps(adam_step)
        def step(optimizer):
            adam_step(optimizer)
            events.append((None, 0.0, time.perf_counter(), 0))

        self._originals = (forward, adam_step)
        hrrpgnn.GraphClassifier.forward_batch = forward_batch
        hrrpgnn.Adam.step = step

    def close(self) -> None:
        self._classes[0].forward_batch, self._classes[1].step = self._originals

    def steps(self, kind: str) -> list[tuple[float, int]]:
        """(seconds, samples) of each step recorded since the events were cleared."""
        if kind == "eval":
            return [(end - start, n) for training, start, end, n in self.events if training is False]
        steps, pending = [], None
        for training, start, end, n in self.events:
            if training:
                pending = (start, n)
            elif training is None and pending is not None:
                steps.append((end - pending[0], pending[1]))
                pending = None
        return steps


def run_op(workload, clock, tracer, hrrpgnn, index: int, traced: bool) -> dict:
    clock.events.clear()
    out, problems = None, []
    if traced:
        tracer.op_id = index
        tracer.install(hrrpgnn)
    try:
        out = workload.op()
    except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
        problems.append("op raised: " + traceback.format_exc(limit=3).strip().replace("\n", " | "))
    finally:
        if traced:
            tracer.uninstall()
    steps = clock.steps(workload.step_kind)
    if out is not None:
        try:
            problems = workload.check(out)
        except Exception:  # noqa: BLE001 - a broken output may break the check itself
            problems.append("check raised: " + traceback.format_exc(limit=3).strip().replace("\n", " | "))
    for problem in problems:
        print(f"op {index} FAILED: {problem}", file=sys.stderr)
    timings = {k: v for k, v in (out or {}).items() if type(v) in (int, float)}
    return {"index": index, "traced": traced, "timings": timings, "steps": steps, "failed": bool(problems)}


def end_to_end(workload, ops: list[dict], setup_s: list[float], peak_rss_mb: float) -> dict:
    """Generic end-to-end metrics plus the job-level values, from completed timed ops."""
    done = [op for op in ops if op["timings"]]
    if not done:
        raise SystemExit("benchmark: no timed op completed")
    if workload.step_kind == "eval":
        throughput = [op["timings"]["samples"] / op["timings"]["evaluate"] for op in done]
    else:
        throughput = [sum(n for _, n in op["steps"]) / sum(s for s, _ in op["steps"]) for op in done]
    step_ms = sorted(s * 1e3 for op in done for s, _ in op["steps"])
    values = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "wall_s": statistics.median(op["timings"]["wall"] for op in done),
        "samples_per_s": statistics.median(throughput),
        "step_ms.p50": statistics.median(step_ms),
        "step_ms.p90": statistics.quantiles(step_ms, n=10)[-1] if len(step_ms) > 1 else step_ms[0],
    }
    for key in ("write", "read"):
        if key in done[0]["timings"]:
            values[key] = statistics.median(op["timings"][key] for op in done)
    values["n_steps"] = len(step_ms)
    return values


def per_layer(tracer, traced_ops: list[dict]) -> dict:
    stats, counters = tracer.per_op_stats()
    ids = [op["index"] for op in traced_ops]
    return {
        name: (statistics.median(fn(stats[i], counters[i]) for i in ids), unit)
        for name, unit, fn in PER_LAYER
    }


def setup_burst(workload) -> float:
    """Mean seconds of one set-up over one burst of repeats."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started)
    return statistics.fmean(times)


def run_workload(hrrpgnn, name: str, seed: int, seconds: float, trace: bool, shape=None, env=None):
    """Set up, warm up, run ops for ``seconds``; returns (result line dict, report dict)."""
    from workloads import SHIPPED, WORKLOADS  # imports numpy, so only after the BLAS pin

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[name](hrrpgnn, shape or SHIPPED[name], seed, workdir)
        setup_s = [setup_burst(workload)]
        clock, tracer = StepClock(hrrpgnn), Tracer() if trace else None
        ops = []
        try:
            # op 0 warms caches and the allocator: checked and counted, not timed
            ops.append(run_op(workload, clock, tracer, hrrpgnn, 0, False))
            # what one CLI invocation peaks at; later ops only add allocator
            # fragmentation, which varies from process to process
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            started, durations = time.perf_counter(), []
            # start another op only if a typical op still ends within the window
            while len(durations) < MIN_TIMED_OPS or (
                time.perf_counter() - started + statistics.median(durations) <= seconds
            ):
                index, op_started = len(ops), time.perf_counter()
                setup_s.append(setup_burst(workload))
                ops.append(run_op(workload, clock, tracer, hrrpgnn, index, trace and index % 2 == 0))
                durations.append(time.perf_counter() - op_started)
        finally:
            clock.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op["failed"] for op in ops)
    untraced = end_to_end(workload, [op for op in ops[1:] if not op["traced"]], setup_s, peak_rss_mb)
    report = {"workload": name, "environment": env, "ops": len(ops), "failed": failed, "untraced": untraced}
    if trace:
        traced_ops = [op for op in ops[1:] if op["traced"]]
        report["traced"] = end_to_end(workload, traced_ops, setup_s, peak_rss_mb)
        metrics = per_layer(tracer, traced_ops)
        overhead = report["traced"]["wall_s"] - untraced["wall_s"]
        values = (overhead, 100.0 * overhead / untraced["wall_s"])
        metrics.update({m: (v, unit) for (m, unit), v in zip(TRACE_OVERHEAD, values)})
        report["trace_file"] = write_trace(name, seed, report, tracer, metrics)
    else:
        metrics = {m: (untraced[m], unit) for m, unit in END_TO_END}
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return result, report


def write_trace(name: str, seed: int, report: dict, tracer, metrics: dict) -> str:
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    payload = {
        **report,
        "per_layer": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        "spans": tracer.span_records(),
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


def print_report(report: dict, result: dict) -> None:
    name = report["workload"]
    print(f"environment {json.dumps(report['environment'])}")
    print(
        f"{name}: {result['attempted']} ops (op 0 is the untimed warm-up), "
        f"{result['failed']} failed, failed share {result['failed'] / result['attempted']:.3f}"
    )
    for label in ("untraced", "traced"):
        if label not in report:
            continue
        values = report[label]
        print(f"{label} end-to-end ({values['n_steps']} steps):")
        for metric, unit in END_TO_END:
            print(f"  {metric:<22} {values[metric]:.6g} {unit}")
        for job_name, key in JOB_METRICS[name]:
            unit = dict(END_TO_END).get(key, "s")
            print(f"  {job_name:<22} {values[key]:.6g} {unit}")
    if "trace_file" in report:
        print(f"per-layer (median over traced ops; spans in {report['trace_file']}):")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:.6g} {entry['unit']}")


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory and warm-up stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="")
        if child.returncode != 0:
            print(f"benchmark: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)

    # pinned before numpy loads BLAS, so every run uses the same thread count
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    hrrpgnn = import_hrrpgnn()
    env = environment(args.seed, BLAS_THREADS)
    result, report = run_workload(
        hrrpgnn, args.workload, args.seed, args.seconds, bool(args.trace), env=env
    )
    print_report(report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
