"""Layer benchmark for duffspec.

    python3 perfbench/run.py --workload lineshape --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: the program is imported from
``src/``, never from an installed copy, and the run fails without it.
One process runs the workload; only the ``--workers 2`` sweep of
``readme-cli`` starts two worker processes, and each set-up measurement
starts one fresh interpreter.  BLAS and OpenMP are pinned to one thread.

The run repeats whole passes of the workload until ``--seconds`` have
passed and reports medians over the passes.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for the workloads and the metrics.
"""

import os

# Pinned before numpy loads OpenBLAS; the sweep's worker processes inherit it.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SPANS = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("lineshape", "readme-cli", "large-truncation")
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_RUNS = 5
# The end-to-end job metrics are the workload's three jobs, in its order.
JOB_METRICS = ("job1_s", "job2_s", "job3_s")

_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import duffspec; exec(sys.argv[2], {})"


def parse_args(argv):
    ap = argparse.ArgumentParser(description="duffspec layer benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True, help="picks the checked cells")
    ap.add_argument("--seconds", type=float, required=True, help="run whole passes this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def environment():
    import mpmath
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numba_importable": numba_importable,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ[k] for k in PINNED_THREADS},
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
    }


def measure_setup(warmup):
    """Median time of a fresh interpreter importing duffspec and warming up.

    Each start is timed from this process and scaled to reference speed by
    the probes taken just before and after it.
    """
    times = []
    before = speed.settled_probe()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", _CHILD, str(SRC), warmup],
            cwd=ROOT,
            check=True,
            capture_output=True,
            timeout=120,
        )
        seconds = time.perf_counter() - start
        after = speed.settled_probe()
        times.append(speed.at_reference_speed(seconds, 0.5 * (before + after)))
        before = after
    return statistics.median(times)


@dataclass
class Context:
    workdir: str
    clock: speed.Clock
    pause: object  # context manager factory: no tracing, no probing


@dataclass
class Pass:
    timings: dict  # job -> measured seconds in program calls
    probes: dict  # job -> probe seconds while it ran
    ops: list
    accuracy: dict  # per-layer metrics measured by the steps


def run_pass(workload, workdir, tracer=None):
    clock = speed.Clock()

    @contextlib.contextmanager
    def pause():
        with clock.quiet(), tracer.paused() if tracer else contextlib.nullcontext():
            yield

    ctx = Context(workdir, clock, pause)
    timings, probes, ops, accuracy = {}, {}, [], {}
    with clock.sampling():
        with clock.quiet():
            before = speed.settled_probe()
        for step in workload.steps():
            first = len(clock.samples)
            result = step(ctx)
            with clock.quiet():
                after = speed.settled_probe()
            ticks = clock.samples[first:]
            timings[result.job] = result.seconds
            if len(ticks) >= speed.MIN_SAMPLES:
                probes[result.job] = statistics.median(ticks)
            else:
                probes[result.job] = 0.5 * (before + after)
            before = after
            ops += result.ops
            for key, value in result.accuracy.items():
                if key == "sweep.bytes_written":
                    accuracy[key] = accuracy.get(key, 0) + value
                else:
                    accuracy[key] = max(accuracy.get(key, 0.0), float(value))
    return Pass(timings, probes, ops, accuracy)


def run_passes(workload, workdir, seconds, trace):
    """Whole passes until ``seconds`` have passed; traced ones alternate in."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(untraced) > len(traced):
            tracer = tracing.Tracer()
            with tracer:
                traced.append((run_pass(workload, workdir, tracer), tracer))
        else:
            untraced.append(run_pass(workload, workdir))
        if time.perf_counter() - start >= seconds and (traced or not trace):
            return untraced, traced


def tally(results):
    """(operations, failed ones, correct): correct unless an unknown fault failed."""
    ops = [op for r in results for op in r.ops]
    failed = [op for op in ops if not op.ok]
    return ops, failed, all(op.known_fault for op in failed)


def pass_seconds(p, job=None):
    """A pass's time in one job, or in all of them, at reference speed."""
    jobs = [job] if job else list(p.timings)
    return sum(speed.at_reference_speed(p.timings[j], p.probes[j]) for j in jobs)


def end_to_end(workload, untraced, setup_s):
    med = statistics.median
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (med(pass_seconds(p) for p in untraced), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    for metric, job in zip(JOB_METRICS, workload.JOBS):
        metrics[metric] = (med(pass_seconds(p, job) for p in untraced), "s")
    return metrics


def per_layer(untraced, traced):
    samples = []
    for result, tracer in traced:
        totals = tracing.layer_totals(tracer.spans)
        totals.update(result.accuracy)
        samples.append(totals)
    med = statistics.median
    overhead = med(pass_seconds(r) for r, _ in traced) - med(pass_seconds(p) for p in untraced)
    metrics = {}
    for name, unit in tracing.LAYER_METRICS:
        # Accuracy gauges and bytes a workload never measures read 0.
        value = overhead if name == "trace.overhead_s" else med(s.get(name, 0) for s in samples)
        metrics[name] = (value, unit)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "duffspec" / "__init__.py").is_file():
        print(f"perfbench: no duffspec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import duffspec

    if SRC not in Path(duffspec.__file__).resolve().parents:
        print(f"perfbench: duffspec imported from {duffspec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    print("environment " + json.dumps(environment(), sort_keys=True))
    setup_s = None if args.trace else measure_setup(workload.WARMUP)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload.prepare(np.random.default_rng(args.seed))
        exec(workload.WARMUP, {})
        untraced, traced = run_passes(workload, str(workdir), args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    results = untraced + [r for r, _ in traced]
    ops, failed, correct = tally(results)
    seen = set()
    for op in failed:
        kind = "failed (known fault)" if op.known_fault else "failed"
        line = f"{kind}: {op.name}: {'; '.join(op.problems)}"
        if line not in seen:
            seen.add(line)
            print(line)
    for metric, job in zip(JOB_METRICS, workload.JOBS):
        print(f"{metric} is {job}")
    for k, r in enumerate(results):
        kind = "untraced" if k < len(untraced) else "traced"
        print(
            f"pass {k + 1} ({kind}), measured s / probe s: "
            + ", ".join(f"{j} {t:.4f} / {r.probes[j]:.4f}" for j, t in r.timings.items())
        )

    if args.trace:
        metrics = per_layer(untraced, traced)
        SPANS.mkdir(exist_ok=True)
        traced[-1][1].write(SPANS / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(workload, untraced, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    report = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
