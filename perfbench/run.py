"""fsdg benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload train-lft --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced run.  The
last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records the environment,
checkpoint digests and accuracies.  See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, fixed before NumPy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import yardstick  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("train-lft", "train-ft", "eval-heads")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="fsdg benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, for the benchmark's own tests")
    return ap.parse_args(argv)


def import_fsdg():
    """Import fsdg from this checkout's src/, never from anywhere else."""
    if not (SRC / "fsdg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fsdg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fsdg
    if SRC not in Path(fsdg.__file__).resolve().parents:
        raise SystemExit(f"perfbench: fsdg imported from {fsdg.__file__}, not {SRC}")
    return fsdg


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


class Speed:
    """Converts the time of a piece of work to the yardstick's nominal
    machine speed, using yardstick passes just before and just after it."""

    def __init__(self):
        self.last = yardstick.measure()
        self.readings = [self.last]

    def factor(self) -> float:
        now = yardstick.measure()
        self.readings.append(now)
        factor = yardstick.NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        return factor


def timing(chunks: list[tuple[int, float, list[float]]], setup_s: list[float]) -> dict:
    """Each chunk's rate and per-step percentiles, then the median over
    chunks: a chunk that straddles a change of machine speed cannot then
    set the tail on its own.  ``chunks`` holds (steps, busy_s, step_s)."""
    return {
        "steps_per_s": (statistics.median(n / busy for n, busy, _ in chunks), "1/s"),
        "step_ms_p50": (1e3 * statistics.median(statistics.median(s) for _, _, s in chunks), "ms"),
        "step_ms_p95": (1e3 * statistics.median(percentile(s, 95) for _, _, s in chunks), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
    }


def run_untraced(wl, seconds: float, sizes) -> tuple[dict, dict, int, int]:
    """Set up ``sizes.setups`` times, then run chunks until the time is up.

    Returns speed-adjusted metrics, the unadjusted timings with the chunk
    and step counts, and the attempted and failed step counts.
    """
    speed = Speed()
    setup_raw, setup_adj = [], []
    for _ in range(sizes.setups):
        t0 = perf_counter()
        wl.set_up()
        setup_raw.append(perf_counter() - t0)
        setup_adj.append(setup_raw[-1] * speed.factor())

    attempted = failed = 0
    raw, adjusted = [], []
    deadline = perf_counter() + seconds
    index = 0
    while True:
        try:
            chunk = wl.chunk(index)
        except Exception:
            traceback.print_exc()
            attempted, failed = attempted + wl.chunk_steps, failed + wl.chunk_steps
            break
        factor = speed.factor()
        attempted += chunk.steps
        raw.append((chunk.steps, chunk.busy_s, chunk.step_s))
        adjusted.append((chunk.steps, chunk.busy_s * factor, [t * factor for t in chunk.step_s]))
        index += 1
        if perf_counter() >= deadline:
            break
    if not raw:
        return {}, {}, attempted, failed
    metrics = timing(adjusted, setup_adj)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    info = {k: v for k, (v, _) in timing(raw, setup_raw).items()}
    info["yardstick_ms_p50"] = 1e3 * statistics.median(speed.readings)
    info["chunks"] = len(raw)
    info["steps"] = sum(n for n, _, _ in raw)
    return metrics, info, attempted, failed


def run_traced(fsdg, wl, seconds: float, verify):
    """Set up and verify under the tracer; in between, run each timed
    chunk twice from the same state, untraced and then traced, until the
    time is up.  The two runs of a chunk must produce identical outputs."""
    import layers

    tracer = layers.make_tracer(fsdg)
    per_call, per_step = layers.Profile(), layers.Profile()
    speed = Speed()
    with tracer:
        wl.set_up()
    per_call.fold(*tracer.drain(), scale=speed.factor())

    plain_s = traced_s = 0.0
    attempted = failed = 0
    deadline = perf_counter() + seconds
    index = 0
    while True:
        start = wl.state()
        try:
            t0 = perf_counter()
            plain = wl.chunk(index)
            plain_s += (perf_counter() - t0) * speed.factor()
            wl.restore(start)
            with tracer:
                t0 = perf_counter()
                traced = wl.chunk(index)
                elapsed = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            tracer.drain()
            attempted, failed = attempted + wl.chunk_steps, failed + wl.chunk_steps
            break
        factor = speed.factor()
        traced_s += elapsed * factor
        per_step.fold(*tracer.drain(), traced.steps, scale=factor)
        attempted += plain.steps + traced.steps
        if plain.output != traced.output:
            print(f"perfbench: chunk {index} differs when traced", file=sys.stderr)
            failed += traced.steps
        index += 1
        if perf_counter() >= deadline:
            break
    with tracer:
        info = verify()
    per_call.fold(*tracer.drain(), scale=speed.factor())
    overhead = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0
    return layers.per_layer(per_step, per_call, overhead), info, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    fsdg = import_fsdg()
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        wl = workloads.make(args.workload, args.seed, sizes, workdir)

        def verify() -> dict:
            try:
                return wl.verify(workdir)
            except workloads.CheckFailed as err:
                print(f"perfbench: check failed: {err}", file=sys.stderr)
                return {"check_failed": str(err)}

        if args.trace:
            metrics, info, attempted, failed = run_traced(
                fsdg, wl, args.seconds, verify)
        else:
            metrics, raw, attempted, failed = run_untraced(wl, args.seconds, sizes)
            info = verify()
            info["unadjusted"] = raw
    correct = not failed and bool(metrics) and "check_failed" not in info
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "environment": environment(), "outputs": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
