"""msbls benchmark: one workload, closed loop, checked outputs, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-inproc --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unpatched.
``--trace 1`` first runs untraced ops for half the time, then traced ops for
the other half, and reports the per-layer metrics plus the tracing overhead;
its spans go to ``perfbench/out/``. ``--size smoke`` shrinks every input so
that each workload runs once in about a second. The metric names and units
come from BENCHMARK.json; the last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 2  # same on both sides of any comparison; capped at nproc


@dataclass
class Record:
    index: int
    seconds: float
    outcome: object


def pin_blas_threads() -> int:
    """Fix the BLAS pool size before numpy loads its BLAS library."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_program():
    """Import msbls from this checkout's ``src``, and from nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import msbls

    if Path(msbls.__file__).resolve().parent != ROOT / "src" / "msbls":
        raise ImportError(f"msbls imported from {msbls.__file__}, not from {ROOT / 'src'}")


def blas_libraries() -> list[dict]:
    """The loaded OpenBLAS builds with their configuration and thread count."""
    import ctypes

    paths = []
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found.append(info)
    return found


def environment(threads: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads_set": threads,
        "blas_libraries": blas_libraries(),
        "loadavg_start": list(os.getloadavg()),
    }


def timed_loop(workload, seconds: float, first: int, min_ops: int, tracer=None) -> list[Record]:
    """Closed loop with one caller: run ops until their summed time reaches
    ``seconds`` and at least ``min_ops`` ran; check each outside the timed
    region."""
    from workloads import Outcome

    records: list[Record] = []
    busy = 0.0
    i = first
    while busy < seconds or len(records) < min_ops:
        if tracer is not None:
            tracer.op = i
            tracer.install(workload.standing_endpoints())
        result, error = None, None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.op(i)
            else:
                with tracer.span("experiment.op"):
                    result = workload.op(i)
        except Exception as exc:  # a failed op is counted, never fatal
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            tracer.op = None
        busy += elapsed
        if error is not None:
            outcome = Outcome(problems=[f"op raised {type(error).__name__}: {error}"])
        else:
            try:
                outcome = workload.check(i, result, traced=tracer is not None)
            except Exception as exc:
                outcome = Outcome(problems=[f"check raised {type(exc).__name__}: {exc}"])
            if tracer is not None and workload.transport == "tcp":
                encoded = tracer.encoded_bytes(i)
                if encoded != outcome.seq_bytes:
                    outcome.problems.append(
                        f"transcript bytes {outcome.seq_bytes} != encoded frames {encoded}"
                    )
        del result
        records.append(Record(i, elapsed, outcome))
        i += 1
    return records


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def end_to_end(setups, records) -> dict:
    """Metric name -> (value, sample count), from the successful ops."""
    ok = [r for r in records if not r.outcome.problems]
    times = [r.seconds for r in ok]
    runs = [r.outcome.run_s if r.outcome.run_s is not None else r.seconds for r in ok]
    accuracy = {}
    for r in ok:
        accuracy.setdefault(r.outcome.input_id, r.outcome.accuracy)
    return {
        "setup_s": (median(setups), len(setups)),
        "run_s.p50": (median(runs), len(runs)),
        "batch_s.p50": (percentile(times, 50), len(times)),
        "batch_s.p90": (percentile(times, 90), len(times)),
        "rows_per_s": (sum(r.outcome.rows for r in ok) / sum(r.seconds for r in records), len(ok)),
        "wire_bytes": (median(r.outcome.wire_bytes for r in ok), len(ok)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "test_accuracy": (median(accuracy.values()), len(accuracy)),
    }


def run(args) -> int:
    threads = pin_blas_threads()
    os.environ.pop("MSBLS_DATA_DIR", None)  # the benchmark uses synthetic data only
    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    env = environment(threads)
    size = workloads.SMOKE if args.size == "smoke" else workloads.DESK
    workload = workloads.WORKLOADS[args.workload](args.seed, size)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    setups = []
    try:
        for _ in range(size.setup_repeats):
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                workload.setup()
            finally:
                setups.append(time.perf_counter() - start)
                if tracer is not None:
                    tracer.uninstall()
        once = workload.check_once()
        # The first op in a process pays one-off costs; it is checked, not timed.
        warmup = timed_loop(workload, 0.0, 0, 1)
        share = args.seconds / 2 if tracer is not None else args.seconds
        records = timed_loop(workload, share, 1, workload.min_ops())
        traced = []
        if tracer is not None:
            traced = timed_loop(workload, share, 1 + len(records), workload.min_ops(), tracer)
    finally:
        workload.close()

    everything = warmup + records + traced
    failed = [r for r in everything if r.outcome.problems]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    env["loadavg_end"] = list(os.getloadavg())
    print("env " + json.dumps(env))
    for problem in once:
        print(f"FAILED once-per-run check: {problem}")
    for r in failed:
        print(f"FAILED op {r.index}: " + "; ".join(r.outcome.problems))
    attempted = len(everything) + 1  # the ops plus the once-per-run session
    failures = len(failed) + (1 if once else 0)
    print(f"failed_frac {failures / attempted:.6g} ({failures} of {attempted})")

    ok_base = [r for r in records if not r.outcome.problems]
    ok_traced = [r for r in traced if not r.outcome.problems]
    if not ok_base or (tracer is not None and not ok_traced):
        print("no op passed its checks; no metrics", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = end_to_end(setups, records)
    else:
        layers, samples = spans.layer_metrics(
            tracer, [r.index for r in ok_traced], [r.outcome for r in ok_traced],
            [r.seconds for r in ok_traced], [r.seconds for r in ok_base],
        )
        metrics = {name: (value, samples.get(name, len(ok_traced))) for name, value in layers.items()}
        out = Path(args.spans_out) if args.spans_out else HERE / "out"
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    for name, unit in units.items():
        value, n = metrics[name]
        print(f"{name} {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failures,
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-inproc", "train-tcp", "train-pooled", "predict-tcp"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["desk", "smoke"], default="desk")
    parser.add_argument("--spans-out", default=None, help="directory for the traced run's spans")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
