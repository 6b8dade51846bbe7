"""Benchmark of the nnentropy package, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/workloads.json

Workloads (``perfbench/workloads.py``; their parameters and the share of
duplicate input rows are in ``perfbench/workloads.json``):

* ``csv-estimate``: in-process CLI ``entropy`` and ``mi`` on a 200k x 3 CSV,
  ``mi`` on a 2k x 3 CSV repeated for a p90, and the library accuracy set.
* ``cliffs``: ``renyi_mi`` on a rounded 100k x 3 sample (tie fallback) and
  ``renyi_entropy`` on a 3000 x 25 sample (exhaustive search).
* ``studies``: the README rate study and the paper-scale ISA study.

Each run imports the package from ``src/`` of the checkout, starts with an
empty gamma cache in a fresh directory and times its first pass as
``setup_s``, which includes every calibration the workload triggers. Later
passes are warm; they repeat for ``--seconds`` seconds (at least
``MIN_PASSES`` times) and give ``pass_cpu_s``, the median CPU time of a warm
pass summed over the process's threads, and ``pass_s``, its median wall time.
On a virtual machine whose host takes CPUs away for seconds at a time
(steal), wall time swings with the host's load; CPU time leaves stolen time
out, so ``pass_cpu_s`` is the gated pass metric and ``pass_s`` is reported
beside it. ``peak_rss_mb`` is read after the timed passes, before the
checks. Correctness checks run after the timed passes. Every operation and
check counts towards ``attempted``/``failed``.

With ``--trace 1`` the first pass and the second half of the warm passes run
with span wrappers installed (``perfbench/spans.py``); the first half runs
without them and gives the per-operation timings and the tracing overhead.
Per-layer metrics are named after the span they come from: ``<span>.s`` is
its total time in one pass, ``<span>.self_s`` that time minus its child
spans, ``<span>.calls`` its call count; other counts come from arguments and
return values. They are medians over the traced warm passes, except the
``calibration.*`` ones, which describe the first (cold) pass; layers a
workload never reaches read 0. The per-operation timings (``entropy_s``,
``isa_s``, ...), accuracy figures and ``fail_ratio`` are reported among them.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``
(end-to-end ones untraced, per-layer ones traced). The full result, with the
environment, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3


@dataclass
class PassResult:
    seconds: float
    cpu_seconds: float
    times: dict
    out: dict
    spans: list = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_package():
    """Import nnentropy from this checkout's ``src/`` and nowhere else."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc()))
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nnentropy

    if Path(nnentropy.__file__).resolve().parent != src / "nnentropy":
        raise ImportError(f"nnentropy imported from {nnentropy.__file__}, not from {src}")
    return nnentropy


def blas_threads() -> int | None:
    import numpy

    pattern = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "workers": -1,
        "platform": platform.platform(),
    }


def one_pass(workload, ledger, tracer=None) -> PassResult:
    from workloads import Pass

    p = Pass(ledger)
    if tracer is not None:
        tracer.install()
    try:
        start, cpu_start = time.perf_counter(), time.process_time()
        out = workload.run_pass(p)
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return PassResult(seconds, cpu_seconds, p.times, out, tracer.take() if tracer is not None else [])


def warm_passes(workload, ledger, seconds: float, min_passes: int, tracer=None) -> list[PassResult]:
    """At least ``min_passes`` passes, then more while the next one is
    expected to end within ``seconds`` of the start."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start + statistics.mean(p.seconds for p in passes) <= seconds
    ):
        passes.append(one_pass(workload, ledger, tracer))
    return passes


def op_stats(passes: list[PassResult]) -> dict:
    """Median and p90 of each operation's call times, with the call count."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for name, times in p.times.items():
            samples.setdefault(name, []).extend(times)
    stats = {}
    for name, values in samples.items():
        stats[name] = {"median": statistics.median(values), "count": len(values)}
        if len(values) >= 2:
            stats[name]["p90"] = statistics.quantiles(values, n=10)[-1]
    return stats


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    """Run one workload; return its metrics, operation timings and record."""
    from coldcache import ColdCache
    from spans import Tracer, layer_metrics, root_time
    from workloads import WORKLOADS, Ledger

    work = BENCH / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        ledger = Ledger()
        workload = WORKLOADS[name](seed, sizes, workdir, ColdCache(workdir), ledger)
        tracer = Tracer() if trace else None
        cold = one_pass(workload, ledger, tracer)
        if trace:
            untraced = warm_passes(workload, ledger, seconds / 2, 2)
            traced = warm_passes(workload, ledger, seconds / 2, 2, tracer)
        else:
            untraced, traced = warm_passes(workload, ledger, seconds, MIN_PASSES), []
        # Peak memory of the program's own passes, read before the checks
        # below allocate for the exhaustive-search reference and the record.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        expected = workload.signature(cold.out)
        for p in untraced + traced:
            ledger.check("warm pass repeats the first pass", workload.signature(p.out) == expected)
        workload.checks(cold.out)
        record = workload.record()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = op_stats(untraced)
    metrics = {
        "setup_s": cold.seconds,
        "pass_s": statistics.median(p.seconds for p in untraced),
        "pass_cpu_s": statistics.median(p.cpu_seconds for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": ledger.failed / ledger.attempted,
        **{op: s["median"] for op, s in ops.items()},
        **workload.quality(cold.out),
    }
    if "mi_small_s" in ops:
        metrics["mi_small_p90_s"] = ops["mi_small_s"]["p90"]
    if trace:
        # Calibration runs in the first pass only, so its metrics come from
        # that pass; every other layer metric is a median over traced passes.
        warm_layers = [layer_metrics(p.spans) for p in traced]
        for k in set().union(*warm_layers):
            if not k.startswith("calibration."):
                metrics[k] = statistics.median(m.get(k, 0) for m in warm_layers)
        for k, v in layer_metrics(cold.spans).items():
            if k.startswith("calibration."):
                metrics[k] = v
        metrics["calibration.warm.estimate_gamma.calls"] = sum(
            m.get("calibration.estimate_gamma.calls", 0) for m in warm_layers
        )
        metrics["calibration.warm.get_or_compute.s"] = statistics.median(
            m.get("calibration.get_or_compute.s", 0) for m in warm_layers
        )
        metrics["trace.overhead_ratio"] = (
            statistics.median(p.seconds for p in traced) / metrics["pass_s"]
        )
        metrics["trace.unattributed_s"] = statistics.median(
            p.seconds - root_time(p.spans) for p in traced
        )
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "trace": int(trace),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "warm_passes": len(untraced),
        "traced_passes": len(traced),
        "pass_seconds": [p.seconds for p in untraced],
        "pass_cpu_seconds": [p.cpu_seconds for p in untraced],
        "ops": ops,
        "metrics": metrics,
        "record": record,
    }


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def result_line(result: dict, spec: dict) -> dict:
    """The last output line: exactly the metrics ``BENCHMARK.json`` names."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for m in declared:
        # Zero for a layer the workload does not reach. A failed operation
        # can leave an accuracy figure undefined (NaN), which JSON cannot
        # carry; ``failed`` already marks such a run as wrong.
        value = result["metrics"].get(m["name"], 0)
        metrics[m["name"]] = {"value": value if math.isfinite(value) else 0, "unit": m["unit"]}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def record_workloads() -> dict:
    """Parameters and input properties of every workload at seed 0."""
    from coldcache import ColdCache
    from workloads import FULL, WORKLOADS, Ledger

    records = {}
    (BENCH / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / ".work") as tmp:
        for name, cls in WORKLOADS.items():
            workload = cls(0, FULL, Path(tmp), ColdCache(Path(tmp) / name), Ledger())
            records[name] = {"why": cls.why, **workload.record()}
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/workloads.json and exit")
    args = parser.parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import nnentropy from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import FULL, WORKLOADS

    if args.record:
        text = json.dumps(record_workloads(), indent=2) + "\n"
        (BENCH / "workloads.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    spec = benchmark_spec()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    result["environment"] = environment()
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    env = result["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['warm_passes']} warm passes, {result['traced_passes']} traced")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for op, s in sorted(result["ops"].items()):
        extra = f", p90 {s['p90']:.6g} s" if "p90" in s else ""
        print(f"  {op}: median {s['median']:.6g} s of {s['count']} calls{extra}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["name"] in result["metrics"]:
            print(f"  {m['name']} = {result['metrics'][m['name']]:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(result_line(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
