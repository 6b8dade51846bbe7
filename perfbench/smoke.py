"""Smoke check of the benchmark itself, at toy input sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at toy sizes and checks that:

* each result line carries exactly the metrics ``BENCHMARK.json`` declares,
  with their units, and no operation fails;
* every per-layer metric is non-zero on at least one workload, except those
  that must be zero at every commit that works;
* a planted wrong neighbor index reaches the kd-tree/exhaustive check and
  pushes ``fail_ratio`` above 0;
* ``perfbench/workloads.json`` matches what ``run.py --record`` would write.

Prints each problem found and exits 1 if there is any.
"""

from __future__ import annotations

import json
import sys

import run

# Per-layer metrics that are zero on every workload when nothing fails.
ZERO_WHEN_CORRECT = {"fail_ratio", "calibration.warm.estimate_gamma.calls"}


def main() -> int:
    run.import_package()
    import nnentropy.neighbors as neighbors
    from workloads import TOY, WORKLOADS

    spec = run.benchmark_spec()
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [(n, c.why) for n, c in WORKLOADS.items()]:
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")

    nonzero = set()
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(name, 0, 0.0, trace, TOY)
            line = run.result_line(result, spec)
            declared = spec["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in declared}:
                problems.append(f"{name} trace={trace}: metrics or units differ from BENCHMARK.json")
            if line["failed"] or not line["correct"]:
                problems.append(f"{name} trace={trace}: failures {result['failures']}")
            if trace:
                nonzero |= {k for k, v in line["metrics"].items() if v["value"]}
    for m in spec["per_layer"]:
        if m["name"] not in nonzero | ZERO_WHEN_CORRECT:
            problems.append(f"per-layer metric {m['name']} is zero on every workload")

    real = neighbors.knn_all

    def planted(points, k, method="auto", workers=-1):
        idx, lengths = real(points, k, method=method, workers=workers)
        if method == "kdtree":
            idx = idx.copy()
            idx[0, 0] = (idx[0, 0] + 1) % len(idx)
        return idx, lengths

    neighbors.knn_all = planted
    try:
        result = run.run_workload("cliffs", 0, 0.0, False, TOY)
    finally:
        neighbors.knn_all = real
    if not result["metrics"]["fail_ratio"] > 0:
        problems.append("a perturbed kd-tree neighbor index did not raise fail_ratio")

    with open(run.BENCH / "workloads.json", encoding="utf-8") as handle:
        if json.load(handle) != run.record_workloads():
            problems.append("perfbench/workloads.json is stale; rerun run.py --record")

    for problem in problems:
        print(f"PROBLEM {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
