"""Self-check of the benchmark harness.

Run from the repository root:

    python3 perfbench/selfcheck.py

It runs the smallest workload briefly in both modes and asserts the result
shape against BENCHMARK.json, shows that corrupted reference entries are
reported as failures (and that a candidate improving from unverified to exact
is not), and shows that the harness refuses to run without the sources.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SMALLEST = "exact-2level"


def _result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", SMALLEST,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_shape() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for trace in (0, 1):
        result = _result(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0, result
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
            assert trace == 1 or metric["value"] > 0, (name, metric)


def _failures(invocations, reference) -> list[str]:
    harness = run.Harness(run.import_package(), reference, time.perf_counter())
    _, times = harness.run_pass(invocations)
    failed = {f.split(":")[0] for f in harness.failures}
    assert failed.isdisjoint(times), "a failed invocation must not be timed"
    return harness.failures


def check_corruption() -> None:
    good = workloads.load_reference()
    invs = {inv.key: (inv, [*inv.argv, "--seed", "1"])
            for wl in workloads.WORKLOADS.values() for inv in wl}
    picked = [invs[k] for k in ("scan-spin_half-gamma_x", "scan-qubit-gamma_f",
                                "polygon-qubit-gamma_f", "amoeba-qubit-J",
                                "scale-qubit-J", "encircle-qubit-gamma_f")]
    assert _failures(picked, good) == [], "the genuine reference must pass"

    bad = copy.deepcopy(good)
    bad["scan-spin_half-gamma_x"]["candidates"][0]["value"] = "-3"
    bad["polygon-qubit-gamma_f"]["segments"][0]["hspan"] += 1
    bad["amoeba-qubit-J"]["slopes"]["1"] = 2.5
    bad["scale-qubit-J"]["slope"] = 1 / 3
    bad["encircle-qubit-gamma_f"]["cycles"] = "[2,2]"
    loose = bad["scan-qubit-gamma_f"]["candidates"]
    loose[0]["status"] = "approximate"  # the output is unverified: a regression
    failed = {f.split(":")[0] for f in _failures(picked, bad)}
    assert failed == {inv.key for inv, _ in picked}, failed

    improved = copy.deepcopy(good)
    cands = improved["scan-qubit-gamma_f"]["candidates"]
    exact = next(i for i, c in enumerate(cands) if c["exact"])
    cands[exact] = {"value": cands[exact]["value"], "exact": False, "status": "unverified"}
    assert _failures([invs["scan-qubit-gamma_f"]], improved) == []


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", SMALLEST, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main() -> int:
    check_shape()
    check_corruption()
    check_bare_directory()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
