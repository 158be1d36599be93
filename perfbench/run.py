"""Closed-loop benchmark of the liouville-ep command line.

Run from the repository root:

    python3 perfbench/run.py --workload exact-2level --seed 1 --seconds 30 --trace 0

One client in one process, pinned to one CPU, calls ``liouville_ep.cli.main``
back to back, with no think time, on the workload's fixed list of invocations
(see workloads.py); BLAS is pinned to one thread.  Every invocation runs under
a wall-clock cap and its output is checked against ``reference.json``.  After
one untimed, checked warm-up pass the run repeats passes for ``--seconds``,
ending at the pass boundary nearest to it.

``--trace 0`` reports the end-to-end metrics: the pass time, the set-up time
of a fresh interpreter (the median of SETUP_SAMPLES fresh interpreters
started at even intervals between the passes) and the peak resident memory.
``--trace 1`` alternates untraced and traced passes and reports per-layer
totals per pass (means over the traced passes), the per-subcommand times and
the tracing overhead; the spans are written to ``perfbench/out/``.

Every time reported is in seconds at a reference host speed.  On a shared
2-vCPU host, co-tenant load slows whole runs by 1.3-2x for seconds to
minutes, CPU time as much as wall time, so no figure read off the raw clock
of one run is steady from run to run.  A fixed kernel (calibrate.py) is timed
just before and after every invocation, once per CALIBRATE_EVERY_S of its
time; the kernel slows with the program, so an invocation's wall time times
REFERENCE_S over the mean kernel time around it is steady.  Set-up and
per-layer times are divided by the run's slowdown, its mean kernel time over
REFERENCE_S.  The pass time is the sum over the pass's invocations of each
one's mean time over the run.  Only invocations whose output checked out are
timed; when one never does, its pass time is reported as null (and
``correct`` is false).

The last line of standard output is the result object; the line before it
holds the environment, the run's slowdown and every kernel time (those around
each timed invocation in ``invocation_kernel_s``), per-invocation outcomes and
the error rate, and the raw wall seconds: every pass, every set-up sample, and
each invocation's time in the warm-up pass (``cold_s``) next to its times in
the timed passes (``invocation_s``), so that a cache filled by the warm-up,
which a one-call-per-process user never sees, shows as a gap between the two.  The run exits 2 without a result when the package
sources are not under ./src.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported, here or in a child
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402

SRC = os.path.abspath("src")
OUT_DIR = os.path.join(HERE, "out")
INVOCATION_CAP_S = 60.0
RUN_DEADLINE_S = 160.0  # the run must end within 180 s, result included
SETUP_SAMPLES = 6
CALIBRATE_EVERY_S = 0.3  # one kernel sample per this much invocation time

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists in `section`."""
    with open(SPEC, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class InvocationTimeout(BaseException):
    """Raised by SIGALRM inside an invocation that hit its cap."""


class Harness:
    def __init__(self, lib, reference: dict, started: float):
        self.lib = lib
        self.reference = reference
        self.deadline = started + RUN_DEADLINE_S
        self.tracer = Tracer()
        self.attempted = 0
        self.failures: list[str] = []
        self.outcomes: dict[str, dict[str, int]] = {}
        self.kernel_s: list[float] = []
        self._armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self._armed:
            self._armed = False
            raise InvocationTimeout()

    def _invoke(self, argv: list[str]) -> tuple[float, str, str]:
        """(seconds, status, stdout) of one in-process CLI call."""
        cap = min(INVOCATION_CAP_S, self.deadline - time.perf_counter())
        if cap <= 0:
            return 0.0, "timeout", ""
        out, err = io.StringIO(), io.StringIO()
        self.tracer.op += 1
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(argv)
            self._armed = False
            status = "ok" if code == 0 else f"exit {code}: {err.getvalue().strip()[:200]}"
        except InvocationTimeout:
            status = "timeout"
        except SystemExit as exc:  # argparse rejects the arguments
            status = f"exit {exc.code}: {err.getvalue().strip()[:200]}"
        except Exception as exc:  # any escape from the CLI is a failed invocation
            status = f"exception {type(exc).__name__}: {exc}"
        finally:
            self._armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return time.perf_counter() - t0, status, out.getvalue()

    def calibrate(self, seconds: float) -> None:
        """Time the calibration kernel once per CALIBRATE_EVERY_S of `seconds`."""
        for _ in range(max(1, round(seconds / CALIBRATE_EVERY_S))):
            self.kernel_s.append(calibrate.sample())

    def run_pass(self, invocations, traced: bool = False) -> tuple[float, dict]:
        """Run and then check one pass, timing the kernel around each invocation.

        Returns the pass's wall seconds (invocations only) and, for each
        invocation whose output checked out, its wall seconds and the mean
        kernel time just before and just after it; a failed invocation has no
        entry.
        """
        gc.collect()
        results = []
        tracing = self.tracer.installed() if traced else contextlib.nullcontext()
        with tracing:
            for inv, argv in invocations:
                if not self.kernel_s:
                    self.calibrate(0.0)
                before = self.kernel_s[-1]
                seconds, status, text = self._invoke(argv)
                n = len(self.kernel_s)
                self.calibrate(seconds)
                kernel = (before + statistics.fmean(self.kernel_s[n:])) / 2
                results.append((inv, (seconds, kernel), status, text))
        wall = sum(timed[0] for _, timed, _, _ in results)
        good = set()
        for inv, _, status, text in results:
            if status == "ok":
                problem = workloads.check(inv, text, self.reference, self.lib)
                status = "ok" if problem is None else f"wrong output: {problem}"
            self.attempted += 1
            tally = self.outcomes.setdefault(inv.key, {})
            label = status.split(":")[0]
            tally[label] = tally.get(label, 0) + 1
            if status == "ok":
                good.add(inv.key)
            else:
                self.failures.append(f"{inv.key}: {status}")
        return wall, {inv.key: timed for inv, timed, _, _ in results if inv.key in good}


def import_package():
    if not os.path.isfile(os.path.join(SRC, "liouville_ep", "__init__.py")):
        print("error: run from the repository root; ./src/liouville_ep not found",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import liouville_ep.cli  # noqa: F401  (imports every submodule the harness uses)

    lib = sys.modules["liouville_ep"]
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        print(f"error: imported {lib.__file__}, not the sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    return lib


SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import liouville_ep.cli
from liouville_ep.models import builtin_model, model_from_dict
for ref in sys.argv[1:]:
    if ref.endswith(".json"):
        with open(ref, encoding="utf-8") as fh:
            model_from_dict(json.load(fh))
    else:
        builtin_model(ref)
print(repr(time.perf_counter() - t0))
"""


def setup_seconds(workload: str) -> float:
    """Seconds a fresh interpreter takes to import the CLI and build the models."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *workloads.models(workload)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def environment(np) -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def typical_pass(passes: list[dict], keys) -> float | None:
    """Sum over `keys` of each invocation's mean checked time over the passes.

    Each time is taken at the reference speed: wall seconds times
    REFERENCE_S over the kernel time around the invocation.  None when some
    invocation never produced a checked output.
    """
    typical = [
        statistics.fmean(p[k][0] / p[k][1] for p in passes if k in p) * calibrate.REFERENCE_S
        if any(k in p for p in passes) else None
        for k in keys
    ]
    return None if None in typical else sum(typical)


def _per_call(invocations, passes: list[dict], sub: str) -> float | None:
    """Mean seconds per call of one subcommand, at the reference speed."""
    keys = [inv.key for inv, _ in invocations if inv.subcommand == sub]
    if not keys:
        return 0.0
    total = typical_pass(passes, keys)
    return None if total is None else total / len(keys)


def layer_metrics(tracer: Tracer, traced: list[tuple[float, dict, range]],
                  names, slowdown: float) -> dict[str, float]:
    """Mean per-pass layer totals over the traced passes, times at the reference speed."""
    per_pass = []
    for wall, _, ops in traced:
        spans = [s for s in tracer.spans if s[4] in ops]
        totals = layer_totals(spans)
        cand = totals["scan.solve_candidates.candidates"]
        grid = totals["numerics.amoeba_sample.grid"]
        totals["scan.exact_ratio"] = totals["scan.solve_candidates.exact"] / cand if cand else 0.0
        totals["numerics.amoeba.useful_ratio"] = (
            totals["numerics.amoeba_sample.useful"] / grid if grid else 0.0
        )
        totals["bench.glue_s"] = wall - sum(s[5] for s in spans)
        per_pass.append(totals)
    return {name: statistics.fmean(p[name] for p in per_pass)
            / (slowdown if name.endswith("_s") else 1.0) for name in names}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = import_package()
    import numpy as np

    if hasattr(os, "sched_setaffinity"):  # the program and the kernel share one CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    invocations = workloads.plan(args.workload, args.seed)
    harness = Harness(lib, workloads.load_reference(), started)
    _, cold = harness.run_pass(invocations)  # warm-up: checked, not timed
    del harness.kernel_s[:-1]  # the last is the kernel time before the first timed call
    untraced: list[tuple[float, dict]] = []
    traced: list[tuple[float, dict, range]] = []
    setups: list[float] = []
    t_start = time.perf_counter()
    while True:
        untraced.append(harness.run_pass(invocations))
        if args.trace:
            first = harness.tracer.op + 1
            wall, times = harness.run_pass(invocations, traced=True)
            traced.append((wall, times, range(first, harness.tracer.op + 1)))
        elapsed = time.perf_counter() - t_start
        # stop at the pass boundary nearest to --seconds
        done = (elapsed + untraced[-1][0] / 2 >= args.seconds
                or time.perf_counter() > harness.deadline - 30)
        # set-up samples are spread evenly over the run, between passes
        share = 1.0 if done else min(1.0, elapsed / args.seconds)
        due = 0 if args.trace else math.ceil(SETUP_SAMPLES * share)
        while len(setups) < due:
            setups.append(setup_seconds(args.workload))
            harness.calibrate(setups[-1])
        if done:
            break

    kernel_s = statistics.fmean(harness.kernel_s)
    slowdown = kernel_s / calibrate.REFERENCE_S
    keys = [inv.key for inv, _ in invocations]
    pass_s = typical_pass([p for _, p in untraced], keys)
    if args.trace:
        units = metric_units("per_layer")
        values = layer_metrics(harness.tracer, traced, units, slowdown)
        for sub in workloads.SUBCOMMANDS:
            values[f"cli.{sub}_s"] = _per_call(invocations, [p for _, p in untraced], sub)
        values["bench.traced_pass_s"] = typical_pass([p for _, p, _ in traced], keys)
        values["bench.trace_overhead_s"] = (
            None if None in (values["bench.traced_pass_s"], pass_s)
            else values["bench.traced_pass_s"] - pass_s
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": harness.tracer.records()}, fh)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"pass_s": pass_s, "setup_s": statistics.median(setups) / slowdown,
                  "peak_rss_mib": rss_kib / 1024.0}
        units = metric_units("end_to_end")

    failed = len(harness.failures)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "argv": [argv for _, argv in invocations],
        "environment": environment(np),
        "host": {"slowdown": slowdown, "kernel_mean_s": kernel_s,
                 "kernel_reference_s": calibrate.REFERENCE_S, "kernel_s": harness.kernel_s},
        "passes": {"untraced": [w for w, _ in untraced], "traced": [w for w, _, _ in traced]},
        "cold_s": {key: seconds for key, (seconds, _) in cold.items()},
        "invocation_s": {inv.key: [p[inv.key][0] if inv.key in p else None for _, p in untraced]
                         for inv, _ in invocations},
        "invocation_kernel_s": {inv.key: [p[inv.key][1] if inv.key in p else None
                                          for _, p in untraced] for inv, _ in invocations},
        "setup_s": setups,
        "error_rate": failed / harness.attempted,
        "outcomes": harness.outcomes,
        "failures": harness.failures[:20],
    }
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": harness.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
