"""The benchmark's workloads as tier-1 checks: every invocation the benchmark
times, run once through the CLI and held to perfbench/reference.json by the
benchmark's own check, so an output the benchmark would reject fails here
first.  The files under perfbench/ are read, never written."""

import importlib.util
import sys
from pathlib import Path

import pytest

import liouville_ep
from liouville_ep import cli, poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ there
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()
RUNS = [(name, inv, argv) for name in workloads.WORKLOADS for inv, argv in workloads.plan(name, 1)]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.mark.parametrize("name, inv, argv", RUNS, ids=[f"{name}/{inv.key}" for name, inv, _ in RUNS])
def test_invocation_passes_the_benchmark_check(capsys, reference, name, inv, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.err == ""
    assert workloads.check(inv, out.out, reference, liouville_ep) is None


def test_every_invocation_is_run_once():
    keys = [inv.key for _, inv, _ in RUNS]
    assert len(keys) == len(set(keys)) == sum(map(len, workloads.WORKLOADS.values()))


def test_classify_batches_take_two_primes(capsys, monkeypatch):
    # each classify-3level polygon makes one kernel call, whose 55-56-bit
    # bound two primes below 2^28 cover, at every seed the benchmark draws
    counts = []
    primes_beyond = poly._primes_beyond

    def spy(bound):
        primes = primes_beyond(bound)
        counts.append(len(primes))
        return primes

    monkeypatch.setattr(poly, "_primes_beyond", spy)
    for seed in workloads.GENERIC_SEEDS:
        for inv in workloads.WORKLOADS["classify-3level"]:
            counts.clear()
            assert cli.main([*inv.argv, "--seed", str(seed)]) == 0, capsys.readouterr().err
            assert counts == [2], (inv.key, seed, counts)
    capsys.readouterr()
