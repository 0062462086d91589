"""The benchmark's own output checks, replayed on full-size rounds.

The benchmark calls a workload's op on every input and check on every
output; a wrong output makes the run incorrect.  This replays one
full-size round per seed of each in-process workload, so a wrong output
fails here first.  The cli workload starts child processes and is left
to the benchmark.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    # the bench modules are only read: no bytecode is written next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    env = run.Env()
    try:
        yield workloads, env
    finally:
        env.cleanup()
        for name in ("run", "workloads", "oracles"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["fronts", "surgery", "deciders"])
def test_a_full_round_passes_the_bench_checks(bench, name):
    workloads, env = bench
    for seed in (1, 2, 3):
        workload = workloads.WORKLOADS[name](seed, False, env)
        items = next(workload.rounds())
        assert items
        for item in items:
            out = workload.op(item)
            assert workload.check(item, out[0]) == [], (name, seed, item)
