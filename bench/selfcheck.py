"""Self-checks of the benchmark itself (not part of the test suite).

    python3 bench/selfcheck.py smoke
        Tiny inputs, every workload, untraced and traced: exit code 0,
        all output checks pass, and the result line carries exactly the
        metrics and units that BENCHMARK.json declares.  Also checks that
        a directory holding only BENCHMARK.json and bench/ makes the
        benchmark fail without printing a result.

    python3 bench/selfcheck.py steady [--workload W ...]
        Runs the benchmark ten times per set with seeds 1..10, for two
        sets of the same code.  It fails when a run is not correct or when
        the sets differ in attempted or failed operations.  For every
        end-to-end metric it prints the spread (interquartile range over
        median) of each set and the change of the median from the first
        set to the second, and fails when a spread or a worsening exceeds
        the metric's bound in BENCHMARK.json.  The spread of setup_s is
        printed but not held to its bound: setup_s is bounded by the change
        of its median only.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10
SETS = 2


def run(workload, seed, seconds, trace, tiny=False, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke():
    ok = True
    for w in SPEC["workloads"]:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            res = result(run(w["name"], 1, 2, trace, tiny=True))
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            problems = []
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(res)}")
            if not res["correct"] or res["attempted"] < 1 or res["failed"]:
                problems.append(f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
            if got != want:
                problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
            print(f"{w['name']} trace={trace}: {'ok' if not problems else '; '.join(problems)}")
            ok = ok and not problems
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, Path(bare) / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 1, 1, 0, cwd=bare)
        bare_ok = proc.returncode != 0 and not proc.stdout.strip()
        print(f"without sources: exit {proc.returncode}, {'ok' if bare_ok else 'printed a result'}")
    return ok and bare_ok


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(workloads):
    ok = True
    for name in workloads:
        by_set, counts = [], []
        for _ in range(SETS):
            values, attempted, failed, correct = {}, 0, 0, True
            for seed in range(1, RUNS + 1):
                res = result(run(name, seed, SPEC["run_seconds"], 0))
                attempted, failed = attempted + res["attempted"], failed + res["failed"]
                correct = correct and res["correct"]
                for k, v in res["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
            by_set.append(values)
            counts.append((correct, attempted, failed))
        bad = len(set(counts)) > 1 or not counts[0][0]
        ok = ok and not bad
        print(f"{name}: (correct, attempted, failed) per set {counts} ({'over' if bad else 'ok'})")
        for m in SPEC["end_to_end"]:
            k, bound = m["name"], m["bound"]
            spreads = [spread(v[k]) for v in by_set]
            first, last = statistics.median(by_set[0][k]), statistics.median(by_set[-1][k])
            worse = (last - first) / first if m["better"] == "lower" else (first - last) / first
            bad = worse > bound or (k != "setup_s" and max(spreads) > bound)
            ok = ok and not bad
            print(
                f"{name} {k}: median {first:.6g} -> {last:.6g} {m['unit']}, "
                f"spread {' '.join(f'{s:.3f}' for s in spreads)}, worse by {worse:+.3f}, "
                f"bound {bound} ({'over' if bad else 'ok'}; a third of the bound is {bound / 3:.3f})"
            )
            print(f"  values: {' '.join(f'{x:.5g}' for v in by_set for x in v[k])}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("smoke")
    st = sub.add_parser("steady")
    st.add_argument("--workload", action="append", default=None)
    args = ap.parse_args()
    if args.cmd == "smoke":
        return 0 if smoke() else 1
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    return 0 if steady(names) else 1


if __name__ == "__main__":
    sys.exit(main())
