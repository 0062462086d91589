"""steinkit benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload fronts --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, measured with no instrumentation installed; with
--trace 1 they are the per-layer ones from a separate traced replay.
The lines before it print every metric with its unit, the run record
(machine, commit, seed, mix) and the path of the JSON record that also
holds the raw samples.

A run is a fixed number of rounds: --seconds times the workload's
rounds_per_s, the rounds per second the seed code ran on the host the
benchmark was tuned on.  So a seed fixes the inputs, the attempted
operations and the failures of a run, and a faster program ends sooner
instead of attempting more.  Every round holds fresh inputs in the
workload's fixed mix (see workloads.py); its inputs are generated before,
and its outputs checked after, the timed calls.  A run that takes
MAX_STRETCH times --seconds stops after the round it is in.

Host speed adjustment: shared hosts change speed by up to a factor of
two for seconds to minutes at a time, which moves every timing alike.
A speed probe (a fixed pure-Python loop, no steinkit code) runs before
every round and after the last, and before every setup sample.  Every
reported time is the measured time times REF_PROBE_S over the probe
time around it, i.e. the time the same work would take on a host that
runs the probe in REF_PROBE_S.  The unadjusted values are printed as
raw.* lines and kept in the run record with the probes.

Definitions:
  ops_per_s        completed operations per second of time spent inside
                   the operations (input generation and the independent
                   output checks are outside that time)
  latency_p50_ms   median latency of the completed operations
  latency_tail_ms  latency at the workload's tail percentile; if fewer
                   than ten samples lie beyond it, the highest percentile
                   that still has ten beyond is used and reported
  setup_s          median over 21 fresh interpreters of the time to
                   import the steinkit modules the workload uses; one
                   untimed warm-up import comes first, and the samples
                   are taken between rounds, spread evenly over them
  peak_rss_mb      peak resident memory of this process (for cli: of its
                   child processes)

correct is false when an output check fails, when an operation raises
anything but a documented defect, or when a documented defect is raised
on an input that it does not cover.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 21
MAX_STRETCH = 4  # a run stops after the round that passes this many times --seconds
CLI_PROBE_RUNS = 5  # fresh interpreters per cli.* probe of the traced run
# Reported times are scaled to a host that runs speed_probe() in this
# many seconds (see the module docstring).
REF_PROBE_S = 0.0015
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
LAYERS = ("numerics", "front", "presentation", "invariants", "families", "cli")

sys.path.insert(0, str(BENCH))


class Env:
    """The checkout's steinkit modules and how to start children on them."""

    def __init__(self):
        import steinkit.cli
        import steinkit.families
        import steinkit.front
        import steinkit.invariants
        import steinkit.numerics
        import steinkit.presentation

        self.root = str(ROOT)
        self.modules = {name: getattr(steinkit, name) for name in LAYERS}
        for name, module in self.modules.items():
            setattr(self, name, module)
        path = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self._dirs = []

    def scratch_dir(self):
        d = tempfile.mkdtemp(prefix=".bench_tmp", dir=self.root)
        self._dirs.append(d)
        return d

    def cleanup(self):
        for d in self._dirs:
            shutil.rmtree(d, ignore_errors=True)


def child_seconds(env, code):
    """Run python -c code in a fresh interpreter; it prints one float."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env.child_env, cwd=env.root, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def import_code(modules):
    return (
        "import time; t = time.perf_counter(); import "
        + ", ".join(modules)
        + "; print(time.perf_counter() - t)"
    )


def spawn_seconds(env):
    samples = []
    for _ in range(CLI_PROBE_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env.child_env, cwd=env.root, check=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


def speed_probe():
    """Seconds of a fixed pure-Python loop, best of three, with the
    collector off: how fast the host runs Python right now.  It calls no
    steinkit code."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0
            for i in range(20000):
                acc += i * i % 7
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def speed_factors(probes):
    """Per round: REF_PROBE_S over the mean of the probes on both sides."""
    return [2 * REF_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]


def tail(samples, pct):
    """(value, percentile, samples beyond) by nearest rank, with at least
    ten samples beyond the chosen percentile when that is possible."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (pct,) + tuple(q for q in TAIL_LADDER if q < pct):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100.0, 0


def n_rounds(workload, seconds):
    return max(1, round(seconds * workload.rounds_per_s))


def run_ops(workload, rounds, limit_s, recorder=None, setup=False):
    """Closed loop over the first rounds of the workload's stream; it stops
    early after the round that passes limit_s seconds.

    A recorder is installed only around the calls of a round.  A speed
    probe runs before every round and after the last.  With setup,
    SETUP_RUNS fresh imports are timed between rounds, spread evenly over
    them, each after a speed probe of its own.
    """
    import workloads

    batches = workload.rounds()
    code = import_code(workload.modules)
    res = {
        "rounds": [], "latencies": [], "walls": [], "probes": [], "setup": [], "attempted": 0,
        "failed": 0, "mismatched": 0, "unexpected": 0, "stopped_early": False,
        "problems": Counter(), "errors": Counter(), "rejected": Counter(),
    }
    gc.collect()
    start = time.perf_counter()
    for i in range(rounds):
        if time.perf_counter() - start > limit_s:
            res["stopped_early"] = True
            break
        while setup and len(res["setup"]) * rounds <= i * SETUP_RUNS and len(res["setup"]) < SETUP_RUNS:
            res["setup"].append((speed_probe(), child_seconds(workload.env, code)))
        items = next(batches)
        res["probes"].append(speed_probe())
        done = []
        if recorder is not None:
            recorder.install()
        try:
            for item in items:
                if recorder is not None:
                    recorder.op_id = res["attempted"]
                res["attempted"] += 1
                t0 = time.perf_counter()
                try:
                    out = workload.op(item)
                except Exception as exc:  # sorted out below, after the timed calls
                    out = exc
                done.append((item, out, time.perf_counter() - t0))
        finally:
            if recorder is not None:
                recorder.uninstall()
        busy, latencies = 0.0, []
        for item, out, wall in done:
            res["walls"].append(wall)
            if isinstance(out, Exception):
                busy += wall
                res["failed"] += 1
                what = f"{type(out).__name__}: {str(out)[:120]}"
                if isinstance(out, workloads.KnownDefect) and workload.defect_confirmed(out):
                    res["errors"]["known defect, " + what] += 1
                else:
                    res["unexpected"] += 1
                    res["errors"]["unexpected, " + what] += 1
                continue
            latency = out[2] if len(out) == 3 else wall
            busy += latency
            res["rejected"].update(out[1])
            try:
                bad = workload.check(item, out[0])
            except Exception as exc:  # a result the checks cannot even read
                bad = [f"check raised {type(exc).__name__}: {str(exc)[:120]}"]
            if bad:
                res["failed"] += 1
                res["mismatched"] += 1
                res["problems"].update(bad)
            else:
                latencies.append(latency)
        res["rounds"].append({
            "busy_s": busy, "completed": len(latencies), "wall_s": sum(wall for _, _, wall in done),
        })
        res["latencies"].append(latencies)
    res["probes"].append(speed_probe())
    while setup and len(res["setup"]) < SETUP_RUNS:
        res["setup"].append((speed_probe(), child_seconds(workload.env, code)))
    return res


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def commit():
    """The checked-out commit when the checkout is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def timed(res, adjust):
    """Latencies, busy seconds and setup samples of a run, scaled to
    the reference host speed when adjust is true."""
    f = speed_factors(res["probes"]) if adjust else [1.0] * len(res["rounds"])
    lat = [x * f[i] for i, r in enumerate(res["latencies"]) for x in r]
    busy = sum(r["busy_s"] * f[i] for i, r in enumerate(res["rounds"]))
    setup = [x * (REF_PROBE_S / p if adjust else 1.0) for p, x in res["setup"]]
    return lat, busy, setup


def end_to_end(workload, res):
    """End-to-end metrics, and notes that include the unadjusted values."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    out = {}
    for adjust in (True, False):
        lat, busy, setup = timed(res, adjust)
        if not lat:
            raise SystemExit(f"no operation of {workload.name} completed: {dict(res['errors'])}")
        value, pct, beyond = tail(lat, workload.tail_pct)
        out[adjust] = {
            "ops_per_s": (len(lat) / busy, "1/s"),
            "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1000 * value, "ms"),
            "setup_s": (statistics.median(setup), "s"),
        }
    metrics = dict(out[True], peak_rss_mb=(resource.getrusage(who).ru_maxrss / 1024, "MB"))
    notes = {
        "ops_per_s": f"{len(lat)} completed in {len(res['rounds'])} rounds"
        + (f", stopped early after {MAX_STRETCH} x --seconds" if res["stopped_early"] else ""),
        "latency_tail_ms": f"p{pct:g} of {len(lat)} samples, {beyond} beyond",
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "speed_probe": f"median {1000 * statistics.median(res['probes']):.4f} ms, reference {1000 * REF_PROBE_S:g} ms",
    }
    notes.update({f"raw.{k}": f"{v:.6g} {u}" for k, (v, u) in out[False].items()})
    return metrics, notes


def traced(workload, env, seconds, spans_path):
    """Untraced pass over a quarter of the rounds, then two traced replays
    of the same operations; per-layer metrics come from the first replay,
    whose spans are written to spans_path."""
    import tracing

    limit_s = MAX_STRETCH * seconds / 4
    base = run_ops(workload, max(1, n_rounds(workload, seconds) // 4), limit_s)
    n = len(base["rounds"])
    replays = []
    for _ in range(2):
        rec = tracing.Recorder(env.modules)
        workload.harness = rec.paused
        replays.append((rec, run_ops(workload, n, limit_s, recorder=rec)))
    del workload.harness
    (rec, res), (rec2, res2) = replays
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("# name start end parent op\n")
        fh.writelines(f"{n} {a:.9f} {b:.9f} {p} {o}\n" for n, a, b, p, o in rec.spans)
    untraced_wall, traced_wall = (
        sum(r["wall_s"] * f for r, f in zip(x["rounds"], speed_factors(x["probes"]))) for x in (base, res)
    )
    metrics, worst = rec.metrics(sum(res["walls"]), res["walls"])
    metrics["cli.spawn_ms"] = 1000 * statistics.median(spawn_seconds(env))
    code = import_code(["steinkit.cli"])
    metrics["cli.import_ms"] = 1000 * statistics.median(child_seconds(env, code) for _ in range(CLI_PROBE_RUNS))
    metrics["trace.overhead_pct"] = 100 * (traced_wall - untraced_wall) / untraced_wall
    metrics = {k: (v, tracing.PER_LAYER[k]) for k, v in metrics.items()}
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_pct"))
    notes = {
        "trace.overhead_pct": (
            f"traced wall {traced_wall:.3f} s - untraced wall {untraced_wall:.3f} s "
            f"over the same {n} rounds, both adjusted to the reference host speed"
        ),
        "self_pct": (
            f"self times cover {self_total:.1f}% of the traced wall; the largest "
            f"per-operation sum is {100 * worst:.1f}% of its operation's wall"
        ),
        "counts_repeat": str(rec.counts() == rec2.counts()).lower(),
    }
    for key in ("attempted", "failed", "mismatched", "unexpected", "problems", "errors", "rejected"):
        base[key] = base[key] + res[key] + res2[key]
    return base, metrics, notes


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke run")
    args = ap.parse_args(argv)
    if not (SRC / "steinkit" / "__init__.py").is_file():
        print(f"error: no steinkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = Env()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, env)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            res, metrics, notes = traced(workload, env, args.seconds, stem.with_suffix(".spans"))
        else:
            child_seconds(env, import_code(workload.modules))  # warm-up: writes bytecode caches
            res = run_ops(workload, n_rounds(workload, args.seconds), MAX_STRETCH * args.seconds, setup=True)
            metrics, notes = end_to_end(workload, res)
    finally:
        env.cleanup()

    fail_share = res["failed"] / res["attempted"]
    record = {
        "workload": workload.name, "why": workload.why, "mix": workload.mix,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "machine": machine(), "commit": commit(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "attempted": res["attempted"], "failed": res["failed"], "fail_share": fail_share,
        "mismatched": res["mismatched"], "unexpected": res["unexpected"],
        "problems": dict(res["problems"]), "errors": dict(res["errors"]), "rejected": dict(res["rejected"]),
        "samples": {
            "rounds": res["rounds"],
            "latency_ms": [[1000 * x for x in r] for r in res["latencies"]],
            "speed_probes_s": res["probes"],
            "setup_s": [x for _, x in res["setup"]],
            "setup_probes_s": [p for p, _ in res["setup"]],
        },
    }
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"workload: {workload.name} (seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}{', tiny' if args.tiny else ''})")
    print(f"why: {workload.why}")
    print(f"mix: {workload.mix}")
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, Python {m['python']}, commit {record['commit']}")
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key}: {value:.6g} {unit}{note}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"{key}: {note}")
    print(f"fail_share: {fail_share:.6g}  ({res['failed']} failed of {res['attempted']} attempted, "
          f"{res['mismatched']} wrong outputs, {res['unexpected']} unexpected exceptions)")
    for key, n in sorted(res["rejected"].items()):
        print(f"{key}: {n}")
    for key, n in list(res["errors"].items()) + list(res["problems"].items()):
        print(f"failure x{n}: {key}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["mismatched"] == 0 and res["unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
