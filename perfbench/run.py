"""votesim benchmark.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Generates the workload's YAML from its bundled scenario at `--seed`, then
runs votesim in fresh worker processes (perfbench/worker.py), each with a
different PYTHONHASHSEED, and checks every run's outputs.

--trace 0 repeats untraced runs for `--seconds` and reports the median
`setup_s`, `run_s` and `peak_rss_mb`. `setup_s` and `run_s` are scaled to
reference speed: each run's seconds times REF_S over the time of a fixed
reference kernel (perfbench/refkernel.py) measured next to it.

--trace 1 makes three pairs of an untraced and a span-traced run (the exact counts of all span-traced runs
must agree) and one tracemalloc run, and reports the per-layer metrics plus
the tracing overhead, the median of the per-pair differences. The last
line of output is one JSON object.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from tracer import TAPS
from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

REF_S = 0.1         # reference speed: the reference kernel's median takes this long
MIN_REPS = 3        # full runs, however long they take
MIN_SETUPS = 2      # extra set-up-only runs after the full ones
MAX_REPS = 40
TRACE_PAIRS = 3     # untraced/span-traced pairs in a traced invocation
RUN_LIMIT_S = 170   # hard cap on one invocation; workers past it are killed
WORKER_TIMEOUT = {"setup": 30, "time": 60, "span": 60, "mem": 150}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))

# deterministic counts: must repeat exactly across runs and hash seeds
EXACT_COUNTS = (
    "netsim.events", "netsim.trace_bytes", "envelope.seal_calls",
    "envelope.open_calls", "envelope.opens_per_record", "minitls.handshake_calls",
    "minitls.downgrade_success_ratio", "minitls.dlog_table_entries",
    "minitls.dlog_giant_steps", "minitls.factor_calls", "numth.modexp_calls",
    "election.records", "attacks.manipulated", "report.bytes",
    *(f"attacks.tap_{kind}.{tap}" for tap in TAPS for kind in ("calls", "hit_ratio")),
)
# exact counts that measure the experiment itself (factoring, dlog
# precompute and descent, downgrade success), not overhead: a change
# that shrinks them changes the result, never counts as a speed-up
GUARDED = ("minitls.dlog_table_entries", "minitls.dlog_giant_steps",
           "minitls.factor_calls", "minitls.downgrade_success_ratio")
# modules that can hold live memory when the event loop ends
MEM_MODULES = ("attacks", "ballots", "config", "election", "engine", "envelope",
               "messages", "minitls", "netsim", "numth", "other")


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def run_worker(name, config, out, mode, hashseed, deadline, spans=None):
    """One fresh votesim process; returns its result dict, or an error dict."""
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--config", config, "--out", out, "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.perf_counter()
    result = _worker_result(cmd, env, mode, deadline)
    result.update(hashseed=hashseed, wall_s=time.perf_counter() - t0)
    shutil.rmtree(out, ignore_errors=True)
    return result


def _worker_result(cmd, env, mode, deadline) -> dict:
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, min(WORKER_TIMEOUT[mode],
                                                   deadline - time.perf_counter())))
    except subprocess.TimeoutExpired:
        return {"failures": [f"{mode} worker timed out"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"{mode} worker exited {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digests(results, name, seed) -> None:
    """Every run of one workload and seed must produce the same digests, and
    at the default seed the recorded ones. Appends to each run's failures.
    """
    expected = load_digests().get(name) if seed == DEFAULT_SEED else None
    ok = [r for r in results if "report_sha256" in r]
    if not ok:
        return
    ref = expected or {k: ok[0][k] for k in ("report_sha256", "trace_digest")}
    for r in ok:
        for key in ("report_sha256", "trace_digest"):
            if r[key] != ref[key]:
                where = "recorded" if expected else f"hashseed {ok[0]['hashseed']}"
                r["failures"].append(f"{key} {r[key][:12]} differs from {where} {ref[key][:12]}")


def prepare(name, seed) -> tuple[str, str]:
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, f"{name}.yaml")
    with open(config, "w") as f:
        f.write(generate(name, seed))
    # compile votesim's bytecode and warm the file cache before timing
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c", "import votesim.cli, votesim.engine"],
                   env=env, check=True, timeout=60)
    return work, config


def median(results, key) -> float:
    values = [r[key] for r in results if key in r and not r["failures"]]
    return statistics.median(values) if values else 0.0


def reference(deadline) -> float:
    """Median time of the reference kernel, in a fresh process."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "refkernel.py")],
                          capture_output=True, text=True, check=True,
                          timeout=max(1.0, min(30, deadline - time.perf_counter())))
    return json.loads(proc.stdout.strip().splitlines()[-1])["ref_s"]


def normalize(runs, refs) -> None:
    """Scale each run's `setup_s` and `run_s` to reference speed. Run i
    sits between reference measurements i and i + 1 and is divided by their
    mean; the measured seconds stay as `<key>_raw`.
    """
    for r, before, after in zip(runs, refs, refs[1:]):
        r["ref_s"] = (before + after) / 2
        for key in ("setup_s", "run_s"):
            if key in r:
                r[f"{key}_raw"] = r[key]
                r[key] *= REF_S / r["ref_s"]


def timed_runs(name, seed, seconds, deadline) -> dict:
    """Full runs while the next one, plus MIN_SETUPS set-up-only runs, fits
    in `seconds` (at least MIN_REPS full runs), then set-up-only runs in the
    time left (at least MIN_SETUPS), so that `setup_s` is a median over more
    samples than `run_s`. The reference kernel runs before the first run
    and after each one.
    """
    work, config = prepare(name, seed)
    results, setups = [], []
    refs = [reference(deadline)]
    start = time.perf_counter()

    def timed(mode, out, hashseed):
        r = run_worker(name, config, out, mode, hashseed, deadline)
        t0 = time.perf_counter()
        refs.append(reference(deadline))
        r["wall_s"] += time.perf_counter() - t0
        return r

    def fits(done, least, reserve=0.0):
        if len(done) < least:
            return True
        per_run = statistics.mean(r["wall_s"] for r in done)
        return time.perf_counter() - start + per_run + reserve <= seconds

    def setup_reserve():
        return MIN_SETUPS * statistics.mean(r["wall_s"] - r.get("run_s", 0.0) for r in results)

    while len(results) < MAX_REPS and fits(results, MIN_REPS, setup_reserve() if results else 0.0):
        results.append(timed("time", os.path.join(work, f"rep{len(results)}"),
                             len(results) + 1))
    while len(setups) < MAX_REPS and fits(setups, MIN_SETUPS):
        setups.append(timed("setup", os.path.join(work, "setup"), 100 + len(setups)))
    normalize(results + setups, refs)
    check_digests(results, name, seed)
    metrics = {key: {"value": median(results + setups if key == "setup_s" else results, key),
                     "unit": unit}
               for key, unit in END_TO_END}
    return {"results": results + setups, "metrics": metrics}


def traced_runs(name, seed, deadline) -> dict:
    """TRACE_PAIRS pairs of one untraced and one span-traced run, in
    alternating order so drift cancels in the per-pair overhead; then the
    tracemalloc run.
    """
    work, config = prepare(name, seed)
    spans_file = os.path.join(work, "spans.tsv")
    plain, spans = [], []
    for pair in range(TRACE_PAIRS):
        for mode in (("time", "span") if pair % 2 == 0 else ("span", "time")):
            i = len(plain) + len(spans)
            r = run_worker(name, config, os.path.join(work, f"run{i}"), mode, i + 1, deadline,
                           spans=spans_file if mode == "span" and not spans else None)
            (spans if mode == "span" else plain).append(r)
    mem = run_worker(name, config, os.path.join(work, "mem"), "mem", 2 * TRACE_PAIRS + 1,
                     deadline)
    results = [*plain, *spans, mem]
    check_digests(results, name, seed)
    first = spans[0]
    for other in spans[1:]:
        if "metrics" not in first or "metrics" not in other:
            continue
        for key in EXACT_COUNTS:
            if first["metrics"][key] != other["metrics"][key]:
                other["failures"].append(
                    f"exact count {key} differs across hash seeds: "
                    f"{first['metrics'][key]} != {other['metrics'][key]}")
    layer = dict(first.get("metrics", {}))
    mem_mb = mem.get("metrics", {})
    for module in MEM_MODULES:
        layer[f"mem.{module}_mb"] = mem_mb.get(f"mem.{module}_mb", 0.0)
    layer["votesim.import_s"] = median(plain, "import_s")
    layer["engine.rss_kb_per_voter"] = median(plain, "rss_kb_per_voter")
    pairs = [(s, p) for s, p in zip(spans, plain) if not s["failures"] and not p["failures"]]
    layer["trace.overhead_s"] = (statistics.median(s["run_s"] - p["run_s"] for s, p in pairs)
                                 if pairs else 0.0)
    untraced = [r["run_s"] for r in plain if not r["failures"]]
    spread = max(untraced) - min(untraced) if untraced else 0.0
    notes = {}
    if spread > abs(layer["trace.overhead_s"]):
        notes["trace.overhead_s"] = f"unresolved: untraced run_s spread {spread:.3f} s exceeds it"
    metrics = {key: {"value": value, "unit": unit_of(key)}
               for key, value in sorted(layer.items())}
    return {"results": results, "metrics": metrics, "notes": notes}


def unit_of(metric: str) -> str:
    kind = metric.split(".")[1]  # "seal_us_p50", "tap_s", "load_s", ...
    if "ratio" in kind or kind == "opens_per_record":
        return "ratio"
    for marker, unit in (("_us", "us"), ("bytes", "B"), ("_kb_per_voter", "KB")):
        if marker in kind:
            return unit
    if kind.endswith("_s"):
        return "s"
    if kind.endswith("_mb"):
        return "MB"
    return "count"


def run_workload(name, seed, seconds, trace) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    outcome = (traced_runs(name, seed, deadline) if trace
               else timed_runs(name, seed, seconds, deadline))
    results = outcome["results"]
    failed = sum(1 for r in results if r["failures"])
    print(f"workload={name} seed={seed} runs={len(results)} trace={int(trace)}")
    for r in results:
        print(f"  run hashseed={r['hashseed']} mode={r.get('mode', '?')} "
              f"setup_s={r.get('setup_s', 0):.4f} run_s={r.get('run_s', 0):.4f} "
              f"peak_rss_mb={r.get('peak_rss_mb', 0):.1f} "
              + (f"measured setup_s={r.get('setup_s_raw', 0):.4f} run_s={r.get('run_s_raw', 0):.4f} "
                 f"ref_s={r['ref_s']:.4f} " if "ref_s" in r else "")
              + f"failures={'; '.join(r['failures']) or 'none'}")
    digests = next((r for r in results if "report_sha256" in r), None)
    if digests is not None:
        print(f"  digest report_sha256={digests['report_sha256']} "
              f"trace_digest={digests['trace_digest']} summary={json.dumps(digests['summary'])}")
    notes = outcome.get("notes", {})
    for key, m in outcome["metrics"].items():
        tag = ""
        if key in GUARDED:
            tag = "  [exact; experiment cost, guarded]"
        elif key in EXACT_COUNTS:
            tag = "  [exact]"
        elif key in notes:
            tag = f"  [{notes[key]}]"
        print(f"  {key} = {m['value']:.6g} {m['unit']}{tag}")
    print(f"  failed_share = {failed / len(results):.6g} ratio ({failed}/{len(results)})")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": outcome["metrics"]}


def provenance() -> dict:
    return {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "exact_counts": list(EXACT_COUNTS), "guarded_exact_counts": list(GUARDED),
            "why": {name: w.why for name, w in WORKLOADS.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "votesim", "__init__.py")):
        print(f"votesim sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result, sort_keys=True))
        return 0

    per = {name: run_workload(name, args.seed, args.seconds, args.trace)
           for name in WORKLOADS}
    if not args.trace:
        columns = [key for key, _ in END_TO_END] + ["failed_share"]
        print(f"{'workload':<14}" + "".join(f"{k:>16}" for k in columns))
        for name, r in per.items():
            cells = [f"{r['metrics'][key]['value']:.4f} {unit}" for key, unit in END_TO_END]
            cells.append(f"{r['failed'] / r['attempted']:.4g} ratio")
            print(f"{name:<14}" + "".join(f"{c:>16}" for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in per.values()),
        "attempted": sum(r["attempted"] for r in per.values()),
        "failed": sum(r["failed"] for r in per.values()),
        "workloads": per, "seed": args.seed, "provenance": provenance(),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
