"""One fresh-process votesim run, made the way `votesim run` makes it:
load_config -> ScenarioEngine -> run -> build_report -> serialize_report
-> write report.json, metrics.tsv and (if asked) trace.log.

    python3 perfbench/worker.py --workload W --config C.yaml --out DIR
                                [--mode setup|time|span|mem] [--spans FILE]

Prints one JSON object: timings, peak RSS, digests, the failed output
checks, and in `span` / `mem` mode the per-layer metrics. `setup` mode
stops once the engine is built and reports only the setup time.
"""

import time

T_START = time.perf_counter()  # setup_s runs from here, before `import votesim`

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import COMMON_CALLS, WORKLOADS  # noqa: E402


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def check_outputs(w, config, report, text, base) -> list[str]:
    """The invariants every timed run must meet; returns what failed."""
    fails = []
    if config.tls.enabled != w.tls:
        fails.append(f"tls.enabled is {config.tls.enabled}, workload expects {w.tls}")
    c = report["event_conservation"]
    if c["pending"] or c["delivered"] + c["dropped"] + c["replaced"] != c["scheduled"]:
        fails.append(f"event conservation: {c}")
    flip = report["winner_flip"]
    if report["votes"]["counted"] <= 0:
        fails.append("no votes counted")
    if w.honest:
        if report["tally"] != report["honest_intent_tally"]:
            fails.append("honest tally differs from intent tally")
        if report["complaints"]["total"] or flip["manipulated"]:
            fails.append(f"honest run has {report['complaints']['total']} complaints, "
                         f"{flip['manipulated']} manipulated votes")
    else:
        if flip["manipulated"] <= 0:
            fails.append("attack workload manipulated no votes")
        for strategy, d in report["detection"].items():
            if d["complaints_true"] > d["manipulated"]:
                fails.append(f"{strategy}: true complaints exceed manipulated votes")
    if w.expect_flip and not flip["occurred"]:
        fails.append("winner flip did not occur")
    with open(f"{base}.report.json") as f:
        if f.read() != text:
            fails.append("report.json on disk differs from the serialized report")
    if not os.path.getsize(f"{base}.metrics.tsv"):
        fails.append("metrics.tsv is empty")
    if w.write_trace:
        with open(f"{base}.trace.log", "rb") as f:
            if hashlib.sha256(f.read()).hexdigest() != report["trace_digest"]:
                fails.append("trace.log does not match trace_digest")
    elif os.path.exists(f"{base}.trace.log"):
        fails.append("trace.log written without being asked for")
    return fails


def mem_snapshot_by_module(snapshot, package_dir) -> dict[str, float]:
    """Live MB by allocating votesim module; everything else is "other".
    One frame per allocation: with one, the run is 8-12x slower than
    untraced; with two it was 14x on honest-5k and with four 40x on logjam-2k.
    """
    out: dict[str, float] = {}
    for stat in snapshot.statistics("filename"):
        filename = stat.traceback[0].filename
        module = "other"
        if filename.startswith(package_dir):
            module = os.path.basename(filename).removesuffix(".py")
        out[module] = out.get(module, 0.0) + stat.size / 1e6
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("setup", "time", "span", "mem"), default="time")
    parser.add_argument("--spans", default=None, help="span file (span mode)")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    t_import = time.perf_counter()
    from votesim import config as config_mod, engine as engine_mod, netsim, report as report_mod
    import_s = time.perf_counter() - t_import
    post_import_kb = maxrss_kb()

    tracer = None
    mem = {}
    if args.mode == "span":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    elif args.mode == "mem":
        import tracemalloc
        package_dir = os.path.dirname(netsim.__file__) + os.sep
        run_all = netsim.Simulator.run_all

        def run_all_then_snapshot(sim):
            delivered = run_all(sim)
            mem.update(mem_snapshot_by_module(tracemalloc.take_snapshot(), package_dir))
            return delivered

        netsim.Simulator.run_all = run_all_then_snapshot
        tracemalloc.start(1)

    # called through the modules, so the tracer's wrappers are the ones used
    config = config_mod.load_config(args.config)
    engine = engine_mod.ScenarioEngine(config)
    t_setup = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"mode": "setup", "setup_s": t_setup - T_START,
                          "import_s": import_s, "failures": []}))
        return 0

    engine.run()
    report = report_mod.build_report(engine)

    def write_files():
        text = report_mod.serialize_report(report)
        os.makedirs(args.out, exist_ok=True)
        base = os.path.join(args.out, f"{config.name}-seed{config.seed}")
        with open(f"{base}.report.json", "w") as f:
            f.write(text)
        with open(f"{base}.metrics.tsv", "w") as f:
            f.write(report_mod.metrics_rows(report))
        if w.write_trace:
            with open(f"{base}.trace.log", "w") as f:
                f.write("\n".join(engine.sim.trace) + "\n")
        return text, base

    if tracer is not None:
        write_files = tracer.wrap("report.write", write_files)
    text, base = write_files()
    t_end = time.perf_counter()
    if args.mode == "mem":
        tracemalloc.stop()

    out = {
        "workload": w.name,
        "seed": config.seed,
        "mode": args.mode,
        "setup_s": t_setup - T_START,
        "run_s": t_end - t_setup,
        "import_s": import_s,
        "peak_rss_mb": maxrss_kb() / 1024,
        "rss_kb_per_voter": (maxrss_kb() - post_import_kb) / config.voters,
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "trace_digest": report["trace_digest"],
        "summary": {
            "counted": report["votes"]["counted"],
            "winner": report["tally"]["winner"],
            "honest_margin": report["winner_flip"]["honest_margin"],
            "manipulated": report["winner_flip"]["manipulated"],
            "flip": report["winner_flip"]["occurred"],
            "complaints": report["complaints"]["total"],
        },
    }
    out["failures"] = check_outputs(w, config, report, text, base)
    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_metrics
        metrics, durs = layer_metrics(tracer, engine, text)
        out["metrics"] = metrics
        missing = [name for name in COMMON_CALLS + w.must_call
                   if not tracer.calls(name, durs)]
        if missing:
            out["failures"].append(f"tracer self-check: no calls recorded for {missing}")
        if args.spans:
            tracer.write(args.spans)
    if args.mode == "mem":
        out["metrics"] = {f"mem.{k}_mb": v for k, v in sorted(mem.items())}
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
