"""Outside-in span tracer for one votesim run.

Wraps the public callables of votesim's modules from outside the package
(module attributes, the names `election` binds from `envelope` and
`ballots`, and the endpoint and tap handlers at `Simulator.add_endpoint`
and `Simulator.install_tap`), so no votesim source changes. Spans are kept
in memory as (name, start, end, parent, voter) and written when the run
ends; self time is a span's duration minus its children's.

Three-argument `builtins.pow` is counted and timed as a leaf, not a span.
"""

import builtins
import statistics
from collections import defaultdict
from time import perf_counter


def _event_voter(args):
    return getattr(args[0].payload, "voter_id", None)


def _percentile(sorted_values, q):
    """Nearest-rank percentile of a sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.tap_hits: dict[str, int] = defaultdict(int)
        self.downgrade = [0, 0]  # [attempted, succeeded]
        self.dlog_entries = 0
        self.giant_steps = 0
        self.modexp_calls = 0
        self.modexp_s = 0.0
        self._restore: list = []

    # --- wrapping ---

    def wrap(self, name, fn, voter_of=None, on_result=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if voter_of is not None:
                voter = voter_of(args)
            else:
                voter = spans[parent][4] if parent >= 0 else None
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent, voter))
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, voter)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, **kw):
        orig = getattr(owner, attr)
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, **kw))

    def _patch_pow(self):
        real_pow = builtins.pow
        tracer = self

        def pow(base, exp, mod=None):
            if mod is None:
                return real_pow(base, exp)
            t0 = perf_counter()
            r = real_pow(base, exp, mod)
            tracer.modexp_s += perf_counter() - t0
            tracer.modexp_calls += 1
            return r

        self._restore.append((builtins, "pow", real_pow))
        builtins.pow = pow

    def install(self):
        """Wrap every traced callable. Call after `import votesim.*`."""
        from votesim import attacks, config, election, engine, envelope, minitls, netsim, report

        p = self.patch
        p(config, "load_config", "config.load_config")
        p(engine.ScenarioEngine, "__init__", "engine.construct")
        p(engine.ScenarioEngine, "run", "engine.run")
        p(netsim.Simulator, "run_all", "netsim.run_all")
        self._patch_simulator(netsim.Simulator)

        p(envelope, "gen_params", "envelope.keygen")
        p(envelope, "gen_keypair", "envelope.keygen")
        p(envelope, "seal", "envelope.seal")
        p(envelope, "open_envelope", "envelope.open")
        # election binds these by `from ... import`; every open goes through it
        p(election, "open_envelope", "election.open_envelope")
        p(election, "decode_ballot", "election.decode_ballot")

        p(minitls, "make_server_config", "minitls.make_server_config")
        p(minitls, "handshake", "minitls.handshake")
        p(minitls, "encrypt_record", "minitls.record")
        p(minitls, "decrypt_record", "minitls.record")
        p(minitls, "signature_oracle", "minitls.signature_oracle")
        p(minitls, "factor_export_modulus", "minitls.factor_export_modulus")
        p(minitls, "mitm_freak", "minitls.mitm_freak", on_result=self._on_mitm)
        p(minitls, "mitm_logjam", "minitls.mitm_logjam", on_result=self._on_mitm)
        p(minitls, "dlog_precompute", "minitls.dlog_precompute",
          on_result=self._on_precompute)
        p(minitls, "dlog_individual", "minitls.dlog_individual",
          on_result=self._on_descent)

        p(election.CoreVotingSystem, "cast", "election.cast")
        for fn in ("dedup_and_count", "audit_reconcile", "collect_holdings",
                   "linkage_report"):
            p(election, fn, f"election.{fn}")

        for fn in ("clash_register", "clash_suppress_cast", "inject_vote_rewrite"):
            p(attacks, fn, f"attacks.{fn}")

        for fn in ("build_report", "serialize_report", "metrics_rows"):
            p(report, fn, f"report.{fn}")
        self._patch_pow()

    def _patch_simulator(self, sim_cls):
        tracer = self
        add_endpoint, install_tap = sim_cls.add_endpoint, sim_cls.install_tap

        def traced_add_endpoint(sim, endpoint):
            if endpoint.handler is not None:
                endpoint.handler = tracer.wrap(
                    "handler." + endpoint.name.rstrip("*"), endpoint.handler,
                    voter_of=_event_voter)
            return add_endpoint(sim, endpoint)

        def traced_install_tap(sim, tap):
            def on_decision(_args, decision, tap_name=tap.name):
                if decision is not None and decision.kind != "forward":
                    tracer.tap_hits[tap_name] += 1
            tap.handler = tracer.wrap("tap." + tap.name, tap.handler,
                                      voter_of=_event_voter, on_result=on_decision)
            return install_tap(sim, tap)

        self._restore.append((sim_cls, "add_endpoint", add_endpoint))
        self._restore.append((sim_cls, "install_tap", install_tap))
        sim_cls.add_endpoint = traced_add_endpoint
        sim_cls.install_tap = traced_install_tap

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # --- result hooks ---

    def _on_mitm(self, _args, result):
        self.downgrade[0] += 1
        self.downgrade[1] += bool(result.success)

    def _on_precompute(self, _args, table):
        self.dlog_entries += len(table.table)

    def _on_descent(self, args, exponent):
        self.giant_steps += exponent // args[1].table_size + 1

    # --- reduction ---

    def by_name(self):
        """name -> (sorted durations, total self time); span self time is its
        duration minus the time its direct children cover.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        durs: dict[str, list] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(spans):
            durs[name].append(t1 - t0)
            self_s[name] += t1 - t0 - child[i]
        for values in durs.values():
            values.sort()
        return durs, self_s

    def calls(self, name, durs):
        """Calls recorded under span `name` (or the `numth.modexp` leaf)."""
        return self.modexp_calls if name == "numth.modexp" else len(durs.get(name, ()))

    def write(self, path):
        with open(path, "w") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\tvoter\n")
            base = self.spans[0][1] if self.spans else 0.0
            for i, (name, t0, t1, parent, voter) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\t"
                        f"{parent}\t{voter or '-'}\n")


def layer_metrics(tracer, engine, report_text):
    """Per-layer metrics of one traced run, and the span durations by name."""
    durs, self_s = tracer.by_name()

    def total(name):
        return sum(durs.get(name, ()))

    def us(name, q):
        values = durs.get(name, [])
        if not values:
            return 0.0
        v = statistics.median(values) if q == 50 else _percentile(values, q)
        return v * 1e6

    events = engine.conservation["scheduled"]
    loop = total("netsim.run_all")
    # dispatch, heap, endpoint lookup and trace formatting: run_all minus
    # its handler and tap child spans
    netsim_self = self_s["netsim.run_all"]
    # opens through election's binding, plus any through the module attribute
    durs["envelope.open"] = sorted(durs.get("envelope.open", []) +
                                   durs.get("election.open_envelope", []))
    opens = len(durs["envelope.open"])
    records = len(engine.cvs.records)
    m = {
        "config.load_s": total("config.load_config"),
        "engine.construct_s": total("engine.construct"),
        "engine.loop_s": loop,
        "engine.postpoll_s": total("engine.run") - loop,
        "netsim.events": events,
        "netsim.self_s": netsim_self,
        "netsim.self_us_per_event": netsim_self / events * 1e6 if events else 0.0,
        "netsim.trace_bytes": len(("\n".join(engine.sim.trace) + "\n").encode()),
        "envelope.keygen_s": total("envelope.keygen"),
        "envelope.seal_calls": len(durs.get("envelope.seal", ())),
        "envelope.seal_us_p50": us("envelope.seal", 50),
        "envelope.seal_us_p99": us("envelope.seal", 99),
        "envelope.open_calls": opens,
        "envelope.open_us_p50": us("envelope.open", 50),
        "envelope.open_us_p99": us("envelope.open", 99),
        "envelope.opens_per_record": opens / records if records else 0.0,
        "minitls.handshake_calls": len(durs.get("minitls.handshake", ())),
        "minitls.handshake_us_p50": us("minitls.handshake", 50),
        "minitls.handshake_us_p99": us("minitls.handshake", 99),
        "minitls.record_us_p50": us("minitls.record", 50),
        "minitls.record_us_p99": us("minitls.record", 99),
        "minitls.mitm_freak_us_p50": us("minitls.mitm_freak", 50),
        "minitls.mitm_freak_us_p99": us("minitls.mitm_freak", 99),
        "minitls.mitm_logjam_us_p50": us("minitls.mitm_logjam", 50),
        "minitls.mitm_logjam_us_p99": us("minitls.mitm_logjam", 99),
        "minitls.downgrade_success_ratio":
            tracer.downgrade[1] / tracer.downgrade[0] if tracer.downgrade[0] else 0.0,
        "minitls.dlog_precompute_s": total("minitls.dlog_precompute"),
        "minitls.dlog_table_entries": tracer.dlog_entries,
        "minitls.dlog_descent_us_p50": us("minitls.dlog_individual", 50),
        "minitls.dlog_giant_steps": tracer.giant_steps,
        "minitls.factor_calls": len(durs.get("minitls.factor_export_modulus", ())),
        "minitls.factor_s": total("minitls.factor_export_modulus"),
        "numth.modexp_calls": tracer.modexp_calls,
        "numth.modexp_s": tracer.modexp_s,
        "election.cast_us_p50": us("election.cast", 50),
        "election.cast_us_p99": us("election.cast", 99),
        "election.count_s": total("election.dedup_and_count"),
        "election.audit_s": total("election.audit_reconcile"),
        "election.holdings_s": total("election.collect_holdings"),
        "election.linkage_s": total("election.linkage_report"),
        "election.records": records,
        "attacks.clash_register_us_p50": us("attacks.clash_register", 50),
        "attacks.manipulated": len(engine.attacker.manipulation_ledger),
        "report.build_s": total("report.build_report"),
        "report.write_s": total("report.write"),
        "report.bytes": len(report_text.encode()),
    }
    for endpoint in ENDPOINTS:
        m[f"engine.handler_s.{endpoint}"] = total(f"handler.{endpoint}")
    # the downgrade tap always forwards and acts by changing voter state:
    # its hits are the calls under which it attempted a MITM
    spans = tracer.spans
    tracer.tap_hits["downgrade-mitm"] = sum(
        1 for p in {parent for name, _, _, parent, _ in spans
                    if name in ("minitls.mitm_freak", "minitls.mitm_logjam")}
        if p >= 0 and spans[p][0] == "tap.downgrade-mitm")
    for tap in TAPS:
        calls = len(durs.get(f"tap.{tap}", ()))
        m[f"attacks.tap_calls.{tap}"] = calls
        m[f"attacks.tap_s.{tap}"] = total(f"tap.{tap}")
        m[f"attacks.tap_hit_ratio.{tap}"] = tracer.tap_hits[tap] / calls if calls else 0.0
    return m, durs


# endpoints with a handler that some workload reaches, and the taps any
# workload installs; metric names drop the glob star of the "voter*" family
ENDPOINTS = ("registration-gateway", "registration", "attacker-registration",
             "piwik", "browser", "cvs", "verification-ivr", "receipt-service",
             "voter")
TAPS = ("downgrade-mitm", "vote-rewrite", "sslstrip", "clash-cast")
