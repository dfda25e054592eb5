"""Benchmark workloads: each is a bundled votesim scenario scaled up.

The generator takes the seed as an argument and derives the YAML from the
bundled scenario file; votesim itself only ever sees the generated YAML.

    python3 perfbench/workloads.py <workload> [--seed N]   # print the YAML
"""

import argparse
import os
import sys
from dataclasses import dataclass

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIO_DIR = os.path.join(ROOT, "src", "votesim", "data", "scenarios")

DEFAULT_SEED = 42
HELD_OUT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # bundled scenario the YAML is derived from
    voters: int
    why: str
    honest: bool = False   # no adversary: tally must equal intent
    expect_flip: bool = False
    write_trace: bool = False
    tls: bool = True       # the scenario's tls.enabled, checked on every run
    # wrapped callables the traced run must see at least once
    must_call: tuple = ()


# exercised by every workload: the post-poll pipeline and the report
COMMON_CALLS = (
    "config.load_config", "engine.construct", "engine.run", "netsim.run_all",
    "envelope.keygen", "envelope.seal", "election.open_envelope",
    "election.decode_ballot", "election.cast", "election.dedup_and_count",
    "election.audit_reconcile",
    "election.collect_holdings", "election.linkage_report",
    "report.build_report", "report.serialize_report", "numth.modexp",
    "handler.browser", "handler.cvs", "handler.voter",
)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="honest-5k", scenario="honest-baseline", voters=5000, honest=True,
        why="whole-election path at scale: honest handshakes, seal and four opens "
            "per vote, record layer, no taps; attack and cryptanalysis code bypassed",
        must_call=("minitls.handshake", "minitls.record", "handler.piwik",
                   "handler.registration-gateway", "handler.registration",
                   "handler.verification-ivr", "handler.receipt-service"),
    ),
    Workload(
        name="freak-1to20", scenario="freak-window", voters=3300,
        expect_flip=True, write_trace=True,
        why="FREAK window at 1:20 flips the winner: mitm_freak on the signature "
            "oracle, fetch and cast taps, factoring in setup, trace file written",
        must_call=("minitls.mitm_freak", "minitls.signature_oracle",
                   "minitls.factor_export_modulus", "minitls.handshake",
                   "minitls.record", "tap.downgrade-mitm", "tap.vote-rewrite",
                   "attacks.inject_vote_rewrite", "handler.registration"),
    ),
    Workload(
        name="logjam-2k", scenario="logjam-anyclient", voters=2000,
        why="Logjam on patched clients: ~0.5M-entry dlog precompute in setup, "
            "mitm_logjam and descent for every voter, no honest handshake",
        must_call=("minitls.dlog_precompute", "minitls.mitm_logjam",
                   "minitls.dlog_individual", "minitls.record",
                   "tap.downgrade-mitm", "tap.vote-rewrite", "handler.registration"),
    ),
    Workload(
        name="clash-3k", scenario="clash", voters=3000,
        tls=False,
        why="TLS off: sslstrip registration and clash pooling, fraud casts spend "
            "victims' entitlements; no handshake or MITM code runs",
        must_call=("attacks.clash_register", "attacks.clash_suppress_cast",
                   "tap.sslstrip", "tap.clash-cast", "handler.attacker-registration"),
    ),
)}


def scale_counts(counts: dict, voters: int) -> dict:
    """Scale group quotas so they sum to `voters`, keeping proportions.
    Rounding remainders go to the largest fractional parts, ties by group.
    """
    total = sum(counts.values())
    exact = {g: c * voters / total for g, c in counts.items()}
    out = {g: int(v) for g, v in exact.items()}
    short = voters - sum(out.values())
    for g in sorted(exact, key=lambda g: (out[g] - exact[g], g))[:short]:
        out[g] += 1
    return out


def generate(name: str, seed: int) -> str:
    """YAML text of workload `name` at `seed`."""
    w = WORKLOADS[name]
    with open(os.path.join(SCENARIO_DIR, f"{w.scenario}.yaml")) as f:
        tree = yaml.safe_load(f)
    tree["name"] = w.name
    tree["seed"] = seed
    tree["voters"] = w.voters
    behavior = tree.get("behavior") or {}
    if behavior.get("leaning_counts"):
        behavior["leaning_counts"] = scale_counts(behavior["leaning_counts"], w.voters)
    return yaml.safe_dump(tree, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    sys.stdout.write(generate(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
