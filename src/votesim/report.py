"""Scenario report: the evidence artifact a run produces.

Serialized as canonical JSON (sorted keys, fixed indentation) so that a
rerun with the same config and seed is byte-identical. Wall-clock time
never appears; the published real-world attack costs ride along as
static metadata.
"""

import json
from itertools import islice
from typing import Any, Iterator

from .election import ComplaintKind
from .minitls import REAL_WORLD_COSTS

_REPORT_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)  # a list's metrics row
# tokens joined into one string at a time while encoding
_JOIN_BATCH = 1024


def model_assumptions(config) -> list[str]:
    return [
        "non-card ballots are drawn uniformly at random among valid ballots "
        "with the first council preference fixed to the voter's leaning",
        "voters notice an assigned-not-chosen PIN with probability "
        f"{config.behavior.p_pin_suspicion:g} (behavior.p_pin_suspicion; "
        "the default of 0 is optimistic for the attacker)",
        "voter verify/receipt-check behaviour is drawn independently per voter "
        "from the configured rates",
    ]


def _tally_section(tally) -> dict:
    return {
        "counts": {k: tally.counts[k] for k in sorted(tally.counts)},
        "margin": tally.margin,
        "winner": tally.winner,
        "runner_up": tally.runner_up,
    }


def _detection_counts() -> dict:
    return {"manipulated": 0, "complaints_true": 0, "verify_attempts": 0}


def build_report(engine) -> dict:
    """Collect a finished engine run into a JSON-ready tree. The per-voter
    sections come from one pass over the voter records in id order;
    `detection` joins each record with the voter's ledger entry, if any.
    """
    cfg = engine.config
    ledger = engine.attacker.manipulation_ledger

    cast_accepted = 0
    by_kind: dict[str, int] = {}
    complaints_false = 0
    # per strategy, over that strategy's voters; "overall" is every ledgered
    # voter, except that it counts every voter's verify attempt
    overall = _detection_counts()
    detection = {"overall": overall}
    downgrade = {kind: {"attempted": 0, "succeeded": 0} for kind in ("freak", "logjam")}
    attack_timeline = []
    for voter_id in sorted(engine.voters):
        v = engine.voters[voter_id]
        cast_accepted += v.cast_ok
        if v.complaint is not None:
            by_kind[v.complaint.value] = by_kind.get(v.complaint.value, 0) + 1
        complaints_false += v.complaint is ComplaintKind.FALSE_COMPLAINT
        verified = v.verify_outcome is not None
        overall["verify_attempts"] += verified
        charged = ledger.get(voter_id)
        if charged is not None:
            true_complaint = v.complaint not in (None, ComplaintKind.FALSE_COMPLAINT)
            strategy = detection.setdefault(charged.strategy, _detection_counts())
            strategy["verify_attempts"] += verified
            for counts in (strategy, overall):
                counts["manipulated"] += 1
                counts["complaints_true"] += true_complaint
        for entry in v.downgrades:
            counts = downgrade[entry["kind"]]
            counts["attempted"] += 1
            counts["succeeded"] += entry["outcome"] == "compromised"
        attack_timeline.extend(v.downgrades)
    # fetches at one time are delivered in voter-id order
    attack_timeline.sort(key=lambda entry: entry["time"])

    manipulated_in_window = len(ledger)
    honest_margin = engine.intent_tally.margin
    flip_feasible = (honest_margin is not None and
                     manipulated_in_window >= honest_margin)
    flip_occurred = (engine.tally.winner != engine.intent_tally.winner)

    for counts in detection.values():
        # a false complaint names no manipulated vote, so every strategy
        # carries them all
        counts["complaints_false"] = complaints_false
        counts["detection_ratio"] = (counts["complaints_true"] / counts["manipulated"]
                                     if counts["manipulated"] else None)

    linked_voters = sorted({voter for voter, _ in engine.linked})

    report = {
        "schema_version": 1,
        "scenario": cfg.name,
        "seed": cfg.seed,
        "voters": cfg.voters,
        "votes": {
            "cast_accepted": cast_accepted,
            # single-cast: every stored record is counted and a failed
            # record aborts the run, so the two zeros below only keep the
            # report's shape until its next declared change
            "counted": len(engine.cvs.records),
            "superseded": 0,
            "records_total": len(engine.cvs.records),
            "record_failures": 0,
        },
        "tally": _tally_section(engine.tally),
        "honest_intent_tally": _tally_section(engine.intent_tally),
        "winner_flip": {
            "occurred": flip_occurred,
            "feasible": flip_feasible,
            "manipulated": manipulated_in_window,
            "honest_margin": honest_margin,
        },
        "detection": detection,
        "complaints": {
            "total": sum(by_kind.values()),
            "by_kind": by_kind,
        },
        "downgrade": {
            **downgrade,
            "client_patch_rate": cfg.tls.client_patch_rate,
            "third_party_suites": list(cfg.tls.third_party_suites),
        },
        "attack_timeline": attack_timeline,
        "audit": {
            "mode": engine.audit.mode.value,
            "inconsistencies": [
                {"login_id": inc.login_id, "receipt": inc.receipt, "kind": inc.kind}
                for inc in engine.audit.inconsistencies
            ],
        },
        "linkage": {
            "compromised_components": sorted(cfg.linkage.compromised),
            "linked_voter_count": len(linked_voters),
            "linked_voters": linked_voters,
        },
        "real_world_cost_metadata": REAL_WORLD_COSTS,
        # taps only forward or modify, so no event is dropped or replaced;
        # the two zeros only keep the report's shape until its next
        # declared change
        "event_conservation": {**engine.conservation, "dropped": 0, "replaced": 0},
        "assumptions": model_assumptions(cfg),
        "trace_digest": engine.sim.trace_digest(),
    }
    return report


def _json_chunks(encoder: json.JSONEncoder, value: Any) -> Iterator[str]:
    """`encoder`'s text for `value` in pieces, each the join of
    `_JOIN_BATCH` tokens of the encoder's stream. With `indent` set, json
    encodes in pure Python and yields one short string per token, so
    joining the whole stream at once holds several times the text.
    """
    tokens = encoder.iterencode(value)
    while batch := list(islice(tokens, _JOIN_BATCH)):
        yield "".join(batch)


def report_chunks(report: dict) -> Iterator[str]:
    """The text of `serialize_report` in pieces, for a file to take one
    at a time.
    """
    yield from _json_chunks(_REPORT_ENCODER, report)
    yield "\n"


def serialize_report(report: dict) -> str:
    return "".join(report_chunks(report))


def parse_report(text: str) -> dict:
    return json.loads(text)


def metrics_chunks(report: dict) -> Iterator[str]:
    """The text of `metrics_rows` in pieces: one per leaf row, and a list's
    row as its key, its encoded chunks and the newline.
    """
    def walk(prefix: str, node: Any) -> Iterator[str]:
        if isinstance(node, dict):
            for k in sorted(node):
                yield from walk(f"{prefix}.{k}" if prefix else str(k), node[k])
        elif isinstance(node, list):
            yield prefix + "\t"
            yield from _json_chunks(_ROW_ENCODER, node)
            yield "\n"
        else:
            yield f"{prefix}\t{json.dumps(node)}\n"

    return walk("", report)


def metrics_rows(report: dict) -> str:
    """Flat machine-readable rows (tab-separated key paths)."""
    return "".join(metrics_chunks(report))


def diff_reports(a: dict, b: dict) -> list[tuple[str, Any, Any]]:
    """Structured delta: (key path, value in a, value in b) for every leaf
    that differs. Empty iff the reports are identical.
    """
    out: list[tuple[str, Any, Any]] = []

    def walk(path: str, left: Any, right: Any):
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                sub = f"{path}.{key}" if path else str(key)
                if key not in left:
                    out.append((sub, None, right[key]))
                elif key not in right:
                    out.append((sub, left[key], None))
                else:
                    walk(sub, left[key], right[key])
        elif left != right:
            out.append((path, left, right))

    walk("", a, b)
    return out
