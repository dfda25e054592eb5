"""Config validation, scenario runner determinism, report diffs, CLI."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import fields, is_dataclass
from pathlib import Path
from random import Random
from typing import Union, get_args, get_origin

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import votesim
from votesim.ballots import Ballot, CouncilMode, encode_ballot
from votesim.cli import main
from votesim.config import (
    FACTORING_SIM_SECONDS,
    MAX_PREFS,
    U16_MAX,
    ConfigInvalid,
    LinkageConfig,
    ScenarioConfig,
    build_manifest,
    bundled_scenarios,
    load_config,
    parse_config,
)
from votesim.election import Credentials
from votesim.engine import ScenarioEngine, run_engine
from votesim.envelope import DigitalEnvelope, gen_keypair, gen_params, seal
from votesim.messages import CastSubmission
from votesim.netsim import Event
from votesim.report import build_report, diff_reports, parse_report, serialize_report


def minimal_tree(**over):
    tree = {"schema_version": 1, "name": "t", "seed": 1, "voters": 50,
            "manifest": {"groups": 4, "candidates": 8, "assembly": 4},
            "tls": {"enabled": False}}
    tree.update(over)
    return tree


class TestConfigValidation:
    def test_minimal_parses(self):
        cfg = parse_config(minimal_tree())
        assert isinstance(cfg, ScenarioConfig)
        assert cfg.seed == 1

    def test_missing_seed_reports_key(self):
        tree = minimal_tree()
        del tree["seed"]
        with pytest.raises(ConfigInvalid, match="seed"):
            parse_config(tree)

    def test_bad_probability_reports_path(self):
        tree = minimal_tree(behavior={"card_rate": 1.5})
        with pytest.raises(ConfigInvalid, match="behavior.card_rate"):
            parse_config(tree)

    def test_bad_suite_reports_path(self):
        tree = minimal_tree(tls={"third_party_suites": ["RSA", "ROT13"]})
        with pytest.raises(ConfigInvalid, match="third_party_suites"):
            parse_config(tree)

    def test_bad_timeline_order(self):
        tree = minimal_tree(timeline={"polls_open": 10, "polls_close": 5,
                                      "receipt_service_end": 100})
        with pytest.raises(ConfigInvalid, match="timeline"):
            parse_config(tree)

    def test_unknown_linkage_component(self):
        tree = minimal_tree(linkage={"compromised": ["nsa"]})
        with pytest.raises(ConfigInvalid, match="linkage.compromised"):
            parse_config(tree)

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigInvalid, match="schema_version"):
            parse_config(minimal_tree(schema_version=99))

    def test_card_override_applied(self):
        tree = minimal_tree(manifest={
            "groups": 4, "candidates": 8, "assembly": 4,
            "cards": {"g01": {"assembly": ["a02"], "mode": "atl",
                              "council": ["g01", "g03"]}},
        })
        engine = run_engine(parse_config(tree))
        card = engine.manifest.cards["g01"]
        assert card.assembly_prefs == ("a02",)
        assert card.council_prefs == ("g01", "g03")
        # untouched groups keep their generated single-preference cards
        assert engine.manifest.cards["g02"].council_prefs == ("g02",)

    def test_bad_card_mode_reports_path(self):
        tree = minimal_tree(manifest={
            "groups": 4, "candidates": 8, "assembly": 4,
            "cards": {"g01": {"assembly": ["a01"], "mode": "sideways",
                              "council": ["g01"]}},
        })
        with pytest.raises(ConfigInvalid, match="manifest.cards.g01.mode"):
            parse_config(tree)

    def test_downgrade_attack_requires_tls(self):
        tree = minimal_tree(attacks={"freak": {"enabled": True}})
        with pytest.raises(ConfigInvalid, match="tls.enabled"):
            parse_config(tree)

    def test_logjam_requires_export_dhe_suite(self):
        tree = minimal_tree(
            tls={"enabled": True, "third_party_suites": ["RSA", "DHE"]},
            attacks={"logjam": {"enabled": True}})
        with pytest.raises(ConfigInvalid, match="DHE_EXPORT"):
            parse_config(tree)

    def test_shortest_oracle_lifetime_loads(self):
        # the bound is inclusive: oracles then open one factoring time
        # apart, two across the default polls
        tree = minimal_tree(
            tls={"enabled": True, "oracle_connection_lifetime": 2 * FACTORING_SIM_SECONDS},
            attacks={"freak": {"enabled": True}})
        assert len(ScenarioEngine(parse_config(tree)).freak_oracles) == 2

    def test_yaml_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("schema_version: 1\nseed: [unclosed\n")
        with pytest.raises(ConfigInvalid, match="line"):
            load_config(str(path))


def grammar(cls=ScenarioConfig, path=""):
    """(path, type, metadata) of every section and every leaf of the config
    grammar under dataclass `cls`. `name` is left out: any value is taken
    as its string.
    """
    yield path, cls, {}
    for f in fields(cls):
        if f.name == "name":
            continue
        sub = f"{path}.{f.name}" if path else f.name
        tp = f.type
        if get_origin(tp) is Union:  # Optional[T]: null is valid, so mutate T
            tp = get_args(tp)[0]
        if is_dataclass(tp):
            yield from grammar(tp, sub)
            continue
        yield sub, tp, f.metadata
        if get_origin(tp) is dict and is_dataclass(get_args(tp)[1]):
            yield from grammar(get_args(tp)[1], f"{sub}.g01")


KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12)
NOT_A_MAPPING = st.one_of(st.integers(), st.text(), st.lists(st.integers(), max_size=2))


def invalid_leaf(tp, meta):
    """Values a field of type `tp` with `meta` rejects."""
    if tp is bool:
        return st.one_of(st.text(), st.integers(), st.floats())
    if tp is str:
        wrong = st.one_of(st.integers(), st.booleans(), st.floats())
        if "choices" in meta:
            wrong = st.one_of(wrong, st.text().filter(lambda v: v not in meta["choices"]))
        return wrong
    if get_origin(tp) is tuple:
        item = st.integers()
        if "choices" in meta:
            item = st.one_of(item, st.text().filter(lambda v: v not in meta["choices"]))
        wrong = st.one_of(st.integers(), st.text(), st.lists(item, min_size=1, max_size=3))
        return st.one_of(wrong, st.just([])) if meta.get("min") else wrong
    wrong = st.one_of(st.text(), st.booleans(), st.lists(st.integers(), max_size=2))
    if tp is int:
        wrong = st.one_of(wrong, st.floats())
        if "min" in meta:
            wrong = st.one_of(wrong, st.integers(max_value=meta["min"] - 1))
        if "max" in meta:
            wrong = st.one_of(wrong, st.integers(min_value=meta["max"] + 1))
        if "choices" in meta:
            wrong = st.one_of(wrong, st.integers().filter(lambda v: v not in meta["choices"]))
        return wrong
    assert tp is float, tp
    if "min" in meta:
        return st.one_of(wrong, st.floats(max_value=meta["min"], exclude_max=True))
    return st.one_of(wrong, st.floats().filter(lambda v: not 0 <= v <= 1))


def draw_no_adversary_tree(data, candidates_ok=True, suites_ok=True):
    """A config tree with no adversary that the grammar accepts. With
    `candidates_ok` false, some group has no candidate; with `suites_ok`
    false, TLS is on with no suite the honest client offers (none, or
    only export ones). Both are impossible elections.
    """
    prob = st.floats(0, 1)
    groups = data.draw(st.integers(1 if candidates_ok else 2, 6))
    candidates = data.draw(st.integers(groups, 3 * groups) if candidates_ok
                           else st.integers(1, groups - 1))
    delay_min = data.draw(st.integers(0, 3600))
    polls_open = data.draw(st.integers(0, 3600))
    polls_close = polls_open + data.draw(st.integers(1812, 86400))
    tls_enabled = data.draw(st.booleans()) if suites_ok else True
    suites = data.draw(st.lists(st.sampled_from(["RSA_EXPORT", "DHE_EXPORT"]), unique=True))
    if suites_ok:
        honest = data.draw(st.lists(st.sampled_from(["RSA", "DHE"]), unique=True,
                                    min_size=int(tls_enabled)))
        suites = data.draw(st.permutations(suites + honest))
    phone = data.draw(prob)
    return {
        "schema_version": 1, "seed": data.draw(st.integers(0, 2**32)),
        "voters": data.draw(st.integers(1, 40)),
        "manifest": {"groups": groups, "candidates": candidates,
                     "assembly": data.draw(st.integers(1, 6)),
                     "min_below_line_prefs": data.draw(st.integers(1, 3))},
        "behavior": {"card_rate": data.draw(prob), "p_verify_ivr": data.draw(prob),
                     "p_check_receipt_only": data.draw(prob),
                     "p_false_complaint": data.draw(prob),
                     "phone_fraction": phone,
                     "polling_fraction": data.draw(st.floats(0, 1 - phone)),
                     "caller_id_fraction": data.draw(prob),
                     "verify_delay_min": delay_min,
                     "verify_delay_max": delay_min + data.draw(st.integers(0, 7200))},
        "timeline": {"polls_open": polls_open, "polls_close": polls_close,
                     "receipt_service_end": polls_close
                     + data.draw(st.integers(1, 86400))},
        "crypto": {"envelope_bits": data.draw(st.sampled_from([32, 64, 128]))},
        "tls": {"enabled": tls_enabled, "client_patch_rate": data.draw(prob),
                "third_party_suites": suites},
        "linkage": {"compromised": data.draw(st.lists(st.sampled_from(
            LinkageConfig.__dataclass_fields__["compromised"].metadata["choices"]),
            unique=True))},
    }


def draw_clash_tree(data):
    """A small config tree with the clash front on, drawn over the keys
    that steer it and the strategies that meet it at the browser and the
    IVR. One tree in about ten closes the polls before 1,812 s, which
    leaves no casting window after the registration and fetch leads, so
    `parse_config` rejects it.
    """
    prob = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
    groups = data.draw(st.integers(1, 5))
    if data.draw(st.integers(0, 9)):
        polls_close = data.draw(st.sampled_from([43200]) | st.integers(1812, 43200))
    else:
        polls_close = data.draw(st.integers(1, 1811))
    phone = data.draw(prob)
    granted = data.draw(prob)
    return {
        "schema_version": 1, "name": "gen", "seed": data.draw(st.integers(0, 2**32)),
        "voters": data.draw(st.sampled_from([60]) | st.integers(1, 60)),
        "manifest": {"groups": groups,
                     "candidates": data.draw(st.integers(groups, 3 * groups)),
                     "assembly": data.draw(st.integers(1, 4))},
        "behavior": {"card_rate": data.draw(prob), "p_verify_ivr": data.draw(prob),
                     "p_check_receipt_only": data.draw(prob),
                     "p_false_complaint": data.draw(prob),
                     "p_pin_suspicion": data.draw(prob),
                     "phone_fraction": phone,
                     "polling_fraction": data.draw(st.floats(0, 1 - phone)),
                     "caller_id_fraction": data.draw(prob)},
        "timeline": {"polls_open": 0, "polls_close": polls_close,
                     "receipt_service_end": polls_close
                     + data.draw(st.integers(1, 86400))},
        "crypto": {"envelope_bits": 32},
        "tls": {"enabled": False},
        "attacks": {
            "clash": {"enabled": True,
                      "prediction": data.draw(st.sampled_from(["card", "perfect"]))},
            "fake_ivr": {"enabled": data.draw(st.booleans()),
                         "dial_genuine_rate": data.draw(prob)},
            "vote_rewrite": {"enabled": granted > 0},
            "granted_compromise_rate": granted,
        },
        "audit": {"mode": data.draw(st.sampled_from(["honest", "blind_eye"]))},
    }


# Configs the grammar or a cross-field check rejects: (key path, overrides
# of minimal_tree)
UNRUNNABLE = [
    ("attacks.target_group", {"attacks": {"target_group": "g99"}}),
    ("tls.oracle_connection_lifetime",
     {"tls": {"enabled": True, "oracle_connection_lifetime": 3600},
      "attacks": {"freak": {"enabled": True}}}),
    ("behavior.leaning_counts.g99", {"behavior": {"leaning_counts": {"g99": 3}}}),
    ("behavior.leaning_counts", {"behavior": {"leaning_counts": {"g01": 60}}}),
    ("timeline.polls_close", {"timeline": {"polls_open": 0, "polls_close": 1000,
                                           "receipt_service_end": 2000}}),
    ("behavior.leaning_weights.g99",
     {"behavior": {"leaning_weights": {"g01": 1.0, "g99": 1.0}}}),
    ("attacks.freak.window_start",
     {"tls": {"enabled": True},
      "attacks": {"freak": {"enabled": True, "window_start": "3600"}}}),
    ("attacks.logjam.window_end",
     {"tls": {"enabled": True},
      "attacks": {"logjam": {"enabled": True, "window_end": "40000"}}}),
    ("behavior.leaning_weights",
     {"behavior": {"leaning_weights": {"g01": 0, "g02": 0.0}}}),
    ("manifest.cards.g01",
     {"manifest": {"groups": 4, "candidates": 8, "assembly": 4,
                   "cards": {"g01": {"assembly": ["a99"], "council": ["g01"]}}}}),
    ("manifest.cards.g01",
     {"manifest": {"groups": 4, "candidates": 8, "assembly": 4,
                   "cards": {"g01": {"assembly": ["a01"], "mode": "btl",
                                     "council": ["c999"]}}}}),
    ("manifest.cards.g09",
     {"manifest": {"groups": 4, "candidates": 8, "assembly": 4,
                   "cards": {"g09": {"assembly": ["a01"], "council": ["g01"]}}}}),
    # unknown keys, at the top level and in every section
    ("attackz", {"attackz": {"vote_rewrite": {"enabled": True}}}),
    ("behavior.p_verify_irv", {"behavior": {"p_verify_irv": 0.5}}),
    ("manifest.group", {"manifest": {"groups": 4, "candidates": 8,
                                     "assembly": 4, "group": 4}}),
    ("manifest.cards.g01.councl",
     {"manifest": {"groups": 4, "candidates": 8, "assembly": 4,
                   "cards": {"g01": {"assembly": ["a01"], "council": ["g01"],
                                     "councl": ["g02"]}}}}),
    ("timeline.polls_end", {"timeline": {"polls_end": 100}}),
    ("crypto.bits", {"crypto": {"bits": 64}}),
    ("tls.enable", {"tls": {"enabled": False, "enable": True}}),
    ("attacks.vote_rewite", {"attacks": {"vote_rewite": {"enabled": True}}}),
    ("attacks.freak.window", {"attacks": {"freak": {"window": 5}}}),
    ("attacks.vote_rewrite.enable",
     {"attacks": {"vote_rewrite": {"enable": True}}}),
    ("attacks.last_minute.window",
     {"attacks": {"last_minute": {"window": 60}}}),
    ("attacks.clash.predict", {"attacks": {"clash": {"predict": "card"}}}),
    ("attacks.server_rewrite.counts",
     {"attacks": {"server_rewrite": {"counts": 3}}}),
    ("audit.mod", {"audit": {"mod": "honest"}}),
    ("linkage.phone_taps", {"linkage": {"phone_taps": False}}),
    ("behavior", {"behavior": [0.5]}),
    ("tls.export_bits", {"tls": {"enabled": True, "export_bits": 96}}),
    # impossible elections: a group with no candidate, TLS with no suite
    ("manifest.candidates",
     {"manifest": {"groups": 4, "candidates": 3, "assembly": 4}}),
    ("tls.third_party_suites", {"tls": {"enabled": True, "third_party_suites": []}}),
    # an attack window that cannot fire: inverted, or after the polls close
    ("attacks.freak.window_start",
     {"tls": {"enabled": True},
      "attacks": {"freak": {"enabled": True, "window_start": 40000,
                            "window_end": 3600}}}),
    ("attacks.logjam.window_start",
     {"tls": {"enabled": True},
      "attacks": {"logjam": {"enabled": True, "window_start": 50000,
                             "window_end": 60000}}}),
    # inside the polls, but over before the first background fetch
    ("attacks.freak.window_start",
     {"voters": 60, "tls": {"enabled": True, "client_patch_rate": 0.0},
      "attacks": {"vote_rewrite": {"enabled": True},
                  "freak": {"enabled": True, "window_start": 0,
                            "window_end": 1800}}}),
    # deleted keys: no check ever read the tag it toggled; the clash
    # attack strips the gateway itself; an untapped phone network is
    # phone_tap_caller_id left out of linkage.compromised
    ("crypto.signature_forgeable_by_server",
     {"crypto": {"signature_forgeable_by_server": True}}),
    ("attacks.gateway_stripped", {"attacks": {"gateway_stripped": True}}),
    ("linkage.phone_tap", {"linkage": {"phone_tap": False}}),
    # a manifest past the u16 counts and indexes of the ballot wire format
    ("manifest.assembly",
     {"voters": 200, "manifest": {"groups": 4, "candidates": 8, "assembly": 70000}}),
    # TLS with no suite the honest client offers: every honest fetch would
    # fail with NoCommonSuite
    ("tls.third_party_suites",
     {"tls": {"enabled": True, "third_party_suites": ["RSA_EXPORT"]}}),
    ("tls.third_party_suites",
     {"tls": {"enabled": True, "third_party_suites": ["DHE_EXPORT"]}}),
    ("tls.third_party_suites",
     {"tls": {"enabled": True, "third_party_suites": ["RSA_EXPORT", "DHE_EXPORT"]},
      "attacks": {"freak": {"enabled": True}, "logjam": {"enabled": True}}}),
    # one draw picks the channel, so phone and polling cannot exceed 1
    ("behavior.polling_fraction",
     {"behavior": {"phone_fraction": 0.6, "polling_fraction": 0.5}}),
    # an oracle that serves for less time than its key took to factor: at
    # 25201 s one would open every simulated second of the window
    ("tls.oracle_connection_lifetime",
     {"tls": {"enabled": True, "oracle_connection_lifetime": 25201},
      "attacks": {"freak": {"enabled": True}}}),
]


def valid_grammar_tree():
    tree = minimal_tree()
    tree["manifest"]["cards"] = {"g01": {"assembly": ["a01"], "council": ["g01"]}}
    return tree


class TestGrammar:
    def test_readme_grammar_block_is_the_dataclass_defaults(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Scenario config grammar", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        cfg = parse_config(yaml.safe_load(block))
        assert cfg == ScenarioConfig(name=cfg.name, seed=cfg.seed, voters=cfg.voters)

    @pytest.mark.parametrize("path, tp, meta", list(grammar()),
                             ids=[path or "top" for path, _, _ in grammar()])
    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(data=st.data())
    def test_every_invalid_leaf_or_extra_key_names_its_path(self, path, tp, meta, data):
        tree = valid_grammar_tree()
        *parents, leaf = path.split(".") if path else [""]
        node = tree
        for key in parents:
            node = node.setdefault(key, {})
        if is_dataclass(tp):
            section = node if not path else node.setdefault(leaf, {})
            known = {f.name for f in fields(tp)} | ({"schema_version"} if not path else set())
            key = data.draw(KEYS.filter(lambda k: k not in known), label="extra key")
            if path and data.draw(st.booleans(), label="replace section"):
                node[leaf] = data.draw(NOT_A_MAPPING, label="section")
                want = path
            else:
                section[key] = 1
                want = f"{path}.{key}" if path else key
        elif get_origin(tp) is dict and not is_dataclass(get_args(tp)[1]):
            if data.draw(st.booleans(), label="replace mapping"):
                node[leaf] = data.draw(NOT_A_MAPPING, label="mapping")
                want = path
            else:
                node[leaf] = {"g01": data.draw(invalid_leaf(get_args(tp)[1], meta),
                                               label="value")}
                want = f"{path}.g01"
        elif get_origin(tp) is dict:
            node[leaf] = data.draw(NOT_A_MAPPING, label="cards")
            want = path
        else:
            node[leaf] = data.draw(invalid_leaf(tp, meta), label="value")
            want = path
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(tree)
        assert str(exc.value).startswith(f"{want}:"), str(exc.value)

    def test_largest_ballots_the_grammar_admits_cross_the_wire(self):
        biggest = {"groups": MAX_PREFS - 4, "candidates": U16_MAX, "assembly": U16_MAX}
        m = build_manifest(parse_config(minimal_tree(manifest=biggest)).manifest)
        drawn = Ballot(m.assembly_candidates[:4], CouncilMode.ABOVE_THE_LINE, m.groups)
        card = Ballot(m.assembly_candidates[:2], CouncilMode.BELOW_THE_LINE,
                      m.candidate_ids[:MAX_PREFS - 2])
        pub = gen_keypair(gen_params(32, Random(1)), Random(2)).public()
        for ballot in (drawn, card):
            sealed = seal(encode_ballot(ballot, m), pub, pub, Random(3))
            assert DigitalEnvelope.from_bytes(sealed.to_bytes()) == sealed
        biggest["cards"] = {"g01": {"assembly": list(card.assembly_prefs), "mode": "btl",
                                    "council": list(m.candidate_ids[:MAX_PREFS - 1])}}
        with pytest.raises(ConfigInvalid, match="^manifest.cards.g01: more than"):
            parse_config(minimal_tree(manifest=biggest))

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_valid_config_without_adversary_keeps_invariants(self, data):
        tree = draw_no_adversary_tree(data)
        engine = run_engine(parse_config(tree))
        report = build_report(engine)
        c = report["event_conservation"]
        assert c["delivered"] + c["dropped"] + c["replaced"] + c["pending"] \
            == c["scheduled"]
        assert engine.tally.counts == engine.intent_tally.counts
        assert report["detection"]["overall"]["manipulated"] == 0
        assert report["winner_flip"]["manipulated"] == 0
        assert engine.audit.inconsistencies == []

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_impossible_election_names_its_key_path(self, data):
        broken = data.draw(st.sampled_from(["candidates", "suites", "both"]),
                           label="broken")
        tree = draw_no_adversary_tree(data, candidates_ok=broken == "suites",
                                      suites_ok=broken == "candidates")
        want = "tls.third_party_suites" if broken == "suites" else "manifest.candidates"
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(tree)
        assert str(exc.value).startswith(f"{want}:"), str(exc.value)


class TestBundledScenarios:
    def test_all_nine_present(self):
        names = set(bundled_scenarios())
        assert names == {
            "honest-baseline", "freak-window", "logjam-anyclient",
            "last-minute", "receipt-delay", "fake-ivr", "clash",
            "blind-auditor", "linkage-matrix",
        }

    def test_honest_baseline_no_manipulation(self):
        cfg = load_config(bundled_scenarios()["honest-baseline"])
        engine = run_engine(cfg)
        report = build_report(engine)
        assert report["detection"]["overall"]["manipulated"] == 0
        assert report["tally"]["counts"] == report["honest_intent_tally"]["counts"]
        assert report["winner_flip"]["occurred"] is False
        # every accepted cast left exactly one record in each store
        accepted = sum(1 for v in engine.voters.values() if v.cast_ok)
        assert len(engine.cvs.records) == len(engine.verification.records) == accepted

    def test_freak_window_flags_flip_feasibility(self):
        cfg = load_config(bundled_scenarios()["freak-window"])
        engine = run_engine(cfg)
        report = build_report(engine)
        assert report["honest_intent_tally"]["margin"] == 32
        assert report["winner_flip"]["manipulated"] >= report["winner_flip"]["honest_margin"]
        assert report["winner_flip"]["feasible"] is True
        assert report["winner_flip"]["occurred"] is True

    @pytest.mark.parametrize("name", ["honest-baseline", "clash", "freak-window"])
    def test_voters_hold_no_stream_after_the_cast(self, name):
        # memory guard: a voter's Random lives from its first reader to the
        # cast, and the per-voter, per-event and per-vote records carry no
        # __dict__
        engine = run_engine(load_config(bundled_scenarios()[name]))
        cast = set()
        for line in engine.sim.trace:
            route, status = line.split(" ", 4)[2:4]
            src, dst = route.split("->")
            if dst == "browser" and status == "deliver" and src in engine.voters:
                cast.add(src)
        assert cast
        assert [v for v in sorted(cast) if engine.voters[v].rng is not None] == []
        receipt, record = next(iter(engine.cvs.records.items()))
        submission = CastSubmission(
            voter_id=min(cast), credentials=Credentials(record.login_id, "000000"),
            envelope=record.envelope, channel=record.channel)
        stored = engine.verification.records[receipt]
        for obj in (engine.voters[min(cast)], Event(0, "voter00000", "browser", None),
                    submission, record, stored):
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_every_bundled_scenario_runs_quickly(self):
        for name, path in bundled_scenarios().items():
            start = time.perf_counter()
            engine = run_engine(load_config(path))
            build_report(engine)
            elapsed = time.perf_counter() - start
            assert elapsed < 60, f"{name} took {elapsed:.1f}s"


class TestDeterminismAndDiff:
    def run_once(self, name="clash"):
        cfg = load_config(bundled_scenarios()[name])
        engine = run_engine(cfg)
        return build_report(engine), engine.sim.trace

    def test_same_config_seed_byte_identical(self):
        r1, t1 = self.run_once()
        r2, t2 = self.run_once()
        assert serialize_report(r1) == serialize_report(r2)
        assert t1 == t2

    def test_diff_self_empty(self):
        r1, _ = self.run_once()
        assert diff_reports(r1, r1) == []

    def test_diff_different_seeds_nonempty(self):
        cfg1 = load_config(bundled_scenarios()["honest-baseline"])
        cfg2 = load_config(bundled_scenarios()["honest-baseline"])
        cfg2.seed = 43
        d = diff_reports(build_report(run_engine(cfg1)),
                         build_report(run_engine(cfg2)))
        assert d

    def test_redirect_paired_runs_differ_only_in_detection_fields(self):
        base = load_config(bundled_scenarios()["fake-ivr"])
        base.attacks.fake_ivr.enabled = False
        off = build_report(run_engine(base))
        on_cfg = load_config(bundled_scenarios()["fake-ivr"])
        on = build_report(run_engine(on_cfg))
        delta = diff_reports(off, on)
        assert delta
        changed_roots = {path.split(".")[0] for path, _, _ in delta}
        assert changed_roots <= {"detection", "complaints", "trace_digest",
                                 "scenario"}
        # the count itself is untouched by the verification redirect
        assert off["tally"] == on["tally"]
        assert off["votes"] == on["votes"]


class TestCli:
    def test_run_writes_report_and_metrics(self, tmp_path, capsys, monkeypatch):
        # chunks of 1000 lines, so the trace spans several
        monkeypatch.setattr("votesim.netsim.TRACE_CHUNK_LINES", 1000)
        rc = main(["run", "honest-baseline", "--out", str(tmp_path), "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "report written" in out
        report_path = tmp_path / "honest-baseline-seed42.report.json"
        assert report_path.exists()
        assert (tmp_path / "honest-baseline-seed42.metrics.tsv").exists()
        report = parse_report(report_path.read_text())
        assert report["scenario"] == "honest-baseline"
        # the trace file is written in chunks; its bytes are what the
        # report's digest hashed, wherever the chunks broke
        trace = (tmp_path / "honest-baseline-seed42.trace.log").read_bytes()
        assert trace.count(b"\n") > 3000
        assert hashlib.sha256(trace).hexdigest() == report["trace_digest"]
        golden = json.loads((Path(__file__).parent / "golden" / "digests.json").read_text())
        assert report["trace_digest"] == golden["honest-baseline@42"]["trace_digest"]

    @settings(derandomize=True, database=None, deadline=None, max_examples=250)
    @given(data=st.data())
    def test_generated_clash_runs_exit_cleanly(self, data):
        tree = draw_clash_tree(data)
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "gen.yaml")
            with open(path, "w") as f:
                yaml.safe_dump(tree, f)
            # an exception out of main is the traceback a shell would show
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["run", path, "--out", tmp])
            assert rc in (0, 2)
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if rc == 2:
                assert err.getvalue().startswith("config error: ")
                return
            with open(os.path.join(tmp, f"gen-seed{tree['seed']}.report.json")) as f:
                report = parse_report(f.read())
        c = report["event_conservation"]
        assert c["delivered"] + c["dropped"] + c["replaced"] + c["pending"] \
            == c["scheduled"]
        # every read-back mismatch is heard by a manipulated voter
        mismatches = report["complaints"]["by_kind"].get("mismatch_read", 0)
        assert mismatches == report["detection"]["overall"]["complaints_true"]
        for counts in report["detection"].values():
            assert counts["complaints_true"] <= counts["manipulated"]

    def test_import_loads_no_sympy(self):
        # primality is numth's own: importing sympy loads the whole package,
        # the largest fixed time and memory cost of a run's setup
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(votesim.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, votesim.cli, votesim.engine; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))"],
            env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_run_seed_override(self, tmp_path):
        rc = main(["run", "linkage-matrix", "--seed", "99", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "linkage-matrix-seed99.report.json").exists()

    def test_diff_exit_codes(self, tmp_path, capsys):
        main(["run", "linkage-matrix", "--out", str(tmp_path)])
        main(["run", "linkage-matrix", "--seed", "99", "--out", str(tmp_path)])
        a = str(tmp_path / "linkage-matrix-seed42.report.json")
        b = str(tmp_path / "linkage-matrix-seed99.report.json")
        assert main(["diff", a, a]) == 0
        assert main(["diff", a, b]) == 1

    def test_invalid_config_exit_code_and_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 1\nvoters: 10\n")  # no seed
        rc = main(["run", str(bad)])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @staticmethod
    def run_tree(tree, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(tree))
        rc = main(["run", str(path), "--out", str(tmp_path)])
        return rc, capsys.readouterr().err

    def test_voter_may_verify_and_check_receipt(self, tmp_path, capsys):
        # the engine draws the two checks independently: both at 1 is an
        # election where every voter does both
        tree = minimal_tree(behavior={"p_verify_ivr": 1.0, "p_check_receipt_only": 1.0})
        rc, err = self.run_tree(tree, tmp_path, capsys)
        assert rc == 0, err
        engine = run_engine(parse_config(tree))
        assert all(s.verify_outcome == "read_back" for s in engine.voters.values())
        delivered = [line.split()[2].split("->")[1] for line in engine.sim.trace
                     if " deliver " in line]
        assert delivered.count("verification-ivr") == tree["voters"]
        assert delivered.count("receipt-service") == tree["voters"]

    @pytest.mark.parametrize("key_path", [
        "tls.enabled", "attacks.freak.enabled", "attacks.logjam.enabled",
        "attacks.vote_rewrite.enabled", "attacks.last_minute.enabled",
        "attacks.receipt_delay.enabled", "attacks.fake_ivr.enabled",
        "attacks.clash.enabled", "attacks.server_rewrite.enabled",
    ])
    def test_quoted_boolean_exits_2_with_key_path(self, key_path, tmp_path, capsys):
        tree = minimal_tree()
        *parents, leaf = key_path.split(".")
        node = tree
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = "false"
        rc, err = self.run_tree(tree, tmp_path, capsys)
        assert rc == 2
        assert key_path in err

    @pytest.mark.parametrize("key_path, over", UNRUNNABLE)
    def test_unrunnable_config_fails_to_parse_at_key_path(self, key_path, over):
        with pytest.raises(ConfigInvalid) as exc:
            parse_config(minimal_tree(**over))
        assert str(exc.value).startswith(f"{key_path}:"), str(exc.value)

    @pytest.mark.parametrize("key_path, over", UNRUNNABLE)
    def test_unrunnable_config_exits_2_with_key_path(self, key_path, over, tmp_path,
                                                     capsys, monkeypatch):
        def no_engine(config):
            raise AssertionError("an unrunnable config reached the engine")

        monkeypatch.setattr("votesim.cli.run_engine", no_engine)
        rc, err = self.run_tree(minimal_tree(**over), tmp_path, capsys)
        assert rc == 2
        assert key_path in err
        assert str(tmp_path / "scenario.yaml") in err
        assert "Traceback" not in err

    def test_unknown_scenario_name(self, capsys):
        rc = main(["run", "does-not-exist"])
        assert rc == 2

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert "clash" in out and len(out) == 9


class TestTraceFormat:
    def test_every_line_matches_documented_grammar(self):
        import re
        cfg = load_config(bundled_scenarios()["clash"])
        engine = run_engine(cfg)
        pattern = re.compile(
            r"^t=\d{8} seq=\d{6} \S+->\S+ (deliver|drop|replace) \S+.* \S+$")
        assert engine.sim.trace
        for line in engine.sim.trace:
            assert pattern.match(line), line
        # ciphertext records expose only hex previews, never ballot contents
        record_lines = [l for l in engine.sim.trace if "SecureRecord" in l]
        assert record_lines
        assert all("blob=" in l for l in record_lines)


class TestReportContents:
    def test_real_world_cost_metadata_present(self):
        cfg = load_config(bundled_scenarios()["linkage-matrix"])
        report = build_report(run_engine(cfg))
        costs = report["real_world_cost_metadata"]
        assert costs["factor_512_rsa"] == {"wall_hours": 7, "usd": 100}
        assert costs["dlog_512_dhe"] == {"precompute_days": 7,
                                         "per_target_seconds": 90}

    def test_linkage_summary(self):
        cfg = load_config(bundled_scenarios()["linkage-matrix"])
        report = build_report(run_engine(cfg))
        assert report["linkage"]["compromised_components"] == [
            "registration", "verification_server"]
        assert report["linkage"]["linked_voter_count"] == report["voters"]

    def test_assumptions_listed(self):
        cfg = load_config(bundled_scenarios()["honest-baseline"])
        report = build_report(run_engine(cfg))
        assert any("uniformly at random" in a for a in report["assumptions"])
        assert any("PIN" in a for a in report["assumptions"])

    def test_conservation_in_report(self):
        cfg = load_config(bundled_scenarios()["honest-baseline"])
        report = build_report(run_engine(cfg))
        c = report["event_conservation"]
        assert c["delivered"] + c["dropped"] + c["replaced"] + c["pending"] \
            == c["scheduled"]

    def test_conservation_keeps_zero_dropped_and_replaced(self):
        # taps only forward or modify; the two keys stay, at zero, because
        # the pinned report bytes include them
        engine = run_engine(load_config(bundled_scenarios()["clash"]))
        c = build_report(engine)["event_conservation"]
        assert list(c) == ["scheduled", "delivered", "pending", "dropped", "replaced"]
        assert c["dropped"] == c["replaced"] == 0
        assert c["delivered"] + c["pending"] == c["scheduled"] > 0
        assert any(line.endswith(" modified:sslstrip") for line in engine.sim.trace)
