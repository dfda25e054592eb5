"""Config validation, scenario runner determinism, report diffs, CLI."""

import time

import pytest
import yaml

from votesim.cli import main
from votesim.config import (
    ConfigInvalid,
    ScenarioConfig,
    bundled_scenarios,
    load_config,
    parse_config,
)
from votesim.engine import run_engine
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

    def test_yaml_syntax_error_carries_line(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("schema_version: 1\nseed: [unclosed\n")
        with pytest.raises(ConfigInvalid, match="line"):
            load_config(str(path))


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
        base.attacks.fake_ivr_enabled = False
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
    def test_run_writes_report_and_metrics(self, tmp_path, capsys):
        rc = main(["run", "honest-baseline", "--out", str(tmp_path), "--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "report written" in out
        report_path = tmp_path / "honest-baseline-seed42.report.json"
        assert report_path.exists()
        assert (tmp_path / "honest-baseline-seed42.metrics.tsv").exists()
        assert (tmp_path / "honest-baseline-seed42.trace.log").exists()
        report = parse_report(report_path.read_text())
        assert report["scenario"] == "honest-baseline"

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

    @pytest.mark.parametrize("key_path", [
        "tls.enabled", "crypto.signature_forgeable_by_server",
        "attacks.freak.enabled", "attacks.logjam.enabled",
        "attacks.vote_rewrite.enabled", "attacks.last_minute.enabled",
        "attacks.receipt_delay.enabled", "attacks.fake_ivr.enabled",
        "attacks.clash.enabled", "attacks.server_rewrite.enabled",
        "attacks.gateway_stripped", "linkage.phone_tap",
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

    @pytest.mark.parametrize("key_path, over", [
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
    ])
    def test_unrunnable_config_exits_2_with_key_path(self, key_path, over, tmp_path,
                                                     capsys):
        rc, err = self.run_tree(minimal_tree(**over), tmp_path, capsys)
        assert rc == 2
        assert key_path in err
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
