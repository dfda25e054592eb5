"""Adversary strategies: per-strategy contracts, ground-truth accounting,
and the detection-undercount properties they exist to demonstrate.
"""

import hashlib
import math
from collections import Counter
from dataclasses import astuple, replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from votesim import attacks as atk
from votesim.ballots import make_manifest, tally_first_preferences
from votesim.config import bundled_scenarios, load_config, parse_config
from votesim.election import (BadCredentials, ComplaintKind, Credentials, ElectionError,
                               ServerRole, VoteChannel)
from votesim.engine import (FETCH_LEAD_DLOG, FETCH_LEAD_PLAIN, REGISTRATION_LEAD,
                            ScenarioEngine, run_engine)
from votesim.envelope import DigitalEnvelope, client_signature, open_envelope
from votesim.ballots import decode_ballot
from votesim.messages import CastIntent, CastTrigger, RegistrationReply
from votesim.minitls import RecordTampered
from votesim.netsim import Decision, Endpoint, Event, MitmTap, Simulator
from votesim.report import build_report


def base_tree(**over):
    tree = {
        "schema_version": 1,
        "name": over.pop("name", "test"),
        "seed": over.pop("seed", 7),
        "voters": over.pop("voters", 150),
        "manifest": {"groups": 6, "candidates": 24, "assembly": 6},
        "behavior": over.pop("behavior", {}),
        "timeline": {"polls_open": 0, "polls_close": 43200,
                     "receipt_service_end": 86400},
        "tls": over.pop("tls", {"enabled": False}),
        "attacks": over.pop("attacks", {}),
        "audit": over.pop("audit", {"mode": "honest"}),
        "linkage": over.pop("linkage", {}),
    }
    tree.update(over)
    return tree


def run_tree(tree):
    return run_engine(parse_config(tree))


def detection(engine):
    return build_report(engine)["detection"]


def assert_single_cast(engine):
    """Every login holds at most one stored record, and every voter at
    most one login.
    """
    assert max(Counter(r.login_id for r in engine.cvs.records.values()).values(),
               default=0) <= 1
    assert max(Counter(engine.registration.owner.values()).values(), default=0) <= 1


def stored_ballot(engine, record):
    """The ballot a core record's stored envelope bytes hold, opened with
    the election key.
    """
    envelope = DigitalEnvelope.from_bytes(record.envelope)
    return decode_ballot(open_envelope(envelope, ServerRole.ELECTION,
                                       engine.election_key), engine.manifest)


def compromised_intent(manifest, voter="voterX", ballot=None):
    return CastIntent(
        voter_id=voter,
        credentials=Credentials(login_id="12345678", pin="111111"),
        ballot=ballot or manifest.cards["g01"],
        cast_time=100,
        channel=VoteChannel.WEB,
        compromised=True,
    )


class TestInjectVoteRewrite:
    def setup_method(self):
        self.manifest = make_manifest(num_groups=6, num_candidates=12,
                                      num_assembly=3)

    def test_uncompromised_session_forwarded(self):
        state = atk.AttackerState()
        intent = compromised_intent(self.manifest)
        intent.compromised = False
        decision = atk.inject_vote_rewrite(state, intent, self.manifest.cards["g02"])
        assert decision.kind == Decision.FORWARD
        assert state.manipulation_ledger == {}

    def test_rewrite_swaps_ballot_and_exfiltrates(self):
        state = atk.AttackerState()
        intent = compromised_intent(self.manifest)
        decision = atk.inject_vote_rewrite(state, intent, self.manifest.cards["g02"])
        assert decision.kind == "modify"
        assert decision.payload.ballot == self.manifest.cards["g02"]
        entry = state.manipulation_ledger["voterX"]
        assert (entry.strategy, entry.cast_time) == ("vote_rewrite", 100)
        # the swap replaces the cast intent; the voter's own is untouched
        assert intent.ballot == self.manifest.cards["g01"]
        # the browser tap phones the intent and credentials home
        sim = Simulator()
        phoned = []
        sim.add_endpoint(Endpoint("browser"))
        sim.add_endpoint(Endpoint("attacker-c2", lambda e, _: phoned.append(e.payload)))
        sim.install_tap(atk.make_browser_tap(
            "vote-rewrite",
            lambda i: atk.inject_vote_rewrite(atk.AttackerState(), i,
                                              self.manifest.cards["g02"]),
            exfiltrate=True))
        sim.schedule(100, "voterX", "browser", intent)
        sim.run_all()
        [c2] = phoned
        assert c2.intended == self.manifest.cards["g01"]
        assert c2.credentials.login_id == "12345678"

    def test_a_voter_is_charged_at_most_once(self):
        state = atk.AttackerState()
        first = compromised_intent(self.manifest)
        atk.inject_vote_rewrite(state, first, self.manifest.cards["g02"])
        with pytest.raises(atk.AttackError, match="voterX"):
            state.charge(atk.LedgerEntry(
                voter_id="voterX", strategy="server_rewrite", cast_time=43200))
        assert len(state.manipulation_ledger) == 1

    def test_engine_ledger_vs_cvs_diff_oracle(self):
        # ground-truth oracle: decrypt every stored envelope and compare
        # against the ledger entry (manipulated) or the intent (untouched)
        engine = run_tree(base_tree(
            voters=120,
            attacks={"granted_compromise_rate": 0.5,
                     "vote_rewrite": {"enabled": True},
                     "target_group": "g02"},
        ))
        ledgered = engine.attacker.manipulation_ledger
        checked_manipulated = checked_honest = 0
        for record in engine.cvs.records.values():
            voter = engine.registration.owner[record.login_id]
            stored = stored_ballot(engine, record)
            state = engine.voters[voter]
            if voter in ledgered:
                assert stored == engine.attacker_ballot
                assert stored != state.intended or \
                    state.intended == engine.attacker_ballot
                checked_manipulated += 1
            else:
                assert stored == state.intended
                checked_honest += 1
        assert checked_manipulated > 10 and checked_honest > 10

    def test_manipulated_verifier_raises_mismatch_complaint(self):
        engine = run_tree(base_tree(
            voters=200,
            behavior={"p_verify_ivr": 1.0, "p_check_receipt_only": 0.0},
            attacks={"granted_compromise_rate": 1.0,
                     "vote_rewrite": {"enabled": True},
                     "target_group": "g02"},
        ))
        mismatches = [v for v in engine.voters.values()
                      if v.complaint is ComplaintKind.MISMATCH_READ]
        # every manipulated voter whose intent differs from the attacker
        # ballot and who reached the service in time complains
        expected = 0
        ledgered = engine.attacker.manipulation_ledger
        for st in engine.voters.values():
            if st.verify_outcome == "read_back" and st.voter_id in ledgered and \
                    st.intended != engine.attacker_ballot:
                expected += 1
        assert len(mismatches) == expected > 0


class TestLastMinute:
    def test_window_guard(self):
        manifest = make_manifest(num_groups=6, num_candidates=12, num_assembly=3)
        state = atk.AttackerState()
        inside = compromised_intent(manifest)
        inside.cast_time = 43000
        outside = compromised_intent(manifest)
        outside.cast_time = 10000
        assert atk.last_minute_rewrite(state, outside, manifest.cards["g02"],
                                       polls_close=43200,
                                       safety_window=600).kind == Decision.FORWARD
        assert atk.last_minute_rewrite(state, inside, manifest.cards["g02"],
                                       polls_close=43200,
                                       safety_window=600).kind == "modify"
        assert state.manipulation_ledger["voterX"].strategy == "last_minute"

    def test_window_votes_unverifiable_detection_zero(self):
        # 1000 voters, ~5% in-window (safety window sized to the minimum
        # verify delay): every window verify attempt lands after shutdown
        engine = run_tree(base_tree(
            voters=1000,
            behavior={"p_verify_ivr": 0.5, "verify_delay_min": 2100,
                      "verify_delay_max": 3600},
            attacks={"granted_compromise_rate": 1.0,
                     "last_minute": {"enabled": True, "safety_window": 2100},
                     "target_group": "g02"},
        ))
        metrics = detection(engine)["last_minute"]
        assert metrics["manipulated"] > 20
        assert metrics["complaints_true"] == 0
        assert metrics["detection_ratio"] == 0.0
        # ledger oracle: every manipulated cast sits inside the window
        for entry in engine.attacker.manipulation_ledger.values():
            assert entry.cast_time >= 43200 - 2100

    def test_outside_window_untouched(self):
        engine = run_tree(base_tree(
            voters=300,
            attacks={"granted_compromise_rate": 1.0,
                     "last_minute": {"enabled": True, "safety_window": 600},
                     "target_group": "g02"},
        ))
        window_start = 43200 - 600
        for record in engine.cvs.records.values():
            voter = engine.registration.owner[record.login_id]
            state = engine.voters[voter]
            stored = stored_ballot(engine, record)
            if state.profile.cast_time < window_start:
                assert stored == state.intended


class TestReceiptDelayGambit:
    def setup_method(self):
        self.manifest = make_manifest(num_groups=6, num_candidates=12,
                                      num_assembly=3)

    def test_leaver_and_waiter_branches(self):
        state = atk.AttackerState()
        always_leave = Random(1)
        intent = compromised_intent(self.manifest)
        d = atk.delay_receipt_gambit(state, intent, self.manifest.cards["g02"],
                                     p_leave_without_receipt=1.0, rng=always_leave)
        assert d.kind == "modify"
        assert d.payload.show_receipt is False
        assert state.manipulation_ledger["voterX"].strategy == "receipt_delay"

        state2 = atk.AttackerState()
        waiter = compromised_intent(self.manifest)
        d2 = atk.delay_receipt_gambit(state2, waiter, self.manifest.cards["g02"],
                                      p_leave_without_receipt=0.0, rng=Random(2))
        # give-up branch: genuine ballot goes through, receipt shown,
        # nothing ledgered, but the gambit claims the cast
        assert d2.kind == "modify"
        assert d2.payload.ballot == waiter.ballot
        assert d2.payload.show_receipt is True
        assert d2.payload.handled_by == "receipt_delay"
        assert state2.manipulation_ledger == {}

    def test_binomial_monte_carlo(self):
        # 10,000 compromised sessions at leave probability 0.3
        state = atk.AttackerState()
        rng = Random(3)
        n = 10_000
        manipulated = 0
        for i in range(n):
            intent = compromised_intent(self.manifest, voter=f"v{i}")
            d = atk.delay_receipt_gambit(state, intent, self.manifest.cards["g02"],
                                         p_leave_without_receipt=0.3, rng=rng)
            if d.kind == "modify" and d.payload.show_receipt is False:
                manipulated += 1
        assert abs(manipulated / n - 0.30) <= 0.015
        assert len(state.manipulation_ledger) == manipulated

    def test_leavers_never_complain_in_full_run(self):
        engine = run_tree(base_tree(
            voters=400,
            behavior={"p_verify_ivr": 0.5, "p_check_receipt_only": 0.4,
                      "p_leave_without_receipt": 0.3},
            attacks={"granted_compromise_rate": 1.0,
                     "receipt_delay": {"enabled": True},
                     "target_group": "g02"},
        ))
        metrics = detection(engine)["receipt_delay"]
        assert metrics["manipulated"] > 50
        assert metrics["complaints_true"] == 0
        # leavers hold no receipt at all
        ledgered = engine.attacker.manipulation_ledger
        for voter_id in ledgered:
            assert engine.voters[voter_id].believed_receipt is None
        # waiters' votes are genuine: CVS matches intent
        for record in engine.cvs.records.values():
            voter = engine.registration.owner[record.login_id]
            if voter not in ledgered:
                stored = stored_ballot(engine, record)
                assert stored == engine.voters[voter].intended


class TestFakeIvrRedirect:
    def run_pair(self, redirect_on):
        attacks = {"granted_compromise_rate": 1.0,
                   "vote_rewrite": {"enabled": True},
                   "target_group": "g02"}
        if redirect_on:
            attacks["fake_ivr"] = {"enabled": True, "dial_genuine_rate": 0.0}
        return run_tree(base_tree(
            voters=250,
            behavior={"p_verify_ivr": 0.5, "p_check_receipt_only": 0.0},
            attacks=attacks,
        ))

    def test_masked_voter_hears_intent_and_stays_silent(self):
        engine = self.run_pair(redirect_on=True)
        fake_readbacks = [v for v in engine.voters.values()
                          if v.verify_outcome == "read_back_fake"]
        assert fake_readbacks and all(v.verify_matched for v in fake_readbacks)
        assert detection(engine)["vote_rewrite"]["complaints_true"] == 0
        ledger = engine.attacker.manipulation_ledger
        assert all(ledger[v.voter_id].masked for v in fake_readbacks)

    def test_dial_genuine_unmasks(self):
        engine = run_tree(base_tree(
            voters=250,
            behavior={"p_verify_ivr": 0.5, "p_check_receipt_only": 0.0},
            attacks={"granted_compromise_rate": 1.0,
                     "vote_rewrite": {"enabled": True},
                     "fake_ivr": {"enabled": True, "dial_genuine_rate": 1.0},
                     "target_group": "g02"},
        ))
        assert detection(engine)["vote_rewrite"]["complaints_true"] > 0

    def test_paired_runs_redirect_strictly_lowers_detection(self):
        off = self.run_pair(redirect_on=False)
        on = self.run_pair(redirect_on=True)
        m_off = detection(off)["vote_rewrite"]
        m_on = detection(on)["vote_rewrite"]
        assert m_on["manipulated"] == m_off["manipulated"]
        assert m_off["detection_ratio"] > 0
        assert m_on["detection_ratio"] < m_off["detection_ratio"]


class TestClash:
    def manifest(self):
        return make_manifest(num_groups=6, num_candidates=12, num_assembly=3)

    def test_pool_miss_watches_the_voter_then_harvests(self):
        m = self.manifest()
        state = atk.AttackerState()
        # a miss: the voter keeps the real credentials and is watched
        assert atk.clash_register(state, "first", m.cards["g01"]) is None
        assert state.harvest_targets == {"first"}
        assert state.clash_victims == {}
        # the harvested voter casts the predicted card vote
        first = Credentials(login_id="00000001", pin="111111")
        atk.clash_note_cast(state, "first", first, "000000000001", m.cards["g01"])
        assert len(state.clash_pool) == 1

        # second like-minded victim hits the pool
        pooled = atk.clash_register(state, "second", m.cards["g01"])
        assert pooled is not None
        assert pooled.credentials == first
        assert pooled.receipt == "000000000001"
        assert pooled.ballot == m.cards["g01"]
        assert state.clash_victims == {"second": pooled}
        assert "second" not in state.harvest_targets
        # another prediction still misses
        assert atk.clash_register(state, "third", m.cards["g02"]) is None

    def test_second_harvest_of_a_ballot_keeps_the_first(self):
        m = self.manifest()
        state = atk.AttackerState()
        card = m.cards["g01"]
        for voter in ("first", "second"):
            atk.clash_register(state, voter, card)
        first = Credentials(login_id="00000001", pin="111111")
        atk.clash_note_cast(state, "first", first, "000000000001", card)
        atk.clash_note_cast(state, "second", Credentials(login_id="00000002", pin="222222"),
                            "000000000002", card)
        assert state.clash_pool == {card: atk.PoolEntry(first, "000000000001", card)}
        assert atk.clash_register(state, "third", card).receipt == "000000000001"
        # a voter the front never watched is not harvested
        atk.clash_note_cast(state, "stranger", first, "000000000003", m.cards["g02"])
        assert list(state.clash_pool) == [card]

    def test_victim_holds_the_pooled_vote_and_the_fraud_cast_spends_its_own(self):
        engine = ScenarioEngine(parse_config(base_tree(
            voters=300, behavior={"card_rate": 0.6},
            attacks={"clash": {"enabled": True, "prediction": "card"},
                     "target_group": "g02"})))
        sent = []
        real_schedule = engine.sim.schedule

        def spy(time, src, dst, payload):
            sent.append(payload)
            return real_schedule(time, src, dst, payload)

        engine.sim.schedule = spy
        engine.run()
        victims = engine.attacker.clash_victims
        assert victims
        replies = {p.voter_id: p.credentials for p in sent
                   if isinstance(p, RegistrationReply)}
        fraud = {p.voter_id.removeprefix("fraud:"): p for p in sent
                 if isinstance(p, CastIntent) and p.voter_id.startswith("fraud:")}
        assert set(fraud) == set(victims)
        login_of = {voter: login for login, voter in engine.registration.owner.items()}
        for voter_id, pooled in victims.items():
            state = engine.voters[voter_id]
            # the reply hands out the pooled vote's credentials and receipt
            assert replies[voter_id] == pooled.credentials == state.credentials
            assert state.believed_receipt == pooled.receipt
            assert engine.registration.owner[pooled.credentials.login_id] != voter_id
            # the fraud cast spends the victim's own, freshly issued login
            fresh = fraud[voter_id].credentials
            assert fresh.login_id == login_of[voter_id] != pooled.credentials.login_id
            assert engine.registration.check_pin(fresh.login_id, fresh.pin)
            assert fraud[voter_id].ballot == engine.attacker_ballot
            assert stored_ballot(engine, engine.cvs.by_login[fresh.login_id]) == \
                engine.attacker_ballot
        # a watched voter keeps the credentials issued to it
        for voter_id in engine.attacker.harvest_targets:
            assert login_of[voter_id] == replies[voter_id].login_id

    def run_clash(self, voters=1500, prediction="card", seed=7, card_rate=0.40,
                  p_verify=0.2):
        return run_tree(base_tree(
            voters=voters, seed=seed,
            behavior={"card_rate": card_rate, "p_verify_ivr": p_verify,
                      "p_check_receipt_only": 0.3},
            attacks={"clash": {"enabled": True, "prediction": prediction},
                     "target_group": "g02"},
        ))

    def test_matching_victim_verifies_clean_attacker_gets_free_ballot(self):
        engine = self.run_clash(voters=600)
        # card-following victims hear their exact intent from the genuine
        # service and never complain
        ledgered = engine.attacker.manipulation_ledger
        matched = [v for v in engine.voters.values()
                   if v.verify_outcome == "read_back" and v.voter_id in ledgered and
                   v.profile.follows_card]
        assert matched and all(v.verify_matched for v in matched)
        complainers = {v.voter_id for v in engine.voters.values()
                       if v.complaint is not None}
        assert not any(engine.voters[v.voter_id].profile.follows_card
                       for v in matched if v.voter_id in complainers)
        # each pool hit spent the victim's entitlement on an attacker ballot
        login_of = {voter: login for login, voter in engine.registration.owner.items()}
        for voter_id in list(ledgered)[:20]:
            rec = [r for r in engine.cvs.records.values() if r.login_id == login_of[voter_id]]
            assert len(rec) == 1 and \
                stored_ballot(engine, rec[0]) == engine.attacker_ballot

    def test_deviating_victim_complains_only_via_ivr(self):
        engine = self.run_clash(voters=800)
        ledgered = engine.attacker.manipulation_ledger
        for st in engine.voters.values():
            if st.complaint is ComplaintKind.MISMATCH_READ:
                assert st.voter_id in ledgered
                assert not st.profile.follows_card  # prediction missed them
                assert st.verifies  # receipt-only checkers never complain
        # receipt-only victims hold the pooled receipt, which is stored, so
        # their queries pass the receipt service and they stay silent
        receipt_only = [v for v in engine.voters.values()
                        if v.voter_id in ledgered and v.checks_receipt
                        and not v.verifies]
        assert receipt_only
        assert all(v.believed_receipt in engine.cvs.records and v.complaint is None
                   for v in receipt_only)

    def test_complaints_within_three_sigma_of_analytic(self):
        card_rate, p_verify = 0.40, 0.2
        engine = self.run_clash(voters=2000, card_rate=card_rate,
                                p_verify=p_verify)
        m = detection(engine)["clash"]
        expect = m["manipulated"] * (1 - card_rate) * p_verify
        sigma = math.sqrt(m["manipulated"] * (1 - card_rate) * p_verify *
                          (1 - (1 - card_rate) * p_verify))
        assert abs(m["complaints_true"] - expect) <= 3 * sigma
        # coarse analytic bound: detection can never reach the miss rate
        assert m["detection_ratio"] < (1 - card_rate)

    def test_perfect_prediction_raises_no_alarm(self):
        engine = self.run_clash(voters=1200, prediction="perfect")
        m = detection(engine)["clash"]
        assert m["manipulated"] > 0
        assert m["complaints_true"] == 0

    def test_victims_at_the_fake_ivr_hear_their_intent(self):
        # the attacker IVR reads back a clash victim's own intent; a
        # false complainer then complains
        engine = run_tree(base_tree(
            voters=600,
            behavior={"card_rate": 0.4, "p_verify_ivr": 0.5,
                      "p_false_complaint": 0.5},
            attacks={"clash": {"enabled": True, "prediction": "card"},
                     "fake_ivr": {"enabled": True},
                     "target_group": "g02"},
        ))
        fake = [v for v in engine.voters.values()
                if v.verify_outcome == "read_back_fake"]
        ledger = engine.attacker.manipulation_ledger
        assert fake and all(ledger[v.voter_id].strategy == "clash" for v in fake)
        assert all(v.verify_matched for v in fake)
        assert all(v.complaint is ComplaintKind.FALSE_COMPLAINT
                   for v in fake if v.false_complainer)
        assert any(v.false_complainer for v in fake)

    def test_clash_off_leaves_every_registration_alone(self):
        # without the clash attack nothing strips the gateway: no request
        # reaches the look-alike site, so nothing is collected
        engine = run_tree(base_tree(
            voters=300,
            attacks={"clash": {"enabled": False, "prediction": "card"},
                     "target_group": "g02"},
        ))
        assert not any("attacker-registration" in line for line in engine.sim.trace)
        assert engine.attacker.clash_victims == {}
        assert engine.tally.counts == engine.intent_tally.counts

    def test_pin_suspicion_defeats_the_front(self):
        # a voter who notices the assigned PIN escapes to the genuine
        # service; at rate 1.0 the attack collects nothing at all
        wary = run_tree(base_tree(
            voters=400,
            behavior={"card_rate": 0.4, "p_verify_ivr": 0.2,
                      "p_pin_suspicion": 1.0},
            attacks={"clash": {"enabled": True, "prediction": "card"},
                     "target_group": "g02"},
        ))
        assert detection(wary)["overall"]["manipulated"] == 0
        assert wary.attacker.clash_victims == {}
        assert wary.attacker.harvest_targets == set()
        assert wary.tally.counts == wary.intent_tally.counts
        # partial suspicion thins the victim pool proportionally
        partial = self.run_clash(voters=400)
        half = run_tree(base_tree(
            voters=400,
            behavior={"card_rate": 0.4, "p_verify_ivr": 0.2,
                      "p_pin_suspicion": 0.5},
            attacks={"clash": {"enabled": True, "prediction": "card"},
                     "target_group": "g02"},
        ))
        full_m = detection(partial)["clash"]["manipulated"]
        half_m = detection(half)["clash"]["manipulated"]
        assert 0 < half_m < full_m


class TestDowngradeComposition:
    def test_freak_falls_back_to_logjam_for_patched_clients(self):
        # both downgrades enabled: the client flaw takes the unpatched half,
        # the protocol flaw takes everyone the patch saved
        engine = run_tree(base_tree(
            voters=60, seed=5,
            tls={"enabled": True, "client_patch_rate": 0.5,
                 "third_party_suites": ["RSA", "RSA_EXPORT", "DHE",
                                        "DHE_EXPORT"]},
            attacks={"freak": {"enabled": True, "control_rate": 1.0},
                     "logjam": {"enabled": True, "control_rate": 1.0},
                     "vote_rewrite": {"enabled": True},
                     "target_group": "g02"},
        ))
        assert all(v.compromised for v in engine.voters.values())
        attempts, successes = Counter(), Counter()
        for v in engine.voters.values():
            won = [e["kind"] for e in v.downgrades if e["outcome"] == "compromised"]
            assert won == ["logjam" if v.patched else "freak"]
            attempts.update(e["kind"] for e in v.downgrades)
            successes.update(won)
        assert attempts["freak"] == 60
        assert attempts["logjam"] == successes["logjam"] > 0
        assert successes["freak"] + successes["logjam"] == 60
        downgrade = build_report(engine)["downgrade"]
        for kind in ("freak", "logjam"):
            assert downgrade[kind] == {"attempted": attempts[kind],
                                       "succeeded": successes[kind]}

    def downgrade_section(self, name, seed, patch_rate):
        cfg = load_config(bundled_scenarios()[name])
        cfg.seed = seed
        cfg.tls.client_patch_rate = patch_rate
        return build_report(run_engine(cfg))["downgrade"]

    @pytest.mark.parametrize("seed", [42, 7])
    def test_logjam_ignores_the_client_patch(self, seed):
        # the export-DHE flaw is in the protocol: patching every client
        # changes nothing the downgrade section counts
        unpatched = self.downgrade_section("logjam-anyclient", seed, 0.0)
        patched = self.downgrade_section("logjam-anyclient", seed, 1.0)
        assert patched["logjam"] == unpatched["logjam"]
        assert patched["logjam"]["attempted"] > 0

    @pytest.mark.parametrize("seed", [42, 7])
    def test_patched_clients_defeat_freak(self, seed):
        freak = self.downgrade_section("freak-window", seed, 1.0)["freak"]
        assert freak["attempted"] > 0
        assert freak["succeeded"] == 0

    def freak_oracles(self, window_end):
        engine = ScenarioEngine(parse_config(base_tree(
            voters=20,
            tls={"enabled": True, "client_patch_rate": 0.5,
                 "third_party_suites": ["RSA", "RSA_EXPORT"]},
            attacks={"freak": {"enabled": True, "window_start": 3600,
                               "window_end": window_end},
                     "vote_rewrite": {"enabled": True},
                     "target_group": "g02"},
        )))
        return [(o.usable_from, o.usable_until) for o in engine.freak_oracles]

    def test_no_oracle_is_built_past_the_last_fetch(self):
        # a window reaching far past the close of polls needs no more
        # oracles than one ending at the close
        oracles = self.freak_oracles(4_000_000)
        assert oracles and oracles == self.freak_oracles(43200)


class TestMetricsAndInvariants:
    def test_no_attack_metrics(self):
        engine = run_tree(base_tree(voters=40))
        assert detection(engine) == {"overall": {
            "manipulated": 0, "complaints_true": 0, "complaints_false": 0,
            "verify_attempts": sum(v.verify_outcome is not None
                                   for v in engine.voters.values()),
            "detection_ratio": None}}

    def test_no_attack_baseline_false_complaints_only(self):
        engine = run_tree(base_tree(
            voters=400,
            behavior={"p_verify_ivr": 0.5, "p_false_complaint": 0.05},
        ))
        kinds = {v.complaint for v in engine.voters.values()
                 if v.complaint is not None}
        assert kinds <= {ComplaintKind.FALSE_COMPLAINT}
        metrics = detection(engine)["overall"]
        assert metrics["complaints_true"] == 0
        # the false-complaint count is exactly the pre-drawn binomial:
        # verifiers flagged as false complainers who got a clean read-back
        expected = sum(1 for v in engine.voters.values()
                       if v.false_complainer and v.verify_outcome == "read_back")
        assert metrics["complaints_false"] == expected > 0

    def test_masking_soundness_every_true_complaint_is_ledgered(self, ivr_call_times):
        # over several strategies and seeds: a mismatch complaint implies a
        # ledger entry and a successful pre-shutdown read-back
        for seed in (1, 2, 3):
            engine = run_tree(base_tree(
                seed=seed, voters=300,
                behavior={"p_verify_ivr": 0.4, "p_check_receipt_only": 0.2,
                          "p_leave_without_receipt": 0.2},
                attacks={"granted_compromise_rate": 0.6,
                         "vote_rewrite": {"enabled": True},
                         "receipt_delay": {"enabled": True},
                         "target_group": "g02"},
            ))
            ledgered = engine.attacker.manipulation_ledger
            called = ivr_call_times(engine)
            readback_ok = {v.voter_id for v in engine.voters.values()
                           if v.verify_outcome == "read_back"
                           and called[v.voter_id] < engine.timeline.polls_close}
            for v in engine.voters.values():
                if v.complaint is ComplaintKind.MISMATCH_READ:
                    assert v.voter_id in ledgered
                    assert v.voter_id in readback_ok

    def test_composed_strategies_claim_each_cast_once(self):
        # receipt-delay and vote-rewrite both on: first installed wins per
        # cast, so no voter is ledgered twice and waiters stay genuine
        engine = run_tree(base_tree(
            voters=300,
            behavior={"p_verify_ivr": 0.3, "p_leave_without_receipt": 0.4},
            attacks={"granted_compromise_rate": 1.0,
                     "receipt_delay": {"enabled": True},
                     "vote_rewrite": {"enabled": True},
                     "target_group": "g02"},
        ))
        # a second charge for one voter raises, so finishing the run shows
        # no voter was ledgered twice
        ledgered = engine.attacker.manipulation_ledger
        assert ledgered
        # gambit owns every compromised cast; the rewrite tap got none
        assert all(e.strategy == "receipt_delay" for e in ledgered.values())
        for record in engine.cvs.records.values():
            voter = engine.registration.owner[record.login_id]
            if voter not in ledgered:
                stored = stored_ballot(engine, record)
                assert stored == engine.voters[voter].intended

    def test_server_rewrite_leaves_clash_fraud_records_alone(self):
        # a clash victim's record already carries the attacker ballot; the
        # corrupt server must not rewrite it again and charge it twice
        engine = run_tree(base_tree(
            voters=400,
            behavior={"card_rate": 0.4, "p_verify_ivr": 0.2,
                      "p_check_receipt_only": 0.3},
            attacks={"clash": {"enabled": True, "prediction": "card"},
                     "server_rewrite": {"enabled": True, "count": 400},
                     "target_group": "g02"},
        ))
        ledger = engine.attacker.manipulation_ledger
        assert {e.strategy for e in ledger.values()} == {"clash", "server_rewrite"}
        report = build_report(engine)
        assert report["winner_flip"]["manipulated"] <= report["voters"]
        # the honest audit flags exactly the rewritten records, as mismatches
        rewritten = {v for v, e in ledger.items() if e.strategy == "server_rewrite"}
        assert {inc["kind"] for inc in report["audit"]["inconsistencies"]} == \
            {"ballot_mismatch"}
        assert {engine.registration.owner[inc.login_id]
                for inc in engine.audit.inconsistencies} == rewritten

    def test_server_rewrite_envelopes_known_answer(self):
        # sha256 over every stored envelope after the run, with phone casts
        # among the rewritten records: web records are forged on the voter's
        # cast session, phone records on none
        cfg = load_config(bundled_scenarios()["linkage-matrix"])
        cfg.attacks.server_rewrite.enabled = True
        cfg.attacks.server_rewrite.count = 100
        engine = run_engine(cfg)
        ledger = engine.attacker.manipulation_ledger
        assert len(ledger) == 100
        assert any(r.channel is VoteChannel.PHONE and
                   engine.registration.owner[r.login_id] in ledger
                   for r in engine.cvs.records.values())
        session_keys = [engine._session_key(f"cast:{v}") for v in engine.voters]
        counted = []
        for record in engine.cvs.records.values():
            voter = engine.registration.owner[record.login_id]
            env = DigitalEnvelope.from_bytes(record.envelope)
            if record.channel is VoteChannel.PHONE:
                if voter in ledger:
                    assert all(env.client_sig != client_signature(key, env.vote_ciphertext)
                               for key in session_keys)
            else:
                assert env.client_sig == client_signature(
                    engine._session_key(f"cast:{voter}"), env.vote_ciphertext)
            ballot = decode_ballot(open_envelope(env, ServerRole.ELECTION,
                                                 engine.election_key), engine.manifest)
            assert ballot == (engine.attacker_ballot if voter in ledger
                              else engine.voters[voter].intended)
            counted.append(ballot)
        assert tally_first_preferences(counted, engine.manifest) == engine.tally
        digest = hashlib.sha256()
        for record in engine.cvs.records.values():
            digest.update(record.envelope)
        assert digest.hexdigest() == \
            "0af42ac6f31a7a9983a44d80db2a1437f8ad35b19e61f6698117bb7dc9fbaccc"

    @pytest.mark.parametrize("moved_to", ["cast:nobody", "cast:voter00003"])
    def test_unknown_or_foreign_session_raises(self, moved_to):
        # the collecting server derives each session's key from its id: a
        # record on a session nobody opened, or on another voter's, fails
        # the MAC and aborts the run; it is never accepted or dropped
        engine = ScenarioEngine(parse_config(base_tree(voters=60)))

        def misroute(event, sim):
            record = event.payload
            if record.session_id == "cast:voter00001":
                return Decision.modify(replace(record, session_id=moved_to))
            return Decision.forward()

        engine.sim.install_tap(MitmTap("misroute", dst="cvs", handler=misroute))
        with pytest.raises(RecordTampered):
            engine.run()
        assert not engine.voters["voter00001"].cast_ok

    def test_a_cast_with_a_rewritten_pin_raises(self):
        # injected client code that garbles the PIN gets the cast refused
        # by the voting server; the refusal aborts the run instead of
        # losing the vote without a word
        engine = ScenarioEngine(parse_config(base_tree(voters=60)))

        def garble_pin(event, sim):
            intent = event.payload
            if intent.voter_id != "voter00001":
                return Decision.forward()
            pin = "000000" if intent.credentials.pin != "000000" else "000001"
            return Decision.modify(replace(
                intent, credentials=replace(intent.credentials, pin=pin)))

        engine.sim.install_tap(MitmTap("garble-pin", dst="browser",
                                       handler=garble_pin))
        with pytest.raises(BadCredentials):
            engine.run()
        assert not engine.voters["voter00001"].cast_ok

    def test_a_cast_trigger_without_credentials_raises(self):
        # every voter registers before its trigger fires; a voter who did
        # not is named instead of being dropped from the count
        engine = ScenarioEngine(parse_config(base_tree(voters=5)))
        state = engine.voters["voter00002"]
        assert state.credentials is None
        trigger = Event(time=state.profile.cast_time - 1, src=state.voter_id,
                        dst=state.voter_id, payload=CastTrigger(state.voter_id))
        with pytest.raises(ElectionError, match="voter00002"):
            engine._on_voter(trigger, engine.sim)
        assert engine.sim.counters["scheduled"] == 0

    @pytest.mark.parametrize("at_trigger", [False, True])
    def test_the_cast_intent_keeps_the_compromise_its_trigger_saw(self, at_trigger):
        # the trigger copies the voter's flag into the intent it schedules;
        # changing the voter's record afterwards leaves that intent alone
        engine = ScenarioEngine(parse_config(base_tree(voters=5)))
        state = engine.voters["voter00002"]
        state.credentials = Credentials(login_id="12345678", pin="111111")
        state.compromised = at_trigger
        scheduled = []

        class Recorder:
            def schedule(self, *args):
                scheduled.append(args)

        trigger = Event(time=state.profile.cast_time - 1, src=state.voter_id,
                        dst=state.voter_id, payload=CastTrigger(state.voter_id))
        engine._on_voter(trigger, Recorder())
        [(_, _, dst, intent)] = scheduled
        assert dst == "browser" and intent.compromised is at_trigger
        state.compromised = not at_trigger
        assert intent.compromised is at_trigger
        assert intent.trace_text().startswith(f"CastIntent(compromised={at_trigger},")

    def test_every_receipt_query_finds_its_stored_record(self):
        # each receipt checker queries once, after the close of polls and
        # before the service ends, for the receipt it was shown
        engine = ScenarioEngine(parse_config(base_tree(
            voters=60, behavior={"p_verify_ivr": 0.0, "p_check_receipt_only": 1.0})))
        queries = []

        def record(event, sim):
            queries.append((event.time, event.payload))
            return Decision.forward()

        engine.sim.install_tap(MitmTap("count-queries",
                                       dst="receipt-service", handler=record))
        engine.run()
        t = engine.timeline
        shown = {v.voter_id: v.believed_receipt for v in engine.voters.values()
                 if v.believed_receipt is not None}
        assert shown
        assert {q.voter_id: q.receipt for _, q in queries} == shown
        assert len(queries) == len(shown)
        assert all(t.polls_close + 600 <= when < t.receipt_service_end
                   for when, _ in queries)
        assert all(q.receipt in engine.cvs.records for _, q in queries)
        assert all(v.complaint is None for v in engine.voters.values())

    def test_an_honest_ivr_call_reads_back_the_intent(self):
        # with no attack every stored vote is found: a call reads back the
        # voter's intent or finds the service closed, never nothing
        engine = run_tree(base_tree(
            voters=60, behavior={"p_verify_ivr": 1.0, "p_check_receipt_only": 0.0}))
        outcomes = Counter(v.verify_outcome for v in engine.voters.values()
                           if v.cast_ok and v.believed_receipt is not None)
        assert outcomes["read_back"] > 0
        assert set(outcomes) <= {"read_back", "closed"}
        assert all(v.verify_matched for v in engine.voters.values()
                   if v.verify_outcome == "read_back")

    def test_a_query_for_an_unstored_receipt_raises(self):
        # every receipt a voter is shown is in the core store, so the
        # receipt service refuses a query for any other one loudly
        engine = ScenarioEngine(parse_config(base_tree(
            voters=60, behavior={"p_verify_ivr": 0.0, "p_check_receipt_only": 1.0})))

        def forge(event, sim):
            return Decision.modify(replace(event.payload, receipt="000000000000"))

        engine.sim.install_tap(MitmTap("forge-receipt",
                                       dst="receipt-service", handler=forge))
        with pytest.raises(ElectionError, match="not in the core store"):
            engine.run()

    def test_last_minute_window_never_increases_detection(self):
        base = run_tree(base_tree(
            voters=400,
            behavior={"p_verify_ivr": 0.5, "verify_delay_min": 600,
                      "verify_delay_max": 1200},
            attacks={"granted_compromise_rate": 1.0,
                     "vote_rewrite": {"enabled": True},
                     "target_group": "g02"},
        ))
        windowed = run_tree(base_tree(
            voters=400,
            behavior={"p_verify_ivr": 0.5, "verify_delay_min": 600,
                      "verify_delay_max": 1200},
            attacks={"granted_compromise_rate": 1.0,
                     "last_minute": {"enabled": True, "safety_window": 600},
                     "target_group": "g02"},
        ))
        m_base = detection(base)["overall"]
        m_win = detection(windowed)["overall"]
        assert m_base["detection_ratio"] is not None
        assert (m_win["detection_ratio"] or 0.0) <= m_base["detection_ratio"]


STRATEGIES = ("vote_rewrite", "last_minute", "receipt_delay", "fake_ivr",
              "clash", "server_rewrite")


@st.composite
def attack_trees(draw):
    """A small run with a nonempty set of strategies on and either audit."""
    on = draw(st.sets(st.sampled_from(STRATEGIES), min_size=1), label="strategies")
    rate = st.sampled_from((0.0, 0.2, 0.5, 1.0))
    verify_delay_min = draw(st.sampled_from((300, 600, 2100)))
    attacks = {"granted_compromise_rate": draw(st.sampled_from((0.3, 0.7, 1.0))),
               "target_group": "g02"}
    for name in on:
        attacks[name] = {"enabled": True}
    if "last_minute" in on:
        attacks["last_minute"]["safety_window"] = draw(st.sampled_from((300, 2100, 3600)))
    if "fake_ivr" in on:
        attacks["fake_ivr"]["dial_genuine_rate"] = draw(rate)
    if "clash" in on:
        attacks["clash"]["prediction"] = draw(st.sampled_from(("card", "perfect")))
    if "server_rewrite" in on:
        attacks["server_rewrite"]["count"] = draw(st.integers(0, 40))
    return base_tree(
        seed=draw(st.integers(0, 2 ** 16)), voters=draw(st.integers(40, 120)),
        behavior={"card_rate": draw(rate), "p_verify_ivr": draw(rate),
                  "p_check_receipt_only": draw(rate),
                  "p_false_complaint": draw(st.sampled_from((0.0, 0.1))),
                  "p_leave_without_receipt": draw(rate),
                  "p_pin_suspicion": draw(st.sampled_from((0.0, 0.3))),
                  "phone_fraction": draw(st.sampled_from((0.0, 0.2))),
                  "verify_delay_min": verify_delay_min,
                  "verify_delay_max": verify_delay_min + 1500},
        attacks=attacks,
        audit={"mode": draw(st.sampled_from(("honest", "blind_eye")))},
    )


class TestDetectionProperties:
    @settings(derandomize=True, database=None, deadline=None, max_examples=140)
    @given(tree=attack_trees())
    def test_detection_joins_the_ledger_exactly(self, tree):
        engine = run_tree(tree)
        assert_single_cast(engine)
        report = build_report(engine)
        ledger = engine.attacker.manipulation_ledger
        det = report["detection"]
        overall = det.pop("overall")
        assert set(det) == {e.strategy for e in ledger.values()}
        for key in ("manipulated", "complaints_true"):
            assert sum(m[key] for m in det.values()) == overall[key]
        for m in (*det.values(), overall):
            assert 0 <= m["complaints_true"] <= m["manipulated"]
            assert m["complaints_false"] == overall["complaints_false"]
        assert overall["manipulated"] == report["winner_flip"]["manipulated"]
        # the ledger charges voters, never the attacker's fraud: casts
        assert set(ledger) <= set(engine.voters)
        # every complaint is either false or made by a ledgered voter
        assert overall["complaints_true"] + overall["complaints_false"] == \
            report["complaints"]["total"]
        flagged = {engine.registration.owner[inc.login_id]
                   for inc in engine.audit.inconsistencies}
        if tree["audit"]["mode"] == "honest":
            assert flagged == {v for v, e in ledger.items()
                               if e.strategy == "server_rewrite"}
        else:
            assert flagged == set()

    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(seed=st.integers(0, 2 ** 16),
           verify_delay_min=st.sampled_from((300, 600, 2100)),
           narrower_by=st.sampled_from((0, 1, 300)))
    def test_last_minute_inside_the_verify_delay_is_never_detected(
            self, seed, verify_delay_min, narrower_by):
        engine = run_tree(base_tree(
            seed=seed, voters=300,
            behavior={"p_verify_ivr": 0.6, "p_check_receipt_only": 0.3,
                      "verify_delay_min": verify_delay_min,
                      "verify_delay_max": verify_delay_min + 1500},
            attacks={"granted_compromise_rate": 1.0,
                     "last_minute": {"enabled": True,
                                     "safety_window": verify_delay_min - narrower_by},
                     "target_group": "g02"},
        ))
        m = detection(engine)["overall"]
        assert m["complaints_true"] == 0

    def test_a_wider_window_leaves_time_to_complain(self):
        cfg = load_config(bundled_scenarios()["fake-ivr"])
        cfg.attacks.last_minute.enabled = True
        cfg.attacks.last_minute.safety_window = 3600
        cfg.attacks.fake_ivr.dial_genuine_rate = 0.5
        det = detection(run_engine(cfg))
        assert cfg.behavior.verify_delay_min < 3600
        assert (det["last_minute"]["manipulated"],
                det["last_minute"]["complaints_true"]) == (49, 6)
        assert (det["vote_rewrite"]["manipulated"],
                det["vote_rewrite"]["complaints_true"]) == (551, 64)

    @pytest.mark.parametrize("name, kind", [("freak-window", "freak"),
                                            ("logjam-anyclient", "logjam")])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_downgrades_do_not_depend_on_the_rewrite(self, name, kind, seed):
        # the downgrade only opens sessions; with nothing riding on them the
        # same sessions fall and every vote is counted as meant
        cfg = load_config(bundled_scenarios()[name])
        cfg.seed = seed
        on = run_engine(cfg)
        cfg.attacks.vote_rewrite.enabled = False
        off = run_engine(cfg)
        downgrade = build_report(on)["downgrade"]
        assert build_report(off)["downgrade"] == downgrade
        assert downgrade[kind]["succeeded"] > 0
        assert off.tally.counts == off.intent_tally.counts
        assert off.attacker.manipulation_ledger == {}


@st.composite
def downgrade_trees(draw, logjam):
    """A small TLS run with FREAK, Logjam or both on, each window inside
    the background-fetch range, and the vote rewrite riding on them.
    """
    kinds = ("freak",)
    if logjam:
        kinds = ("logjam",) + draw(st.sampled_from(((), ("freak",))), label="freak too")
    first_fetch = REGISTRATION_LEAD + 1
    last_fetch = 43200 - 1 - (FETCH_LEAD_DLOG if logjam else FETCH_LEAD_PLAIN)
    patch_rate = st.one_of(st.just(1.0), st.floats(0, 1))
    attacks = {"vote_rewrite": {"enabled": True}, "target_group": "g02"}
    for kind in kinds:
        start, last = sorted(draw(st.integers(first_fetch, last_fetch)) for _ in "ab")
        attacks[kind] = {"enabled": True, "control_rate": draw(st.floats(0, 1)),
                         "window_start": start, "window_end": last + 1}
    suites = {"freak": "RSA_EXPORT", "logjam": "DHE_EXPORT"}
    return base_tree(
        seed=draw(st.integers(0, 2 ** 16)), voters=draw(st.integers(20, 60)),
        behavior={"p_verify_ivr": draw(st.sampled_from((0.0, 0.5, 1.0))),
                  "p_check_receipt_only": 0.0},
        tls={"enabled": True, "client_patch_rate": draw(patch_rate),
             "third_party_suites": sorted({suites[k] for k in kinds} | draw(
                 st.sets(st.sampled_from(("RSA", "DHE")), min_size=1),
                 label="full-strength suites"))},
        attacks=attacks,
    )


class TestDowngradeProperties:
    """Generated FREAK and Logjam configs. Each example draws fresh RSA
    and DHE keys at its own seed.
    """

    def check(self, tree):
        engine = run_tree(tree)
        assert_single_cast(engine)
        report = build_report(engine)
        c = report["event_conservation"]
        assert c["delivered"] + c["dropped"] + c["replaced"] + c["pending"] \
            == c["scheduled"]
        for m in report["detection"].values():
            assert 0 <= m["complaints_true"] <= m["manipulated"]
        for kind in ("freak", "logjam"):
            d = report["downgrade"][kind]
            assert 0 <= d["succeeded"] <= d["attempted"]
            if not tree["attacks"].get(kind, {}).get("enabled"):
                assert d["attempted"] == 0
        return report

    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(tree=downgrade_trees(logjam=False))
    def test_freak_alone(self, tree):
        report = self.check(tree)
        if tree["tls"]["client_patch_rate"] == 1.0:
            assert report["downgrade"]["freak"]["succeeded"] == 0

    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(tree=downgrade_trees(logjam=True))
    def test_logjam_with_or_without_freak(self, tree):
        self.check(tree)


@st.composite
def replay_trees(draw):
    """Configs reaching every draw a voter's set-up makes: the clash
    front and granted compromise with TLS on or off, or the FREAK and
    Logjam trees above, each with uniform, weighted or quota leanings and
    every channel.
    """
    kind = draw(st.sampled_from(("plain", "freak", "logjam")))
    if kind == "plain":
        tree = base_tree(
            seed=draw(st.integers(0, 2 ** 16)), voters=draw(st.integers(20, 60)),
            tls={"enabled": draw(st.booleans())},
            attacks={"clash": {"enabled": draw(st.booleans())},
                     "granted_compromise_rate": draw(st.sampled_from((0.0, 0.5))),
                     "vote_rewrite": {"enabled": True}, "target_group": "g02"})
    else:
        tree = draw(downgrade_trees(logjam=kind == "logjam"))
    behavior = tree["behavior"]
    behavior["phone_fraction"] = draw(st.sampled_from((0.0, 0.3)))
    behavior["polling_fraction"] = draw(st.sampled_from((0.0, 0.3)))
    leaning = draw(st.sampled_from(("uniform", "weights", "quota")))
    if leaning == "weights":
        behavior["leaning_weights"] = {"g01": 3.0, "g04": 1.0}
    elif leaning == "quota":
        first = draw(st.integers(0, tree["voters"]))
        behavior["leaning_counts"] = {
            "g02": first, "g05": draw(st.integers(0, tree["voters"] - first))}
    return tree


class ReplayRecorder(ScenarioEngine):
    """Keeps each voter's set-up draws and every rebuild of its stream."""

    def __init__(self, config):
        self.setup_draws, self.rebuilds = {}, {}
        super().__init__(config)

    def _draw_voter(self, i):
        state, rng = super()._draw_voter(i)
        self.setup_draws.setdefault(i, (astuple(state), rng.getstate()))
        return state, rng

    def _voter_rng(self, state):
        rebuilt = state.rng is None
        rng = super()._voter_rng(state)
        if rebuilt:
            self.rebuilds.setdefault(state.voter_id, []).append(rng.getstate())
        return rng


class TestVoterStreamReplay:
    """A voter's Random is not kept from set-up: its first reader (the
    background fetch, else the cast) replays the set-up draws.
    """

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(tree=replay_trees())
    def test_first_reader_rebuilds_the_setup_stream(self, tree):
        engine = ReplayRecorder(parse_config(tree))
        engine.run()
        assert engine.rebuilds
        # a voter holding credentials went through the cast, on the web,
        # by phone or suppressed, and every branch let the stream go
        assert all(v.rng is None for v in engine.voters.values()
                   if v.credentials is not None)
        for i, voter_id in enumerate(sorted(engine.voters)):
            record, stream = engine.setup_draws[i]
            # rebuilt at most once, exactly as the set-up draws left it
            assert engine.rebuilds.get(voter_id, [stream]) == [stream]
            again, rng = engine._draw_voter(i)
            assert astuple(again) == record
            assert rng.getstate() == stream
