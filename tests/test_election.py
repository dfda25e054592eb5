"""The four-step protocol services, dedup, audit, and linkage analysis."""

import functools
import gc
import itertools
import re
import tracemalloc
from dataclasses import replace
from random import Random

import pytest
import yaml

from votesim import election
from votesim.ballots import (
    decode_ballot,
    draw_ballot,
    encode_ballot,
    make_manifest,
    tally_first_preferences,
)
from votesim.config import bundled_scenarios, load_config, parse_config
from votesim.election import (
    AlreadyCast,
    AuditMode,
    BadCredentials,
    Component,
    CoreVotingSystem,
    ElectionError,
    NoSuchRecord,
    PollsClosed,
    RegistrationService,
    RegistryExhausted,
    ServiceClosed,
    UnknownComponent,
    VerificationService,
    VoteChannel,
    audit_reconcile,
    collect_holdings,
    dedup_and_count,
    linkage_report,
    hash_pin,
    open_core_store,
)
from votesim.engine import ScenarioEngine
from votesim.envelope import (
    DigitalEnvelope,
    ServerRole,
    gen_keypair,
    gen_params,
    open_envelope,
    seal,
)


class Fixture:
    """One wired election stack at desk scale."""

    def __init__(self, seed=1, polls_close=1000):
        self.manifest = make_manifest(num_groups=6, num_candidates=12,
                                      num_assembly=3)
        rng = Random(seed)
        self.params = gen_params(64, rng)
        self.election_key = gen_keypair(self.params, rng)
        self.verification_key = gen_keypair(self.params, rng)
        self.registration = RegistrationService(polls_close)
        self.verification = VerificationService(self.verification_key,
                                                self.manifest, polls_close)
        self.cvs = CoreVotingSystem(self.registration, polls_close, self.verification)
        self.rng = Random(seed + 1000)

    def core_ballots(self):
        return open_core_store(self.cvs, self.election_key, self.manifest)

    def ballot_for(self, group):
        return self.manifest.cards[group]

    def register(self, voter, now=1, pin=None):
        return self.registration.register(voter, pin, now, self.rng)

    def cast(self, creds, ballot, now=10, channel=VoteChannel.WEB):
        sealed = seal(encode_ballot(ballot, self.manifest),
                      self.election_key.public(), self.verification_key.public(),
                      self.rng)
        return self.cvs.cast(creds, sealed.to_bytes(), channel, now, self.rng)


class TestRegistration:
    def test_happy_path_records_link(self):
        fx = Fixture()
        creds = fx.register("alice")
        assert fx.registration.owner == {creds.login_id: "alice"}

    def test_each_voter_gets_its_own_login(self):
        fx = Fixture()
        logins = {f"v{i}": fx.register(f"v{i}").login_id for i in range(50)}
        assert len(set(logins.values())) == 50
        assert fx.registration.owner == {login: voter for voter, login in logins.items()}

    def test_after_close_rejected(self):
        fx = Fixture(polls_close=100)
        with pytest.raises(PollsClosed):
            fx.register("alice", now=100)


class TestCredentials:
    def registration(self):
        return RegistrationService(polls_close=1000)

    def test_successive_ids_distinct(self):
        reg = self.registration()
        rng = Random(1)
        a = reg.register("a", None, 1, rng)
        b = reg.register("b", None, 1, rng)
        assert a.login_id != b.login_id

    def test_pin_choice_passthrough(self):
        reg = self.registration()
        creds = reg.register("a", "123456", 1, Random(1))
        assert creds.pin == "123456"
        assert reg.check_pin(creds.login_id, "123456")
        assert not reg.check_pin(creds.login_id, "123457")
        assert reg.pin_hash[creds.login_id] == hash_pin("123456")

    @pytest.mark.parametrize("pin", ["12345", "1234567", "12a456", "", " 23456",
                                     "\u0661\u0662\u0663\u0664\u0665\u0666", "\u00b223456"])
    def test_malformed_pin_choice_raises(self, pin):
        reg = self.registration()
        with pytest.raises(ElectionError, match="pin must be 6 digits"):
            reg.register("a", pin, 1, Random(1))
        # nothing was issued
        assert reg.pin_hash == {} and reg.owner == {}

    def test_unknown_login_fails_the_pin_check(self):
        reg = self.registration()
        creds = reg.register("a", "123456", 1, Random(1))
        other = f"{(int(creds.login_id) + 1) % 10 ** 8:08d}"
        assert not reg.check_pin(other, "123456")

    def test_bulk_issuance_unique_and_padded(self):
        reg = self.registration()
        rng = Random(2)
        seen = set()
        for i in range(10_000):
            creds = reg.register(f"v{i}", None, 1, rng)
            assert re.fullmatch(r"\d{8}", creds.login_id)
            assert re.fullmatch(r"\d{6}", creds.pin)
            assert creds.login_id not in seen
            seen.add(creds.login_id)

    def test_login_id_space_exhausts(self, monkeypatch):
        # one digit leaves ten ids: each is issued once, then the cap holds
        monkeypatch.setattr(election, "LOGIN_ID_DIGITS", 1)
        reg = self.registration()
        rng = Random(4)
        ids = {reg.register(f"v{i}", None, 1, rng).login_id for i in range(10)}
        assert ids == {str(d) for d in range(10)}
        with pytest.raises(RegistryExhausted):
            reg.register("v10", None, 1, rng)


class TestCast:
    def test_honest_cast_consistent_across_stores(self):
        fx = Fixture()
        creds = fx.register("alice")
        ballot = fx.ballot_for("g03")
        receipt = fx.cast(creds, ballot)
        record = fx.cvs.records[receipt]
        cvs_ballot = decode_ballot(
            open_envelope(DigitalEnvelope.from_bytes(record.envelope),
                          ServerRole.ELECTION, fx.election_key),
            fx.manifest)
        ver = fx.verification.records[receipt]
        assert ver.login_id == creds.login_id
        assert cvs_ballot == ver.ballot == ballot
        # the verification store holds the registration's PIN digest, not a copy
        assert ver.pin_hash is fx.registration.pin_hash[creds.login_id]

    def test_each_cast_is_stored_once_under_its_receipt(self):
        fx = Fixture()
        logins, receipts = [], []
        for i in range(5):
            creds = fx.register(f"v{i}")
            logins.append(creds.login_id)
            receipts.append(fx.cast(creds, fx.ballot_for("g01"), now=10 + i))
        assert len(set(receipts)) == 5
        assert list(fx.cvs.records) == receipts
        assert [r.login_id for r in fx.cvs.records.values()] == logins
        assert list(fx.verification.records) == receipts

    def test_a_second_cast_on_one_login_raises(self):
        # single-cast is the voting server's own check: the second cast is
        # refused before it is stored, forwarded or given a receipt
        fx = Fixture()
        creds = fx.register("alice")
        receipt = fx.cast(creds, fx.ballot_for("g01"))
        with pytest.raises(AlreadyCast, match=creds.login_id):
            fx.cast(creds, fx.ballot_for("g02"), now=11)
        assert list(fx.cvs.records) == [receipt]
        assert list(fx.verification.records) == [receipt]
        assert list(fx.cvs.by_login) == [creds.login_id]
        assert dedup_and_count(fx.core_ballots(), fx.manifest).counts == {"g01": 1}

    def test_a_second_cast_checks_the_pin_before_the_login(self):
        fx = Fixture()
        creds = fx.register("alice")
        fx.cast(creds, fx.ballot_for("g01"))
        bad = type(creds)(login_id=creds.login_id, pin="000000"
                          if creds.pin != "000000" else "000001")
        with pytest.raises(BadCredentials):
            fx.cast(bad, fx.ballot_for("g02"), now=11)
        with pytest.raises(AlreadyCast):
            fx.cast(creds, fx.ballot_for("g02"), now=12)

    def test_receipts_unique_and_twelve_digits(self):
        fx = Fixture()
        receipts = [fx.cast(fx.register(f"v{i}"), fx.ballot_for("g01"), now=10)
                    for i in range(200)]
        assert all(re.fullmatch(r"\d{12}", r) for r in receipts)
        assert len(set(receipts)) == len(receipts)

    def test_receipt_draw_skips_a_stored_receipt(self):
        # the first draw repeats the stored receipt, so the second is kept
        fx = Fixture()
        receipt = fx.cast(fx.register("alice"), fx.ballot_for("g01"))
        draws = [int(receipt), 7]

        class ScriptedRng:
            def randrange(self, n):
                return draws.pop(0)

        assert fx.cvs.issue_receipt(ScriptedRng()) == "000000000007"
        assert draws == []

    def test_wrong_pin_rejected(self):
        fx = Fixture()
        creds = fx.register("alice")
        bad = type(creds)(login_id=creds.login_id, pin="000000"
                          if creds.pin != "000000" else "000001")
        with pytest.raises(BadCredentials):
            fx.cast(bad, fx.ballot_for("g01"))

    def test_cast_at_close_rejected(self):
        fx = Fixture(polls_close=500)
        creds = fx.register("alice")
        with pytest.raises(PollsClosed):
            fx.cast(creds, fx.ballot_for("g01"), now=500)


class TestVerifyIvr:
    def test_reads_back_exact_ballot(self):
        fx = Fixture()
        creds = fx.register("alice")
        ballot = fx.ballot_for("g02")
        receipt = fx.cast(creds, ballot)
        assert fx.verification.verify_ivr(creds.login_id, creds.pin, receipt,
                                          now=20) == ballot

    def test_closed_at_polls_close(self):
        fx = Fixture(polls_close=500)
        creds = fx.register("alice")
        receipt = fx.cast(creds, fx.ballot_for("g02"))
        with pytest.raises(ServiceClosed):
            fx.verification.verify_ivr(creds.login_id, creds.pin, receipt, now=500)

    def test_wrong_receipt_is_no_record(self):
        fx = Fixture()
        creds = fx.register("alice")
        fx.cast(creds, fx.ballot_for("g02"))
        with pytest.raises(NoSuchRecord):
            fx.verification.verify_ivr(creds.login_id, creds.pin,
                                       "000000000000", now=20)

    def test_stored_receipt_with_another_voters_credentials_is_no_record(self):
        # the store is keyed by receipt alone; the login id on the record
        # must still match the caller's
        fx = Fixture()
        alice = fx.register("alice")
        bob = fx.register("bob")
        receipt = fx.cast(alice, fx.ballot_for("g02"))
        fx.cast(bob, fx.ballot_for("g03"), now=11)
        with pytest.raises(NoSuchRecord):
            fx.verification.verify_ivr(bob.login_id, bob.pin, receipt, now=20)


class TestDedupAndCount:
    def test_empty(self):
        fx = Fixture()
        tally = dedup_and_count(fx.core_ballots(), fx.manifest)
        assert tally.counts == {} and tally.winner is None

    def test_every_channel_is_counted(self):
        fx = Fixture()
        for i, channel in enumerate(VoteChannel):
            creds = fx.register(f"v{i}")
            fx.cast(creds, fx.ballot_for(fx.manifest.groups[i]), now=10 + i,
                    channel=channel)
        tally = dedup_and_count(fx.core_ballots(), fx.manifest)
        oracle = tally_first_preferences(
            [fx.ballot_for(g) for g in fx.manifest.groups[:len(VoteChannel)]],
            fx.manifest)
        assert sum(tally.counts.values()) == len(VoteChannel)
        assert tally.counts == oracle.counts

    def test_hundred_voters_vs_recount_oracle(self):
        # oracle: recount each voter's ballot as drawn, never touching the
        # store; the count must agree vote for vote
        fx = Fixture()
        rng = Random(99)
        card_rate = 0.4
        expected = {}
        for i in range(100):
            voter = f"v{i}"
            creds = fx.register(voter, now=1)
            leaning = rng.choice(fx.manifest.groups)
            ballot = draw_ballot(leaning, rng.random() < card_rate, fx.manifest, rng)
            fx.cast(creds, ballot, now=10 + i)
            expected[voter] = ballot
        assert len(fx.cvs.records) == 100
        tally = dedup_and_count(fx.core_ballots(), fx.manifest)
        oracle = tally_first_preferences(list(expected.values()), fx.manifest)
        assert tally.counts == oracle.counts
        assert sum(tally.counts.values()) == 100
        assert (tally.winner, tally.margin) == (oracle.winner, oracle.margin)


class TestAudit:
    def seeded_run(self):
        fx = Fixture()
        voters = {}
        for i in range(20):
            creds = fx.register(f"v{i}")
            group = fx.manifest.groups[i % 4]
            fx.cast(creds, fx.ballot_for(group), now=10 + i)
            voters[f"v{i}"] = creds
        return fx, voters

    def test_honest_run_zero_inconsistencies(self):
        fx, _ = self.seeded_run()
        report = audit_reconcile(AuditMode.HONEST, fx.cvs, fx.verification,
                                 fx.core_ballots())
        assert report.inconsistencies == []

    def test_honest_audit_lists_exactly_manipulated_ids(self):
        fx, voters = self.seeded_run()
        # corrupt collecting server rewrites three stored envelopes
        manipulated = []
        for record in list(fx.cvs.records.values())[:3]:
            forged = seal(encode_ballot(fx.ballot_for("g06"), fx.manifest),
                          fx.election_key.public(), fx.verification_key.public(),
                          fx.rng)
            record.envelope = forged.to_bytes()
            manipulated.append(record.login_id)
        report = audit_reconcile(AuditMode.HONEST, fx.cvs, fx.verification,
                                 fx.core_ballots())
        assert sorted(i.login_id for i in report.inconsistencies) == sorted(manipulated)
        assert all(i.kind == "ballot_mismatch" for i in report.inconsistencies)

    def test_an_equal_but_distinct_ballot_is_not_reported(self):
        # a caller's own ballots need not be the verification store's
        # objects: equal ones still agree
        fx, _ = self.seeded_run()
        copies = [replace(ballot) for ballot in fx.core_ballots()]
        twins = [rec.ballot for rec in fx.verification.records.values()]
        assert copies == twins
        assert not any(c is t for c, t in zip(copies, twins))
        report = audit_reconcile(AuditMode.HONEST, fx.cvs, fx.verification, copies)
        assert report.inconsistencies == []

    def test_blind_eye_sees_nothing_while_tally_is_wrong(self):
        fx, _ = self.seeded_run()
        honest_tally = dedup_and_count(fx.core_ballots(), fx.manifest)
        for record in list(fx.cvs.records.values())[:5]:
            record.envelope = seal(
                encode_ballot(fx.ballot_for("g06"), fx.manifest),
                fx.election_key.public(), fx.verification_key.public(),
                fx.rng).to_bytes()
        report = audit_reconcile(AuditMode.BLIND_EYE, fx.cvs, fx.verification,
                                 fx.core_ballots())
        new_tally = dedup_and_count(fx.core_ballots(), fx.manifest)
        assert report.inconsistencies == []
        assert new_tally.counts != honest_tally.counts


class TestLinkage:
    def seeded_run(self):
        fx = Fixture()
        for i in range(10):
            creds = fx.register(f"v{i}")
            channel = VoteChannel.PHONE if i < 3 else VoteChannel.WEB
            receipt = fx.cast(creds, fx.ballot_for(fx.manifest.groups[i % 3]),
                              now=10 + i, channel=channel)
            if i in (0, 5):  # these two verify revealing caller id
                fx.verification.verify_ivr(creds.login_id, creds.pin, receipt,
                                           now=50, caller_id=f"v{i}")
        return fx

    @staticmethod
    def linked(fx, *components):
        holdings = collect_holdings(fx.registration, fx.verification, fx.cvs,
                                    fx.core_ballots(), set(components))
        return linkage_report(holdings)

    def test_empty_set_links_nothing(self):
        fx = self.seeded_run()
        assert self.linked(fx) == set()

    def test_registration_plus_verification_links_everyone(self):
        fx = self.seeded_run()
        linked = self.linked(fx, Component.REGISTRATION, Component.VERIFICATION_SERVER)
        assert {v for v, _ in linked} == {f"v{i}" for i in range(10)}

    def test_verification_alone_links_exactly_caller_id_revealers(self):
        fx = self.seeded_run()
        linked = self.linked(fx, Component.VERIFICATION_SERVER)
        assert {v for v, _ in linked} == {"v0", "v5"}

    def test_registration_plus_voice_links_phone_voters(self):
        fx = self.seeded_run()
        linked = self.linked(fx, Component.REGISTRATION, Component.VOICE_SERVER)
        assert {v for v, _ in linked} == {"v0", "v1", "v2"}

    def test_polling_place_machine_links_its_own_voters(self):
        fx = Fixture()
        for i in range(6):
            creds = fx.register(f"v{i}")
            channel = VoteChannel.POLLING_PLACE if i < 2 else VoteChannel.WEB
            fx.cast(creds, fx.ballot_for("g01"), now=10 + i, channel=channel)
        linked = self.linked(fx, Component.POLLING_PLACE_MACHINE)
        assert {v for v, _ in linked} == {"v0", "v1"}

    def test_phone_tap_disabled_drops_that_channel(self):
        # a phone network nobody taps is a tap left out of the compromised set
        fx = self.seeded_run()
        with_tap = self.linked(fx, Component.PHONE_TAP_CALLER_ID)
        assert {v for v, _ in with_tap} == {"v0", "v5"}
        assert self.linked(fx) == set()

    def test_registration_plus_auditor_links_everyone(self):
        fx = self.seeded_run()
        linked = self.linked(fx, Component.REGISTRATION, Component.AUDITOR)
        assert {v for v, _ in linked} == {f"v{i}" for i in range(10)}

    def test_unknown_component_rejected(self):
        fx = self.seeded_run()
        with pytest.raises(UnknownComponent, match="mystery"):
            self.linked(fx, Component.REGISTRATION, "mystery")

    @staticmethod
    def mixed_run():
        """Web, phone and polling-place votes, two caller-id revealers
        (one on a web vote), drawn ballots that are no card, and one stored
        envelope rewritten after the close. Returns it and the rewritten
        record's receipt.
        """
        fx = Fixture()
        rng = Random(7)
        for i in range(12):
            creds = fx.register(f"v{i}")
            leaning = rng.choice(fx.manifest.groups)
            rng.random()  # the card draw, which no voter here follows
            ballot = draw_ballot(leaning, False, fx.manifest, rng)
            receipt = fx.cast(creds, ballot, now=10 + i,
                              channel=list(VoteChannel)[i % len(VoteChannel)])
            if i in (1, 3):
                fx.verification.verify_ivr(creds.login_id, creds.pin, receipt,
                                           now=50, caller_id=f"v{i}")
        rewritten = list(fx.cvs.records)[5]
        fx.cvs.records[rewritten].envelope = seal(
            encode_ballot(fx.ballot_for("g06"), fx.manifest), fx.election_key.public(),
            fx.verification_key.public(), fx.rng).to_bytes()
        return fx, rewritten

    @staticmethod
    def linkage_oracle(fx, core, compromised):
        """The voter-ballot pairs `compromised` can tie together, worked
        out login by login from the registration owners, the verification
        records and the core records.
        """
        owner = fx.registration.owner  # login id -> voter
        ver = list(fx.verification.records.values())
        core_votes = list(zip(fx.cvs.records.values(), core))
        names, ballots = {}, {}  # login id -> the identities, the ballots tied to it
        if Component.REGISTRATION in compromised:
            for login, voter in owner.items():
                names.setdefault(login, set()).add(voter)
        for rec in ver:
            if Component.VERIFICATION_SERVER in compromised and rec.caller_id is not None:
                names.setdefault(rec.login_id, set()).add(rec.caller_id)
            if Component.VERIFICATION_SERVER in compromised or \
                    Component.AUDITOR in compromised or \
                    (Component.VOICE_SERVER in compromised and rec.channel is VoteChannel.PHONE):
                ballots.setdefault(rec.login_id, set()).add(rec.ballot)
        if Component.AUDITOR in compromised:
            for record, ballot in core_votes:
                ballots.setdefault(record.login_id, set()).add(ballot)
        linked = {(name, ballot) for login, held in ballots.items()
                  for name in names.get(login, ()) for ballot in held}
        if Component.POLLING_PLACE_MACHINE in compromised:
            linked |= {(owner[record.login_id], ballot) for record, ballot in core_votes
                       if record.channel is VoteChannel.POLLING_PLACE}
        if Component.PHONE_TAP_CALLER_ID in compromised:
            linked |= {(rec.caller_id, rec.ballot) for rec in ver if rec.caller_id is not None}
        return linked

    def test_every_component_subset_links_what_the_oracle_joins(self):
        fx, _ = self.mixed_run()
        core = fx.core_ballots()
        linked_by = {}
        for size in range(len(Component) + 1):
            for subset in itertools.combinations(Component, size):
                holdings = collect_holdings(fx.registration, fx.verification, fx.cvs,
                                            core, set(subset))
                linked_by[subset] = linkage_report(holdings)
                assert linked_by[subset] == self.linkage_oracle(fx, core, set(subset))
        assert len(linked_by) == 64

        def voters(*subset):
            return sorted(voter for voter, _ in linked_by[subset])

        # the fixture reaches every relation: caller ids, the phone channel,
        # polling places, and the rewritten vote's two ballots
        assert voters(Component.PHONE_TAP_CALLER_ID) == ["v1", "v3"]
        assert voters(Component.POLLING_PLACE_MACHINE) == ["v11", "v2", "v5", "v8"]
        assert voters(Component.REGISTRATION, Component.VOICE_SERVER) == \
            ["v1", "v10", "v4", "v7"]
        assert len(linked_by[tuple(Component)]) == 13

    def test_no_component_holds_nothing(self):
        fx, _ = self.mixed_run()
        h = collect_holdings(fx.registration, fx.verification, fx.cvs,
                             fx.core_ballots(), set())
        assert h.identity_to_login == h.login_to_ballot == h.identity_to_ballot == set()


class TestPostPollOpens:
    def test_each_core_record_opened_once_per_run(self, monkeypatch):
        # blind-auditor rewrites stored envelopes after the close, so the
        # single open must come after the rewrite and see the forged ones
        engine = ScenarioEngine(load_config(bundled_scenarios()["blind-auditor"]))
        opened = []
        real_open = election.open_envelope

        def counting_open(envelope, which, keypair):
            if which is ServerRole.ELECTION:
                opened.append(envelope)
            return real_open(envelope, which, keypair)

        monkeypatch.setattr(election, "open_envelope", counting_open)
        engine.run()
        stored = [record.envelope for record in engine.cvs.records.values()]
        assert engine.attacker.manipulation_ledger
        assert len(opened) == len(stored) > 0
        assert sorted(envelope.to_bytes() for envelope in opened) == sorted(stored)

    def test_an_agreeing_vote_holds_one_ballot_object(self):
        fx, rewritten = TestLinkage.mixed_run()
        core = fx.core_ballots()
        for receipt, ballot in zip(fx.cvs.records, core):
            twin = fx.verification.records[receipt].ballot
            if receipt == rewritten:
                assert ballot != twin
            else:
                assert ballot is twin
        report = audit_reconcile(AuditMode.HONEST, fx.cvs, fx.verification, core)
        assert [(i.login_id, i.receipt) for i in report.inconsistencies] == \
            [(fx.cvs.records[rewritten].login_id, rewritten)]


class TestStoreMemory:
    @staticmethod
    @functools.cache
    def traced_run(voters):
        """Bytes per voter that run() leaves allocated, and its traced peak,
        on an honest election of `voters`.
        """
        with open(bundled_scenarios()["honest-baseline"]) as f:
            tree = yaml.safe_load(f)
        tree["voters"] = voters
        engine = ScenarioEngine(parse_config(tree))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine.run()
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (current - before) / voters, (peak - before) / voters

    def test_each_vote_fact_stored_once_and_opening_events_fed(self):
        # on 1,000 honest voters: about 1,970 B retained and a 2,880 B
        # peak while the three opening events per voter were queued before
        # the loop and the stores kept a receipt set, a cast-login set, a
        # second PIN digest and a tuple key per vote; about 1,800 B and
        # 2,380 B with the events fed on demand and each fact stored once
        retained, peak = self.traced_run(1000)
        assert retained < 1880
        assert peak < 2600

    def test_honest_run_memory_bound(self):
        # what run() leaves allocated, per voter, on 1,000 honest voters:
        # about 2,440 B while the core store kept parsed envelopes and each
        # decoded card was a new Ballot, about 1,970 B with wire bytes and
        # the published cards
        retained, _ = self.traced_run(1000)
        assert retained < 2200

    def test_post_poll_keeps_no_holdings_or_second_ballots(self):
        # on 1,000 honest voters: a 2,380 B peak and 1,800 B retained while
        # run() built all six components' holdings with none compromised
        # and the core view kept its own copy of every agreeing ballot;
        # about 1,830 B and 1,360 B with neither
        retained, peak = self.traced_run(1000)
        assert peak < 2100
        assert retained < 1600
