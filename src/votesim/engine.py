"""Scenario engine: builds the network, services, voters and adversary
from a config, runs the event loop, and collects everything the report
needs. One run is a pure function of (config, seed).

Endpoint map:

    voter[i]  -> registration-gateway -> registration        (register)
    voter[i]  -> piwik                                       (script fetch)
    voter[i]  -> browser -> cvs                              (cast)
    voter[i]  -> voice-server -> cvs                         (phone cast)
    voter[i]  -> verification-ivr                            (read-back)
    voter[i]  -> receipt-service                             (inclusion)
    attacker-c2, attacker-ivr, attacker-registration         (adversary)

The "browser" hop is the in-device casting step: taps on it play
the role of injected client-side code and see the ballot before it is
sealed. The clash attack strips the registration gateway to plain HTTP
and misdirects registrations to attacker-registration.
"""

import hashlib
from array import array
from dataclasses import dataclass
from random import Random
from typing import Optional

from . import attacks as atk
from . import ballots as bal
from . import election as el
from . import envelope as env
from . import minitls as tls
from . import netsim
from .config import (FACTORING_SIM_SECONDS, FETCH_LEAD_DLOG, FETCH_LEAD_PLAIN,
                     REGISTRATION_LEAD, ScenarioConfig, build_manifest, fetch_range)
from .messages import (
    CastIntent,
    CastSubmission,
    CastTrigger,
    PhoneCast,
    ReceiptQuery,
    RegistrationReply,
    RegistrationRequest,
    SecureRecord,
    ThirdPartyFetch,
    VerifyCall,
)

@dataclass(slots=True)
class VoterState:
    voter_id: str
    profile: bal.VoterProfile
    intended: bal.Ballot
    channel: el.VoteChannel
    # pre-drawn behaviour, so paired runs stay aligned
    patched: bool = True
    controlled: bool = False
    granted: bool = False
    verifies: bool = False
    checks_receipt: bool = False
    false_complainer: bool = False
    dials_genuine: bool = False
    reveals_caller_id: bool = False
    suspicious: bool = False  # would notice an assigned-not-chosen PIN
    verify_delay: int = 600
    # evolving state; `rng` is held only from the stream's first reader to
    # the cast, see ScenarioEngine._voter_rng
    rng: Optional[Random] = None
    # set by the background fetch, which comes at least 9 s before the cast
    # trigger copies it into the voter's CastIntent
    compromised: bool = False
    credentials: Optional[el.Credentials] = None
    believed_receipt: Optional[str] = None
    submitted: Optional[bal.Ballot] = None
    show_receipt: bool = True
    cast_ok: bool = False
    # outcome record, each part written where it is decided; the report's
    # per-voter sections are derived from these
    downgrades: tuple[dict, ...] = ()  # MITM attempts on the background fetch
    verify_outcome: Optional[str] = None  # read_back, read_back_fake or closed
    verify_matched: Optional[bool] = None  # read-back equalled the intent
    complaint: Optional[el.ComplaintKind] = None  # the first; later ones are not filed


@dataclass
class FreakOracle:
    usable_from: int
    usable_until: int
    conn: tls.ServerConnection
    factored_key: Optional[tls.RsaKey]


class ScenarioEngine:
    def __init__(self, config: ScenarioConfig):
        self.config = config
        seed = config.seed
        self.rng_setup = Random(f"{seed}:setup")
        self.rng_services = Random(f"{seed}:services")
        self.rng_attacker = Random(f"{seed}:attacker")

        self.manifest = build_manifest(config.manifest)
        self.timeline = el.ElectionTimeline(
            polls_open=config.timeline.polls_open,
            polls_close=config.timeline.polls_close,
            receipt_service_end=config.timeline.receipt_service_end,
        )
        self.params = env.gen_params(config.crypto.envelope_bits, self.rng_setup)
        self.election_key = env.gen_keypair(self.params, self.rng_setup)
        self.verification_key = env.gen_keypair(self.params, self.rng_setup)
        # built once: each public key keeps its fixed-base table for every seal
        self.election_pub = self.election_key.public()
        self.verification_pub = self.verification_key.public()

        self.registration = el.RegistrationService(self.timeline)
        self.verification = el.VerificationService(self.verification_key,
                                                   self.manifest, self.timeline)
        self.cvs = el.CoreVotingSystem(self.registration, self.timeline, self.verification)

        self.attacker = atk.AttackerState()

        target = config.attacks.target_group or self.manifest.groups[1 % len(self.manifest.groups)]
        self.attacker_ballot = self.manifest.cards[target]

        # every background fetch is made fetch_lead seconds before its
        # cast, so none is later than last_fetch
        self.fetch_lead, first_fetch, self.last_fetch = fetch_range(config)
        self.earliest_cast = first_fetch + self.fetch_lead

        self.piwik_server: Optional[tls.TlsServer] = None
        self.dlog_table: Optional[tls.PrecompTable] = None
        self.freak_oracles: list[FreakOracle] = []
        if config.tls.enabled:
            self._build_tls()

        self.sim = netsim.Simulator()
        self.voters: dict[str, VoterState] = {}
        self._build_network()
        self._build_voters()
        self._install_attack_taps()

    # --- construction ---

    def _build_tls(self) -> None:
        cfg = self.config.tls
        suites = frozenset(tls.CipherSuite(s) for s in cfg.third_party_suites)
        server_cfg = tls.make_server_config(
            "piwik", suites, self.rng_setup,
            rotation_period=cfg.rotation_period,
        )
        self.piwik_server = tls.TlsServer(server_cfg)
        if self.config.attacks.logjam.enabled:
            # fixed up-front cost, paid before polls open and reused for
            # every connection that shares the group; parse_config puts
            # DHE_EXPORT among the suites whenever Logjam is on
            self.dlog_table = tls.dlog_precompute(server_cfg.export_dhe_params)
        if self.config.attacks.freak.enabled:
            self._build_freak_oracles()

    def _build_freak_oracles(self) -> None:
        """Staggered long-lived connections: each is opened, its pinned key
        factored (seven simulated hours), then used as a signature oracle
        until the connection dies. None is opened that could only serve
        fetches after the window or the last fetch.
        """
        lifetime = self.config.tls.oracle_connection_lifetime
        freak = self.config.attacks.freak
        open_at = freak.window_start - FACTORING_SIM_SECONDS
        usable_before = min(freak.window_end, self.last_fetch + 1)
        while open_at + FACTORING_SIM_SECONDS < usable_before:
            # parse_config puts RSA_EXPORT among the suites whenever FREAK is on
            conn = self.piwik_server.connect(open_at)
            key = conn.pinned_temp_key
            try:
                p, q = tls.factor_export_modulus(key.n, self.rng_attacker)
                factored = tls.RsaKey.from_primes(p, q, key.e)
            except tls.NotFactorable:
                factored = None
            self.freak_oracles.append(FreakOracle(
                usable_from=open_at + FACTORING_SIM_SECONDS,
                usable_until=open_at + lifetime,
                conn=conn,
                factored_key=factored,
            ))
            open_at += lifetime - FACTORING_SIM_SECONDS

    def _active_oracle(self, now: int) -> Optional[FreakOracle]:
        for oracle in self.freak_oracles:
            if oracle.usable_from <= now < oracle.usable_until:
                return oracle
        return None

    def _build_network(self) -> None:
        for name, handler in (
                ("registration-gateway", self._on_gateway),
                ("registration", self._on_registration),
                ("attacker-registration", self._on_attacker_registration),
                ("piwik", self._on_piwik),
                ("browser", self._on_browser),
                ("cvs", self._on_cvs),
                ("voice-server", self._on_voice),
                ("verification-ivr", self._on_ivr),
                ("attacker-ivr", self._on_attacker_ivr),
                ("receipt-service", self._on_receipt_service),
                ("attacker-c2", None),
                ("voter*", self._on_voter)):
            self.sim.add_endpoint(netsim.Endpoint(name, handler))

    def _draw_leanings(self) -> list[str]:
        """Quota mode fixes group counts exactly; otherwise leanings are
        sampled per voter from the weights.
        """
        counts = self.config.behavior.leaning_counts
        n = self.config.voters
        if counts is None:
            return [None] * n  # draw per voter later
        order = []
        for group in sorted(counts):
            order.extend([group] * counts[group])
        rng = Random(f"{self.config.seed}:quota")
        while len(order) < n:
            order.append(rng.choice(self.manifest.groups))
        rng.shuffle(order)
        return order

    def _build_voters(self) -> None:
        self.leanings = self._draw_leanings()
        for i in range(self.config.voters):
            state, _ = self._draw_voter(i)
            self.voters[state.voter_id] = state

    def _draw_voter(self, i: int) -> tuple[VoterState, Random]:
        """Voter i's record, drawn from the voter's own stream, and that
        stream as the draws leave it. The record does not keep the stream:
        its first reader rebuilds it by calling this again (`_voter_rng`).
        """
        cfg = self.config
        freak, logjam = cfg.attacks.freak, cfg.attacks.logjam
        rng = Random(f"{cfg.seed}:voter:{i}")
        cast_time = rng.randint(self.earliest_cast, self.timeline.polls_close - 1)
        profile = bal.draw_profile(cfg.behavior.card_rate,
                                   cfg.behavior.leaning_weights, self.manifest, rng,
                                   cast_time=cast_time, leaning=self.leanings[i])
        intended = bal.draw_ballot(profile, self.manifest, rng)
        chan_draw = rng.random()
        if chan_draw < cfg.behavior.phone_fraction:
            channel = el.VoteChannel.PHONE
        elif chan_draw < cfg.behavior.phone_fraction + cfg.behavior.polling_fraction:
            channel = el.VoteChannel.POLLING_PLACE
        else:
            channel = el.VoteChannel.WEB
        state = VoterState(
            voter_id=f"voter{i:05d}",
            profile=profile,
            intended=intended,
            channel=channel,
            patched=rng.random() < cfg.tls.client_patch_rate,
            verifies=rng.random() < cfg.behavior.p_verify_ivr,
            checks_receipt=rng.random() < cfg.behavior.p_check_receipt_only,
            false_complainer=rng.random() < cfg.behavior.p_false_complaint,
            dials_genuine=rng.random() < cfg.attacks.fake_ivr.dial_genuine_rate,
            reveals_caller_id=rng.random() < cfg.behavior.caller_id_fraction,
            suspicious=rng.random() < cfg.behavior.p_pin_suspicion,
            verify_delay=rng.randint(cfg.behavior.verify_delay_min,
                                     cfg.behavior.verify_delay_max),
            granted=rng.random() < cfg.attacks.granted_compromise_rate,
        )
        fetch_time = cast_time - self.fetch_lead
        in_freak = freak.enabled and \
            freak.window_start <= fetch_time < freak.window_end and \
            rng.random() < freak.control_rate
        in_logjam = logjam.enabled and \
            logjam.window_start <= fetch_time < logjam.window_end and \
            rng.random() < logjam.control_rate
        state.controlled = in_freak or in_logjam
        return state, rng

    def _voter_rng(self, state: VoterState) -> Random:
        """The voter's stream for the fetch and cast draws. The first
        reader rebuilds it by replaying the set-up draws; the record then
        holds it until the cast lets it go.
        """
        if state.rng is None:
            _, state.rng = self._draw_voter(int(state.voter_id.removeprefix("voter")))
        return state.rng

    def _install_attack_taps(self) -> None:
        a = self.config.attacks
        attacker, ballot = self.attacker, self.attacker_ballot
        if a.clash.enabled:
            self.sim.install_tap(netsim.make_sslstrip_tap("attacker-registration"))
            self.sim.install_tap(atk.make_browser_tap(
                "clash-cast",
                lambda intent: atk.clash_suppress_cast(attacker, intent),
                exfiltrate=False))
        if self.piwik_server is not None and (a.freak.enabled or a.logjam.enabled):
            self.sim.install_tap(netsim.MitmTap(
                name="downgrade-mitm",
                dst="piwik",
                handler=self._piwik_mitm,
            ))
        if a.last_minute.enabled:
            close, window = self.timeline.polls_close, a.last_minute.safety_window
            self.sim.install_tap(atk.make_browser_tap(
                "last-minute",
                lambda intent: atk.last_minute_rewrite(
                    attacker, intent, ballot, close, window),
                exfiltrate=True))
        if a.receipt_delay.enabled:
            p_leave = self.config.behavior.p_leave_without_receipt
            self.sim.install_tap(atk.make_browser_tap(
                "receipt-delay",
                lambda intent: atk.delay_receipt_gambit(
                    attacker, intent, ballot, p_leave, self.rng_attacker),
                exfiltrate=False))
        if a.vote_rewrite.enabled:
            self.sim.install_tap(atk.make_browser_tap(
                "vote-rewrite",
                lambda intent: atk.inject_vote_rewrite(attacker, intent, ballot),
                exfiltrate=True))
        if a.fake_ivr.enabled:
            self.sim.install_tap(netsim.MitmTap(
                name="fake-ivr",
                dst="verification-ivr",
                handler=self._fake_ivr_tap,
            ))

    # --- adversary tap handlers needing engine state ---

    def _piwik_mitm(self, event: netsim.Event, sim: netsim.Simulator) -> netsim.Decision:
        state = self.voters[event.payload.voter_id]
        if not state.controlled:
            return netsim.Decision.forward()
        now = event.time
        client_cfg = tls.ClientTlsConfig(
            offered_suites=(tls.CipherSuite.RSA, tls.CipherSuite.DHE),
            patched=state.patched,
        )
        a = self.config.attacks
        # export-RSA path first when both are on (cheaper per session); a
        # rejected downgrade just kills one background fetch, so the
        # attacker gets to try the protocol-level one on the retry
        if a.freak.enabled:
            oracle = self._active_oracle(now)
            if oracle is not None:
                result = tls.mitm_freak(client_cfg, oracle.conn,
                                        oracle.factored_key, self._voter_rng(state))
                self._note_downgrade(state, now, "freak", result)
                if result.success:
                    return netsim.Decision.forward()
        if a.logjam.enabled:
            conn = self.piwik_server.connect(now)
            try:
                result = tls.mitm_logjam(client_cfg, conn, self.dlog_table,
                                         self._voter_rng(state))
            except tls.TlsError as exc:
                result = tls.MitmResult(success=False, error=f"{type(exc).__name__}: {exc}")
            self._note_downgrade(state, now, "logjam", result)
        return netsim.Decision.forward()

    @staticmethod
    def _note_downgrade(state: VoterState, now: int, kind: str,
                        result: tls.MitmResult) -> None:
        """Add one attempt to the voter's timeline; a success hands the
        attacker the session.
        """
        entry = {"time": now, "voter": state.voter_id, "kind": kind,
                 "outcome": result.error or "failed"}
        if result.success:
            state.compromised = True
            entry["outcome"] = "compromised"
            if kind == "logjam":
                entry["delay"] = result.simulated_delay
        state.downgrades += (entry,)

    def _fake_ivr_tap(self, event: netsim.Event, sim: netsim.Simulator) -> netsim.Decision:
        call = event.payload
        return atk.fake_verification_redirect(self.attacker, call, "attacker-ivr",
                                              self.voters[call.voter_id].dials_genuine)

    # --- endpoint handlers ---

    def _on_gateway(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        sim.schedule(event.time, "registration-gateway", "registration",
                     event.payload)

    def _on_registration(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        req = event.payload
        creds = self.registration.register(req.voter_id, None, event.time,
                                           self.rng_services)
        sim.schedule(event.time, "registration", req.voter_id,
                     RegistrationReply(voter_id=req.voter_id, credentials=creds))

    def _on_attacker_registration(self, event: netsim.Event,
                                  sim: netsim.Simulator) -> None:
        req = event.payload
        state = self.voters[req.voter_id]
        if state.suspicious:
            # the voter balks at being assigned a PIN and finds their way
            # to the genuine service; this victim is lost to the attacker
            sim.schedule(event.time, req.voter_id, "registration", req)
            return
        if self.config.attacks.clash.prediction == "perfect":
            predicted = state.intended
        else:
            predicted = self.manifest.cards[state.profile.party_leaning]
        # the victim's real entitlement, under a PIN the attacker assigns
        attacker_pin = f"{self.rng_attacker.randrange(10 ** el.PIN_DIGITS):06d}"
        creds = self.registration.register(req.voter_id, attacker_pin, event.time,
                                           self.rng_services)
        pooled = atk.clash_register(self.attacker, req.voter_id, predicted)
        if pooled is not None:
            # spend the entitlement on the attacker's ballot, and hand the
            # victim the pooled vote's credentials and receipt instead
            sim.schedule(event.time + 60, f"fraud:{req.voter_id}", "browser",
                         CastIntent(
                             voter_id=f"fraud:{req.voter_id}",
                             credentials=creds,
                             ballot=self.attacker_ballot,
                             cast_time=event.time + 60,
                             channel=el.VoteChannel.WEB,
                         ))
            state.believed_receipt = pooled.receipt
            creds = pooled.credentials
        sim.schedule(event.time, "attacker-registration", req.voter_id,
                     RegistrationReply(voter_id=req.voter_id, credentials=creds))

    def _on_voter(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        payload = event.payload
        state = self.voters[payload.voter_id]
        if isinstance(payload, RegistrationReply):
            state.credentials = payload.credentials
        elif isinstance(payload, CastTrigger):
            if state.credentials is None:
                raise el.ElectionError(
                    f"{state.voter_id} has no credentials at its cast trigger")
            sim.schedule(state.profile.cast_time, state.voter_id, "browser",
                         CastIntent(
                             voter_id=state.voter_id,
                             credentials=state.credentials,
                             ballot=state.intended,
                             cast_time=state.profile.cast_time,
                             channel=state.channel,
                             compromised=state.compromised,
                         ))

    def _on_piwik(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        payload = event.payload
        state = self.voters[payload.voter_id]
        if state.downgrades:
            return  # the MITM already terminated this fetch
        if state.granted:
            # scenario-granted client compromise (malware, misdirection):
            # no downgrade machinery involved
            state.compromised = True
            return
        if self.piwik_server is None:
            return
        client_cfg = tls.ClientTlsConfig(
            offered_suites=(tls.CipherSuite.RSA, tls.CipherSuite.DHE),
            patched=payload.patched_client,
        )
        tls.handshake(client_cfg, self.piwik_server.connect(event.time),
                      self._voter_rng(state))

    def _on_browser(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        intent = event.payload
        state = self.voters.get(intent.voter_id)  # None for the attacker's fraud: casts
        # the cast is the last reader of a voter's stream: every branch
        # below lets it go
        if intent.suppress_submit:
            # clash victims: nothing reaches the voting server, but the
            # voter walks away holding the pooled receipt, handed out at
            # registration, and can still phone the genuine read-back service
            state.rng = None
            self._schedule_voter_followups(state, event.time, sim)
            return
        if intent.channel is el.VoteChannel.PHONE:
            state.rng = None
            sim.schedule(event.time, intent.voter_id, "voice-server", PhoneCast(
                voter_id=intent.voter_id,
                credentials=intent.credentials,
                ballot=intent.ballot,
            ))
            return
        rng = self._voter_rng(state) if state is not None else self.rng_services
        ballot_bytes = bal.encode_ballot(intent.ballot, self.manifest)
        session_id = f"cast:{intent.voter_id}"
        session_key = self._session_key(session_id)
        sealed = env.seal(ballot_bytes, self.election_pub, self.verification_pub,
                          rng, session_key=session_key)
        submission = CastSubmission(
            voter_id=intent.voter_id, credentials=intent.credentials,
            envelope=sealed.to_bytes(), channel=intent.channel,
        )
        if state is not None:
            state.rng = None
            state.submitted = intent.ballot
            state.show_receipt = intent.show_receipt
        record = SecureRecord(
            session_id=session_id, seq=0,
            blob=tls.encrypt_record(session_key, 0, submission.to_bytes()),
        )
        sim.schedule(event.time, intent.voter_id, "cvs", record)

    def _session_key(self, session_id: str) -> bytes:
        """A cast session's record key, derived from its id; a record sent
        on a session no voter opened fails the MAC and aborts the run.
        """
        voter_id = session_id.removeprefix("cast:")
        return hashlib.sha256(
            f"{self.config.seed}:tls-session:{voter_id}".encode()).digest()

    def _on_cvs(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        payload = event.payload
        plain = tls.decrypt_record(self._session_key(payload.session_id),
                                   payload.seq, payload.blob)
        submission = CastSubmission.from_bytes(plain)
        self._accept_cast(submission, event.time, sim)

    def _on_voice(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        payload = event.payload
        ballot_bytes = bal.encode_ballot(payload.ballot, self.manifest)
        sealed = env.seal(ballot_bytes, self.election_pub, self.verification_pub,
                          self.rng_services)
        submission = CastSubmission(
            voter_id=payload.voter_id, credentials=payload.credentials,
            envelope=sealed.to_bytes(), channel=el.VoteChannel.PHONE,
        )
        self._accept_cast(submission, event.time, sim)

    def _accept_cast(self, submission: CastSubmission, now: int,
                     sim: netsim.Simulator) -> None:
        receipt = self.cvs.cast(submission.credentials, submission.envelope,
                                submission.channel, now, self.rng_services)
        state = self.voters.get(submission.voter_id)
        if state is None:
            return  # attacker-cast entitlement: no voter-side bookkeeping
        state.cast_ok = True
        if state.show_receipt:
            state.believed_receipt = receipt
        if state.submitted is not None:  # None for a phone cast
            atk.clash_note_cast(self.attacker, submission.voter_id,
                                submission.credentials, receipt, state.submitted)
        self._schedule_voter_followups(state, now, sim)

    def _schedule_voter_followups(self, state: VoterState, now: int,
                                  sim: netsim.Simulator) -> None:
        if state.verifies and state.believed_receipt is not None:
            sim.schedule(now + state.verify_delay, state.voter_id,
                         "verification-ivr", VerifyCall(
                             voter_id=state.voter_id,
                             login_id=state.credentials.login_id,
                             pin=state.credentials.pin,
                             receipt=state.believed_receipt,
                             caller_id=state.voter_id if state.reveals_caller_id else None,
                         ))
        if state.checks_receipt and state.believed_receipt is not None:
            when = max(now + state.verify_delay,
                       self.timeline.polls_close + 600)
            if when < self.timeline.receipt_service_end:
                sim.schedule(when, state.voter_id, "receipt-service",
                             ReceiptQuery(voter_id=state.voter_id,
                                          receipt=state.believed_receipt))

    def _on_ivr(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        call = event.payload
        state = self.voters[call.voter_id]
        try:
            ballot = self.verification.verify_ivr(call.login_id, call.pin,
                                                  call.receipt, event.time,
                                                  caller_id=call.caller_id)
        except el.ServiceClosed:
            state.verify_outcome = "closed"
            return
        self._read_back(state, "read_back", ballot == state.intended)

    def _on_attacker_ivr(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        # the fake service reads back the voter's own intent, so it
        # always matches
        self._read_back(self.voters[event.payload.voter_id], "read_back_fake", True)

    @staticmethod
    def _read_back(state: VoterState, outcome: str, matched: bool) -> None:
        """The voter hears a ballot read back at either IVR: a mismatch is
        a true complaint, and only a matching read-back leaves room for a
        false one.
        """
        state.verify_outcome = outcome
        state.verify_matched = matched
        if state.complaint is not None:
            return  # the voter's first complaint stands
        if not matched:
            state.complaint = el.ComplaintKind.MISMATCH_READ
        elif state.false_complainer:
            state.complaint = el.ComplaintKind.FALSE_COMPLAINT

    def _on_receipt_service(self, event: netsim.Event, sim: netsim.Simulator) -> None:
        # queries are scheduled only before the service ends, for a receipt
        # the voter was shown; every such receipt is stored and counted
        query = event.payload
        if query.receipt not in self.cvs.records:
            raise el.ElectionError(f"receipt {query.receipt} is not in the core store")

    # --- run ---

    def schedule_all(self) -> None:
        """Feed each voter's registration, background fetch and cast
        trigger to the loop as it reaches them. Voter k in sorted-id order
        holds seqs `first + per * k + j`, as if all were queued up front;
        each event's time is the cast time less a fixed lead, so one stable
        sort by cast time puts every feed in (time, seq) order.
        """
        states = [self.voters[v] for v in sorted(self.voters)]
        fetches = self.config.tls.enabled or self.config.attacks.granted_compromise_rate > 0
        per = 3 if fetches else 2
        first = self.sim.reserve(per * len(states))
        order = array("l", sorted(range(len(states)),
                                  key=lambda k: states[k].profile.cast_time))

        def feed(j, lead, dst, payload):
            # dst None: the event goes to the voter itself
            for k in order:
                s = states[k]
                yield netsim.Event(s.profile.cast_time - lead, s.voter_id, dst or s.voter_id,
                                   payload(s), first + per * k + j)

        self.sim.feed(feed(0, REGISTRATION_LEAD, "registration-gateway",
                           lambda s: RegistrationRequest(voter_id=s.voter_id,
                                                         channel=s.channel)))
        if fetches:
            self.sim.feed(feed(1, self.fetch_lead, "piwik",
                               lambda s: ThirdPartyFetch(voter_id=s.voter_id,
                                                         patched_client=s.patched)))
        self.sim.feed(feed(per - 1, 1, None, lambda s: CastTrigger(voter_id=s.voter_id)))

    def run(self) -> None:
        self.schedule_all()
        self.sim.run_all()
        self._apply_server_rewrite()
        core_ballots = el.open_core_store(self.cvs, self.election_key, self.manifest)
        self.tally = el.dedup_and_count(core_ballots, self.manifest)
        self.intent_tally = bal.tally_first_preferences(
            [self.voters[v].intended for v in sorted(self.voters)], self.manifest)
        self.audit = el.audit_reconcile(
            el.AuditMode(self.config.audit.mode), self.cvs, self.verification,
            core_ballots)
        compromised = {el.Component(c) for c in self.config.linkage.compromised}
        holdings = el.collect_holdings(
            self.registration, self.verification, self.cvs, core_ballots, compromised)
        self.linked = el.linkage_report(holdings)
        self.conservation = self.sim.finalize()

    def _apply_server_rewrite(self) -> None:
        """Corrupt collecting server rewrites stored envelopes after the
        close of polls. The verification store keeps the originals; only a
        willingly honest audit notices.
        """
        a = self.config.attacks
        if not a.server_rewrite.enabled or a.server_rewrite.count <= 0:
            return
        rng = Random(f"{self.config.seed}:server-rewrite")
        ballot_bytes = bal.encode_ballot(self.attacker_ballot, self.manifest)
        # only records whose vote the attacker actually wants changed: a
        # ledgered voter's record already carries the attacker ballot, and
        # any other voter cast their own intent, on the web or by phone
        ledger = self.attacker.manipulation_ledger
        candidates = []
        for _, r in sorted(self.cvs.records.items()):  # by receipt, a unique key
            state = self.voters[self.registration.owner[r.login_id]]
            if state.voter_id in ledger or state.intended == self.attacker_ballot:
                continue
            candidates.append((r, state))
        for record, state in candidates[:a.server_rewrite.count]:
            # phone casts are sealed at the voice server, on no session
            session_key = None if record.channel is el.VoteChannel.PHONE \
                else self._session_key(f"cast:{state.voter_id}")
            forged = env.seal(ballot_bytes, self.election_pub,
                              self.verification_pub, rng, session_key=session_key)
            record.envelope = forged.to_bytes()
            self.attacker.charge(atk.LedgerEntry(
                voter_id=state.voter_id, strategy="server_rewrite",
                cast_time=self.timeline.polls_close,
            ))


def run_engine(config: ScenarioConfig) -> ScenarioEngine:
    engine = ScenarioEngine(config)
    engine.run()
    return engine
