"""The voting services and the four-step protocol they implement.

1. register: voter gets an 8-digit login id and a 6-digit PIN; the
   registration service keeps each login's PIN digest and owner.
2. cast: the client seals the ballot in a digital envelope; the core
   voting system stores the envelope's wire bytes as they arrived,
   forwards them to the verification service, and returns a 12-digit
   receipt number.
3. verify (optional): the voter phones the verification IVR with login
   id, PIN and receipt and hears the vote read back. The service shuts
   down at the close of polls.
4. receipt lookup (optional): a no-login check that a receipt is in the
   core store; outlives the close of polls.

The election is single-cast: each voter registers once and casts at most
once, so the count is the tally of the core store. The core voting
system holds it: a second cast on one login raises `AlreadyCast`. A
service check that fails (polls closed, bad credentials, already cast,
no such record) raises out of the run rather than dropping the vote.

The verification service holds its own unwrapping key and decrypts on
receipt, so read-back answers come from its copy, never from the core
store: the two can disagree, which is exactly what the auditor is for.
"""

import hashlib
import hmac
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import Collection, Optional

from .ballots import Ballot, ElectionManifest, TallyResult, decode_ballot, tally_first_preferences
from .envelope import DigitalEnvelope, KeyPair, ServerRole, open_envelope

LOGIN_ID_DIGITS = 8
PIN_DIGITS = 6
RECEIPT_DIGITS = 12


class ElectionError(Exception):
    pass


class PollsClosed(ElectionError):
    pass


class BadCredentials(ElectionError):
    pass


class ServiceClosed(ElectionError):
    pass


class NoSuchRecord(ElectionError):
    pass


class AlreadyCast(ElectionError):
    pass


class UnknownComponent(ElectionError):
    pass


class RegistryExhausted(ElectionError):
    pass


class VoteChannel(Enum):
    WEB = "web"
    PHONE = "phone"
    POLLING_PLACE = "polling_place"


class ComplaintKind(Enum):
    MISMATCH_READ = "mismatch_read"
    FALSE_COMPLAINT = "false_complaint"


@dataclass(frozen=True, slots=True)
class Credentials:
    login_id: str
    pin: str


def hash_pin(pin: str) -> bytes:
    return hashlib.sha256(b"pin:" + pin.encode()).digest()


@dataclass(slots=True)
class CoreVotingRecord:
    login_id: str
    envelope: bytes  # the envelope's wire bytes, as the cast carried them
    channel: VoteChannel


@dataclass(slots=True)
class VerificationRecord:
    login_id: str
    pin_hash: bytes
    ballot: Ballot
    channel: VoteChannel
    caller_id: Optional[str] = None


class RegistrationService:
    """Issues unique zero-padded login ids and PINs, and keeps each login's
    PIN digest and owner (the owner link is itself privacy-relevant; see
    linkage_report). Single writer: owned by the election event loop.
    """

    def __init__(self, polls_close: int):
        self.polls_close = polls_close
        self.pin_hash: dict[str, bytes] = {}  # login id -> PIN digest
        self.owner: dict[str, str] = {}  # login id -> voter

    def register(self, voter_id: str, pin_choice: Optional[str], now: int,
                 rng: Random) -> Credentials:
        """Fresh credentials for `voter_id`. The PIN is the caller's choice
        when given, which models an attacker assigning one at registration.
        """
        if now >= self.polls_close:
            raise PollsClosed("registration after close of polls")
        if len(self.pin_hash) >= 10 ** LOGIN_ID_DIGITS:
            raise RegistryExhausted("login id space exhausted")
        while True:
            login_id = f"{rng.randrange(10 ** LOGIN_ID_DIGITS):0{LOGIN_ID_DIGITS}d}"
            if login_id not in self.pin_hash:
                break
        if pin_choice is not None:
            if not (len(pin_choice) == PIN_DIGITS and pin_choice.isascii()
                    and pin_choice.isdigit()):
                raise ElectionError("pin must be 6 digits")
            pin = pin_choice
        else:
            pin = f"{rng.randrange(10 ** PIN_DIGITS):0{PIN_DIGITS}d}"
        self.pin_hash[login_id] = hash_pin(pin)
        self.owner[login_id] = voter_id
        return Credentials(login_id=login_id, pin=pin)

    def check_pin(self, login_id: str, pin: str) -> bool:
        stored = self.pin_hash.get(login_id)
        return stored is not None and hmac.compare_digest(stored, hash_pin(pin))


class VerificationService:
    """Independent store fed by the core system, keyed by receipt; decrypts
    with its own wrapped-key secret as envelopes arrive.
    """

    def __init__(self, keypair: KeyPair, manifest: ElectionManifest, polls_close: int):
        self.keypair = keypair
        self.manifest = manifest
        self.polls_close = polls_close
        self.records: dict[str, VerificationRecord] = {}  # receipt -> record

    def receive(self, login_id: str, pin_hash: bytes, receipt: str,
                envelope: bytes, channel: VoteChannel) -> None:
        ballot = open_ballot(envelope, ServerRole.VERIFICATION, self.keypair, self.manifest)
        self.records[receipt] = VerificationRecord(
            login_id=login_id, pin_hash=pin_hash, ballot=ballot, channel=channel,
        )

    def verify_ivr(self, login_id: str, pin: str, receipt: str, now: int,
                   caller_id: Optional[str] = None) -> Ballot:
        # the read-back service dies with the polls, by design of the
        # real protocol; this asymmetry is what last-minute attacks use
        if now >= self.polls_close:
            raise ServiceClosed("verification service stopped at close of polls")
        record = self.records.get(receipt)
        if record is None or record.login_id != login_id or \
                record.pin_hash != hash_pin(pin):
            raise NoSuchRecord("no record for those credentials")
        if caller_id is not None:
            record.caller_id = caller_id
        return record.ballot


class CoreVotingSystem:
    """Collects sealed votes, authenticates credentials, assigns receipts,
    and forwards a copy to the verification service.
    """

    def __init__(self, registration: RegistrationService, polls_close: int,
                 verification: VerificationService):
        self.registration = registration
        self.polls_close = polls_close
        self.verification = verification
        self.records: dict[str, CoreVotingRecord] = {}  # receipt -> record, in cast order
        self.by_login: dict[str, CoreVotingRecord] = {}  # single-cast check

    def cast(self, credentials: Credentials, envelope: bytes,
             channel: VoteChannel, now: int, rng: Random) -> str:
        if now >= self.polls_close:
            raise PollsClosed("polls are closed")
        login_id = credentials.login_id
        if not self.registration.check_pin(login_id, credentials.pin):
            raise BadCredentials("login id and PIN do not match")
        if login_id in self.by_login:
            raise AlreadyCast(f"login {login_id} has already cast")
        receipt = self.issue_receipt(rng)
        record = CoreVotingRecord(
            login_id=login_id, envelope=envelope, channel=channel,
        )
        self.records[receipt] = record
        self.by_login[login_id] = record
        # the registration's own digest object: no vote keeps a second hash
        self.verification.receive(login_id, self.registration.pin_hash[login_id],
                                  receipt, envelope, channel)
        return receipt

    def issue_receipt(self, rng: Random) -> str:
        """A zero-padded receipt number no stored vote holds. Each vote
        spends a login id, and there are fewer of those than receipts, so
        the draw always ends.
        """
        while True:
            receipt = f"{rng.randrange(10 ** RECEIPT_DIGITS):0{RECEIPT_DIGITS}d}"
            if receipt not in self.records:
                return receipt


def open_ballot(envelope: bytes, role: ServerRole, keypair: KeyPair,
                manifest: ElectionManifest) -> Ballot:
    """The ballot sealed in an envelope's wire bytes, opened with `role`'s
    key; the one place either server opens a vote.
    """
    return decode_ballot(open_envelope(DigitalEnvelope.from_bytes(envelope), role, keypair),
                         manifest)


def open_core_store(
    cvs: CoreVotingSystem,
    election_key: KeyPair,
    manifest: ElectionManifest,
) -> list[Ballot]:
    """Decrypt every stored envelope once with the election key, after the
    close of polls. The result is aligned with `cvs.records.values()` and is
    the plaintext view that counting, audit and linkage share. A record that
    fails authentication raises AuthFailure, aborting the post-poll run.
    A ballot equal to its verification twin's is that twin's object, so
    an agreeing vote holds one Ballot; a differing one keeps its own.
    """
    twins = cvs.verification.records
    ballots = []
    for receipt, record in cvs.records.items():
        ballot = open_ballot(record.envelope, ServerRole.ELECTION, election_key, manifest)
        twin = twins[receipt].ballot
        ballots.append(twin if ballot == twin else ballot)
    return ballots


def dedup_and_count(core_ballots: list[Ballot], manifest: ElectionManifest) -> TallyResult:
    """Tally the core store, `open_core_store`'s view. Each login holds at
    most one record and each voter one login, so there is nothing to
    deduplicate: every stored record is counted.
    """
    return tally_first_preferences(core_ballots, manifest)


class AuditMode(Enum):
    HONEST = "honest"
    BLIND_EYE = "blind_eye"


@dataclass(frozen=True)
class Inconsistency:
    login_id: str
    receipt: str
    kind: str  # "ballot_mismatch": the two stores decrypt to different ballots


@dataclass
class AuditReport:
    mode: AuditMode
    inconsistencies: list[Inconsistency]


def audit_reconcile(
    mode: AuditMode,
    cvs: CoreVotingSystem,
    verification: VerificationService,
    core_ballots: list[Ballot],
) -> AuditReport:
    """Reconcile the two stores. Honest mode reports every divergence;
    blind-eye mode reports nothing no matter what (the corrupt-auditor
    branch), which is why an empty report proves little on its own.
    """
    if mode is AuditMode.BLIND_EYE:
        return AuditReport(mode=mode, inconsistencies=[])
    # each cast writes both stores in one call and nothing removes a
    # record, so every core record has its verification twin; an agreeing
    # vote from `open_core_store` is its twin's own object
    found = []
    for (receipt, record), ballot in zip(cvs.records.items(), core_ballots):
        twin = verification.records[receipt].ballot
        if ballot is not twin and ballot != twin:
            found.append(Inconsistency(record.login_id, receipt, "ballot_mismatch"))
    found.sort(key=lambda inc: (inc.login_id, inc.receipt, inc.kind))
    return AuditReport(mode=mode, inconsistencies=found)


# --- privacy linkage analysis ---

class Component(Enum):
    REGISTRATION = "registration"
    VERIFICATION_SERVER = "verification_server"
    VOICE_SERVER = "voice_server"
    AUDITOR = "auditor"
    POLLING_PLACE_MACHINE = "polling_place_machine"
    PHONE_TAP_CALLER_ID = "phone_tap_caller_id"


@dataclass
class DataHoldings:
    """What a set of components store between them, reduced to
    identity/login/ballot pairs. The linkage computation is a pure set
    join over these relations; no cryptanalysis is involved.
    """

    identity_to_login: set[tuple[str, str]] = field(default_factory=set)
    login_to_ballot: set[tuple[str, Ballot]] = field(default_factory=set)
    identity_to_ballot: set[tuple[str, Ballot]] = field(default_factory=set)


def collect_holdings(
    registration: RegistrationService,
    verification: VerificationService,
    cvs: CoreVotingSystem,
    core_ballots: list[Ballot],
    components: Collection[Component],
) -> DataHoldings:
    """The union of the relations `components` store; the others' are left
    out, since only the compromised components' holdings link anything.
    """
    for comp in components:
        if not isinstance(comp, Component):
            raise UnknownComponent(f"unknown component {comp!r}")
    h = DataHoldings()
    ver = verification.records.values()
    if Component.REGISTRATION in components:
        h.identity_to_login.update((voter, login) for login, voter in registration.owner.items())
    if Component.VERIFICATION_SERVER in components:
        h.login_to_ballot.update((rec.login_id, rec.ballot) for rec in ver)
        # a caller who reveals a phone identity hands the verification
        # server the whole chain by itself
        h.identity_to_login.update((rec.caller_id, rec.login_id)
                                   for rec in ver if rec.caller_id is not None)
    if Component.VOICE_SERVER in components:
        h.login_to_ballot.update((rec.login_id, rec.ballot)
                                 for rec in ver if rec.channel is VoteChannel.PHONE)
    if Component.AUDITOR in components:
        # the auditor sees both stores' contents during reconciliation
        h.login_to_ballot.update((rec.login_id, rec.ballot) for rec in ver)
        h.login_to_ballot.update((record.login_id, ballot) for record, ballot
                                 in zip(cvs.records.values(), core_ballots))
    if Component.POLLING_PLACE_MACHINE in components:
        # polling-place machines register and collect on the same box
        owner = registration.owner
        h.identity_to_ballot.update(
            (owner[record.login_id], ballot)
            for record, ballot in zip(cvs.records.values(), core_ballots)
            if record.channel is VoteChannel.POLLING_PLACE and record.login_id in owner)
    if Component.PHONE_TAP_CALLER_ID in components:
        # a tap on the phone network hears ballots read back, and learns
        # who is calling exactly when the line carries a caller id
        h.identity_to_ballot.update((rec.caller_id, rec.ballot)
                                    for rec in ver if rec.caller_id is not None)
    return h


def linkage_report(holdings: DataHoldings) -> set[tuple[str, Ballot]]:
    """Voter-to-decrypted-ballot pairs recoverable from `holdings`: the
    pairs held directly, plus each identity joined through its login to
    that login's ballots.
    """
    voters_of: dict[str, set[str]] = {}
    for voter, login in holdings.identity_to_login:
        voters_of.setdefault(login, set()).add(voter)
    linked = set(holdings.identity_to_ballot)
    for login, ballot in holdings.login_to_ballot:
        for voter in voters_of.get(login, ()):
            linked.add((voter, ballot))
    return linked
