"""Adversary strategies, composed as tap handlers over the event network.

Every strategy writes to a shared manipulation ledger, keyed by voter,
which is the ground truth the report's `detection` section joins each
voter record against. The point those numbers make: complaints reaching
the authorities understate manipulated votes, by construction, for each
of these strategies.

Strategies:

* vote rewrite       — compromised in-browser code swaps the ballot before
                       encryption and exfiltrates the intent + credentials.
* last-minute        — rewrite only inside a window before the close of
                       polls, when the read-back service can no longer be
                       reached in time.
* receipt-delay      — stall the receipt display; voters who leave never
                       get a receipt, so a fraudulent vote goes in with no
                       chance of a complaint; voters who wait get their
                       genuine vote.
* fake verification  — redirect a manipulated voter's verify call to an
                       attacker IVR that reads back the intent.
* clash              — strip the registration gateway to plain HTTP,
                       misdirect registrations to a look-alike site,
                       hand victims the credentials of a like-minded voter
                       who already cast an identical-by-prediction vote,
                       and spend each victim's real entitlement on an
                       attacker ballot.
"""

from dataclasses import dataclass, field, replace
from random import Random
from typing import Callable, Optional

from .ballots import Ballot
from .election import Credentials
from .messages import CastIntent, C2Exfil, VerifyCall
from .netsim import Decision, Event, MitmTap, Simulator


class AttackError(Exception):
    pass


@dataclass(slots=True)
class PoolEntry:
    credentials: Credentials
    receipt: str
    ballot: Ballot


@dataclass(slots=True)
class LedgerEntry:
    """One manipulated vote: the attacker ballot was counted for `voter_id`."""

    voter_id: str
    strategy: str
    cast_time: int
    masked: bool = False


@dataclass
class AttackerState:
    """Shared adversary memory. The manipulation ledger, one entry per
    voter in the order the votes were manipulated, is authoritative
    ground truth for every detection number.
    """

    # the first harvested vote for each ballot
    clash_pool: dict[Ballot, PoolEntry] = field(default_factory=dict)
    manipulation_ledger: dict[str, LedgerEntry] = field(default_factory=dict)
    # victim -> the pooled vote whose credentials and receipt it was handed
    clash_victims: dict[str, PoolEntry] = field(default_factory=dict)
    harvest_targets: set[str] = field(default_factory=set)

    def charge(self, entry: LedgerEntry) -> None:
        """Charge one manipulated vote; a voter is charged at most once."""
        if entry.voter_id in self.manipulation_ledger:
            raise AttackError(f"{entry.voter_id} is already ledgered")
        self.manipulation_ledger[entry.voter_id] = entry


# --- in-browser rewrite strategies (hooks on the client casting step) ---

def _claimable(intent: CastIntent) -> bool:
    """A cast no earlier strategy has claimed, in a compromised session."""
    return intent.handled_by is None and intent.compromised


def _claim(state: AttackerState, intent: CastIntent, attacker_ballot: Ballot,
           strategy: str, **changes) -> Decision:
    """Ledger the swap and submit the attacker ballot in place of the
    voter's.
    """
    state.charge(LedgerEntry(
        voter_id=intent.voter_id, strategy=strategy, cast_time=intent.cast_time,
    ))
    return Decision.modify(replace(intent, ballot=attacker_ballot,
                                   handled_by=strategy, **changes))


def inject_vote_rewrite(
    state: AttackerState,
    intent: CastIntent,
    attacker_ballot: Ballot,
    strategy: str = "vote_rewrite",
) -> Decision:
    """Swap the ballot before encryption and exfiltrate intent plus
    credentials. Needs a compromised session with recovered keys and a
    cast no earlier strategy has already claimed; anything else is
    forwarded untouched.
    """
    if not _claimable(intent):
        return Decision.forward()
    return _claim(state, intent, attacker_ballot, strategy)


def last_minute_rewrite(
    state: AttackerState,
    intent: CastIntent,
    attacker_ballot: Ballot,
    polls_close: int,
    safety_window: int,
) -> Decision:
    """Rewrite only votes cast inside the window before the deadline; the
    read-back service will be gone before those voters can call it.
    """
    if intent.cast_time < polls_close - safety_window:
        return Decision.forward()
    return inject_vote_rewrite(state, intent, attacker_ballot, strategy="last_minute")


def delay_receipt_gambit(
    state: AttackerState,
    intent: CastIntent,
    attacker_ballot: Ballot,
    p_leave_without_receipt: float,
    rng: Random,
) -> Decision:
    """Stall the receipt display. A voter who leaves never sees a receipt,
    so the fraudulent vote can never be verified or even looked up; a
    voter who waits gets the genuine vote and the real receipt. Either
    way the gambit claims the cast: once the attacker has chosen to give
    up on a waiter, a later strategy rewriting it anyway would hand the
    voter the very detection chance the gambit avoided.
    """
    if not _claimable(intent):
        return Decision.forward()
    if rng.random() < p_leave_without_receipt:
        return _claim(state, intent, attacker_ballot, "receipt_delay",
                      show_receipt=False)
    return Decision.modify(replace(intent, show_receipt=True,
                                   handled_by="receipt_delay"))


def fake_verification_redirect(
    state: AttackerState,
    call: VerifyCall,
    attacker_ivr: str,
    dials_genuine: bool,
) -> Decision:
    """Send a manipulated voter's verify call to the attacker's IVR, which
    reads back the voter's own intent. Voters who dial the genuine number
    anyway stay on the honest path.
    """
    entry = state.manipulation_ledger.get(call.voter_id)
    if entry is None or dials_genuine:
        return Decision.forward()
    entry.masked = True
    return Decision.modify(call, dst=attacker_ivr)


# --- the clash registration front ---

def clash_register(state: AttackerState, voter_id: str,
                   predicted: Ballot) -> Optional[PoolEntry]:
    """Pool lookup on the attacker's look-alike registration site, made
    after the victim's real entitlement is registered with an
    attacker-assigned PIN.

    On a hit the victim is handed a previous like-minded voter's pooled
    vote: its credentials and receipt, so every check the victim makes
    agrees with their intent exactly when the prediction was right. On a
    miss the victim keeps the real credentials and is watched, so the
    eventual vote can be harvested into the pool.
    """
    entry = state.clash_pool.get(predicted)
    if entry is not None:
        state.clash_victims[voter_id] = entry
    else:
        state.harvest_targets.add(voter_id)
    return entry


def clash_note_cast(state: AttackerState, voter_id: str, credentials: Credentials,
                    receipt: str, ballot: Ballot) -> None:
    """Harvest a watched voter's completed cast into the clash pool, keyed
    by the ballot actually cast (for a fixed manifest, equal ballots are
    exactly equal encodings). The first vote harvested for a ballot is the
    one handed out.
    """
    if voter_id in state.harvest_targets and ballot not in state.clash_pool:
        state.clash_pool[ballot] = PoolEntry(credentials=credentials,
                                             receipt=receipt, ballot=ballot)


def clash_suppress_cast(state: AttackerState, intent: CastIntent) -> Decision:
    """Client-side arm of the clash attack: a victim holding reused
    credentials must never reach the real voting server (a second cast on
    the pooled login would expose the reuse). The compromised client
    swallows the cast and displays the pooled receipt; the ledger charges
    the attacker ballot cast on the victim's entitlement.
    """
    pooled = state.clash_victims.get(intent.voter_id)
    if pooled is None or intent.handled_by is not None:
        return Decision.forward()
    state.charge(LedgerEntry(
        voter_id=intent.voter_id, strategy="clash", cast_time=intent.cast_time,
        masked=(intent.ballot == pooled.ballot),
    ))
    return Decision.modify(replace(intent, suppress_submit=True, handled_by="clash"))


# --- the browser tap (composition with the event network) ---

def make_browser_tap(
    name: str,
    decide: Callable[[CastIntent], Decision],
    exfiltrate: bool,
) -> MitmTap:
    """Injected client-side code on the casting step: `decide` sees each
    plaintext CastIntent; when `exfiltrate` is set, every cast it modifies
    also phones the voter's intent and credentials home.
    """
    def handler(event: Event, sim: Simulator) -> Decision:
        intent = event.payload
        decision = decide(intent)
        if exfiltrate and decision.kind == "modify":
            sim.schedule(event.time, event.src, "attacker-c2", C2Exfil(
                voter_id=intent.voter_id,
                credentials=intent.credentials,
                intended=intent.ballot,
            ))
        return decision

    return MitmTap(name=name, dst="browser", handler=handler)
