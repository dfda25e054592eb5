"""Typed payloads carried by network events.

Everything that crosses a tap point is one of these. Each payload renders
its own trace token in `trace_text()`: the class name and its fields as
`k=v` in sorted key order, values as str, int or bool, bytes as a hex
prefix. That keeps trace lines stable and seed-reproducible (no object
reprs, no addresses).
"""

from dataclasses import dataclass
from typing import Optional

from .ballots import Ballot
from .election import Credentials, VoteChannel


@dataclass(slots=True)
class RegistrationRequest:
    voter_id: str
    channel: VoteChannel

    def trace_text(self) -> str:
        return f"RegistrationRequest(channel={self.channel.value},voter={self.voter_id})"


@dataclass(slots=True)
class RegistrationReply:
    voter_id: str
    credentials: Credentials

    def trace_text(self) -> str:
        return f"RegistrationReply(login={self.credentials.login_id},voter={self.voter_id})"


@dataclass(slots=True)
class CastIntent:
    """Client-side casting step, before the envelope is sealed. Taps on
    the browser endpoint model injected in-browser code: they see and may
    replace the ballot while it is still plaintext.
    """

    voter_id: str
    credentials: Credentials
    ballot: Ballot
    cast_time: int
    channel: VoteChannel
    compromised: bool = False  # the adversary holds this voter's session
    show_receipt: bool = True
    suppress_submit: bool = False
    handled_by: Optional[str] = None  # first strategy to claim this cast wins

    def trace_text(self) -> str:
        return (f"CastIntent(compromised={self.compromised},"
                f"t={self.cast_time},voter={self.voter_id})")


@dataclass(slots=True)
class CastTrigger:
    """Self-addressed wake-up that starts a voter's casting flow once
    credentials and session state are current.
    """

    voter_id: str

    def trace_text(self) -> str:
        return f"CastTrigger(voter={self.voter_id})"


@dataclass(slots=True)
class CastSubmission:
    """The plaintext of a web cast's record on its way to the voting
    server; it travels only inside a SecureRecord, so it renders no trace
    token. `envelope` is the envelope's wire bytes, stored as they arrive;
    only its openers parse it.
    """

    voter_id: str
    credentials: Credentials
    envelope: bytes
    channel: VoteChannel

    def to_bytes(self) -> bytes:
        head = "|".join([self.voter_id, self.credentials.login_id,
                         self.credentials.pin, self.channel.value]).encode()
        return len(head).to_bytes(2, "big") + head + self.envelope

    @classmethod
    def from_bytes(cls, data: bytes) -> "CastSubmission":
        n = int.from_bytes(data[:2], "big")
        head = data[2:2 + n].decode()
        voter_id, login_id, pin, channel = head.split("|")
        return cls(voter_id=voter_id,
                   credentials=Credentials(login_id=login_id, pin=pin),
                   envelope=data[2 + n:], channel=VoteChannel(channel))


@dataclass(slots=True)
class SecureRecord:
    """Ciphertext record on an HTTPS path. Taps see only this; flipping
    bits without the session key trips the record MAC at the receiver.
    """

    session_id: str
    seq: int
    blob: bytes

    def trace_text(self) -> str:
        return (f"SecureRecord(blob={self.blob[:8].hex()},seq={self.seq},"
                f"session={self.session_id})")


@dataclass(slots=True)
class PhoneCast:
    """Phone-channel vote: choices travel in the clear over the voice line
    and the voice server builds the envelope itself.
    """

    voter_id: str
    credentials: Credentials
    ballot: Ballot

    def trace_text(self) -> str:
        return f"PhoneCast(login={self.credentials.login_id},voter={self.voter_id})"


@dataclass(slots=True)
class VerifyCall:
    voter_id: str
    login_id: str
    pin: str
    receipt: str
    caller_id: Optional[str] = None

    def trace_text(self) -> str:
        return f"VerifyCall(login={self.login_id},voter={self.voter_id})"


@dataclass(slots=True)
class ReceiptQuery:
    voter_id: str
    receipt: str

    def trace_text(self) -> str:
        return f"ReceiptQuery(receipt={self.receipt},voter={self.voter_id})"


@dataclass(slots=True)
class C2Exfil:
    """Stolen credentials plus the intended vote, phoning home."""

    voter_id: str
    credentials: Credentials
    intended: Ballot

    def trace_text(self) -> str:
        return f"C2Exfil(login={self.credentials.login_id},voter={self.voter_id})"


@dataclass(slots=True)
class ThirdPartyFetch:
    """The background resource load that drags a weak third-party TLS
    endpoint into every voting session.
    """

    voter_id: str
    patched_client: bool

    def trace_text(self) -> str:
        return f"ThirdPartyFetch(patched={self.patched_client},voter={self.voter_id})"
