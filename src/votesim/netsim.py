"""Deterministic discrete-event network with man-in-the-middle tap points.

Endpoints are named; a name ending in "*" (e.g. "voter*") owns every
endpoint name that starts with the part before the star. Events are
delivered in nondecreasing time order with insertion order breaking
ties, so a full trace is a pure function of (scenario, seed).

Taps are the adversary surface: a tap matches a (src, dst) pair and maps
each event to a decision — forward it, modify it (optionally re-routing
it to a different endpoint), drop it, or replace it with injected events.
Taps compose in installation order; later taps see earlier modifications.

Channel security is not a netsim concept. Encrypted records are payloads
like any other, so a tap that flips their bits without the session key
makes the receiver raise `RecordTampered`, which aborts the run, rather
than a silent change.
The stripping tap that redirects plain-HTTP registrations is installed
by the engine with the clash attack (`attacks.clash.enabled`).

The trace is kept as zlib-compressed chunks of its file text, and each
chunk's bytes go to a running sha256 as the chunk is sealed, so a run
holds at most `TRACE_CHUNK_LINES` lines as strings.
"""

import hashlib
import heapq
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional


TRACE_CHUNK_LINES = 4096


class NetsimError(Exception):
    pass


class SchedulingAfterFinalize(NetsimError):
    pass


@dataclass
class Endpoint:
    """Named network participant; a trailing "*" makes it a family."""

    name: str
    handler: Optional[Callable[["Event", "Simulator"], None]] = None


# --- events and decisions ---

@dataclass(slots=True)
class Event:
    time: int
    src: str
    dst: str
    payload: Any
    seq: int = -1


class Decision:
    """Tap verdict on one event."""

    FORWARD = "forward"
    DROP = "drop"

    def __init__(self, kind: str, payload: Any = None, dst: Optional[str] = None,
                 events: Optional[list[Event]] = None):
        self.kind = kind
        self.payload = payload
        self.dst = dst
        self.events = events or []

    @classmethod
    def forward(cls) -> "Decision":
        return cls("forward")

    @classmethod
    def modify(cls, payload: Any, dst: Optional[str] = None) -> "Decision":
        """Substitute the payload; optionally re-route to another endpoint."""
        return cls("modify", payload=payload, dst=dst)

    @classmethod
    def drop(cls) -> "Decision":
        return cls("drop")

    @classmethod
    def inject(cls, events: list[Event]) -> "Decision":
        """Replace this event with the given ones (include a copy of the
        original to keep it).
        """
        return cls("inject", events=events)


@dataclass
class MitmTap:
    name: str
    matcher: Callable[[str, str], bool]
    handler: Callable[[Event, "Simulator"], Decision]


def describe_payload(payload: Any) -> str:
    """Stable single-token description for trace lines: the payload's own
    trace_text(), or its class name when it has none (never repr, which
    can leak object ids).
    """
    trace_text = getattr(payload, "trace_text", None)
    if trace_text is None:
        return type(payload).__name__
    return trace_text()


class Simulator:
    """Single-threaded event loop with a global virtual clock."""

    def __init__(self, start_time: int = 0):
        self.now = start_time
        self._queue: list[tuple[int, int, Event]] = []  # heap on (time, seq)
        self._seq = 0
        self._taps: list[MitmTap] = []
        self.endpoints: dict[str, Endpoint] = {}
        self._families: list[tuple[str, Endpoint]] = []  # (name prefix, owner)
        self._open_lines: list[str] = []  # trace lines of the chunk not yet sealed
        self._chunks: list[bytes] = []  # each sealed chunk's file text, compressed
        self._trace_hash = hashlib.sha256()
        self.finalized = False
        self.counters = {"scheduled": 0, "delivered": 0, "dropped": 0, "replaced": 0}

    # --- topology ---

    def add_endpoint(self, endpoint: Endpoint) -> Endpoint:
        if endpoint.name in self.endpoints:
            raise NetsimError(f"duplicate endpoint {endpoint.name}")
        self.endpoints[endpoint.name] = endpoint
        if endpoint.name.endswith("*"):
            self._families.append((endpoint.name[:-1], endpoint))
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        ep = self.endpoints.get(name)
        if ep is None:
            # voters and other families are served by their "*" owner
            for prefix, family in self._families:
                if name.startswith(prefix):
                    return family
            raise NetsimError(f"unknown endpoint {name}")
        return ep

    # --- taps ---

    def install_tap(self, tap: MitmTap) -> None:
        self._taps.append(tap)

    # --- scheduling and delivery ---

    def schedule(self, time: int, src: str, dst: str, payload: Any) -> Event:
        if self.finalized:
            raise SchedulingAfterFinalize("simulator already finalized")
        event = Event(time=time, src=src, dst=dst, payload=payload, seq=self._seq)
        self._seq += 1
        self.counters["scheduled"] += 1
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def _apply_taps(self, event: Event) -> tuple[Optional[Event], list[str]]:
        """Run the matching taps in order; returns the event to deliver
        (None when a tap dropped or replaced it) and the taps' trace notes.
        """
        notes = []
        for tap in self._taps:
            if not tap.matcher(event.src, event.dst):
                continue
            decision = tap.handler(event, self)
            if decision is None or decision.kind == Decision.FORWARD:
                continue
            if decision.kind == "modify":
                event = Event(time=event.time, src=event.src,
                              dst=decision.dst or event.dst,
                              payload=decision.payload, seq=event.seq)
                notes.append(f"modified:{tap.name}")
                continue
            if decision.kind == Decision.DROP:
                self.counters["dropped"] += 1
                self._trace(event, "drop", notes + [f"dropped:{tap.name}"])
                return None, notes
            if decision.kind == "inject":
                self.counters["replaced"] += 1
                self._trace(event, "replace", notes + [f"replaced:{tap.name}"])
                for injected in decision.events:
                    self.schedule(injected.time, injected.src, injected.dst,
                                  injected.payload)
                return None, notes
            raise NetsimError(f"unknown decision {decision.kind}")
        return event, notes

    def _trace(self, event: Event, status: str, notes: list[str]) -> None:
        note = ";".join(notes) if notes else "-"
        lines = self._open_lines
        lines.append(
            f"t={event.time:08d} seq={event.seq:06d} {event.src}->{event.dst} "
            f"{status} {describe_payload(event.payload)} {note}"
        )
        if len(lines) >= TRACE_CHUNK_LINES:
            self._seal_chunk()

    def _seal_chunk(self) -> None:
        """Hash and compress the open chunk's file text. The digest covers
        the bytes alone, so where chunks break never changes it.
        """
        if not self._open_lines:
            return
        text = ("\n".join(self._open_lines) + "\n").encode()
        self._trace_hash.update(text)
        self._chunks.append(zlib.compress(text, 1))
        self._open_lines.clear()

    def trace_digest(self) -> str:
        """sha256 of the trace file's bytes so far."""
        self._seal_chunk()
        return self._trace_hash.hexdigest()

    def iter_trace_text(self) -> Iterator[str]:
        """The trace file's text so far, every line ended by a newline, one
        chunk at a time, so writing it never holds the whole trace.
        """
        self._seal_chunk()
        for chunk in self._chunks:
            yield zlib.decompress(chunk).decode()

    @property
    def trace(self) -> list[str]:
        """Every trace line so far, decompressed into a new list."""
        return [line for text in self.iter_trace_text() for line in text[:-1].split("\n")]

    def run_all(self) -> None:
        """Deliver every pending event, and every event a handler or tap
        schedules meanwhile, in time order.
        """
        while self._queue:
            event = heapq.heappop(self._queue)[2]
            self.now = max(self.now, event.time)
            final, notes = self._apply_taps(event)
            if final is None:
                continue
            self.counters["delivered"] += 1
            self._trace(final, "deliver", notes)
            handler = self.endpoint(final.dst).handler
            if handler is not None:
                handler(final, self)

    def finalize(self) -> dict[str, int]:
        """Stop accepting events and reconcile conservation: every scheduled
        event was delivered, dropped, replaced, or is still pending.
        """
        self.finalized = True
        pending = len(self._queue)
        counts = dict(self.counters)
        counts["pending"] = pending
        if counts["delivered"] + counts["dropped"] + counts["replaced"] + pending \
                != counts["scheduled"]:
            raise NetsimError(f"event conservation violated: {counts}")
        return counts


# --- the pre-TLS stripping attack ---

def make_sslstrip_tap(attacker_endpoint: str) -> MitmTap:
    """Sit on every voter's path to a plain-HTTP registration gateway and
    redirect each registration attempt to the attacker's look-alike site.
    """
    def matcher(src: str, dst: str) -> bool:
        return src.startswith("voter") and dst == "registration-gateway"

    def handler(event: Event, sim: Simulator) -> Decision:
        return Decision.modify(event.payload, dst=attacker_endpoint)

    return MitmTap(name="sslstrip", matcher=matcher, handler=handler)
