"""Deterministic discrete-event network with man-in-the-middle tap points.

Endpoints are named; a name ending in "*" (e.g. "voter*") owns every
endpoint name that starts with the part before the star. Events are
delivered in nondecreasing time order with insertion order breaking
ties, so a full trace is a pure function of (scenario, seed).

Events known before the run need not sit in the queue: `reserve` claims
their seqs up front and `feed` hands the loop an iterator that makes
them, one queue entry per feed, each event built only when the one
before it is popped. Seqs and delivery order are those of scheduling
every event before the run.

Taps are the adversary surface: a tap watches the events sent to one
endpoint (its `dst`) and maps each to a decision, forward it or modify
it, optionally re-routing it to another endpoint. The taps on an endpoint
compose in installation order; later taps see earlier modifications. A
re-routed event goes straight to its new endpoint: neither the rest of
the old endpoint's taps nor the new endpoint's taps see it.

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


TRACE_CHUNK_LINES = 512


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

    def __init__(self, kind: str, payload: Any = None, dst: Optional[str] = None):
        self.kind = kind
        self.payload = payload
        self.dst = dst

    @classmethod
    def forward(cls) -> "Decision":
        return cls("forward")

    @classmethod
    def modify(cls, payload: Any, dst: Optional[str] = None) -> "Decision":
        """Substitute the payload; optionally re-route to another endpoint."""
        return cls("modify", payload=payload, dst=dst)


@dataclass
class MitmTap:
    name: str
    dst: str  # the one endpoint whose incoming events the tap sees
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
    """Single-threaded event loop; each event carries its own virtual time."""

    def __init__(self):
        # heap on (time, seq); a feed's next event carries its feed as a 4th item
        self._queue: list[tuple] = []
        self._seq = 0
        self._unmade = 0  # reserved seqs whose events no feed has made yet
        self._taps: dict[str, list[MitmTap]] = {}  # dst -> its taps, in order
        self.endpoints: dict[str, Endpoint] = {}
        self._families: list[tuple[str, Endpoint]] = []  # (name prefix, owner)
        self._open_lines: list[str] = []  # trace lines of the chunk not yet sealed
        self._chunks: list[bytes] = []  # each sealed chunk's file text, compressed
        self._trace_hash = hashlib.sha256()
        self.finalized = False
        self.counters = {"scheduled": 0, "delivered": 0}

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
        self._taps.setdefault(tap.dst, []).append(tap)

    # --- scheduling and delivery ---

    def schedule(self, time: int, src: str, dst: str, payload: Any) -> Event:
        if self.finalized:
            raise SchedulingAfterFinalize("simulator already finalized")
        event = Event(time=time, src=src, dst=dst, payload=payload, seq=self._seq)
        self._seq += 1
        self.counters["scheduled"] += 1
        self._push((event.time, event.seq, event))
        return event

    def reserve(self, count: int) -> int:
        """Claim `count` consecutive seqs for events a feed makes later and
        return the first. They count as scheduled now, and as pending until
        made.
        """
        if self.finalized:
            raise SchedulingAfterFinalize("simulator already finalized")
        first = self._seq
        self._seq += count
        self.counters["scheduled"] += count
        self._unmade += count
        return first

    def feed(self, events: Iterator[Event]) -> None:
        """Queue a stream of events with reserved seqs, given in (time, seq)
        order. Only the stream's next event is queued; `run_all` makes the
        one after it when it pops that event.
        """
        if self.finalized:
            raise SchedulingAfterFinalize("simulator already finalized")
        self._queue_next(iter(events), None)

    def _queue_next(self, events: Iterator[Event], last: Optional[Event]) -> None:
        event = next(events, None)
        if event is None:
            return
        if self._unmade == 0:
            raise NetsimError(f"feed made more events than were reserved: {event}")
        if last is not None and (event.time, event.seq) <= (last.time, last.seq):
            raise NetsimError(f"feed out of (time, seq) order: {event} after {last}")
        self._unmade -= 1
        self._push((event.time, event.seq, event, events))

    def _push(self, entry: tuple) -> None:
        try:
            heapq.heappush(self._queue, entry)
        except TypeError:
            self._check_unique_keys()
            raise

    def _check_unique_keys(self) -> None:
        """Raise NetsimError if two queued events share one (time, seq).
        heapq then compares the events, which have no order, and raises a
        TypeError; only a feed that makes seqs it did not reserve can.
        """
        seen = set()
        for time, seq, *_ in self._queue:
            if (time, seq) in seen:
                raise NetsimError(f"two events share time {time} and seq {seq}")
            seen.add((time, seq))

    def _apply_taps(self, event: Event, taps: list[MitmTap]) -> tuple[Event, list[str]]:
        """Run an endpoint's taps in order; returns the event to deliver and
        the names of the taps that modified it, as trace notes.
        """
        notes = []
        for tap in taps:
            decision = tap.handler(event, self)
            if decision is None or decision.kind == Decision.FORWARD:
                continue
            event = Event(time=event.time, src=event.src,
                          dst=decision.dst or event.dst,
                          payload=decision.payload, seq=event.seq)
            notes.append(f"modified:{tap.name}")
            if event.dst != tap.dst:
                break
        return event, notes

    def _trace(self, event: Event, notes: list[str]) -> None:
        note = ";".join(notes) if notes else "-"
        lines = self._open_lines
        lines.append(
            f"t={event.time:08d} seq={event.seq:06d} {event.src}->{event.dst} "
            f"deliver {describe_payload(event.payload)} {note}"
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
        queue = self._queue
        while queue:
            try:
                entry = heapq.heappop(queue)
            except TypeError:
                self._check_unique_keys()
                raise
            event = entry[2]
            if len(entry) == 4:
                self._queue_next(entry[3], event)
            taps = self._taps.get(event.dst)
            notes = []
            if taps:
                event, notes = self._apply_taps(event, taps)
            self.counters["delivered"] += 1
            self._trace(event, notes)
            handler = self.endpoint(event.dst).handler
            if handler is not None:
                handler(event, self)

    def finalize(self) -> dict[str, int]:
        """Stop accepting events and reconcile conservation: every scheduled
        event was delivered or is still pending, queued or not yet made by
        its feed.
        """
        self.finalized = True
        counts = dict(self.counters)
        counts["pending"] = len(self._queue) + self._unmade
        if counts["delivered"] + counts["pending"] != counts["scheduled"]:
            raise NetsimError(f"event conservation violated: {counts}")
        return counts


# --- the pre-TLS stripping attack ---

def make_sslstrip_tap(attacker_endpoint: str) -> MitmTap:
    """Sit on every voter's path to a plain-HTTP registration gateway and
    redirect each registration attempt to the attacker's look-alike site.
    """
    def handler(event: Event, sim: Simulator) -> Decision:
        return Decision.modify(event.payload, dst=attacker_endpoint)

    return MitmTap(name="sslstrip", dst="registration-gateway", handler=handler)
