"""Event ordering, endpoint families, tap composition, the trace store,
and the stripping tap."""

import hashlib
from dataclasses import dataclass

import pytest

from votesim import netsim
from votesim.ballots import Ballot, CouncilMode
from votesim.election import Credentials, VoteChannel
from votesim.envelope import DigitalEnvelope
from votesim.messages import (
    C2Exfil,
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
from votesim.minitls import RecordTampered, decrypt_record, encrypt_record
from votesim.netsim import (
    TRACE_CHUNK_LINES,
    Decision,
    Endpoint,
    Event,
    MitmTap,
    NetsimError,
    SchedulingAfterFinalize,
    Simulator,
    describe_payload,
    make_sslstrip_tap,
)


@dataclass
class Ping:
    tag: str

    def trace_text(self):
        return f"Ping(tag={self.tag})"


def collector(sink):
    def handler(event, sim):
        sink.append(event)
    return handler


def make_sim():
    sim = Simulator()
    received = []
    sim.add_endpoint(Endpoint("cvs", handler=collector(received)))
    sim.add_endpoint(Endpoint("piwik", handler=collector(received)))
    sim.add_endpoint(Endpoint("voter*"))
    return sim, received


class TestOrdering:
    def test_equal_time_delivered_in_insertion_order(self):
        sim, received = make_sim()
        sim.schedule(10, "voter1", "cvs", Ping("first"))
        sim.schedule(10, "voter2", "cvs", Ping("second"))
        sim.schedule(5, "voter3", "cvs", Ping("earlier"))
        sim.run_all()
        assert [e.payload.tag for e in received] == ["earlier", "first", "second"]

    def test_run_all_resumes_with_later_events(self):
        sim, received = make_sim()
        sim.schedule(1, "voter1", "cvs", Ping("a"))
        sim.schedule(100, "voter1", "cvs", Ping("b"))
        sim.run_all()
        assert [e.payload.tag for e in received] == ["a", "b"]
        sim.schedule(150, "voter1", "cvs", Ping("c"))
        sim.run_all()
        assert [e.payload.tag for e in received] == ["a", "b", "c"]

    def test_handler_scheduled_events_delivered(self):
        sim = Simulator()
        log = []

        def relay(event, s):
            log.append(event.payload.tag)
            if event.payload.tag == "start":
                s.schedule(event.time, "cvs", "cvs", Ping("chained"))

        sim.add_endpoint(Endpoint("cvs", handler=relay))
        sim.schedule(0, "x", "cvs", Ping("start"))
        sim.run_all()
        assert log == ["start", "chained"]

    def test_family_owner_serves_every_prefixed_name(self):
        sim, _ = make_sim()
        voters = sim.endpoints["voter*"]
        assert sim.endpoint("voter00042") is voters
        assert sim.endpoint("voter") is voters
        assert sim.endpoint("cvs") is sim.endpoints["cvs"]
        for name in ("fraud:voter1", "cvs2", "Voter1"):
            with pytest.raises(NetsimError):
                sim.endpoint(name)

    def test_scheduling_after_finalize(self):
        sim, _ = make_sim()
        sim.finalize()
        with pytest.raises(SchedulingAfterFinalize):
            sim.schedule(0, "voter1", "cvs", Ping("late"))


class TestFeed:
    """Events made on demand from reserved seqs are delivered and traced
    exactly as the same events scheduled before the run.
    """

    TIMES = [3, 0, 3, 1, 3, 0]  # voter k's time: ties within and across feeds

    def run(self, fed):
        sim = Simulator()
        received = []

        def cvs(event, s):
            received.append(event.payload.tag)
            # handler events tie with fed ones that are still to come
            s.schedule(event.time + 1, "cvs", "piwik", Ping(event.payload.tag + "-echo"))

        sim.add_endpoint(Endpoint("cvs", handler=cvs))
        sim.add_endpoint(Endpoint("piwik", handler=lambda e, s: received.append(e.payload.tag)))
        sim.add_endpoint(Endpoint("voter*"))
        kinds = (("r", "cvs"), ("q", "piwik"))
        n, per = len(self.TIMES), len(kinds)
        if fed:
            first = sim.reserve(per * n)
            order = sorted(range(n), key=self.TIMES.__getitem__)

            def feed(j, tag, dst):
                for k in order:
                    yield Event(self.TIMES[k] + j, f"voter{k}", dst, Ping(f"{tag}{k}"),
                                first + per * k + j)

            for j, (tag, dst) in enumerate(kinds):
                sim.feed(feed(j, tag, dst))
        else:
            for k, time in enumerate(self.TIMES):
                for j, (tag, dst) in enumerate(kinds):
                    sim.schedule(time + j, f"voter{k}", dst, Ping(f"{tag}{k}"))
        sim.schedule(2, "voter9", "piwik", Ping("late"))
        sim.run_all()
        return received, sim.trace, sim.trace_digest(), sim.finalize()

    def test_fed_events_delivered_and_traced_as_scheduled_ones(self):
        fed, upfront = self.run(fed=True), self.run(fed=False)
        assert fed == upfront
        received, trace, _, counts = fed
        assert len(received) == len(trace) == 3 * len(self.TIMES) + 1
        assert counts == {"scheduled": 19, "delivered": 19, "pending": 0}

    def test_unmade_events_count_as_pending(self):
        sim, received = make_sim()
        first = sim.reserve(4)
        sim.feed(Event(t, "voter1", "cvs", Ping(f"a{t}"), first + t) for t in range(2))
        sim.feed(Event(t, "voter2", "piwik", Ping(f"b{t}"), first + 2 + t) for t in range(2))
        sim.schedule(5, "voter3", "cvs", Ping("queued"))
        assert sim.finalize() == {"scheduled": 5, "delivered": 0, "pending": 5}
        assert received == []

    def test_reserved_seqs_come_before_later_ones(self):
        sim, _ = make_sim()
        assert sim.reserve(3) == 0
        assert sim.schedule(0, "voter1", "cvs", Ping("next")).seq == 3
        assert sim.reserve(2) == 4

    def test_reserve_and_feed_after_finalize(self):
        sim, _ = make_sim()
        sim.finalize()
        with pytest.raises(SchedulingAfterFinalize):
            sim.reserve(1)
        with pytest.raises(SchedulingAfterFinalize):
            sim.feed(iter(()))

    def test_feed_out_of_order_raises(self):
        sim, _ = make_sim()
        first = sim.reserve(2)
        sim.feed(iter([Event(5, "voter1", "cvs", Ping("a"), first),
                       Event(4, "voter1", "cvs", Ping("b"), first + 1)]))
        with pytest.raises(NetsimError, match="order"):
            sim.run_all()

    def test_feed_beyond_its_reservation_raises(self):
        sim, _ = make_sim()
        first = sim.reserve(1)
        sim.feed(iter([Event(0, "voter1", "cvs", Ping("a"), first),
                       Event(1, "voter1", "cvs", Ping("b"), first + 1)]))
        with pytest.raises(NetsimError, match="reserved"):
            sim.run_all()

    def test_feeds_sharing_a_time_and_seq_raise(self):
        # the second feed's first event lands on the first feed's
        sim, _ = make_sim()
        first = sim.reserve(2)
        sim.feed(iter([Event(5, "voter1", "cvs", Ping("a"), first)]))
        with pytest.raises(NetsimError, match=f"time 5 and seq {first}$"):
            sim.feed(iter([Event(5, "voter2", "cvs", Ping("b"), first)]))

    def test_a_clash_found_while_popping_raises(self):
        # the two clashing events sit under an earlier one and first meet
        # when it is popped
        sim, _ = make_sim()
        first = sim.reserve(3)
        for time, tag, seq in ((0, "a", first + 2), (5, "b", first), (5, "c", first)):
            sim.feed(iter([Event(time, "voter1", "cvs", Ping(tag), seq)]))
        with pytest.raises(NetsimError, match=f"time 5 and seq {first}$"):
            sim.run_all()

    def test_events_keep_slots(self):
        # a run holds one Event per queued or fed-and-pending event
        assert not hasattr(Event(0, "voter1", "cvs", None), "__dict__")


class TestTaps:
    def test_modify_taps_compose_in_install_order(self):
        sim, received = make_sim()

        def suffix(tag):
            def handler(event, s):
                return Decision.modify(Ping(event.payload.tag + tag))
            return handler

        sim.install_tap(MitmTap("one", "cvs", suffix("-one")))
        sim.install_tap(MitmTap("two", "cvs", suffix("-two")))
        sim.schedule(0, "voter1", "cvs", Ping("msg"))
        sim.run_all()
        assert received[0].payload.tag == "msg-one-two"

    def test_trace_notes_name_only_the_modifying_taps(self):
        # forward() and a None verdict both pass the event on unnamed
        sim, received = make_sim()
        sim.install_tap(MitmTap("pass", "cvs", lambda e, s: Decision.forward()))
        sim.install_tap(MitmTap("one", "cvs", lambda e, s: Decision.modify(Ping("1"))))
        sim.install_tap(MitmTap("silent", "cvs", lambda e, s: None))
        sim.install_tap(MitmTap("two", "cvs", lambda e, s: Decision.modify(Ping("2"))))
        sim.schedule(0, "voter1", "cvs", Ping("msg"))
        sim.run_all()
        assert [e.payload.tag for e in received] == ["2"]
        assert sim.trace == [
            "t=00000000 seq=000000 voter1->cvs deliver Ping(tag=2) "
            "modified:one;modified:two",
        ]

    def test_tap_scoped_to_its_endpoint(self):
        sim, received = make_sim()
        sim.install_tap(MitmTap("scoped", dst="piwik",
                                handler=lambda e, s: Decision.modify(Ping("seen"))))
        sim.schedule(0, "voter1", "cvs", Ping("through"))
        sim.schedule(1, "voter1", "piwik", Ping("tapped"))
        sim.run_all()
        assert [e.payload.tag for e in received] == ["through", "seen"]
        assert sim.trace[0].endswith(" -")
        assert sim.trace[1].endswith(" modified:scoped")

    def test_tap_never_called_for_other_endpoints(self):
        sim, received = make_sim()
        calls = []

        def count(event, s):
            calls.append(event.seq)
            return Decision.forward()

        sim.install_tap(MitmTap("piwik-only", dst="piwik", handler=count))
        for i in range(10):
            sim.schedule(i, f"voter{i}", "piwik" if i % 5 == 0 else "cvs", Ping(str(i)))
        sim.schedule(10, "piwik", "voter1", Ping("reply"))
        sim.run_all()
        assert calls == [0, 5]
        assert len(received) == 10

    def test_reroute_skips_the_new_endpoints_taps(self):
        sim, received = make_sim()
        calls = []

        def on_cvs(event, s):
            calls.append(event.payload.tag)
            return Decision.modify(Ping("cvs-tap"))

        def reroute(event, s):
            return Decision.modify(Ping("moved"), dst="cvs")

        sim.install_tap(MitmTap("reroute", dst="piwik", handler=reroute))
        sim.install_tap(MitmTap("after-reroute", dst="piwik",
                                handler=lambda e, s: Decision.modify(Ping("late"))))
        sim.install_tap(MitmTap("on-cvs", dst="cvs", handler=on_cvs))
        sim.schedule(0, "voter1", "piwik", Ping("orig"))
        sim.run_all()
        assert [(e.dst, e.payload.tag) for e in received] == [("cvs", "moved")]
        assert calls == []
        assert sim.trace == [
            "t=00000000 seq=000000 voter1->cvs deliver Ping(tag=moved) modified:reroute",
        ]

    def test_conservation_with_pending(self):
        sim, _ = make_sim()
        sim.schedule(0, "voter1", "cvs", Ping("now"))
        sim.run_all()
        sim.schedule(100, "voter1", "cvs", Ping("later"))
        counts = sim.finalize()
        assert counts == {"scheduled": 2, "delivered": 1, "pending": 1}


class TestDeterminism:
    def build_and_run(self):
        sim, received = make_sim()
        sim.install_tap(MitmTap("noise",
                                dst="piwik",
                                handler=lambda e, s: Decision.modify(
                                    Ping(e.payload.tag + "!"))))
        for i in range(50):
            sim.schedule(i % 7, f"voter{i}", "piwik" if i % 3 else "cvs",
                         Ping(f"m{i}"))
        sim.run_all()
        sim.finalize()
        return sim.trace

    def test_same_build_same_trace(self):
        assert self.build_and_run() == self.build_and_run()


class TestTraceStore:
    """The simulator keeps its trace as compressed chunks, hashed as each
    is sealed; lines, file text and digest must still be one list's.
    """

    @staticmethod
    def run(events, on_deliver=None):
        sim = Simulator()
        sim.add_endpoint(Endpoint("cvs", handler=on_deliver))
        sim.add_endpoint(Endpoint("voter*"))
        for i in range(events):
            sim.schedule(i // 3, f"voter{i % 5}", "cvs", Ping(f"m{i}"))
        sim.run_all()
        return sim

    def test_digest_and_file_text_are_the_joined_lines(self):
        events = 2 * TRACE_CHUNK_LINES + 17
        sim = self.run(events)
        lines = sim.trace
        assert len(lines) == events
        assert lines[-1] == f"t={(events - 1) // 3:08d} seq={events - 1:06d} " \
                            f"voter{(events - 1) % 5}->cvs deliver Ping(tag=m{events - 1}) -"
        joined = ("\n".join(lines) + "\n").encode()
        assert sim.trace_digest() == hashlib.sha256(joined).hexdigest()
        assert "".join(sim.iter_trace_text()).encode() == joined

    def test_reading_mid_run_changes_no_line_or_digest(self, monkeypatch):
        monkeypatch.setattr(netsim, "TRACE_CHUNK_LINES", 16)
        seen = []

        def read_now_and_then(event, sim):
            if event.seq % 7 == 3:
                seen.append((event.seq, len(sim.trace)))
                sim.trace_digest()

        read = self.run(100, read_now_and_then)
        unread = self.run(100)
        # each read sees every line traced so far, its own delivery included
        assert seen and all(n == seq + 1 for seq, n in seen)
        assert read.trace == unread.trace
        assert read.trace_digest() == unread.trace_digest()

    def test_holds_at_most_one_chunk_of_lines(self):
        events = 2 * TRACE_CHUNK_LINES + 17
        held = []
        sim = self.run(events, lambda event, sim: held.append(len(sim._open_lines)))
        assert max(held) == TRACE_CHUNK_LINES - 1
        assert len(sim._open_lines) == 17
        sim.trace_digest()
        assert not sim._open_lines


CREDS = Credentials(login_id="01234567", pin="123456")
BALLOT = Ballot(("a01",), CouncilMode.ABOVE_THE_LINE, ("g01",))
ENVELOPE = DigitalEnvelope((1, 2), (3, 4), b"n" * 12, b"ct", b"t" * 16,
                           b"s" * 16).to_bytes()


class TestTraceText:
    # each expected token was rendered by the sort-and-join renderer that
    # trace_text() replaced, so the trace text, and every trace digest,
    # stays the same byte for byte
    @pytest.mark.parametrize("payload, token", [
        (RegistrationRequest("voter00001", VoteChannel.PHONE),
         "RegistrationRequest(channel=phone,voter=voter00001)"),
        (RegistrationReply("voter00001", CREDS),
         "RegistrationReply(login=01234567,voter=voter00001)"),
        (CastIntent("voter00001", CREDS, BALLOT, 3600, VoteChannel.WEB,
                    compromised=True),
         "CastIntent(compromised=True,t=3600,voter=voter00001)"),
        (CastIntent("fraud:voter00002", CREDS, BALLOT, 0, VoteChannel.WEB),
         "CastIntent(compromised=False,t=0,voter=fraud:voter00002)"),
        (CastTrigger("voter00001"), "CastTrigger(voter=voter00001)"),
        (CastSubmission("voter00001", CREDS, ENVELOPE, VoteChannel.POLLING_PLACE),
         "CastSubmission(login=01234567,voter=voter00001)"),
        (SecureRecord("cast:voter00001", 0, bytes(range(0xf0, 0x100))),
         "SecureRecord(blob=f0f1f2f3f4f5f6f7,seq=0,session=cast:voter00001)"),
        (SecureRecord("cast:voter00001", 7, b"\x00\x01\xab"),
         "SecureRecord(blob=0001ab,seq=7,session=cast:voter00001)"),
        (PhoneCast("voter00003", CREDS, BALLOT),
         "PhoneCast(login=01234567,voter=voter00003)"),
        (VerifyCall("voter00004", "07654321", "000111", "123456789012",
                    caller_id="voter00004"),
         "VerifyCall(login=07654321,voter=voter00004)"),
        (ReceiptQuery("voter00005", "000000000042"),
         "ReceiptQuery(receipt=000000000042,voter=voter00005)"),
        (C2Exfil("voter00006", CREDS, BALLOT),
         "C2Exfil(login=01234567,voter=voter00006)"),
        (ThirdPartyFetch("voter00007", True), "ThirdPartyFetch(patched=True,voter=voter00007)"),
        (ThirdPartyFetch("voter00008", False),
         "ThirdPartyFetch(patched=False,voter=voter00008)"),
        # no trace_text: the class name alone
        (CREDS, "Credentials"),
        (b"raw-bytes", "bytes"),
        (object(), "object"),
    ])
    def test_each_payload_renders_its_token(self, payload, token):
        assert describe_payload(payload) == token

    def test_trace_line_carries_the_token(self):
        sim, _ = make_sim()
        sim.schedule(3, "voter1", "cvs", Ping("x"))
        sim.schedule(4, "voter1", "cvs", b"opaque")
        sim.run_all()
        assert sim.trace == [
            "t=00000003 seq=000000 voter1->cvs deliver Ping(tag=x) -",
            "t=00000004 seq=000001 voter1->cvs deliver bytes -",
        ]


class TestSslStrip:
    def make(self):
        sim = Simulator()
        reg_seen = []
        atk_seen = []
        sim.add_endpoint(Endpoint("registration-gateway",
                                  handler=collector(reg_seen)))
        sim.add_endpoint(Endpoint("attacker-registration",
                                  handler=collector(atk_seen)))
        sim.add_endpoint(Endpoint("voter*"))
        sim.install_tap(make_sslstrip_tap("attacker-registration"))
        return sim, reg_seen, atk_seen

    def test_plain_http_redirects_to_attacker(self):
        sim, reg_seen, atk_seen = self.make()
        sim.schedule(0, "voter1", "registration-gateway", Ping("register"))
        sim.run_all()
        assert reg_seen == []
        assert len(atk_seen) == 1
        assert atk_seen[0].dst == "attacker-registration"

    def test_only_gateway_traffic_is_redirected(self):
        sim, reg_seen, atk_seen = self.make()
        sim.schedule(0, "voter1", "attacker-registration", Ping("direct"))
        sim.schedule(1, "registration-gateway", "voter1", Ping("reply"))
        sim.run_all()
        assert reg_seen == []
        assert [e.payload.tag for e in atk_seen] == ["direct"]
        assert not any("modified:sslstrip" in line for line in sim.trace)


class TestEncryptedRecords:
    def test_ciphertext_tamper_always_fails_at_receiver(self):
        # ties the network layer to the record layer: a tap flipping bits
        # in an HTTPS record without the session key can only cause a
        # failure, never a silent change
        key = b"s" * 32
        failures = []
        sim = Simulator()

        def receiver(event, s):
            try:
                decrypt_record(key, 0, event.payload)
            except RecordTampered:
                failures.append(event)

        sim.add_endpoint(Endpoint("cvs", handler=receiver))
        sim.add_endpoint(Endpoint("voter*"))
        sim.install_tap(MitmTap(
            "bitflip", "cvs",
            lambda e, s: Decision.modify(bytes([e.payload[0] ^ 1]) + e.payload[1:])))
        for i in range(10):
            sim.schedule(i, "voter1", "cvs", encrypt_record(key, 0, b"ballot"))
        sim.run_all()
        assert len(failures) == 10
