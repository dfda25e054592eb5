"""Event ordering, endpoint families, tap composition, and the stripping tap."""

from dataclasses import dataclass

import pytest

from votesim.minitls import RecordTampered, decrypt_record, encrypt_record
from votesim.netsim import (
    Decision,
    Endpoint,
    Event,
    MitmTap,
    NetsimError,
    SchedulingAfterFinalize,
    Simulator,
    make_sslstrip_tap,
)


@dataclass
class Ping:
    tag: str

    def trace_fields(self):
        return {"tag": self.tag}


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


class TestTaps:
    def test_drop_all_traffic(self):
        sim, received = make_sim()
        sim.install_tap(MitmTap("blackhole",
                                matcher=lambda s, d: d == "cvs",
                                handler=lambda e, s: Decision.drop()))
        for i in range(5):
            sim.schedule(i, "voter1", "cvs", Ping(str(i)))
        sim.run_all()
        assert received == []
        counts = sim.finalize()
        assert counts["dropped"] == 5
        assert counts["delivered"] == 0

    def test_modify_taps_compose_in_install_order(self):
        sim, received = make_sim()

        def suffix(tag):
            def handler(event, s):
                return Decision.modify(Ping(event.payload.tag + tag))
            return handler

        sim.install_tap(MitmTap("one", lambda s, d: d == "cvs", suffix("-one")))
        sim.install_tap(MitmTap("two", lambda s, d: d == "cvs", suffix("-two")))
        sim.schedule(0, "voter1", "cvs", Ping("msg"))
        sim.run_all()
        assert received[0].payload.tag == "msg-one-two"

    def test_matcher_scoping(self):
        sim, received = make_sim()
        sim.install_tap(MitmTap("scoped",
                                matcher=lambda s, d: d == "piwik",
                                handler=lambda e, s: Decision.drop()))
        sim.schedule(0, "voter1", "cvs", Ping("through"))
        sim.schedule(1, "voter1", "piwik", Ping("eaten"))
        sim.run_all()
        assert [e.payload.tag for e in received] == ["through"]

    def test_inject_replaces_original(self):
        sim, received = make_sim()

        def splitter(event, s):
            return Decision.inject([
                Event(time=event.time, src=event.src, dst="cvs", payload=Ping("a")),
                Event(time=event.time, src=event.src, dst="cvs", payload=Ping("b")),
            ])

        sim.install_tap(MitmTap("split", lambda s, d: d == "piwik", splitter))
        sim.schedule(0, "voter1", "piwik", Ping("orig"))
        sim.run_all()
        assert sorted(e.payload.tag for e in received) == ["a", "b"]
        counts = sim.finalize()
        assert counts["scheduled"] == 3  # original + two injected
        assert counts["replaced"] == 1
        assert counts["delivered"] == 2

    def test_conservation_with_pending(self):
        sim, _ = make_sim()
        sim.schedule(0, "voter1", "cvs", Ping("now"))
        sim.run_all()
        sim.schedule(100, "voter1", "cvs", Ping("later"))
        counts = sim.finalize()
        assert counts == {"scheduled": 2, "delivered": 1, "dropped": 0,
                          "replaced": 0, "pending": 1}


class TestDeterminism:
    def build_and_run(self):
        sim, received = make_sim()
        sim.install_tap(MitmTap("noise",
                                matcher=lambda s, d: d == "piwik",
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

    def test_only_voter_registrations_are_redirected(self):
        sim, reg_seen, atk_seen = self.make()
        sim.schedule(0, "fraud:voter1", "registration-gateway", Ping("r"))
        sim.schedule(1, "voter1", "attacker-registration", Ping("direct"))
        sim.run_all()
        assert [e.payload.tag for e in reg_seen] == ["r"]
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
            "bitflip", lambda s, d: d == "cvs",
            lambda e, s: Decision.modify(bytes([e.payload[0] ^ 1]) + e.payload[1:])))
        for i in range(10):
            sim.schedule(i, "voter1", "cvs", encrypt_record(key, 0, b"ballot"))
        sim.run_all()
        assert len(failures) == 10
