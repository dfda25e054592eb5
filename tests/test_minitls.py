"""Handshake correctness, downgrade attacks, and the cryptanalysis oracles."""

import functools
import gc
import hashlib
import math
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from downgrade_matrix import run_downgrade_matrix
from votesim.minitls import (
    DLOG_MARK_EVERY,
    DLOG_TABLE_FACTOR,
    TEMP_RSA_ROTATION_SECONDS,
    BadSignature,
    CipherSuite,
    ClientTlsConfig,
    DlogBudgetExceeded,
    FinishedMismatch,
    NoCommonSuite,
    NoSolution,
    NotFactorable,
    RecordTampered,
    RsaKey,
    ServerKeyExchange,
    TlsError,
    TlsServer,
    _LogjamInterposer,
    decrypt_record,
    dlog_individual,
    dlog_precompute,
    encrypt_record,
    factor_export_modulus,
    gen_export_dhe_params,
    gen_rsa_keypair,
    handshake,
    make_server_config,
    mitm_freak,
    mitm_logjam,
    rsa_decrypt_int,
    rsa_sign,
    rsa_verify,
    signature_oracle,
    signed_blob,
)

ALL_SUITES = frozenset({CipherSuite.RSA, CipherSuite.RSA_EXPORT,
                        CipherSuite.DHE, CipherSuite.DHE_EXPORT})


def make_server(rng=None, suites=ALL_SUITES):
    rng = rng or Random(100)
    return TlsServer(make_server_config(suites, rng))


class TestHonestHandshake:
    def test_success_picks_client_top_preference(self):
        server = make_server()
        conn = server.connect(0)
        config = ClientTlsConfig(offered_suites=(CipherSuite.RSA, CipherSuite.DHE))
        client, srv = handshake(config, conn, Random(1))
        assert client.suite is srv.suite is CipherSuite.RSA
        assert client.session_key == srv.session_key
        assert client.session_key is not None

    def test_dhe_top_preference(self):
        server = make_server()
        conn = server.connect(0)
        config = ClientTlsConfig(offered_suites=(CipherSuite.DHE, CipherSuite.RSA))
        client, srv = handshake(config, conn, Random(2))
        assert client.suite is CipherSuite.DHE
        assert client.session_key == srv.session_key

    def test_export_suites_also_work_honestly(self):
        server = make_server()
        for suite in (CipherSuite.RSA_EXPORT, CipherSuite.DHE_EXPORT):
            conn = server.connect(0)
            client, srv = handshake(ClientTlsConfig(offered_suites=(suite,)),
                                    conn, Random(3))
            assert client.suite is suite
            assert client.session_key == srv.session_key

    def test_no_common_suite(self):
        server = make_server(suites=frozenset({CipherSuite.DHE}))
        conn = server.connect(0)
        client = ClientTlsConfig(offered_suites=(CipherSuite.RSA,))
        with pytest.raises(NoCommonSuite):
            handshake(client, conn, Random(4))

    def test_mitm_bitflip_detected(self):
        # tamper oracle: replay the honest flow, mutating one message kind
        # at a time without any key compromise
        def flip_ske(direction, msg):
            if isinstance(msg, ServerKeyExchange):
                return ServerKeyExchange(kind=msg.kind, params=msg.params,
                                         signature=msg.signature ^ 0b1)
            return msg

        def flip_client_nonce(direction, msg):
            if direction == "c->s" and hasattr(msg, "suites"):
                return type(msg)(nonce=bytes([msg.nonce[0] ^ 1]) + msg.nonce[1:],
                                 suites=msg.suites)
            return msg

        def flip_finished(direction, msg):
            if hasattr(msg, "mac") and msg.side == "client":
                return type(msg)(side=msg.side,
                                 mac=bytes([msg.mac[0] ^ 1]) + msg.mac[1:])
            return msg

        def swap_cke_kind(direction, msg):
            if hasattr(msg, "payload") and hasattr(msg, "kind"):
                return type(msg)(kind="rsa" if msg.kind == "dhe" else "dhe",
                                 payload=msg.payload)
            return msg

        for channel in (flip_ske, flip_client_nonce, flip_finished,
                        swap_cke_kind):
            server = make_server()
            conn = server.connect(0)
            client = ClientTlsConfig(offered_suites=(CipherSuite.DHE,))
            with pytest.raises((BadSignature, FinishedMismatch)):
                handshake(client, conn, Random(5), channel=channel)


class TestRenegotiationAndRotation:
    def test_hundred_renegotiations_one_temp_key(self):
        server = make_server()
        conn = server.connect(0)
        rng = Random(6)
        export_only = ClientTlsConfig(offered_suites=(CipherSuite.RSA_EXPORT,))
        moduli = set()
        for _ in range(100):
            client, _ = handshake(export_only, conn, rng)
            kind, (n, _e) = client.key_material
            assert kind == "rsa_temp"
            moduli.add(n)
        assert len(moduli) == 1

    def test_rotation_across_connections(self):
        server = make_server()
        k1 = server.connect(0).pinned_temp_key
        k2 = server.connect(TEMP_RSA_ROTATION_SECONDS + 1).pinned_temp_key
        assert k1.n != k2.n

    def test_same_epoch_reuses_key(self):
        server = make_server()
        k1 = server.connect(100).pinned_temp_key
        k2 = server.connect(200).pinned_temp_key
        assert k1.n == k2.n


class TestSignatureOracle:
    def test_oracle_signature_verifies_for_victim_nonce(self):
        server = make_server()
        conn = server.connect(0)
        victim_nonce = bytes(range(16))
        server_nonce, ske = signature_oracle(conn, victim_nonce, Random(8))
        blob = signed_blob(victim_nonce, server_nonce, ske.kind, ske.params)
        assert rsa_verify(server.config.cert_key.public(), blob, ske.signature)

    def test_three_victims_one_pinned_key(self):
        server = make_server()
        conn = server.connect(0)
        rng = Random(9)
        moduli = {signature_oracle(conn, bytes([i]) * 16, rng)[1].params[0]
                  for i in range(3)}
        assert len(moduli) == 1


class TestFactoring:
    def test_smallest_semiprime(self):
        assert factor_export_modulus(15) == (3, 5)

    def test_random_export_modulus_self_check(self):
        rng = Random(11)
        key = gen_rsa_keypair(64, rng)
        p, q = factor_export_modulus(key.n, rng)
        assert p * q == key.n
        assert 1 < p < q

    def test_512_bit_modulus_not_factorable_at_desk_budget(self):
        # a full-strength 512-bit semiprime exhausts the desk budget; the
        # documented attack cost metadata stands in for the real effort
        key = gen_rsa_keypair(512, Random(57))
        with pytest.raises(NotFactorable):
            factor_export_modulus(key.n, Random(1), max_iters=1 << 14)

    def test_prime_input_rejected(self):
        with pytest.raises(NotFactorable):
            factor_export_modulus(101, Random(1), max_iters=1 << 12)


class TestRsaCrt:
    @pytest.mark.parametrize("bits", [64, 192])
    def test_private_ops_match_plain_exponent(self, bits):
        # CRT private operations against pow(x, d, n) with the textbook d
        rng = Random(bits)
        key = gen_rsa_keypair(bits, rng)
        n, p, q = key.n, key.p, key.q
        assert p * q == n and n.bit_length() == bits
        d = pow(key.e, -1, math.lcm(p - 1, q - 1))
        xs = [0, 1, p, q, n - 1] + [rng.randrange(n) for _ in range(200)]
        for x in xs:
            assert rsa_decrypt_int(key, x) == pow(x, d, n)
        for _ in range(100):
            data = rng.randbytes(rng.randrange(0, 64))
            digest = int.from_bytes(hashlib.sha256(data).digest(), "big") % n
            sig = rsa_sign(key, data)
            assert sig == pow(digest, d, n)
            assert rsa_verify(key.public(), data, sig)

    def test_from_primes_rejects_noninvertible_exponent(self):
        with pytest.raises(ValueError):
            RsaKey.from_primes(7, 11, 3)  # 3 divides 7 - 1

    def test_public_key_cannot_decrypt_or_sign(self):
        key = gen_rsa_keypair(64, Random(3)).public()
        with pytest.raises(TlsError):
            rsa_decrypt_int(key, 5)
        with pytest.raises(TlsError):
            rsa_sign(key, b"blob")


@functools.cache
def export_group_table(seed):
    params = gen_export_dhe_params(64, Random(seed))
    return params, dlog_precompute(params)


class TestDlog:
    def setup_method(self):
        self.params, self.table = export_group_table(12)

    def test_generator_maps_to_one(self):
        assert dlog_individual(self.params.g, self.table) == 1

    def test_identity_maps_to_zero(self):
        assert dlog_individual(1, self.table) == 0

    def test_random_round_trips(self):
        rng = Random(13)
        for _ in range(20):
            x = rng.randrange(self.params.q)
            y = pow(self.params.g, x, self.params.p)
            assert dlog_individual(y, self.table) == x % self.params.q

    def test_every_baby_step_kept_one_mark_per_stride(self):
        size = self.table.table_size
        assert size == DLOG_TABLE_FACTOR * math.isqrt(self.params.q) < self.params.q
        assert len(self.table.table) == size
        assert len(self.table.marks) == -(-size // DLOG_MARK_EVERY)
        p, g = self.params.p, self.params.g
        assert sorted(self.table.marks.values()) == list(range(0, size, DLOG_MARK_EVERY))
        assert all(pow(g, k, p) == mark for mark, k in self.table.marks.items())
        assert self.table.g_inv * g % p == 1

    @pytest.mark.parametrize("j", ["0", "1", "B-1", "B", "size-1"])
    @pytest.mark.parametrize("giant", ["first", "second", "last-full"])
    def test_exact_around_marks(self, j, giant):
        p, g, q = self.params.p, self.params.g, self.params.q
        size, b = self.table.table_size, DLOG_MARK_EVERY
        j = {"0": 0, "1": 1, "B-1": b - 1, "B": b, "size-1": size - 1}[j]
        i = {"first": 0, "second": 1, "last-full": q // size - 1}[giant]
        x = i * size + j
        assert x < q
        assert dlog_individual(pow(g, x, p), self.table) == x

    def test_largest_exponent(self):
        p, g, q = self.params.p, self.params.g, self.params.q
        assert dlog_individual(pow(g, q - 1, p), self.table) == q - 1
        assert dlog_individual(self.table.g_inv, self.table) == q - 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_inverts_pow_over_the_subgroup(self, data):
        p, g, q = self.params.p, self.params.g, self.params.q
        x = data.draw(st.integers(0, q - 1))
        assert dlog_individual(pow(g, x, p), self.table) == x

    def test_outside_subgroup_is_no_solution(self):
        # an element of order > q cannot be a power of g
        p, q = self.params.p, self.params.q
        y = 2
        while pow(y, q, p) == 1:
            y += 1
        for target in (y, 0, p):
            with pytest.raises(NoSolution):
                dlog_individual(target, self.table)

    def test_slot_store_is_not_gc_tracked(self):
        # a bytearray holds no references: no collection walks the table
        steps = self.table.table
        assert not gc.is_tracked(steps.slots)
        assert len(steps.slots) >= 8 * len(steps) == 8 * self.table.table_size

    def test_precompute_memory_bound(self):
        # one boxed index per baby step (a dict[int, int]) peaks near 55 MB
        # on the seed-4 group and a keys-only set near 37 MB; one byte in
        # each of 2^22 slots peaks near 5 MB
        params = gen_export_dhe_params(64, Random(4))
        tracemalloc.start()
        try:
            table = dlog_precompute(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.table) == table.table_size
        assert peak < 8 * 10 ** 6

    def test_every_exponent_of_a_32_bit_group(self):
        # q = 38,839 and 3,152 baby steps in 2^15 slots: some steps share a
        # probe run, and some giant steps match a fingerprint falsely and
        # are rejected by the walk to a mark
        params = gen_export_dhe_params(32, Random(3))
        p, g, q = params.p, params.g, params.q
        table = dlog_precompute(params)
        assert (q, table.table_size) == (38839, 3152)
        steps = table.table
        baby = {pow(g, j, p) for j in range(table.table_size)}
        shared = rejected = 0
        y = 1
        for x in range(q):
            assert dlog_individual(y, table) == x
            offset = first_fingerprint_match(steps, y)
            if y in baby:
                assert offset is not None
                shared += offset > 0
            else:
                rejected += offset is not None
            y = y * g % p
        assert shared > 0 and rejected > 0


def first_fingerprint_match(steps, v):
    """How far past v's home slot its probe run first holds v's fingerprint
    byte, or None if the run holds none.
    """
    slots, mask = steps.slots, steps.mask
    fingerprint = v >> steps.shift & 255 or 1
    home = s = v & mask
    while slots[s]:
        if slots[s] == fingerprint:
            return s - home & mask
        s = s + 1 & mask
    return None


class TestFreak:
    def setup_method(self):
        self.server = make_server(Random(40))
        self.oracle_conn = self.server.connect(0)
        n = self.oracle_conn.pinned_temp_key.n
        p, q = factor_export_modulus(n, Random(41))
        self.factored = RsaKey.from_primes(p, q, self.oracle_conn.pinned_temp_key.e)

    def test_vulnerable_client_loses_session_key(self):
        client = ClientTlsConfig(offered_suites=(CipherSuite.RSA,), patched=False)
        result = mitm_freak(client, self.oracle_conn, self.factored, Random(42))
        assert result.success
        assert result.attacker_session_key == result.client_session_key
        assert result.error is None
        assert result.client_suite is CipherSuite.RSA

    def test_patched_client_aborts(self):
        client = ClientTlsConfig(offered_suites=(CipherSuite.RSA,), patched=True)
        result = mitm_freak(client, self.oracle_conn, self.factored, Random(43))
        assert not result.success
        assert "ClientPatched" in result.error
        assert result.attacker_session_key is None

    def test_unfactored_key_yields_nothing(self):
        client = ClientTlsConfig(offered_suites=(CipherSuite.RSA,), patched=False)
        # the pinned key's public half: no primes to decrypt with
        public = self.oracle_conn.pinned_temp_key.public()
        result = mitm_freak(client, self.oracle_conn, public, Random(44))
        assert not result.success
        assert result.attacker_session_key is None
        assert result.client_session_key is None

    def test_key_for_another_modulus_yields_nothing(self):
        client = ClientTlsConfig(offered_suites=(CipherSuite.RSA,), patched=False)
        other = gen_rsa_keypair(64, Random(47))
        assert other.n != self.factored.n
        result = mitm_freak(client, self.oracle_conn, other, Random(44))
        assert not result.success
        assert result.attacker_session_key is None

    def test_export_rsa_disabled_breaks_oracle(self):
        server = make_server(Random(45),
                             suites=frozenset({CipherSuite.RSA, CipherSuite.DHE}))
        conn = server.connect(0)
        client = ClientTlsConfig(offered_suites=(CipherSuite.RSA,), patched=False)
        result = mitm_freak(client, conn, self.factored, Random(46))
        assert not result.success
        assert "NoCommonSuite" in result.error


class TestLogjam:
    def setup_method(self):
        self.server = make_server(Random(50))
        self.table = dlog_precompute(self.server.config.export_dhe_params)

    def test_any_client_even_patched(self):
        client = ClientTlsConfig(offered_suites=(CipherSuite.DHE,), patched=True)
        conn = self.server.connect(0)
        result = mitm_logjam(client, conn, self.table, Random(51))
        assert result.success
        assert (result.attacker_session_key == result.client_session_key
                == result.server_session_key)
        # the victim believes it negotiated the strong suite
        assert result.client_suite is CipherSuite.DHE

    def test_disabled_export_dhe_fails_at_hello(self):
        server = make_server(Random(52),
                             suites=frozenset({CipherSuite.RSA, CipherSuite.DHE}))
        table = dlog_precompute(gen_export_dhe_params(64, Random(53)))
        client = ClientTlsConfig(offered_suites=(CipherSuite.DHE,), patched=True)
        result = mitm_logjam(client, server.connect(0), table, Random(54))
        assert not result.success
        assert "NoCommonSuite" in result.error

    def test_wrong_p_table_budget_exceeded(self):
        other = dlog_precompute(gen_export_dhe_params(64, Random(55)))
        assert other.params.p != self.server.config.export_dhe_params.p
        client = ClientTlsConfig(offered_suites=(CipherSuite.DHE,), patched=True)
        with pytest.raises(DlogBudgetExceeded):
            mitm_logjam(client, self.server.connect(0), other, Random(56))


class TestSignatureCoverage:
    def test_suite_not_covered_nonce_and_params_are(self):
        # the protocol property the export-DHE downgrade exploits, asserted
        # directly on a signed ServerKeyExchange
        server = make_server(Random(60))
        conn = server.connect(0)
        client_nonce = Random(61).randbytes(16)
        server_nonce, ske = signature_oracle(conn, client_nonce, Random(62))
        pub = server.config.cert_key.public()

        good = signed_blob(client_nonce, server_nonce, ske.kind, ske.params)
        assert rsa_verify(pub, good, ske.signature)
        # the blob simply has no suite field: recomputing it for another
        # negotiated suite yields the same bytes
        assert good == signed_blob(client_nonce, server_nonce, ske.kind,
                                   ske.params)
        # mutated nonce -> signature no longer verifies
        bad_nonce = signed_blob(bytes([client_nonce[0] ^ 1]) + client_nonce[1:],
                                server_nonce, ske.kind, ske.params)
        assert not rsa_verify(pub, bad_nonce, ske.signature)
        # mutated key material -> signature no longer verifies
        mutated = (ske.params[0] + 1, *ske.params[1:])
        bad_params = signed_blob(client_nonce, server_nonce, ske.kind, mutated)
        assert not rsa_verify(pub, bad_params, ske.signature)


class TestKnownAnswers:
    # sha256 of the session keys at fixed seeds, pinned so that a change to
    # the draw order (client nonce, server nonce, server DHE secret, client
    # exponent) or to the key schedule fails here first

    SESSION_KEYS = {
        "RSA": "347a4731b95c7bd11a80d014ebb2b21b6d5723843b8d96c8666a19b1c52d8173",
        "RSA_EXPORT": "2d078fb6b1cebc746b0f5418eac4b670803c54932805f8516e2129d2e4e3ef76",
        "DHE": "ff994dd1415f591ef143c75a2c3e5e02e9e3bf032f876a3adbc2845b67ec98c6",
        "DHE_EXPORT": "8eb887977744d3c4268d9505b9f15e7c947992c2a4c61eac3083981aaf92f288",
    }

    @pytest.mark.parametrize("suite", list(SESSION_KEYS))
    def test_handshake_session_keys(self, suite):
        server = make_server(Random(90))
        config = ClientTlsConfig(offered_suites=(CipherSuite(suite),))
        client, srv = handshake(config, server.connect(0), Random(91))
        assert client.suite is srv.suite is CipherSuite(suite)
        assert hashlib.sha256(client.session_key + srv.session_key).hexdigest() == \
            self.SESSION_KEYS[suite]

    def test_mitm_logjam_keys(self):
        server = make_server(Random(50))
        table = dlog_precompute(server.config.export_dhe_params)
        client = ClientTlsConfig(offered_suites=(CipherSuite.DHE,))
        r = mitm_logjam(client, server.connect(0), table, Random(51))
        keys = r.attacker_session_key + r.client_session_key + r.server_session_key
        assert hashlib.sha256(keys).hexdigest() == \
            "265bb6f3a781dc180013d357e63202930297598ececf640683588f1df806bad1"

    def test_mitm_freak_keys(self):
        server = make_server(Random(40))
        oracle_conn = server.connect(0)
        temp = oracle_conn.pinned_temp_key
        p, q = factor_export_modulus(temp.n, Random(41))
        client = ClientTlsConfig(offered_suites=(CipherSuite.RSA,), patched=False)
        r = mitm_freak(client, oracle_conn, RsaKey.from_primes(p, q, temp.e), Random(42))
        keys = r.attacker_session_key + r.client_session_key
        assert hashlib.sha256(keys).hexdigest() == \
            "d1178722f3765a1d4a8eb8be0cc9eb41f18f442b48716bd30de44272ac10d1d9"


def view_digest(view):
    """sha256 of a transcript view, each message length-prefixed so that a
    byte moved across a message boundary changes it too.
    """
    return hashlib.sha256(b"".join(len(m).to_bytes(4, "big") + m
                                   for m in view)).hexdigest()


class TestHandshakeBytes:
    # No report or trace digest sees the handshake messages' bytes: the
    # transcripts feed only the Finished MACs and the session keys, which
    # the engine keeps to itself. So the sha256 of every transcript view and
    # session key is pinned here, at fixed seeds, for each message kind and
    # the integer encoding inside them.

    # offered suites -> the digests of both ends' transcript views, which
    # are equal, and of both ends' session keys, which are equal too
    HONEST = {
        ("RSA", "DHE"): (
            "98fe3fc1c7bfad4518ad78b6b3ee75fe2c8ab90f284a28bede57ba6fcaf896e2",
            "633554fffbcf10b6ed803db767c4bb70ee8b428e82ada269d577f777dd53e889"),
        ("DHE", "RSA"): (
            "711ae5f8b8e1d4ee3891149d9105b4fb33ba0ca3449f0abedce90b91b145ebc5",
            "cb9a5a73cc1ff78b20212b533affb83bfc8dcf08907921f6b2487187eb8fa403"),
        ("RSA_EXPORT", "DHE_EXPORT"): (
            "ca299c7072a5efa9655b26fc54ebfe37037c866544c5914238d9c2ff064dbc13",
            "57605533e0bf045bf2dce75a5709b7a0df3bea768a1eb97eb477108f2ce56c96"),
    }

    @pytest.mark.parametrize("offered", list(HONEST))
    def test_honest_transcripts_and_keys(self, offered):
        server = make_server(Random(90))
        config = ClientTlsConfig(offered_suites=tuple(map(CipherSuite, offered)))
        client, srv = handshake(config, server.connect(0), Random(91))
        assert client.suite is srv.suite is CipherSuite(offered[0])
        view, key = self.HONEST[offered]
        assert view_digest(client.transcript_view) == view_digest(srv.transcript_view) \
            == view
        assert hashlib.sha256(client.session_key).hexdigest() == \
            hashlib.sha256(srv.session_key).hexdigest() == key

    def test_logjam_interposer_views_and_keys(self):
        # the interposer as the channel of an ordinary handshake: the client
        # offers DHE first, the server is pushed to DHE_EXPORT, and each end's
        # view is the one the interposer keeps for it
        server = make_server(Random(50))
        interposer = _LogjamInterposer(CipherSuite.DHE,
                                       dlog_precompute(server.config.export_dhe_params))
        config = ClientTlsConfig(offered_suites=(CipherSuite.DHE, CipherSuite.RSA))
        client, srv = handshake(config, server.connect(0), Random(51), interposer)
        assert (client.suite, srv.suite) == (CipherSuite.DHE, CipherSuite.DHE_EXPORT)
        assert view_digest(client.transcript_view) == \
            view_digest(interposer.views["client"]) == \
            "1e414424aaac9eb286c393e3c823257c005b4d466e46f83f5a143b7814d0c107"
        assert view_digest(srv.transcript_view) == \
            view_digest(interposer.views["server"]) == \
            "4db5562e442a1547e47a44cf1359d60c2ec217db34231b3238848847980c0ba7"
        for key in (client.session_key, srv.session_key, interposer.attacker_key):
            assert hashlib.sha256(key).hexdigest() == \
                "f4abcfeb64443a64ce07aa3b0e63539392025c34758e129307ee8710c2c32c8a"


class TestHandshakeBytesOverRuns:
    # The fixed-seed handshakes above pin one negotiation each. These pin
    # every handshake a whole bundled run makes, in call order: the honest
    # background fetches, each FREAK and Logjam attempt, and the handshake
    # inside each Logjam attempt. Session keys alone would not do: they
    # derive from the premaster and the nonces, so they miss a slip in a
    # message's encoding, which only the transcripts see. The calls are
    # wrapped through their module attributes, as the benchmark's tracer
    # wraps them.

    # scenario at seed 42 -> (pieces returned, their view_digest): each
    # handshake end's transcript messages and session key, and every
    # session key a MITM attempt returns
    RUNS = {
        "freak-window": (
            3096, "2783628b97265070640053a7802a6a4f1c3a9e9a337ca9527c604b747c72f388"),
        "logjam-anyclient": (
            3900, "75a78ac0e0b7724d23cdc9fed7c9010f3a9712a3cf59e0cc454011889aac7340"),
    }

    @pytest.mark.parametrize("scenario", list(RUNS))
    def test_handshakes_of_a_run(self, scenario, monkeypatch):
        from votesim import minitls
        from votesim.config import bundled_scenarios, load_config
        from votesim.engine import run_engine

        pieces = []

        def record(fn, pieces_of):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                pieces.extend(p for p in pieces_of(result) if p is not None)
                return result
            return wrapped

        def ends(result):
            for end in result:
                yield from end.transcript_view
                yield end.session_key

        monkeypatch.setattr(minitls, "handshake", record(minitls.handshake, ends))
        for name in ("mitm_freak", "mitm_logjam"):
            monkeypatch.setattr(minitls, name, record(
                getattr(minitls, name),
                lambda r: (r.attacker_session_key, r.client_session_key,
                           r.server_session_key)))
        config = load_config(bundled_scenarios()[scenario])
        config.seed = 42
        run_engine(config)
        assert (len(pieces), view_digest(pieces)) == self.RUNS[scenario]


class TestRecords:
    def test_round_trip_and_tamper(self):
        key = b"k" * 32
        blob = encrypt_record(key, 3, b"hello vote")
        assert decrypt_record(key, 3, blob) == b"hello vote"
        bad = bytes([blob[0] ^ 1]) + blob[1:]
        with pytest.raises(RecordTampered):
            decrypt_record(key, 3, bad)
        with pytest.raises(RecordTampered):
            decrypt_record(key, 4, blob)  # wrong sequence number

    # sha256 of the exact record blob, pinned for the same reason as the
    # envelope's symmetric_seal known answers
    @pytest.mark.parametrize("n, digest", [
        (0, "f69859b1ad79c5e6c110e5d6a3c0dc0d325ce71d059bfae593963f1136c5c13c"),
        (1, "ef7c08f940a5a0bb49629330bcc14045cb34359326874141ab7fcc9518978528"),
        (32, "2f4cc24f161481dfcdf6bc1dad526d5512eb60bf3ed1425e152d846227d099d3"),
        (33, "08cbe66e6004071b746911c6a6a1af9a2769031e2f0f50a1287218e671f33cdc"),
        (300, "41cf89ddfc3ebdf0342a4bb1002e7be240f2550712f90a001ffc9620ca30b311"),
    ])
    def test_encrypt_record_known_answers(self, n, digest):
        key = hashlib.sha256(b"kat").digest()
        plaintext = bytes((7 * i + 3) % 256 for i in range(n))
        blob = encrypt_record(key, 5, plaintext)
        assert len(blob) == n + 16
        assert hashlib.sha256(blob).hexdigest() == digest
        assert decrypt_record(key, 5, blob) == plaintext


class TestDowngradeMatrix:
    def test_matrix_rule_holds_exhaustively(self):
        cells = run_downgrade_matrix(Random(70))
        assert len(cells) == 8
        for cell in cells:
            expect_freak = (not cell.client_patched) and cell.export_rsa_enabled
            expect_logjam = cell.export_dhe_enabled
            assert cell.freak_succeeded == expect_freak, cell
            assert cell.logjam_succeeded == expect_logjam, cell
