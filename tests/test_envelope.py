"""Hybrid envelope crypto and its wire format."""

import builtins
import hashlib
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from votesim import envelope as envelope_mod
from votesim.ballots import encode_ballot, make_manifest, Ballot, CouncilMode
from votesim.config import parse_config
from votesim.election import Credentials, VoteChannel
from votesim.engine import run_engine
from votesim.envelope import (
    AuthFailure,
    DigitalEnvelope,
    EnvelopeError,
    MessageOutOfRange,
    ServerRole,
    UnsupportedSize,
    elgamal_decrypt,
    elgamal_encrypt,
    gen_keypair,
    gen_params,
    open_envelope,
    seal,
    symmetric_open,
    symmetric_seal,
)
from votesim.messages import CastSubmission
from votesim.minitls import gen_export_dhe_params
from votesim.numth import FixedBase


def trial_division_is_prime(n: int) -> bool:
    # independent primality oracle, deliberately naive
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class TestParams:
    def test_gen_32_bit_prime_by_trial_division(self):
        params = gen_params(32, Random(1))
        assert params.p.bit_length() == 32
        assert trial_division_is_prime(params.p)
        assert trial_division_is_prime(params.q)
        assert params.p == 2 * params.q + 1

    def test_generator_is_not_one_and_has_order_q(self):
        params = gen_params(32, Random(2))
        assert params.g != 1
        assert pow(params.g, params.q, params.p) == 1

    def test_deterministic_given_seed(self):
        assert gen_params(32, Random(5)) == gen_params(32, Random(5))

    def test_historical_512_unsupported(self):
        with pytest.raises(UnsupportedSize):
            gen_params(512, Random(1))

    def test_unsupported_size(self):
        with pytest.raises(UnsupportedSize):
            gen_params(48, Random(1))

    def test_degenerate_generator_rejected(self):
        good = gen_params(32, Random(3))
        with pytest.raises(Exception):
            type(good)(p=good.p, g=1, q=good.q, bit_length=32)


@pytest.fixture(scope="module", params=[32, 64, 128])
def server_keys(request):
    """Parameters and two server key pairs at each envelope size."""
    rng = Random(request.param)
    params = gen_params(request.param, rng)
    election, verification = gen_keypair(params, rng), gen_keypair(params, rng)
    assert election.x != verification.x
    return params, election, verification


class TestElGamal:
    def test_identity_element_round_trips(self, server_keys):
        params, key, _ = server_keys
        ct = elgamal_encrypt(key.public(), 1, Random(3))
        assert elgamal_decrypt(params, key.x, ct) == 1

    def test_random_round_trips(self, server_keys):
        params, key, _ = server_keys
        pub = key.public()
        rng = Random(12)
        for m in [2, params.p - 1] + [rng.randrange(1, params.p) for _ in range(1000)]:
            ct = elgamal_encrypt(pub, m, rng)
            assert elgamal_decrypt(params, key.x, ct) == m

    def test_wrong_key_decrypts_wrong(self, server_keys):
        # m * g^(r(x - x')) != m for every r in [1, q) once x != x'
        params, key, other = server_keys
        pub = key.public()
        rng = Random(13)
        for m in [1] + [rng.randrange(1, params.p) for _ in range(200)]:
            ct = elgamal_encrypt(pub, m, rng)
            assert elgamal_decrypt(params, other.x, ct) != m

    def test_message_out_of_range(self, server_keys):
        params, key, _ = server_keys
        for m in (0, params.p, -1, params.p + 1):
            with pytest.raises(MessageOutOfRange):
                elgamal_encrypt(key.public(), m, Random(1))

    def test_ciphertexts_randomized(self, server_keys):
        params, key, _ = server_keys
        pub = key.public()
        rng = Random(14)
        cts = [elgamal_encrypt(pub, 7, rng) for _ in range(100)]
        assert len(set(cts)) == len({c1 for c1, _ in cts}) == 100

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_unwrap_matches_fermat_formula(self, server_keys, data):
        # the reference takes c1^x and inverts it as pow(shared, p - 2, p),
        # so c1 = 0 (mod p) gives 0 on both sides
        params, key, _ = server_keys
        p, x = params.p, key.x
        c1 = data.draw(st.one_of(st.sampled_from([0, p, 1, p - 1]),
                                 st.integers(0, p)), label="c1")
        c2 = data.draw(st.integers(0, p - 1), label="c2")
        reference = c2 * pow(pow(c1, x, p), p - 2, p) % p
        assert elgamal_decrypt(params, x, (c1, c2)) == reference


class TestEnvelopeAtEachSize:
    BALLOT = bytes(range(40))

    def test_seal_opens_under_both_server_keys(self, server_keys):
        params, election, verification = server_keys
        for seed in range(20):
            env = seal(self.BALLOT, election.public(), verification.public(), Random(seed))
            assert open_envelope(env, ServerRole.ELECTION, election) == self.BALLOT
            assert open_envelope(env, ServerRole.VERIFICATION, verification) == self.BALLOT

    def test_swapped_key_or_flipped_c1_fails_authentication(self, server_keys):
        params, election, verification = server_keys
        env = seal(self.BALLOT, election.public(), verification.public(), Random(1))
        with pytest.raises(AuthFailure):
            open_envelope(env, ServerRole.ELECTION, verification)
        with pytest.raises(AuthFailure):
            open_envelope(env, ServerRole.VERIFICATION, election)
        c1, c2 = env.wrapped_key_election
        flipped = replace(env, wrapped_key_election=(c1 ^ 1, c2))
        with pytest.raises(AuthFailure):
            open_envelope(flipped, ServerRole.ELECTION, election)
        c1, c2 = env.wrapped_key_verification
        flipped = replace(env, wrapped_key_verification=(c1 ^ 1, c2))
        with pytest.raises(AuthFailure):
            open_envelope(flipped, ServerRole.VERIFICATION, verification)

    def test_open_makes_one_modexp_and_seal_none(self, server_keys, monkeypatch):
        # a `pow` bound in the module shadows the builtin for its code only;
        # the seal raises g and y through their fixed-base tables
        params, election, verification = server_keys
        calls = []

        def counting_pow(*args):
            calls.append(len(args))
            return builtins.pow(*args)

        monkeypatch.setattr(envelope_mod, "pow", counting_pow, raising=False)
        env = seal(self.BALLOT, election.public(), verification.public(), Random(2))
        assert calls == []
        assert open_envelope(env, ServerRole.ELECTION, election) == self.BALLOT
        assert calls == [3]


# the groups whose bases get tables: envelope keys at each size, and an
# export-strength DHE group with its short subgroup
FIXED_BASE_GROUPS = {
    "envelope-32": lambda: gen_params(32, Random(32)),
    "envelope-64": lambda: gen_params(64, Random(64)),
    "envelope-128": lambda: gen_params(128, Random(128)),
    "export-dhe-64": lambda: gen_export_dhe_params(64, Random(7)),
}


class TestFixedBase:
    @pytest.fixture(scope="class", params=sorted(FIXED_BASE_GROUPS))
    def group(self, request):
        params = FIXED_BASE_GROUPS[request.param]()
        return params, gen_keypair(params, Random(1)).public()

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(data=st.data())
    def test_table_power_equals_builtin_pow(self, group, data):
        params, pub = group
        e = data.draw(st.integers(0, params.q - 1), label="exponent")
        assert params.g_table(e) == pow(params.g, e, params.p)
        assert pub.y_table(e) == pow(pub.y, e, params.p)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(p=st.integers(2, 2**70), base=st.integers(0, 2**70),
           bits=st.integers(0, 40), data=st.data())
    def test_any_modulus_and_bound_equal_builtin_pow(self, p, base, bits, data):
        bound = data.draw(st.integers(1, 2 ** bits), label="bound")
        e = data.draw(st.integers(0, bound - 1), label="exponent")
        table = FixedBase(base, p, bound)
        assert table(e) == pow(base, e, p)
        assert table(bound - 1) == pow(base, bound - 1, p)

    def test_range_ends_equal_builtin_pow(self, group):
        params, pub = group
        for e in (0, 1, 2, 255, 256, params.q - 2, params.q - 1):
            assert params.g_table(e) == pow(params.g, e, params.p)
            assert pub.y_table(e) == pow(pub.y, e, params.p)

    def test_exponent_outside_range_raises(self, group):
        params, pub = group
        for table in (params.g_table, pub.y_table):
            for e in (-1, params.q, params.q + 1, -params.q):
                with pytest.raises(ValueError):
                    table(e)

    def test_table_lives_on_its_key_and_leaves_equality_alone(self, group):
        params, pub = group
        assert params.g_table is params.g_table
        assert pub.y_table is pub.y_table
        twin = replace(params)
        assert "g_table" not in vars(twin)
        assert twin == params and hash(twin) == hash(params)
        assert replace(pub) == pub and hash(replace(pub)) == hash(pub)

    def test_engine_builds_one_table_per_base(self, monkeypatch):
        built = []

        class Counting(FixedBase):
            __slots__ = ()

            def __init__(self, base, p, bound):
                built.append(base)
                super().__init__(base, p, bound)

        monkeypatch.setattr(envelope_mod, "FixedBase", Counting)
        engine = run_engine(parse_config({
            "schema_version": 1, "name": "t", "seed": 3, "voters": 30,
            "manifest": {"groups": 4, "candidates": 8, "assembly": 4},
            "tls": {"enabled": False}}))
        assert len(engine.cvs.records) > 1
        assert sorted(built) == sorted([engine.params.g, engine.election_key.y,
                                        engine.verification_key.y])


class TestEnvelope:
    def setup_method(self):
        self.params = gen_params(64, Random(20))
        self.election = gen_keypair(self.params, Random(21))
        self.verification = gen_keypair(self.params, Random(22))
        self.manifest = make_manifest(num_groups=6, num_candidates=12, num_assembly=3)
        self.ballot_bytes = encode_ballot(
            Ballot(assembly_prefs=("a01",),
                   council_mode=CouncilMode.ABOVE_THE_LINE,
                   council_prefs=("g03", "g01")),
            self.manifest)

    def seal_one(self, rng):
        return seal(self.ballot_bytes, self.election.public(),
                    self.verification.public(), rng)

    def test_election_key_round_trip(self):
        env = self.seal_one(Random(1))
        assert open_envelope(env, ServerRole.ELECTION, self.election) == self.ballot_bytes

    def test_dual_decryptability(self):
        env = self.seal_one(Random(2))
        via_e = open_envelope(env, ServerRole.ELECTION, self.election)
        via_v = open_envelope(env, ServerRole.VERIFICATION, self.verification)
        assert via_e == via_v == self.ballot_bytes

    def test_tamper_rejected(self):
        env = self.seal_one(Random(3))
        flipped = bytes([env.vote_ciphertext[0] ^ 0x01]) + env.vote_ciphertext[1:]
        tampered = DigitalEnvelope(
            wrapped_key_election=env.wrapped_key_election,
            wrapped_key_verification=env.wrapped_key_verification,
            nonce=env.nonce, vote_ciphertext=flipped, tag=env.tag,
            client_sig=env.client_sig)
        with pytest.raises(AuthFailure):
            open_envelope(tampered, ServerRole.ELECTION, self.election)

    def test_wrong_key_looks_like_auth_failure(self):
        env = self.seal_one(Random(4))
        with pytest.raises(AuthFailure):
            open_envelope(env, ServerRole.ELECTION, self.verification)

    def test_resealing_randomizes_everything(self):
        a = self.seal_one(Random(5))
        b = self.seal_one(Random(6))
        assert a.vote_ciphertext != b.vote_ciphertext
        assert a.wrapped_key_election != b.wrapped_key_election
        assert a.wrapped_key_verification != b.wrapped_key_verification

    def test_wire_round_trip(self):
        env = self.seal_one(Random(7))
        assert DigitalEnvelope.from_bytes(env.to_bytes()) == env

    def test_every_strict_prefix_is_truncated(self):
        data = self.seal_one(Random(8)).to_bytes()
        for cut in range(len(data)):
            with pytest.raises(EnvelopeError) as info:
                DigitalEnvelope.from_bytes(data[:cut])
            assert type(info.value) is EnvelopeError
            assert str(info.value) == "truncated envelope"

    def test_one_extra_byte_is_trailing(self):
        data = self.seal_one(Random(9)).to_bytes()
        for extra in (b"\x00", b"\xff"):
            with pytest.raises(EnvelopeError) as info:
                DigitalEnvelope.from_bytes(data + extra)
            assert type(info.value) is EnvelopeError
            assert str(info.value) == "trailing bytes after envelope"

    def test_cast_submission_round_trips(self):
        submission = CastSubmission(
            voter_id="voter00042",
            credentials=Credentials(login_id="01234567", pin="654321"),
            envelope=self.seal_one(Random(10)).to_bytes(),
            channel=VoteChannel.POLLING_PLACE)
        assert CastSubmission.from_bytes(submission.to_bytes()) == submission

    # sha256 of the exact nonce || ciphertext || tag: a keystream change in
    # both directions still round-trips, but cannot keep these bytes
    @pytest.mark.parametrize("n, digest", [
        (0, "24e613fb858511492564394fa057b74542a17151bbc79cf9f2b843fa1f86d5e5"),
        (1, "fd3e599a298a93a9d1f215d7391e5707390caf70ea06b97edc409ddd23f1a20b"),
        (32, "bb07cf2f3e820c3ecf75b2b16f147b958685f276db6bbbdf25632779fab76773"),
        (33, "972e3e6540bd0bb85dbd93f14190e315975d16aaf660a545709b81361ed1a8d2"),
        (300, "263ac60513a9cf869bd513c03fe8785949c6ae95c50ed286f2886f41e8f62cd8"),
    ])
    def test_symmetric_seal_known_answers(self, n, digest):
        key = 0x1234567890ABCDEF
        plaintext = bytes((7 * i + 3) % 256 for i in range(n))
        nonce, ciphertext, tag = symmetric_seal(key, plaintext, Random(n))
        assert len(ciphertext) == n
        assert hashlib.sha256(nonce + ciphertext + tag).hexdigest() == digest
        assert symmetric_open(key, nonce, ciphertext, tag) == plaintext

