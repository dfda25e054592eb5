"""Digital-envelope hybrid encryption.

A sealed vote is a random key wrapped once under each of the two
tabulation servers' ElGamal public keys (so either server can open it),
plus the encoded ballot encrypted under that key with an authenticated
stream cipher, plus a keyed client tag over the ciphertext.

The key is a random quadratic residue k^2 mod p, wrapped as the group
element itself, and the stream cipher's keys are hashes of that element
(hashed ElGamal; Abdalla, Bellare and Rogaway, "DHIES", CT-RSA 2001).
So an unwrap recovers the element and nothing has to be decoded: it is
c2 * c1^(p-1-x) mod p, one `pow` with no inverse (Handbook of Applied
Cryptography, Algorithm 8.18).

Parameters are desk-scale (32-, 64- or 128-bit safe-prime moduli).

All constructions here are simulation-grade, not production cryptography.
"""

import hashlib
import hmac as hmac_mod
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from random import Random
from typing import Optional

from .numth import FixedBase, gen_safe_prime, find_subgroup_generator


class EnvelopeError(Exception):
    pass


class UnsupportedSize(EnvelopeError):
    pass


class MessageOutOfRange(EnvelopeError):
    pass


class AuthFailure(EnvelopeError):
    """Symmetric-layer authentication failed. Deliberately also covers
    wrong-key decryption so key errors are indistinguishable from tampering.
    """


GENERABLE_BITS = (32, 64, 128)
TAG_LEN = 16
NONCE_LEN = 12


@dataclass(frozen=True)
class ElGamalParams:
    """Prime-order subgroup of Z_p^*. For envelope keys p is a safe prime
    (p = 2q + 1) and g generates the quadratic residues.
    """

    p: int
    g: int
    q: int
    bit_length: int

    def __post_init__(self):
        if not (1 < self.g < self.p):
            raise EnvelopeError("generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise EnvelopeError("generator does not have order q")

    @cached_property
    def g_table(self) -> FixedBase:
        """g^e mod p for e in [0, q); built at first use, kept with the
        parameters.
        """
        return FixedBase(self.g, self.p, self.q)


@dataclass(frozen=True)
class PublicKey:
    params: ElGamalParams
    y: int

    @cached_property
    def y_table(self) -> FixedBase:
        """y^e mod p for e in [0, q); built at first use, kept with the key."""
        return FixedBase(self.y, self.params.p, self.params.q)


@dataclass(frozen=True)
class KeyPair:
    params: ElGamalParams
    x: int
    y: int

    def public(self) -> PublicKey:
        return PublicKey(self.params, self.y)


def gen_params(bit_length: int, rng: Random) -> ElGamalParams:
    """Safe-prime-derived parameters at a desk-scale size, deterministic
    for a given rng state.
    """
    if bit_length not in GENERABLE_BITS:
        raise UnsupportedSize(f"bit length {bit_length} not in {GENERABLE_BITS}")
    p, q = gen_safe_prime(bit_length, rng)
    g = find_subgroup_generator(p, q, rng)
    return ElGamalParams(p=p, g=g, q=q, bit_length=bit_length)


def gen_keypair(params: ElGamalParams, rng: Random) -> KeyPair:
    x = rng.randrange(1, params.q)
    return KeyPair(params=params, x=x, y=pow(params.g, x, params.p))


def elgamal_encrypt(pub: PublicKey, element: int, rng: Random) -> tuple[int, int]:
    params = pub.params
    if not 1 <= element < params.p:
        raise MessageOutOfRange(f"element must be in [1, {params.p})")
    r = rng.randrange(1, params.q)
    return params.g_table(r), (element * pub.y_table(r)) % params.p


def elgamal_decrypt(params: ElGamalParams, x: int, ciphertext: tuple[int, int]) -> int:
    """c2 / c1^x mod p, computed as c2 * c1^(p-1-x): exact for every c1,
    and 0 when c1 = 0 (mod p).
    """
    c1, c2 = ciphertext
    p = params.p
    return c2 * pow(c1, p - 1 - x, p) % p


# --- authenticated stream layer ---

def _key_bytes(key_int: int) -> bytes:
    return key_int.to_bytes((key_int.bit_length() + 7) // 8 or 1, "big")


def keystream_xor(key: bytes, data: bytes) -> bytes:
    """XOR `data` with the keystream sha256(key || counter) for counter =
    0, 1, ... as 8-byte big-endian blocks; encrypts and decrypts alike.
    """
    n = len(data)
    sha256 = hashlib.sha256
    stream = b"".join([sha256(key + counter.to_bytes(8, "big")).digest()
                       for counter in range(-(-n // 32))])
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")


def symmetric_seal(key_int: int, plaintext: bytes, rng: Random) -> tuple[bytes, bytes, bytes]:
    """Encrypt-then-MAC under keys hashed from the wrapped group element.
    Returns (nonce, ciphertext, tag).
    """
    kb = _key_bytes(key_int)
    enc_key = hashlib.sha256(b"enc" + kb).digest()
    mac_key = hashlib.sha256(b"mac" + kb).digest()
    nonce = rng.getrandbits(NONCE_LEN * 8).to_bytes(NONCE_LEN, "big")
    ciphertext = keystream_xor(enc_key + nonce, plaintext)
    tag = hmac_mod.new(mac_key, nonce + ciphertext, hashlib.sha256).digest()[:TAG_LEN]
    return nonce, ciphertext, tag


def symmetric_open(key_int: int, nonce: bytes, ciphertext: bytes, tag: bytes) -> bytes:
    kb = _key_bytes(key_int)
    enc_key = hashlib.sha256(b"enc" + kb).digest()
    mac_key = hashlib.sha256(b"mac" + kb).digest()
    expect = hmac_mod.new(mac_key, nonce + ciphertext, hashlib.sha256).digest()[:TAG_LEN]
    if not hmac_mod.compare_digest(expect, tag):
        raise AuthFailure("vote ciphertext failed authentication")
    return keystream_xor(enc_key + nonce, ciphertext)


def client_signature(session_key: bytes, vote_ciphertext: bytes) -> bytes:
    """Keyed tag the client attaches over the vote ciphertext. The real
    derivation of this key is undocumented; here it is a per-session key
    supplied by the casting context. No check reads the tag: an honest
    audit compares the two stores, not tags.
    """
    return hmac_mod.new(session_key, b"client-sig" + vote_ciphertext, hashlib.sha256).digest()[:TAG_LEN]


class ServerRole(Enum):
    ELECTION = "election"
    VERIFICATION = "verification"


@dataclass(frozen=True, slots=True)
class DigitalEnvelope:
    wrapped_key_election: tuple[int, int]
    wrapped_key_verification: tuple[int, int]
    nonce: bytes
    vote_ciphertext: bytes
    tag: bytes
    client_sig: bytes

    def to_bytes(self) -> bytes:
        """Length-prefixed binary form for the wire layer."""
        parts = []
        for c1, c2 in (self.wrapped_key_election, self.wrapped_key_verification):
            for v in (c1, c2):
                vb = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
                parts.append(len(vb).to_bytes(2, "big") + vb)
        for blob in (self.nonce, self.vote_ciphertext, self.tag, self.client_sig):
            parts.append(len(blob).to_bytes(2, "big") + blob)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DigitalEnvelope":
        size = len(data)
        pos = 0
        fields = []
        for _ in range(8):
            start = pos + 2
            if start > size:
                raise EnvelopeError("truncated envelope")
            pos = start + (data[pos] << 8 | data[pos + 1])
            if pos > size:
                raise EnvelopeError("truncated envelope")
            fields.append(data[start:pos])
        if pos != size:
            raise EnvelopeError("trailing bytes after envelope")
        ints = [int.from_bytes(f, "big") for f in fields[:4]]
        return cls(
            wrapped_key_election=(ints[0], ints[1]),
            wrapped_key_verification=(ints[2], ints[3]),
            nonce=fields[4],
            vote_ciphertext=fields[5],
            tag=fields[6],
            client_sig=fields[7],
        )


def seal(
    ballot_bytes: bytes,
    election_pub: PublicKey,
    verification_pub: PublicKey,
    rng: Random,
    session_key: Optional[bytes] = None,
) -> DigitalEnvelope:
    """Seal a vote: a fresh key k^2 mod p, wrapped once per server, ballot
    encrypted under it. The key never leaves this function.
    """
    if election_pub.params != verification_pub.params:
        raise EnvelopeError("server keys must share parameters")
    params = election_pub.params
    k = rng.randrange(1, params.q)
    key = k * k % params.p
    wrapped_e = elgamal_encrypt(election_pub, key, rng)
    wrapped_v = elgamal_encrypt(verification_pub, key, rng)
    nonce, ciphertext, tag = symmetric_seal(key, ballot_bytes, rng)
    if session_key is None:
        session_key = rng.getrandbits(256).to_bytes(32, "big")
    sig = client_signature(session_key, ciphertext)
    return DigitalEnvelope(
        wrapped_key_election=wrapped_e,
        wrapped_key_verification=wrapped_v,
        nonce=nonce,
        vote_ciphertext=ciphertext,
        tag=tag,
        client_sig=sig,
    )


def open_envelope(envelope: DigitalEnvelope, which: ServerRole, keypair: KeyPair) -> bytes:
    """Unwrap with the selected server key and decrypt. A wrong key decrypts
    to a wrong symmetric key and surfaces as AuthFailure, indistinguishable
    from ciphertext tampering by design.
    """
    wrapped = (
        envelope.wrapped_key_election
        if which is ServerRole.ELECTION
        else envelope.wrapped_key_verification
    )
    key = elgamal_decrypt(keypair.params, keypair.x, wrapped)
    return symmetric_open(key, envelope.nonce, envelope.vote_ciphertext, envelope.tag)
