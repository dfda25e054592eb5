"""Miniature TLS-like handshake with legacy export ciphersuites.

Four suites are modelled: plain RSA key transport, ephemeral
Diffie-Hellman, and the 1990s export-strength variants of both. Two
classic weaknesses are reproduced structurally, not as toggles on
outcomes:

* the client-side flaw behind export-RSA downgrades: an unpatched client
  accepts a signed temporary RSA key it never asked for;
* the protocol flaw behind export-DHE downgrades: the server's signature
  in ServerKeyExchange covers (client nonce, server nonce, key material)
  but deliberately NOT the negotiated suite, so a man in the middle can
  swap suites without invalidating anything.

Servers rotate their temporary export-RSA key once per simulated hour but
pin it to a connection for that connection's lifetime, so client-initiated
renegotiation turns a long-lived connection into a signature oracle over a
single factorable key.

Cryptanalysis runs for real at desk scale: Pollard rho factoring of the
64-bit-class export moduli, and a precompute-then-descend discrete log
(an oversized baby-step table makes the per-target step a small fraction
of the precompute, mirroring the real attack's cost structure).
"""

import hashlib
import hmac as hmac_mod
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from random import Random
from typing import Callable, Optional

from .envelope import ElGamalParams, keystream_xor
from .numth import (
    find_subgroup_generator,
    gen_prime,
    gen_subgroup_prime,
    int_bytes,
    is_prime,
    pollard_rho,
)


class TlsError(Exception):
    pass


class NoCommonSuite(TlsError):
    pass


class BadSignature(TlsError):
    pass


class FinishedMismatch(TlsError):
    pass


class ClientPatched(TlsError):
    """Patched client rejected an unsolicited export key; handshake aborted."""


class NotFactorable(TlsError):
    pass


class NoSolution(TlsError):
    pass


class DlogBudgetExceeded(TlsError):
    pass


class RecordTampered(TlsError):
    pass


class CipherSuite(Enum):
    RSA = "RSA"
    RSA_EXPORT = "RSA_EXPORT"
    DHE = "DHE"
    DHE_EXPORT = "DHE_EXPORT"


NONCE_LEN = 16

# Published costs of running these attacks against real 512-bit parameters,
# carried as report metadata; desk-scale runs use the small analogs instead.
REAL_WORLD_COSTS = {
    "factor_512_rsa": {"wall_hours": 7, "usd": 100},
    "dlog_512_dhe": {"precompute_days": 7, "per_target_seconds": 90},
}
DLOG_INDIVIDUAL_DELAY = 90  # simulated seconds billed per descended target
CERT_BITS = 192  # certificate key: beyond the desk-scale factoring budget
EXPORT_BITS = 64  # export RSA keys and DHE groups: squarely inside it
# baby-step table size over sqrt(q); sets the precompute/descent cost ratio
DLOG_TABLE_FACTOR = 16
# B: one baby step in B keeps its index; a descent walks back at most B - 1
DLOG_MARK_EVERY = 64
TEMP_RSA_ROTATION_SECONDS = 3600  # a server's temporary export-RSA key lives an hour


# --- RSA primitive (textbook, simulation-grade) ---

@dataclass(frozen=True)
class RsaKey:
    """Public key (n, e). A private key also carries its primes and CRT
    values, and every private operation runs mod p and mod q.
    """

    n: int
    e: int
    p: Optional[int] = None
    q: Optional[int] = None
    dp: Optional[int] = None  # e^-1 mod p - 1
    dq: Optional[int] = None  # e^-1 mod q - 1
    qinv: Optional[int] = None  # q^-1 mod p

    @classmethod
    def from_primes(cls, p: int, q: int, e: int) -> "RsaKey":
        """Private key over distinct primes p and q; ValueError when e is
        not invertible mod p - 1 or q - 1.
        """
        return cls(n=p * q, e=e, p=p, q=q, dp=pow(e, -1, p - 1),
                   dq=pow(e, -1, q - 1), qinv=pow(q, -1, p))

    def public(self) -> "RsaKey":
        return RsaKey(n=self.n, e=self.e)


def gen_rsa_keypair(bits: int, rng: Random) -> RsaKey:
    e = 65537
    while True:
        p = gen_prime(bits // 2, rng)
        q = gen_prime(bits - bits // 2, rng)
        if p == q or (p * q).bit_length() != bits:
            continue
        try:
            return RsaKey.from_primes(p, q, e)
        except ValueError:  # e shares a factor with p - 1 or q - 1
            continue


def _digest_int(data: bytes, n: int) -> int:
    return int.from_bytes(hashlib.sha256(data).digest(), "big") % n


def _rsa_private(key: RsaKey, x: int) -> int:
    """x^d mod n by the Chinese remainder theorem (Garner's recombination)."""
    m1 = pow(x, key.dp, key.p)
    m2 = pow(x, key.dq, key.q)
    return m2 + (key.qinv * (m1 - m2) % key.p) * key.q


def rsa_sign(key: RsaKey, data: bytes) -> int:
    if key.p is None:
        raise TlsError("signing needs the private key")
    return _rsa_private(key, _digest_int(data, key.n))


def rsa_verify(key: RsaKey, data: bytes, signature: int) -> bool:
    return pow(signature, key.e, key.n) == _digest_int(data, key.n)


def rsa_encrypt_int(key: RsaKey, m: int) -> int:
    if not 0 < m < key.n:
        raise TlsError("plaintext out of range")
    return pow(m, key.e, key.n)


def rsa_decrypt_int(key: RsaKey, c: int) -> int:
    if key.p is None:
        raise TlsError("decryption needs the private key")
    return _rsa_private(key, c)


def gen_export_dhe_params(bits: int, rng: Random) -> ElGamalParams:
    """Export-strength DHE group: `bits`-bit modulus with a deliberately
    short prime-order subgroup (about half the modulus bits) so that the
    precompute/descend discrete-log split is demonstrable at desk scale.
    """
    q_bits = max(16, bits // 2 - 2)
    p, q = gen_subgroup_prime(bits, q_bits, rng)
    g = find_subgroup_generator(p, q, rng)
    return ElGamalParams(p=p, g=g, q=q, bit_length=bits)


# --- handshake messages: `encoded` is made once, however many transcripts record it ---

@dataclass(frozen=True)
class ClientHello:
    nonce: bytes
    suites: tuple[CipherSuite, ...]

    @cached_property
    def encoded(self) -> bytes:
        return b"ch|" + self.nonce + b"|" + ",".join(s.value for s in self.suites).encode()


@dataclass(frozen=True)
class ServerHello:
    nonce: bytes
    suite: CipherSuite

    @cached_property
    def encoded(self) -> bytes:
        return b"sh|" + self.nonce + b"|" + self.suite.value.encode()


@dataclass(frozen=True)
class ServerKeyExchange:
    kind: str  # "rsa_temp" or "dhe"
    params: tuple[int, ...]  # rsa_temp: (n, e); dhe: (p, g, server_pub)
    signature: int

    @cached_property
    def encoded(self) -> bytes:
        return (b"skx|" + self.kind.encode() + b"|"
                + b",".join(str(v).encode() for v in self.params)
                + b"|" + str(self.signature).encode())


@dataclass(frozen=True)
class ClientKeyExchange:
    kind: str  # "rsa" or "dhe"
    payload: int  # rsa: encrypted premaster; dhe: client public value

    @cached_property
    def encoded(self) -> bytes:
        return b"ckx|" + self.kind.encode() + b"|" + str(self.payload).encode()


@dataclass(frozen=True)
class Finished:
    side: str  # "client" or "server"
    mac: bytes


def signed_blob(client_nonce: bytes, server_nonce: bytes, kind: str,
                params: tuple[int, ...]) -> bytes:
    """Exactly what the ServerKeyExchange signature covers. The negotiated
    suite is intentionally absent; that omission is the protocol flaw the
    export-DHE downgrade rides on.
    """
    return b"|".join([b"ske", client_nonce, server_nonce, kind.encode(),
                      *map(int_bytes, params)])


def derive_session_key(premaster: int, client_nonce: bytes, server_nonce: bytes) -> bytes:
    return hashlib.sha256(b"master" + int_bytes(premaster) + client_nonce
                          + server_nonce).digest()


def finished_mac(session_key: bytes, side: str, transcript: list[bytes]) -> bytes:
    h = hashlib.sha256(b"".join(transcript)).digest()
    return hmac_mod.new(session_key, b"finished:" + side.encode() + h, hashlib.sha256).digest()


# --- configs and server runtime ---

@dataclass(frozen=True)
class ServerTlsConfig:
    cert_key: RsaKey
    enabled_suites: frozenset[CipherSuite]
    dhe_params: Optional[ElGamalParams] = None
    export_dhe_params: Optional[ElGamalParams] = None
    key_seed: int = 0


@dataclass(frozen=True)
class ClientTlsConfig:
    offered_suites: tuple[CipherSuite, ...]
    patched: bool = True


def make_server_config(suites: frozenset[CipherSuite], rng: Random) -> ServerTlsConfig:
    """Server identity plus key material sized so the certificate key is
    out of reach of the desk-scale factoring budget while export material
    is squarely inside it.
    """
    cert = gen_rsa_keypair(CERT_BITS, rng)
    dhe = None
    dhe_export = None
    if CipherSuite.DHE in suites:
        p, q = gen_subgroup_prime(128, 62, rng)
        g = find_subgroup_generator(p, q, rng)
        dhe = ElGamalParams(p=p, g=g, q=q, bit_length=128)
    if CipherSuite.DHE_EXPORT in suites:
        dhe_export = gen_export_dhe_params(EXPORT_BITS, rng)
    return ServerTlsConfig(
        cert_key=cert,
        enabled_suites=suites,
        dhe_params=dhe,
        export_dhe_params=dhe_export,
        key_seed=rng.getrandbits(64),
    )


class TlsServer:
    """Holds per-epoch temporary export-RSA keys. Epoch keys are derived
    deterministically from the config seed so whole runs replay.
    """

    def __init__(self, config: ServerTlsConfig):
        self.config = config
        self._epoch_keys: dict[int, RsaKey] = {}

    def temp_rsa_key(self, now: int) -> RsaKey:
        epoch = now // TEMP_RSA_ROTATION_SECONDS
        key = self._epoch_keys.get(epoch)
        if key is None:
            key_rng = Random(f"{self.config.key_seed}:epoch:{epoch}")
            key = gen_rsa_keypair(EXPORT_BITS, key_rng)
            self._epoch_keys[epoch] = key
        return key

    def connect(self, now: int) -> "ServerConnection":
        """A connection opened at simulated second `now`."""
        return ServerConnection(self.config, self.temp_rsa_key(now))


class ServerConnection:
    """One client connection. The temporary export-RSA key is pinned at
    connect time and reused for every renegotiation on this connection.
    """

    def __init__(self, config: ServerTlsConfig, pinned_temp_key: RsaKey):
        self.config = config
        self.pinned_temp_key = pinned_temp_key


# --- handshake state machines ---

class ClientHandshake:
    """Client side, driven message by message so an interposer can sit in
    the middle. Raises on any verification failure.
    """

    def __init__(self, config: ClientTlsConfig, rng: Random):
        self.config = config
        self.rng = rng
        self.nonce = rng.getrandbits(NONCE_LEN * 8).to_bytes(NONCE_LEN, "big")
        self.transcript_view: list[bytes] = []
        self.suite: Optional[CipherSuite] = None
        self.server_nonce: Optional[bytes] = None
        self.key_material: Optional[tuple] = None
        self.session_key: Optional[bytes] = None
        self.cert_key: Optional[RsaKey] = None

    def hello(self) -> ClientHello:
        msg = ClientHello(nonce=self.nonce, suites=self.config.offered_suites)
        self.transcript_view.append(msg.encoded)
        return msg

    def on_server_hello(self, msg: ServerHello, cert_key: RsaKey) -> None:
        if msg.suite not in self.config.offered_suites:
            raise NoCommonSuite(f"server chose {msg.suite.value}, not offered")
        self.suite = msg.suite
        self.server_nonce = msg.nonce
        self.cert_key = cert_key.public()
        self.transcript_view.append(msg.encoded)

    def on_server_key_exchange(self, msg: ServerKeyExchange) -> None:
        assert self.suite is not None and self.server_nonce is not None
        expects_ske = self.suite in (CipherSuite.RSA_EXPORT, CipherSuite.DHE,
                                     CipherSuite.DHE_EXPORT)
        if not expects_ske:
            # RSA key transport has no ServerKeyExchange. Accepting a
            # temporary export key here anyway is the client flaw behind
            # the export-RSA downgrade.
            if msg.kind != "rsa_temp" or self.config.patched:
                raise ClientPatched("unsolicited ServerKeyExchange rejected")
        blob = signed_blob(self.nonce, self.server_nonce, msg.kind, msg.params)
        if not rsa_verify(self.cert_key, blob, msg.signature):
            raise BadSignature("ServerKeyExchange signature invalid")
        self.key_material = (msg.kind, msg.params)
        self.transcript_view.append(msg.encoded)

    def client_key_exchange(self) -> ClientKeyExchange:
        assert self.suite is not None
        kind, params = self.key_material or (None, ())
        if kind == "rsa_temp" or kind is None and self.suite is CipherSuite.RSA:
            # key transport under the temporary key, or else the certificate key
            key = RsaKey(*params) if kind else self.cert_key
            premaster = self.rng.randrange(2, key.n - 1)
            msg = ClientKeyExchange(kind="rsa", payload=rsa_encrypt_int(key, premaster))
        elif kind == "dhe":
            p, g, server_pub = params
            xc = self.rng.randrange(2, p - 1)
            premaster = pow(server_pub, xc, p)
            msg = ClientKeyExchange(kind="dhe", payload=pow(g, xc, p))
        else:
            raise TlsError("no key material to respond to")
        self.transcript_view.append(msg.encoded)
        self.session_key = derive_session_key(premaster, self.nonce, self.server_nonce)
        return msg

    def finished(self) -> Finished:
        assert self.session_key is not None
        return Finished(side="client", mac=finished_mac(self.session_key, "client",
                                                        self.transcript_view))

    def on_server_finished(self, msg: Finished) -> None:
        expect = finished_mac(self.session_key, "server", self.transcript_view)
        if not hmac_mod.compare_digest(expect, msg.mac):
            raise FinishedMismatch("server Finished does not match client transcript")


class ServerHandshake:
    """Server side of one (re)negotiation on a connection."""

    def __init__(self, conn: ServerConnection, rng: Random):
        self.conn = conn
        self.config = conn.config
        self.rng = rng
        self.nonce = rng.getrandbits(NONCE_LEN * 8).to_bytes(NONCE_LEN, "big")
        self.transcript_view: list[bytes] = []
        self.suite: Optional[CipherSuite] = None
        self.client_nonce: Optional[bytes] = None
        self._dhe_secret: Optional[int] = None
        self._dhe_params: Optional[ElGamalParams] = None
        self.session_key: Optional[bytes] = None

    def on_client_hello(self, msg: ClientHello) -> ServerHello:
        self.client_nonce = msg.nonce
        self.transcript_view.append(msg.encoded)
        for suite in msg.suites:
            if suite in self.config.enabled_suites:
                self.suite = suite
                break
        if self.suite is None:
            raise NoCommonSuite("no client-offered suite is enabled")
        reply = ServerHello(nonce=self.nonce, suite=self.suite)
        self.transcript_view.append(reply.encoded)
        return reply

    def server_key_exchange(self) -> Optional[ServerKeyExchange]:
        if self.suite is CipherSuite.RSA:
            return None
        if self.suite is CipherSuite.RSA_EXPORT:
            temp = self.conn.pinned_temp_key
            kind, params = "rsa_temp", (temp.n, temp.e)
        else:
            dhe = (self.config.dhe_params if self.suite is CipherSuite.DHE
                   else self.config.export_dhe_params)
            if dhe is None:
                raise TlsError(f"no DHE parameters configured for {self.suite.value}")
            self._dhe_params = dhe
            self._dhe_secret = self.rng.randrange(2, dhe.q)
            server_pub = dhe.g_table(self._dhe_secret)
            kind, params = "dhe", (dhe.p, dhe.g, server_pub)
        blob = signed_blob(self.client_nonce, self.nonce, kind, params)
        msg = ServerKeyExchange(kind=kind, params=params,
                                signature=rsa_sign(self.config.cert_key, blob))
        self.transcript_view.append(msg.encoded)
        return msg

    def on_client_key_exchange(self, msg: ClientKeyExchange) -> None:
        if msg.kind == "rsa" and self.suite in (CipherSuite.RSA,
                                                CipherSuite.RSA_EXPORT):
            key = (self.conn.pinned_temp_key if self.suite is CipherSuite.RSA_EXPORT
                   else self.config.cert_key)
            if not 0 < msg.payload < key.n:
                raise FinishedMismatch("ClientKeyExchange payload out of range")
            premaster = rsa_decrypt_int(key, msg.payload)
        elif msg.kind == "dhe" and self._dhe_secret is not None:
            if not 0 < msg.payload < self._dhe_params.p:
                raise FinishedMismatch("ClientKeyExchange payload out of range")
            premaster = pow(msg.payload, self._dhe_secret, self._dhe_params.p)
        else:
            raise FinishedMismatch(
                f"ClientKeyExchange kind {msg.kind} does not fit suite "
                f"{self.suite.value}")
        self.transcript_view.append(msg.encoded)
        self.session_key = derive_session_key(premaster, self.client_nonce, self.nonce)

    def on_client_finished(self, msg: Finished) -> Finished:
        expect = finished_mac(self.session_key, "client", self.transcript_view)
        if not hmac_mod.compare_digest(expect, msg.mac):
            raise FinishedMismatch("client Finished does not match server transcript")
        return Finished(side="server", mac=finished_mac(self.session_key, "server",
                                                        self.transcript_view))


# --- handshake driver ---

Channel = Callable[[str, object], object]


def _identity_channel(direction: str, msg: object) -> object:
    return msg


def handshake(
    client_config: ClientTlsConfig,
    conn: ServerConnection,
    rng: Random,
    channel: Channel = _identity_channel,
) -> tuple[ClientHandshake, ServerHandshake]:
    """Run one full negotiation over `channel`, which sees every message in
    order and may return a substitute (a man-in-the-middle tap point).
    Raises the handshake errors; on success both sides hold equal keys.
    Returns the (client, server) state machines.
    """
    client = ClientHandshake(client_config, rng)
    server = ServerHandshake(conn, rng)
    ch = channel("c->s", client.hello())
    sh = channel("s->c", server.on_client_hello(ch))
    client.on_server_hello(sh, conn.config.cert_key)
    ske = server.server_key_exchange()
    if ske is not None:
        client.on_server_key_exchange(channel("s->c", ske))
    cke = channel("c->s", client.client_key_exchange())
    server.on_client_key_exchange(cke)
    cfin = channel("c->s", client.finished())
    sfin = channel("s->c", server.on_client_finished(cfin))
    client.on_server_finished(sfin)
    return client, server


def signature_oracle(conn: ServerConnection, victim_nonce: bytes,
                     rng: Random) -> tuple[bytes, ServerKeyExchange]:
    """Obtain the server's genuine signature over (victim nonce, fresh
    server nonce, pinned temp key) by renegotiating with the victim's
    nonce as our own. Returns (server_nonce, signed ServerKeyExchange).
    """
    server = ServerHandshake(conn, rng)
    hello = ClientHello(nonce=victim_nonce, suites=(CipherSuite.RSA_EXPORT,))
    server.on_client_hello(hello)
    ske = server.server_key_exchange()
    return server.nonce, ske


# --- cryptanalysis oracles ---

def factor_export_modulus(n: int, rng: Optional[Random] = None,
                          max_iters: int = 1 << 20) -> tuple[int, int]:
    """Factor an export-strength modulus within the iteration budget.
    Self-checking: returns (p, q) with p*q == n, both prime, p <= q.
    """
    if rng is None:
        rng = Random(0xFAC70)
    if n < 4:
        raise NotFactorable(f"{n} is not a semiprime")
    d = pollard_rho(n, rng, max_iters=max_iters)
    if d is None:
        raise NotFactorable(f"budget of {max_iters} iterations exhausted for {n.bit_length()}-bit modulus")
    p, q = sorted((d, n // d))
    if p * q != n or not (is_prime(p) and is_prime(q)):
        raise NotFactorable(f"{n} is not a product of two primes")
    return p, q


class BabySteps:
    """The baby steps g^j, j < table_size, at one fingerprint byte each.

    `slots` is an open-addressed table of 2^shift >= 8 * count bytes, so at
    most one slot in eight is taken. Step v sits in slot v & mask, or in the
    first free slot after it (linear probing), and the slot holds v's
    fingerprint byte, v >> shift & 255 or 1; a zero byte is a free slot. A
    lookup never misses a stored step, but a matching byte is only a
    candidate: another value in the same probe run may share it.
    """

    __slots__ = ("slots", "mask", "shift", "count")

    def __init__(self, count: int):
        self.shift = (8 * count - 1).bit_length()
        self.mask = (1 << self.shift) - 1
        self.slots = bytearray(1 << self.shift)
        self.count = count

    def __len__(self) -> int:
        return self.count


@dataclass
class PrecompTable:
    """Reusable baby-step table for one fixed group. Deliberately oversized
    (DLOG_TABLE_FACTOR times sqrt(q)) so each individual descent is a small
    fraction of the precompute cost.

    `table` keeps one fingerprint byte per baby step g^j, j < table_size,
    and `marks` maps every DLOG_MARK_EVERY-th step, g^(kB), back to kB. A
    giant step whose byte is in the table is only a candidate: it walks
    down by `g_inv`, at most B - 1 multiplications, to a mark. Reaching
    g^(kB) after r steps proves the giant step is g^(kB + r), so the
    exponent found is exact; a true baby step always reaches its mark, and
    a false match that reaches none lets the giant steps go on.
    """

    params: ElGamalParams
    table: BabySteps
    marks: dict[int, int]
    table_size: int
    stride_inv: int  # g^(-table_size) mod p
    g_inv: int  # g^(-1) mod p


def dlog_precompute(params: ElGamalParams) -> PrecompTable:
    p, g, q = params.p, params.g, params.q
    size = DLOG_TABLE_FACTOR * math.isqrt(q)
    table = BabySteps(size)
    slots, mask, shift = table.slots, table.mask, table.shift
    acc = 1
    for _ in range(size):
        s = acc & mask
        while slots[s]:
            s = s + 1 & mask
        slots[s] = acc >> shift & 255 or 1
        acc = acc * g % p
    # acc == g^size here
    marks: dict[int, int] = {}
    stride = pow(g, DLOG_MARK_EVERY, p)
    mark = 1
    for k in range(0, size, DLOG_MARK_EVERY):
        marks[mark] = k
        mark = mark * stride % p
    return PrecompTable(params=params, table=table, marks=marks, table_size=size,
                        stride_inv=pow(acc, -1, p), g_inv=pow(g, -1, p))


def dlog_individual(y: int, table: PrecompTable) -> int:
    """Solve g^x = y (mod p) using the precomputed table. NoSolution if y
    lies outside the order-q subgroup the table was built for.
    """
    p, q = table.params.p, table.params.q
    if not 0 < y < p or pow(y, q, p) != 1:
        raise NoSolution("target is outside the precomputed subgroup")
    steps, size, stride_inv = table.table, table.table_size, table.stride_inv
    slots, mask, shift = steps.slots, steps.mask, steps.shift
    marks, g_inv = table.marks, table.g_inv
    cur = y
    for i in range(q // size + 2):
        s = cur & mask
        byte = slots[s]
        if byte:
            fingerprint = cur >> shift & 255 or 1
            while byte and byte != fingerprint:
                s = s + 1 & mask
                byte = slots[s]
            if byte:
                # a candidate: walk down to the mark g^(kB) below it, if any
                walk, r = cur, 0
                while walk not in marks and r < DLOG_MARK_EVERY - 1:
                    walk = walk * g_inv % p
                    r += 1
                if walk in marks:
                    return (i * size + marks[walk] + r) % q
        cur = cur * stride_inv % p
    raise DlogBudgetExceeded("giant-step walk exhausted")  # unreachable for subgroup members


# --- downgrade attacks ---

@dataclass
class MitmResult:
    success: bool
    error: Optional[str] = None
    attacker_session_key: Optional[bytes] = None
    client_session_key: Optional[bytes] = None
    server_session_key: Optional[bytes] = None
    client_suite: Optional[CipherSuite] = None  # what the victim believes
    simulated_delay: int = 0


def mitm_freak(
    client_config: ClientTlsConfig,
    oracle_conn: ServerConnection,
    factored_temp_key: RsaKey,
    rng: Random,
) -> MitmResult:
    """Export-RSA downgrade against one victim handshake.

    The attacker impersonates the server outright: he relays the victim's
    nonce through the signature oracle on his own long-lived connection,
    presents the pinned (pre-factored) temporary key with that genuine
    signature, decrypts the victim's key exchange, and forges the server
    Finished. Needs an unpatched victim and the factored pinned key.
    """
    client = ClientHandshake(client_config, rng)
    hello = client.hello()
    preferred = next((s for s in client_config.offered_suites
                      if s in (CipherSuite.RSA, CipherSuite.RSA_EXPORT)), None)
    if preferred is None:
        return MitmResult(success=False, error="victim offers no RSA-family suite")
    try:
        server_nonce, ske = signature_oracle(oracle_conn, hello.nonce, rng)
    except TlsError as exc:
        return MitmResult(success=False, error=f"{type(exc).__name__}: {exc}")

    client.on_server_hello(ServerHello(nonce=server_nonce, suite=preferred),
                           oracle_conn.config.cert_key)
    try:
        client.on_server_key_exchange(ske)
    except ClientPatched as exc:
        return MitmResult(success=False, error=f"ClientPatched: {exc}")

    cke = client.client_key_exchange()
    if factored_temp_key.p is None or factored_temp_key.n != ske.params[0]:
        return MitmResult(success=False, error="temp key not factored; cannot decrypt")
    premaster = rsa_decrypt_int(factored_temp_key, cke.payload)
    attacker_key = derive_session_key(premaster, hello.nonce, server_nonce)

    forged = Finished(side="server",
                      mac=finished_mac(attacker_key, "server", client.transcript_view))
    client.on_server_finished(forged)  # completes with no client-visible error
    return MitmResult(success=True, attacker_session_key=attacker_key,
                      client_session_key=client.session_key, client_suite=client.suite)


class _LogjamInterposer:
    """The `handshake` channel of an export-DHE man in the middle.

    The two ends hash different hellos into their Finished, so it keeps
    each end's view from the messages it relays and forges every Finished
    over the view of the end that receives it.
    """

    def __init__(self, preferred: CipherSuite, table: PrecompTable):
        self.preferred = preferred
        self.table = table
        self.views: dict[str, list[bytes]] = {"client": [], "server": []}
        self.nonces: dict[str, bytes] = {}
        self.server_pub: Optional[int] = None
        self.attacker_key: Optional[bytes] = None

    def __call__(self, direction: str, msg: object) -> object:
        sender, receiver = ("client", "server") if direction == "c->s" \
            else ("server", "client")
        if isinstance(msg, Finished):
            return Finished(side=msg.side, mac=finished_mac(
                self.attacker_key, msg.side, self.views[receiver]))
        relayed = msg
        if isinstance(msg, ClientHello):
            self.nonces[sender] = msg.nonce
            relayed = ClientHello(nonce=msg.nonce, suites=(CipherSuite.DHE_EXPORT,))
        elif isinstance(msg, ServerHello):
            self.nonces[sender] = msg.nonce
            relayed = ServerHello(nonce=msg.nonce, suite=self.preferred)
        elif isinstance(msg, ServerKeyExchange):
            # relayed untouched: the signature does not cover the suite
            if self.table.params.p != msg.params[0]:
                raise DlogBudgetExceeded("precompute table bound to a different modulus")
            self.server_pub = msg.params[2]
        elif isinstance(msg, ClientKeyExchange):
            server_secret = dlog_individual(self.server_pub, self.table)
            premaster = pow(msg.payload, server_secret, self.table.params.p)
            self.attacker_key = derive_session_key(
                premaster, self.nonces["client"], self.nonces["server"])
        self.views[sender].append(msg.encoded)
        self.views[receiver].append(relayed.encoded)
        return relayed


def mitm_logjam(
    client_config: ClientTlsConfig,
    conn: ServerConnection,
    table: PrecompTable,
    rng: Random,
) -> MitmResult:
    """Export-DHE downgrade against any client, patched or not.

    The attacker sits on the channel of an ordinary handshake: he rewrites
    the hello to offer only export DHE, lets the server's signed key
    exchange through untouched (the signature does not cover the suite),
    rewrites the server hello back to the suite the victim asked for,
    descends the server's ephemeral secret with the precomputed table, and
    forges both Finished messages.
    """
    preferred = next((s for s in client_config.offered_suites
                      if s in (CipherSuite.DHE, CipherSuite.DHE_EXPORT)), None)
    if preferred is None:
        return MitmResult(success=False, error="victim offers no DHE-family suite")
    interposer = _LogjamInterposer(preferred, table)
    try:
        client, server = handshake(client_config, conn, rng, interposer)
    except NoCommonSuite as exc:
        return MitmResult(success=False, error=f"NoCommonSuite: {exc}")
    return MitmResult(success=True, attacker_session_key=interposer.attacker_key,
                      client_session_key=client.session_key,
                      server_session_key=server.session_key,
                      client_suite=client.suite,  # the strong suite, as the victim believes
                      simulated_delay=DLOG_INDIVIDUAL_DELAY)


# --- record layer ---

def _record_key(session_key: bytes, seq: int) -> bytes:
    return hashlib.sha256(b"record-enc" + session_key + seq.to_bytes(8, "big")).digest()


def encrypt_record(session_key: bytes, seq: int, plaintext: bytes) -> bytes:
    body = keystream_xor(_record_key(session_key, seq), plaintext)
    mac = hmac_mod.new(session_key, b"record" + seq.to_bytes(8, "big") + body,
                       hashlib.sha256).digest()[:16]
    return body + mac


def decrypt_record(session_key: bytes, seq: int, blob: bytes) -> bytes:
    if len(blob) < 16:
        raise RecordTampered("record too short")
    body, mac = blob[:-16], blob[-16:]
    expect = hmac_mod.new(session_key, b"record" + seq.to_bytes(8, "big") + body,
                          hashlib.sha256).digest()[:16]
    if not hmac_mod.compare_digest(expect, mac):
        raise RecordTampered("record MAC mismatch")
    return keystream_xor(_record_key(session_key, seq), body)
