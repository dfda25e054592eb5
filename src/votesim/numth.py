"""Number-theory plumbing shared by the envelope and handshake layers.

`is_prime` is exact below 3317044064679887385961981. Below 2^64 it runs
Miller-Rabin on Sinclair's seven bases 2, 325, 9375, 28178, 450775,
9780504 and 1795265022, each reduced mod n and skipped where that leaves
0; no composite below 2^64 passes all seven (Sinclair, 2011, checked
against Feitsma's list of base-2 strong pseudoprimes below 2^64). Up to
the bound it runs the first 13 prime bases, which no composite below it
passes (Sorenson and Webster, "Strong pseudoprimes to twelve prime
bases", Math. Comp. 86, 2017). Above it runs the strong Baillie-PSW test,
a strong base-2 Miller-Rabin round plus a strong Lucas test with
Selfridge's parameters (Baillie and Wagstaff, "Lucas pseudoprimes",
Math. Comp. 35, 1980), for which no counterexample is known.

Everything here must stay deterministic for a fixed random.Random
instance so whole runs replay bit-for-bit from a seed.
"""

import math
from random import Random

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_BASES = _SMALL_PRIMES[:13]
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """True iff n is prime (see the module docstring for the tests used)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 53 * 53:
        return True
    if n < 1 << 64:
        return all(_strong_probable_prime(n, a % n) for a in _MR_BASES_64 if a % n)
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    if math.isqrt(n) ** 2 == n:
        return False  # no Selfridge D exists for a square
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: False proves the odd n > a composite."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas round with Selfridge's parameters: P = 1 and
    Q = (1 - D) / 4 for the first D in 5, -7, 9, -11, ... with (D/n) = -1.
    n is odd, not a square and larger than every |D| tried. False proves
    n composite.
    """
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0:
            return False  # gcd(d, n) > 1 and |d| < n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k and Q^k mod n, doubling k from 1 up to (n + 1) >> s
    u, v, qk = 1, 1, q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, d * u + v
            if u & 1:
                u += n
            if v & 1:
                v += n
            u, v, qk = (u >> 1) % n, (v >> 1) % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def gen_prime(bits: int, rng: Random) -> int:
    """Random prime with exactly `bits` bits."""
    if bits < 2:
        raise ValueError("need at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


def gen_safe_prime(bits: int, rng: Random) -> tuple[int, int]:
    """Random safe prime p = 2q + 1 with exactly `bits` bits; returns (p, q)."""
    while True:
        q = gen_prime(bits - 1, rng)
        p = 2 * q + 1
        if p.bit_length() == bits and is_prime(p):
            return p, q


def gen_subgroup_prime(p_bits: int, q_bits: int, rng: Random) -> tuple[int, int]:
    """Prime p of `p_bits` bits with a prime q of `q_bits` bits dividing p - 1.

    Returns (p, q). Used where a deliberately small subgroup is wanted.
    """
    if q_bits >= p_bits - 1:
        raise ValueError("subgroup must be strictly smaller than the modulus")
    while True:
        q = gen_prime(q_bits, rng)
        for _ in range(400):
            cofactor = rng.getrandbits(p_bits - q_bits) | (1 << (p_bits - q_bits - 1))
            cofactor &= ~1  # even cofactor keeps p odd
            p = q * cofactor + 1
            if p.bit_length() == p_bits and is_prime(p):
                return p, q


def find_subgroup_generator(p: int, q: int, rng: Random) -> int:
    """Generator of the order-q subgroup of Z_p^* (q must divide p - 1)."""
    cofactor = (p - 1) // q
    while True:
        h = rng.randrange(2, p - 1)
        g = pow(h, cofactor, p)
        if g != 1:
            return g


class FixedBase:
    """`base^e mod p` for every e in [0, bound), by table lookup.

    Row i of the table holds base^(j * 256^i) mod p for j in 0..255, so
    base^e is the product of one entry per byte of e: at most
    ceil(bits(bound - 1) / 8) multiplications, against a square and a
    multiply per bit for `pow` (Brickell, Gordon, McCurley and Wilson,
    EUROCRYPT 1992; Handbook of Applied Cryptography, 14.6.3). Worth
    building only for a base that serves many exponents.
    """

    __slots__ = ("p", "bound", "_width", "_rows")

    def __init__(self, base: int, p: int, bound: int):
        self.p = p
        self.bound = bound
        self._width = ((bound - 1).bit_length() + 7) // 8
        rows = []
        step = base  # base^(256^i)
        for _ in range(self._width):
            row = [1] * 256
            for j in range(1, 256):
                row[j] = row[j - 1] * step % p
            rows.append(row)
            step = row[255] * step % p
        self._rows = rows

    def __call__(self, e: int) -> int:
        if not 0 <= e < self.bound:
            raise ValueError(f"exponent {e} outside [0, {self.bound})")
        p = self.p
        acc = 1
        for row, byte in zip(self._rows, e.to_bytes(self._width, "little")):
            if byte:
                acc = acc * row[byte] % p
        return acc


def pollard_rho(n: int, rng: Random, max_iters: int = 1 << 20) -> int | None:
    """Brent-cycle Pollard rho. Returns a nontrivial divisor of n, or None
    once `max_iters` squarings have been spent.
    """
    if n % 2 == 0:
        return 2
    if n < 2:
        return None
    spent = 0
    while spent < max_iters:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and spent < max_iters:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            # backtrack: the batched gcd jumped past the factor
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None

