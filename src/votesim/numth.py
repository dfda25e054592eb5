"""Number-theory plumbing shared by the envelope and handshake layers.

Primality testing is delegated to sympy; everything here must stay
deterministic for a fixed random.Random instance so whole runs replay
bit-for-bit from a seed.
"""

import math
from random import Random

from sympy import isprime


def gen_prime(bits: int, rng: Random) -> int:
    """Random prime with exactly `bits` bits."""
    if bits < 2:
        raise ValueError("need at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if isprime(candidate):
            return candidate


def gen_safe_prime(bits: int, rng: Random) -> tuple[int, int]:
    """Random safe prime p = 2q + 1 with exactly `bits` bits; returns (p, q)."""
    while True:
        q = gen_prime(bits - 1, rng)
        p = 2 * q + 1
        if p.bit_length() == bits and isprime(p):
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
            if p.bit_length() == p_bits and isprime(p):
                return p, q


def find_subgroup_generator(p: int, q: int, rng: Random) -> int:
    """Generator of the order-q subgroup of Z_p^* (q must divide p - 1)."""
    cofactor = (p - 1) // q
    while True:
        h = rng.randrange(2, p - 1)
        g = pow(h, cofactor, p)
        if g != 1:
            return g


def sqrt_mod_3mod4(a: int, p: int) -> int:
    """Square root of a modulo a prime p with p % 4 == 3."""
    if p % 4 != 3:
        raise ValueError("modulus must be 3 mod 4")
    return pow(a, (p + 1) // 4, p)


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

