"""numth.is_prime against sympy.isprime as an oracle.

sympy is a test-only dependency: votesim's key and group generation must
decide every candidate exactly as sympy.isprime did, so every RNG draw,
key and report stays the same.
"""

from random import Random

import pytest

from votesim import numth
from votesim.envelope import gen_params
from votesim.minitls import gen_export_dhe_params, gen_rsa_keypair

sympy = pytest.importorskip("sympy")

MR_EXACT_BELOW = 3317044064679887385961981

# bit lengths votesim draws primes at, and those either side of the
# thresholds between the tests (2^64, the Miller-Rabin bound near 2^81.5)
BIT_LENGTHS = (31, 32, 33, 63, 64, 65, 80, 81, 82, 95, 96, 97, 127, 128, 192)

HARD = (
    # strong pseudoprimes to base 2
    2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051,
    # strong Lucas pseudoprimes (Selfridge parameters)
    5459, 5777, 10877, 16109, 18971,
    # Carmichael numbers
    561, 1105, 1729,
    # divisors of a base below 2^64, where that base reduces to 0
    14089, 407521, 299210837,
    # strong pseudoprimes to the first 12 and the first 13 prime bases
    318665857834031151167461,
    MR_EXACT_BELOW - 2, MR_EXACT_BELOW - 1, MR_EXACT_BELOW,
    MR_EXACT_BELOW + 1, MR_EXACT_BELOW + 2,
    # prime squares above the bound
    (2 ** 61 - 1) ** 2, (2 ** 89 - 1) ** 2,
)

# 2^p - 1 for prime p is a strong pseudoprime to base 2 whenever it is
# composite, so above the bound only the Lucas step can reject these
MERSENNE = tuple(2 ** p - 1 for p in range(2, 260) if sympy.isprime(p))


def test_agrees_below_one_hundred_thousand():
    assert [n for n in range(-5, 10 ** 5)
            if numth.is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("bits", BIT_LENGTHS)
def test_agrees_on_random_odd_numbers(bits):
    rng = Random(bits)
    draws = [rng.getrandbits(bits) | (1 << (bits - 1)) | 1 for _ in range(2000)]
    assert [n for n in draws if numth.is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n", HARD + MERSENNE)
def test_agrees_on_hard_inputs(n):
    assert numth.is_prime(n) == sympy.isprime(n)


def test_nine_prime_base_pseudoprime_rejected_below_two_to_the_64():
    n = 3825123056546413051
    assert n < 2 ** 64 and not sympy.isprime(n)
    assert all(numth._strong_probable_prime(n, a) for a in numth._SMALL_PRIMES[:9])
    assert not numth.is_prime(n)


def test_largest_64_bit_prime():
    n = 2 ** 64 - 59
    assert numth.is_prime(n) and sympy.isprime(n)


@pytest.mark.parametrize("side", [-1, 1])
def test_agrees_either_side_of_two_to_the_64(side):
    rng = Random(64 + side)
    draws = [2 ** 64 + side * (rng.getrandbits(40) | 1) for _ in range(3000)]
    assert [n for n in draws if numth.is_prime(n) != sympy.isprime(n)] == []


def test_seven_rounds_below_two_to_the_64(monkeypatch):
    rounds = []
    strong = numth._strong_probable_prime
    monkeypatch.setattr(numth, "_strong_probable_prime",
                        lambda n, a: rounds.append(a) or strong(n, a))
    assert numth.is_prime(2 ** 64 - 59)
    assert len(rounds) == 7
    rounds.clear()
    assert numth.is_prime(2 ** 64 + 13)
    assert rounds == list(numth._MR_BASES)


def test_bases_are_the_published_ones():
    # no input this file can afford is a strong pseudoprime to all bases but
    # one, so behaviour alone would not notice a dropped base: pin them.
    # Sinclair's seven bases below 2^64, and the first 13 primes, exact
    # below psi_13 (Sorenson and Webster, Math. Comp. 86, 2017)
    assert numth._MR_BASES_64 == (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
    assert numth._MR_BASES == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    assert numth._MR_EXACT_BELOW == 3317044064679887385961981


def test_hard_inputs_reach_both_tests():
    # the composite Mersenne numbers above the bound pass base 2 and are
    # rejected by the Lucas step alone
    above = [n for n in MERSENNE if n >= MR_EXACT_BELOW and not sympy.isprime(n)]
    assert len(above) > 20
    assert all(numth._strong_probable_prime(n, 2) for n in above)
    assert not any(numth._strong_lucas_probable_prime(n) for n in above)
    assert all(numth._strong_lucas_probable_prime(n) for n in (5459, 5777, 10877))


def generated(seed):
    rng = Random(seed)
    return (tuple(gen_params(bits, rng) for bits in (32, 64, 128)),
            tuple(gen_rsa_keypair(bits, rng) for bits in (64, 192)),
            gen_export_dhe_params(64, rng),
            rng.getstate())


def test_key_generation_draws_as_with_sympy(monkeypatch):
    ours = [generated(seed) for seed in range(50)]
    monkeypatch.setattr(numth, "is_prime", sympy.isprime)
    assert [generated(seed) for seed in range(50)] == ours
