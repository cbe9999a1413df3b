"""Primality testing and prime generation for Paillier key material.

Miller–Rabin with the deterministic witness sets that are proven exact for
64-bit integers, falling back to random witnesses above that range. Prime
*generation* seeds candidates from a caller-supplied RNG so tests are
reproducible, but the library defaults to ``secrets``-grade randomness via
``random.SystemRandom`` when no RNG is given. Each round exponentiates
with :func:`~repro.crypto.modexp.powmod_secret`, because a candidate that
passes becomes a secret factor of the modulus.
"""

from __future__ import annotations

import random

from repro.crypto.modexp import powmod_secret
from repro.errors import CryptoError

# Small primes for cheap trial division before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

# Deterministic witnesses: exact for n < 3,317,044,064,679,887,385,961,981.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

#: Random rounds for large candidates; error probability <= 4^-40.
MILLER_RABIN_ROUNDS = 40


def _miller_rabin_round(candidate: int, witness: int, odd: int, twos: int) -> bool:
    """One Miller-Rabin round; True when *candidate* passes for *witness*."""
    x = powmod_secret(witness, odd, candidate)
    if x in (1, candidate - 1):
        return True
    for _ in range(twos - 1):
        x = (x * x) % candidate
        if x == candidate - 1:
            return True
    return False


def is_probable_prime(
    candidate: int, rng: random.Random | None = None
) -> bool:
    """Miller–Rabin primality test.

    Deterministic (and exact) below ~3.3e24; probabilistic with
    :data:`MILLER_RABIN_ROUNDS` random witnesses above.
    """
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    odd = candidate - 1
    twos = 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    if candidate < _DETERMINISTIC_BOUND:
        witnesses = _DETERMINISTIC_WITNESSES
    else:
        if rng is None:
            rng = random.SystemRandom()
        witnesses = tuple(
            rng.randrange(2, candidate - 1) for _ in range(MILLER_RABIN_ROUNDS)
        )
    return all(
        _miller_rabin_round(candidate, witness, odd, twos)
        for witness in witnesses
    )


def generate_prime(bits: int, rng: random.Random | None = None) -> int:
    """Generate a random prime with exactly *bits* bits.

    Candidates are odd with the top *two* bits forced (as OpenSSL does for
    RSA primes), so each prime exceeds ``1.5 * 2^(bits-1)`` and the product
    of two such primes always has exactly ``2 * bits`` bits. With only the
    top bit forced, about 39 % of products would come out one bit short.
    """
    if bits < 8:
        raise CryptoError(f"prime size {bits} bits is too small")
    if rng is None:
        rng = random.SystemRandom()
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (0b11 << (bits - 2)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


def generate_distinct_primes(
    bits: int, count: int, rng: random.Random | None = None
) -> list[int]:
    """Generate *count* distinct primes of *bits* bits each."""
    primes: list[int] = []
    while len(primes) < count:
        prime = generate_prime(bits, rng)
        if prime not in primes:
            primes.append(prime)
    return primes
