"""The Paillier public-key cryptosystem [18].

Paillier is additively homomorphic, which is exactly what the paper's SMC
protocol needs (Section V-A): given ``E(m1)`` and ``E(m2)`` anyone holding
the public key can compute ``E(m1 + m2)`` and, for a known constant ``c``,
``E(c * m1)`` — requirements (1) and (2) of the paper's homomorphic
encryption definition.

Implementation notes:

- the generator is fixed to ``g = n + 1``, the standard simplification:
  ``g^m = 1 + m*n (mod n^2)`` makes encryption one multiplication plus the
  ``r^n`` blinding term;
- decryption uses the CRT when the key holds ``p`` and ``q`` (two
  half-size exponentiations mod ``p²`` and ``q²``, recombined with
  Garner's formula), and otherwise the textbook form
  ``m = L(c^λ mod n²) · μ mod n`` with ``L(u) = (u - 1) / n``;
- every modular exponentiation runs through :mod:`repro.crypto.modexp`
  (libgmp when present, the built-in ``pow`` otherwise, with identical
  results); the private exponents ``p - 1``, ``q - 1`` and ``λ`` use its
  constant-time variant;
- ciphertexts are :class:`EncryptedNumber` objects supporting ``+`` (both
  ciphertext-ciphertext and ciphertext-plaintext) and ``*`` by a plaintext
  scalar, so protocol code reads like arithmetic;
- signed values are represented by the upper half of the plaintext space
  (see :meth:`PaillierPrivateKey.decrypt_signed`).

Key sizes: the paper benchmarks 1024-bit keys; tests use smaller keys for
speed, generated from a seeded RNG for reproducibility.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.crypto.modexp import powmod, powmod_secret
from repro.crypto.primes import generate_prime
from repro.errors import CryptoError


@dataclass(frozen=True)
class PaillierPublicKey:
    """The public half: modulus ``n`` (with ``g = n + 1`` implied)."""

    n: int

    @property
    def n_squared(self) -> int:
        """The ciphertext modulus ``n^2``."""
        return self.n * self.n

    @property
    def max_plaintext(self) -> int:
        """Largest raw plaintext: ``n - 1``."""
        return self.n - 1

    @property
    def bits(self) -> int:
        """Modulus size in bits."""
        return self.n.bit_length()

    @property
    def ciphertext_bytes(self) -> int:
        """Wire size of one ciphertext (an element mod ``n^2``)."""
        return (self.n_squared.bit_length() + 7) // 8

    def _random_unit(self, rng: random.Random) -> int:
        """A blinding factor ``r`` with ``gcd(r, n) = 1``."""
        while True:
            r = rng.randrange(1, self.n)
            if math.gcd(r, self.n) == 1:
                return r

    def encrypt(
        self, plaintext: int, rng: random.Random | None = None
    ) -> "EncryptedNumber":
        """Encrypt ``plaintext`` (an integer mod ``n``)."""
        if not 0 <= plaintext < self.n:
            raise CryptoError(
                f"plaintext {plaintext} outside [0, n); encode signed values first"
            )
        if rng is None:
            rng = random.SystemRandom()
        n_squared = self.n_squared
        r = self._random_unit(rng)
        # g^m = (n+1)^m = 1 + m*n (mod n^2)
        g_m = (1 + plaintext * self.n) % n_squared
        ciphertext = (g_m * powmod(r, self.n, n_squared)) % n_squared
        return EncryptedNumber(self, ciphertext)

    def encrypt_signed(
        self, value: int, rng: random.Random | None = None
    ) -> "EncryptedNumber":
        """Encrypt a signed integer (two's-complement-style wrap mod n)."""
        return self.encrypt(value % self.n, rng)


@dataclass(frozen=True)
class PaillierPrivateKey:
    """The private half: Carmichael ``λ`` and its inverse ``μ`` mod n."""

    public_key: PaillierPublicKey
    lam: int
    mu: int
    #: Prime factors of n; when present, decryption uses the ~4x faster
    #: CRT path (two half-size exponentiations instead of one full-size).
    p: int | None = None
    q: int | None = None

    def __post_init__(self) -> None:
        if self.p is None or self.q is None:
            object.__setattr__(self, "_crt", None)
            return
        # Precompute the CRT constants (standard Paillier optimization):
        # with L_p(x) = (x - 1) / p and g = n + 1,
        # h_p = L_p(g^(p-1) mod p^2)^(-1) mod p, likewise h_q.
        p, q = self.p, self.q
        n = self.public_key.n
        p_squared = p * p
        q_squared = q * q
        h_p = pow(((1 + (p - 1) * n) % p_squared - 1) // p, -1, p)
        h_q = pow(((1 + (q - 1) * n) % q_squared - 1) // q, -1, q)
        p_inverse = pow(p, -1, q)
        object.__setattr__(
            self, "_crt", (p_squared, q_squared, h_p, h_q, p_inverse)
        )

    def decrypt(self, encrypted: "EncryptedNumber") -> int:
        """Decrypt to the raw plaintext in ``[0, n)``."""
        if encrypted.public_key != self.public_key:
            raise CryptoError("ciphertext was produced under a different key")
        if self._crt is not None:
            return self._decrypt_crt(encrypted.ciphertext)
        n = self.public_key.n
        n_squared = self.public_key.n_squared
        u = powmod_secret(encrypted.ciphertext, self.lam, n_squared)
        l_of_u = (u - 1) // n
        return (l_of_u * self.mu) % n

    def _decrypt_crt(self, ciphertext: int) -> int:
        """CRT decryption: two half-size exponentiations, then recombine.

        The plaintext mod p is ``L_p(c^(p-1) mod p^2) * h_p mod p``,
        likewise mod q; Garner's formula recombines. The ``r^n`` blinding
        term vanishes: ``(r^n)^(p-1) = 1 (mod p^2)``, because ``n(p-1)``
        is a multiple of ``p(p-1)``, the order of the units mod ``p^2``.
        """
        p, q = self.p, self.q
        p_squared, q_squared, h_p, h_q, p_inverse = self._crt
        m_p = ((powmod_secret(ciphertext, p - 1, p_squared) - 1) // p * h_p) % p
        m_q = ((powmod_secret(ciphertext, q - 1, q_squared) - 1) // q * h_q) % q
        # Garner: m = m_p + p * ((m_q - m_p) * p^(-1) mod q).
        return (m_p + p * (((m_q - m_p) * p_inverse) % q)) % self.public_key.n

    def decrypt_signed(self, encrypted: "EncryptedNumber") -> int:
        """Decrypt interpreting the upper half of ``[0, n)`` as negative."""
        raw = self.decrypt(encrypted)
        n = self.public_key.n
        if raw > n // 2:
            return raw - n
        return raw


@dataclass(frozen=True)
class PaillierKeyPair:
    """A generated public/private key pair."""

    public_key: PaillierPublicKey
    private_key: PaillierPrivateKey

    @classmethod
    def generate(
        cls, bits: int = 1024, rng: random.Random | None = None
    ) -> "PaillierKeyPair":
        """Generate a key pair with a *bits*-bit modulus.

        The paper's experiments use ``bits=1024``. The two primes split
        *bits* between them (``bits // 2`` each for even sizes), and
        :func:`~repro.crypto.primes.generate_prime` forces their top two
        bits, so the modulus has exactly *bits* bits and the first pair
        drawn is kept. The size, ``p != q`` and ``gcd(n, λ) = 1`` checks
        still guard the retry loop.
        """
        if rng is None:
            rng = random.SystemRandom()
        half = bits // 2
        while True:
            p = generate_prime(bits - half, rng)
            q = generate_prime(half, rng)
            if p == q:
                continue
            n = p * q
            if n.bit_length() != bits:
                continue
            lam = math.lcm(p - 1, q - 1)
            if math.gcd(n, lam) != 1:
                continue
            # With g = n + 1: mu = (L(g^lam mod n^2))^-1 = lam^-1 mod n.
            mu = pow(lam, -1, n)
            public_key = PaillierPublicKey(n)
            private_key = PaillierPrivateKey(public_key, lam, mu, p=p, q=q)
            return cls(public_key, private_key)


class EncryptedNumber:
    """A Paillier ciphertext with homomorphic operator sugar.

    ``a + b`` multiplies ciphertexts (adds plaintexts); ``a + 3`` adds a
    plaintext constant; ``a * 3`` scales the plaintext; ``-a`` negates.
    All operations are the paper's ``+_h`` and ``x_h``.
    """

    __slots__ = ("public_key", "ciphertext")

    def __init__(self, public_key: PaillierPublicKey, ciphertext: int):
        self.public_key = public_key
        self.ciphertext = ciphertext % public_key.n_squared

    def __add__(self, other) -> "EncryptedNumber":
        n_squared = self.public_key.n_squared
        if isinstance(other, EncryptedNumber):
            if other.public_key != self.public_key:
                raise CryptoError("cannot add ciphertexts under different keys")
            return EncryptedNumber(
                self.public_key, (self.ciphertext * other.ciphertext) % n_squared
            )
        if isinstance(other, int):
            g_m = (1 + (other % self.public_key.n) * self.public_key.n) % n_squared
            return EncryptedNumber(
                self.public_key, (self.ciphertext * g_m) % n_squared
            )
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, scalar) -> "EncryptedNumber":
        if not isinstance(scalar, int):
            return NotImplemented
        exponent = scalar % self.public_key.n
        return EncryptedNumber(
            self.public_key,
            powmod(self.ciphertext, exponent, self.public_key.n_squared),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "EncryptedNumber":
        return self * (self.public_key.n - 1)

    def __sub__(self, other) -> "EncryptedNumber":
        if isinstance(other, EncryptedNumber):
            return self + (-other)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def rerandomize(self, rng: random.Random | None = None) -> "EncryptedNumber":
        """Refresh the blinding factor without changing the plaintext.

        Protocol parties re-randomize before forwarding derived ciphertexts
        so an observer cannot correlate them with the inputs.
        """
        if rng is None:
            rng = random.SystemRandom()
        r = self.public_key._random_unit(rng)
        n_squared = self.public_key.n_squared
        blinding = powmod(r, self.public_key.n, n_squared)
        blinded = (self.ciphertext * blinding) % n_squared
        return EncryptedNumber(self.public_key, blinded)

    def __repr__(self) -> str:
        return f"EncryptedNumber(<{self.public_key.bits}-bit key>)"
