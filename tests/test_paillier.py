"""Tests for the Paillier cryptosystem, including hypothesis properties."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.paillier as paillier
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.primes import generate_prime
from repro.errors import CryptoError


@pytest.fixture(scope="module")
def keys():
    return PaillierKeyPair.generate(256, random.Random(1234))


@pytest.fixture(scope="module")
def rng():
    return random.Random(77)


class TestKeyGeneration:
    def test_modulus_size(self, keys):
        assert keys.public_key.bits == 256

    def test_ciphertext_wire_size(self, keys):
        assert keys.public_key.ciphertext_bytes == pytest.approx(64, abs=1)

    def test_independent_keys_differ(self):
        first = PaillierKeyPair.generate(128, random.Random(1))
        second = PaillierKeyPair.generate(128, random.Random(2))
        assert first.public_key.n != second.public_key.n


    @pytest.mark.parametrize("bits", [64, 128, 255, 256, 512])
    def test_first_prime_pair_is_kept(self, bits, monkeypatch):
        """Every key uses exactly the two primes drawn first, at full size."""
        draws = []

        def counting(size, rng=None):
            draws.append(size)
            assert len(draws) <= 2, "keygen discarded a prime pair"
            return generate_prime(size, rng)

        monkeypatch.setattr(paillier, "generate_prime", counting)
        for seed in range(20):
            draws.clear()
            keys = PaillierKeyPair.generate(bits, random.Random(seed))
            assert len(draws) == 2
            assert keys.public_key.n.bit_length() == bits


class TestEncryptDecrypt:
    @settings(max_examples=50)
    @given(st.integers(0, 2**64))
    def test_round_trip(self, plaintext):
        keys = PaillierKeyPair.generate(160, random.Random(5))
        rng = random.Random(plaintext)
        ciphertext = keys.public_key.encrypt(plaintext, rng)
        assert keys.private_key.decrypt(ciphertext) == plaintext

    def test_out_of_range_plaintext(self, keys, rng):
        with pytest.raises(CryptoError):
            keys.public_key.encrypt(keys.public_key.n, rng)
        with pytest.raises(CryptoError):
            keys.public_key.encrypt(-1, rng)

    def test_probabilistic_encryption(self, keys, rng):
        first = keys.public_key.encrypt(42, rng)
        second = keys.public_key.encrypt(42, rng)
        assert first.ciphertext != second.ciphertext
        assert keys.private_key.decrypt(first) == keys.private_key.decrypt(second)

    def test_signed_round_trip(self, keys, rng):
        for value in (-12345, -1, 0, 1, 99999):
            ciphertext = keys.public_key.encrypt_signed(value, rng)
            assert keys.private_key.decrypt_signed(ciphertext) == value

    def test_foreign_key_rejected(self, keys, rng):
        other = PaillierKeyPair.generate(160, random.Random(6))
        ciphertext = other.public_key.encrypt(1, rng)
        with pytest.raises(CryptoError):
            keys.private_key.decrypt(ciphertext)


class TestHomomorphism:
    @settings(max_examples=40)
    @given(st.integers(0, 2**40), st.integers(0, 2**40))
    def test_addition(self, m1, m2):
        keys = PaillierKeyPair.generate(160, random.Random(7))
        rng = random.Random(m1 ^ m2)
        total = keys.public_key.encrypt(m1, rng) + keys.public_key.encrypt(m2, rng)
        assert keys.private_key.decrypt(total) == m1 + m2

    @settings(max_examples=40)
    @given(st.integers(0, 2**30), st.integers(0, 2**10))
    def test_scalar_multiplication(self, m, k):
        keys = PaillierKeyPair.generate(160, random.Random(8))
        rng = random.Random(m + k)
        scaled = keys.public_key.encrypt(m, rng) * k
        assert keys.private_key.decrypt(scaled) == m * k

    def test_plaintext_addition(self, keys, rng):
        ciphertext = keys.public_key.encrypt(10, rng) + 32
        assert keys.private_key.decrypt(ciphertext) == 42

    def test_subtraction_and_negation(self, keys, rng):
        a = keys.public_key.encrypt(50, rng)
        b = keys.public_key.encrypt(8, rng)
        assert keys.private_key.decrypt(a - b) == 42
        assert keys.private_key.decrypt_signed(-(a - b)) == -42
        assert keys.private_key.decrypt_signed(b - a) == -42

    def test_mixed_expression_from_the_paper(self, keys, rng):
        """E(r^2) +h (E(-2r) xh s) +h E(s^2) decrypts to (r - s)^2."""
        r, s = 35, 28
        expression = (
            keys.public_key.encrypt(r * r, rng)
            + keys.public_key.encrypt_signed(-2 * r, rng) * s
            + (s * s)
        )
        assert keys.private_key.decrypt(expression) == (r - s) ** 2

    def test_add_under_different_keys_rejected(self, keys, rng):
        other = PaillierKeyPair.generate(160, random.Random(9))
        with pytest.raises(CryptoError):
            keys.public_key.encrypt(1, rng) + other.public_key.encrypt(1, rng)

    def test_rerandomize_preserves_plaintext(self, keys, rng):
        original = keys.public_key.encrypt(123, rng)
        refreshed = original.rerandomize(rng)
        assert refreshed.ciphertext != original.ciphertext
        assert keys.private_key.decrypt(refreshed) == 123


class TestCRTDecryption:
    def test_agrees_with_classic_path(self, keys, rng):
        """CRT and textbook decryption give identical plaintexts."""
        from repro.crypto.paillier import PaillierPrivateKey

        classic = PaillierPrivateKey(
            keys.public_key, keys.private_key.lam, keys.private_key.mu
        )
        assert keys.private_key.p is not None  # generate() stores factors
        for value in (0, 1, 42, 2**40, keys.public_key.n - 1):
            ciphertext = keys.public_key.encrypt(value, rng)
            assert keys.private_key.decrypt(ciphertext) == classic.decrypt(
                ciphertext
            )

    def test_signed_values_through_crt(self, keys, rng):
        for value in (-99999, -1, 0, 7):
            ciphertext = keys.public_key.encrypt_signed(value, rng)
            assert keys.private_key.decrypt_signed(ciphertext) == value

    def test_key_without_factors_still_works(self, keys, rng):
        from repro.crypto.paillier import PaillierPrivateKey

        classic = PaillierPrivateKey(
            keys.public_key, keys.private_key.lam, keys.private_key.mu
        )
        ciphertext = keys.public_key.encrypt(314159, rng)
        assert classic.decrypt(ciphertext) == 314159
