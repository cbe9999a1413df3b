"""Tests for the three-party SMC protocols."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.smc.channel import ALICE, BOB, QUERY, SMCSession, Transcript
from repro.crypto.smc.comparison import secure_within_threshold
from repro.crypto.smc.euclidean import secure_squared_distance
from repro.crypto.smc.hamming import (
    hash_value,
    secure_equality,
    secure_hamming_distance,
)


@pytest.fixture(scope="module")
def key_pair():
    return PaillierKeyPair.generate(256, random.Random(2024))


@pytest.fixture
def session(key_pair):
    return SMCSession(key_pair, rng=55)


class TestTranscript:
    def test_message_accounting(self):
        transcript = Transcript()
        transcript.record_message(ALICE, BOB, 100)
        transcript.record_message(BOB, QUERY, 50)
        transcript.record_message(ALICE, ALICE, 999)  # local, not counted
        assert transcript.messages == 2
        assert transcript.bytes_sent == 150

    def test_operation_counters(self):
        transcript = Transcript()
        transcript.record_operation("encrypt", 2)
        transcript.record_operation("encrypt")
        assert transcript.operations["encrypt"] == 3

    def test_merge(self):
        first = Transcript(messages=1, bytes_sent=10)
        first.record_operation("encrypt")
        second = Transcript(messages=2, bytes_sent=20)
        second.record_operation("encrypt", 4)
        merged = first.merged_with(second)
        assert merged.messages == 3
        assert merged.bytes_sent == 30
        assert merged.operations["encrypt"] == 5

    def test_summary_readable(self, session):
        secure_squared_distance(session, 1, 2)
        text = session.transcript.summary()
        assert "messages" in text and "bytes" in text


class TestSecureSquaredDistance:
    def test_known_values(self, session):
        assert secure_squared_distance(session, 35, 28) == pytest.approx(49)
        assert secure_squared_distance(session, 28, 35) == pytest.approx(49)
        assert secure_squared_distance(session, 40, 40) == pytest.approx(0)

    def test_fractional_values(self, session):
        assert secure_squared_distance(session, 5.5, 2.0) == pytest.approx(12.25)

    def test_negative_values(self, session):
        assert secure_squared_distance(session, -3, 4) == pytest.approx(49)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(-500, 500), st.integers(-500, 500))
    def test_matches_plaintext(self, a, b):
        keys = PaillierKeyPair.generate(256, random.Random(99))
        session = SMCSession(keys, rng=a * 1000 + b)
        assert secure_squared_distance(session, a, b) == pytest.approx(
            (a - b) ** 2
        )

    def test_transcript_per_invocation(self, key_pair):
        session = SMCSession(key_pair, rng=1)
        base_messages = session.transcript.messages
        secure_squared_distance(session, 1, 2)
        # 1 Alice->Bob transfer (two ciphertexts batched) + 1 Bob->query.
        assert session.transcript.messages == base_messages + 2
        assert session.transcript.operations["encrypt"] == 2
        assert session.transcript.operations["rerandomize"] == 1
        assert session.transcript.operations["decrypt"] == 1


class TestSecureEquality:
    def test_equal_strings(self, session):
        assert secure_equality(session, "Masters", "Masters")

    def test_unequal_strings(self, session):
        assert not secure_equality(session, "Masters", "11th")

    def test_hamming_wrapper(self, session):
        assert secure_hamming_distance(session, "a", "a") == 0
        assert secure_hamming_distance(session, "a", "b") == 1

    def test_arbitrary_values(self, session):
        assert secure_equality(session, ("x", 1), ("x", 1))
        assert not secure_equality(session, ("x", 1), ("x", 2))

    def test_reused_message_needs_no_alice_value(self, session):
        from repro.crypto.smc.hamming import alice_encrypts_hash

        message = alice_encrypts_hash(session, "Masters")
        verdicts = [
            secure_equality(session, None, bob_value, alice_message=message)
            for bob_value in ("Masters", "11th")
        ]
        assert verdicts == [True, False]
        assert session.transcript.operations["encrypt"] == 1

    def test_hash_value_in_range(self, key_pair):
        modulus = key_pair.public_key.n
        for value in ("a", "b", ("x", 1), 42):
            assert 0 <= hash_value(value, modulus) < modulus


class TestSecureWithinThreshold:
    def test_paper_example(self, session):
        """The Section III example: theta * normFactor = 19.6 on Work-Hrs."""
        assert secure_within_threshold(session, 35, 36, 19.6)
        assert secure_within_threshold(session, 35, 54.0, 19.6)
        assert not secure_within_threshold(session, 35, 55.0, 19.6)

    def test_boundary_is_inclusive(self, session):
        assert secure_within_threshold(session, 10, 30, 20.0)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 100), st.integers(0, 100),
        st.integers(1, 60),
    )
    def test_matches_plaintext_rule(self, a, b, threshold):
        keys = PaillierKeyPair.generate(256, random.Random(7))
        session = SMCSession(keys, rng=a * 7919 + b)
        expected = abs(a - b) <= threshold
        assert secure_within_threshold(session, a, b, threshold) == expected

    def test_one_rerandomize_per_comparison(self, key_pair):
        session = SMCSession(key_pair, rng=3)
        secure_within_threshold(session, 35, 36, 19.6)
        operations = session.transcript.operations
        assert operations["encrypt"] == 2
        assert operations["rerandomize"] == 1
        assert operations["decrypt"] == 1

    def test_reused_message_needs_no_alice_value(self, session):
        """With Alice's message and a public bound, her value is never read."""
        from repro.crypto.smc.comparison import margin_bound
        from repro.crypto.smc.euclidean import alice_encrypts

        message = alice_encrypts(session, 35)
        bound = margin_bound(99, 19.6)
        verdicts = [
            secure_within_threshold(
                session, None, bob_value, 19.6,
                magnitude_bound=bound, alice_message=message,
            )
            for bob_value in (36, 54.0, 55.0)
        ]
        assert verdicts == [True, True, False]
        assert session.transcript.operations["encrypt"] == 2
        assert session.transcript.operations["rerandomize"] == 3

    def test_query_party_sees_only_blinded_margin(self, key_pair):
        """Two runs with the same inputs decrypt to different magnitudes."""
        from repro.crypto.smc.euclidean import alice_encrypts, bob_combines

        observed = []
        for seed in (1, 2):
            session = SMCSession(key_pair, rng=seed)
            alice_square, alice_minus_twice = alice_encrypts(session, 10.0)
            distance = bob_combines(
                session, alice_square, alice_minus_twice, 50.0
            )
            margin = distance - session.codec.encode_square_threshold(19.6**2)
            rho = session.random_blinder(10**12)
            blinded = (margin * rho).rerandomize(session.rng)
            observed.append(session.private_key.decrypt_signed(blinded))
        assert observed[0] != observed[1]
        assert all(value > 0 for value in observed)  # sign is preserved
