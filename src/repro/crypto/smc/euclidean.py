"""Secure squared Euclidean distance (the paper's Section V-A protocol).

    d_i(r.a_i, s.a_i) = (r.a_i - s.a_i)^2
                      = (r.a_i)^2 - 2 * r.a_i * s.a_i + (s.a_i)^2

"Alice can compute ``E(r.a_i^2)``, ``E(-2 * r.a_i)`` and send it to Bob.
Now Bob can calculate ``E(r.a_i^2) +h (E(-2 * r.a_i) xh s.a_i) +h
E(s.a_i^2)`` which is equal to ``E((r.a_i - s.a_i)^2)`` and send the result
back to querying site." The querying party decrypts to learn the squared
distance.

This basic variant reveals the distance value to the querying party (the
paper notes this and points to secure comparison for hiding it — see
:mod:`repro.crypto.smc.comparison`).

The protocol is written as one function per party step:

- :func:`alice_encrypts` — Alice's message ``(E(a^2), E(-2a))``. It
  depends only on her value, so a caller comparing one Alice record with
  many of Bob's records sends it once and reuses it (see
  :class:`~repro.crypto.smc.oracle.PaillierSMCOracle`);
- :func:`bob_combines` — Bob's ``E((a - b)^2)``. It does *not*
  re-randomize: every caller blinds or re-randomizes the result before it
  leaves Bob, so one fresh ``r^n`` per forwarded ciphertext suffices;
- :func:`query_reads_square` — the querying party decrypts.

:func:`secure_squared_distance` composes them; it re-randomizes Bob's
result itself before forwarding it, because this variant sends
``E(d^2)`` to the key holder unblinded.
"""

from __future__ import annotations

from repro.crypto.paillier import EncryptedNumber
from repro.crypto.smc.channel import ALICE, BOB, QUERY, SMCSession


def alice_encrypts(session: SMCSession, value: float) -> tuple[EncryptedNumber, EncryptedNumber]:
    """Alice's step: produce ``E(a^2)`` and ``E(-2a)`` and send them to Bob."""
    codec = session.codec
    encoded = codec.encode(value)
    square = session.public_key.encrypt(
        (encoded * encoded) % session.public_key.n, session.rng
    )
    minus_twice = session.public_key.encrypt(
        (-2 * encoded) % session.public_key.n, session.rng
    )
    session.transcript.record_operation("encrypt", 2)
    session.send_ciphertexts(ALICE, BOB, 2)
    return square, minus_twice


def bob_combines(
    session: SMCSession,
    alice_square: EncryptedNumber,
    alice_minus_twice: EncryptedNumber,
    value: float,
) -> EncryptedNumber:
    """Bob's step: homomorphically assemble ``E((a - b)^2)``.

    The result carries the randomness of Alice's ciphertexts, so it must
    be blinded or re-randomized before it leaves Bob; the callers in this
    package each do exactly one of those.
    """
    codec = session.codec
    encoded = codec.encode(value)
    bob_square = (encoded * encoded) % session.public_key.n
    distance = alice_square + (alice_minus_twice * encoded) + bob_square
    session.transcript.record_operation("homomorphic_add", 2)
    session.transcript.record_operation("homomorphic_scale", 1)
    return distance


def query_reads_square(
    session: SMCSession, encrypted_distance: EncryptedNumber
) -> float:
    """The querying party's step: receive ``E(d^2)`` from Bob and decrypt it."""
    session.send_ciphertexts(BOB, QUERY, 1)
    raw = session.private_key.decrypt(encrypted_distance)
    session.transcript.record_operation("decrypt", 1)
    return session.codec.decode_square(raw)


def secure_squared_distance(
    session: SMCSession,
    alice_value: float,
    bob_value: float,
    *,
    alice_message: tuple[EncryptedNumber, EncryptedNumber] | None = None,
) -> float:
    """Run the full three-party protocol; the query party learns ``(a-b)^2``.

    Returns the decoded squared distance. *alice_message* is the output of
    :func:`alice_encrypts` for *alice_value* when the caller already sent
    it; otherwise Alice encrypts here. A fresh run's transcript gains two
    Alice→Bob ciphertexts, one Bob→query ciphertext, two encryptions, one
    re-randomization and one decryption — the per-attribute cost the paper
    benchmarks at 0.43 s with 1024-bit keys.
    """
    if alice_message is None:
        alice_message = alice_encrypts(session, alice_value)
    encrypted_distance = bob_combines(session, *alice_message, bob_value)
    encrypted_distance = encrypted_distance.rerandomize(session.rng)
    session.transcript.record_operation("rerandomize", 1)
    return query_reads_square(session, encrypted_distance)
