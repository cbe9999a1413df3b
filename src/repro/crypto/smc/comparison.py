"""Blinded threshold comparison: hide the distance, reveal only the bit.

The paper: "Such secure distance evaluation could be combined with secure
comparison to not to reveal even the distance result." This module supplies
that combination for the squared-Euclidean protocol:

1. Alice sends her :func:`~repro.crypto.smc.euclidean.alice_encrypts`
   message ``(E(a^2), E(-2a))`` to Bob — once per record and attribute;
   Bob combines it with each of his records he is asked to compare;
2. for each comparison Bob assembles ``E(d^2)`` and subtracts the (public)
   squared threshold: ``E(m) = E(d^2 - t^2)``, so the pair matches exactly
   when ``m <= 0``;
3. Bob multiplies by a fresh random *positive* ``rho`` — the sign of
   ``rho * m`` equals the sign of ``m`` — re-randomizes once with a fresh
   ``r^n``, and forwards to the querying party (:func:`bob_blinds_margin`);
4. the querying party decrypts with signed decoding and reports
   ``rho * m <= 0`` (:func:`query_reads_sign`).

Bob's step reads only Alice's ciphertexts, his own value, the threshold
and a *public* magnitude bound that sizes ``rho``; the linkage oracle
derives that bound from the attribute's domain, never from Alice's value.

Leakage analysis (documented, as the paper leaves the comparison abstract):
the querying party sees ``rho * m`` for uniform ``rho`` in ``[1, R)``. The
sign is the intended output; the magnitude reveals at most the order of
magnitude of ``|m|`` relative to ``R`` (and ``m = 0`` is visible exactly —
the boundary case where the distance equals the threshold). A
bit-decomposition comparison would remove even that at substantially
higher cost; the blinded sign test matches the paper's cost envelope of
"a few ciphertexts per attribute".
"""

from __future__ import annotations

from repro.crypto.paillier import EncryptedNumber
from repro.crypto.smc.channel import BOB, QUERY, SMCSession
from repro.crypto.smc.euclidean import alice_encrypts, bob_combines


def margin_bound(value_bound: float, threshold: float) -> float:
    """A cap on ``|d^2 - t^2|`` for operands with ``|value| <= value_bound``.

    ``d^2 <= (|a| + |b|)^2 <= (2 * bound)^2`` on the raw scale; the
    threshold and 1 are folded into the bound so it is never degenerate.
    """
    bound = max(value_bound, threshold, 1.0)
    return 4.0 * bound * bound


def bob_blinds_margin(
    session: SMCSession,
    alice_message: tuple[EncryptedNumber, EncryptedNumber],
    bob_value: float,
    threshold: float,
    magnitude_bound: float,
) -> EncryptedNumber:
    """Bob's step: ``E(rho * (d^2 - t^2))`` with fresh ``rho`` and ``r^n``.

    *magnitude_bound* caps ``|d^2 - t^2|`` on the raw scale (see
    :func:`margin_bound`) and must be public: it sizes ``rho`` so the
    blinded margin stays in the signed half of the plaintext space.
    """
    encrypted_distance = bob_combines(session, *alice_message, bob_value)
    codec = session.codec
    encoded_threshold = codec.encode_square_threshold(threshold * threshold)
    margin = encrypted_distance - encoded_threshold
    encoded_bound = int(magnitude_bound * codec.scale * codec.scale) + 1
    rho = session.random_blinder(encoded_bound)
    blinded = (margin * rho).rerandomize(session.rng)
    session.transcript.record_operation("homomorphic_add", 1)
    session.transcript.record_operation("homomorphic_scale", 1)
    session.transcript.record_operation("rerandomize", 1)
    return blinded


def query_reads_sign(session: SMCSession, blinded: EncryptedNumber) -> bool:
    """The querying party's step: decrypt the blinded margin, learn ``<= 0``."""
    session.send_ciphertexts(BOB, QUERY, 1)
    signed = session.private_key.decrypt_signed(blinded)
    session.transcript.record_operation("decrypt", 1)
    return signed <= 0


def secure_within_threshold(
    session: SMCSession,
    alice_value: float,
    bob_value: float,
    threshold: float,
    *,
    magnitude_bound: float | None = None,
    alice_message: tuple[EncryptedNumber, EncryptedNumber] | None = None,
) -> bool:
    """True when ``|alice_value - bob_value| <= threshold``.

    *alice_message* is Alice's
    :func:`~repro.crypto.smc.euclidean.alice_encrypts` output for
    *alice_value* when the caller already sent it; otherwise Alice
    encrypts here. ``magnitude_bound`` caps ``|d^2 - t^2|`` on the
    raw scale and sizes the blinding factor. By default it is
    :func:`margin_bound` of the larger operand — a shortcut for callers
    that hold both values; a caller running the parties apart passes a
    public bound instead.
    """
    if alice_message is None:
        alice_message = alice_encrypts(session, alice_value)
    if magnitude_bound is None:
        magnitude_bound = margin_bound(
            max(abs(alice_value), abs(bob_value)), threshold
        )
    blinded = bob_blinds_margin(
        session, alice_message, bob_value, threshold, magnitude_bound
    )
    return query_reads_sign(session, blinded)
