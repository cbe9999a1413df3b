"""The SMC oracle abstraction the hybrid pipeline consumes.

The blocking step hands unknown record pairs to "the SMC circuit", which
plays the role of the accurate-but-expensive domain expert (Section IV's
analogy). The pipeline only needs one operation — *does this record pair
match?* — so the oracle interface is exactly that, plus cost accounting.

Two interchangeable backends (DESIGN.md §4, substitution 3):

- :class:`PaillierSMCOracle` runs the real three-party protocols per
  attribute. Alice's message for an attribute depends only on her record,
  so the oracle sends it once per (left record, attribute) and Bob reuses
  it for every right record compared with that left record in a row —
  the row-major order of :meth:`SMCOracle.compare_block` makes those runs
  long. Used in tests and the timing benchmark.
- :class:`CountingPlaintextOracle` returns the same (exact) answer while
  only *counting* invocations — mirroring the paper's own cost model,
  which "restricted ... to the number of SMC protocol invocations" because
  crypto cost dwarfs everything else. Used for the large recall sweeps.

Both count invocations identically, so every figure that reports costs is
backend-independent.
"""

from __future__ import annotations

import abc
import random

import numpy as np

from repro.crypto import modexp
from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.smc.channel import SMCSession
from repro.crypto.smc.comparison import margin_bound, secure_within_threshold
from repro.crypto.smc.euclidean import alice_encrypts, secure_squared_distance
from repro.crypto.smc.hamming import alice_encrypts_hash, secure_equality
from repro.data.schema import Record, Schema
from repro.errors import ConfigurationError, ProtocolError
from repro.linkage.distances import MatchRule
from repro.obs import NOOP_TELEMETRY, Telemetry


class SMCOracle(abc.ABC):
    """Answers exact match queries for record pairs, counting costs.

    Cost counters are plain ints on the hot path; bind a
    :class:`repro.obs.Telemetry` (at construction or later via
    :meth:`attach_telemetry`) and :meth:`publish_metrics` mirrors them
    into its metrics registry as ``smc.record_pair_comparisons`` /
    ``smc.attribute_comparisons``. :meth:`reset` zeroes both views.
    """

    def __init__(
        self,
        rule: MatchRule,
        schema: Schema,
        *,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        self.rule = rule
        self.bound = rule.bind(schema)
        self.invocations = 0
        self.attribute_comparisons = 0
        self.telemetry = telemetry

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Bind *telemetry* and publish the current counter values."""
        self.telemetry = telemetry
        self.publish_metrics()

    def publish_metrics(self) -> None:
        """Sync the registry view of the oracle's cost counters."""
        self.telemetry.counter("smc.record_pair_comparisons").set(
            self.invocations
        )
        self.telemetry.counter("smc.attribute_comparisons").set(
            self.attribute_comparisons
        )

    def compare(self, left: Record, right: Record) -> bool:
        """True when the pair matches under the decision rule ``dr``."""
        self.invocations += 1
        return self._compare(left, right)

    @abc.abstractmethod
    def _compare(self, left: Record, right: Record) -> bool:
        """Backend-specific comparison."""

    def compare_block(
        self,
        left_records: list[Record],
        right_records: list[Record],
        take: int,
    ) -> list[tuple[int, int]]:
        """Compare the first *take* pairs of a block in row-major order.

        Returns the matching ``(left_offset, right_offset)`` positions.
        The base implementation simply loops over :meth:`compare`; the
        counting backend overrides it with a vectorized path. Both charge
        exactly *take* invocations, so the cost model is unaffected.
        """
        matches = []
        remaining = take
        for left_offset, left_record in enumerate(left_records):
            if remaining <= 0:
                break
            for right_offset, right_record in enumerate(right_records):
                if remaining <= 0:
                    break
                remaining -= 1
                if self.compare(left_record, right_record):
                    matches.append((left_offset, right_offset))
        return matches

    def reset(self) -> None:
        """Zero the cost counters (e.g. between sweep points).

        The reset reaches the registry view too, so costs never leak
        across sweep points through a bound telemetry.
        """
        self.invocations = 0
        self.attribute_comparisons = 0
        self.publish_metrics()


class CountingPlaintextOracle(SMCOracle):
    """Exact answers, real invoice: counts what the crypto would cost.

    ``attribute_comparisons`` counts the secure comparisons a real backend
    would have executed (thresholds of 1 or more on categorical attributes
    never require a protocol run).
    """

    def __init__(
        self,
        rule: MatchRule,
        schema: Schema,
        *,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        super().__init__(rule, schema, telemetry=telemetry)
        self._billable = sum(
            1
            for attribute in rule
            if attribute.is_continuous
            or attribute.is_string
            or attribute.threshold < 1
        )

    def _compare(self, left: Record, right: Record) -> bool:
        self.attribute_comparisons += self._billable
        return self.bound.matches(left, right)

    def compare_block(self, left_records, right_records, take):
        """Vectorized row-major block comparison (numpy broadcasting).

        Rules containing an edit-distance attribute with a real budget
        fall back to the scalar loop (edit distance does not vectorize);
        everything else evaluates the whole block as boolean matrices.
        Billing is identical to *take* scalar invocations.
        """
        if any(
            attribute.is_string and attribute.threshold >= 1
            for attribute in self.rule
        ):
            return super().compare_block(left_records, right_records, take)
        right_count = len(right_records)
        if take <= 0 or right_count == 0 or not left_records:
            return []
        full_rows, remainder = divmod(take, right_count)
        rows = min(full_rows + (1 if remainder else 0), len(left_records))
        matches_matrix = np.ones((rows, right_count), dtype=bool)
        for attribute, position in zip(self.rule, self.bound.positions):
            left_column = [
                left_records[row][position] for row in range(rows)
            ]
            right_column = [record[position] for record in right_records]
            if attribute.is_continuous:
                left_values = np.asarray(left_column, dtype=float)[:, None]
                right_values = np.asarray(right_column, dtype=float)[None, :]
                within = (
                    np.abs(left_values - right_values)
                    <= attribute.effective_threshold
                )
            elif attribute.threshold < 1:
                left_values = np.asarray(left_column, dtype=object)[:, None]
                right_values = np.asarray(right_column, dtype=object)[None, :]
                within = left_values == right_values
            else:
                continue  # loose Hamming threshold never constrains
            matches_matrix &= within
        if remainder and rows == full_rows + 1:
            matches_matrix[-1, remainder:] = False
        self.invocations += take
        self.attribute_comparisons += take * self._billable
        rows_idx, cols_idx = np.nonzero(matches_matrix)
        return list(zip(rows_idx.tolist(), cols_idx.tolist()))


class PaillierSMCOracle(SMCOracle):
    """The real three-party protocol stack.

    Parameters
    ----------
    rule, schema:
        The match rule and the (shared) relation schema.
    key_bits:
        Paillier modulus size; the paper uses 1024.
    hide_distances:
        When true (default) continuous attributes use the blinded
        threshold comparison, so the querying party learns only match
        bits. When false, the basic Section V-A protocol runs and the
        querying party compares the revealed distance itself.
    rng:
        Seed or RNG for key generation and blinding (tests pass a seed;
        ``None`` uses system randomness).

    Alice's messages for the most recent left record are kept until a
    different left record arrives. The record is matched by identity
    against a reference the oracle holds — never by value, which would
    tell Bob that two different Alice records share a value, and never
    by ``id()``, which a freed record's successor can reuse. Each
    ciphertext Bob forwards still gets a fresh blinder and a fresh
    ``r^n``. Blinders are sized from each continuous attribute's public
    domain (its hierarchy root) and threshold, so Bob's step reads no
    value of Alice's (a rule attribute decoded from the wire carries that
    bound in its ``domain_bound``).

    With telemetry bound, the gauge ``crypto.modexp_gmp`` is 1 when
    libgmp runs the exponentiations and 0 when the built-in ``pow`` does
    (see :mod:`repro.crypto.modexp`).
    """

    def __init__(
        self,
        rule: MatchRule,
        schema: Schema,
        *,
        key_bits: int = 1024,
        hide_distances: bool = True,
        precision: int = 4,
        rng: int | random.Random | None = None,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        super().__init__(rule, schema, telemetry=telemetry)
        if isinstance(rng, int):
            rng = random.Random(rng)
        self._key_pair = PaillierKeyPair.generate(key_bits, rng)
        self.session = SMCSession(
            self._key_pair,
            precision=precision,
            rng=rng,
            telemetry=telemetry if telemetry.enabled else None,
        )
        _record_modexp_backend(telemetry)
        self.hide_distances = hide_distances
        self._margin_bounds = []
        for attribute in rule:
            if not attribute.is_continuous:
                self._margin_bounds.append(None)
            elif attribute.domain_bound is None:
                raise ConfigurationError(
                    f"continuous attribute {attribute.name!r} has no public "
                    "domain bound to size the comparison's blinding factor"
                )
            else:
                self._margin_bounds.append(margin_bound(
                    attribute.domain_bound, attribute.effective_threshold
                ))
        self._alice_record: Record | None = None
        self._alice_messages: dict = {}

    def reset(self) -> None:
        """Zero the cost counters and forget Alice's cached messages."""
        super().reset()
        self._alice_record = None
        self._alice_messages = {}

    def _alice_message(self, slot: int, encrypt, value):
        """Alice's message for rule attribute *slot*; encrypted once per record."""
        message = self._alice_messages.get(slot)
        if message is None:
            message = self._alice_messages[slot] = encrypt(self.session, value)
        return message

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Bind *telemetry*, including the session's channel transcript."""
        super().attach_telemetry(telemetry)
        self.session.transcript.bind_telemetry(
            telemetry if telemetry.enabled else None
        )
        _record_modexp_backend(telemetry)

    def _compare(self, left: Record, right: Record) -> bool:
        if left is not self._alice_record:
            self._alice_record = left
            self._alice_messages = {}
        for slot, (attribute, position) in enumerate(
            zip(self.rule, self.bound.positions)
        ):
            left_value = left[position]
            right_value = right[position]
            if attribute.is_continuous:
                self.attribute_comparisons += 1
                message = self._alice_message(slot, alice_encrypts, left_value)
                threshold = attribute.effective_threshold
                if self.hide_distances:
                    within = secure_within_threshold(
                        self.session, left_value, right_value, threshold,
                        magnitude_bound=self._margin_bounds[slot],
                        alice_message=message,
                    )
                else:
                    squared = secure_squared_distance(
                        self.session, left_value, right_value,
                        alice_message=message,
                    )
                    within = squared <= threshold * threshold + 1e-9
                if not within:
                    return False
            elif attribute.is_string and attribute.threshold >= 1:
                # A secure *approximate* edit-distance protocol is the
                # open problem the paper's Section VIII names; only the
                # exact-equality case is supported cryptographically.
                raise ProtocolError(
                    f"no secure edit-distance protocol for "
                    f"{attribute.name!r} with threshold >= 1; use the "
                    "plaintext cost-model oracle for that configuration"
                )
            elif attribute.is_string or attribute.threshold < 1:
                self.attribute_comparisons += 1
                message = self._alice_message(
                    slot, alice_encrypts_hash, left_value
                )
                if not secure_equality(
                    self.session, left_value, right_value,
                    alice_message=message,
                ):
                    return False
            # Hamming threshold >= 1 can never be exceeded: no protocol run.
        return True


def _record_modexp_backend(telemetry: Telemetry) -> None:
    """Gauge ``crypto.modexp_gmp``: 1 when libgmp runs the exponentiations.

    A report's ``crypto.*`` times then say which backend produced them.
    """
    telemetry.gauge("crypto.modexp_gmp").set(int(modexp.uses_gmp()))
