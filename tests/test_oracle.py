"""Tests for the SMC oracle backends."""

import pytest

from repro.crypto.smc.oracle import (
    CountingPlaintextOracle,
    PaillierSMCOracle,
    SMCOracle,
)
from repro.data.hierarchies import adult_hierarchies, toy_education_vgh, toy_work_hrs_vgh
from repro.data.schema import Attribute, Schema
from repro.linkage.distances import MatchAttribute, MatchRule


@pytest.fixture(scope="module")
def toy_setup():
    schema = Schema(
        [Attribute.categorical("education"), Attribute.continuous("work_hrs")]
    )
    rule = MatchRule(
        [
            MatchAttribute("education", toy_education_vgh(), 0.5),
            MatchAttribute("work_hrs", toy_work_hrs_vgh(), 0.2),
        ]
    )
    return schema, rule


class TestCountingPlaintextOracle:
    def test_exactness(self, toy_setup):
        schema, rule = toy_setup
        oracle = CountingPlaintextOracle(rule, schema)
        assert oracle.compare(("Masters", 35), ("Masters", 36))
        assert not oracle.compare(("Masters", 35), ("9th", 36))
        assert not oracle.compare(("Masters", 35), ("Masters", 90))

    def test_invocation_counter(self, toy_setup):
        schema, rule = toy_setup
        oracle = CountingPlaintextOracle(rule, schema)
        for _ in range(5):
            oracle.compare(("Masters", 35), ("Masters", 36))
        assert oracle.invocations == 5
        assert oracle.attribute_comparisons == 10  # 2 billable attributes
        oracle.reset()
        assert oracle.invocations == 0

    def test_reset_zeroes_registry_view_too(self, toy_setup):
        """Between sweep points no cost may leak through the telemetry."""
        from repro.obs import Telemetry

        schema, rule = toy_setup
        telemetry = Telemetry()
        oracle = CountingPlaintextOracle(rule, schema, telemetry=telemetry)
        for _ in range(3):
            oracle.compare(("Masters", 35), ("Masters", 36))
        oracle.publish_metrics()
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["smc.record_pair_comparisons"] == 3
        assert counters["smc.attribute_comparisons"] == 6
        oracle.reset()
        assert oracle.invocations == 0
        assert oracle.attribute_comparisons == 0
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["smc.record_pair_comparisons"] == 0
        assert counters["smc.attribute_comparisons"] == 0

    def test_attach_telemetry_publishes_existing_costs(self, toy_setup):
        """Late binding syncs totals accumulated before attachment."""
        from repro.obs import Telemetry

        schema, rule = toy_setup
        oracle = CountingPlaintextOracle(rule, schema)
        oracle.compare(("Masters", 35), ("Masters", 36))
        telemetry = Telemetry()
        oracle.attach_telemetry(telemetry)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["smc.record_pair_comparisons"] == 1
        assert counters["smc.attribute_comparisons"] == 2

    def test_loose_categorical_not_billed(self):
        schema = Schema(
            [Attribute.categorical("education"), Attribute.continuous("work_hrs")]
        )
        rule = MatchRule(
            [
                MatchAttribute("education", toy_education_vgh(), 1.0),
                MatchAttribute("work_hrs", toy_work_hrs_vgh(), 0.2),
            ]
        )
        oracle = CountingPlaintextOracle(rule, schema)
        oracle.compare(("Masters", 35), ("9th", 36))
        assert oracle.attribute_comparisons == 1


class TestPaillierSMCOracle:
    @pytest.fixture(scope="class")
    def oracle(self, toy_setup):
        schema, rule = toy_setup
        return PaillierSMCOracle(rule, schema, key_bits=256, rng=13)

    def test_agrees_with_plaintext(self, toy_setup, oracle):
        schema, rule = toy_setup
        plaintext = CountingPlaintextOracle(rule, schema)
        cases = [
            (("Masters", 35), ("Masters", 36)),
            (("Masters", 35), ("Masters", 55)),
            (("Masters", 35), ("9th", 35)),
            (("9th", 28), ("9th", 28)),
            (("9th", 28), ("10th", 28)),
        ]
        for left, right in cases:
            assert oracle.compare(left, right) == plaintext.compare(left, right)

    def test_revealed_distance_variant(self, toy_setup):
        schema, rule = toy_setup
        oracle = PaillierSMCOracle(
            rule, schema, key_bits=256, hide_distances=False, rng=14
        )
        assert oracle.compare(("Masters", 35), ("Masters", 36))
        assert not oracle.compare(("Masters", 35), ("Masters", 90))

    def test_transcript_grows(self, toy_setup):
        schema, rule = toy_setup
        oracle = PaillierSMCOracle(rule, schema, key_bits=256, rng=15)
        before = oracle.session.transcript.bytes_sent
        oracle.compare(("Masters", 35), ("Masters", 36))
        assert oracle.session.transcript.bytes_sent > before

    def test_short_circuits_on_categorical_mismatch(self, toy_setup):
        schema, rule = toy_setup
        oracle = PaillierSMCOracle(rule, schema, key_bits=256, rng=16)
        oracle.compare(("Masters", 35), ("9th", 36))
        # Education mismatch stops before the continuous comparison.
        assert oracle.attribute_comparisons == 1

    def test_adult_schema_integration(self, adult_rule):
        from repro.data.adult import adult_schema, generate_adult

        relation = generate_adult(4, seed=3)
        oracle = PaillierSMCOracle(
            adult_rule, adult_schema(), key_bits=256, rng=17
        )
        plaintext = CountingPlaintextOracle(adult_rule, adult_schema())
        for left in relation:
            for right in relation:
                assert oracle.compare(left, right) == plaintext.compare(
                    left, right
                )


class TestCompareBlock:
    def test_vectorized_equals_scalar_loop(self, adult_rule):
        """The numpy fast path and the base loop agree pair for pair."""
        from repro.data.adult import adult_schema, generate_adult

        relation = generate_adult(40, seed=19)
        left_records = list(relation.records[:20])
        right_records = list(relation.records[20:])
        fast = CountingPlaintextOracle(adult_rule, adult_schema())
        slow = CountingPlaintextOracle(adult_rule, adult_schema())
        for take in (0, 1, 7, 20, 199, 400):
            fast.reset()
            slow.reset()
            vectorized = fast.compare_block(left_records, right_records, take)
            looped = SMCOracle.compare_block(
                slow, left_records, right_records, take
            )
            assert vectorized == looped, take
            assert fast.invocations == slow.invocations == min(take, 400)

    def test_string_rule_falls_back_to_loop(self):
        from repro.data.schema import Attribute, Schema
        from repro.data.strings import PrefixHierarchy
        from repro.linkage.distances import MatchAttribute, MatchRule

        schema = Schema([Attribute.categorical("surname")])
        rule = MatchRule(
            [MatchAttribute("surname", PrefixHierarchy("surname", 12), 1.0)]
        )
        oracle = CountingPlaintextOracle(rule, schema)
        matches = oracle.compare_block(
            [("smith",), ("jones",)], [("smyth",), ("ng",)], 4
        )
        assert matches == [(0, 0)]
        assert oracle.invocations == 4


@pytest.fixture(scope="module")
def hours_setup():
    """A rule with one continuous attribute, so every pair runs a protocol."""
    schema = Schema([Attribute.continuous("work_hrs")])
    rule = MatchRule([MatchAttribute("work_hrs", toy_work_hrs_vgh(), 0.2)])
    return schema, rule


def hour_records(*values):
    """Fresh, distinct one-attribute records (built at run time)."""
    return [tuple([float(value)]) for value in values]


class TestAliceMessageReuse:
    """Alice encrypts once per left record; Bob re-randomizes once per pair."""

    @pytest.mark.parametrize("take", [12, 7])
    def test_block_op_counts(self, hours_setup, take):
        schema, rule = hours_setup
        oracle = PaillierSMCOracle(rule, schema, key_bits=256, rng=31)
        left = hour_records(35, 40, 80)
        right = hour_records(36, 50, 90, 20)
        oracle.compare_block(left, right, take)
        operations = oracle.session.transcript.operations
        rows = -(-take // len(right))
        assert oracle.attribute_comparisons == take
        assert operations["encrypt"] == 2 * rows
        assert operations["rerandomize"] == take
        assert operations["decrypt"] == take

    def test_equal_values_in_distinct_records_are_encrypted_apart(
        self, hours_setup
    ):
        schema, rule = hours_setup
        oracle = PaillierSMCOracle(rule, schema, key_bits=256, rng=32)
        left = hour_records(35, 35)
        assert left[0] == left[1] and left[0] is not left[1]
        oracle.compare_block(left, hour_records(36, 90), 4)
        assert oracle.session.transcript.operations["encrypt"] == 4

    def test_reset_forgets_the_message(self, hours_setup):
        schema, rule = hours_setup
        oracle = PaillierSMCOracle(rule, schema, key_bits=256, rng=33)
        (left,) = hour_records(35)
        right = hour_records(36)[0]
        oracle.compare(left, right)
        oracle.compare(left, right)
        assert oracle.session.transcript.operations["encrypt"] == 2
        oracle.reset()
        oracle.compare(left, right)
        assert oracle.session.transcript.operations["encrypt"] == 4

    @pytest.mark.parametrize("hide_distances", [True, False])
    def test_mixed_rule_verdicts_equal_plaintext(self, toy_setup, hide_distances):
        """Categorical first: early-exit pairs never encrypt Alice's hours."""
        schema, rule = toy_setup
        oracle = PaillierSMCOracle(
            rule, schema, key_bits=256, hide_distances=hide_distances, rng=34
        )
        plaintext = CountingPlaintextOracle(rule, schema)
        left = [tuple(row) for row in (
            ["Masters", 35.0], ["9th", 40.0], ["Doctorate", 80.0],
            ["Masters", 80.0],
        )]
        right = [tuple(row) for row in (
            ["Masters", 36.0], ["9th", 50.0], ["Masters", 98.0],
            ["10th", 40.0],
        )]
        take = len(left) * len(right) - 1
        matches = oracle.compare_block(left, right, take)
        assert matches == plaintext.compare_block(left, right, take)
        assert matches  # the block holds matches as well as mismatches
        # 15 education comparisons, 5 of which match and go on to hours.
        operations = oracle.session.transcript.operations
        assert oracle.attribute_comparisons == 15 + 5
        assert operations["rerandomize"] == operations["decrypt"] == 20
        # One hash per left record, plus E(a^2), E(-2a) for the three left
        # records that share an education value with some right record;
        # "Doctorate" stops every pair at the first attribute.
        assert operations["encrypt"] == 4 + 2 * 3

    def test_compare_override_sees_every_pair(self, hours_setup):
        """``compare_block`` routes each pair through ``compare()``."""
        schema, rule = hours_setup

        class Recording(PaillierSMCOracle):
            calls = 0

            def compare(self, left, right):
                Recording.calls += 1
                return super().compare(left, right)

        oracle = Recording(rule, schema, key_bits=256, rng=35)
        oracle.compare_block(hour_records(35, 40), hour_records(36, 50, 90), 5)
        assert Recording.calls == oracle.invocations == 5

    def test_continuous_attribute_needs_a_domain_bound(self, hours_setup):
        from repro.errors import ConfigurationError
        from repro.net.wire import WireMatchAttribute

        schema, _ = hours_setup
        rule = MatchRule([WireMatchAttribute("work_hrs", "continuous", 0.2, 19.6)])
        with pytest.raises(ConfigurationError, match="domain bound"):
            PaillierSMCOracle(rule, schema, key_bits=256, rng=36)
