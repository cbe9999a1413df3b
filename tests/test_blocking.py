"""Tests for the blocking engine beyond the golden paper example."""

import tracemalloc

import pytest

from repro.anonymize import MaxEntropyTDS, identity_generalization
from repro.anonymize.base import EquivalenceClass, GeneralizedRelation
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.data.schema import Attribute, Relation, Schema
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.errors import ConfigurationError
from repro.linkage.blocking import ClassPair, ExpectedDistanceCache, block
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.ground_truth import GroundTruth

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def generalized_pair(adult_pair, adult_hierarchy_catalog):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    left = anonymizer.anonymize(adult_pair.left, QIDS, 16)
    right = anonymizer.anonymize(adult_pair.right, QIDS, 16)
    return left, right


class TestBlockInvariants:
    def test_partition_of_all_pairs(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        assert (
            result.matched_pairs
            + result.nonmatch_pairs
            + result.unknown_pairs
            == result.total_pairs
        )

    def test_soundness_of_matched_class_pairs(
        self, adult_rule, generalized_pair, adult_pair
    ):
        """Every record pair inside a blocking-M class pair truly matches."""
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        bound = adult_rule.bind(adult_pair.left.schema)
        for pair in result.matched:
            for left_index in pair.left.indices:
                for right_index in pair.right.indices:
                    assert bound.matches(
                        adult_pair.left[left_index],
                        adult_pair.right[right_index],
                    )

    def test_soundness_of_nonmatch_decisions(
        self, adult_rule, generalized_pair, adult_pair
    ):
        """No true match is ever blocked as a non-match."""
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        truth = GroundTruth(adult_rule, adult_pair.left, adult_pair.right)
        undecided_or_matched = 0
        for pair in result.matched + result.unknown:
            undecided_or_matched += truth.count_matches(
                pair.left.indices, pair.right.indices
            )
        assert undecided_or_matched == truth.total_matches()

    def test_identity_generalization_blocks_everything(
        self, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """Paper scenario (1): with k=1 every pair is decided at no SMC cost."""
        left = identity_generalization(
            adult_pair.left, QIDS, adult_hierarchy_catalog
        )
        right = identity_generalization(
            adult_pair.right, QIDS, adult_hierarchy_catalog
        )
        result = block(adult_rule, left, right)
        assert result.unknown_pairs == 0
        assert result.blocking_efficiency == 1.0
        truth = GroundTruth(adult_rule, adult_pair.left, adult_pair.right)
        assert result.matched_pairs == truth.total_matches()

    def test_higher_k_lowers_efficiency(
        self, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """Figure 3's trend: blocking efficiency decreases with k."""
        anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
        efficiencies = []
        for k in (1, 8, 64):
            left = anonymizer.anonymize(adult_pair.left, QIDS, k)
            right = anonymizer.anonymize(adult_pair.right, QIDS, k)
            efficiencies.append(
                block(adult_rule, left, right).blocking_efficiency
            )
        assert efficiencies[0] >= efficiencies[1] >= efficiencies[2]

    def test_rule_attribute_must_be_a_qid(self, adult_rule, adult_pair, adult_hierarchy_catalog):
        left = identity_generalization(
            adult_pair.left, QIDS[:3], adult_hierarchy_catalog
        )
        right = identity_generalization(
            adult_pair.right, QIDS[:3], adult_hierarchy_catalog
        )
        with pytest.raises(ConfigurationError):
            block(adult_rule, left, right)

    def test_elapsed_time_recorded(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        assert result.elapsed_seconds > 0


class TestClassPair:
    def test_size(self, generalized_pair):
        left, right = generalized_pair
        pair = ClassPair(left.classes[0], right.classes[0])
        assert pair.size == left.classes[0].size * right.classes[0].size

    def test_describe(self, generalized_pair):
        left, right = generalized_pair
        pair = ClassPair(left.classes[0], right.classes[0])
        assert " x " in pair.describe()


class TestExpectedDistanceCache:
    def test_vector_matches_direct_computation(
        self, adult_rule, generalized_pair
    ):
        from repro.linkage.expected import expected_distance_vector

        left, right = generalized_pair
        cache = ExpectedDistanceCache(adult_rule, left, right)
        pair = ClassPair(left.classes[0], right.classes[1])
        left_positions = [left.qids.index(name) for name in adult_rule.names]
        right_positions = [right.qids.index(name) for name in adult_rule.names]
        direct = expected_distance_vector(
            adult_rule.attributes,
            [pair.left.sequence[p] for p in left_positions],
            [pair.right.sequence[p] for p in right_positions],
        )
        assert cache.vector(pair) == pytest.approx(direct)

    def test_cache_is_consistent_across_calls(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        cache = ExpectedDistanceCache(adult_rule, left, right)
        pair = ClassPair(left.classes[0], right.classes[0])
        assert cache.vector(pair) == cache.vector(pair)


class TestNumpyKernelMemory:
    """The numpy kernel's peak memory stays a few bytes per chunk cell."""

    CLASSES = 800
    CHUNK_CELLS = 1 << 17

    @pytest.fixture(scope="class")
    def wide_case(self):
        """800 x 800 singleton classes: 640 k class pairs, 0.2 % matched.

        Few distinct values per attribute keep the code tables tiny, so
        the chunk masks dominate the kernel's memory.
        """
        leaves = [f"v{index}" for index in range(32)]
        category = CategoricalHierarchy(
            "category", {"ANY": {"Low": leaves[:16], "High": leaves[16:]}}
        )
        hours = IntervalHierarchy.equi_width("hours", 0.0, 32.0, 4.0, levels=3)
        schema = Schema(
            [Attribute.categorical("category"), Attribute.continuous("hours")]
        )

        def relation(stride):
            source = Relation(schema, [("v0", 1.0)] * self.CLASSES)
            classes = [
                EquivalenceClass(
                    (
                        leaves[index % 32],
                        Interval.point(float(index * stride % 32)),
                    ),
                    (index,),
                )
                for index in range(self.CLASSES)
            ]
            return GeneralizedRelation(
                source,
                ("category", "hours"),
                {"category": category, "hours": hours},
                classes,
                k=1,
            )

        rule = MatchRule(
            [
                MatchAttribute("category", category, 0.0),
                MatchAttribute("hours", hours, 0.0),
            ]
        )
        return rule, relation(1), relation(7)

    def test_peak_under_eight_bytes_per_chunk_cell(self, wide_case):
        rule, left, right = wide_case
        assert len(left.classes) * len(right.classes) >= 200_000
        block(rule, left, right, engine="numpy", chunk_cells=self.CHUNK_CELLS)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            block(
                rule, left, right, engine="numpy", chunk_cells=self.CHUNK_CELLS
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (peak - before) / self.CHUNK_CELLS < 8

    def test_nonmatch_mass_matches_scalar_engine(self, wide_case):
        rule, left, right = wide_case
        scalar = block(rule, left, right, engine="python")
        kernel = block(
            rule, left, right, engine="numpy", chunk_cells=self.CHUNK_CELLS
        )
        assert kernel.matched
        assert kernel.nonmatch_pairs == scalar.nonmatch_pairs
        assert kernel.matched == scalar.matched
        assert kernel.unknown == scalar.unknown
