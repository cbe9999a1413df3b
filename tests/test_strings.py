"""Tests for the alphanumeric extension (paper Section VIII future work).

Prefix hierarchies, edit-distance match rules, slack soundness for prefix
patterns, anonymization over string QIDs, and the full hybrid pipeline on
a name-bearing schema.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.anonymize import TDS, MaxEntropyTDS, Mondrian, identity_generalization
from repro.data.schema import Attribute, Relation, Schema
from repro.data.strings import PrefixHierarchy, is_pattern, pattern_prefix
from repro.data.vgh import IntervalHierarchy
from repro.errors import AnonymizationError, HierarchyError, ProtocolError
from repro.linkage.distances import MatchAttribute, MatchRule, edit_distance
from repro.linkage.ground_truth import GroundTruth
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.linkage.metrics import evaluate
from repro.linkage.slack import Label, attribute_slack, slack_decision

NAMES = st.text(alphabet="abcdefgh", min_size=0, max_size=10)


@pytest.fixture(scope="module")
def hierarchy():
    return PrefixHierarchy("surname", max_length=12)


class TestPrefixHierarchy:
    def test_root_and_leaves(self, hierarchy):
        assert hierarchy.root == "*"
        assert hierarchy.is_leaf("smith")
        assert not hierarchy.is_leaf("smi*")

    def test_depths(self, hierarchy):
        assert hierarchy.depth_of("*") == 0
        assert hierarchy.depth_of("smi*") == 3
        # Concrete strings are maximally specific regardless of length.
        assert hierarchy.depth_of("smith") == hierarchy.max_length
        assert hierarchy.depth_of("ng") == hierarchy.max_length

    def test_generalize(self, hierarchy):
        assert hierarchy.generalize("smith", 3) == "smi*"
        assert hierarchy.generalize("smith", 0) == "*"
        assert hierarchy.generalize("smith", 5) == "smith"
        assert hierarchy.generalize("smith", 99) == "smith"

    def test_parent_chain(self, hierarchy):
        assert hierarchy.parent_of("smi*") == "sm*"
        assert hierarchy.parent_of("s*") == "*"
        assert hierarchy.parent_of("*") is None

    def test_covers(self, hierarchy):
        assert hierarchy.covers("smi*", "smith")
        assert hierarchy.covers("smi*", "smi")
        assert not hierarchy.covers("smi*", "smyth")
        assert hierarchy.covers("smith", "smith")
        assert not hierarchy.covers("smith", "smiths")

    def test_child_for(self, hierarchy):
        assert hierarchy.child_for("smi*", "smith") == "smit*"
        assert hierarchy.child_for("smi*", "smi") == "smi"
        with pytest.raises(HierarchyError):
            hierarchy.child_for("smi*", "jones")
        with pytest.raises(HierarchyError):
            hierarchy.child_for("smith", "smith")

    def test_max_length_enforced(self, hierarchy):
        with pytest.raises(HierarchyError):
            hierarchy.depth_of("a-very-long-impossible-name")

    def test_pattern_helpers(self):
        assert is_pattern("sm*")
        assert not is_pattern("sm")
        assert pattern_prefix("sm*") == "sm"
        assert pattern_prefix("sm") == "sm"


class TestEditDistanceRule:
    @pytest.fixture(scope="class")
    def rule(self, hierarchy):
        return MatchRule([MatchAttribute("surname", hierarchy, 1.0)])

    def test_within_one_edit(self, rule):
        assert rule.matches_values(("smith",), ("smyth",))
        assert rule.matches_values(("smith",), ("smith",))
        assert not rule.matches_values(("smith",), ("schmidt",))

    def test_bound_rule(self, rule):
        schema = Schema([Attribute.categorical("surname")])
        bound = rule.bind(schema)
        assert bound.matches(("smith",), ("smiths",))
        assert not bound.matches(("smith",), ("jones",))

    def test_zero_threshold_is_equality(self, hierarchy):
        rule = MatchRule([MatchAttribute("surname", hierarchy, 0.0)])
        assert rule.matches_values(("smith",), ("smith",))
        assert not rule.matches_values(("smith",), ("smyth",))


class TestPrefixSlackSoundness:
    @settings(max_examples=150)
    @given(NAMES, NAMES, st.integers(0, 4), st.integers(0, 4))
    def test_bounds_contain_true_distance(self, left, right, cut_l, cut_r):
        """Generalized patterns bound the edit distance of the originals."""
        hierarchy = PrefixHierarchy("name", max_length=10)
        attribute = MatchAttribute("name", hierarchy, 1.0)
        left_pattern = hierarchy.generalize(left, min(cut_l, len(left)))
        right_pattern = hierarchy.generalize(right, min(cut_r, len(right)))
        lower, upper = attribute_slack(attribute, left_pattern, right_pattern)
        true_distance = edit_distance(left, right)
        assert lower <= true_distance <= upper

    def test_slack_decision_with_strings(self, hierarchy):
        rule = MatchRule([MatchAttribute("surname", hierarchy, 1.0)])
        # Concrete equal strings certainly match.
        assert slack_decision(rule, ("smith",), ("smith",)) is Label.MATCH
        # Prefixes far apart certainly mismatch: "abc*" vs "xyz..." with
        # tight budgets can still absorb; use concrete vs distant concrete.
        assert slack_decision(rule, ("aaaa",), ("zzzzzzzz",)) is Label.NONMATCH
        # A pattern against a compatible concrete string is unknown.
        assert slack_decision(rule, ("smi*",), ("smith",)) is Label.UNKNOWN


class TestStringAnonymization:
    @pytest.fixture(scope="class")
    def relation(self):
        schema = Schema(
            [Attribute.categorical("surname"), Attribute.continuous("age")]
        )
        surnames = (
            ["smith"] * 6 + ["smythe"] * 5 + ["jones"] * 6 + ["johnson"] * 5
            + ["johansen"] * 4 + ["ng"] * 4
        )
        return Relation(
            schema,
            [(surname, 20 + index % 40) for index, surname in enumerate(surnames)],
        )

    @pytest.fixture(scope="class")
    def catalog(self):
        return {
            "surname": PrefixHierarchy("surname", max_length=12),
            "age": IntervalHierarchy.equi_width("age", 17, 91, 8, levels=3),
        }

    def test_maxent_over_strings(self, relation, catalog):
        generalized = MaxEntropyTDS(catalog).anonymize(
            relation, ("surname", "age"), 4
        )
        assert generalized.is_k_anonymous(4)
        # Values must cover their originals.
        hierarchy = catalog["surname"]
        for eq_class in generalized.classes:
            pattern = eq_class.sequence[0]
            for index in eq_class.indices:
                assert hierarchy.covers(pattern, relation[index][0])

    def test_k1_publishes_concrete_names(self, relation, catalog):
        generalized = MaxEntropyTDS(catalog).anonymize(
            relation, ("surname", "age"), 1
        )
        for eq_class in generalized.classes:
            assert not is_pattern(eq_class.sequence[0])

    @pytest.mark.parametrize("anonymizer", [MaxEntropyTDS, TDS, Mondrian])
    def test_raw_wildcard_value_is_rejected(self, anonymizer):
        """A raw ``a*`` would be published as the pattern "starts with a"."""
        relation = Relation(
            Schema([Attribute.categorical("name")]),
            [("a*",), ("a*",), ("ab",), ("ab",)],
        )
        catalog = {"name": PrefixHierarchy("name", max_length=3)}
        with pytest.raises(AnonymizationError, match="wildcard"):
            anonymizer(catalog).anonymize(relation, ("name",), 2)


class TestStringPipeline:
    @pytest.fixture(scope="class")
    def setup(self):
        schema = Schema(
            [Attribute.categorical("surname"), Attribute.continuous("age")]
        )
        left_rows = [
            ("smith", 34), ("smith", 35), ("smyth", 34), ("smythe", 60),
            ("jones", 28), ("jones", 29), ("jonas", 28), ("ng", 50),
            ("ng", 51), ("ngo", 50), ("brown", 41), ("browne", 41),
        ]
        right_rows = [
            ("smith", 34), ("smyth", 35), ("jones", 28), ("jonas", 29),
            ("ng", 50), ("ngo", 51), ("brown", 41), ("braun", 41),
            ("clark", 22), ("clarke", 23), ("clerk", 22), ("kline", 37),
        ]
        left = Relation(schema, left_rows)
        right = Relation(schema, right_rows)
        catalog = {
            "surname": PrefixHierarchy("surname", max_length=12),
            "age": IntervalHierarchy.equi_width("age", 17, 91, 8, levels=3),
        }
        rule = MatchRule(
            [
                MatchAttribute("surname", catalog["surname"], 1.0),
                MatchAttribute("age", catalog["age"], 0.05),
            ]
        )
        return left, right, catalog, rule

    def test_ground_truth_with_edit_budget(self, setup):
        left, right, _, rule = setup
        truth = GroundTruth(rule, left, right)
        bound = rule.bind(left.schema)
        expected = {
            (i, j)
            for i, lrec in enumerate(left)
            for j, rrec in enumerate(right)
            if bound.matches(lrec, rrec)
        }
        assert set(truth.iter_matches()) == expected

    def test_hybrid_pipeline_precision_and_recall(self, setup):
        left, right, catalog, rule = setup
        qids = ("surname", "age")
        left_gen = identity_generalization(left, qids, catalog)
        right_gen = identity_generalization(right, qids, catalog)
        config = LinkageConfig(rule, allowance=1.0)
        result = HybridLinkage(config).run(left_gen, right_gen)
        evaluation = evaluate(result, rule, left, right)
        assert evaluation.precision == 1.0
        assert evaluation.recall == 1.0

    def test_hybrid_with_anonymization(self, setup):
        left, right, catalog, rule = setup
        qids = ("surname", "age")
        anonymizer = MaxEntropyTDS(catalog)
        left_gen = anonymizer.anonymize(left, qids, 2)
        right_gen = anonymizer.anonymize(right, qids, 2)
        config = LinkageConfig(rule, allowance=1.0)
        result = HybridLinkage(config).run(left_gen, right_gen)
        evaluation = evaluate(result, rule, left, right)
        assert evaluation.precision == 1.0
        assert evaluation.recall == 1.0  # full allowance covers all U pairs

    def test_paillier_oracle_rejects_edit_budgets(self, setup):
        from repro.crypto.smc.oracle import PaillierSMCOracle

        left, _, _, rule = setup
        oracle = PaillierSMCOracle(rule, left.schema, key_bits=256, rng=5)
        with pytest.raises(ProtocolError):
            oracle.compare(left[0], left[1])

    def test_paillier_oracle_supports_exact_string_match(self, setup):
        from repro.crypto.smc.oracle import PaillierSMCOracle

        left, _, catalog, _ = setup
        rule = MatchRule(
            [
                MatchAttribute("surname", catalog["surname"], 0.0),
                MatchAttribute("age", catalog["age"], 0.05),
            ]
        )
        oracle = PaillierSMCOracle(rule, left.schema, key_bits=256, rng=6)
        assert oracle.compare(("smith", 34), ("smith", 35))
        assert not oracle.compare(("smith", 34), ("smyth", 34))
