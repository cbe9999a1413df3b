"""Parity of the encoded ancestor-code split with the scalar reference.

:class:`repro.anonymize.encoding.AncestorCodes` replaced the per-record
``ChildLookup`` regrouping (kept in ``scalar_anonymizer.py``). These
properties check, for random categorical (unbalanced), interval (point
specialization and the domain upper bound included) and prefix
hierarchies, that

- every split yields the same child nodes, with the same indices, in the
  same first-appearance order;
- ``MaxEntropyTDS`` and ``TDS`` produce the same equivalence classes and
  sequences as the scalar recursion, for random k and l.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scalar_anonymizer import (
    ChildLookup,
    maxent_score,
    reference_top_down,
    tds_score,
)

from repro.anonymize import TDS, MaxEntropyTDS
from repro.anonymize.encoding import AncestorCodes, first_appearance
from repro.data.schema import Attribute, Relation, Schema
from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy
from repro.errors import AnonymizationError

#: An unbalanced interval tree, like the paper's Work-Hrs VGH.
IRREGULAR = IntervalHierarchy.from_tree(
    "irregular", (0, 20, [(0, 5), (5, 20, [(5, 10), (10, 20, [(10, 12), (12, 20)])])])
)


def _categorical_spec(draw, depth, names):
    spec = {}
    for _ in range(draw(st.integers(1, 3))):
        name = f"v{next(names)}"
        kind = draw(st.integers(0, 2)) if depth < 3 else 0
        if kind == 0:
            spec[name] = []
        elif kind == 1:
            spec[name] = [f"v{next(names)}" for _ in range(draw(st.integers(1, 3)))]
        else:
            spec[name] = _categorical_spec(draw, depth + 1, names)
    return spec


@st.composite
def categorical_case(draw):
    hierarchy = CategoricalHierarchy(
        "cat", {"ANY": _categorical_spec(draw, 1, itertools.count())}
    )
    return hierarchy, st.sampled_from(hierarchy.leaves)


@st.composite
def interval_case(draw):
    if draw(st.booleans()):
        return IRREGULAR, st.integers(0, 40).map(lambda value: value / 2)
    lo = draw(st.integers(0, 20))
    leaf_width = draw(st.integers(1, 5))
    leaves = draw(st.integers(1, 6))
    hi = lo + leaf_width * leaves + draw(st.integers(0, leaf_width - 1))
    hierarchy = IntervalHierarchy.equi_width(
        "num", lo, hi, leaf_width, levels=draw(st.integers(1, 3))
    )
    # Upper bound included: the last child absorbs the domain's top value.
    return hierarchy, st.integers(2 * lo, 2 * hi).map(lambda value: value / 2)


@st.composite
def prefix_case(draw):
    max_length = draw(st.integers(1, 4))
    hierarchy = PrefixHierarchy("name", max_length=max_length)
    return hierarchy, st.text(alphabet="ab", max_size=max_length)


hierarchy_case = st.one_of(categorical_case(), interval_case(), prefix_case())


@st.composite
def column_case(draw):
    hierarchy, values = draw(hierarchy_case)
    column = draw(st.lists(values, min_size=1, max_size=40))
    return hierarchy, column, draw(st.booleans())


class TestSplitParity:
    @given(case=column_case(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_split_matches_child_lookup(self, case, data):
        """Walk random root-to-leaf split paths; every split agrees."""
        hierarchy, column, specialize_points = case
        encoded = AncestorCodes(
            hierarchy, column, specialize_points=specialize_points
        )
        lookup = ChildLookup(hierarchy, specialize_points)
        indices = sorted(
            data.draw(st.sets(st.integers(0, len(column) - 1), min_size=1))
        )
        node = hierarchy.root
        level = 0
        while True:
            assert encoded.node(level, indices[0]) == node
            expected = lookup.split(node, indices, column)
            child = encoded.children(level, np.array(indices))
            if expected is None:
                assert child is None
                return
            counts = np.bincount(child)
            groups = {
                encoded.nodes[level + 1][code]: np.array(indices)[
                    child == code
                ].tolist()
                for code in first_appearance(child, counts)
            }
            assert list(groups.items()) == list(expected.items())
            node, indices = data.draw(st.sampled_from(list(groups.items())))
            level += 1

    def test_uncovered_value_raises_when_split(self):
        gappy = IntervalHierarchy.from_tree("gappy", (0, 10, [(0, 4), (6, 10)]))
        column = [1, 5]
        encoded = AncestorCodes(gappy, column, specialize_points=True)
        assert encoded.children(0, np.array([0])) is not None
        with pytest.raises(AnonymizationError) as scalar:
            ChildLookup(gappy, True).split(gappy.root, [0, 1], column)
        with pytest.raises(AnonymizationError, match="not covered") as vectorized:
            encoded.children(0, np.array([0, 1]))
        assert str(vectorized.value) == str(scalar.value)


SCHEMA = Schema(
    [
        Attribute.categorical("cat"),
        Attribute.continuous("num"),
        Attribute.categorical("name"),
        Attribute.categorical("income"),
    ]
)


@st.composite
def anonymization_case(draw):
    cat, cats = draw(categorical_case())
    num, nums = draw(interval_case())
    name, names = draw(prefix_case())
    size = draw(st.integers(1, 40))
    records = [
        (draw(cats), draw(nums), draw(names), draw(st.sampled_from("xyz")))
        for _ in range(size)
    ]
    relation = Relation(SCHEMA, records)
    hierarchies = {"cat": cat, "num": num, "name": name}
    qids = draw(st.permutations(["cat", "num", "name"]))
    return relation, hierarchies, qids, draw(st.integers(1, size))


class TestAnonymizerParity:
    @given(
        case=anonymization_case(),
        diversity=st.integers(1, 3),
        specialize_points=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_max_entropy(self, case, diversity, specialize_points):
        relation, hierarchies, qids, k = case
        sensitive = relation.column("income")
        assume(len(set(sensitive)) >= diversity)
        anonymizer = MaxEntropyTDS(
            hierarchies, specialize_points=specialize_points, diversity=diversity
        )
        expected = reference_top_down(
            relation, qids, hierarchies, k, maxent_score,
            specialize_points=specialize_points, diversity=diversity,
            sensitive=sensitive,
        )
        assert list(anonymizer.anonymize(relation, qids, k).classes) == expected

    @given(case=anonymization_case(), diversity=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_tds(self, case, diversity):
        relation, hierarchies, qids, k = case
        labels = relation.column("income")
        assume(len(set(labels)) >= diversity)
        anonymizer = TDS(hierarchies, diversity=diversity)
        expected = reference_top_down(
            relation, qids, hierarchies, k, tds_score(labels),
            diversity=diversity, sensitive=labels,
        )
        assert list(anonymizer.anonymize(relation, qids, k).classes) == expected
