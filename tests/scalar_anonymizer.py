"""Scalar reference for the encoded anonymizer splits (test-only).

:class:`ChildLookup` regroups a partition's records one at a time under the
child of the partition's node that each record's value falls under. It is
the split the top-down anonymizers and Mondrian's categorical and prefix
cuts ran before the ancestor-code tables of :mod:`repro.anonymize.encoding`
replaced it. :func:`reference_top_down` replays the top-down recursion of
that time on top of it, with its scores and its l-diversity check. The
parity tests in ``test_encoded_split.py`` hold the encoded path to both.
"""

import math
from collections import Counter

from repro.anonymize.base import EquivalenceClass
from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.errors import AnonymizationError

_GAIN_EPSILON = 1e-12


class ChildLookup:
    """Maps (current node, record value) to the child node under that node."""

    def __init__(self, hierarchy, specialize_points: bool):
        self.hierarchy = hierarchy
        self.specialize_points = specialize_points
        self._leaf_to_child: dict = {}
        if isinstance(hierarchy, CategoricalHierarchy):
            for node in hierarchy.nodes:
                for child in hierarchy.children_of(node):
                    for leaf in hierarchy.leaf_set(child):
                        self._leaf_to_child[(node, leaf)] = child

    def split(self, node, indices: list[int], column) -> dict | None:
        """Group *indices* by the child of *node* their value falls under.

        Returns ``None`` when *node* cannot be specialized further.
        """
        hierarchy = self.hierarchy
        if isinstance(hierarchy, CategoricalHierarchy):
            if hierarchy.is_leaf(node):
                return None
            groups: dict = {}
            lookup = self._leaf_to_child
            for index in indices:
                child = lookup[(node, column[index])]
                groups.setdefault(child, []).append(index)
            return groups
        if isinstance(hierarchy, PrefixHierarchy):
            if hierarchy.is_leaf(node):
                return None
            groups = {}
            for index in indices:
                child = hierarchy.child_for(node, column[index])
                groups.setdefault(child, []).append(index)
            return groups
        # Continuous attribute.
        if isinstance(node, Interval) and node.is_point:
            return None
        assert isinstance(hierarchy, IntervalHierarchy)
        children = hierarchy.children_of(node) if hierarchy.is_node(node) else ()
        if children:
            groups = {}
            for index in indices:
                value = float(column[index])
                child = self._containing(children, value)
                groups.setdefault(child, []).append(index)
            return groups
        if not self.specialize_points:
            return None
        # Leaf interval -> raw point values.
        groups = {}
        for index in indices:
            point = Interval.point(float(column[index]))
            groups.setdefault(point, []).append(index)
        if len(groups) == 1 and next(iter(groups)) == node:
            return None
        return groups

    @staticmethod
    def _containing(children: tuple[Interval, ...], value: float) -> Interval:
        for child in children:
            if child.contains(value):
                return child
        # Domain upper bound: the last child absorbs it.
        last = max(children, key=lambda interval: interval.hi)
        if value == last.hi:
            return last
        raise AnonymizationError(
            f"value {value!r} not covered by child intervals {children}"
        )


def _entropy(sizes) -> float:
    total = sum(sizes)
    entropy = 0.0
    for size in sizes:
        probability = size / total
        entropy -= probability * math.log2(probability)
    return entropy


def maxent_score(indices, groups):
    """MaxEntropyTDS: entropy of the branch sizes, in group order."""
    return _entropy([len(group) for group in groups.values()])


def tds_score(labels):
    """TDS: information gain against *labels*; ``None`` when not beneficial."""

    def score(indices, groups):
        parent = _entropy(list(Counter(labels[index] for index in indices).values()))
        if parent == 0.0:
            return None
        children = 0.0
        for group in groups.values():
            weight = len(group) / len(indices)
            counts = Counter(labels[index] for index in group)
            children += weight * _entropy(list(counts.values()))
        gain = parent - children
        return None if gain <= _GAIN_EPSILON else gain

    return score


def reference_top_down(
    relation, qids, hierarchies, k, score, *, specialize_points=True,
    diversity=1, sensitive=None,
):
    """The top-down recursion over :class:`ChildLookup` splits.

    *score* maps ``(indices, groups)`` to a score or ``None``; *sensitive*
    is the per-record sensitive column the l-diversity check reads.
    """
    positions = relation.schema.positions(qids)
    columns = [[record[position] for record in relation] for position in positions]
    lookups = [ChildLookup(hierarchies[name], specialize_points) for name in qids]
    stack = [(list(range(len(relation))), [hierarchies[name].root for name in qids])]
    classes = []
    while stack:
        indices, sequence = stack.pop()
        best_score = None
        best = None
        for attr_position, lookup in enumerate(lookups):
            groups = lookup.split(
                sequence[attr_position], indices, columns[attr_position]
            )
            if groups is None:
                continue
            if any(len(group) < k for group in groups.values()):
                continue
            if diversity > 1 and any(
                len({sensitive[index] for index in group}) < diversity
                for group in groups.values()
            ):
                continue
            candidate = score(indices, groups)
            if candidate is None:
                continue
            if best_score is None or candidate > best_score:
                best_score = candidate
                best = (attr_position, groups)
        if best is None:
            classes.append(EquivalenceClass(tuple(sequence), tuple(indices)))
            continue
        attr_position, groups = best
        for child_node, group in groups.items():
            child_sequence = list(sequence)
            child_sequence[attr_position] = child_node
            stack.append((group, child_sequence))
    classes.sort(key=lambda eq_class: eq_class.indices)
    return classes
