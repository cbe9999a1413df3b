"""Top-Down Specialization (TDS) of Fung, Wang and Yu [7].

As described in the paper's Section VI-A: starting from the most general
state, "at each step, for each partition of specialized records, among the
attributes that respect the k-anonymity requirement and that are beneficial
for classification (i.e. information gain should not be 0), the one that
maximizes information gain is selected."

Information gain is computed against a class attribute (``income`` for the
Adult data set, the classification task of [7]). The paper highlights why
this metric blocks poorly: non-beneficial specializations are never
performed, and maximizing information gain minimizes class-conditional
entropy rather than maximizing the number of distinct sequences.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.anonymize.encoding import encode_values, first_appearance
from repro.anonymize.maxent import branch_entropy
from repro.anonymize.topdown import TopDownSpecializer
from repro.data.schema import Relation
from repro.errors import AnonymizationError

#: Gains below this are treated as zero (floating-point guard).
_GAIN_EPSILON = 1e-12


def class_entropy(labels: Sequence) -> float:
    """Shannon entropy (bits) of a class-label multiset.

    Label counts are summed in the order the labels first appear.
    """
    return branch_entropy(list(Counter(labels).values()))


def _coded_entropy(labels: np.ndarray) -> float:
    """:func:`class_entropy` of integer label codes."""
    counts = np.bincount(labels)
    return branch_entropy(counts[first_appearance(labels, counts)].tolist())


class TDS(TopDownSpecializer):
    """Information-gain-driven top-down specialization.

    Parameters
    ----------
    hierarchies:
        Hierarchy catalog keyed by attribute name.
    class_attribute:
        The classification target whose predictability the algorithm
        preserves (``income`` in the Adult experiments).
    """

    def __init__(
        self, hierarchies, *, class_attribute: str = "income", **kwargs
    ):
        super().__init__(hierarchies, **kwargs)
        self.class_attribute = class_attribute
        self._labels = np.empty(0, dtype=np.intp)

    def _prepare(self, relation: Relation, qids) -> None:
        if self.class_attribute not in relation.schema:
            raise AnonymizationError(
                f"TDS needs class attribute {self.class_attribute!r} in the relation"
            )
        position = relation.schema.position(self.class_attribute)
        self._labels, _ = encode_values([record[position] for record in relation])

    def _score(self, indices, child, order, sizes):
        """Information gain of the split; ``None`` when not beneficial."""
        labels = self._labels[indices]
        parent_entropy = _coded_entropy(labels)
        if parent_entropy == 0.0:
            return None
        total = len(indices)
        children_entropy = 0.0
        for code, size in zip(order, sizes):
            weight = size / total
            children_entropy += weight * _coded_entropy(labels[child == code])
        gain = parent_entropy - children_entropy
        if gain <= _GAIN_EPSILON:
            return None
        return gain
