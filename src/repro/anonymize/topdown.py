"""Top-down specialization framework shared by TDS and MaxEntropyTDS.

Both algorithms follow the same recursion (paper Section VI-A): start with
every record generalized to the hierarchy roots, then repeatedly pick, for
each partition, a *valid* (every resulting non-empty child partition keeps
at least k records) and *beneficial* specialization, replace the partition's
node with its children and recurse. They differ only in what "beneficial"
means and how candidates are scored:

- TDS [7]: beneficial = positive information gain with respect to a class
  attribute; score = the information gain;
- the paper's method: every specialization is beneficial; score = the
  entropy of the attribute within the partition, so partitions "can
  withstand more specializations until the validity condition is violated".

Subclasses implement :meth:`_score`, returning ``None`` for non-beneficial
candidates.

Splits run over the encoded hierarchies of :mod:`repro.anonymize.encoding`:
each QID column is encoded once into per-record ancestor codes, a partition
is its ascending record indices plus the depth of its node per attribute,
and a candidate split gathers the next depth's codes for those indices.
Validity, l-diversity and the entropy scores need only group sizes, taken
with ``np.bincount``; index groups are built only for the winning split.
Groups are scored in the order their codes first appear among the
partition's indices, because the scores sum floats in that order and ties
go to the first candidate.

Because sibling partitions always differ in the attribute that split them,
the leaf partitions of the recursion are exactly the equivalence classes of
the output and all carry distinct sequences.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.anonymize.base import (
    Anonymizer,
    EquivalenceClass,
    GeneralizedRelation,
)
from repro.anonymize.encoding import (
    AncestorCodes,
    check_raw_values,
    encode_values,
    first_appearance,
)
from repro.data.schema import Relation
from repro.errors import AnonymizationError


@dataclass
class _Partition:
    """Ascending record indices sharing one node depth per attribute."""

    indices: np.ndarray
    levels: list[int]


class TopDownSpecializer(Anonymizer):
    """Common recursion for top-down specialization algorithms.

    Parameters
    ----------
    hierarchies:
        Hierarchy catalog keyed by attribute name.
    specialize_points:
        When true (the default), continuous leaf intervals may take one
        final specialization step down to the raw values (as point
        intervals) whenever that step is valid — required for the paper's
        k=1 scenario, in which the anonymized relation equals the original.
    diversity, sensitive_attribute:
        Optional l-diversity extension (Machanavajjhala et al. [10], the
        paper's Section VII): with ``diversity = l > 1``, a specialization
        is valid only when every non-empty child partition also contains
        at least l distinct values of *sensitive_attribute*. The output is
        then simultaneously k-anonymous and l-diverse.
    """

    def __init__(
        self,
        hierarchies,
        *,
        specialize_points: bool = True,
        diversity: int = 1,
        sensitive_attribute: str = "income",
    ):
        super().__init__(hierarchies)
        self.specialize_points = specialize_points
        if diversity < 1:
            raise AnonymizationError("diversity must be at least 1")
        self.diversity = diversity
        self.sensitive_attribute = sensitive_attribute
        self._sensitive_codes = np.empty(0, dtype=np.intp)
        self._sensitive_width = 0

    def anonymize(
        self, relation: Relation, qids: Sequence[str], k: int
    ) -> GeneralizedRelation:
        """Run the top-down recursion and group the leaf partitions."""
        self._check_arguments(relation, qids, k)
        positions = relation.schema.positions(qids)
        hierarchy_list = [self.hierarchies[name] for name in qids]
        encoded = []
        for name, position, hierarchy in zip(qids, positions, hierarchy_list):
            column = [record[position] for record in relation]
            check_raw_values(name, hierarchy, column)
            encoded.append(
                AncestorCodes(
                    hierarchy, column, specialize_points=self.specialize_points
                )
            )
        if self.diversity > 1:
            if self.sensitive_attribute not in relation.schema:
                raise AnonymizationError(
                    f"l-diversity needs attribute {self.sensitive_attribute!r}"
                )
            sensitive_position = relation.schema.position(
                self.sensitive_attribute
            )
            self._sensitive_codes, values = encode_values(
                [record[sensitive_position] for record in relation]
            )
            self._sensitive_width = len(values)
            if len(values) < self.diversity:
                raise AnonymizationError(
                    f"the relation only has {len(values)} distinct "
                    f"{self.sensitive_attribute!r} values; l="
                    f"{self.diversity} is unattainable"
                )
        self._prepare(relation, qids)
        stack = [_Partition(np.arange(len(relation)), [0] * len(encoded))]
        classes: list[EquivalenceClass] = []
        while stack:
            partition = stack.pop()
            best = self._best_split(partition, encoded, k)
            if best is None:
                first = partition.indices[0]
                sequence = tuple(
                    codes.node(level, first)
                    for codes, level in zip(encoded, partition.levels)
                )
                classes.append(
                    EquivalenceClass(sequence, tuple(partition.indices.tolist()))
                )
                continue
            attr_position, child, order = best
            levels = list(partition.levels)
            levels[attr_position] += 1
            for code in order:
                stack.append(_Partition(partition.indices[child == code], levels))
        classes.sort(key=lambda eq_class: eq_class.indices)
        return GeneralizedRelation(
            relation, qids, {name: self.hierarchies[name] for name in qids},
            classes, k=k,
        )

    def _best_split(self, partition, encoded, k):
        """The best valid, beneficial split, as ``(attribute, child, order)``."""
        indices = partition.indices
        best_score = None
        best = None
        for attr_position, codes in enumerate(encoded):
            child = codes.children(partition.levels[attr_position], indices)
            if child is None:
                continue
            counts = np.bincount(child)
            if counts[counts > 0].min() < k:
                continue
            if not self._diverse_enough(indices, child, counts):
                continue
            order = first_appearance(child, counts)
            score = self._score(indices, child, order, counts[order].tolist())
            if score is None:
                continue
            if best_score is None or score > best_score:
                best_score = score
                best = (attr_position, child, order)
        return best

    def _diverse_enough(self, indices, child, counts) -> bool:
        """l-diversity validity: each child keeps >= l sensitive values."""
        if self.diversity <= 1:
            return True
        width = self._sensitive_width
        seen = np.bincount(
            child.astype(np.intp) * width + self._sensitive_codes[indices],
            minlength=counts.size * width,
        )
        distinct = np.count_nonzero(seen.reshape(counts.size, width), axis=1)
        return bool(distinct[counts > 0].min() >= self.diversity)

    def _prepare(self, relation: Relation, qids: Sequence[str]) -> None:
        """Hook for subclasses that need per-run precomputation."""

    def _score(
        self,
        indices: np.ndarray,
        child: np.ndarray,
        order: np.ndarray,
        sizes: list[int],
    ) -> float | None:
        """Score a candidate specialization; ``None`` = not beneficial.

        *child* holds the child code of each of *indices*; *order* lists
        the child codes present in first-appearance order and *sizes*
        their group sizes in that order.
        """
        raise NotImplementedError
