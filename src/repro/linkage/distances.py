"""Distance functions and the exact matching decision rule ``dr``.

Section II of the paper: given per-attribute distance functions ``d_i`` and
matching thresholds ``theta_i``, a record pair matches when *every*
attribute satisfies ``d_i(r.a_i, s.a_i) <= theta_i``. As in the paper's
experiments, categorical attributes use Hamming distance (0/1) and
continuous attributes use (one-dimensional) Euclidean distance; thresholds
for continuous attributes are normalized by the attribute's domain range
(``normFactor``, the width of the VGH root — 98 for the Work-Hrs example).

:class:`MatchRule` is the classifier the querying party provides. It is the
single source of truth for "does this pair match": the ground-truth oracle,
the blocking step's soundness and the SMC protocols all defer to it.

The module also implements Levenshtein edit distance for the paper's
future-work extension to alphanumeric attributes (Section VIII), exercised
by :mod:`repro.linkage.slack`'s string-prefix slack bounds.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.data.schema import Record, Schema
from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy
from repro.errors import ConfigurationError

Hierarchy = CategoricalHierarchy | IntervalHierarchy | PrefixHierarchy


def hamming_distance(left: str, right: str) -> int:
    """The paper's categorical distance: 0 when equal, 1 otherwise."""
    return 0 if left == right else 1


def euclidean_distance(left: float, right: float) -> float:
    """One-dimensional Euclidean distance ``sqrt((l - r)^2) = |l - r|``."""
    return abs(left - right)


def edit_distance(left: str, right: str) -> int:
    """Levenshtein distance (future-work alphanumeric extension).

    Classic two-row dynamic program; O(len(left) * len(right)).
    """
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for row, left_char in enumerate(left, start=1):
        current = [row]
        for column, right_char in enumerate(right, start=1):
            substitution = previous[column - 1] + (left_char != right_char)
            insertion = current[column - 1] + 1
            deletion = previous[column] + 1
            current.append(min(substitution, insertion, deletion))
        previous = current
    return previous[-1]


@dataclass(frozen=True)
class MatchAttribute:
    """One attribute of the querying party's classifier.

    Parameters
    ----------
    name:
        Attribute name, present in both input schemas.
    hierarchy:
        The attribute's VGH. Besides driving anonymization and the slack
        rule, it supplies the normalization factor for continuous
        thresholds (the width of the root interval).
    threshold:
        The paper's ``theta_i``. For continuous attributes the *effective*
        threshold is ``theta_i * normFactor``; for categorical attributes a
        threshold below 1 requires equality and a threshold of 1 or more
        never constrains (Hamming distance is 0 or 1).
    """

    name: str
    hierarchy: Hierarchy
    threshold: float

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ConfigurationError(
                f"threshold for {self.name!r} must be non-negative"
            )

    @property
    def is_continuous(self) -> bool:
        """True when this attribute compares numbers."""
        return isinstance(self.hierarchy, IntervalHierarchy)

    @property
    def is_string(self) -> bool:
        """True for the edit-distance extension (prefix hierarchies)."""
        return isinstance(self.hierarchy, PrefixHierarchy)

    @property
    def effective_threshold(self) -> float:
        """The threshold on the raw distance scale.

        ``theta_i * normFactor`` for continuous attributes (the paper's
        ``0.2 x 98 = 19.6``); ``theta_i`` itself for categorical ones and
        for the edit-distance extension (an absolute edit budget — a
        threshold below 1 therefore requires exact equality).
        """
        if self.is_continuous:
            return self.threshold * self.hierarchy.domain_range
        return self.threshold

    @property
    def domain_bound(self) -> float | None:
        """The largest ``|value|`` in a continuous attribute's domain.

        Read from the root interval of the (public) hierarchy; the SMC
        oracle sizes its blinding factors from it. ``None`` for
        categorical and string attributes.
        """
        if not self.is_continuous:
            return None
        root = self.hierarchy.root
        return max(abs(root.lo), abs(root.hi))

    def distance(self, left, right) -> float:
        """The raw distance ``d_i`` between two original values."""
        if self.is_continuous:
            return euclidean_distance(left, right)
        if self.is_string:
            return float(edit_distance(left, right))
        return float(hamming_distance(left, right))

    def within_threshold(self, left, right) -> bool:
        """True when ``d_i(left, right) <= theta_i`` (normalized)."""
        return self.distance(left, right) <= self.effective_threshold


class MatchRule:
    """The decision rule ``dr``: match iff every attribute is within range.

    Instances are bound to attribute *names*; :meth:`bind` resolves those
    names against a concrete schema once, so per-pair evaluation is a tight
    loop over positions.
    """

    def __init__(self, attributes: Iterable[MatchAttribute]):
        self.attributes = tuple(attributes)
        if not self.attributes:
            raise ConfigurationError("a match rule needs at least one attribute")
        names = [attribute.name for attribute in self.attributes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate attributes in match rule: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names, in rule order."""
        return tuple(attribute.name for attribute in self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{attribute.name}<={attribute.threshold:g}" for attribute in self
        )
        return f"MatchRule({inner})"

    def restrict(self, names: Sequence[str]) -> "MatchRule":
        """A new rule over the subset *names* (the top-q QID sweeps)."""
        keep = set(names)
        return MatchRule(
            attribute for attribute in self.attributes if attribute.name in keep
        )

    def with_thresholds(self, threshold: float) -> "MatchRule":
        """A new rule with every theta_i replaced by *threshold*."""
        return MatchRule(
            MatchAttribute(attribute.name, attribute.hierarchy, threshold)
            for attribute in self.attributes
        )

    def bind(self, schema: Schema) -> "BoundMatchRule":
        """Resolve attribute names to column positions in *schema*."""
        return BoundMatchRule(self, schema)

    def matches_values(self, left_values: Sequence, right_values: Sequence) -> bool:
        """Apply ``dr`` to value tuples aligned with the rule's attributes."""
        for attribute, left, right in zip(self.attributes, left_values, right_values):
            if not attribute.within_threshold(left, right):
                return False
        return True


class BoundMatchRule:
    """A :class:`MatchRule` with positions resolved against a schema."""

    def __init__(self, rule: MatchRule, schema: Schema):
        self.rule = rule
        self.schema = schema
        self._positions = schema.positions(rule.names)
        self._thresholds = tuple(
            attribute.effective_threshold for attribute in rule
        )
        self._continuous = tuple(attribute.is_continuous for attribute in rule)
        self._string = tuple(attribute.is_string for attribute in rule)

    @property
    def positions(self) -> tuple[int, ...]:
        """Schema column positions of the rule's attributes, in rule order."""
        return self._positions

    def project(self, record: Record) -> tuple:
        """Extract the rule's attribute values from *record*, in rule order."""
        return tuple(record[position] for position in self._positions)

    def matches(self, left: Record, right: Record) -> bool:
        """Apply ``dr`` to two full records."""
        for position, threshold, is_continuous, is_string in zip(
            self._positions, self._thresholds, self._continuous, self._string
        ):
            left_value = left[position]
            right_value = right[position]
            if is_continuous:
                if abs(left_value - right_value) > threshold:
                    return False
            elif left_value != right_value:
                if is_string:
                    if edit_distance(left_value, right_value) > threshold:
                        return False
                elif threshold < 1:
                    return False
        return True

    def distances(self, left: Record, right: Record) -> tuple[float, ...]:
        """Per-attribute raw distances, in rule order."""
        return tuple(
            attribute.distance(left[position], right[position])
            for attribute, position in zip(self.rule, self._positions)
        )
