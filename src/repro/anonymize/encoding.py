"""Encoded hierarchies: per-record ancestor codes for the partitioning anonymizers.

The top-down anonymizers (:mod:`repro.anonymize.topdown`) and Mondrian's
categorical and prefix cuts split a partition by grouping its records under
the children of the partition's current node. Rather than looking each
record's child up one at a time, every QID column is encoded once into an
:class:`AncestorCodes` table:

- ``rows[d][i]`` is the integer code of record ``i``'s ancestor at depth
  ``d``; row 0 is the root. A record whose value sits above depth ``d``
  keeps its deepest node (the clamping :meth:`CategoricalHierarchy.generalize`
  applies), which no split ever reads, because a leaf cannot be split.
- For an interval hierarchy the row after a record's leaf interval holds
  the raw value as a point interval (the point specialization of
  :mod:`repro.anonymize.base`); for a prefix hierarchy the rows run
  ``"*"``, ``"s*"``, ``"sm*"``, ... and end with the concrete string.
- ``nodes[d][code]`` is the node a code stands for and
  ``splittable[d][code]`` says whether that node may be specialized.

Codes are numbered per depth, so a partition whose node sits at depth ``d``
splits by gathering row ``d + 1`` for its indices; group sizes then come
from one ``np.bincount``. Each row has the narrowest unsigned dtype that
holds its codes, usually one byte per record: with ``intp`` rows the heap
the tables occupied during a paper-scale run stayed resident afterwards,
about 3 MB per anonymization. Widen codes before arithmetic that could
overflow that dtype.

**Group order.** Groups are always taken in the order in which their code
first appears among the partition's indices (which stay in ascending record
order). The entropy scores sum floats in that order and the best-split
search breaks ties with a strict ``>``, so any other order could change
which split wins. :func:`first_appearance` produces that order.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.strings import WILDCARD, PrefixHierarchy, is_pattern
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.errors import AnonymizationError


class _Uncovered:
    """Placeholder node for a value that no child interval contains.

    Splitting the parent raises the error the scalar lookup raised; a
    partition that never splits that parent never sees it.
    """

    __slots__ = ("message",)

    def __init__(self, value: float, children: tuple[Interval, ...]):
        self.message = f"value {value!r} not covered by child intervals {children}"


def _containing(children: tuple[Interval, ...], value: float):
    for child in children:
        if child.contains(value):
            return child
    # Domain upper bound: the last child absorbs it.
    last = max(children, key=lambda interval: interval.hi)
    if value == last.hi:
        return last
    return _Uncovered(value, children)


def _interval_path(hierarchy: IntervalHierarchy, value: float) -> list:
    node = hierarchy.root
    path = [node]
    while isinstance(node, Interval) and (children := hierarchy.children_of(node)):
        node = _containing(children, value)
        path.append(node)
    if isinstance(node, Interval):
        path.append(Interval.point(value))
    return path


def _prefix_path(value: str) -> list[str]:
    return [value[:depth] + WILDCARD for depth in range(len(value) + 1)] + [value]


def encode_values(column: Sequence) -> tuple[np.ndarray, list]:
    """Integer codes (first-seen order) for *column* and its distinct values."""
    mapping: dict = {}
    codes = np.fromiter(
        (mapping.setdefault(value, len(mapping)) for value in column),
        dtype=np.intp,
        count=len(column),
    )
    return codes, list(mapping)


def check_raw_values(name: str, hierarchy, column: Sequence) -> None:
    """Raise :class:`AnonymizationError` unless *column* holds raw values only.

    Categorical values must be leaves of their VGH. Prefix values must be
    concrete strings within the length bound: a raw ``"a*"`` would be
    published as the pattern "any string starting with a".
    """
    if isinstance(hierarchy, CategoricalHierarchy):
        for value in set(column):
            if not hierarchy.is_leaf(value):
                raise AnonymizationError(
                    f"value {value!r} of {name!r} is not a leaf of its VGH"
                )
    elif isinstance(hierarchy, PrefixHierarchy):
        for value in set(column):
            if is_pattern(value):
                raise AnonymizationError(
                    f"value {value!r} of {name!r} ends with the wildcard "
                    f"{WILDCARD!r}, which marks a generalized prefix pattern"
                )
            if not hierarchy.is_node(value):
                raise AnonymizationError(
                    f"value {value!r} of {name!r} exceeds the prefix "
                    f"hierarchy's maximum length"
                )


def first_appearance(codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The codes present in *codes*, in the order they first appear.

    *counts* is ``np.bincount(codes)``.
    """
    present = np.flatnonzero(counts)
    if present.size < 2:
        return present
    first = np.full(counts.size, codes.size, dtype=np.intp)
    np.minimum.at(first, codes, np.arange(codes.size))
    return present[np.argsort(first[present])]


class AncestorCodes:
    """The ancestor-code table of one QID column (see the module docstring).

    Parameters
    ----------
    hierarchy:
        The column's hierarchy.
    column:
        Raw per-record values, as :func:`check_raw_values` accepts them
        (the anonymizers call it first).
    specialize_points:
        Whether a leaf interval may split into the raw point values.
    """

    def __init__(self, hierarchy, column: Sequence, *, specialize_points: bool):
        if isinstance(hierarchy, IntervalHierarchy):
            column = [float(value) for value in column]
        value_codes, values = encode_values(column)
        if isinstance(hierarchy, CategoricalHierarchy):
            paths = [hierarchy.path_to_root(value)[::-1] for value in values]
        elif isinstance(hierarchy, PrefixHierarchy):
            paths = [_prefix_path(value) for value in values]
        else:
            paths = [_interval_path(hierarchy, value) for value in values]
        depth = max((len(path) for path in paths), default=1)
        self.rows: list[np.ndarray] = []
        self.nodes: list[list] = []
        self.splittable: list[list[bool]] = []
        #: Per depth: a mask over codes marking uncovered values, or None.
        self._uncovered: list[np.ndarray | None] = []
        for level in range(depth):
            mapping: dict = {}
            level_codes = np.fromiter(
                (
                    mapping.setdefault(path[min(level, len(path) - 1)], len(mapping))
                    for path in paths
                ),
                dtype=np.intp,
                count=len(paths),
            )
            nodes = list(mapping)
            narrow = np.min_scalar_type(len(nodes) - 1)
            self.rows.append(level_codes.astype(narrow)[value_codes])
            self.nodes.append(nodes)
            self.splittable.append(
                [
                    level + 1 < depth
                    and _splittable(hierarchy, node, specialize_points)
                    for node in nodes
                ]
            )
            uncovered = np.array(
                [isinstance(node, _Uncovered) for node in nodes], dtype=bool
            )
            self._uncovered.append(uncovered if uncovered.any() else None)

    def node(self, level: int, index) -> object:
        """The depth-*level* ancestor of record *index*."""
        return self.nodes[level][self.rows[level][index]]

    def children(self, level: int, indices: np.ndarray) -> np.ndarray | None:
        """Depth-``level + 1`` codes of *indices*, which share a depth-*level* node.

        Returns ``None`` when that node cannot be specialized.
        """
        if not self.splittable[level][self.rows[level][indices[0]]]:
            return None
        child = self.rows[level + 1][indices]
        uncovered = self._uncovered[level + 1]
        if uncovered is not None:
            bad = uncovered[child]
            if bad.any():
                node = self.nodes[level + 1][child[int(np.argmax(bad))]]
                raise AnonymizationError(node.message)
        return child


def _splittable(hierarchy, node, specialize_points: bool) -> bool:
    if isinstance(hierarchy, CategoricalHierarchy):
        return not hierarchy.is_leaf(node)
    if isinstance(hierarchy, PrefixHierarchy):
        return is_pattern(node)
    if not isinstance(node, Interval) or node.is_point:
        return False
    return bool(hierarchy.children_of(node)) or specialize_points
