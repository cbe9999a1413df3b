"""Explicit three-party protocol simulation.

The paper's cast (Section I): "We assume three participants in our method.
These are two data holders, with the data sets to be linked, and the
querying party, who provides the classifier that determines matching
record pairs."

The library layers below (:mod:`repro.linkage.hybrid` and friends) pass
:class:`~repro.anonymize.base.GeneralizedRelation` objects around, which
carry a back-reference to the raw source relation for the SMC simulation.
That is convenient for experiments but blurs the party boundary. This
module makes the boundary explicit:

- :class:`DataHolder` owns a private relation and *publishes* only a
  :class:`PublishedView` — generalization sequences and class sizes, the
  exact artifact the paper assumes is public;
- :class:`QueryingParty` sees two published views and a
  :class:`SMCBridge`; it drives blocking, selection and the SMC step
  without ever holding a raw record (record pairs are addressed by
  ``(class_id, offset)`` handles). Blocking and selection are the
  library's own :func:`~repro.linkage.blocking.block` and
  :meth:`~repro.linkage.heuristics.SelectionHeuristic.order`, run
  directly on the published views (:func:`block_published_views`), so
  the protocol compares exactly the record pairs
  :class:`~repro.linkage.hybrid.HybridLinkage` compares;
- :class:`SMCBridge` stands for the cryptographic protocol execution: it
  resolves handles against each holder privately and returns only the
  match bit to the querying party (with the real Paillier backend, not
  even the bridge sees plaintext in a deployment — here it is the
  simulation point, as in DESIGN.md §4 substitution 3).

The result identifies matches by handles; each holder resolves its own
side back to record indices locally (:meth:`DataHolder.resolve`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.anonymize.base import Anonymizer
from repro.crypto.smc.oracle import CountingPlaintextOracle, SMCOracle
from repro.data.schema import Relation
from repro.errors import ConfigurationError, ProtocolError
from repro.linkage.blocking import ClassPair, block
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import MinAvgFirst, SelectionHeuristic
from repro.obs import NOOP_TELEMETRY, Telemetry
from repro.pipeline import BudgetLedger, consume_bridge, plan_leases

#: A record handle the querying party may hold: (class_id, offset).
Handle = tuple[int, int]


@dataclass(frozen=True)
class PublishedClass:
    """One equivalence class as the outside world sees it."""

    class_id: int
    sequence: tuple
    size: int


@dataclass(frozen=True)
class PublishedView:
    """A holder's public artifact: anonymized classes, nothing else."""

    holder: str
    qids: tuple[str, ...]
    classes: tuple[PublishedClass, ...]

    @property
    def record_count(self) -> int:
        """Total records behind the view."""
        return sum(published.size for published in self.classes)

    def __len__(self) -> int:
        return self.record_count


class DataHolder:
    """A party owning a private relation.

    The relation is intentionally name-mangled; everything other parties
    may learn flows through :meth:`publish` and the SMC bridge.
    """

    def __init__(self, name: str, relation: Relation):
        self.name = name
        self.__relation = relation
        self.__handle_map: dict[Handle, int] = {}
        self.__published: PublishedView | None = None

    def publish(
        self,
        anonymizer: Anonymizer,
        qids: Sequence[str],
        k: int,
    ) -> PublishedView:
        """Anonymize the private relation and return the public view.

        The holder chooses its own anonymizer, QID set and k — "participants
        can choose different anonymization methods, anonymity levels,
        quasi-identifier attribute sets" (Section I).
        """
        generalized = anonymizer.anonymize(self.__relation, qids, k)
        classes = []
        self.__handle_map.clear()
        for class_id, eq_class in enumerate(generalized.classes):
            classes.append(
                PublishedClass(class_id, eq_class.sequence, eq_class.size)
            )
            for offset, record_index in enumerate(eq_class.indices):
                self.__handle_map[(class_id, offset)] = record_index
        self.__published = PublishedView(
            holder=self.name, qids=tuple(qids), classes=tuple(classes)
        )
        return self.__published

    @property
    def schema(self):
        """The relation's schema (assumed public, as in the paper)."""
        return self.__relation.schema

    def _record_for(self, handle: Handle):
        """Resolve a handle privately (only the SMC bridge may call this)."""
        try:
            return self.__relation[self.__handle_map[handle]]
        except KeyError:
            raise ProtocolError(
                f"holder {self.name!r} has no record for handle {handle}"
            ) from None

    def resolve(self, handles: Sequence[Handle]) -> list[int]:
        """Map this holder's handles back to its own record indices."""
        return [self.__handle_map[handle] for handle in handles]


class SMCBridge:
    """The protocol-execution stand-in between the three parties.

    ``compare`` resolves one handle against each holder and feeds the
    records to the SMC oracle; only the boolean verdict leaves the bridge.
    """

    def __init__(
        self,
        left: DataHolder,
        right: DataHolder,
        rule: MatchRule,
        oracle_factory=CountingPlaintextOracle,
    ):
        if left.schema != right.schema:
            raise ConfigurationError("holders must share a schema")
        self._left = left
        self._right = right
        self.oracle: SMCOracle = oracle_factory(rule, left.schema)

    def compare(self, left_handle: Handle, right_handle: Handle) -> bool:
        """Run one secure comparison; the caller learns one bit."""
        return self.oracle.compare(
            self._left._record_for(left_handle),
            self._right._record_for(right_handle),
        )

    def compare_many(
        self, pairs: Sequence[tuple[Handle, Handle]]
    ) -> list[bool]:
        """Compare a batch of handle pairs; one verdict bit each.

        The querying party hands over whole batches so a networked bridge
        (:mod:`repro.net`) can amortize round trips; this in-process
        bridge simply loops. Verdict order matches *pairs* order.
        """
        return [self.compare(left, right) for left, right in pairs]

    @property
    def invocations(self) -> int:
        """Protocol invocations so far (the paper's cost unit)."""
        return self.oracle.invocations


@dataclass
class ProtocolOutcome:
    """What the querying party ends up with."""

    total_pairs: int
    blocked_match_pairs: int
    blocked_nonmatch_pairs: int
    unknown_pairs: int
    smc_invocations: int
    matched_handles: list[tuple[Handle, Handle]]
    matched_class_pairs: list[tuple[int, int]]
    leftover_pairs: int = 0
    claimed_class_pairs: list[tuple[int, int]] = field(default_factory=list)

    @property
    def blocking_efficiency(self) -> float:
        """Fraction of pairs the blocking step decided."""
        if self.total_pairs == 0:
            return 1.0
        decided = self.blocked_match_pairs + self.blocked_nonmatch_pairs
        return decided / self.total_pairs

    @property
    def reported_match_pairs(self) -> int:
        """Verified pairs: blocked-match cross products plus SMC hits."""
        return self.blocked_match_pairs + len(self.matched_handles)


def verified_match_handles(
    outcome: ProtocolOutcome,
    left_view: PublishedView,
    right_view: PublishedView,
) -> list[tuple[Handle, Handle]]:
    """Every verified matching handle pair of *outcome*.

    Blocking-M class pairs expand to their full cross product (sound by
    the slack rule, hence true matches); SMC hits are appended as-is.
    Each holder can resolve its side of these handles locally — this is
    exactly the artifact the networked querying party ships to the
    holders at the end of a remote run.
    """
    left_sizes = {c.class_id: c.size for c in left_view.classes}
    right_sizes = {c.class_id: c.size for c in right_view.classes}
    handles: list[tuple[Handle, Handle]] = []
    for left_id, right_id in outcome.matched_class_pairs:
        for left_offset in range(left_sizes[left_id]):
            for right_offset in range(right_sizes[right_id]):
                handles.append(
                    ((left_id, left_offset), (right_id, right_offset))
                )
    handles.extend(outcome.matched_handles)
    return handles


@dataclass
class ViewBlocking:
    """The querying party's blocking pass over two published views."""

    blocked_match_pairs: int
    blocked_nonmatch_pairs: int
    matched_class_pairs: list[tuple[int, int]]
    #: Unknown class pairs of published classes, in SMC consumption order.
    unknown: list[ClassPair]


def block_published_views(
    rule: MatchRule,
    heuristic: SelectionHeuristic,
    left_view: PublishedView,
    right_view: PublishedView,
    telemetry: Telemetry = NOOP_TELEMETRY,
) -> ViewBlocking:
    """Block two published views and order the unknown class pairs.

    The library's :func:`~repro.linkage.blocking.block` and
    ``heuristic.order`` run on the views as they are: both read only the
    QIDs, each class's sequence and size, and the record count, all of
    which a view publishes.
    """
    blocked = block(rule, left_view, right_view, telemetry=telemetry)
    return ViewBlocking(
        blocked_match_pairs=blocked.matched_pairs,
        blocked_nonmatch_pairs=blocked.nonmatch_pairs,
        matched_class_pairs=[
            (pair.left.class_id, pair.right.class_id)
            for pair in blocked.matched
        ],
        unknown=heuristic.order(
            blocked.unknown, rule, left_view, right_view, telemetry=telemetry
        ),
    )


class QueryingParty:
    """The party that provides the classifier and receives the join.

    It operates exclusively on published views and the SMC bridge; there
    is no code path from here to a raw record. *telemetry* mirrors
    :attr:`~repro.linkage.hybrid.LinkageConfig.telemetry`: it records the
    blocking and selection spans and never influences a decision.
    """

    def __init__(
        self,
        rule: MatchRule,
        *,
        allowance: float = 0.015,
        heuristic: SelectionHeuristic | None = None,
        claim_leftovers: bool = False,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        if not 0.0 <= allowance <= 1.0:
            raise ConfigurationError("allowance must be a fraction in [0, 1]")
        self.rule = rule
        self.allowance = allowance
        self.heuristic = heuristic or MinAvgFirst()
        #: Strategy 2 (maximize recall) when true; strategy 1 otherwise.
        self.claim_leftovers = claim_leftovers
        self.telemetry = telemetry

    def link(
        self,
        left_view: PublishedView,
        right_view: PublishedView,
        bridge: SMCBridge,
    ) -> ProtocolOutcome:
        """Run blocking + budgeted SMC over two published views.

        Blocking and ordering are :func:`block_published_views`: the
        library's slack-rule kernel and the heuristic's ordering, so the
        unknown class pairs reach SMC in exactly
        :class:`~repro.linkage.hybrid.HybridLinkage`'s order. The SMC step
        follows the pipeline's budget rule: the allowance is planned as
        per-class-pair leases (:func:`~repro.pipeline.plan_leases`),
        granted to a :class:`~repro.pipeline.BudgetLedger`, sent as one
        ``compare_many`` batch per lease, and the invocations the bridge
        billed during this call are reconciled against the grant.
        ``smc_invocations`` counts this call's invocations only, so a
        bridge can be reused across calls.
        """
        total_pairs = left_view.record_count * right_view.record_count
        blocked = block_published_views(
            self.rule, self.heuristic, left_view, right_view, self.telemetry
        )
        unknown = blocked.unknown
        outcome = ProtocolOutcome(
            total_pairs=total_pairs,
            blocked_match_pairs=blocked.blocked_match_pairs,
            blocked_nonmatch_pairs=blocked.blocked_nonmatch_pairs,
            unknown_pairs=sum(pair.size for pair in unknown),
            smc_invocations=0,
            matched_handles=[],
            matched_class_pairs=blocked.matched_class_pairs,
        )
        budget = math.floor(self.allowance * total_pairs)
        takes, _ = plan_leases((pair.size for pair in unknown), budget)
        ledger = BudgetLedger(allowance_pairs=budget)
        ledger.grant(takes)
        batches: list[list[tuple[Handle, Handle]]] = []
        for position, pair in enumerate(unknown):
            left_id = pair.left.class_id
            right_id = pair.right.class_id
            take = takes[position] if position < len(takes) else 0
            outcome.leftover_pairs += pair.size - take
            if take == 0:
                if self.claim_leftovers:
                    outcome.claimed_class_pairs.append((left_id, right_id))
                continue
            # Record pairs inside a class pair are indistinguishable from
            # the anonymized view, so the first `take` of them in row-major
            # order are compared and the remainder becomes leftovers.
            right_size = pair.right.size
            batches.append(
                [
                    (
                        (left_id, offset // right_size),
                        (right_id, offset % right_size),
                    )
                    for offset in range(take)
                ]
            )
        invocations_before = bridge.invocations
        for batch, verdicts in zip(batches, consume_bridge(bridge, batches)):
            for handles, verdict in zip(batch, verdicts):
                if verdict:
                    outcome.matched_handles.append(handles)
        outcome.smc_invocations = bridge.invocations - invocations_before
        ledger.bill(outcome.smc_invocations)
        ledger.reconcile()
        return outcome
