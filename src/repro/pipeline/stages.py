"""The pipeline's stages: block, select, SMC, leftovers.

Each stage wraps one phase of the paper's hybrid method behind a
``run(context, ...)`` method and runs it in-process, in order: the
blocking kernels, the heuristic's ordering, the budgeted oracle loop and
the leftover strategy, with the same spans and counters the library has
always recorded. The SMC stage spends the allowance by the budget rule
of :mod:`repro.pipeline.context`.

The module also holds :func:`consume_bridge`, which
:class:`repro.protocol.QueryingParty` uses to feed its per-lease handle
batches to an SMC bridge.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.anonymize.base import GeneralizedRelation
from repro.crypto.smc.oracle import SMCOracle
from repro.errors import ProtocolError
from repro.linkage.blocking import BlockingResult, ClassPair, block
from repro.linkage.strategies import SMCObservation

from .context import RunContext, plan_leases


class Stage(abc.ABC):
    """One phase of the hybrid method."""

    name: str = "abstract"

    @abc.abstractmethod
    def run(self, context: RunContext, *args, **kwargs):
        """Execute the stage with *context*'s config and telemetry."""


def compare_class_pair(
    oracle: SMCOracle,
    left: GeneralizedRelation,
    right: GeneralizedRelation,
    pair: ClassPair,
    take: int,
    smc_matched: list[tuple[int, int]],
) -> int:
    """Compare the first *take* record pairs of *pair* in row-major order.

    Appends matching index pairs to *smc_matched* and returns the match
    count. Record pairs inside a class pair are anonymization-
    indistinguishable, so row-major order is as good as any and keeps runs
    reproducible. The heavy lifting is delegated to the oracle's
    ``compare_block`` (vectorized on the counting backend).
    """
    left_records = [left.source[index] for index in pair.left.indices]
    right_records = [right.source[index] for index in pair.right.indices]
    matched_offsets = oracle.compare_block(left_records, right_records, take)
    for left_offset, right_offset in matched_offsets:
        smc_matched.append(
            (pair.left.indices[left_offset], pair.right.indices[right_offset])
        )
    return len(matched_offsets)


class BlockStage(Stage):
    """The blocking step over two anonymized relations."""

    name = "block"

    def run(
        self,
        context: RunContext,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> BlockingResult:
        config = context.config
        return block(
            config.rule, left, right,
            engine=config.engine, telemetry=context.telemetry,
        )


class SelectStage(Stage):
    """Order the unknown class pairs for SMC consumption."""

    name = "select"

    def run(
        self,
        context: RunContext,
        unknown: list[ClassPair],
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> list[ClassPair]:
        config = context.config
        return config.heuristic.order(
            unknown, config.rule, left, right,
            engine=config.engine, telemetry=context.telemetry,
        )


@dataclass
class SMCOutcome:
    """What the SMC stage hands the leftover stage and the result."""

    observations: list[SMCObservation] = field(default_factory=list)
    smc_matched: list[tuple[int, int]] = field(default_factory=list)
    leftovers: list[ClassPair] = field(default_factory=list)
    invocations: int = 0
    attribute_comparisons: int = 0


class SMCStage(Stage):
    """Spend the allowance comparing record pairs, in order."""

    name = "smc"

    def run(
        self,
        context: RunContext,
        ordered: list[ClassPair],
        allowance_pairs: int,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> SMCOutcome:
        config = context.config
        telemetry = context.telemetry
        takes, _ = plan_leases((pair.size for pair in ordered), allowance_pairs)
        ledger = context.open_ledger(allowance_pairs)
        ledger.grant(takes)
        oracle = config.oracle_factory(config.rule, left.source.schema)
        if telemetry.enabled:
            oracle.attach_telemetry(telemetry)
        invocations_before = oracle.invocations
        comparisons_before = oracle.attribute_comparisons
        outcome = SMCOutcome()
        observations = outcome.observations
        smc_matched = outcome.smc_matched
        leftovers = outcome.leftovers
        spent = 0
        with telemetry.span(
            "linkage.smc", backend=type(oracle).__name__
        ) as smc_span:
            with telemetry.span("oracle.compare", backend=type(oracle).__name__):
                for position, (pair, take) in enumerate(zip(ordered, takes)):
                    matches = compare_class_pair(
                        oracle, left, right, pair, take, smc_matched
                    )
                    spent += take
                    observations.append(SMCObservation(pair, take, matches))
                    if take < pair.size:
                        leftovers.append(pair)
                    telemetry.histogram("smc.class_pair_take").observe(take)
                    telemetry.emit_progress(
                        "smc",
                        spent,
                        allowance_pairs,
                        unit="pairs",
                        matches=len(smc_matched),
                        class_pairs=position + 1,
                    )
                leftovers.extend(ordered[len(takes):])
            outcome.invocations = oracle.invocations - invocations_before
            outcome.attribute_comparisons = (
                oracle.attribute_comparisons - comparisons_before
            )
            smc_span.annotate(
                invocations=outcome.invocations,
                matches=len(smc_matched),
            )
        if telemetry.enabled:
            oracle.publish_metrics()
            telemetry.counter("smc.allowance_pairs").add(allowance_pairs)
            telemetry.counter("smc.matched_pairs").add(len(smc_matched))
        ledger.bill(outcome.invocations)
        ledger.reconcile()
        return outcome


class LeftoverStage(Stage):
    """Hand what the allowance never reached to the leftover strategy."""

    name = "leftovers"

    def run(
        self,
        context: RunContext,
        leftovers: list[ClassPair],
        observations: list[SMCObservation],
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ) -> list[ClassPair]:
        config = context.config
        telemetry = context.telemetry
        strategy = config.strategy
        with telemetry.span("linkage.leftovers", strategy=strategy.name):
            claimed = strategy.claim_matches(
                leftovers, observations, config.rule, left, right,
                engine=config.engine, telemetry=telemetry,
            )
        if telemetry.enabled:
            telemetry.counter("leftovers.class_pairs").add(len(leftovers))
            telemetry.counter("leftovers.claimed_class_pairs").add(
                len(claimed)
            )
        return claimed


# --------------------------------------------------------------------------
# Published-view consumer (protocol.py's QueryingParty)
# --------------------------------------------------------------------------


def consume_bridge(bridge, batches) -> list[list[bool]]:
    """Feed per-lease handle batches through ``bridge.compare_many``.

    Each lease is one ``compare_many`` call — the wire pattern the
    networked bridge's fault-recovery machinery is tuned to. Verdict
    order matches batch order; a bridge answering a batch with the wrong
    number of verdicts is a :class:`~repro.errors.ProtocolError`.
    """
    results = []
    for batch in batches:
        verdicts = bridge.compare_many(batch)
        if len(verdicts) != len(batch):
            raise ProtocolError(
                f"bridge returned {len(verdicts)} verdicts for a "
                f"batch of {len(batch)} pairs"
            )
        results.append(verdicts)
    return results
