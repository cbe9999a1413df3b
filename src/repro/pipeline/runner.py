"""The :class:`Pipeline` runner: stages composed into the hybrid method.

``Pipeline.from_config`` reads any config object shaped like
:class:`repro.linkage.hybrid.LinkageConfig` (duck-typed: ``rule``,
``allowance``, ``heuristic``, ``strategy``, ``oracle_factory``,
``engine``, ``telemetry``) and builds the
:class:`~repro.pipeline.context.RunContext` the stages share.
:class:`repro.linkage.hybrid.HybridLinkage` is a thin facade over this
class; ``run``/``run_from_blocking`` here return the same
:class:`~repro.linkage.hybrid.LinkageResult` it always has.
"""

from __future__ import annotations

import math

from repro.anonymize.base import GeneralizedRelation
from repro.errors import ConfigurationError
from repro.linkage.blocking import BlockingResult
from repro.obs import NOOP_TELEMETRY

from .context import RunContext
from .stages import BlockStage, LeftoverStage, SelectStage, SMCStage


class Pipeline:
    """Block → select → SMC → leftovers, in order."""

    def __init__(self, context: RunContext):
        self.context = context
        self.block_stage = BlockStage()
        self.select_stage = SelectStage()
        self.smc_stage = SMCStage()
        self.leftover_stage = LeftoverStage()

    @classmethod
    def from_config(cls, config) -> Pipeline:
        """Build a pipeline for a :class:`LinkageConfig`-shaped object."""
        return cls(
            RunContext(
                config=config,
                telemetry=getattr(config, "telemetry", NOOP_TELEMETRY),
            )
        )

    def run(
        self, left: GeneralizedRelation, right: GeneralizedRelation
    ):
        """Link two anonymized relations end to end."""
        if left.source.schema != right.source.schema:
            raise ConfigurationError("input relations must share a schema")
        config = self.context.config
        telemetry = self.context.telemetry
        with telemetry.span(
            "linkage.run", engine=config.engine, allowance=config.allowance
        ):
            blocking = self.block_stage.run(self.context, left, right)
            return self._link(blocking, left, right)

    def run_from_blocking(
        self,
        blocking: BlockingResult,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ):
        """Run the post-blocking stages on a precomputed blocking result."""
        return self._link(blocking, left, right)

    def _link(
        self,
        blocking: BlockingResult,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
    ):
        # Imported here: hybrid.py imports this module at load time (the
        # facade), so the result class resolves lazily per call.
        from repro.linkage.hybrid import LinkageResult

        context = self.context
        config = context.config
        telemetry = context.telemetry
        allowance_pairs = math.floor(config.allowance * blocking.total_pairs)
        with telemetry.span(
            "linkage.link",
            heuristic=config.heuristic.name,
            strategy=config.strategy.name,
            allowance_pairs=allowance_pairs,
        ) as link_span:
            with telemetry.span(
                "linkage.select", heuristic=config.heuristic.name
            ):
                ordered = self.select_stage.run(
                    context, blocking.unknown, left, right
                )
            smc = self.smc_stage.run(
                context, ordered, allowance_pairs, left, right
            )
            claimed = self.leftover_stage.run(
                context, smc.leftovers, smc.observations, left, right
            )
        return LinkageResult(
            total_pairs=blocking.total_pairs,
            blocking=blocking,
            allowance_pairs=allowance_pairs,
            smc_invocations=smc.invocations,
            smc_matched_pairs=smc.smc_matched,
            observations=smc.observations,
            leftovers=smc.leftovers,
            claimed=list(claimed),
            attribute_comparisons=smc.attribute_comparisons,
            elapsed_seconds=link_span.duration,
        )
