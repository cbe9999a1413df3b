"""Staged pipeline core: the hybrid method's four phases as stages.

The package factors the hybrid method's orchestration out of
:class:`repro.linkage.hybrid.HybridLinkage` into explicit pieces:

- :class:`RunContext` — config + telemetry + budget ledger, shared by
  all stages of one run;
- :class:`BlockStage` / :class:`SelectStage` / :class:`SMCStage` /
  :class:`LeftoverStage` — the paper's four phases;
- :class:`Pipeline` — composes the stages; ``HybridLinkage`` is a thin
  facade over it;
- :func:`plan_leases` and :class:`BudgetLedger` — the one budget rule
  the SMC stage and :class:`repro.protocol.QueryingParty` share (see
  DESIGN.md §9).
"""

from .context import BudgetLedger, RunContext, plan_leases
from .runner import Pipeline
from .stages import (
    BlockStage,
    LeftoverStage,
    SelectStage,
    SMCOutcome,
    SMCStage,
    Stage,
    compare_class_pair,
    consume_bridge,
)

__all__ = [
    "BlockStage",
    "BudgetLedger",
    "LeftoverStage",
    "Pipeline",
    "RunContext",
    "SMCOutcome",
    "SMCStage",
    "SelectStage",
    "Stage",
    "compare_class_pair",
    "consume_bridge",
    "plan_leases",
]
