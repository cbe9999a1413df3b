"""Shared state for one pipeline run, and the SMC budget rule.

The :class:`RunContext` is the one object every stage receives: the
linkage configuration, the telemetry sink and the run's budget ledger.

The SMC allowance is spent by one rule, shared by the
:class:`~repro.pipeline.stages.SMCStage` and
:class:`repro.protocol.QueryingParty`: :func:`plan_leases` turns the
allowance into per-class-pair takes over the ordered unknown list, the
takes are granted to a :class:`BudgetLedger`, the oracle (or bridge)
invocations billed during the run are recorded against them, and
:meth:`BudgetLedger.reconcile` cross-checks the two. A mismatch is a
:class:`~repro.errors.PipelineError` — a library bug or a misbehaving
backend, never user error.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import PipelineError
from repro.obs import NOOP_TELEMETRY, Telemetry


def plan_leases(
    sized_items: Iterable[int], budget: int
) -> tuple[list[int], int]:
    """Greedy prefix budget leases over item sizes.

    Returns ``(takes, consumed)`` where ``takes[i] = min(remaining,
    sized_items[i])`` stops as soon as the budget is exhausted —
    ``len(takes)`` items received a (possibly partial, only ever the
    last) lease and the rest received nothing.
    """
    takes: list[int] = []
    remaining = budget
    for size in sized_items:
        if remaining <= 0:
            break
        take = min(remaining, size)
        takes.append(take)
        remaining -= take
    return takes, budget - remaining


@dataclass
class BudgetLedger:
    """Audit trail for one run's SMC allowance.

    ``allowance_pairs`` is the global grant; ``leases`` the per-class-pair
    record-pair takes in consumption order (a prefix of the ordered
    unknown list, only the last possibly partial); ``billed`` what the
    oracle or bridge actually invoiced during the run.
    """

    allowance_pairs: int
    leases: list[int] = field(default_factory=list)
    billed: int = 0

    @property
    def granted(self) -> int:
        """Record pairs granted by all leases so far."""
        return sum(self.leases)

    @property
    def remaining(self) -> int:
        """Unspent allowance after the granted leases."""
        return self.allowance_pairs - self.granted

    def grant(self, takes: list[int]) -> None:
        """Record a batch of leases, checking the allowance bound."""
        self.leases.extend(takes)
        if self.granted > self.allowance_pairs:
            raise PipelineError(
                f"budget leases grant {self.granted} record pairs but the "
                f"allowance is {self.allowance_pairs}"
            )

    def bill(self, invocations: int) -> None:
        """Record oracle invocations reported back by the backend."""
        self.billed += invocations

    def reconcile(self) -> None:
        """Check granted == billed <= allowance; raise on any mismatch."""
        if self.billed != self.granted:
            raise PipelineError(
                f"the SMC backend billed {self.billed} invocations but the "
                f"ledger granted {self.granted} record pairs"
            )
        if self.granted > self.allowance_pairs:
            raise PipelineError(
                f"ledger granted {self.granted} record pairs over an "
                f"allowance of {self.allowance_pairs}"
            )


@dataclass
class RunContext:
    """Everything one pipeline run shares across its stages."""

    config: object
    telemetry: Telemetry = NOOP_TELEMETRY
    ledger: BudgetLedger | None = None

    def open_ledger(self, allowance_pairs: int) -> BudgetLedger:
        """Start the run's budget ledger for *allowance_pairs*."""
        self.ledger = BudgetLedger(allowance_pairs=allowance_pairs)
        return self.ledger
