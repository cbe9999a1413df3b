"""Tests of the staged pipeline core: the budget rule and its consumers.

The SMC allowance is spent by one rule, shared by
:class:`~repro.pipeline.SMCStage` and :class:`repro.protocol.QueryingParty`:
:func:`~repro.pipeline.plan_leases` plans per-class-pair takes, a
:class:`~repro.pipeline.BudgetLedger` grants them, and the invocations
the oracle or bridge billed during the run are reconciled against the
grant. These tests pin the planner, the ledger, both consumers of the
rule, :func:`~repro.pipeline.consume_bridge`, and the import cost of the
command-line front end.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.anonymize import MaxEntropyTDS
from repro.crypto.smc.oracle import CountingPlaintextOracle
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.errors import PipelineError, ProtocolError
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.pipeline import BudgetLedger, consume_bridge, plan_leases
from repro.protocol import DataHolder, QueryingParty, SMCBridge

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def generalized_pair(adult_pair, adult_hierarchy_catalog):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    return (
        anonymizer.anonymize(adult_pair.left, QIDS, 32),
        anonymizer.anonymize(adult_pair.right, QIDS, 32),
    )


class TestPlanLeases:
    def test_prefix_with_partial_tail(self):
        takes, consumed = plan_leases([4, 4, 4], 10)
        assert takes == [4, 4, 2]
        assert consumed == 10

    def test_exact_boundary_has_no_partial(self):
        takes, consumed = plan_leases([4, 4, 4], 8)
        assert takes == [4, 4]
        assert consumed == 8

    def test_zero_budget(self):
        assert plan_leases([3, 3], 0) == ([], 0)

    def test_budget_exceeds_work(self):
        takes, consumed = plan_leases([3, 3], 100)
        assert takes == [3, 3]
        assert consumed == 6


class TestBudgetLedger:
    def test_reconcile_accepts_matching_books(self):
        ledger = BudgetLedger(allowance_pairs=10)
        ledger.grant([4, 4, 2])
        ledger.bill(6)
        ledger.bill(4)
        ledger.reconcile()
        assert ledger.granted == 10
        assert ledger.remaining == 0

    def test_overgrant_raises(self):
        ledger = BudgetLedger(allowance_pairs=5)
        with pytest.raises(PipelineError):
            ledger.grant([4, 4])

    def test_billing_mismatch_raises(self):
        ledger = BudgetLedger(allowance_pairs=10)
        ledger.grant([5])
        ledger.bill(4)
        with pytest.raises(PipelineError):
            ledger.reconcile()


class _ScriptedBridge:
    """A fake bridge answering True for even-index pairs, recording calls."""

    def __init__(self, short_batch: int | None = None):
        self.calls: list[int] = []
        self._short_batch = short_batch

    def compare_many(self, pairs):
        self.calls.append(len(pairs))
        verdicts = [index % 2 == 0 for index in range(len(pairs))]
        if self._short_batch is not None and len(self.calls) == 1:
            return verdicts[: self._short_batch]
        return verdicts


class TestConsumeBridge:
    BATCHES = [[("a", 0)] * 3, [("b", 0)] * 2, [("c", 0)] * 4, [("d", 0)] * 1]

    def test_serial_path_one_call_per_batch(self):
        bridge = _ScriptedBridge()
        verdicts = consume_bridge(bridge, self.BATCHES)
        assert bridge.calls == [3, 2, 4, 1]
        assert [len(batch) for batch in verdicts] == [3, 2, 4, 1]

    def test_short_verdict_batch_rejected(self):
        bridge = _ScriptedBridge(short_batch=1)
        with pytest.raises(ProtocolError):
            consume_bridge(bridge, self.BATCHES)

    def test_empty_batches(self):
        assert consume_bridge(_ScriptedBridge(), []) == []


@pytest.fixture(scope="module")
def parties(adult_pair, adult_hierarchy_catalog):
    alice = DataHolder("alice", adult_pair.left)
    bob = DataHolder("bob", adult_pair.right)
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    left_view = alice.publish(anonymizer, QIDS, k=16)
    right_view = bob.publish(anonymizer, QIDS, k=16)
    return alice, bob, left_view, right_view


class _OverbillingBridge(SMCBridge):
    """An in-process bridge that bills one pair more than it compared."""

    @property
    def invocations(self) -> int:
        billed = self.oracle.invocations
        return billed + 1 if billed else 0


class _OverbillingOracle(CountingPlaintextOracle):
    """A counted oracle that bills one record pair too many per block."""

    def compare_block(self, left_records, right_records, take):
        matched = super().compare_block(left_records, right_records, take)
        self.invocations += 1
        return matched


class TestBudgetRule:
    """SMCStage and QueryingParty bill only their own run, and reconcile."""

    def test_reused_bridge_reports_per_link_invocations(
        self, parties, adult_rule
    ):
        alice, bob, left_view, right_view = parties
        bridge = SMCBridge(alice, bob, adult_rule)
        party = QueryingParty(adult_rule, allowance=0.01)
        first = party.link(left_view, right_view, bridge)
        second = party.link(left_view, right_view, bridge)
        assert first.smc_invocations > 0
        assert second.smc_invocations == first.smc_invocations
        assert second.matched_handles == first.matched_handles
        assert bridge.invocations == 2 * first.smc_invocations

    def test_overbilling_bridge_raises(self, parties, adult_rule):
        alice, bob, left_view, right_view = parties
        bridge = _OverbillingBridge(alice, bob, adult_rule)
        with pytest.raises(PipelineError):
            QueryingParty(adult_rule, allowance=0.01).link(
                left_view, right_view, bridge
            )

    def test_smc_stage_reconciles_oracle_billing(
        self, adult_rule, generalized_pair
    ):
        left, right = generalized_pair
        config = LinkageConfig(
            adult_rule, allowance=0.01, oracle_factory=_OverbillingOracle
        )
        with pytest.raises(PipelineError):
            HybridLinkage(config).run(left, right)

    def test_smc_stage_bills_only_its_own_run(
        self, adult_rule, generalized_pair
    ):
        left, right = generalized_pair
        shared = CountingPlaintextOracle(adult_rule, left.source.schema)
        config = LinkageConfig(
            adult_rule,
            allowance=0.01,
            oracle_factory=lambda rule, schema: shared,
        )
        first = HybridLinkage(config).run(left, right)
        second = HybridLinkage(config).run(left, right)
        assert first.smc_invocations == first.allowance_pairs
        assert second.smc_invocations == first.smc_invocations
        assert shared.invocations == 2 * first.smc_invocations


class TestImportCost:
    def test_link_cli_import_skips_multiprocessing(self):
        """The CLI's import path loads no process-pool machinery."""
        code = (
            "import sys, repro.tools.link_cli; "
            "sys.exit('multiprocessing' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr or (
            "importing repro.tools.link_cli loaded multiprocessing"
        )
