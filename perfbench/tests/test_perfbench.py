"""Tests of the benchmark itself: output checks, count drift, tracing.

Run from the repository root::

    python -m pytest perfbench/tests -q

The workloads run here at toy scale (a few hundred records, 256-bit
keys) so the suite takes seconds; the checks are the ones the benchmark
applies at full scale.
"""

import csv
import math

import pytest

import run
import workloads
from repro.crypto.paillier import EncryptedNumber, PaillierKeyPair
from tracing import Tracer

SMALL = {
    "cli-paper-counted": dict(records=600, k=8),
    "paillier-1024": dict(records=300, k=4, work_ms=600, key_bits=256),
    "remote-k8-paillier": dict(records=300, k=4, work_ms=600, key_bits=256),
}


@pytest.fixture
def make_workload(tmp_path):
    opened = []

    def make(name, seed=3):
        workload = workloads.WORKLOADS[name](seed, str(tmp_path), **SMALL[name])
        workload.prepare()
        workload.setup()
        opened.append(workload)
        return workload

    yield make
    for workload in opened:
        workload.close()


def corrupt_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    rows[-1] = [rows[-1][0], str(int(rows[-1][1]) + 1)]
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


class Corrupting:
    """Runs a workload's job, then damages the output before the check."""

    def __init__(self, workload, damage):
        self.workload = workload
        self.damage = damage
        self.name = workload.name

    def run_job(self):
        output = self.workload.run_job()
        self.damage(self.workload, output)
        return output

    def check(self, output):
        return self.workload.check(output)


def drop_last_match(workload, output):
    result = output[0]
    if hasattr(result, "verified_matches"):
        result.verified_matches.pop()
    else:
        result.smc_matched_pairs.append((-1, -1))


class TestOutputChecks:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_correct_output_passes(self, make_workload, name):
        workload = make_workload(name)
        counts, ok = workload.check(workload.run_job())
        assert ok
        assert counts["smc.invocations"] > 0

    def test_corrupted_csv_counts_as_failed(self, make_workload):
        workload = make_workload("cli-paper-counted")
        damaged = Corrupting(workload, lambda w, output: corrupt_csv(w.out))
        plain, _ = run.measure(damaged, 0.0)
        assert (plain.attempted, plain.failed) == (1, 1)
        assert plain.seconds == []

    @pytest.mark.parametrize("name", ["paillier-1024", "remote-k8-paillier"])
    def test_corrupted_matches_count_as_failed(self, make_workload, name):
        workload = make_workload(name)
        plain, _ = run.measure(Corrupting(workload, drop_last_match), 0.0)
        assert (plain.attempted, plain.failed) == (1, 1)

    def test_failed_job_makes_the_run_incorrect(self):
        report = {"attempted": 3, "failed": 1, "drift": [], "metrics": {},
                  "units": {}}
        assert run.result_line(report)["correct"] is False


class TestCounts:
    def test_traced_and_untraced_jobs_agree(self, make_workload):
        workload = make_workload("paillier-1024")
        plain, traced = run.measure(workload, 0.0, Tracer())
        assert plain.attempted == traced.attempted == 1
        assert plain.failed == traced.failed == 0
        assert plain.counts == traced.counts
        assert traced.trace_counts["spans.crypto.encrypt"] > 0
        assert traced.trace_counts["block.class_pairs"] > 0

    def test_drift_within_a_run_is_reported(self):
        phase = run.Phase()
        run._expect_same(phase, "counts", {"smc.invocations": 5}, "job-0")
        run._expect_same(phase, "counts", {"smc.invocations": 6}, "job-1")
        assert phase.drift == ["job-1: smc.invocations 5 -> 6"]

    def test_drift_across_runs_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "STATE", tmp_path)
        assert run.reconcile_counts("w", 1, {"counts": {"a": 1}}) == []
        assert run.reconcile_counts("w", 1, {"counts": {"a": 1}}) == []
        drift = run.reconcile_counts("w", 1, {"counts": {"a": 2}})
        assert drift == ["counts differs from an earlier run: a 1 -> 2"]


class TestBudget:
    @pytest.mark.parametrize("pairs,total", [(26, 181 * 423), (11, 15082 * 15080)])
    def test_allowance_floors_to_the_pair_count(self, pairs, total):
        assert math.floor(workloads.allowance_for(pairs, total) * total) == pairs

    def test_budget_is_the_prefix_closest_to_the_work(self):
        rule = workloads.adult_rule(workloads.adult_hierarchies())
        # age (threshold) first, then four equality attributes
        prefix_costs = [56, 56 + 142, 56 + 142 + 56, 56 + 142 + 56 + 228]
        assert workloads.budget_for([1, 3, 1, 5], rule, prefix_costs[2]) == 3
        assert workloads.budget_for([1, 3, 1, 5], rule, prefix_costs[2] + 20) == 3
        assert workloads.budget_for([1, 3, 1, 5], rule, prefix_costs[3] - 20) == 4
        with pytest.raises(ValueError):
            workloads.budget_for([1, 1], rule, 500)


class TestTracer:
    def test_self_time_and_coverage(self):
        tracer = Tracer()
        started = tracer.begin_unit("job-0")
        with tracer.span("smc"):
            with tracer.span("crypto.encrypt"):
                pass
        tracer.end_unit(started)
        outer, inner = sorted(tracer.spans, key=lambda span: span.start)
        times = tracer.self_times("job-0")
        assert times["repro.crypto"] == pytest.approx(inner.duration)
        assert times["repro.pipeline"] == pytest.approx(
            outer.duration - inner.duration
        )
        assert 0.0 < tracer.coverage("job-0") <= 1.0

    def test_restore_puts_the_originals_back(self):
        generate = vars(PaillierKeyPair)["generate"]
        multiply = vars(EncryptedNumber)["__mul__"]
        tracer = Tracer()
        with workloads.instrumented(tracer):
            assert vars(EncryptedNumber)["__mul__"] is not multiply
            key_pair = PaillierKeyPair.generate(128)
            assert isinstance(key_pair, PaillierKeyPair)
        assert vars(PaillierKeyPair)["generate"] is generate
        assert vars(EncryptedNumber)["__mul__"] is multiply
        assert "anonymize" not in vars(workloads.MaxEntropyTDS)
        assert [span.name for span in tracer.spans] == ["crypto.keygen"]
