"""The benchmark's three linkage workloads.

Each workload is one closed-loop caller running linkage jobs back to
back. A workload object

- builds its inputs from the seed and computes the reference output once,
  through a different public path than the one the job uses (``prepare``);
- performs the program's own one-off set-up (``setup``; may be repeated);
- runs one job (``run_job``, the timed part) and checks its output
  against the reference (``check``, untimed), returning the job's
  deterministic counts.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import re

from repro import HybridLinkage, LinkageConfig, MatchAttribute, MatchRule
from repro.anonymize import MaxEntropyTDS
from repro.crypto.paillier import (
    EncryptedNumber,
    PaillierKeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.smc.oracle import PaillierSMCOracle
from repro.data import vgh_io
from repro.data.adult import ADULT_COMPLETE_RECORDS, generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.partition import build_linkage_pair
from repro.data.vgh import IntervalHierarchy
from repro.net import DataHolderServer, NetRuntime, QueryingPartyClient, RemoteParty
from repro.net.client import PartyLink, RemoteSMCBridge
from repro.net.transport import FramedConnection
from repro.pipeline import BlockStage, LeftoverStage, SelectStage, SMCStage
import repro.protocol
from repro.protocol import DataHolder, QueryingParty, SMCBridge, verified_match_handles
from repro.tools import link_cli

#: The paper's top-5 quasi-identifiers and threshold (Section VI).
QIDS = ADULT_QID_ORDER[:5]
THETA = 0.05

#: Key size of the probe oracle that sizes the Paillier budgets. Small
#: keys run the same protocol steps, so they compare the same attributes.
PROBE_KEY_BITS = 256


def adult_rule(catalog) -> MatchRule:
    return MatchRule(MatchAttribute(name, catalog[name], THETA) for name in QIDS)


def linkage_pair(seed: int, records: int):
    """The paper's (D1, D2) pair drawn from *records* synthetic Adult rows."""
    return build_linkage_pair(generate_adult(records, seed=seed), seed=seed + 1)


def allowance_for(pairs: int, total_pairs: int) -> float:
    """The smallest allowance whose ``floor(allowance * total)`` is *pairs*."""
    allowance = pairs / total_pairs
    while math.floor(allowance * total_pairs) < pairs:
        allowance = math.nextafter(allowance, 1.0)
    return allowance


#: What one secure attribute comparison cost with 1024-bit keys, in
#: milliseconds, when this benchmark was written (2-CPU x86-64 VM,
#: Python 3.11): the blinded threshold comparison runs four full-size
#: exponentiations and one CRT decryption, the equality comparison three
#: and one. They are constants that only weight the budget below, so the
#: budget stays the same when the program gets faster.
THRESHOLD_MS = 56
EQUALITY_MS = 43


def budget_for(compared: list[int], rule: MatchRule, work_ms: int) -> int:
    """Record pairs in the prefix of the SMC order worth closest to *work_ms*.

    *compared* holds, per record pair in SMC order, how many of the
    rule's attributes the oracle compared before the first mismatch
    (every attribute of the benchmark's rules runs a protocol). Early
    exit makes that depend on the data, so a fixed pair count would make
    a job's crypto work swing with the seed; a budget in reference
    milliseconds keeps it the same on every seed.
    """
    costs = [THRESHOLD_MS if attribute.is_continuous else EQUALITY_MS
             for attribute in rule]
    spent = 0
    for pairs, attributes in enumerate(compared, start=1):
        before = spent
        spent += sum(costs[:attributes])
        if spent >= work_ms:
            closer_before = pairs > 1 and work_ms - before < spent - work_ms
            return pairs - 1 if closer_before else pairs
    raise ValueError(
        f"the SMC order offers {spent} ms of comparisons, {work_ms} needed"
    )


def most_pairs(work_ms: int) -> int:
    """Record pairs that surely cover *work_ms* (each costs at least one comparison)."""
    return math.ceil(work_ms / min(THRESHOLD_MS, EQUALITY_MS))


class ComparisonProbe(PaillierSMCOracle):
    """A small-key Paillier oracle recording attributes compared per pair."""

    def __init__(self, rule, schema):
        super().__init__(rule, schema, key_bits=PROBE_KEY_BITS, rng=0)
        self.compared: list[int] = []

    def compare(self, left, right) -> bool:
        before = self.attribute_comparisons
        verdict = super().compare(left, right)
        self.compared.append(self.attribute_comparisons - before)
        return verdict


class PaillierFactory:
    """Builds the job's ``PaillierSMCOracle``; each oracle gets a fresh key.

    Key generation time depends on the key (0.07-0.6 s at 1024 bits), so
    every job draws its own key, from a seed derived from the workload
    seed and the job number, as a real linkage would.
    """

    def __init__(self, seed: int, key_bits: int):
        self.seed = seed
        self.key_bits = key_bits
        self.built = 0
        self.last: PaillierSMCOracle | None = None

    def __call__(self, rule, schema) -> PaillierSMCOracle:
        self.built += 1
        self.last = PaillierSMCOracle(
            rule, schema, key_bits=self.key_bits,
            rng=self.seed * 1_000_003 + self.built,
        )
        return self.last


def oracle_counts(oracle: PaillierSMCOracle) -> dict:
    """Deterministic cost counts of a Paillier oracle's session."""
    transcript = oracle.session.transcript
    counts = {
        "smc.attribute_comparisons": oracle.attribute_comparisons,
        "channel.bytes_sent": transcript.bytes_sent,
        "channel.messages": transcript.messages,
    }
    for name, count in sorted(transcript.operations.items()):
        counts[f"transcript.{name}"] = count
    return counts


def matches_csv_digest(pairs) -> str:
    """SHA-256 of the CSV ``repro-link --out`` writes for *pairs*."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(("left_index", "right_index"))
    writer.writerows(sorted(set(pairs)))
    return hashlib.sha256(buffer.getvalue().encode()).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def write_relation(path: str, relation) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([attribute.name for attribute in relation.schema])
        writer.writerows(relation)


class CliPaperCounted:
    """``repro-link`` in-process at paper scale with the counted oracle."""

    name = "cli-paper-counted"
    import_modules = ("repro.tools.link_cli",)
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str, *, records=ADULT_COMPLETE_RECORDS,
                 k=32, allowance=0.015):
        self.seed = seed
        self.workdir = workdir
        self.records = records
        self.k = k
        self.allowance = allowance

    def prepare(self) -> None:
        pair = linkage_pair(self.seed, self.records)
        catalog = adult_hierarchies()
        left_csv = os.path.join(self.workdir, "left.csv")
        right_csv = os.path.join(self.workdir, "right.csv")
        catalog_json = os.path.join(self.workdir, "hierarchies.json")
        self.out = os.path.join(self.workdir, "matches.csv")
        write_relation(left_csv, pair.left)
        write_relation(right_csv, pair.right)
        vgh_io.save_catalog(catalog, catalog_json)
        anonymizer = MaxEntropyTDS(catalog)
        reference = HybridLinkage(
            LinkageConfig(adult_rule(catalog), allowance=self.allowance)
        ).run(
            anonymizer.anonymize(pair.left, QIDS, self.k),
            anonymizer.anonymize(pair.right, QIDS, self.k),
        )
        self.expected_digest = matches_csv_digest(reference.iter_verified_matches())
        self.argv = [left_csv, right_csv]
        for name in QIDS:
            kind = (
                "continuous" if isinstance(catalog[name], IntervalHierarchy)
                else "categorical"
            )
            self.argv += ["--attr", f"{name}={kind}:{THETA}"]
        self.argv += [
            "--k", str(self.k),
            "--allowance", str(self.allowance),
            "--hierarchies", catalog_json,
            "--out", self.out,
        ]

    def setup(self) -> None:
        """``repro-link`` needs no set-up beyond importing the program."""

    def run_job(self):
        if os.path.exists(self.out):
            os.remove(self.out)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = link_cli.main(self.argv)
        return code, printed.getvalue()

    def check(self, output) -> tuple[dict, bool]:
        code, printed = output
        counts = parse_summary(printed)
        ok = (
            code == 0
            and os.path.exists(self.out)
            and file_digest(self.out) == self.expected_digest
        )
        return counts, ok

    def close(self) -> None:
        pass


_SUMMARY_FIELDS = {
    "total pairs": "pairs.total",
    "mismatched": "pairs.mismatched",
    "unknown": "pairs.unknown",
    "SMC invocations": "smc.invocations",
    "matches found": "smc.matches",
}


def parse_summary(printed: str) -> dict:
    """The counts ``repro-link`` prints in its result summary."""
    counts = {}
    for line in printed.splitlines():
        match = re.match(r"\s*([A-Za-z ]+?)\s*:\s*(\d+)\s*$", line)
        if match and match.group(1) in _SUMMARY_FIELDS:
            counts[_SUMMARY_FIELDS[match.group(1)]] = int(match.group(2))
    return counts


class Paillier1024:
    """In-process hybrid linkage with the real Paillier backend."""

    name = "paillier-1024"
    import_modules = ("repro", "repro.crypto.smc.oracle")
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str, *, records=1500, k=4, work_ms=2800,
                 key_bits=1024):
        self.seed = seed
        self.workdir = workdir
        self.records = records
        self.k = k
        self.work_ms = work_ms
        self.factory = PaillierFactory(seed, key_bits)

    def prepare(self) -> None:
        self.pair = linkage_pair(self.seed, self.records)
        catalog = adult_hierarchies()
        self.rule = adult_rule(catalog)
        self.anonymizer = MaxEntropyTDS(catalog)
        left, right = self._anonymize()
        total = len(self.pair.left) * len(self.pair.right)
        probes = []

        def probe(rule, schema):
            probes.append(ComparisonProbe(rule, schema))
            return probes[-1]

        HybridLinkage(LinkageConfig(
            self.rule,
            allowance=allowance_for(most_pairs(self.work_ms), total),
            oracle_factory=probe,
        )).run(left, right)
        self.budget_pairs = budget_for(probes[0].compared, self.rule, self.work_ms)
        self.allowance = allowance_for(self.budget_pairs, total)
        reference = HybridLinkage(
            LinkageConfig(self.rule, allowance=self.allowance)
        ).run(left, right)
        self.expected = sorted(set(reference.iter_verified_matches()))

    def _anonymize(self):
        return (
            self.anonymizer.anonymize(self.pair.left, QIDS, self.k),
            self.anonymizer.anonymize(self.pair.right, QIDS, self.k),
        )

    def setup(self) -> None:
        """The in-process library needs no set-up beyond its import."""

    def run_job(self):
        left, right = self._anonymize()
        config = LinkageConfig(
            self.rule, allowance=self.allowance, oracle_factory=self.factory
        )
        return HybridLinkage(config).run(left, right), self.factory.last

    def check(self, output) -> tuple[dict, bool]:
        result, oracle = output
        counts = {
            "smc.invocations": result.smc_invocations,
            "smc.matches": result.smc_match_count,
            **oracle_counts(oracle),
        }
        ok = sorted(set(result.iter_verified_matches())) == self.expected
        return counts, ok

    def close(self) -> None:
        pass


class RemoteK8Paillier:
    """The networked three-party protocol on loopback, Paillier at Alice."""

    name = "remote-k8-paillier"
    import_modules = ("repro.net",)
    setup_repeats = 5

    def __init__(self, seed: int, workdir: str, *, records=ADULT_COMPLETE_RECORDS,
                 k=8, work_ms=1800, key_bits=1024):
        self.seed = seed
        self.workdir = workdir
        self.records = records
        self.k = k
        self.work_ms = work_ms
        self.factory = PaillierFactory(seed, key_bits)
        self.runtime = NetRuntime()
        self.servers: list[DataHolderServer] = []

    def prepare(self) -> None:
        self.pair = linkage_pair(self.seed, self.records)
        self.catalog = adult_hierarchies()
        self.rule = adult_rule(self.catalog)
        alice = DataHolder("alice", self.pair.left)
        bob = DataHolder("bob", self.pair.right)
        left_view = alice.publish(MaxEntropyTDS(self.catalog), QIDS, self.k)
        right_view = bob.publish(MaxEntropyTDS(self.catalog), QIDS, self.k)
        total = left_view.record_count * right_view.record_count
        sizing = SMCBridge(alice, bob, self.rule, oracle_factory=ComparisonProbe)
        QueryingParty(
            self.rule, allowance=allowance_for(most_pairs(self.work_ms), total)
        ).link(left_view, right_view, sizing)
        self.budget_pairs = budget_for(
            sizing.oracle.compared, self.rule, self.work_ms
        )
        self.allowance = allowance_for(self.budget_pairs, total)
        outcome = QueryingParty(self.rule, allowance=self.allowance).link(
            left_view, right_view, SMCBridge(alice, bob, self.rule)
        )
        handles = verified_match_handles(outcome, left_view, right_view)
        self.expected = sorted(set(zip(
            alice.resolve([pair[0] for pair in handles]),
            bob.resolve([pair[1] for pair in handles]),
        )))
        self.runtime.start()

    def setup(self) -> None:
        """Start (or restart) both holders: anonymize, publish, listen."""
        self._stop_servers()
        self.servers = [
            self.runtime.call(DataHolderServer(
                "alice", self.pair.left, MaxEntropyTDS(self.catalog), QIDS,
                self.k, oracle_factory=self.factory,
            ).start()),
            self.runtime.call(DataHolderServer(
                "bob", self.pair.right, MaxEntropyTDS(self.catalog), QIDS,
                self.k,
            ).start()),
        ]

    def run_job(self):
        alice, bob = self.servers
        client = QueryingPartyClient(
            self.rule,
            RemoteParty("alice", alice.host, alice.port),
            RemoteParty("bob", bob.host, bob.port),
            allowance=self.allowance,
            runtime=self.runtime,
        )
        return client.run(), self.factory.last

    def check(self, output) -> tuple[dict, bool]:
        result, oracle = output
        counts = {
            "smc.invocations": result.outcome.smc_invocations,
            "smc.matches": len(result.outcome.matched_handles),
            "net.bytes_on_wire": result.bytes_on_wire,
            "net.reconnects": result.reconnects,
            **oracle_counts(oracle),
        }
        ok = result.verified_matches == self.expected
        return counts, ok

    def _stop_servers(self) -> None:
        for server in self.servers:
            self.runtime.call(server.stop())
        self.servers = []

    def close(self) -> None:
        try:
            if self.servers:
                self._stop_servers()
        finally:
            self.runtime.stop()


WORKLOADS = {
    workload.name: workload
    for workload in (CliPaperCounted, Paillier1024, RemoteK8Paillier)
}


# -- traced-run hooks -------------------------------------------------------
def _observe_blocking(tracer, args, kwargs, result) -> None:
    _, _, left, right = args[:4]
    tracer.add("block.class_pairs", len(left.classes) * len(right.classes))
    tracer.add("block.unknown_class_pairs", len(result.unknown))
    tracer.add("block.decided_pairs", result.decided_pairs)
    tracer.add("block.total_pairs", result.total_pairs)


def _observe_view_blocking(tracer, args, kwargs, result) -> None:
    left_view, right_view = args[2], args[3]
    tracer.add(
        "block.class_pairs", len(left_view.classes) * len(right_view.classes)
    )
    tracer.add("block.unknown_class_pairs", len(result.unknown))
    tracer.add(
        "block.decided_pairs",
        result.blocked_match_pairs + result.blocked_nonmatch_pairs,
    )
    tracer.add(
        "block.total_pairs", left_view.record_count * right_view.record_count
    )


def _observe_smc(tracer, args, kwargs, result) -> None:
    tracer.add("smc.stage_invocations", result.invocations)
    tracer.add("smc.stage_attribute_comparisons", result.attribute_comparisons)


def _request_name(args, kwargs) -> str:
    return f"net.request.{args[1].get('type')}"


@contextlib.contextmanager
def instrumented(tracer):
    """Wrap every layer's public entry points while the block runs."""
    try:
        tracer.instrument(link_cli, "load_csv", "cli.load")
        tracer.instrument(vgh_io, "load_catalog", "cli.hierarchies")
        tracer.instrument(link_cli, "build_hierarchies", "cli.hierarchies")
        tracer.instrument(MaxEntropyTDS, "anonymize", "anonymize")
        tracer.instrument(HybridLinkage, "run", "linkage")
        tracer.instrument(BlockStage, "run", "block", _observe_blocking)
        tracer.instrument(SelectStage, "run", "select")
        tracer.instrument(SMCStage, "run", "smc", _observe_smc)
        tracer.instrument(LeftoverStage, "run", "leftovers")
        tracer.instrument(PaillierKeyPair, "generate", "crypto.keygen")
        tracer.instrument(PaillierPublicKey, "encrypt", "crypto.encrypt")
        tracer.instrument(EncryptedNumber, "rerandomize", "crypto.rerandomize")
        tracer.instrument(EncryptedNumber, "__mul__", "crypto.scale")
        tracer.instrument(PaillierPrivateKey, "decrypt", "crypto.decrypt")
        tracer.instrument(QueryingParty, "link", "protocol.link")
        tracer.instrument(
            repro.protocol, "block_published_views", "block",
            _observe_view_blocking,
        )
        tracer.instrument(PartyLink, "connect", "net.connect")
        tracer.instrument(PartyLink, "request", _request_name)
        tracer.instrument(PartyLink, "reconnect")
        tracer.instrument(RemoteSMCBridge, "compare_many", "net.compare_many")
        tracer.instrument(FramedConnection, "send")
        yield tracer
    finally:
        tracer.restore()
