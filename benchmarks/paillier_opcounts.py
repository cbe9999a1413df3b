"""Paillier operation counts of one small, seeded linkage run (a CI gate).

Runs :class:`repro.HybridLinkage` with a seeded 256-bit
:class:`~repro.crypto.smc.oracle.PaillierSMCOracle` over the CI quick
fixture (450 synthetic Adult records, seeds 61/62; ``age`` continuous at
0.05 and ``education`` categorical at 0.5; k=8; allowance 2 %), with
telemetry on, and writes the run report. Its ``crypto.*`` counters depend
only on the program and the seeds, never on the machine, so CI compares
them with zero tolerance against the committed baseline; one extra
encryption, re-randomization or decryption fails the gate::

    PYTHONPATH=src python benchmarks/paillier_opcounts.py --out /tmp/opcounts.json
    PYTHONPATH=src python -m repro.obs.compare \\
        benchmarks/baselines/paillier_opcounts_quick.json /tmp/opcounts.json \\
        --tolerance 0% --metric 'crypto.*'

When the protocol's operation counts change on purpose, refresh the
baseline by writing the report over it (``--out`` the baseline path).
"""

from __future__ import annotations

import argparse
import json

from repro import HybridLinkage, LinkageConfig, MatchAttribute, MatchRule
from repro.anonymize import MaxEntropyTDS
from repro.crypto.smc.oracle import PaillierSMCOracle
from repro.data.adult import generate_adult
from repro.data.hierarchies import adult_hierarchies
from repro.data.partition import build_linkage_pair
from repro.obs import Telemetry
from repro.obs.report import build_report

RECORDS = 450
DATA_SEED = 61
PARTITION_SEED = 62
THRESHOLDS = {"age": 0.05, "education": 0.5}
K = 8
ALLOWANCE = 0.02
KEY_BITS = 256
ORACLE_SEED = 7


def run_report() -> dict:
    """Link the quick fixture under Paillier and return the run report."""
    pair = build_linkage_pair(
        generate_adult(RECORDS, seed=DATA_SEED), seed=PARTITION_SEED
    )
    catalog = adult_hierarchies()
    rule = MatchRule(
        MatchAttribute(name, catalog[name], threshold)
        for name, threshold in THRESHOLDS.items()
    )
    anonymizer = MaxEntropyTDS(catalog)
    telemetry = Telemetry()
    config = LinkageConfig(
        rule,
        allowance=ALLOWANCE,
        oracle_factory=lambda rule, schema: PaillierSMCOracle(
            rule, schema, key_bits=KEY_BITS, rng=ORACLE_SEED
        ),
        telemetry=telemetry,
    )
    result = HybridLinkage(config).run(
        anonymizer.anonymize(pair.left, tuple(THRESHOLDS), K),
        anonymizer.anonymize(pair.right, tuple(THRESHOLDS), K),
    )
    return build_report(telemetry, {
        "run": "paillier-opcounts-quick",
        "records": RECORDS,
        "k": K,
        "allowance": ALLOWANCE,
        "key_bits": KEY_BITS,
        "smc_invocations": result.smc_invocations,
        "smc_matches": result.smc_match_count,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="run report path")
    args = parser.parse_args(argv)
    report = run_report()
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    counters = report["metrics"]["counters"]
    for name in sorted(counters):
        if name.startswith(("crypto.", "smc.")):
            print(f"{name} = {counters[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
