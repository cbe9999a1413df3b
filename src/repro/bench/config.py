"""Experiment configuration: scale, defaults, shared data construction.

The paper's experiments run on 30,162 Adult records split into two
overlapping 20,108-record data sets — 404 million record pairs, feasible
here because all decisions are class-pair level, but minutes of work per
sweep point in pure Python. Benchmarks therefore default to a reduced
scale and honor the ``REPRO_BENCH_SCALE`` environment variable:

- unset → 4,500 source records (1,500-record overlap, 9 M pairs);
- an integer → that many source records;
- ``full`` → the paper's 30,162.

Section VI defaults reproduced here: k = 32, theta_i = 0.05 for every QID,
SMC allowance = 1.5% of |D1 x D2|, QID set = top-5 of the paper's
eight-attribute ordering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from repro._rng import spawn_seeds
from repro.data.adult import ADULT_COMPLETE_RECORDS, generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.partition import LinkagePair, build_linkage_pair
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.obs import NOOP_TELEMETRY, Telemetry

SCALE_ENV_VAR = "REPRO_BENCH_SCALE"
DEFAULT_SOURCE_RECORDS = 4_500

DEFAULT_K = 32
DEFAULT_THETA = 0.05
DEFAULT_ALLOWANCE = 0.015
DEFAULT_QID_COUNT = 5

#: The sweep axes used by the paper's figures.
K_SWEEP = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
THETA_SWEEP = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10)
QID_SWEEP = (3, 4, 5, 6, 7, 8)
ALLOWANCE_SWEEP = (0.0, 0.005, 0.010, 0.015, 0.020, 0.025, 0.030)


def source_record_count() -> int:
    """Resolve the experiment scale from the environment."""
    raw = os.environ.get(SCALE_ENV_VAR, "")
    if not raw:
        return DEFAULT_SOURCE_RECORDS
    if raw.lower() == "full":
        return ADULT_COMPLETE_RECORDS
    return int(raw)


@dataclass(frozen=True)
class BenchConfig:
    """Knobs shared by every experiment driver."""

    source_records: int = field(default_factory=source_record_count)
    seed: int = 2008
    k: int = DEFAULT_K
    theta: float = DEFAULT_THETA
    allowance: float = DEFAULT_ALLOWANCE
    qid_count: int = DEFAULT_QID_COUNT
    #: Blocking/scoring engine for the sweeps ("auto", "python", "numpy").
    engine: str = "auto"
    #: Telemetry sink shared by every experiment driver. ``None`` means
    #: the no-op default (zero overhead, nothing recorded).
    telemetry: Telemetry | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        from repro.linkage.blocking import validate_engine

        validate_engine(self.engine)

    def qids(self, count: int | None = None) -> tuple[str, ...]:
        """The paper's top-q QID set."""
        return ADULT_QID_ORDER[: self.qid_count if count is None else count]


class ExperimentData:
    """Lazily-built shared inputs with sweep-friendly caching.

    Anonymizations, blocking results and ground-truth oracles are cached by
    their sweep coordinates so that, e.g., Figures 3 and 4 share one
    anonymization per k and Figures 5/8 share one blocking result.
    """

    def __init__(self, config: BenchConfig | None = None):
        self.config = config or BenchConfig()
        self.telemetry = self.config.telemetry or NOOP_TELEMETRY
        self.hierarchies = adult_hierarchies()
        data_seed, partition_seed = spawn_seeds(self.config.seed, 2)
        self._data_seed = data_seed
        self._partition_seed = partition_seed
        self._anonymized: dict = {}
        self._blocking: dict = {}
        self._ground_truth: dict = {}

    @property
    def pair(self) -> LinkagePair:
        """The D1/D2 pair (cached after the first build)."""
        return self._build_pair()

    @lru_cache(maxsize=1)
    def _build_pair(self) -> LinkagePair:
        relation = generate_adult(self.config.source_records, self._data_seed)
        return build_linkage_pair(relation, self._partition_seed)

    def rule(
        self,
        theta: float | None = None,
        qid_count: int | None = None,
    ) -> MatchRule:
        """The querying party's classifier for the given sweep point."""
        names = self.config.qids(qid_count)
        threshold = self.config.theta if theta is None else theta
        return MatchRule(
            MatchAttribute(name, self.hierarchies[name], threshold)
            for name in names
        )

    def anonymized(
        self,
        k: int | None = None,
        qid_count: int | None = None,
        algorithm: str = "maxent",
    ):
        """Anonymize both sides with caching; returns (left, right)."""
        from repro.anonymize import DataFly, Incognito, MaxEntropyTDS, Mondrian, TDS

        algorithms = {
            "maxent": MaxEntropyTDS,
            "tds": TDS,
            "datafly": DataFly,
            "mondrian": Mondrian,
            "incognito": Incognito,
        }
        k = self.config.k if k is None else k
        qids = self.config.qids(qid_count)
        key = (k, qids, algorithm)
        if key not in self._anonymized:
            anonymizer = algorithms[algorithm](self.hierarchies)
            self._anonymized[key] = (
                anonymizer.anonymize(self.pair.left, qids, k),
                anonymizer.anonymize(self.pair.right, qids, k),
            )
        return self._anonymized[key]

    def blocking(
        self,
        k: int | None = None,
        theta: float | None = None,
        qid_count: int | None = None,
        algorithm: str = "maxent",
        engine: str | None = None,
    ):
        """Blocking result for a sweep point, cached.

        *engine* overrides the config's engine for one sweep point (used
        by the engine-comparison benchmarks); results are cached per
        engine, though every engine produces identical decisions.
        """
        from repro.linkage.blocking import block

        k = self.config.k if k is None else k
        theta = self.config.theta if theta is None else theta
        engine = self.config.engine if engine is None else engine
        qids = self.config.qids(qid_count)
        key = (k, theta, qids, algorithm, engine)
        if key not in self._blocking:
            left, right = self.anonymized(k, qid_count, algorithm)
            self._blocking[key] = block(
                self.rule(theta, qid_count), left, right, engine=engine,
                telemetry=self.telemetry,
            )
        return self._blocking[key]

    def ground_truth(
        self, theta: float | None = None, qid_count: int | None = None
    ):
        """Ground-truth oracle for a rule configuration, cached."""
        from repro.linkage.ground_truth import GroundTruth

        theta = self.config.theta if theta is None else theta
        qids = self.config.qids(qid_count)
        key = (theta, qids)
        if key not in self._ground_truth:
            self._ground_truth[key] = GroundTruth(
                self.rule(theta, qid_count), self.pair.left, self.pair.right
            )
        return self._ground_truth[key]
