"""Labeling strategies for pairs the SMC budget never reaches (Section V-B).

The paper analyzes three strategies:

1. **Maximize precision** — leftover pairs are labeled non-match. SMC
   answers are exact, so there are no false positives and precision is
   100%; recall suffers when true matches are left over. "Since privacy is
   our primary concern, we choose to follow the first strategy" — it is
   the library default too.
2. **Maximize recall** — leftover pairs are labeled match. No true match is
   missed, but the claims are unverified and precision may collapse,
   violating the privacy of irrelevant individuals.
3. **Maximize precision and recall** — pairs for the SMC step are selected
   at random and the (generalization, label) observations train a
   classifier ``c3`` that labels the leftover class pairs. The paper
   argues, and our ablation benchmark confirms, that anonymized data is too
   coarse for ``c3`` to attain both high precision and recall.

Strategies receive the SMC step's per-class-pair observations and return
the leftover class pairs they *claim* as matches; evaluation later verifies
those claims against ground truth.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass

from repro.anonymize.base import GeneralizedRelation
from repro.linkage.blocking import ClassPair
from repro.linkage.distances import MatchRule
from repro.linkage.heuristics import average_expected_scores
from repro.obs import NOOP_TELEMETRY, Telemetry


@dataclass(frozen=True)
class SMCObservation:
    """What the SMC step learned about one class pair.

    ``compared`` record pairs were run through the protocol (possibly fewer
    than ``pair.size`` when the allowance ran out mid-pair) and ``matches``
    of them matched.
    """

    pair: ClassPair
    compared: int
    matches: int


class LeftoverStrategy(abc.ABC):
    """Decides the fate of unknown class pairs beyond the SMC allowance."""

    name: str = "abstract"
    #: Strategy 3 needs an unbiased SMC sample to train on.
    requires_random_selection: bool = False

    @abc.abstractmethod
    def claim_matches(
        self,
        leftovers: Sequence[ClassPair],
        observations: Sequence[SMCObservation],
        rule: MatchRule,
        left: GeneralizedRelation,
        right: GeneralizedRelation,
        engine: str = "auto",
        telemetry: Telemetry = NOOP_TELEMETRY,
    ) -> list[ClassPair]:
        """Return the leftover class pairs to claim (unverified) as matches.

        *engine* selects the scoring backend for strategies that rank
        class pairs (see :data:`repro.linkage.blocking.ENGINES`); claims
        are engine-independent. *telemetry* records scoring work for
        strategies that rank class pairs.
        """


class MaximizePrecision(LeftoverStrategy):
    """Strategy 1: leftovers are non-matches; precision is always 100%."""

    name = "maximize-precision"

    def claim_matches(
        self, leftovers, observations, rule, left, right, engine="auto",
        telemetry=NOOP_TELEMETRY,
    ):
        return []


class MaximizeRecall(LeftoverStrategy):
    """Strategy 2: leftovers are matches; recall is 100%, precision is not."""

    name = "maximize-recall"

    def claim_matches(
        self, leftovers, observations, rule, left, right, engine="auto",
        telemetry=NOOP_TELEMETRY,
    ):
        return list(leftovers)


class LearnedClassifier(LeftoverStrategy):
    """Strategy 3: train ``c3`` on the SMC step's labeled sample.

    The classifier is a one-dimensional threshold on the average expected
    distance of the class pair (the same feature space the heuristics
    use — all that anonymized data exposes). Every compared record pair is
    a training example carrying its class pair's score; the threshold
    minimizing training error is selected by a sweep over candidate cuts.

    As the paper predicts (record pairs inside one class pair are
    indistinguishable, and there are at least k^2 of them per group), the
    classifier cannot separate matches from non-matches well; the ablation
    benchmark quantifies that.
    """

    name = "learned-classifier"
    requires_random_selection = True

    def claim_matches(
        self, leftovers, observations, rule, left, right, engine="auto",
        telemetry=NOOP_TELEMETRY,
    ):
        if not observations or not leftovers:
            return []
        trained = [
            observation for observation in observations if observation.compared
        ]
        training_scores = average_expected_scores(
            [observation.pair for observation in trained],
            rule, left, right, engine, telemetry,
        )
        examples = [  # (score, positives, negatives)
            (
                score,
                observation.matches,
                observation.compared - observation.matches,
            )
            for observation, score in zip(trained, training_scores)
        ]
        threshold = self._best_threshold(examples)
        if threshold is None:
            return []
        leftover_scores = average_expected_scores(
            list(leftovers), rule, left, right, engine, telemetry
        )
        return [
            pair
            for pair, score in zip(leftovers, leftover_scores)
            if score <= threshold
        ]

    @staticmethod
    def _best_threshold(examples) -> float | None:
        """Threshold on the score minimizing training error.

        Classifies ``score <= t`` as match. Candidate cuts are the observed
        scores; ``None`` (claim nothing) is returned when no cut beats the
        all-non-match classifier, mirroring strategy 1's safe default.
        """
        if not examples:
            return None
        examples = sorted(examples)
        total_positives = sum(positives for _, positives, _ in examples)
        total_negatives = sum(negatives for _, _, negatives in examples)
        # Baseline: claim nothing, err on every positive.
        best_errors = total_positives
        best_threshold = None
        seen_positives = 0
        seen_negatives = 0
        for score, positives, negatives in examples:
            seen_positives += positives
            seen_negatives += negatives
            # Claiming everything up to `score`: errors are the negatives
            # claimed plus the positives beyond the cut.
            errors = seen_negatives + (total_positives - seen_positives)
            if errors < best_errors:
                best_errors = errors
                best_threshold = score
        return best_threshold


STRATEGIES = {
    strategy.name: strategy
    for strategy in (MaximizePrecision(), MaximizeRecall(), LearnedClassifier())
}


def strategy_by_name(name: str) -> LeftoverStrategy:
    """Look up a strategy by name (see :data:`STRATEGIES`)."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; choose from {sorted(STRATEGIES)}"
        ) from None
