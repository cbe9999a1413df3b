"""Bench history and the perf-regression comparator (the CI gate).

Two halves:

- **History** — :func:`history_record` wraps any benchmark payload with
  the provenance CI and trend tooling need (UTC timestamp, git SHA,
  machine fingerprint); :func:`append_history` appends it to a JSONL
  store (``BENCH_history.jsonl`` at the repository root by convention),
  so the perf trajectory accumulates across runs instead of being
  overwritten per invocation.
- **Comparison** — :func:`extract_metrics` flattens a document (a
  ``repro.obs`` run report, a ``blocking-engines`` bench payload, or a
  history record wrapping either) into named metrics, each tagged with a
  direction (is higher better?) and whether it *gates*; then
  :func:`compare_metrics` diffs two such metric sets under a relative
  tolerance. ``python -m repro.obs.compare BASELINE CURRENT --tolerance
  25%`` prints the per-metric table and exits non-zero when any gated
  metric regresses beyond tolerance, or when the two documents share no
  metric (after ``--metric`` filtering) — that exit code *is* the CI
  perf-regression gate.

Tolerance semantics: a lower-is-better metric (phase seconds, cost
counters) regresses when ``current > baseline * (1 + tolerance)``; a
higher-is-better metric (engine speedup) regresses when ``current <
baseline * (1 - tolerance)``. Metrics present on only one side are
reported but never gate (schemas may grow across PRs). Cost counters
(``smc.*``, ``channel.*``, ``crypto.*``, ``select.*``) gate; structural
tallies (pair counts, verdict breakdowns) are informational — a data or
parameter change legitimately moves them.

For gate self-tests the module also owns the synthetic-slowdown hook:
setting ``REPRO_OBS_SYNTHETIC_SLOWDOWN=blocking=2.0`` makes the blocking
phase sleep until it has taken 2x its real time, so CI can prove the
gate fails when perf regresses (and passes when it doesn't).
"""

from __future__ import annotations

import fnmatch
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass

#: Environment variable injecting an artificial per-phase slowdown,
#: formatted ``phase=factor[,phase=factor...]`` — the gate's negative
#: control in CI. Factors below 1 are clamped to 1 (no speedup hook).
SYNTHETIC_SLOWDOWN_ENV = "REPRO_OBS_SYNTHETIC_SLOWDOWN"

#: Counter prefixes whose growth is a cost regression (gated); every
#: other counter is compared informationally only.
GATED_COUNTER_PREFIXES = ("smc.", "channel.", "crypto.", "select.")

DEFAULT_TOLERANCE = 0.25


def synthetic_slowdown(phase: str) -> float:
    """The injected slowdown factor for *phase* (1.0 when none is set)."""
    raw = os.environ.get(SYNTHETIC_SLOWDOWN_ENV, "")
    if not raw:
        return 1.0
    for item in raw.split(","):
        name, _, factor_text = item.partition("=")
        if name.strip() != phase:
            continue
        try:
            return max(float(factor_text), 1.0)
        except ValueError:
            return 1.0
    return 1.0


# ---------------------------------------------------------------------------
# History records.
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """The current git HEAD SHA, or ``None`` outside a work tree."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def machine_info() -> dict:
    """A small fingerprint of the benchmarking machine."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
    }


def history_record(
    payload: dict,
    *,
    timestamp: str | None = None,
    sha: str | None = None,
) -> dict:
    """Wrap *payload* with run provenance for the history store."""
    if timestamp is None:
        from datetime import datetime, timezone

        timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return {
        "ts": timestamp,
        "git_sha": git_sha() if sha is None else sha,
        "machine": machine_info(),
        "payload": payload,
    }


def append_history(path: str, record: dict) -> None:
    """Append one JSON record to the JSONL history file at *path*."""
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")


def load_document(path: str, *, entry: int = -1) -> dict:
    """Load a JSON document, or entry *entry* of a ``.jsonl`` history file."""
    if path.endswith(".jsonl"):
        with open(path) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        if not records:
            raise ValueError(f"{path}: empty history file")
        return records[entry]
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Metric extraction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One comparable number: its value, direction, and whether it gates."""

    value: float
    higher_is_better: bool = False
    gated: bool = True


def _spans_by_name(trace: list[dict], totals: dict) -> None:
    for span in trace:
        totals[span["name"]] = (
            totals.get(span["name"], 0.0) + span["duration_seconds"]
        )
        _spans_by_name(span["children"], totals)


def _report_metrics(document: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    totals: dict[str, float] = {}
    _spans_by_name(document.get("trace") or [], totals)
    for name, seconds in totals.items():
        metrics[f"span.{name}.seconds"] = Metric(seconds)
    counters = (document.get("metrics") or {}).get("counters") or {}
    for name, value in counters.items():
        gated = name.startswith(GATED_COUNTER_PREFIXES)
        metrics[f"counter.{name}"] = Metric(float(value), gated=gated)
    return metrics


def _bench_metrics(document: dict) -> dict[str, Metric]:
    metrics: dict[str, Metric] = {}
    for scale in document.get("scales") or []:
        key = f"blocking.{scale['left_classes']}x{scale['right_classes']}"
        metrics[f"{key}.python.seconds"] = Metric(scale["python"]["seconds"])
        metrics[f"{key}.numpy.seconds"] = Metric(scale["numpy"]["seconds"])
        metrics[f"{key}.speedup"] = Metric(
            scale["speedup"], higher_is_better=True
        )
    return metrics


def extract_metrics(document: dict) -> dict[str, Metric]:
    """Flatten any supported document into ``{name: Metric}``.

    Supported shapes: a run report, a ``blocking-engines`` bench payload
    (``BENCH_blocking.json``), or a history record wrapping either.
    """
    # Imported here, not at module top: this module is a ``python -m``
    # target and must not be in the import graph of ``import repro``.
    from repro.obs.report import RUN_REPORT_KIND

    if not isinstance(document, dict):
        raise ValueError("compare: document must be a JSON object")
    if "payload" in document and isinstance(document["payload"], dict):
        document = document["payload"]
    if document.get("report") == RUN_REPORT_KIND:
        return _report_metrics(document)
    if document.get("benchmark") == "blocking-engines":
        return _bench_metrics(document)
    raise ValueError(
        "compare: unrecognized document (expected a repro.obs run report, "
        "a blocking-engines bench payload, or a history record)"
    )


# ---------------------------------------------------------------------------
# Comparison.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """The comparison of one metric across baseline and current."""

    name: str
    baseline: float
    current: float
    higher_is_better: bool
    gated: bool
    regressed: bool
    improved: bool

    @property
    def change(self) -> float:
        """Relative change, signed so that positive means regression."""
        if self.baseline == 0:
            magnitude = 0.0 if self.current == 0 else float("inf")
        else:
            magnitude = (self.current - self.baseline) / abs(self.baseline)
        return -magnitude if self.higher_is_better else magnitude


def compare_metrics(
    baseline: dict[str, Metric],
    current: dict[str, Metric],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Delta]:
    """Diff the metrics both sides share; flag regressions past *tolerance*."""
    deltas = []
    for name in sorted(set(baseline) & set(current)):
        base = baseline[name]
        cur = current[name]
        if base.higher_is_better:
            regressed = cur.value < base.value * (1.0 - tolerance)
            improved = cur.value > base.value * (1.0 + tolerance)
        else:
            regressed = cur.value > base.value * (1.0 + tolerance)
            improved = cur.value < base.value * (1.0 - tolerance)
        if base.value == 0 and not base.higher_is_better:
            regressed = cur.value > 0
            improved = False
        deltas.append(
            Delta(
                name=name,
                baseline=base.value,
                current=cur.value,
                higher_is_better=base.higher_is_better,
                gated=base.gated and cur.gated,
                regressed=regressed and (base.gated and cur.gated),
                improved=improved,
            )
        )
    return deltas


def regressions(deltas: list[Delta]) -> list[Delta]:
    """The gated regressions in *deltas* (non-empty means the gate fails)."""
    return [delta for delta in deltas if delta.regressed]


def parse_tolerance(text: str) -> float:
    """Parse ``"25%"`` or ``"0.25"`` into the fraction 0.25."""
    text = text.strip()
    if text.endswith("%"):
        value = float(text[:-1]) / 100.0
    else:
        value = float(text)
    if value < 0:
        raise ValueError(f"tolerance must be >= 0, got {text!r}")
    return value


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_deltas(deltas: list[Delta], tolerance: float) -> str:
    """The human-readable comparison table."""
    lines = [f"perf comparison (tolerance {tolerance:.0%})"]
    if not deltas:
        lines.append("  no common metrics")
        return "\n".join(lines)
    width = max(len(delta.name) for delta in deltas)
    for delta in deltas:
        if delta.regressed:
            marker = "REGRESSION"
        elif delta.improved:
            marker = "improved"
        else:
            marker = "ok" if delta.gated else "info"
        change = delta.change
        change_text = (
            f"{change:+.1%}" if change != float("inf") else "+inf"
        )
        lines.append(
            f"  {delta.name:<{width}}  {_format_value(delta.baseline):>12}"
            f" -> {_format_value(delta.current):>12}  {change_text:>8}"
            f"  {marker}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Compare two documents; exit 1 on any gated regression (the CI gate)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.compare",
        description="Diff two run reports / bench payloads per phase and "
        "per counter; exit non-zero when a metric regresses beyond the "
        "tolerance. Used as the CI perf-regression gate.",
    )
    parser.add_argument("baseline", help="baseline document (.json or .jsonl)")
    parser.add_argument("current", help="current document (.json or .jsonl)")
    parser.add_argument(
        "--tolerance",
        default=f"{DEFAULT_TOLERANCE:.0%}",
        help="allowed relative regression, e.g. '25%%' or 0.25 "
        "(default: 25%%)",
    )
    parser.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="GLOB",
        help="only compare metrics matching this glob; repeatable "
        "(default: all)",
    )
    parser.add_argument(
        "--entry",
        type=int,
        default=-1,
        help="which record of a .jsonl history file to use (default: last)",
    )
    args = parser.parse_args(argv)
    try:
        tolerance = parse_tolerance(args.tolerance)
        baseline = extract_metrics(load_document(args.baseline, entry=args.entry))
        current = extract_metrics(load_document(args.current, entry=args.entry))
    except (OSError, json.JSONDecodeError, ValueError, KeyError, IndexError) as error:
        print(f"repro.obs.compare: {error}", file=sys.stderr)
        return 2
    if args.metric:
        patterns = args.metric

        def keep(name: str) -> bool:
            return any(fnmatch.fnmatch(name, pattern) for pattern in patterns)

        baseline = {k: v for k, v in baseline.items() if keep(k)}
        current = {k: v for k, v in current.items() if keep(k)}
    deltas = compare_metrics(baseline, current, tolerance)
    print(render_deltas(deltas, tolerance))
    only_baseline = sorted(set(baseline) - set(current))
    only_current = sorted(set(current) - set(baseline))
    if only_baseline:
        print(f"  (baseline-only, not compared: {', '.join(only_baseline)})")
    if only_current:
        print(f"  (current-only, not compared: {', '.join(only_current)})")
    if not deltas:
        # A gate that compared nothing (e.g. a --metric glob that matches
        # no metric name) must not pass.
        print("repro.obs.compare: no metric to compare", file=sys.stderr)
        return 2
    failed = regressions(deltas)
    if failed:
        print(
            f"repro.obs.compare: {len(failed)} metric(s) regressed beyond "
            f"{tolerance:.0%}: {', '.join(delta.name for delta in failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
