"""perfbench: end-to-end benchmark of the hybrid private record linkage program.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-paper-counted --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run prepares the workload's inputs from ``--seed``, measures the
program's set-up several times, then runs linkage jobs back to back in
one closed loop for ``--seconds`` and checks every job's output. It
prints a readable report, then, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics (``job_s``, ``setup_s``,
``peak_rss_mb``); the two times are scaled to a reference machine speed
measured next to each of them (:func:`speed_factor`). ``--trace 1`` alternates untraced jobs with jobs
traced by spans around every layer's public functions, and reports the
per-layer metrics, including the tracing overhead (traced minus
untraced median ``job_s``).

Deterministic counts (SMC invocations, crypto operations, bytes per
comparison, blocking class pairs) must repeat exactly across the jobs of
a run, between the traced and untraced jobs, and across runs of the
same program and seed (kept under ``.perfbench/counts``). A count that
drifts makes the run incorrect; it is never averaged away.

Exit status: 0 when every job's output was correct and no count
drifted, 1 otherwise, 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: What :func:`calibration_seconds` took on the machine of baseline.json
#: when it ran at its faster speed; ``job_s`` and ``setup_s`` are scaled
#: to that speed.
CALIBRATION_REFERENCE_S = 0.031

_OPERANDS = random.Random(2008)
_MODULUS = _OPERANDS.getrandbits(2048) | 1
_BASE = _OPERANDS.getrandbits(2048) % _MODULUS
_EXPONENT = _OPERANDS.getrandbits(1024)


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics each mode reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the spec's ``end_to_end`` or ``per_layer`` metrics."""
    return {metric["name"]: metric["unit"] for metric in benchmark_spec()[kind]}


def workload_names() -> list[str]:
    return [workload["name"] for workload in benchmark_spec()["workloads"]]


def calibration_seconds() -> float:
    """Time a fixed amount of interpreter and big-integer work.

    The geometric mean of a pure-Python loop and 2048-bit modular
    exponentiations, the two kinds of work the workloads spend their
    time in. The machine's speed drifts by up to 2x over minutes; this
    probe, taken next to each timing, tracks that drift.
    """
    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value
    interpreter = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(8):
        pow(_BASE, _EXPONENT, _MODULUS)
    big_integer = time.perf_counter() - started
    return math.sqrt(interpreter * big_integer)


def speed_factor() -> float:
    """Multiply a wall time measured now by this to get reference seconds."""
    return CALIBRATION_REFERENCE_S / calibration_seconds()


class Phase:
    """The jobs of one closed-loop measurement (traced or not).

    ``seconds`` are wall times; ``scaled`` the same times in reference
    seconds (see :func:`speed_factor`).
    """

    def __init__(self):
        self.seconds: list[float] = []
        self.scaled: list[float] = []
        self.units: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.counts: dict | None = None
        self.trace_counts: dict | None = None
        self.drift: list[str] = []


def measure(workload, seconds: float, tracer=None) -> tuple[Phase, Phase]:
    """Run jobs back to back for *seconds*; time, check and count each.

    With a *tracer*, untraced and traced jobs alternate, so both see the
    same conditions and their difference is the tracing overhead.
    Returns the (untraced, traced) phases.
    """
    plain, traced = Phase(), Phase()
    deadline = time.perf_counter() + seconds
    for number in itertools.count():
        unit = f"job-{number}"
        tracing = tracer is not None and number % 2 == 1
        phase = traced if tracing else plain
        phase.attempted += 1
        output = None
        speed = speed_factor()
        with traced_unit(tracer if tracing else None, unit):
            started = time.perf_counter()
            try:
                output = workload.run_job()
                elapsed = time.perf_counter() - started
            except Exception:
                traceback.print_exc()
        ok = False
        if output is not None:
            try:
                counts, ok = workload.check(output)
            except Exception:
                traceback.print_exc()
        if not ok:
            phase.failed += 1
            print(f"perfbench: {workload.name} {unit} output check failed",
                  file=sys.stderr)
        else:
            phase.seconds.append(elapsed)
            phase.scaled.append(elapsed * speed)
            phase.units.append(unit)
            _expect_same(phase, "counts", counts, unit)
            if tracing:
                _expect_same(phase, "trace_counts", trace_counts(tracer, unit), unit)
        done = time.perf_counter() >= deadline
        if done and (tracer is None or traced.attempted):
            return plain, traced


@contextlib.contextmanager
def traced_unit(tracer, unit: str):
    """With a *tracer*: wrap the layers and record the block as *unit*."""
    if tracer is None:
        yield
        return
    import workloads

    with workloads.instrumented(tracer):
        started = tracer.begin_unit(unit)
        try:
            yield
        finally:
            tracer.end_unit(started)


def trace_counts(tracer, unit: str) -> dict:
    """A traced job's counts: hook observations plus calls per span name."""
    counts = Counter(tracer.counts.get(unit, {}))
    for span in tracer.unit_spans(unit):
        counts[f"spans.{span.name}"] += 1
    return dict(sorted(counts.items()))


def _expect_same(phase: Phase, attribute: str, counts: dict, unit: str) -> None:
    first = getattr(phase, attribute)
    if first is None:
        setattr(phase, attribute, counts)
    elif counts != first:
        phase.drift.append(f"{unit}: {describe_drift(first, counts)}")


def describe_drift(before: dict, after: dict) -> str:
    keys = sorted(set(before) | set(after))
    return ", ".join(
        f"{key} {before.get(key)} -> {after.get(key)}"
        for key in keys
        if before.get(key) != after.get(key)
    )


def program_digest() -> str:
    """Identifies the program and benchmark sources the counts belong to."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", BENCH):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reconcile_counts(name: str, seed: int, sections: dict) -> list[str]:
    """Compare this run's counts with earlier runs of the same program and seed."""
    directory = STATE / "counts"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}-seed{seed}-{program_digest()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    drift = []
    for section, counts in sections.items():
        if counts is None:
            continue
        counts = json.loads(json.dumps(counts))
        if section not in stored:
            stored[section] = counts
        elif stored[section] != counts:
            drift.append(
                f"{section} differs from an earlier run: "
                f"{describe_drift(stored[section], counts)}"
            )
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    scratch.write_text(json.dumps(stored, indent=1, sort_keys=True))
    os.replace(scratch, path)
    return drift


def time_setup(workload) -> float:
    """One set-up: import the program in a fresh interpreter, then its own set-up."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), environment.get("PYTHONPATH")])
    )
    code = "import " + ", ".join(workload.import_modules)
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, env=environment)
    workload.setup()
    return time.perf_counter() - started


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (VmHWM) from the current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory since the last :func:`reset_peak_rss`."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise OSError("no VmHWM line in /proc/self/status")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, traced: Phase, plain: Phase) -> dict:
    """The per-layer metrics of a traced phase (see README.md)."""
    units = traced.units
    counts = traced.counts or {}
    first = traced.trace_counts or {}

    def per_job(function) -> float:
        return median(function(unit) for unit in units)

    def total(prefix):
        return per_job(lambda unit: tracer.total(unit, prefix))

    def wall(unit):
        started, ended = tracer.units[unit]
        return ended - started

    def write_seconds(unit):
        if not tracer.total(unit, "cli.load"):
            return 0.0
        linkage_end = max(
            span.end for span in tracer.unit_spans(unit) if span.name == "linkage"
        )
        return tracer.units[unit][1] - linkage_end

    comparisons = counts.get(
        "smc.attribute_comparisons", first.get("smc.stage_attribute_comparisons", 0)
    )
    invocations = counts.get("smc.invocations", 0)

    def per_cmp(value) -> float:
        return value / comparisons if comparisons else 0.0

    anonymize_units = [
        unit for unit in tracer.units if tracer.total(unit, "anonymize")
    ]
    metrics = {
        "cli.load_s": total("cli.load"),
        "cli.hierarchies_s": total("cli.hierarchies"),
        "cli.write_s": per_job(write_seconds),
        "anonymize.s": median(
            tracer.total(unit, "anonymize") for unit in anonymize_units
        ),
        "block.s": total("block"),
        "block.class_pairs": first.get("block.class_pairs", 0),
        "block.unknown_class_pairs": first.get("block.unknown_class_pairs", 0),
        "block.efficiency": (
            first["block.decided_pairs"] / first["block.total_pairs"]
            if first.get("block.total_pairs") else 0.0
        ),
        "select.s": total("select"),
        "smc.s": total("smc"),
        "leftovers.s": total("leftovers"),
        "smc.invocations": invocations,
        "smc.attr_cmp_per_pair": comparisons / invocations if invocations else 0.0,
        "crypto.keygen_s": tracer.median_duration("crypto.keygen"),
        "crypto.share": per_job(
            lambda unit: tracer.self_times(unit).get("repro.crypto", 0.0) / wall(unit)
        ),
        "protocol.view_block_s": per_job(
            lambda unit: tracer.total(unit, "protocol.link")
            - tracer.total(unit, "net.compare_many")
        ),
        "net.connect_s": per_job(
            lambda unit: tracer.total(unit, "net.connect")
            + tracer.total(unit, "net.request.get_view")
        ),
        "net.resolve_s": total("net.request.resolve"),
        "net.batch_ms": 1000 * tracer.median_duration("net.compare_many"),
        "net.batches": first.get("spans.net.request.smc_batch", 0),
        "net.frames": first.get("calls.send", 0),
        "net.reconnects": first.get("calls.reconnect", 0),
        "channel_bytes_per_cmp": per_cmp(counts.get("channel.bytes_sent", 0)),
        "wire_bytes_per_cmp": per_cmp(counts.get("net.bytes_on_wire", 0)),
        "obs.overhead_s": median(traced.scaled) - median(plain.scaled),
        "trace.coverage": per_job(tracer.coverage),
    }
    for operation in ("encrypt", "rerandomize", "scale", "decrypt"):
        metrics[f"crypto.{operation}_per_cmp"] = per_cmp(
            first.get(f"spans.crypto.{operation}", 0)
        )
        metrics[f"crypto.{operation}_ms"] = 1000 * tracer.median_duration(
            f"crypto.{operation}"
        )
    return metrics


def layer_self_times(tracer, units) -> dict:
    """Median self seconds per job of every layer the trace saw."""
    per_unit = [tracer.self_times(unit) for unit in units]
    layers = sorted({layer for times in per_unit for layer in times})
    return {
        layer: median(times.get(layer, 0.0) for times in per_unit)
        for layer in layers
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import Tracer

    STATE.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=STATE)
    workload = workloads.WORKLOADS[name](seed, workdir)
    tracer = Tracer() if trace else None
    try:
        workload.prepare()
        # The benchmark's own inputs and references stay alive all run;
        # keep the collector from rescanning them inside every job.
        gc.collect()
        gc.freeze()
        setup_seconds, setup_scaled = [], []
        for repeat in range(workload.setup_repeats):
            speed = speed_factor()
            with traced_unit(tracer, f"setup-{repeat}"):
                setup_seconds.append(time_setup(workload))
            setup_scaled.append(setup_seconds[-1] * speed)
        # Memory the benchmark needed to build inputs and references is
        # not the program's: the peak is taken over the jobs only.
        reset_peak_rss()
        plain, traced = measure(workload, seconds, tracer)
        peak_mb = peak_rss_mb()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    phases = [plain, traced]
    drift = [line for phase in phases for line in phase.drift]
    if plain.counts and traced.counts:
        if traced.counts != plain.counts:
            drift.append(
                "traced vs untraced: "
                + describe_drift(plain.counts, traced.counts)
            )
    drift += reconcile_counts(name, seed, {
        "counts": plain.counts,
        "trace_counts": traced.trace_counts,
    })
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    report = {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "drift": drift,
        "samples": plain.seconds,
        "scaled": plain.scaled,
        "counts": plain.counts or {},
        "setup_seconds": setup_seconds,
        "setup_scaled": setup_scaled,
        "budget_pairs": getattr(workload, "budget_pairs", None),
    }
    if tracer is None:
        measured = {
            "job_s": median(plain.scaled),
            "setup_s": median(setup_scaled),
            "peak_rss_mb": peak_mb,
        }
        report["units"] = metric_units("end_to_end")
    else:
        measured = layer_metrics(tracer, traced, plain)
        report["units"] = metric_units("per_layer")
        report["traced_scaled"] = traced.scaled
        report["self_times"] = layer_self_times(tracer, traced.units)
    report["metrics"] = {name: measured[name] for name in report["units"]}
    return report


def print_report(report: dict) -> None:
    """The human-readable part of the output (everything but the last line)."""
    name = report["workload"]
    samples = report["samples"]
    counts = report["counts"]
    comparisons = counts.get("smc.attribute_comparisons", 0)
    print(f"== {name} (seed {report['seed']})")
    if report["budget_pairs"] is not None:
        print(f"   SMC budget: {report['budget_pairs']} record pairs")
    for metric, wall, scaled in (
        ("job_s", samples, report["scaled"]),
        ("setup_s", report["setup_seconds"], report["setup_scaled"]),
    ):
        if not wall:
            continue
        print(
            f"   {metric} samples={len(wall)} median={median(scaled):.4f} s "
            f"at reference speed; wall median={median(wall):.4f} "
            f"min={min(wall):.4f} max={max(wall):.4f} s "
            f"[{' '.join(f'{value:.3f}' for value in wall)}]"
        )
    print(
        f"   failed_frac={report['failed'] / report['attempted']:.4f} "
        f"({report['failed']} of {report['attempted']} jobs)"
    )
    if "channel.bytes_sent" in counts:
        print(
            "   channel_bytes_per_cmp="
            f"{counts['channel.bytes_sent'] / comparisons:.2f} B/cmp "
            f"({comparisons} comparisons)"
        )
    if "net.bytes_on_wire" in counts:
        print(
            "   wire_bytes_per_cmp="
            f"{counts['net.bytes_on_wire'] / comparisons:.2f} B/cmp"
        )
    if "smc.matches" in counts:
        print(
            f"   smc.invocations={counts['smc.invocations']} "
            f"smc.matches={counts['smc.matches']}"
        )
    for metric, value in report["metrics"].items():
        print(f"   {metric} = {value:.6g} {report['units'][metric]}")
    if "self_times" in report:
        traced = report["traced_scaled"]
        print(
            f"   traced job_s samples={len(traced)} "
            f"median={median(traced):.4f} s at reference speed"
        )
        print("   self time per job by layer:")
        for layer, seconds in report["self_times"].items():
            print(f"     {layer:24s} {seconds:.4f} s")
    for line in report["drift"]:
        print(f"   COUNT DRIFT: {line}")


def result_line(report: dict) -> dict:
    correct = report["failed"] == 0 and not report["drift"]
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": value, "unit": report["units"][metric]}
            for metric, value in report["metrics"].items()
        },
    }


def run_all(args) -> dict:
    """Run every workload in its own interpreter; merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names():
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        merged["correct"] &= completed.returncode == 0 and result["correct"]
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for metric, value in result.get("metrics", {}).items():
            merged["metrics"][f"{name}/{metric}"] = value
    return merged


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workload_names() + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print_report(report)
        result = result_line(report)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
