"""Cost of one 1024-bit Paillier operation on each modexp backend.

Times key generation, encrypt, rerandomize, scale and decrypt with libgmp
and with the built-in ``pow`` (:mod:`repro.crypto.modexp`), alternating
the two backends sample by sample so machine drift hits both alike. Key
generation uses the same seeds on both, so both find the same primes. The
operations per attribute comparison come from the seeded quick-fixture
run of ``paillier_opcounts.py``; they do not depend on the backend.

    PYTHONPATH=src python benchmarks/paillier_modexp.py \\
        --out BENCH_paillier.json --history BENCH_history.jsonl

Milliseconds depend on the machine. The gmp ÷ ``pow`` speedup ratios
depend on it much less, so CI gates a ratio and never seconds. Without
libgmp only the ``pow`` backend is measured and every ratio is ``null``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import random
import statistics
import time

from paillier_opcounts import run_report
from repro.crypto import modexp
from repro.crypto.paillier import PaillierKeyPair
from repro.obs.compare import append_history, history_record

KEY_BITS = 1024
REPEATS = 15
KEYGEN_SEEDS = range(1, 6)
#: Run-report counter of each operation, per attribute comparison.
COUNTERS = {
    "encrypt": "crypto.encrypt",
    "rerandomize": "crypto.rerandomize",
    "scale": "crypto.homomorphic_scale",
    "decrypt": "crypto.decrypt",
}


@contextlib.contextmanager
def backend(name: str):
    """Run the block on libgmp (``"gmp"``) or on the built-in ``pow``."""
    saved = modexp._gmp
    if name == "pow":
        modexp._gmp = None
    try:
        yield
    finally:
        modexp._gmp = saved


def seconds(call) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def operations(key_pair: PaillierKeyPair, rng: random.Random) -> dict:
    """One call per timed operation; ``scale`` uses a full-size blinder."""
    public, private = key_pair.public_key, key_pair.private_key
    ciphertext = public.encrypt(rng.randrange(public.n), rng)
    blinder = rng.randrange(1, public.n)
    return {
        "encrypt": lambda: public.encrypt(12345, rng),
        "rerandomize": lambda: ciphertext.rerandomize(rng),
        "scale": lambda: ciphertext * blinder,
        "decrypt": lambda: private.decrypt(ciphertext),
    }


def measure(backends: list[str]) -> dict[str, dict[str, float]]:
    """Median milliseconds per operation, per backend."""
    samples = {name: {} for name in backends}
    for seed in KEYGEN_SEEDS:
        keys = set()
        for name in backends:
            with backend(name):
                started = time.perf_counter()
                keys.add(PaillierKeyPair.generate(KEY_BITS, random.Random(seed)))
                elapsed = time.perf_counter() - started
            samples[name].setdefault("keygen", []).append(elapsed)
        if len(keys) != 1:
            raise RuntimeError(f"the backends generated different keys (seed {seed})")
    key_pair = keys.pop()
    calls = operations(key_pair, random.Random(2))
    for _ in range(REPEATS):
        for operation, call in calls.items():
            for name in backends:
                with backend(name):
                    samples[name].setdefault(operation, []).append(seconds(call))
    return {
        name: {
            operation: 1000 * statistics.median(values)
            for operation, values in timings.items()
        }
        for name, timings in samples.items()
    }


def ops_per_comparison() -> dict[str, float]:
    counters = run_report()["metrics"]["counters"]
    comparisons = counters["smc.attribute_comparisons"]
    return {
        operation: counters[counter] / comparisons
        for operation, counter in COUNTERS.items()
    }


def bench() -> dict:
    backends = ["gmp", "pow"] if modexp.uses_gmp() else ["pow"]
    milliseconds = measure(backends)
    per_comparison = ops_per_comparison()
    results = {}
    for name, ms in milliseconds.items():
        cost = sum(per_comparison[op] * ms[op] for op in per_comparison)
        results[name] = {"ms": ms, "ms_per_comparison": cost}
    speedup = None
    if "gmp" in results:
        gmp, builtin = results["gmp"], results["pow"]
        speedup = {op: builtin["ms"][op] / gmp["ms"][op] for op in gmp["ms"]}
        speedup["per_comparison"] = (
            builtin["ms_per_comparison"] / gmp["ms_per_comparison"]
        )
    return {
        "benchmark": "paillier-modexp",
        "python_version": platform.python_version(),
        "key_bits": KEY_BITS,
        "repeats": REPEATS,
        "keygens": len(KEYGEN_SEEDS),
        "ops_per_comparison": per_comparison,
        "ops_source": "paillier_opcounts.py quick fixture (256-bit key)",
        "backends": results,
        "speedup": speedup,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON document path")
    parser.add_argument("--history", help="JSONL history file to append to")
    args = parser.parse_args(argv)
    payload = bench()
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    if args.history:
        append_history(args.history, history_record(payload))
    for name, result in payload["backends"].items():
        costs = ", ".join(f"{op} {ms:.2f}" for op, ms in result["ms"].items())
        print(f"{name}: {costs} ms; {result['ms_per_comparison']:.2f} ms/cmp")
    if payload["speedup"] is not None:
        print("speedup:", {op: round(x, 2) for op, x in payload["speedup"].items()})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
