"""Tests for repro.crypto.modexp: libgmp and the built-in ``pow`` agree exactly."""

import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto import modexp
from repro.crypto.commutative import CommutativeKey, generate_safe_prime
from repro.crypto.paillier import PaillierKeyPair, PaillierPrivateKey
from repro.crypto.smc.oracle import PaillierSMCOracle
from repro.data.schema import Attribute, Schema
from repro.data.vgh import IntervalHierarchy
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.obs import Telemetry

FUNCTIONS = [modexp.powmod, modexp.powmod_secret]


@pytest.fixture(params=["gmp", "pow"])
def backend(request, monkeypatch):
    """Run the test once on libgmp and once on the built-in ``pow``."""
    if request.param == "gmp":
        if not modexp.uses_gmp():
            pytest.skip("libgmp is not installed")
    else:
        monkeypatch.setattr(modexp, "_gmp", None)
    return request.param


def outcome(function, base, exponent, modulus):
    """The result, or the exception type, of one call."""
    try:
        return function(base, exponent, modulus)
    except (ValueError, ZeroDivisionError) as error:
        return type(error)


ODD_2048 = st.integers(2**2047, 2**2048 - 1).map(lambda value: value | 1)
MODULI = st.one_of(
    st.sampled_from([1, 2, 3, 4, 65537, 2**64, 2**2048 - 1, 0, -7]),
    st.integers(2, 2**70),
    st.integers(2**2047, 2**2048 - 1),
    ODD_2048,
)
BASES = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-(2**2100), 2**2100),
)
EXPONENTS = st.one_of(
    st.integers(-3, 3),
    st.integers(0, 2**2048),
    st.integers(-(2**64), -1),
)


class TestParityWithPow:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(BASES, EXPONENTS, MODULI)
    def test_random_arguments(self, backend, base, exponent, modulus):
        expected = outcome(pow, base, exponent, modulus)
        for function in FUNCTIONS:
            assert outcome(function, base, exponent, modulus) == expected

    @pytest.mark.parametrize(
        "base, exponent, modulus",
        [
            (5, 0, 2**2048 - 1),  # exponent 0
            (0, 7, 2**2048 - 1),  # base 0
            (0, 0, 97),
            (2**2049 + 3, 65537, 2**2048 - 1),  # base >= modulus
            (-12345, 65537, 2**2048 - 1),  # negative base
            (-(2**3000), 3, 1009),
            (12345, 678, 1),  # modulus 1
            (3, 2**1024 + 1, 2**2048),  # even modulus
            (7, 5, 10),
            (3, -1, 2**2048 - 1),  # negative exponent, invertible
            (3, -5, 1009),
            (6, -1, 9),  # negative exponent, not invertible
            (3, 5, 0),  # modulus 0
            (3, 5, -7),  # negative modulus
        ],
    )
    def test_edge_cases(self, backend, base, exponent, modulus):
        expected = outcome(pow, base, exponent, modulus)
        for function in FUNCTIONS:
            assert outcome(function, base, exponent, modulus) == expected


class TestThreads:
    def test_concurrent_calls_are_correct(self, backend):
        rng = random.Random(5)
        modulus = (rng.getrandbits(2048) | 1) | (1 << 2047)
        jobs = [
            [(rng.getrandbits(2048), rng.getrandbits(1024)) for _ in range(8)]
            for _ in range(4)
        ]
        expected = [
            [pow(base, exponent, modulus) for base, exponent in job]
            for job in jobs
        ]
        results = [None] * len(jobs)
        start = threading.Barrier(len(jobs))

        def work(slot):
            start.wait()
            function = FUNCTIONS[slot % 2]
            results[slot] = [
                function(base, exponent, modulus) for base, exponent in jobs[slot]
            ]

        threads = [
            threading.Thread(target=work, args=(slot,)) for slot in range(len(jobs))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected


def seeded_crypto_run() -> list[int]:
    """Every integer a fixed-seed key, encrypt, rerandomize, scale, decrypt gives."""
    rng = random.Random(2024)
    key_pair = PaillierKeyPair.generate(512, rng)
    public, private = key_pair.public_key, key_pair.private_key
    textbook = PaillierPrivateKey(public, private.lam, private.mu)
    out = [public.n, private.lam, private.mu]
    for value in (0, 1, 42, -17, public.n // 3):
        encrypted = public.encrypt_signed(value, rng)
        refreshed = encrypted.rerandomize(rng)
        scaled = refreshed * rng.randrange(1, public.n)
        negated = -scaled
        out += [c.ciphertext for c in (encrypted, refreshed, scaled, negated)]
        for ciphertext in (encrypted, scaled, negated):
            out += [private.decrypt(ciphertext), textbook.decrypt(ciphertext)]
        out.append(private.decrypt_signed(refreshed))
    prime = generate_safe_prime(64, rng)
    key = CommutativeKey.generate(prime, rng)
    element = key.hash_encrypt(("Masters", 36))
    out += [prime, key.exponent, element, key.decrypt(element)]
    return out


def test_seeded_ciphertexts_are_identical_on_both_backends(monkeypatch):
    if not modexp.uses_gmp():
        pytest.skip("libgmp is not installed")
    with_gmp = seeded_crypto_run()
    monkeypatch.setattr(modexp, "_gmp", None)
    assert seeded_crypto_run() == with_gmp


def test_oracle_records_the_backend(backend):
    hierarchy = IntervalHierarchy.equi_width("age", 0, 100, 25, levels=2)
    rule = MatchRule([MatchAttribute("age", hierarchy, 0.05)])
    schema = Schema([Attribute.continuous("age")])
    bound = Telemetry()
    oracle = PaillierSMCOracle(rule, schema, key_bits=128, rng=3, telemetry=bound)
    attached = Telemetry()
    oracle.attach_telemetry(attached)
    for telemetry in (bound, attached):
        gauges = telemetry.metrics.snapshot()["gauges"]
        assert gauges["crypto.modexp_gmp"] == (backend == "gmp")


def test_library_loads_on_first_call_not_at_import():
    code = (
        "import repro, repro.crypto.smc.oracle\n"
        "from repro.crypto import modexp\n"
        "assert modexp._gmp is modexp._UNLOADED\n"
        "assert modexp.powmod(3, 5, 7) == 5\n"
        "assert modexp._gmp is not modexp._UNLOADED\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
