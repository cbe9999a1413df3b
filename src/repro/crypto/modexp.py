"""Modular exponentiation through libgmp, with the built-in ``pow`` as fallback.

Every Paillier, Miller–Rabin and SRA exponentiation in :mod:`repro.crypto`
goes through :func:`powmod` or :func:`powmod_secret`. They return exactly
what ``pow(base, exponent, modulus)`` returns, so ciphertexts, verdicts
and operation counts do not depend on the backend; only the time does.
With 1024-bit keys, GMP's ``mpz_powm`` computes ``r^n mod n^2`` about
8x faster than CPython's ``pow``.

- The library is found with :func:`ctypes.util.find_library` and loaded on
  the first call, not at import. When it is absent, both functions are
  the built-in ``pow``. Nothing else selects the backend.
- :func:`powmod_secret` runs GMP's ``mpz_powm_sec``, whose time and memory
  access pattern do not depend on the exponent's bits. It is for private
  exponents (``λ``, ``p - 1``, SRA keys, prime candidates).
- ``ctypes`` releases the GIL during each call, so each thread converts
  through its own ``mpz`` registers; no GMP state is shared.
- Cases GMP does not define the way ``pow`` does (modulus ``<= 1``,
  negative exponents, and for ``mpz_powm_sec`` an even modulus or a zero
  exponent) take the path that does.
"""

from __future__ import annotations

import ctypes
import threading
import types

_UNLOADED = object()
#: The loaded library, ``None`` when absent, or ``_UNLOADED`` before the
#: first call. Tests force the fallback by setting it to ``None``.
_gmp = _UNLOADED
_registers = threading.local()


class _Mpz(ctypes.Structure):
    """GMP's ``__mpz_struct``."""

    _fields_ = [
        ("alloc", ctypes.c_int),
        ("size", ctypes.c_int),
        ("limbs", ctypes.c_void_p),
    ]


def _load():
    """Open libgmp and declare the functions used, or return ``None``."""
    import ctypes.util

    name = ctypes.util.find_library("gmp")
    if name is None:
        return None
    mpz = ctypes.POINTER(_Mpz)
    size, word, data = ctypes.c_size_t, ctypes.c_int, ctypes.c_char_p
    signatures = {
        "init": [mpz],
        "clear": [mpz],
        "powm": [mpz] * 4,
        "powm_sec": [mpz] * 4,
        "import_": [mpz, size, word, size, word, size, data],
        "export": [data, ctypes.POINTER(size), word, size, word, size, mpz],
        "sizeinbase": [mpz, word],
    }
    try:
        library = ctypes.CDLL(name)
        gmp = types.SimpleNamespace()
        for function_name, argtypes in signatures.items():
            function = getattr(library, "__gmpz_" + function_name.rstrip("_"))
            function.argtypes = argtypes
            function.restype = size if function_name == "sizeinbase" else None
            setattr(gmp, function_name, function)
    except (OSError, AttributeError):
        return None
    return gmp


def _library():
    # Two threads may both load on the first call; either result is the
    # same library, so the race is harmless and needs no lock.
    global _gmp
    if _gmp is _UNLOADED:
        _gmp = _load()
    return _gmp


def uses_gmp() -> bool:
    """True when exponentiations run in libgmp (loading it if needed)."""
    return _library() is not None


class _Registers:
    """One thread's ``mpz`` values: result, base, exponent, modulus."""

    def __init__(self, gmp):
        self.gmp = gmp
        self.mpz = (_Mpz * 4)()
        for value in self.mpz:
            gmp.init(value)

    def __del__(self):
        for value in self.mpz:
            self.gmp.clear(value)


# Integers cross as little-endian bytes: order -1 (least significant word
# first), 1-byte words, native endianness (moot for bytes), no nail bits.
def _store(gmp, register, value: int) -> None:
    data = value.to_bytes((value.bit_length() + 7) // 8, "little")
    gmp.import_(register, len(data), -1, 1, 0, 0, data)


def _fetch(gmp, register) -> int:
    buffer = ctypes.create_string_buffer((gmp.sizeinbase(register, 2) + 7) // 8)
    written = ctypes.c_size_t()
    gmp.export(buffer, ctypes.byref(written), -1, 1, 0, 0, register)
    return int.from_bytes(buffer.raw[: written.value], "little")


def _powm(gmp, function, base: int, exponent: int, modulus: int) -> int:
    registers = getattr(_registers, "value", None)
    if registers is None:
        registers = _registers.value = _Registers(gmp)
    result, base_mpz, exponent_mpz, modulus_mpz = registers.mpz
    _store(gmp, base_mpz, base % modulus)
    _store(gmp, exponent_mpz, exponent)
    _store(gmp, modulus_mpz, modulus)
    function(result, base_mpz, exponent_mpz, modulus_mpz)
    return _fetch(gmp, result)


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, computed by libgmp when present."""
    gmp = _library()
    if gmp is None or exponent < 0 or modulus <= 1:
        return pow(base, exponent, modulus)
    return _powm(gmp, gmp.powm, base, exponent, modulus)


def powmod_secret(base: int, exponent: int, modulus: int) -> int:
    """:func:`powmod` for a private exponent, in constant time under GMP."""
    gmp = _library()
    if gmp is None or exponent <= 0 or modulus <= 1 or not modulus & 1:
        return powmod(base, exponent, modulus)
    return _powm(gmp, gmp.powm_sec, base, exponent, modulus)
