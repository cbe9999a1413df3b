"""Cryptographic substrate, implemented from scratch.

- :mod:`repro.crypto.modexp` — modular exponentiation through libgmp
  (``ctypes``), falling back to the built-in ``pow`` with identical
  results;
- :mod:`repro.crypto.primes` — Miller–Rabin primality testing and prime
  generation;
- :mod:`repro.crypto.paillier` — the Paillier homomorphic cryptosystem
  [18] used by the paper's SMC step (1024-bit keys in the experiments);
- :mod:`repro.crypto.fixedpoint` — signed fixed-point encoding of reals
  into the Paillier plaintext space;
- :mod:`repro.crypto.commutative` — SRA/Pohlig–Hellman commutative
  encryption (the alternative protocol family of Agrawal et al. [15]);
- :mod:`repro.crypto.smc` — the three-party secure-comparison protocols
  and the oracle abstraction the linkage pipeline consumes.
"""

from repro.crypto.paillier import PaillierKeyPair, PaillierPrivateKey, PaillierPublicKey

__all__ = [
    "PaillierKeyPair",
    "PaillierPrivateKey",
    "PaillierPublicKey",
]
