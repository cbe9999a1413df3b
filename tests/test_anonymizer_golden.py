"""Golden digests of the top-down and Mondrian anonymizers' output.

The benchmark computes its reference output with the same anonymizer it
measures, so it cannot notice that anonymizer's output drifting. These
digests pin every equivalence class — its generalization sequence and its
record indices — for fixed inputs. They were computed with the scalar
per-record split that preceded the encoded ancestor-code tables, and they
must pass unedited: a changed digest means a changed anonymization.
"""

import hashlib

import pytest

from repro.anonymize import TDS, MaxEntropyTDS, Mondrian
from repro.data.adult import ADULT_COMPLETE_RECORDS, generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.partition import build_linkage_pair

PAPER_QIDS = ADULT_QID_ORDER[:5]


def classes_digest(generalized) -> str:
    """SHA-256 over ``repr((sequence, indices))`` of every class, in order."""
    digest = hashlib.sha256()
    for eq_class in generalized.classes:
        digest.update(repr((eq_class.sequence, eq_class.indices)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def paper_pair():
    """The seed-1 paper-scale (D1, D2) pair the benchmark links."""
    return build_linkage_pair(
        generate_adult(ADULT_COMPLETE_RECORDS, seed=1), seed=2
    )


@pytest.fixture(scope="module")
def small_pair():
    return build_linkage_pair(generate_adult(5_000, seed=5), seed=6)


#: name -> (pair fixture, anonymizer factory, QIDs, k, left digest, right digest)
CASES = {
    "maxent-paper-k32": (
        "paper_pair",
        lambda: MaxEntropyTDS(adult_hierarchies()),
        PAPER_QIDS,
        32,
        "9fe1941ef4fffb882fe48102120eb5ebf28e452b409b8308e20afc6d729eb1c1",
        "e798c62fe4a5d556a5c72c3a8b0d6981da1efdc70025a352cba11993a5efcafb",
    ),
    "maxent-paper-k8": (
        "paper_pair",
        lambda: MaxEntropyTDS(adult_hierarchies()),
        PAPER_QIDS,
        8,
        "f069680a5da4eda48e137b39559d874fe4780c0ccaa159f5b0c282ab601f9c97",
        "3ceb7d26a64eda22faacdf3419dccd0db3b380326bcede8f797a9a4d829a8507",
    ),
    "tds-5000-k16": (
        "small_pair",
        lambda: TDS(adult_hierarchies()),
        ADULT_QID_ORDER,
        16,
        "0555a7b6fe629d01a5be7fb6e322de912635ddb852793caa153f39d98443f440",
        "55d55fb94611074fae3593879d9e46ad425560e7836bd6eafcd4e2c85b747a4b",
    ),
    "maxent-l2-5000-k16": (
        "small_pair",
        lambda: MaxEntropyTDS(adult_hierarchies(), diversity=2),
        ADULT_QID_ORDER,
        16,
        "bf527a57f3db3c2b44823c235505cb63cc4e2bf90c99120c3257fe67c4eed840",
        "72dce49c9bd63c6ebe3d29dd3b4c7a235b0f6aeb0263f6c61bbe2e985168b317",
    ),
    "mondrian-5000-k16": (
        "small_pair",
        lambda: Mondrian(adult_hierarchies()),
        ADULT_QID_ORDER,
        16,
        "1709127fe0d967f9f3c62030233a3e58dd67b7ddc76d0c33c4e5420e4000f95c",
        "18941843eca57f5f6d45d87f2a1ddb060b1c3dd6898225343ac75017c3688199",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, request):
    fixture, factory, qids, k, left_digest, right_digest = CASES[name]
    pair = request.getfixturevalue(fixture)
    anonymizer = factory()
    left = anonymizer.anonymize(pair.left, qids, k)
    right = anonymizer.anonymize(pair.right, qids, k)
    assert (classes_digest(left), classes_digest(right)) == (
        left_digest,
        right_digest,
    )
