"""Tests for the ``repro-link`` CSV linkage tool."""

import argparse
import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize import MaxEntropyTDS
from repro.anonymize.base import EquivalenceClass
from repro.data.adult import generate_adult
from repro.data.partition import build_linkage_pair
from repro.data.schema import Attribute, Relation, Schema
from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy
from repro.linkage.blocking import BlockingResult, ClassPair
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.hybrid import (
    HybridLinkage,
    LinkageConfig,
    LinkageResult,
    match_keys,
)
from repro.tools.link_cli import (
    build_hierarchies,
    build_parser,
    load_csv,
    main,
    parse_attr_spec,
    write_matches,
)


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    directory = tmp_path_factory.mktemp("linkcli")
    relation = generate_adult(450, seed=61)
    pair = build_linkage_pair(relation, seed=62)
    left_path = directory / "left.csv"
    right_path = directory / "right.csv"
    pair.left.write_csv(str(left_path))
    pair.right.write_csv(str(right_path))
    return str(left_path), str(right_path), pair


class TestAttrSpec:
    def test_parse(self):
        spec = parse_attr_spec("age=continuous:0.05")
        assert spec.name == "age"
        assert spec.kind == "continuous"
        assert spec.theta == 0.05

    @pytest.mark.parametrize(
        "bad",
        ["age", "age=continuous", "age=interval:0.1", "age=continuous:-1",
         "age=continuous:x"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_attr_spec(bad)


class TestLoading:
    def test_load_types_columns(self, csv_pair):
        left_path, _, pair = csv_pair
        specs = {"age": parse_attr_spec("age=continuous:0.05")}
        relation = load_csv(left_path, specs)
        assert relation.schema["age"].is_continuous
        assert not relation.schema["education"].is_continuous
        assert len(relation) == len(pair.left)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            load_csv(str(path), {})

    def test_build_hierarchies_kinds(self, csv_pair):
        left_path, right_path, _ = csv_pair
        specs = [
            parse_attr_spec("age=continuous:0.05"),
            parse_attr_spec("education=categorical:0.5"),
            parse_attr_spec("native_country=string:1"),
        ]
        spec_map = {spec.name: spec for spec in specs}
        left = load_csv(left_path, spec_map)
        right = load_csv(right_path, spec_map)
        hierarchies = build_hierarchies(specs, left, right)
        from repro.data.strings import PrefixHierarchy
        from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy

        assert isinstance(hierarchies["age"], IntervalHierarchy)
        assert isinstance(hierarchies["education"], CategoricalHierarchy)
        assert isinstance(hierarchies["native_country"], PrefixHierarchy)
        # Every observed value is covered.
        for value in left.distinct_values("education"):
            assert hierarchies["education"].is_leaf(value)


class TestEndToEnd:
    def test_link_run(self, csv_pair, tmp_path, capsys):
        left_path, right_path, pair = csv_pair
        out_path = str(tmp_path / "matches.csv")
        code = main(
            [
                left_path,
                right_path,
                "--attr", "age=continuous:0.05",
                "--attr", "education=categorical:0.5",
                "--attr", "occupation=categorical:0.5",
                "--k", "8",
                "--allowance", "0.05",
                "--out", out_path,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "blocking efficiency" in output
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["left_index", "right_index"]
        # Every reported match really matches under the rule.
        matches = [(int(a), int(b)) for a, b in rows[1:]]
        for left_index, right_index in matches[:200]:
            left_record = pair.left[left_index]
            right_record = pair.right[right_index]
            assert abs(left_record[0] - right_record[0]) <= 0.05 * 74 + 1e-9
            assert left_record[2] == right_record[2]
            assert left_record[4] == right_record[4]

    def test_metrics_out_writes_valid_report(self, csv_pair, tmp_path, capsys):
        import json

        from repro.obs import validate_report

        left_path, right_path, _ = csv_pair
        report_path = str(tmp_path / "run_report.json")
        code = main(
            [
                left_path,
                right_path,
                "--attr", "age=continuous:0.05",
                "--attr", "education=categorical:0.5",
                "--k", "8",
                "--allowance", "0.02",
                "--metrics-out", report_path,
            ]
        )
        assert code == 0
        assert "wrote run report" in capsys.readouterr().out
        with open(report_path) as handle:
            document = validate_report(json.load(handle))
        assert document["context"]["tool"] == "repro-link"
        (run,) = document["trace"]
        assert run["name"] == "repro-link"
        names = [span["name"] for span in run["children"]]
        assert names == ["load", "hierarchies", "anonymize", "linkage.run", "write"]
        covered = sum(span["duration_seconds"] for span in run["children"])
        coverage = document["metrics"]["gauges"]["report.coverage"]
        assert coverage == pytest.approx(covered / run["duration_seconds"])
        assert 0.0 < coverage <= 1.0
        counters = document["metrics"]["counters"]
        assert counters["blocking.class_pairs"] > 0
        assert counters["smc.record_pair_comparisons"] > 0

    def test_header_mismatch_fails_cleanly(self, csv_pair, tmp_path, capsys):
        left_path, _, __ = csv_pair
        other = tmp_path / "other.csv"
        other.write_text("x,y\n1,2\n")
        code = main(
            [left_path, str(other), "--attr", "age=continuous:0.05"]
        )
        assert code == 1
        assert "repro-link:" in capsys.readouterr().err

    def test_unknown_attribute_fails_cleanly(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        code = main(
            [left_path, right_path, "--attr", "zipcode=categorical:0.5"]
        )
        assert code == 1
        assert "zipcode" in capsys.readouterr().err

    def test_parser_requires_attrs(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["a.csv", "b.csv"])


EDUCATION = CategoricalHierarchy(
    "education", {"ANY": {"Low": ["a", "b"], "High": ["c", "d", "e"]}}
)
HOURS = IntervalHierarchy.equi_width("hours", 0.0, 64.0, 8.0, levels=3)
SCHEMA = Schema([Attribute.categorical("education"), Attribute.continuous("hours")])
RULE = MatchRule(
    [MatchAttribute("education", EDUCATION, 0.5), MatchAttribute("hours", HOURS, 0.1)]
)


def _result(blocked, smc_pairs) -> LinkageResult:
    """A linkage result with the given blocking-M class pairs and SMC hits."""
    matched = [
        ClassPair(EquivalenceClass((), left), EquivalenceClass((), right))
        for left, right in blocked
    ]
    return LinkageResult(
        total_pairs=0,
        blocking=BlockingResult(RULE, 0, matched=matched),
        allowance_pairs=len(smc_pairs),
        smc_invocations=len(smc_pairs),
        smc_matched_pairs=list(smc_pairs),
        observations=[],
        leftovers=[],
        claimed=[],
    )


def _csv_writer_bytes(pairs) -> bytes:
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(("left_index", "right_index"))
    writer.writerows(sorted(pairs))
    return buffer.getvalue().encode()


class TestWriteMatches:
    """``write_matches`` writes exactly the bytes :mod:`csv` would."""

    @pytest.mark.parametrize(
        "blocked, smc_pairs",
        [
            pytest.param([], [], id="no-matches"),
            pytest.param(
                [((0, 3, 9), (2, 10)), ((4,), (0, 1))], [], id="blocking-only"
            ),
            pytest.param([], [(5, 7), (1, 2), (10, 99), (9, 100)], id="smc-only"),
            pytest.param([((0, 3), (5,)), ((8,), (1, 2))], [(3, 4), (1, 0)], id="both"),
            pytest.param(
                [((9, 10), (99, 100))],
                [(99, 9), (100, 10), (999, 1000), (1000, 999), (0, 0)],
                id="digit-widths",
            ),
        ],
    )
    def test_bytes_equal_csv_writer(self, tmp_path, blocked, smc_pairs):
        result = _result(blocked, smc_pairs)
        expected = list(result.iter_verified_matches())
        width = 1001
        path = tmp_path / "matches.csv"
        written = write_matches(str(path), result.verified_match_keys(width), width)
        assert written == len(expected)
        assert path.read_bytes() == _csv_writer_bytes(expected)

    def test_chunk_boundaries(self, tmp_path, monkeypatch):
        import repro.tools.link_cli as link_cli

        monkeypatch.setattr(link_cli, "WRITE_CHUNK", 3)
        pairs = [(left, right) for left in range(0, 12, 3) for right in (1, 10)]
        path = tmp_path / "matches.csv"
        keys = match_keys(pairs[::-1], 11)
        assert write_matches(str(path), keys, 11) == len(pairs)
        assert path.read_bytes() == _csv_writer_bytes(pairs)


@st.composite
def linkage_inputs(draw):
    records = st.tuples(
        st.sampled_from(EDUCATION.leaves), st.integers(0, 64).map(float)
    )
    left = Relation(SCHEMA, draw(st.lists(records, min_size=1, max_size=25)))
    right = Relation(SCHEMA, draw(st.lists(records, min_size=1, max_size=25)))
    rule = MatchRule(
        [
            MatchAttribute("education", EDUCATION, draw(st.sampled_from((0.0, 1.0)))),
            MatchAttribute("hours", HOURS, draw(st.sampled_from((0.05, 0.3, 0.6)))),
        ]
    )
    k = draw(st.integers(1, min(len(left), len(right), 4)))
    return left, right, rule, k, draw(st.floats(0.0, 1.0))


class TestVerifiedMatchSources:
    """The writer drops the old ``set()``: its two sources must be disjoint."""

    @given(case=linkage_inputs())
    @settings(max_examples=80, deadline=None)
    def test_blocking_and_smc_matches_are_disjoint(self, case):
        left, right, rule, k, allowance = case
        anonymizer = MaxEntropyTDS({"education": EDUCATION, "hours": HOURS})
        qids = ("education", "hours")
        result = HybridLinkage(LinkageConfig(rule, allowance=allowance)).run(
            anonymizer.anonymize(left, qids, k),
            anonymizer.anonymize(right, qids, k),
        )
        blocked = [
            (left_index, right_index)
            for pair in result.blocking.matched
            for left_index in pair.left.indices
            for right_index in pair.right.indices
        ]
        smc = result.smc_matched_pairs
        assert len(set(blocked)) == len(blocked)
        assert len(set(smc)) == len(smc)
        assert set(blocked).isdisjoint(smc)
        keys = result.verified_match_keys(len(right))
        assert len(set(keys.tolist())) == keys.size == len(blocked) + len(smc)
