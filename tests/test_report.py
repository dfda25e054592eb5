"""The report's output path: `serialize_report` and `metrics_rows` give
the text of the plain json calls they replace, byte for byte, and hold at
most a few times their output while building it.
"""

import json
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from votesim import report as report_mod
from votesim.config import bundled_scenarios, load_config
from votesim.engine import run_engine
from votesim.report import build_report, metrics_rows, serialize_report


def reference_report_text(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def reference_metrics_rows(report) -> str:
    """`metrics_rows` as first written: one row per leaf or list, the
    list encoded whole."""
    rows = []

    def walk(prefix, node):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(f"{prefix}.{k}" if prefix else str(k), node[k])
        elif isinstance(node, list):
            rows.append((prefix, json.dumps(node, sort_keys=True)))
        else:
            rows.append((prefix, json.dumps(node)))

    walk("", report)
    return "".join(f"{k}\t{v}\n" for k, v in rows)


json_leaves = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False) | st.text())
json_trees = st.recursive(
    json_leaves, lambda kids: st.lists(kids, max_size=6)
    | st.dictionaries(st.text(max_size=8), kids, max_size=6),
    max_leaves=80)
reports = st.dictionaries(st.text(max_size=8), json_trees, max_size=8)


class TestReferenceText:
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(report=reports, batch=st.sampled_from([1, 2, 3, 1024]))
    def test_json_trees_encode_as_the_plain_calls(self, report, batch):
        # small batches put batch boundaries inside every kind of token run
        with mock.patch.object(report_mod, "_JOIN_BATCH", batch):
            assert serialize_report(report) == reference_report_text(report)
            assert metrics_rows(report) == reference_metrics_rows(report)

    def test_non_ascii_text_is_escaped_as_before(self):
        report = {"ké": ["voté", "☃", {"z": "\U0001f5f3", "a": None}], "ñ": 1.5}
        assert serialize_report(report) == reference_report_text(report)
        assert metrics_rows(report) == reference_metrics_rows(report)

    @pytest.mark.parametrize("name", sorted(bundled_scenarios()))
    def test_bundled_reports_at_seed_42(self, name):
        config = load_config(bundled_scenarios()[name])
        config.seed = 42
        report = build_report(run_engine(config))
        assert serialize_report(report) == reference_report_text(report)
        assert metrics_rows(report) == reference_metrics_rows(report)


def synthetic_report(entries: int) -> dict:
    return {
        "attack_timeline": [
            {"time": 3600 + i, "voter": f"voter{i:06d}", "kind": "freak",
             "succeeded": i % 3 != 0, "suites": ["RSA", "RSA_EXPORT"]}
            for i in range(entries)],
        "linkage": {"linked_voters": [f"voter{i:06d}" for i in range(0, entries, 7)]},
        "votes": {"cast_accepted": entries, "counted": entries},
    }


@pytest.mark.parametrize("fn", [serialize_report, metrics_rows])
def test_output_path_holds_at_most_three_times_its_output(fn):
    report = synthetic_report(20_000)
    tracemalloc.start()
    try:
        text = fn(report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 1_000_000
    assert peak <= 3 * len(text), f"peak {peak} B for {len(text)} B of output"
