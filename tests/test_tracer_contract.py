"""The benchmark's tracer wraps votesim from outside, by module attribute.
Each workload's bundled scenario, run through the calls the benchmark
worker makes, must still reach every name the workload requires, so a
refactor that moves a call out of a wrapped name fails here first.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

from tracer import Tracer  # noqa: E402
from workloads import COMMON_CALLS, WORKLOADS  # noqa: E402

from votesim import config as config_mod, engine as engine_mod, report as report_mod  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_required_name_is_recorded(name):
    w = WORKLOADS[name]
    tracer = Tracer()
    tracer.install()  # patches builtins.pow, so it is always undone below
    try:
        # called through the modules, as the worker calls them
        config = config_mod.load_config(config_mod.bundled_scenarios()[w.scenario])
        engine = engine_mod.ScenarioEngine(config)
        engine.run()
        report = report_mod.build_report(engine)
        report_mod.serialize_report(report)
        report_mod.metrics_rows(report)
    finally:
        tracer.uninstall()
    durs, _ = tracer.by_name()
    missing = [call for call in COMMON_CALLS + w.must_call if not tracer.calls(call, durs)]
    assert missing == []
