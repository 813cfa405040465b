"""Engine isolation: a warehouse hit is always served by the declared engine.

The spec's ``engine`` field is the only engine selector, and warehouse
units are keyed on it.  A batched run must therefore never answer a later
behavioural request in the same warehouse: the behavioural result has to
be byte-identical to a run with the warehouse disabled.
"""

from __future__ import annotations

import json

from repro.analysis.experiments import fig5_energy, scenario_sweep
from repro.warehouse.store import ENV_NO_WAREHOUSE


def _uncached(monkeypatch, run):
    """``run()`` with the warehouse disabled, as JSON."""
    with monkeypatch.context() as patch:
        patch.setenv(ENV_NO_WAREHOUSE, "1")
        return json.dumps(run().to_result_set().to_dict())


class TestHarnessesAfterABatchedRun:
    def test_fig5_behavioural_is_not_served_batched_rows(self, monkeypatch, engine_runs):
        fig5_energy(applications=["jpeg-decode"], engine="batched")
        assert engine_runs("batched") == 15
        served = fig5_energy(applications=["jpeg-decode"])
        served_runs = engine_runs("behavioural")
        reference = _uncached(monkeypatch, lambda: fig5_energy(applications=["jpeg-decode"]))
        assert json.dumps(served.to_result_set().to_dict()) == reference
        assert served_runs == 15

    def test_scenario_sweep_behavioural_is_not_served_batched_rows(
        self, monkeypatch, engine_runs
    ):
        kwargs = dict(scenarios=["storm"], strategies=["hybrid-optimal"], seeds=(0, 1, 2))
        scenario_sweep(engine="batched", **kwargs)
        assert engine_runs("batched") == 3
        served = scenario_sweep(**kwargs)
        served_runs = engine_runs("behavioural")
        reference = _uncached(monkeypatch, lambda: scenario_sweep(**kwargs))
        assert json.dumps(served.to_result_set().to_dict()) == reference
        assert served_runs == 3

