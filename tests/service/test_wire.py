"""Wire-validation tests: every malformed payload maps to a structured error."""

from __future__ import annotations

import pytest

from repro.api.registry import available_scenarios, available_strategies
from repro.api.spec import ENGINES, ExperimentSpec
from repro.apps.registry import available_applications
from repro.service.wire import (
    WIRE_KINDS,
    JobRequest,
    WireError,
    spec_sha256,
    validate_job_payload,
)


def _experiment(**overrides) -> dict:
    spec = {"app": "adpcm-encode", "strategy": "hybrid-optimal", **overrides}
    return {"kind": "experiment", "spec": spec}


class TestSpecHash:
    def test_insensitive_to_key_order(self):
        assert spec_sha256({"a": 1, "b": 2}) == spec_sha256({"b": 2, "a": 1})

    def test_sensitive_to_content(self):
        assert spec_sha256({"a": 1}) != spec_sha256({"a": 2})

    def test_nan_raises_a_structured_400(self):
        # json.loads admits the non-RFC literal NaN, but it has no
        # canonical serialization — hashing it would not be content
        # addressing.  (The old implementation silently emitted it.)
        with pytest.raises(WireError) as excinfo:
            spec_sha256({"params": {"rate": float("nan")}})
        assert excinfo.value.status == 400
        assert "NaN" in excinfo.value.message

    def test_infinity_raises_a_structured_400(self):
        with pytest.raises(WireError):
            spec_sha256({"x": float("inf")})

    def test_non_json_value_raises_instead_of_stringifying(self):
        # The old default=str fallback would hash str(value) — two
        # distinct payloads could silently share an identity.
        with pytest.raises(WireError) as excinfo:
            spec_sha256({"x": {1, 2}})
        assert excinfo.value.status == 400

    def test_nan_parameter_rejected_end_to_end(self):
        with pytest.raises(WireError) as excinfo:
            validate_job_payload(_experiment(params={"rate": float("nan")}))
        assert excinfo.value.status == 400


class TestValidPayloads:
    def test_experiment(self):
        request = validate_job_payload(_experiment(seed=7))
        assert isinstance(request, JobRequest)
        assert request.kind == "experiment"
        assert len(request.specs) == 1
        assert request.specs[0].seed == 7
        assert len(request.spec_hash) == 64

    def test_behavioural_campaign_stays_a_campaign(self):
        request = validate_job_payload(
            {
                "kind": "campaign",
                "spec": {"base": {"app": "adpcm-encode"}, "seeds": [3, 1, 4]},
            }
        )
        assert request.specs == ()
        assert request.campaign.seeds.tolist() == [3, 1, 4]
        assert request.campaign.base.engine == "behavioural"
        assert request.runs == 3

    def test_batched_campaign_stays_a_campaign(self):
        base = ExperimentSpec(app="adpcm-encode", engine="batched").to_dict()
        request = validate_job_payload(
            {"kind": "campaign", "spec": {"base": base, "seeds": [3, 1, 4]}}
        )
        assert request.specs == ()
        assert request.campaign.seeds.tolist() == [3, 1, 4]
        assert request.runs == 3
        assert request.label.endswith("(3 seeds)")

    def test_batch_keeps_order(self):
        specs = [ExperimentSpec(app="adpcm-encode", seed=s).to_dict() for s in (5, 2)]
        request = validate_job_payload({"kind": "batch", "specs": specs})
        assert [spec.seed for spec in request.specs] == [5, 2]

    def test_sweep_expands_grid(self):
        request = validate_job_payload(
            {
                "kind": "sweep",
                "spec": {
                    "base": {"app": "adpcm-encode"},
                    "parameters": {"seed": [0, 1, 2]},
                },
            }
        )
        assert len(request.specs) == 3

    def test_hash_is_canonical_across_field_order(self):
        a = validate_job_payload(_experiment(seed=1, scenario="paper-constant"))
        b = validate_job_payload(
            {"kind": "experiment", "spec": {"scenario": "paper-constant",
                                           "seed": 1, "strategy": "hybrid-optimal",
                                           "app": "adpcm-encode"}}
        )
        assert a.spec_hash == b.spec_hash


class TestStructuredErrors:
    def _error(self, payload) -> WireError:
        with pytest.raises(WireError) as excinfo:
            validate_job_payload(payload)
        return excinfo.value

    def test_non_object_body(self):
        error = self._error([1, 2, 3])
        assert error.status == 400
        assert "JSON object" in error.message

    def test_unknown_job_kind_lists_choices(self):
        error = self._error({"kind": "teleport"})
        assert error.choices["kind"] == list(WIRE_KINDS)

    def test_unknown_app_lists_choices(self):
        error = self._error(_experiment(app="not-an-app"))
        assert "not-an-app" in error.message
        assert error.choices["app"] == available_applications()

    def test_unknown_strategy_lists_choices(self):
        error = self._error(_experiment(strategy="not-a-strategy"))
        assert error.choices["strategy"] == available_strategies()

    def test_unknown_scenario_lists_choices(self):
        error = self._error(_experiment(scenario="not-a-scenario"))
        assert error.choices["scenario"] == available_scenarios()

    def test_bad_engine_lists_choices(self):
        error = self._error(_experiment(engine="warp"))
        assert error.choices["engine"] == list(ENGINES)

    def test_missing_spec(self):
        error = self._error({"kind": "experiment"})
        assert "'spec'" in error.message

    def test_campaign_without_base(self):
        error = self._error({"kind": "campaign", "spec": {"seeds": [1]}})
        assert "spec.base" in error.message

    def test_batch_empty_specs(self):
        error = self._error({"kind": "batch", "specs": []})
        assert "at least one" in error.message

    def test_batch_specs_not_a_list(self):
        error = self._error({"kind": "batch", "specs": "oops"})
        assert "list" in error.message

    @pytest.mark.parametrize("seeds", ([1.5, 2.7], ["3"], [True], [-1]))
    def test_campaign_seeds_must_be_integers(self, seeds):
        base = ExperimentSpec(app="adpcm-encode").to_dict()
        error = self._error({"kind": "campaign", "spec": {"base": base, "seeds": seeds}})
        assert error.status == 400
        assert "campaign seeds must be an integer" in error.message

    @pytest.mark.parametrize("runs", (True, "5", 2.5, 0))
    def test_campaign_runs_must_be_a_positive_integer(self, runs):
        base = ExperimentSpec(app="adpcm-encode").to_dict()
        error = self._error({"kind": "campaign", "spec": {"base": base, "runs": runs}})
        assert error.status == 400
        assert "runs must be an integer of at least 1" in error.message

    @pytest.mark.parametrize("metrics", ("energy_nj", [1, 2], {"energy_nj": 1}))
    def test_campaign_metrics_must_be_a_list_of_names(self, metrics):
        base = ExperimentSpec(app="adpcm-encode", engine="batched").to_dict()
        error = self._error(
            {"kind": "campaign", "spec": {"base": base, "seeds": [1, 2], "metrics": metrics}}
        )
        assert error.status == 400
        assert "metrics must be a sequence of metric names" in error.message

    @pytest.mark.parametrize("kind", ("optimize", "feasibility", "pareto"))
    def test_campaign_base_must_be_an_execute_spec(self, kind):
        base = ExperimentSpec(app="adpcm-encode", kind=kind).to_dict()
        error = self._error({"kind": "campaign", "spec": {"base": base, "seeds": [1, 2]}})
        assert error.status == 400
        assert f"got a '{kind}' base" in error.message

    def test_spec_seed_must_be_an_integer(self):
        error = self._error(_experiment(seed=2.5))
        assert "seed must be an integer" in error.message

    def test_bad_shard_size(self):
        for bad in (0, -1, "four", True):
            error = self._error(_experiment() | {"shard_size": bad})
            assert "shard_size" in error.message

    def test_error_payload_shape(self):
        error = self._error(_experiment(app="nope"))
        payload = error.payload()
        assert payload["error"]["status"] == 400
        assert "choices" in payload["error"]
