"""Acceptance: warm replays come entirely from the warehouse, bit-identical.

Every test runs a figure/campaign twice inside one hermetic warehouse
(the autouse cache fixture isolates ``REPRO_CACHE_DIR`` per test) and
asserts the second pass is (a) byte-identical and (b) zero-recompute,
via the process-wide ``repro_specs_executed_total`` counter.
"""

from __future__ import annotations

from repro.analysis.experiments import fig4_feasible_region, table1_optimal_chunks
from repro.api.executors import SPECS_EXECUTED
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.warehouse.store import default_warehouse

SPEC = ExperimentSpec(app="adpcm-encode", strategy="hybrid-optimal")


def _executed() -> float:
    """Total specs executed so far (all kinds/engines), process-wide."""
    return sum(sample["value"] for sample in SPECS_EXECUTED.samples())


class TestCampaignReplay:
    def test_serial_warm_replay_is_bit_identical_and_zero_recompute(self) -> None:
        session = Session()
        cold = session.campaign(SPEC, seeds=range(3)).to_result_set()
        executed = _executed()
        warm = session.campaign(SPEC, seeds=range(3)).to_result_set()
        assert warm.to_json() == cold.to_json()
        assert _executed() == executed, "warm replay recomputed specs"

    def test_parallel_warm_replay_matches_the_serial_cold_run(self) -> None:
        cold = Session().campaign(SPEC, seeds=range(4)).to_result_set()
        executed = _executed()
        warm = Session().campaign(SPEC, seeds=range(4), jobs=2).to_result_set()
        assert warm.to_json() == cold.to_json()
        assert _executed() == executed

    def test_batched_warm_replay_is_bit_identical_and_zero_recompute(self) -> None:
        session = Session()
        cold = session.campaign(SPEC, seeds=range(4), engine="batched").to_result_set()
        executed = _executed()
        warm = session.campaign(SPEC, seeds=range(4), engine="batched").to_result_set()
        assert warm.to_json() == cold.to_json()
        assert _executed() == executed

    def test_widening_the_seed_set_recomputes_only_the_delta(self) -> None:
        session = Session()
        session.campaign(SPEC, seeds=range(2))
        before = _executed()
        session.campaign(SPEC, seeds=range(4))
        assert _executed() == before + 2  # seeds 0-1 served, 2-3 executed

    def test_cache_on_and_off_agree_bit_for_bit(self, monkeypatch) -> None:
        # The warehouse is a pure accelerator: disabling it must change
        # nothing but the wall clock.
        warm_setup = Session().campaign(SPEC, seeds=range(3)).to_result_set()
        cached = Session().campaign(SPEC, seeds=range(3)).to_result_set()
        monkeypatch.setenv("REPRO_NO_WAREHOUSE", "1")
        uncached = Session().campaign(SPEC, seeds=range(3)).to_result_set()
        assert cached.to_json() == warm_setup.to_json()
        assert uncached.to_json() == warm_setup.to_json()


class TestFigureReplay:
    def test_fig4_warm_replay_serves_region_and_recomputes_nothing(self) -> None:
        kwargs = dict(max_chunk_words=64, max_correctable_bits=4, chunk_stride=16)
        cold = fig4_feasible_region(**kwargs)
        executed = _executed()
        warm = fig4_feasible_region(**kwargs)
        assert _executed() == executed
        assert warm.to_result_set().to_json() == cold.to_result_set().to_json()
        # The rich artifact itself is served, not just the records: the
        # boundary comes off the unpickled FeasibleRegion.
        assert warm.region.boundary() == cold.region.boundary()

    def test_table1_warm_replay_is_bit_identical_and_zero_recompute(self) -> None:
        cold = table1_optimal_chunks(applications=["adpcm-encode"])
        executed = _executed()
        warm = table1_optimal_chunks(applications=["adpcm-encode"])
        assert _executed() == executed
        assert warm.to_result_set().to_json() == cold.to_result_set().to_json()

    def test_replay_populates_the_warehouse_counters(self) -> None:
        kwargs = dict(max_chunk_words=32, max_correctable_bits=2, chunk_stride=8)
        stats = default_warehouse().stats
        hits = stats.hits
        fig4_feasible_region(**kwargs)
        fig4_feasible_region(**kwargs)
        assert stats.hits > hits


class TestSelfHealing:
    def test_a_truncated_block_is_replaced_by_the_next_campaign(self) -> None:
        warehouse = default_warehouse()
        session = Session()
        session.campaign(SPEC, seeds=range(50), engine="batched")
        (path,) = warehouse.directory.glob("*.json")
        path.write_bytes(path.read_bytes()[:100])

        def counted(run) -> dict[str, int]:
            before = warehouse.stats.as_dict()
            run()
            return {name: value - before[name] for name, value in warehouse.stats.as_dict().items()}

        def replay() -> None:
            session.campaign(SPEC, seeds=range(50), engine="batched")

        assert counted(replay) == {"hits": 0, "misses": 1, "stores": 1, "corrupt": 1}
        assert counted(replay) == {"hits": 1, "misses": 0, "stores": 0, "corrupt": 0}
