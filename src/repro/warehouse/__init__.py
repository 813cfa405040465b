"""Content-addressed result warehouse with incremental delta sync.

The persistence layer that makes every paper artefact warm-replayable:
completed experiment units are stored on disk under an extended canonical
hash (spec JSON + engine + code/data fingerprint), a
:class:`DeltaPlanner` diffs desired spec sets against the store, and
:func:`plan_and_run` lets sessions, executors and service workers execute
only the deltas — merged back in original order, bit-identical to a cold
run.  See ``docs/guides/warehouse.md`` for the operational guide.
"""

from .keys import canonical_json, canonical_sha256, code_fingerprint, fingerprint_digest, unit_key
from .planner import ARTIFACT_KINDS, DeltaPlan, DeltaPlanner, Unit, plan_and_run, plan_units
from .store import (
    DISK_FORMAT_VERSION,
    ENV_CACHE_DIR,
    ENV_NO_WAREHOUSE,
    ENV_WAREHOUSE_DIR,
    ResultWarehouse,
    WAREHOUSE_EVENTS,
    WarehouseEntry,
    WarehouseStats,
    default_warehouse,
    default_warehouse_dir,
)

__all__ = [
    "ARTIFACT_KINDS",
    "DISK_FORMAT_VERSION",
    "DeltaPlan",
    "DeltaPlanner",
    "ENV_CACHE_DIR",
    "ENV_NO_WAREHOUSE",
    "ENV_WAREHOUSE_DIR",
    "ResultWarehouse",
    "Unit",
    "WAREHOUSE_EVENTS",
    "WarehouseEntry",
    "WarehouseStats",
    "canonical_json",
    "canonical_sha256",
    "code_fingerprint",
    "default_warehouse",
    "default_warehouse_dir",
    "fingerprint_digest",
    "plan_and_run",
    "plan_units",
    "unit_key",
]
