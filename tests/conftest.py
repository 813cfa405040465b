"""Shared pytest fixtures: small workloads and operating points.

The unit and integration tests deliberately use reduced frame sizes so the
whole suite stays fast; the full paper-scale workloads are exercised by
the benchmark harness.
"""

from __future__ import annotations

import os

# The suite is hermetic: a developer's exported REPRO_* variables (cache
# and warehouse locations, block size, kill switches) must not change any
# outcome.  They are dropped before the package is imported, because some
# are read at import time.
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]

import pytest  # noqa: E402

from repro.apps.adpcm import AdpcmDecodeApp, AdpcmEncodeApp  # noqa: E402
from repro.apps.g721 import G721DecodeApp, G721EncodeApp  # noqa: E402
from repro.apps.jpeg import JpegDecodeApp  # noqa: E402
from repro.core.config import DesignConstraints, PAPER_OPERATING_POINT  # noqa: E402
from repro.runtime.profile_cache import ENV_CACHE_DIR  # noqa: E402
from repro.warehouse import ENV_WAREHOUSE_DIR  # noqa: E402


@pytest.fixture(autouse=True)
def _isolated_stores(tmp_path, monkeypatch):
    """Keep the task-profile cache and the result warehouse hermetic per test.

    Both on-disk stores are redirected into the test's tmp dir (never the
    developer's ``~/.cache/repro``) and the in-process profile memo is
    cleared, so no test observes profiles or results computed by another.
    """
    from repro.runtime.profile_cache import default_cache

    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "repro-cache"))
    monkeypatch.setenv(ENV_WAREHOUSE_DIR, str(tmp_path / "warehouse"))
    default_cache().clear()
    yield
    default_cache().clear()


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="regenerate the tests/golden/fixtures/*.json reference numbers "
        "from the current implementation instead of comparing against them "
        "(a deliberate, reviewable act — never done silently)",
    )


@pytest.fixture
def paper_constraints() -> DesignConstraints:
    """The paper's exact operating point (OV1=5 %, OV2=10 %, 1e-6)."""
    return PAPER_OPERATING_POINT


@pytest.fixture
def stress_constraints() -> DesignConstraints:
    """An elevated error rate that makes upsets frequent in small tasks."""
    return PAPER_OPERATING_POINT.with_overrides(error_rate=5e-5)


@pytest.fixture
def small_adpcm_encode() -> AdpcmEncodeApp:
    """ADPCM encoder on a short frame (fast unit-test workload)."""
    return AdpcmEncodeApp(frame_samples=320)


@pytest.fixture
def small_adpcm_decode() -> AdpcmDecodeApp:
    """ADPCM decoder on a short frame."""
    return AdpcmDecodeApp(frame_samples=320)


@pytest.fixture
def small_g721_encode() -> G721EncodeApp:
    """G.721 encoder on a short frame."""
    return G721EncodeApp(frame_samples=160)


@pytest.fixture
def small_g721_decode() -> G721DecodeApp:
    """G.721 decoder on a short frame."""
    return G721DecodeApp(frame_samples=160)


@pytest.fixture
def small_jpeg_decode() -> JpegDecodeApp:
    """JPEG decoder on a 32x32 image (16 blocks)."""
    return JpegDecodeApp(width=32, height=32)
