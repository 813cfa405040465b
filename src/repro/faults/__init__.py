"""Fault-injection substrate: upset models, rate-based injector, campaigns."""

from .campaign import CampaignReport, CampaignResult, aggregate_columns, aggregate_runs
from .injector import PAPER_ERROR_RATE, ExposureWindow, FaultInjector
from .models import (
    FaultModel,
    MixedUpset,
    MultiBitUpset,
    SingleBitUpset,
    UpsetEvent,
    default_smu_model,
)

__all__ = [
    "CampaignReport",
    "CampaignResult",
    "aggregate_columns",
    "aggregate_runs",
    "PAPER_ERROR_RATE",
    "ExposureWindow",
    "FaultInjector",
    "FaultModel",
    "MixedUpset",
    "MultiBitUpset",
    "SingleBitUpset",
    "UpsetEvent",
    "default_smu_model",
]
