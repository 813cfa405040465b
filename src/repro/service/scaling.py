"""Parsl-style elastic scaling policy for the worker pool.

The shape is borrowed from Parsl's flow-control strategy
(``parsl/dataflow/strategy.py``): a pool holds between ``min_workers``
and ``max_workers`` workers (starting at ``init_workers``), and a
periodic tick resizes it toward the queue's *parallelism* —

.. code:: python

    target = ceil(active_shards * parallelism)      # slots per worker = 1
    target = min(target, active_shards)             # grow no further than the work
    target = clamp(target, min_workers, max_workers)
    target = max(target, current)                   # hold while shards run

``parallelism = 1.0`` stacks one shard per worker (scale aggressively);
``parallelism = 0.5`` stacks two shards per worker, and so on.  While
shards are outstanding the pool only grows, so a burst keeps its workers
through its tail; once the queue has been empty for ``idle_timeout_s``
the pool scales back down to ``min_workers``.  Every tick produces a
:class:`ScalingDecision`, and the pool keeps the recent ones —
``GET /v1/stats`` exposes them so scale-up and idle scale-down are
observable from outside.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class ScalingPolicy:
    """Bounds and pacing of the elastic worker pool.

    Attributes
    ----------
    min_workers:
        Floor the pool never drops below.
    init_workers:
        Workers provisioned when the pool starts.
    max_workers:
        Hard ceiling on pool size.
    parallelism:
        Shards-per-worker pressure in ``(0, 1]``: 1.0 asks for one worker
        per outstanding shard, 0.5 stacks two shards per worker.
    idle_timeout_s:
        Seconds of empty queue before scaling down to ``min_workers``.
    interval_s:
        Seconds between scaling ticks.
    """

    min_workers: int = 1
    init_workers: int = 1
    max_workers: int = 4
    parallelism: float = 1.0
    idle_timeout_s: float = 30.0
    interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.min_workers < 0:
            raise ValueError("min_workers must be >= 0")
        if self.max_workers < max(1, self.min_workers):
            raise ValueError("max_workers must be >= max(1, min_workers)")
        if not self.min_workers <= self.init_workers <= self.max_workers:
            raise ValueError("init_workers must lie within [min_workers, max_workers]")
        if not 0.0 < self.parallelism <= 1.0:
            raise ValueError("parallelism must be in (0, 1]")
        if self.idle_timeout_s < 0 or self.interval_s <= 0:
            raise ValueError("idle_timeout_s must be >= 0 and interval_s > 0")

    def target(self, active_shards: int, current: int, idle_seconds: float) -> "ScalingDecision":
        """Compute the worker count the pool should converge to."""
        if active_shards <= 0:
            if idle_seconds >= self.idle_timeout_s:
                return ScalingDecision(
                    active_shards=0,
                    current=current,
                    target=self.min_workers,
                    reason=f"idle {idle_seconds:.1f}s >= timeout "
                    f"{self.idle_timeout_s:.1f}s: scale to min",
                )
            return ScalingDecision(
                active_shards=0,
                current=current,
                target=max(self.min_workers, current),
                reason="queue empty, within idle grace",
            )
        want = math.ceil(active_shards * self.parallelism)
        target = max(self.min_workers, min(self.max_workers, want, active_shards), current)
        if target > current:
            reason = f"{active_shards} shard(s) outstanding: scale up to {target}"
        else:
            reason = f"{active_shards} shard(s) outstanding: hold at {target}"
        return ScalingDecision(
            active_shards=active_shards, current=current, target=target, reason=reason
        )


@dataclass(frozen=True)
class ScalingDecision:
    """One scaling tick's verdict, kept for the stats endpoint."""

    active_shards: int
    current: int
    target: int
    reason: str
    at: float = field(default_factory=time.time)

    @property
    def changed(self) -> bool:
        """Whether the tick asks for a different pool size."""
        return self.target != self.current

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form for ``GET /v1/stats``."""
        return {
            "at": self.at,
            "active_shards": self.active_shards,
            "current": self.current,
            "target": self.target,
            "reason": self.reason,
            "changed": self.changed,
        }
