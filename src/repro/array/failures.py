"""Failure models and failure injection for the storage-array simulator.

Two kinds of failures are modelled, matching §2 of the paper:

* **Device failures** -- a whole device (all of its chunks in every
  stripe) becomes unavailable.
* **Sector failures** -- individual sectors become unreadable (latent
  sector errors / worn-out flash blocks).  They can be injected
  independently or as *bursts* of contiguous sectors whose length follows
  the empirical distribution of Schroeder et al. (fraction ``b1`` of
  length-1 bursts, Pareto tail with index ``alpha`` beyond that) -- the
  same parametric model used for the reliability analysis in §7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class DeviceFailure:
    """Loss of an entire device."""

    device: int


@dataclass(frozen=True)
class SectorFailure:
    """Loss of a single sector: stripe-local coordinates (stripe, row, device)."""

    stripe: int
    row: int
    device: int


@dataclass
class FailureEvent:
    """A batch of failures injected at one instant."""

    device_failures: list[DeviceFailure] = field(default_factory=list)
    sector_failures: list[SectorFailure] = field(default_factory=list)


class BurstLengthDistribution:
    """Discrete burst-length distribution: P(L=1)=b1, Pareto tail beyond.

    ``P(L >= i | L >= 2) = (2 / i) ** alpha`` for ``i >= 2``, truncated at
    ``max_length`` and renormalised -- the same form used by the
    reliability models (Eq. 14-17), so simulation and analysis share one
    failure model.
    """

    def __init__(self, b1: float = 0.98, alpha: float = 1.79,
                 max_length: int = 16) -> None:
        if not (0.0 < b1 <= 1.0):
            raise ValueError("b1 must lie in (0, 1]")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.b1 = b1
        self.alpha = alpha
        self.max_length = max_length
        self.pmf = self._build_pmf()

    def _build_pmf(self) -> np.ndarray:
        pmf = np.zeros(self.max_length + 1)
        pmf[1] = self.b1
        if self.max_length >= 2:
            # Survival of the Pareto tail, conditioned on L >= 2.
            survival = np.array([(2.0 / i) ** self.alpha
                                 for i in range(2, self.max_length + 2)])
            tail = survival[:-1] - survival[1:]
            tail = np.append(tail, survival[-1])[: self.max_length - 1]
            tail = tail / tail.sum() * (1.0 - self.b1)
            pmf[2:] = tail
        else:
            pmf[1] = 1.0
        return pmf / pmf.sum()

    def mean(self) -> float:
        """Average burst length B (Eq. 14)."""
        lengths = np.arange(self.max_length + 1)
        return float(np.dot(lengths, self.pmf))

    def cdf(self) -> np.ndarray:
        """Cumulative distribution over lengths 1..max_length (Fig. 19a)."""
        return np.cumsum(self.pmf[1:])

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw burst lengths."""
        return rng.choice(np.arange(self.max_length + 1), size=size, p=self.pmf)


class FailureInjector:
    """Generates random failure events for an array geometry."""

    def __init__(self, num_devices: int, num_stripes: int, rows_per_chunk: int,
                 seed: int | None = None) -> None:
        self.num_devices = num_devices
        self.num_stripes = num_stripes
        self.rows_per_chunk = rows_per_chunk
        self.rng = np.random.default_rng(seed)

    def random_device_failures(self, count: int) -> FailureEvent:
        """Fail ``count`` distinct random devices."""
        devices = self.rng.choice(self.num_devices, size=count, replace=False)
        return FailureEvent(device_failures=[DeviceFailure(int(d)) for d in devices])

    def random_sector_failures(self, count: int,
                               exclude_devices: Iterable[int] = ()) -> FailureEvent:
        """Fail ``count`` random distinct sectors outside ``exclude_devices``."""
        excluded = set(exclude_devices)
        candidates = [(st, row, dev)
                      for st in range(self.num_stripes)
                      for row in range(self.rows_per_chunk)
                      for dev in range(self.num_devices)
                      if dev not in excluded]
        chosen = self.rng.choice(len(candidates), size=count, replace=False)
        return FailureEvent(sector_failures=[SectorFailure(*candidates[int(c)])
                                             for c in chosen])

    def burst_sector_failures(self, bursts: int,
                              distribution: BurstLengthDistribution,
                              exclude_devices: Iterable[int] = ()) -> FailureEvent:
        """Inject ``bursts`` bursts of contiguous sector failures.

        Each burst hits one chunk of one stripe starting at a random row;
        it is truncated at the chunk boundary (the paper's §7 assumption
        that a burst does not span chunks).
        """
        excluded = set(exclude_devices)
        devices = [d for d in range(self.num_devices) if d not in excluded]
        failures: list[SectorFailure] = []
        for _ in range(bursts):
            length = int(distribution.sample(self.rng)[0])
            if length == 0:
                continue
            stripe = int(self.rng.integers(0, self.num_stripes))
            device = int(self.rng.choice(devices))
            start = int(self.rng.integers(0, self.rows_per_chunk))
            for offset in range(length):
                row = start + offset
                if row >= self.rows_per_chunk:
                    break
                failures.append(SectorFailure(stripe, row, device))
        return FailureEvent(sector_failures=failures)

    def worst_case_event(self, m: int, e: tuple[int, ...],
                         stripe: int = 0) -> FailureEvent:
        """The worst-case pattern of §4.2: m failed devices plus e-shaped
        sector failures in the adjacent devices of one stripe."""
        data_devices = self.num_devices - m
        device_failures = [DeviceFailure(data_devices + k) for k in range(m)]
        sector_failures = []
        for l, e_l in enumerate(sorted(e)):
            device = data_devices - len(e) + l
            for h in range(e_l):
                sector_failures.append(
                    SectorFailure(stripe, self.rows_per_chunk - 1 - h, device))
        return FailureEvent(device_failures=device_failures,
                            sector_failures=sector_failures)
