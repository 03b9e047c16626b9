"""The simulated fleet: damage-state arrays and vectorized recoverability.

The symbol-level :class:`repro.array.storage_array.StorageArray` actually
encodes and decodes data, which is exactly right for correctness tests
and hopeless for Monte Carlo (a single trajectory touches millions of
stripe-years).  The simulator therefore tracks *damage state only*, the
way SMRSU keeps per-stripe state vectors: an integer matrix of bad-sector
counts per (stripe, chunk) plus a failed flag per device.  Whether a
stripe is recoverable is decided by :class:`CoverageModel`, a vectorized
predicate with the same chunk-granularity semantics as the reliability
analysis of §7 / Appendix B -- and, for verified constructions, a
conservative lower bound on what the actual decoders of
:mod:`repro.codes` can repair (asserted in the test suite against
``StripeCode.tolerates`` and ``StripeCode.recoverable``).

The predicate is general in the device tolerance ``m``: it serves both
the event engine of :mod:`repro.sim.events` (which tracks real sector
damage) and, through ``CoverageModel.m``, the m >= 2 lane dynamics of
the vectorized runner in :mod:`repro.sim.montecarlo`.  The damage state
is agnostic to *why* devices fail -- independent lifetimes, correlated
domain shocks (:mod:`repro.sim.domains`) and batch wear all funnel
through the same ``fail_device`` / ``rebuild`` transitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codes.base import StripeCode
from repro.codes.idr import IDRScheme
from repro.codes.reed_solomon import ReedSolomonStripeCode
from repro.codes.sd import SDCode
from repro.codes.stair_adapter import StairStripeCode


@dataclass(frozen=True)
class CoverageModel:
    """Chunk-granularity failure coverage of one stripe code.

    ``kind`` is ``"rs"``, ``"stair"``, ``"sd"`` or ``"idr"``; ``m`` the
    device-level tolerance, ``e`` the STAIR coverage vector, ``s`` the SD
    global-parity count and ``epsilon`` the IDR per-chunk tolerance.

    A per-stripe damage pattern -- ``f`` failed devices plus bad-sector
    counts in the surviving chunks -- is judged recoverable as in the
    analysis: ``m - f`` unused device-level erasures absorb the worst
    damaged chunks, and the remaining counts must fit the code's
    sector-level coverage (none for RS; sum ≤ s for SD; the sorted ``e``
    vector for STAIR; ≤ ε per chunk for IDR).
    """

    kind: str
    m: int
    r: int
    e: tuple[int, ...] = ()
    s: int = 0
    epsilon: int = 0

    @classmethod
    def from_code(cls, code: StripeCode) -> "CoverageModel":
        """Derive the coverage of any registered stripe code."""
        if isinstance(code, StairStripeCode):
            return cls(kind="stair", m=code.config.m, r=code.r,
                       e=tuple(code.config.e), s=int(sum(code.config.e)))
        if isinstance(code, SDCode):
            return cls(kind="sd", m=code.m, r=code.r, s=code.s)
        if isinstance(code, IDRScheme):
            return cls(kind="idr", m=code.m, r=code.r, epsilon=code.epsilon)
        if isinstance(code, ReedSolomonStripeCode):
            return cls(kind="rs", m=code.m, r=code.r)
        raise TypeError(
            f"no coverage model for {type(code).__name__}; construct a "
            "CoverageModel explicitly"
        )

    # ------------------------------------------------------------------ #
    def stripes_recoverable(self, sector_errors: np.ndarray,
                            failed: np.ndarray) -> np.ndarray:
        """Vectorized recoverability over all stripes.

        Parameters
        ----------
        sector_errors:
            Integer matrix of shape ``(num_stripes, n)``: bad-sector
            counts per (stripe, chunk).
        failed:
            Boolean vector of length ``n``: device health.

        Returns a boolean vector of length ``num_stripes``.
        """
        sector_errors = np.asarray(sector_errors)
        failed = np.asarray(failed, dtype=bool)
        num_stripes = sector_errors.shape[0]
        num_failed = int(failed.sum())
        if num_failed > self.m:
            return np.zeros(num_stripes, dtype=bool)
        surviving = sector_errors[:, ~failed]
        if surviving.shape[1] == 0:
            return np.ones(num_stripes, dtype=bool)
        # Sort per-stripe chunk damage descending; the first `spare`
        # columns are absorbed by unused device-level erasures.
        counts = -np.sort(-surviving, axis=1)
        spare = self.m - num_failed
        rest = counts[:, spare:]
        if rest.shape[1] == 0:
            return np.ones(num_stripes, dtype=bool)
        if self.kind == "rs":
            return rest[:, 0] == 0
        if self.kind == "sd":
            return rest.sum(axis=1) <= self.s
        if self.kind == "idr":
            return rest[:, 0] <= self.epsilon
        if self.kind == "stair":
            cap = np.zeros(rest.shape[1], dtype=sector_errors.dtype)
            e_desc = sorted(self.e, reverse=True)[: rest.shape[1]]
            cap[: len(e_desc)] = e_desc
            return np.all(rest <= cap, axis=1)
        raise ValueError(f"unknown coverage kind {self.kind!r}")

    def tolerates_counts(self, counts: tuple[int, ...],
                         num_failed_devices: int = 0) -> bool:
        """Scalar convenience: one stripe's surviving-chunk damage counts."""
        n = len(counts) + num_failed_devices
        if n == 0:
            return True
        errors = np.zeros((1, n), dtype=np.int64)
        errors[0, : len(counts)] = counts
        failed = np.zeros(n, dtype=bool)
        failed[len(counts):] = True
        return bool(self.stripes_recoverable(errors, failed)[0])


class SimulatedArray:
    """Damage-state twin of :class:`repro.array.StorageArray`.

    Tracks which devices are down and how many bad sectors each
    (stripe, chunk) cell carries -- never the data itself.  All bulk
    operations are numpy-vectorized over stripes.
    """

    def __init__(self, code: StripeCode, num_stripes: int,
                 coverage: CoverageModel | None = None) -> None:
        if num_stripes < 1:
            raise ValueError("num_stripes must be >= 1")
        self.code = code
        self.coverage = coverage or CoverageModel.from_code(code)
        self.n = code.n
        self.r = code.r
        self.num_stripes = num_stripes
        self.sector_errors = np.zeros((num_stripes, self.n), dtype=np.int16)
        self.device_failed = np.zeros(self.n, dtype=bool)

    # ------------------------------------------------------------------ #
    # Damage injection
    # ------------------------------------------------------------------ #
    def fail_device(self, device: int) -> None:
        self.device_failed[device] = True
        # The device's latent errors are subsumed by the chunk loss.
        self.sector_errors[:, device] = 0

    def add_sector_errors(self, stripe: int, device: int,
                          count: int = 1) -> None:
        """Add a burst of ``count`` bad sectors to one chunk (capped at r)."""
        if self.device_failed[device]:
            return
        total = int(self.sector_errors[stripe, device]) + int(count)
        self.sector_errors[stripe, device] = min(total, self.r)

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    @property
    def num_failed(self) -> int:
        return int(self.device_failed.sum())

    @property
    def total_bad_sectors(self) -> int:
        return int(self.sector_errors.sum())

    def stripes_recoverable(self) -> np.ndarray:
        return self.coverage.stripes_recoverable(self.sector_errors,
                                                 self.device_failed)

    def all_recoverable(self) -> bool:
        return bool(self.stripes_recoverable().all())

    def stripe_recoverable(self, stripe: int) -> bool:
        return bool(self.coverage.stripes_recoverable(
            self.sector_errors[stripe: stripe + 1], self.device_failed)[0])

    # ------------------------------------------------------------------ #
    # Repair
    # ------------------------------------------------------------------ #
    def scrub(self) -> int:
        """Repair latent sector errors everywhere (callers check
        :meth:`all_recoverable` first, mirroring ``StorageArray.scrub``
        raising on unrecoverable stripes).  Returns sectors repaired."""
        repaired = int(self.sector_errors[:, ~self.device_failed].sum())
        self.sector_errors[:, ~self.device_failed] = 0
        return repaired

    def rebuild(self, devices: list[int] | None = None) -> list[int]:
        """Replace failed devices; returns their ids (coverage pre-checked).

        With ``devices`` only that subset is replaced -- devices that
        failed after a rebuild started need their own rebuild pass.
        """
        if devices is None:
            replaced = np.flatnonzero(self.device_failed).tolist()
        else:
            replaced = [d for d in devices if self.device_failed[d]]
        self.device_failed[replaced] = False
        return replaced

    def clear_stripe_errors(self, stripe: int) -> None:
        """A full-stripe write rewrites every surviving chunk."""
        self.sector_errors[stripe, ~self.device_failed] = 0


class SimulatedCluster:
    """A fleet of identical arrays protected by one stripe code."""

    def __init__(self, code: StripeCode, num_arrays: int,
                 stripes_per_array: int) -> None:
        if num_arrays < 1:
            raise ValueError("num_arrays must be >= 1")
        coverage = CoverageModel.from_code(code)
        self.code = code
        self.arrays = [SimulatedArray(code, stripes_per_array, coverage)
                       for _ in range(num_arrays)]

    @property
    def num_devices(self) -> int:
        return sum(array.n for array in self.arrays)

    def damage_summary(self) -> dict[str, int]:
        return {
            "failed_devices": sum(a.num_failed for a in self.arrays),
            "bad_sectors": sum(a.total_bad_sectors for a in self.arrays),
            "unrecoverable_stripes": sum(
                int((~a.stripes_recoverable()).sum()) for a in self.arrays),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SimulatedCluster({self.code.describe()}, "
                f"{len(self.arrays)} arrays x "
                f"{self.arrays[0].num_stripes} stripes)")
