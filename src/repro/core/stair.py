"""The public STAIR code object.

:class:`StairCode` bundles the configuration, the two building-block MDS
codes ``C_row`` and ``C_col``, the three encoders, the decoder, and the
analysis helpers (generator matrix, update penalty, Mult_XOR counts)
behind one façade.  This is the class the examples, the storage-array
simulator, and the benchmarks use.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.complexity import (
    EncodingCosts,
    encoding_costs,
    fastest_encoding_method,
    kernel_calls,
)
from repro.core.config import StairConfig
from repro.core.decoder import StairDecoder, check_coverage
from repro.core.encoder_downstairs import DownstairsEncoder
from repro.core.encoder_standard import StandardEncoder
from repro.core.encoder_upstairs import UpstairsEncoder
from repro.core.exceptions import ConfigurationError, EncodingInputError
from repro.core.generator import derive_parity_coefficients, full_generator_matrix
from repro.core.layout import StripeLayout
from repro.core.parity_relations import (
    update_penalty,
    update_penalty_per_symbol,
)
from repro.core.stripe_data import StairStripe
from repro.gf.field import GField
from repro.gf.regions import OperationCounter, RegionOps
from repro.rs.cauchy import CauchyRSCode
from repro.rs.systematic import SystematicMDSCode
from repro.rs.vandermonde import VandermondeRSCode

#: Encoding methods accepted by :meth:`StairCode.encode`.
ENCODING_METHODS = ("auto", "upstairs", "downstairs", "standard")


class StairCode:
    """A STAIR erasure code for one (n, r, m, e) configuration.

    Parameters
    ----------
    config:
        The STAIR configuration (or pass n/r/m/e via :meth:`from_params`).
    method:
        Default encoding method.  ``"auto"`` picks, per encode, the
        method with the lowest estimated time for the symbol length
        being encoded (:meth:`select_encoding_method`).
    mds_construction:
        ``"cauchy"`` (paper default) or ``"vandermonde"``: which systematic
        MDS construction to use for both C_row and C_col.
    """

    def __init__(self, config: StairConfig, method: str = "auto",
                 mds_construction: str = "cauchy") -> None:
        if method not in ENCODING_METHODS:
            raise ConfigurationError(f"unknown encoding method {method!r}")
        self.config = config
        self.default_method = method
        self.field: GField = config.field()
        self.layout = StripeLayout(config)
        self.crow, self.ccol = self._build_component_codes(mds_construction)

        self._upstairs = UpstairsEncoder(config, self.layout, self.crow, self.ccol)
        self._downstairs = DownstairsEncoder(config, self.layout, self.crow, self.ccol)
        self._decoder = StairDecoder(config, self.layout, self.crow, self.ccol)
        self._parity_coefficients: np.ndarray | None = None
        self._standard: StandardEncoder | None = None
        self._mult_xors: EncodingCosts | None = None
        self._kernel_calls: EncodingCosts | None = None
        #: Mult_XOR counter shared by every encode/decode done through this
        #: object (reset it via ``code.counter.reset()``).
        self.counter = OperationCounter()
        #: Region-operation backend used by every encode/decode.  The
        #: default routes through the bulk stripe-planar kernels; the
        #: differential tests swap in
        #: :class:`~repro.gf.regions.ReferenceRegionOps` to drive the
        #: scalar reference path with identical counter semantics.
        self.ops_class: type[RegionOps] = RegionOps

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_params(cls, n: int, r: int, m: int, e: Sequence[int],
                    **kwargs) -> "StairCode":
        """Build a STAIR code directly from (n, r, m, e)."""
        return cls(StairConfig(n=n, r=r, m=m, e=tuple(e)), **kwargs)

    def _build_component_codes(self, construction: str,
                               ) -> tuple[SystematicMDSCode, SystematicMDSCode | None]:
        cfg = self.config
        cls: type[SystematicMDSCode]
        if construction == "cauchy":
            cls = CauchyRSCode
        elif construction == "vandermonde":
            cls = VandermondeRSCode
        else:
            raise ConfigurationError(
                f"unknown MDS construction {construction!r}; "
                "use 'cauchy' or 'vandermonde'"
            )
        crow = cls(cfg.n + cfg.m_prime, cfg.data_chunks, self.field)
        ccol = None
        if cfg.e_max > 0:
            ccol = cls(cfg.r + cfg.e_max, cfg.r, self.field)
        return crow, ccol

    def _ops(self) -> RegionOps:
        return self.ops_class(self.field, self.counter)

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode(self, data: Sequence[np.ndarray],
               method: str | None = None) -> StairStripe:
        """Encode ``config.num_data_symbols`` data symbols into a stripe.

        The global parity symbols are stored *inside* the stripe (§5), so
        the returned stripe is exactly r x n symbols with no side-band.
        """
        method = method or self.default_method
        if method not in ENCODING_METHODS:
            raise EncodingInputError(f"unknown encoding method {method!r}")
        if method == "auto":
            method = self.select_encoding_method(
                np.asarray(data[0]).nbytes if len(data) else None)
        ops = self._ops()
        if method == "upstairs":
            grid = self._upstairs.encode(data, ops=ops)
        elif method == "downstairs":
            grid = self._downstairs.encode(data, ops=ops)
        else:
            grid = self.standard_encoder().encode(data, ops=ops)
        return StairStripe(self.config, self.layout, grid)

    def encode_bytes(self, payload: bytes, symbol_size: int) -> StairStripe:
        """Encode a raw byte payload (padded with zeros) into one stripe."""
        if symbol_size <= 0:
            raise EncodingInputError("symbol_size must be positive")
        if self.field.w != 8:
            raise EncodingInputError("encode_bytes requires the GF(2^8) field")
        capacity = self.config.num_data_symbols * symbol_size
        if len(payload) > capacity:
            raise EncodingInputError(
                f"payload of {len(payload)} bytes exceeds stripe capacity {capacity}"
            )
        padded = payload.ljust(capacity, b"\x00")
        data = [np.frombuffer(padded[i * symbol_size:(i + 1) * symbol_size],
                              dtype=np.uint8).copy()
                for i in range(self.config.num_data_symbols)]
        return self.encode(data)

    def decode_bytes(self, stripe: StairStripe, length: int | None = None) -> bytes:
        """Recover the raw byte payload stored in a (possibly damaged) stripe."""
        repaired = self.decode(stripe)
        blob = b"".join(sym.astype(np.uint8).tobytes()
                        for sym in repaired.data_symbols())
        return blob if length is None else blob[:length]

    def select_encoding_method(self, symbol_bytes: int | None = None) -> str:
        """Choose the encoding method for this configuration.

        Without ``symbol_bytes``: the paper's count rule, the fewest
        Mult_XORs (Eq. 5, Eq. 6 and the exact standard count).  With it:
        the lowest estimated time of one encode over symbols of that
        many bytes (:func:`~repro.core.complexity.fastest_encoding_method`),
        which is what ``method="auto"`` uses.  Either way the generator
        is derived on first use (one symbolic encode) and cached.
        """
        mult_xors = self.mult_xor_counts()
        if symbol_bytes is None:
            return mult_xors.best_method()
        return fastest_encoding_method(mult_xors, self.kernel_call_counts(),
                                       symbol_bytes, self.field.w)

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def decode(self, stripe: StairStripe | Sequence[Sequence[Optional[np.ndarray]]],
               practical: bool = True) -> StairStripe:
        """Recover every lost symbol of a damaged stripe.

        Raises :class:`~repro.core.exceptions.DecodingFailureError` when the
        failure pattern exceeds the coverage defined by ``m`` and ``e``.
        """
        grid = stripe.symbols if isinstance(stripe, StairStripe) else stripe
        repaired = self._decoder.decode(grid, ops=self._ops(), practical=practical)
        return StairStripe(self.config, self.layout, repaired)

    def check_coverage(self, lost_positions: Sequence[tuple[int, int]]) -> bool:
        """True if a failure pattern lies within the code's coverage."""
        return check_coverage(self.config, lost_positions)

    # ------------------------------------------------------------------ #
    # Baseline (§3) construction with outside global parities
    # ------------------------------------------------------------------ #
    def encode_baseline(self, data: Sequence[np.ndarray],
                        ) -> tuple[StairStripe, list[list[np.ndarray]]]:
        """Encode with the baseline construction of §3.

        All ``r * (n - m)`` symbols of the data chunks are user data; the
        ``s`` global parity symbols are returned separately (they are
        assumed to be stored outside the stripe and always available).

        Returns ``(stripe, globals)`` where ``globals[l][h]`` is g_{h,l}.
        """
        cfg = self.config
        expected = cfg.r * cfg.data_chunks
        if len(data) != expected:
            raise EncodingInputError(
                f"baseline encoding expects {expected} data symbols, got {len(data)}"
            )
        ops = self._ops()
        grid: list[list[np.ndarray]] = [[None] * cfg.n for _ in range(cfg.r)]  # type: ignore[list-item]
        intermediates: list[list[np.ndarray]] = []
        for i in range(cfg.r):
            row_data = [np.asarray(data[i * cfg.data_chunks + j])
                        for j in range(cfg.data_chunks)]
            parities = self.crow.encode(row_data, ops)
            for j in range(cfg.data_chunks):
                grid[i][j] = row_data[j]
            for k in range(cfg.m):
                grid[i][cfg.data_chunks + k] = parities[k]
            intermediates.append(parities[cfg.m:])
        globals_out: list[list[np.ndarray]] = []
        for l in range(cfg.m_prime):
            column = [intermediates[i][l] for i in range(cfg.r)]
            parities = self.ccol.encode(column, ops) if self.ccol else []
            globals_out.append(parities[: cfg.e[l]])
        stripe = StairStripe(cfg, self.layout, grid)
        return stripe, globals_out

    def decode_baseline(self, stripe: StairStripe | Sequence[Sequence[Optional[np.ndarray]]],
                        outside_globals: Sequence[Sequence[np.ndarray]],
                        practical: bool = True) -> StairStripe:
        """Decode a stripe encoded with :meth:`encode_baseline`."""
        grid = stripe.symbols if isinstance(stripe, StairStripe) else stripe
        repaired = self._decoder.decode(grid, ops=self._ops(),
                                        outside_globals=outside_globals,
                                        practical=practical)
        return StairStripe(self.config, self.layout, repaired)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def parity_coefficients(self) -> np.ndarray:
        """The (num_parities x num_data) generator coefficient matrix (cached)."""
        if self._parity_coefficients is None:
            self._parity_coefficients = derive_parity_coefficients(
                self.config, self.layout, self.crow, self.ccol, self.field
            )
        return self._parity_coefficients

    def generator_matrix(self) -> np.ndarray:
        """The full (num_data x r*n) generator matrix of the stripe."""
        return full_generator_matrix(self.config, self.layout,
                                     self.parity_coefficients())

    def standard_encoder(self) -> StandardEncoder:
        """The standard (direct generator-matrix) encoder, built lazily."""
        if self._standard is None:
            self._standard = StandardEncoder(self.config, self.layout,
                                             self.parity_coefficients())
        return self._standard

    def mult_xor_counts(self) -> EncodingCosts:
        """Analytical Mult_XOR counts of the three encoding methods (Fig. 9)."""
        if self._mult_xors is None:
            self._mult_xors = encoding_costs(self.config,
                                             self.parity_coefficients())
        return self._mult_xors

    def kernel_call_counts(self) -> EncodingCosts:
        """Bulk-kernel calls of one encode by each method (cached).

        Upstairs and downstairs make one per line recovery of their
        schedules, standard encoding one.  Each schedule is run once on
        one-element symbols (:func:`~repro.core.complexity.kernel_calls`),
        upstairs and downstairs by fresh encoders so no
        ``last_schedule`` changes.
        """
        if self._kernel_calls is None:
            parts = (self.config, self.layout, self.crow, self.ccol)
            self._kernel_calls = EncodingCosts(
                upstairs=kernel_calls(UpstairsEncoder(*parts), self.field),
                downstairs=kernel_calls(DownstairsEncoder(*parts), self.field),
                standard=kernel_calls(self.standard_encoder(), self.field))
        return self._kernel_calls

    def update_penalty(self) -> float:
        """Average parity symbols rewritten per data-symbol update (Figs. 14-15)."""
        return update_penalty(self.layout, self.parity_coefficients())

    def update_penalty_per_symbol(self) -> list[int]:
        """Per-data-symbol update penalties."""
        return update_penalty_per_symbol(self.layout, self.parity_coefficients())

    @property
    def storage_efficiency(self) -> float:
        """Fraction of the stripe storing user data (Eq. 8)."""
        return self.config.storage_efficiency

    @property
    def last_decode_schedule(self):
        """Schedule steps of the most recent global decode (Table 2)."""
        return self._decoder.last_schedule

    @property
    def last_downstairs_schedule(self):
        """Schedule steps of the most recent downstairs encode (Table 3)."""
        return self._downstairs.last_schedule

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StairCode({self.config.describe()})"
