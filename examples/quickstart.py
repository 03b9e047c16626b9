#!/usr/bin/env python3
"""Quickstart: encode a stripe with a STAIR code, injure it, and recover it.

This walks through the paper's running example -- a STAIR code with
n = 8 devices, r = 4 sectors per chunk, m = 2 tolerable device failures
and sector-failure coverage e = (1, 1, 2) -- using the public API.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import StairCode, StairConfig


def main() -> None:
    # 1. Configure and build the code.
    config = StairConfig(n=8, r=4, m=2, e=(1, 1, 2))
    code = StairCode(config)
    print(f"Configuration      : {config.describe()}")
    print(f"Data symbols/stripe: {config.num_data_symbols}")
    print(f"Parity symbols     : {config.num_parity_symbols} "
          f"(2 parity chunks + {config.s} in-stripe global parity sectors)")
    print(f"Storage efficiency : {config.storage_efficiency:.3f}")
    print(f"Encoding method    : {code.select_encoding_method(64)} for "
          f"64-byte sectors, {code.select_encoding_method()} by Mult_XORs "
          f"(counts: {code.mult_xor_counts()})")

    # 2. Encode one stripe of random user data (64-byte sectors here).
    rng = np.random.default_rng(2014)
    data = [rng.integers(0, 256, 64, dtype=np.uint8)
            for _ in range(config.num_data_symbols)]
    stripe = code.encode(data)
    print("\nEncoded one stripe of "
          f"{config.num_data_symbols * 64} user bytes into an "
          f"{config.r}x{config.n} grid of 64-byte sectors.")

    # 3. Injure it: two whole devices fail and four more sectors go bad in
    #    three other devices -- the worst case this configuration covers.
    damaged = stripe.erase_chunks([6, 7]).erase(
        [(3, 3), (3, 4), (2, 5), (3, 5)])
    print(f"Injected failures  : devices 6 and 7 lost, plus 4 bad sectors "
          f"({len(damaged.lost_positions())} symbols lost in total)")

    # 4. Decode and verify.
    repaired = code.decode(damaged)
    ok = all(np.array_equal(a, b)
             for a, b in zip(repaired.data_symbols(), data))
    print(f"Recovery successful: {ok}")

    # 5. The byte-level convenience API does the same in two calls.
    payload = b"STAIR codes tolerate device AND sector failures " * 20
    stripe2 = code.encode_bytes(payload, symbol_size=64)
    damaged2 = stripe2.erase_chunks([0, 1]).erase([(0, 2), (1, 3), (3, 5)])
    recovered_payload = code.decode_bytes(damaged2, length=len(payload))
    print(f"Byte API roundtrip : {recovered_payload == payload}")


if __name__ == "__main__":
    main()
