"""Compare ``float_reprs`` with ``float.__repr__`` on many float64 values.

    PYTHONPATH=src python tests/float_repr_sweep.py --seed 1 --random 20000000 --subnormal-bits 22

It checks ``--random`` random finite bit patterns of both signs, drawn from
``--seed``, then every positive subnormal whose significand is below
2**``--subnormal-bits``, 2**18 values at a time.  On the first mismatch it
prints the value's bit pattern and both texts and exits 1.
"""

import argparse
import sys
import time

import numpy as np

from equifair.floatrepr import float_reprs
from oracles import float_reprs_oracle

BLOCK = 1 << 18
EXP_MASK = np.uint64(0x7FF << 52)


def blocks(seed: int, n_random: int, subnormal_bits: int):
    rng = np.random.default_rng(seed)
    for lo in range(0, n_random, BLOCK):
        bits = rng.integers(0, 2**64, min(BLOCK, n_random - lo), dtype=np.uint64, endpoint=False)
        bits[bits & EXP_MASK == EXP_MASK] ^= np.uint64(1 << 62)  # a NaN or infinity becomes a value near 1
        yield "random", bits
    for lo in range(1, 1 << subnormal_bits, BLOCK):
        yield "subnormal", np.arange(lo, min(lo + BLOCK, 1 << subnormal_bits), dtype=np.uint64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--random", type=int, default=20_000_000)
    parser.add_argument("--subnormal-bits", type=int, default=22)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    checked = {"random": 0, "subnormal": 0}
    for kind, bits in blocks(args.seed, args.random, args.subnormal_bits):
        values = bits.view(np.float64)
        got, want = float_reprs(values), float_reprs_oracle(values)
        if got != want:
            i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
            print(f"mismatch ({kind}): bits 0x{int(bits[i]):016x}: float_reprs {got[i]!r}, float.__repr__ {want[i]!r}")
            return 1
        checked[kind] += len(bits)
    print(f"{checked['random']} random finite values (seed {args.seed}) and {checked['subnormal']} subnormals "
          f"equal float.__repr__ in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
