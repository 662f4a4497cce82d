#!/usr/bin/env python3
"""Print the bart-base footprint table: size and ratio per bit-width/depth.

Pure arithmetic over the named architecture; no model is instantiated and
nothing is trained. Run from a dqseq checkout's root; the package is
imported from its ``src/``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from dqseq.metrics import bart_base_param_specs, footprint  # noqa: E402
from dqseq.quantizer import QuantConfig  # noqa: E402

ROWS = [
    ((32, 32, 32), 6, 6),
    ((8, 8, 8), 6, 6),
    ((2, 2, 8), 6, 6),
    ((2, 2, 8), 6, 3),
    ((2, 2, 8), 6, 1),
    ((2, 2, 8), 3, 1),
    ((2, 2, 8), 1, 1),
]


def main() -> int:
    baseline = bart_base_param_specs()
    print(f"{'config':>14} {'size':>12} {'ratio':>8}")
    for bits, enc, dec in ROWS:
        fp = footprint(bart_base_param_specs(enc, dec), QuantConfig(*bits),
                       baseline=baseline)
        label = f"{QuantConfig(*bits).label} {enc}-{dec}"
        print(f"{label:>14} {fp.size_mib:9.2f} MiB {fp.ratio:7.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
