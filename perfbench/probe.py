"""Reference load that measures the host's current speed.

    python3 perfbench/probe.py

A fixed piece of pure-Python work that does not use ptstack: the product of
PROBE_LAYERS freshly built 2x2 complex matrices, renormalised after every
step, which is the kind of work ``compose_stack`` does.  ``run.py`` times
this script as a fresh process right before and after every measured CLI
process, because on a shared virtual machine the speed of a fresh process
swings by up to 2x over seconds to minutes while a long-lived process hardly
notices.  The program under test never runs this code, so a change to
ptstack cannot move the probe.

Exits 0 when the product is the known value, 1 otherwise.
"""

from __future__ import annotations

import sys

PROBE_LAYERS = 60_000
EXPECTED_M11 = complex(0.0014442276657380077, -0.000985711643998486)


def main() -> int:
    acc = (1 + 0j, 0j, 0j, 1 + 0j)
    layers = [
        (complex(1.0, i * 1e-6), complex(0.0, 1e-3), complex(0.0, -1e-3), complex(1.0, -i * 1e-6))
        for i in range(PROBE_LAYERS)
    ]
    for a, b, c, d in layers:
        p, q, r, s = acc
        acc = (p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d)
        norm = abs(acc[0]) + 1.0
        acc = (acc[0] / norm, acc[1] / norm, acc[2] / norm, acc[3] / norm)
    return 0 if abs(acc[0] - EXPECTED_M11) < 1e-12 else 1


if __name__ == "__main__":
    sys.exit(main())
