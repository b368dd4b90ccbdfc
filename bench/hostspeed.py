"""Host-speed sampling, so that timings measure the program, not the host.

    python3 bench/hostspeed.py OUT ARGV...

runs the curvelattice CLI with ARGV under a sampler and writes the kernel
durations to OUT: cli-batch's operation, sampled in the process that does
its work.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2x within seconds to minutes as neighbours load it (CPU time equals
wall time throughout, so the process is not waiting: each instruction is
slower).  A median over one run cannot average that away when one
operation lasts ten seconds.

A SpeedSampler interrupts its process every PERIOD_S of wall time (SIGALRM)
and times a fixed stdlib-only kernel in the handler.  Samples are uniform
in time, so the mean of K_REF_S / kernel_time is the host's mean speed over
an interval, relative to a reference host on which the kernel takes K_REF_S.
`scale(wall, since)` takes a wall time, subtracts the kernel time spent
inside it, and multiplies by the mean speed of the samples taken since
`since`: the result is seconds on the reference host.

Interpreted code (dicts of monomials, Fractions) and big-int arithmetic
slow down by different factors when the host does.  Scaled by a
dict-product kernel, the times of a repeated nine-cusp solve (mostly
interpreted) spread 3% (interquartile range over median), scaled by a
big-int kernel 11%; a repeated cusp-scheme-deg12 solve (mostly big ints)
the other way round, 11% and 4%.  The kernel holds both halves, which kept
both within 7%, against a raw spread of about 20%.  Averaging
speeds, not durations, bounds what one sample stretched by a garbage
collection can do to the mean.

The kernel and K_REF_S are part of the benchmark, never of the program:
a change to src/ cannot move them, and runs of two commits are scaled
by the same reference.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from fractions import Fraction

PERIOD_S = 0.05
# median kernel time on a shared 2-vCPU x86-64 host, CPython 3.11
K_REF_S = 0.0006

# two small bivariate polynomials, {(i, j): coefficient}, one with rational
# coefficients: a miniature of the program's own dict-of-monomials products
_P = {(i, j): (i * 31 + j * 17) % 97 - 48 for i in range(4) for j in range(3)}
_Q = {(i, j): (i * 13 + j * 7) % 89 - 44 for i in range(3) for j in range(3)}
_R = {(i, 0): Fraction(2 * i - 3, 1 + i) for i in range(4)}
# big-int arithmetic modulo a 2203-bit prime, as in resultants and ranks
_MOD = (1 << 2203) - 1
_MULT = 0x9E3779B97F4A7C15F39CC0605CEDC834


def _mul(a, b):
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


def kernel():
    """Fixed work, about half interpreted dict, tuple and Fraction traffic
    and half big-int arithmetic."""
    x = _MULT
    for i in range(100):
        x = (x * _MULT + i) % _MOD
    return _mul(_mul(_P, _Q), _Q), _mul(_R, _Q), x


class SpeedSampler:
    def __init__(self):
        self.durations = []  # kernel wall seconds, in sampling order

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame):
        t = time.perf_counter()
        kernel()
        self.durations.append(time.perf_counter() - t)

    def mark(self):
        return len(self.durations)

    def speed(self, since=0):
        """Mean host speed, relative to the reference host, of the samples
        taken since mark() returned `since`; an interval too short to hold
        a sample uses every sample so far (1.0 before the first)."""
        basis = self.durations[since:] or self.durations
        return sum(K_REF_S / d for d in basis) / len(basis) if basis else 1.0

    def scale(self, wall_s, since):
        """(reference seconds, net wall seconds) of an interval that began
        when mark() returned `since` and lasted wall_s, kernels included."""
        net = wall_s - sum(self.durations[since:])
        return net * self.speed(since), net


def _run_cli(out_path, argv):
    sampler = SpeedSampler()
    sampler.start()
    try:
        from curvelattice.cli import main

        sys.argv = ["curvelattice", *argv]
        main()
    finally:
        sampler.stop()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(sampler.durations, fh)


if __name__ == "__main__":
    _run_cli(sys.argv[1], sys.argv[2:])
