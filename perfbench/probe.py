"""The speed probe, and times given at the reference speed.

The machine's speed flips between a fast and a slow state within a second
and keeps a changing mix of the two over minutes: the same request takes up
to 1.7 times as long in the slow state.  So the client runs a short fixed
probe before the first request and after every request, and each request's
time is also given at the reference speed: the time measured, times the mean
of the speeds the two probes around it read.  A probe reads speed
reference time / time taken, so speed 1 is a probe that took its reference
time.  Speeds, not probe times, are averaged: work done is time multiplied
by the mean speed over that time, so a long request through which the state
flips is scaled without bias.  On a machine whose probe always takes its
reference time these are plain wall seconds.

A probe is made of parts, each a kind of work the library does.  Kinds of
work slow by different amounts in the slow state, so each workload's probe
is made of the kinds that dominate it: Fraction arithmetic and numpy calls
on short strided slices for census_cold and dual_route, Fraction arithmetic
and strided writes over a large array (as in the prime sieve) for constants.
The probe only ever runs the benchmark's own code, so a change to the
library moves the measured times and not the probe.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def _fraction(_state) -> None:
    s = Fraction(0)
    for k in range(1, 300):
        s += Fraction(1, k * k + 1)


def _slices(arr) -> None:
    for p in range(1000, 2000):
        arr[p::p] *= 1.0


def _sieve(arr) -> None:
    for p in range(3001, 3061, 2):
        arr[p::p] = False


# part -> (work, state it needs, its time at the reference speed).  The
# reference times only fix the unit: they are near what each part took in
# the fast state of the machine described in README.md (5th percentile of
# 5500 runs: 1.13, 1.16 and 1.75 ms).
PARTS = {
    "fraction": (_fraction, lambda: None, 0.0011),
    "slices": (_slices, lambda: np.ones(1 << 16), 0.0011),
    "sieve": (_sieve, lambda: np.ones(1 << 23, dtype=bool), 0.0017),
}

WORKLOAD_PARTS = {
    "census_cold": ("fraction", "slices"),
    "dual_route": ("fraction", "slices"),
    "constants": ("fraction", "sieve"),
}


class Probe:
    """A workload's probe: calling it runs every part once and returns the
    seconds taken; `reference_s` is the time it takes at speed 1."""

    def __init__(self, workload: str) -> None:
        parts = [PARTS[name] for name in WORKLOAD_PARTS[workload]]
        self.reference_s = sum(ref for _, _, ref in parts)
        self._runs = [(work, make_state()) for work, make_state, _ in parts]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for work, state in self._runs:
            work(state)
        return time.perf_counter() - t0

    def at_reference_speed(self, seconds: float, probes: list[float]) -> float:
        """seconds times the mean of the speeds the probes read."""
        return seconds * sum(self.reference_s / p for p in probes) / len(probes)

    def at_reference(self, seconds: list[float], probes: list[float]) -> list[float]:
        """Request i ran between probes i and i + 1: its time at the
        reference speed is seconds[i] times the mean speed of those two."""
        if len(probes) != len(seconds) + 1:
            raise ValueError(f"{len(seconds)} requests need {len(seconds) + 1} probes, not {len(probes)}")
        return [self.at_reference_speed(s, pair) for s, pair in zip(seconds, zip(probes, probes[1:]))]
