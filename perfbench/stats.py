"""The metric tables, and latency summaries: the median and the highest
percentile that still has at least ten requests beyond it."""

from __future__ import annotations

import statistics

END_TO_END = {
    "wall_ref_s": "s",
    "req_p50_ref_s": "s",
    "req_tail_ref_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# every per-layer metric, in BENCHMARK.json order: name -> unit
LAYER_METRICS = {
    "ntkernel.import_s": "s",
    "ntkernel.prime_blocks_s": "s",
    "ntkernel.primes": "count",
    "classgroup.is_admissible_s": "s",
    "classgroup.is_admissible_calls": "count",
    "hermitian.pullback_circle_s": "s",
    "quatorder.build_order_s": "s",
    "quatorder.build_order_calls": "count",
    "quatorder.reduced_discriminant_s": "s",
    "quatorder.reduced_discriminant_calls": "count",
    "quatorder.bruteforce_s": "s",
    "quatorder.bruteforce_calls": "count",
    "quatorder.closure_defect_s": "s",
    "volume.area_closed_form_s": "s",
    "volume.area_closed_form_calls": "count",
    "volume.area_via_order_s": "s",
    "volume.compare_to_threshold_s": "s",
    "volume.compare_to_threshold_calls": "count",
    "census.weight_array_s": "s",
    "census.weight_array_builds": "count",
    "census.weight_array_mb": "MB",
    "census.scan_self_s": "s",
    "census.candidates": "count",
    "census.accepted": "count",
    "census.accept_ratio": "ratio",
    "census.enumerate_s": "s",
    "census.constant_self_s": "s",
    "census.count_F_self_s": "s",
}

_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_level(n: int) -> float | None:
    """Highest of p99.9, p99, p95, p90, p75 with at least ten of n samples
    beyond it (p75 at 40 samples, p90 at 100); None below 40 samples."""
    for p in _LEVELS:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def _rank(p: float, n: int) -> int:
    """ceil(p/100 * n) in integers (p has at most one decimal)."""
    return max(1, -(-round(p * 10) * n // 1000))


def nearest_rank(values: list[float], p: float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th smallest."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def latency_summary(seconds: list[float]) -> dict:
    """Median, tail level and tail value of one round's request latencies.
    Below 40 requests there is no tail, and the median stands in for it."""
    level = tail_level(len(seconds))
    return {
        "p50": statistics.median(seconds),
        "tail_level": level,
        "tail": nearest_rank(seconds, level) if level is not None else statistics.median(seconds),
        "n": len(seconds),
    }
