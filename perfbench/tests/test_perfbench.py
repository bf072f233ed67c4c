"""The benchmark's own tests: tiny rounds of every workload through the real
checks, each check shown to reject a wrong answer, and the latency and span
arithmetic on hand-made data.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import dataclasses
import math
from fractions import Fraction

import pytest

import probe
import refmath
import spans
import stats
import worker
import workloads
from bianchisurf import census, hermitian, volume


@pytest.fixture(scope="module")
def tiny():
    """One traced tiny round per workload: (inputs, records, round result)."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inputs = wl.inputs(7, "tiny")
        res, records = worker.run_round(wl, inputs, probe.Probe(name), traced=True)
        out[name] = (inputs, records, res)
    return out


def _problems(tiny, name, edit):
    inputs, records, _ = tiny[name]
    records = copy.deepcopy(records)
    edit(records)
    return workloads.WORKLOADS[name].check(inputs, records)


# --- tiny rounds -----------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_round_passes_every_check(tiny, name):
    _, records, res = tiny[name]
    assert res["problems"] == []
    assert res["attempted"] == len(records) > 0
    assert set(res["layers"]) == set(stats.LAYER_METRICS)
    assert res["wall_s"] > 0 and res["peak_rss_mb"] > 0


def test_only_the_cli_default_constant_fails(tiny):
    _, records, res = tiny["constants"]
    failed = [r for r in records if r.failed]
    assert [(r.kind, r.args) for r in failed] == [("C", workloads.CLI_DEFAULT_C)]
    assert failed[0].error is None and failed[0].result.certified_digits < 12
    assert res["failed"] == 1


def test_traced_round_sees_every_layer_it_calls(tiny):
    census_layers = tiny["census_cold"][2]["layers"]
    assert census_layers["census.weight_array_builds"] >= 1
    assert 0 < census_layers["census.accepted"] <= census_layers["census.candidates"]
    assert census_layers["volume.compare_to_threshold_calls"] >= 1
    dual = tiny["dual_route"][2]["layers"]
    assert dual["quatorder.build_order_calls"] > 0
    assert dual["quatorder.reduced_discriminant_calls"] > dual["quatorder.build_order_calls"]
    assert dual["quatorder.bruteforce_calls"] > 0
    consts = tiny["constants"][2]["layers"]
    assert consts["ntkernel.primes"] > 0 and consts["census.constant_self_s"] > 0


def test_tracer_uninstall_restores_the_library():
    originals = {(m, a): getattr(__import__(m, fromlist=[a]), a) for _, m, a, _ in spans.WRAPPED}
    tracer = spans.Tracer()
    tracer.install()
    assert census.xi is not originals[("bianchisurf.census", "xi")]
    tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(__import__(m, fromlist=[a]), a) is fn
    assert census.compare_to_threshold is volume.compare_to_threshold


# --- each check rejects a wrong answer ---------------------------------------


def _first(records, kind, pred=lambda r: True):
    return next(r for r in records if r.kind == kind and pred(r))


def test_census_rejects_xi_off_by_one_divisor_class(tiny):
    def edit(records):
        rec = _first(records, "xi", lambda r: refmath.divisor_classes(r.args[0]) == 2)
        rec.result = rec.result // 2 * 3

    assert _problems(tiny, "census_cold", edit)

    def edit_prime(records):
        rec = _first(records, "xi", lambda r: refmath.divisor_classes(r.args[0]) == 1)
        rec.result *= 2

    assert _problems(tiny, "census_cold", edit_prime)


def test_census_rejects_a_decreasing_ladder(tiny):
    def edit(records):
        rec = _first(records, "ladder")
        rec.result = list(reversed(rec.result))

    assert any("decrease" in p for p in _problems(tiny, "census_cold", edit))


def test_census_recount_rejects_a_miscount(tiny, monkeypatch):
    inputs, records, _ = tiny["census_cold"]
    true_xi = census.xi
    monkeypatch.setattr(census, "xi", lambda d, X, jobs=1: true_xi(d, X, jobs=jobs) + refmath.divisor_classes(d))
    assert any(p.startswith("recount") for p in workloads.census_check(inputs, records))


def test_dual_route_rejects_wrong_local_data(tiny):
    def wrong_drd(records):
        _first(records, "circle").result["orders"][0]["drd"] += 1

    def wrong_symbol(records):
        rec = _first(records, "circle", lambda r: r.result["orders"][0]["local"])
        rec.result["orders"][0]["local"][0][2] = 7

    def wrong_area(records):
        rec = _first(records, "circle")
        rec.result["via_order"] = rec.result["via_order"] * 2

    def open_order(records):
        _first(records, "circle").result["orders"][-1]["defect"] = [(1, 2)]

    def short_listing(records):
        rec = _first(records, "list")
        rec.result = [r for r in rec.result if (r.m, r.c) != (rec.result[0].m, rec.result[0].c)]

    for edit in (wrong_drd, wrong_symbol, wrong_area, open_order, short_listing):
        assert _problems(tiny, "dual_route", edit), edit.__name__


def test_constants_reject_perturbed_values(tiny):
    def perturbed_C(records):
        rec = _first(records, "C", lambda r: not r.failed)
        res = rec.result  # off by ten times its own certificate
        rec.result = dataclasses.replace(res, value=res.value * (1 + 10 * res.tail_bound))

    def perturbed_L(records):
        rec = _first(records, "L")
        res = rec.result
        shift = 10 * (res.l_main_bound + res.l_census_bound) + 1e-3 * res.l_census_form
        rec.result = dataclasses.replace(res, l_census_form=res.l_census_form + shift)

    def residue_miscount(records):
        _first(records, "lemma", lambda r: r.args[1] > 1).result += 1

    def slope_off(records):
        rec = _first(records, "lemma", lambda r: r.args[1] == 1)
        rec.result = round(rec.result * 1.01)

    def second_shortfall(records):
        rec = _first(records, "C", lambda r: not r.failed)
        rec.failed = True

    for edit in (perturbed_C, perturbed_L, residue_miscount, slope_off, second_shortfall):
        assert _problems(tiny, "constants", edit), edit.__name__


# --- arithmetic ------------------------------------------------------------


def test_tail_level_leaves_ten_requests_beyond():
    assert stats.tail_level(39) is None
    assert stats.tail_level(40) == 75
    assert stats.tail_level(64) == 75
    assert stats.tail_level(100) == 90
    assert stats.tail_level(306) == 95
    assert stats.tail_level(1000) == 99
    assert stats.tail_level(10000) == 99.9


def test_nearest_rank_percentiles():
    values = list(range(40, 0, -1))
    assert stats.nearest_rank(values, 75) == 30
    assert stats.nearest_rank(values, 50) == 20
    summary = stats.latency_summary([float(v) for v in values])
    assert summary == {"p50": 20.5, "tail_level": 75, "tail": 30.0, "n": 40}
    short = stats.latency_summary([1.0, 2.0, 9.0])
    assert short["tail_level"] is None and short["tail"] == 2.0


def test_self_time_subtracts_what_children_cover():
    hand = [
        ["census.scan", 0.0, 10.0, -1],
        ["census.weight_array", 1.0, 4.0, 0],
        ["ntkernel.prime_blocks", 1.5, 3.5, 1],
        ["volume.compare_to_threshold", 6.0, 7.0, 0],
        ["census.scan", 11.0, 12.0, -1],
    ]
    assert spans.self_times(hand) == [6.0, 1.0, 2.0, 1.0, 1.0]
    assert spans.covered([(0, 2), (1, 3), (5, 6)]) == 4
    incl = spans.inclusive_times(hand)
    assert incl["census.scan"] == 11.0 and incl["census.weight_array"] == 3.0


def test_nested_same_name_spans_count_once():
    hand = [
        ["quatorder.bruteforce", 0.0, 5.0, -1],
        ["quatorder.bruteforce", 1.0, 2.0, 0],
    ]
    assert spans.inclusive_times(hand)["quatorder.bruteforce"] == 5.0
    assert spans.self_times(hand) == [4.0, 1.0]


def test_layer_metrics_from_a_hand_made_trace():
    tracer = spans.Tracer()
    tracer.spans = [
        ["census.scan", 0.0, 4.0, -1],
        ["census.weight_array", 0.5, 2.5, 0],
        ["ntkernel.prime_blocks", 1.0, 2.0, 1],
        ["census.count_F", 5.0, 6.0, -1],
    ]
    tracer.counts.update({"census.candidates": 200, "ntkernel.primes": 50,
                          "census.weight_array_builds": 1, "census.weight_array_bytes": 2**21})
    m = spans.layer_metrics(tracer, import_s=0.25, accepted=20)
    assert m["census.scan_self_s"] == 2.0
    assert m["census.weight_array_s"] == 2.0 and m["ntkernel.prime_blocks_s"] == 1.0
    assert m["census.accept_ratio"] == 0.1 and m["census.weight_array_mb"] == 2.0
    assert m["census.count_F_self_s"] == 1.0 and m["ntkernel.import_s"] == 0.25


def test_times_at_the_reference_speed_average_probe_speeds():
    p = probe.Probe("dual_route")
    ref = p.reference_s
    # a probe at its reference time reads speed 1; one twice as slow, 1/2
    assert p.at_reference_speed(3.0, [ref, ref]) == pytest.approx(3.0)
    assert p.at_reference_speed(3.0, [2 * ref, 2 * ref]) == pytest.approx(1.5)
    # speeds are averaged, not probe times: (1 + 1/2)/2, not 1/1.5
    assert p.at_reference_speed(4.0, [ref, 2 * ref]) == pytest.approx(3.0)
    got = p.at_reference([1.0, 2.0], [ref, 2 * ref, ref / 2])
    assert got == pytest.approx([0.75, 2.5])
    with pytest.raises(ValueError):
        p.at_reference([1.0, 2.0], [ref, ref])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_has_a_probe(name):
    p = probe.Probe(name)
    assert p() > 0 and p.reference_s > 0


# --- the benchmark's own arithmetic --------------------------------------------


def test_pi_bounds_bracket_pi():
    lo, hi = refmath.pi_bounds()
    assert lo < Fraction(math.pi) + Fraction(1, 10**15) and hi - lo < Fraction(1, 10**50)
    assert float(lo) == pytest.approx(math.pi, rel=1e-15)


def test_own_area_matches_the_closed_form():
    for d in (3, 15, 35, 195):
        for m in range(0, d, max(1, d // 7)):
            for k in range(5):
                c = (m * m - 1) // d - 3 * k
                assert refmath.area_q(d, m, c) == volume.area_closed_form(
                    hermitian.SurfaceIndex(d, m, c, 1)).q


def test_own_character_and_classes():
    assert [refmath.chi(3, p) for p in (2, 3, 5, 7, 13)] == [-1, 0, -1, 1, 1]
    assert [refmath.chi(4, p) for p in (2, 3, 5)] == [0, -1, 1]
    assert [refmath.divisor_classes(d) for d in (3, 15, 195)] == [1, 2, 4]
