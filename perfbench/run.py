"""bianchisurf benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload census_cold --seed 1 --seconds 40 --trace 0

Each round is a fresh interpreter (worker.py) that imports the library from
src/, sends the workload's whole request list once with one client in a
closed loop.  The first round checks every answer; later rounds must repeat
its answers exactly.  Another round starts only if one more round as long
as the last still fits in --seconds, so a run measures whole rounds (at
least one).  With --trace 0 the last line holds the end-to-end metrics: the
median over rounds of wall time, of median and tail request latency and of
peak RSS, and the median set-up time over the rounds, topped up to five
samples with set-up-only interpreters.  Every time is given at the
reference speed (probe.py); the medians as measured are printed above the
last line.  With --trace 1 rounds run in pairs,
one untraced and one traced, and the last line holds the per-layer metrics
of the traced rounds; the tracing overhead is printed above it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import END_TO_END, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
# names only: this parent process never imports the library or numpy
WORKLOADS = ("census_cold", "dual_route", "constants")
MIN_SETUP_SAMPLES = 5
DEADLINE_S = 170


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run one worker interpreter to its end and return its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(rounds: list[dict], setups: list[float]) -> dict[str, float]:
    return {
        "wall_ref_s": statistics.median(r["wall_ref_s"] for r in rounds),
        "req_p50_ref_s": statistics.median(r["latency_ref"]["p50"] for r in rounds),
        "req_tail_ref_s": statistics.median(r["latency_ref"]["tail"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(setups),
    }


def as_measured(rounds: list[dict]) -> str:
    """The timing medians as measured, before scaling to the reference speed."""
    return (f"wall_s {statistics.median(r['wall_s'] for r in rounds):.4g}, "
            f"req_p50_s {statistics.median(r['latency']['p50'] for r in rounds):.4g}, "
            f"req_tail_s {statistics.median(r['latency']['tail'] for r in rounds):.4g}")


def per_layer(traced: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r["layers"][k] for r in traced) for k in LAYER_METRICS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bianchisurf" / "__init__.py").is_file():
        print(f"no bianchisurf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        check = "0" if plain else "1"
        plain.append(spawn(args, ["--trace", "0", "--check", check,
                                  "--tag", f"round{len(plain)}"], deadline))
        if args.trace:
            traced.append(spawn(args, ["--trace", "1", "--check", "0",
                                       "--tag", f"traced{len(traced)}"], deadline))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > args.seconds:
            break
    setups = [{k: r[k] for k in ("setup_s", "setup_ref_s")} for r in plain]
    while not args.trace and len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(args, ["--setup-only"], deadline))
    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    problems += [f"round {i} answered differently from round 0"
                 for i, r in enumerate(rounds) if r["digest"] != rounds[0]["digest"]]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    lat = plain[0]["latency"]
    tail = f"p{lat['tail_level']:g}" if lat["tail_level"] else "p50 (under 40 requests)"
    print(f"{args.workload} seed {args.seed}: {len(plain)} round(s) of {lat['n']} requests, "
          f"{len(setups)} set-up samples; tail = {tail} of {lat['n']} requests")
    print("probe ms (min/median/max) per round: "
          + ", ".join("/".join(f"{v:.2f}" for v in r["probe_ms"]) for r in rounds))
    print(f"as measured (medians over rounds): {as_measured(plain)}, "
          f"setup_s {statistics.median(s['setup_s'] for s in setups):.4g}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    if args.trace:
        metrics = per_layer(traced)
        units = LAYER_METRICS
        overhead = (statistics.median(r["wall_ref_s"] for r in traced)
                    - statistics.median(r["wall_ref_s"] for r in plain))
        print(f"tracing overhead: traced wall_ref_s - untraced wall_ref_s = {overhead:+.4f} s "
              f"({overhead / statistics.median(r['wall_ref_s'] for r in plain):+.1%})")
    else:
        metrics = end_to_end(plain, [s["setup_ref_s"] for s in setups])
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:36s} {value:.6g} {units[name]}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, rounds=rounds,
                  setups=setups)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
