"""One round of a workload in a fresh interpreter.

A round imports bianchisurf from the checkout's src/, builds the workload's
inputs from the seed, sends every request once in a closed loop with one
client (jobs=1, nothing warm from an earlier round), checks the answers and
prints one JSON line for run.py.  Set-up time runs from the moment run.py
spawned this process (--spawned-at, on the shared monotonic clock) to the
moment the first request could be sent, less the two probe runs at its
start; those and two more at its end give it at the reference speed
(probe.py), like every request.

    python3 perfbench/worker.py --workload dual_route --seed 1 --trace 0 \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import probe
import spans
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def digest(records) -> str:
    """A fingerprint of every answer, for comparing rounds of one run."""
    text = repr([(r.kind, r.args, r.result, r.failed, r.error) for r in records])
    return hashlib.sha256(text.encode()).hexdigest()


def run_round(workload, inputs, speed_probe, traced: bool, check: bool = True,
              import_s: float = 0.0, spans_path=None):
    """Send every request of the workload, each followed by a run of the
    speed probe, then check the answers (unless check is False: a later
    round of a run only has to repeat the first round's answers, which
    run.py compares by digest).  Returns the round's summary and the request
    records."""
    import workloads  # imports bianchisurf, so only once the path is set

    tracer = spans.Tracer() if traced else None
    client = workloads.Client(time.perf_counter, speed_probe)
    if tracer is not None:
        tracer.install()
    try:
        workload.run(inputs, client)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = client.records
    seconds = [r.seconds for r in records]
    at_ref = speed_probe.at_reference(seconds, client.probes)
    problems = workload.check(inputs, records) if check else []
    problems += [f"{r.kind} {r.args}: {r.error}" for r in records if r.error is not None]
    probe_ms = sorted(p * 1000 for p in client.probes)
    out = {
        "wall_s": sum(seconds),
        "wall_ref_s": sum(at_ref),
        "latency": stats.latency_summary(seconds),
        "latency_ref": stats.latency_summary(at_ref),
        "peak_rss_mb": rss_mb,
        "probe_ms": [probe_ms[0], stats.nearest_rank(probe_ms, 50), probe_ms[-1]],
        "request_s": seconds,
        "probe_s": client.probes,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "problems": problems,
        "digest": digest(records),
        "layers": None,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer, import_s, workloads.accepted(records))
        if spans_path is not None:
            tracer.dump(spans_path)
    return out, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--tag", default="round")
    args = ap.parse_args(argv)
    speed_probe = probe.Probe(args.workload)
    early = [speed_probe() for _ in range(2)]

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import_timer = None
    if args.trace:
        import_timer = spans.ImportTimer("bianchisurf.ntkernel")
        sys.meta_path.insert(0, import_timer)
    import bianchisurf

    if Path(bianchisurf.__file__).resolve().parent != src / "bianchisurf":
        print(f"bianchisurf imported from {bianchisurf.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, "full")
    setup_s = time.monotonic() - args.spawned_at - sum(early)
    # probes near both ends of set-up give it at the reference speed
    setup_ref_s = speed_probe.at_reference_speed(setup_s, early + [speed_probe() for _ in range(2)])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-{args.tag}-spans.jsonl"
    result, _ = run_round(workload, inputs, speed_probe, bool(args.trace), bool(args.check),
                          import_timer.seconds if import_timer else 0.0, spans_path)
    result["setup_s"] = setup_s
    result["setup_ref_s"] = setup_ref_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
