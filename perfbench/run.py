"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

After an untimed warm-up (set-up plus the first fifth of a round's
operations), the run repeats *rounds* of the workload (set-up, then the
seeded operation sequence) until ``--seconds`` have passed and at least two
rounds are done, and times at least three set-ups.  Each round's runtime
is freed before the next set-up, so peak memory does not grow with the
number of rounds.  Every round of one seed must give the same answers and
virtual numbers; any difference, and any operation that raises, comes back
truncated or fails its output check, counts as failed.  The inputs of the
reference seed are regenerated on every run and must match
``digests.json``, whatever seed runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics of the first
traced round and the traced/untraced host-time ratio, and writes the spans
to ``perfbench/out/``.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Seed whose input digest every run re-checks against ``digests.json``.
REFERENCE_SEED = 0


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")


def warm_up(workload, seed: int) -> None:
    """Set up and run the first operations of a round, untimed and unchecked."""
    from perfbench.workloads import WARMUP_SHARE, Meter, WarmupDone

    state = workload.setup(seed)
    try:
        workload.run(state, Meter(limit=max(1, int(workload.ops_per_round * WARMUP_SHARE))))
    except WarmupDone:
        pass


def run_round(workload, seed: int, recorder=None):
    """Set up and run one round; returns (setup_s, meter, state).

    Callers drop ``state`` before the next round: it holds a whole runtime.
    """
    from perfbench.tracing import install
    from perfbench.workloads import Meter
    from repro.data.records import reset_uid_counter

    gc.collect()
    reset_uid_counter()
    start = perf_counter()
    state = workload.setup(seed)
    setup_s = perf_counter() - start
    meter = Meter(recorder)
    installation = install(recorder) if recorder is not None else None
    try:
        workload.run(state, meter)
    finally:
        if installation is not None:
            installation.uninstall()
    return setup_s, meter, state


def compare_rounds(reference, meter, reference_digest: str, digest: str) -> int:
    """Mark operations of a later round that differ from the first; returns failures."""
    if digest != reference_digest:
        for op in meter.ops:
            op.fail("input digest differs from the first round")
    if len(meter.ops) != len(reference):
        for op in meter.ops:
            op.fail("operation count differs from the first round")
        return len(meter.ops)
    for op, first in zip(meter.ops, reference):
        if op.outcome() != first.outcome():
            op.fail("answer or virtual numbers differ from the first round")
    return sum(bool(op.errors) for op in meter.ops)


def digest_mismatches(workload, seed: int, input_digest: str) -> list[str]:
    """Input digests that differ from ``digests.json``: the run's, if its seed
    is recorded, and always the reference seed's, regenerated here."""
    path = ROOT / "perfbench" / "digests.json"
    table = json.loads(path.read_text()).get(workload.name, {}) if path.is_file() else {}
    checks = [(REFERENCE_SEED, workload.inputs(REFERENCE_SEED)["input_digest"])]
    if str(seed) in table and seed != REFERENCE_SEED:
        checks.append((seed, input_digest))
    return [
        f"seed {s} input digest {got} != recorded {table.get(str(s))}"
        for s, got in checks if table.get(str(s)) != got
    ]


def outcome_digest(ops) -> str:
    """Digest of every operation's answer and virtual numbers in one round.

    Printed so that runs of one seed in separate processes can be compared.
    """
    from perfbench import inputs as gen

    return gen.digest([op.outcome() for op in ops])


def result_metrics(values: dict[str, float], kind: str) -> dict:
    """``values`` with their units from ``BENCHMARK.json``'s ``kind`` list.

    The names must be exactly those ``BENCHMARK.json`` lists.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in spec}
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         f"are not both computed and listed in BENCHMARK.json {kind}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def end_to_end(workload, seed: int, seconds: float) -> dict:
    from perfbench import stats
    from perfbench.workloads import MIN_ROUNDS, MIN_SETUPS, PROBE_NOMINAL_S

    tail_q = stats.tail_percentile(workload.ops_per_round * MIN_ROUNDS)
    warm_up(workload, seed)
    start = perf_counter()
    rounds = []  # (setup_s, meter, input digest)
    while len(rounds) < MIN_ROUNDS or perf_counter() - start < seconds:
        setup_s, meter, state = run_round(workload, seed)
        if not rounds:
            slo_rate = workload.slo_rate(state, meter.ops)
        rounds.append((setup_s, meter, state["input_digest"]))
        del state  # free this round's runtime before the next set-up
    setups = [s for s, _, _ in rounds]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        began = perf_counter()
        workload.setup(seed)
        setups.append(perf_counter() - began)
    _, first, input_digest = rounds[0]
    failed = 0
    for _, meter, digest in rounds:
        failed += compare_rounds(first.ops, meter, input_digest, digest)
    mismatches = digest_mismatches(workload, seed, input_digest)
    if mismatches:
        failed = sum(len(m.ops) for _, m, _ in rounds)
        print("\n".join(mismatches))
    ops = first.ops
    host = [op.host_s for _, meter, _ in rounds for op in meter.ops]
    scaled_host = [op.host_s / slow for _, meter, _ in rounds
                   for op, slow in zip(meter.ops, meter.slowdowns())]
    virtual = [op.virtual_s for op in ops]
    measured = sum(meter.measured_s for _, meter, _ in rounds)
    attempted = sum(len(meter.ops) for _, meter, _ in rounds)
    raw = {
        "setup_s": stats.median(setups),
        "queries_per_s": attempted / measured,
        "host_latency_p50_ms": stats.percentile(host, 50.0) * 1e3,
        "host_latency_tail_ms": stats.percentile(host, tail_q) * 1e3,
    }
    # Host metrics at the reference speed: divide times (multiply rates) by
    # how much slower than nominal the speed probe ran; per operation for
    # latencies, over the run for set-up and throughput.
    probes = [s for _, meter, _ in rounds for _, s in meter.probes]
    slowdown = stats.median(probes) / PROBE_NOMINAL_S
    metrics = {
        "setup_s": raw["setup_s"] / slowdown,
        "queries_per_s": raw["queries_per_s"] * slowdown,
        "host_latency_p50_ms": stats.percentile(scaled_host, 50.0) * 1e3,
        "host_latency_tail_ms": stats.percentile(scaled_host, tail_q) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "virtual_latency_p50_s": stats.percentile(virtual, 50.0),
        "virtual_latency_tail_s": stats.percentile(virtual, tail_q),
        "cost_per_query_usd": sum(op.cost_usd for op in ops) / len(ops),
        "answer_quality": sum(op.quality for op in ops) / len(ops),
        "slo_rate_qps": slo_rate,
    }
    print(f"workload={workload.name} seed={seed} rounds={len(rounds)} ops/round={len(ops)} "
          f"tail=p{tail_q:g} host_n={len(host)} virtual_n={len(virtual)} "
          f"input_digest={input_digest} outcome_digest={outcome_digest(ops)}")
    print(f"speed probe median {stats.median(probes) * 1e3:.3f} ms over {len(probes)} probes "
          f"(slowdown {slowdown:.3f}); unscaled host metrics {json.dumps(raw)}")
    for _, meter, _ in rounds:
        for index, op in enumerate(meter.ops):
            for error in op.errors:
                print(f"FAILED op {index} ({op.kind}): {error}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics(metrics, "end_to_end"),
    }


def traced(workload, seed: int, seconds: float) -> dict:
    import numpy as np

    from perfbench import stats
    from perfbench.tracing import Recorder, layer_report, per_layer_metrics

    warm_up(workload, seed)
    start = perf_counter()
    pairs = []  # (untraced meter, its digest, traced meter, its digest, traced/untraced)
    recorder = None  # the first traced round's, which the report describes
    while not pairs or perf_counter() - start < seconds:
        _, plain, state = run_round(workload, seed)
        plain_digest = state["input_digest"]
        del state
        round_recorder = Recorder()
        _, meter, state = run_round(workload, seed, round_recorder)
        pairs.append((plain, plain_digest, meter, state["input_digest"],
                      layer_report(round_recorder)["total_s"] / plain.measured_s))
        del state
        if recorder is None:
            recorder = round_recorder
    report = layer_report(recorder)
    ratio = stats.median([p[4] for p in pairs])
    metrics = per_layer_metrics(report, ratio)
    reference, reference_digest = pairs[0][0].ops, pairs[0][1]
    failed = 0
    for plain, plain_digest, meter, traced_digest, _ in pairs:
        failed += compare_rounds(reference, plain, reference_digest, plain_digest)
        failed += compare_rounds(reference, meter, reference_digest, traced_digest)
    mismatches = digest_mismatches(workload, seed, reference_digest)
    if mismatches:
        failed = sum(len(p[0].ops) + len(p[2].ops) for p in pairs)
        print("\n".join(mismatches))
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    stem = out / f"{workload.name}-seed{seed}"
    np.savez(f"{stem}-spans.npz", names=np.array(recorder.names), **report["arrays"])
    layers = report["layer_self_s"]
    summary = {
        "workload": workload.name,
        "seed": seed,
        "traced_s": report["total_s"],
        "untraced_s": pairs[0][0].measured_s,
        "layer_self_s": layers,
        "layer_share": {k: v / report["total_s"] for k, v in layers.items()},
        "self_sum_s": sum(layers.values()),
        "per_layer": metrics,
    }
    Path(f"{stem}-layers.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"workload={workload.name} seed={seed} traced {report['total_s']:.3f}s "
          f"untraced {summary['untraced_s']:.3f}s ratio {ratio:.2f} spans {report['spans']}")
    print(f"{'layer':<12} {'self_s':>9} {'share':>7}")
    for layer, value in layers.items():
        print(f"{layer:<12} {value:>9.3f} {value / report['total_s']:>7.1%}")
    print(f"{'sum':<12} {summary['self_sum_s']:>9.3f} (root spans {report['total_s']:.3f})")
    attempted = sum(len(p[0].ops) + len(p[2].ops) for p in pairs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics(metrics, "per_layer"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    run = traced if args.trace else end_to_end
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
