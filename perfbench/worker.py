"""One fresh interpreter of a benchmark run: set up, time, check.

Started by run.py.  Imports bicheb from the checkout's ``src`` (and
refuses any other copy), builds the workload's pool of inputs from the
seed, warms up, then makes passes over the pool, one operation after
another (a closed loop with one client), in a fresh seeded order each
pass: one whole pass, then more until the operations have taken
``--seconds`` in total.

Every time is scaled to a nominal machine speed by gauge.py, whose
reference computation runs between operations, outside their timings.
Latencies are per input: the median of its passes.

Outputs are checked after the loop, outside every timed region: each
input's first output by the checker, every repeat by comparing its
output digest with the first.  An input is one attempted operation, and
failed when any of its passes failed a check, so `attempted` and
`failed` depend on the seed and the program, not on the machine's
speed.  With ``--trace 1`` the layer wrappers record spans during the
loop; the same operations are then replayed untraced to measure the
tracing overhead.  The last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import gauge as gauging
import metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"


def import_bicheb() -> None:
    sys.path.insert(0, str(SRC))
    import bicheb

    if not Path(bicheb.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bicheb resolved to {bicheb.__file__}, not under {SRC}")


def run_loop(pool, seconds: float, seed: int, gauge, tracer=None):
    """One whole pass over the pool, then more until the operations have
    taken `seconds`; the last pass may stop part way.

    Returns (op, start, latency, failure tag or None) records, the first
    output of each input, and the number of passes (operations run /
    pool size, so a part pass counts in part).
    """
    rng = random.Random(seed)
    records = []
    first: dict[str, tuple] = {}
    busy = 0.0
    while busy < seconds:
        order = list(pool)
        rng.shuffle(order)
        for op in order:
            if busy >= seconds and len(records) >= len(pool):
                break
            gauge.maybe_read()
            ctx = tracer.span("op") if tracer else contextlib.nullcontext()
            if tracer:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                with ctx:
                    out = op.run()
                tag = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, tag = None, "raised"
                print(f"perfbench: {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            dt = time.perf_counter() - t0
            if tracer:
                tracer.active = False
            busy += dt
            if tag is None:
                digest = op.digest(out)
                seen = first.setdefault(op.key, (op, digest, out))
                if seen[1] != digest:
                    tag = "nondeterministic"
            records.append((op, t0, dt, tag))
    return records, first, len(records) / len(pool)


def check_outputs(records, first):
    """Failed-check tags per input; checker crashes make the run incorrect."""
    verdicts = {}
    checker_ok = True
    for key, (op, _digest, out) in first.items():
        try:
            verdicts[key] = op.check(out)
        except Exception as exc:  # an output the checker cannot read is unverified
            checker_ok = False
            verdicts[key] = ["unverified"]
            print(f"perfbench: checker failed on {key}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    tags = {op.key: set() for op, _t0, _dt, _tag in records}
    for key, fails in verdicts.items():
        tags[key].update(fails)
    for op, _t0, _dt, tag in records:
        if tag:
            tags[op.key].add(tag)
    return tags, checker_ok


def summarize_failures(pool, tags) -> None:
    by_kind: dict[str, Counter] = {}
    for op in pool:
        if tags[op.key]:
            by_kind.setdefault(op.kind, Counter()).update(tags[op.key])
    for kind in sorted(by_kind):
        detail = ", ".join(f"{t} x{c}" for t, c in sorted(by_kind[kind].items()))
        print(f"perfbench: failed ops on {kind}: {detail}", file=sys.stderr)


def end_to_end(records, tags, passes: float, gauge, peak_rss_mb: float) -> dict:
    gauged: dict[str, list[float]] = {}
    for op, t0, dt, _tag in records:
        gauged.setdefault(op.key, []).append(dt * gauge.scale(t0, t0 + dt))
    per_input = [statistics.median(dts) for dts in gauged.values()]
    lat_ms = [dt * 1000 for dt in per_input]
    n = len(lat_ms)
    pct = metrics.tail_percentile(n)
    print(
        f"perfbench: {len(records)} ops, {passes:.2f} passes over {n} inputs; "
        f"latency_tail_ms is p{pct:g} of the {n} per-input median latencies "
        f"({n * (100 - pct) / 100:g} beyond it); median of {len(gauge.readings)} gauge "
        f"readings {statistics.median(s for _m, s in gauge.readings) * 1000:.2f} ms "
        f"(nominal {gauging.NOMINAL_S * 1000:g} ms)",
        file=sys.stderr,
    )
    return {
        "ops_per_s": n / sum(per_input),
        "latency_p50_ms": metrics.percentile(lat_ms, 50),
        "latency_tail_ms": metrics.percentile(lat_ms, pct),
        "ok_ratio": sum(1 for t in tags.values() if not t) / len(tags),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, records, tags, passes: float, overhead: float, cache, setup) -> dict:
    stats = tracer.span_stats()
    counts = tracer.counts
    per_pass = 1 / passes
    out = {}
    for name, unit in metrics.PER_LAYER.items():
        base, _, field = name.rpartition(".")
        if unit == metrics.PER_PASS and base in stats:
            out[name] = stats[base][field] * per_pass
        elif field == "calls" and base in stats:
            out[name] = stats[base]["calls"] * per_pass
        elif unit == metrics.CALLS:
            out[name] = counts.get(name, 0) * per_pass
        elif unit in ("degree", "bits"):
            out[name] = counts.get(name, 0)
        else:
            out[name] = 0.0
    roots_out = counts.get("roots.real_roots.roots_out", 0)
    out["roots.real_roots.exact_ratio"] = (
        counts.get("roots.real_roots.exact_out", 0) / roots_out if roots_out else 0.0
    )
    out["bipartite.fk_table.hits"] = cache[0] * per_pass
    out["bipartite.fk_table.misses"] = cache[1] * per_pass
    layer_self = Counter()
    for name, st in stats.items():
        layer = name.split(".")[0]
        layer_self[layer if layer in metrics.LAYERS else "harness"] += st["self_s"]
    for layer in metrics.LAYERS + ("harness",):
        out[f"layer.{layer}.self_s"] = layer_self[layer] * per_pass
    op_s = sum(dt for _op, _t0, dt, _tag in records)
    out["layer.roots.share"] = layer_self["roots"] / op_s
    out.update({f"setup.{k}": setup[k] for k in ("import_s", "inputs_s", "warmup_s")})
    failed = Counter(t for fails in tags.values() for t in fails)
    for tag in metrics.CHECK_TAGS:
        out[f"check.{tag}"] = failed[tag] / len(tags)
    out["trace.passes"] = passes
    out["trace.spans"] = len(tracer.spans) * per_pass
    out["trace.overhead_ratio"] = overhead
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    try:
        import_bicheb()
    except ImportError as exc:
        print(f"perfbench: cannot import bicheb from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup = {"import_s": time.perf_counter() - t}
    import workloads

    t = time.perf_counter()
    pool = workloads.WORKLOADS[args.workload](args.seed)
    setup["inputs_s"] = time.perf_counter() - t
    t = time.perf_counter()
    workloads.warm_up(args.workload)
    setup["warmup_s"] = time.perf_counter() - t
    setup["setup_s"] = time.monotonic() - args.t0
    gauge = gauging.Gauge()
    for _ in range(gauging.MIN_READINGS):
        gauge.read()
    now = time.perf_counter()
    setup = {k: v * gauge.scale(now, now) for k, v in setup.items()}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        fk_table = sys.modules["bicheb.bipartite"].fk_table
        cache0 = fk_table.cache_info()
        tracer = tracing.Tracer()
        tracer.install()
    records, first, passes = run_loop(pool, args.seconds, args.seed, gauge, tracer)
    # before the checks, so the checker's memory is not counted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        cache1 = fk_table.cache_info()
        tracer.uninstall()
        replay = []
        for op, _t0, _dt, _tag in records:
            gauge.maybe_read()
            t = time.perf_counter()
            with contextlib.suppress(Exception):
                op.run()
            replay.append((t, time.perf_counter() - t))
        gauge.read()
        traced_s = sum(dt * gauge.scale(t0, t0 + dt) for _op, t0, dt, _tag in records)
        overhead = traced_s / sum(dt * gauge.scale(t, t + dt) for t, dt in replay) - 1
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"trace-{args.workload}-{args.seed}.json")
    tags, checker_ok = check_outputs(records, first)
    summarize_failures(pool, tags)
    if tracer:
        cache = (cache1.hits - cache0.hits, cache1.misses - cache0.misses)
        values = per_layer(tracer, records, tags, passes, overhead, cache, setup)
    else:
        values = end_to_end(records, tags, passes, gauge, peak_rss_mb)
    print(json.dumps({
        "setup": setup,
        "attempted": len(tags),
        "failed": sum(1 for t in tags.values() if t),
        "correct": checker_ok,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
