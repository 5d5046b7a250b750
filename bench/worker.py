"""Run one workload in this process and print its summary as one JSON line.

Started by ``run.py``; not meant to be run by hand.  Set-up is importing
the library plus generating the workload's inputs; its time is reported raw
and host-speed adjusted like the op times.  The timed phase repeats passes
over the workload's ops until ``--seconds`` have gone by, after one warm-up
op that is not timed.  Between ops it takes the reference readings
that ``hostspeed`` turns into host-speed-adjusted times.  With ``--trace 1``
the time is split: half untraced, then half with every layer function
wrapped by ``spans.install``, so the two halves give the tracing overhead
and must produce identical output digests.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def run_pass(ops_list, tracer, first_op_id, op_digest, speed):
    """One pass over the ops: per-op wall and CPU time, failures, digests."""
    spans, cpus, problems, digests = [], [], [], []
    for i, op in enumerate(ops_list):
        gc.collect()
        speed.tick()
        outputs, failure = None, None
        if tracer is not None:
            tracer.begin_op(first_op_id + i, op.tag)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            outputs = op.run()
        except Exception as exc:  # an op that raises counts as failed
            failure = f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.end_op()
        spans.append((t0, t1))
        cpus.append(c1 - c0)
        if failure is None:
            try:
                found, values = op.check(outputs)
            except Exception as exc:
                found, values = [f"check raised {type(exc).__name__}: {exc}"], []
            failure = "; ".join(found) or None
            digests.append(op_digest(values))
        else:
            digests.append("failed")
        if failure is not None:
            problems.append(f"{op.label}: {failure}")
        del outputs
    return {
        "wall_s": sum(t1 - t0 for t0, t1 in spans),
        "cpu_s": sum(cpus),
        "op_spans": spans,
        "op_cpu_s": cpus,
        "problems": problems,
        "op_digests": digests,
    }


def run_phase(ops_list, seconds, tracer, op_digest, speed):
    """Passes over the ops until ``seconds`` have gone by, and their summary.

    Raw times are medians over the passes.  The ``_adj`` times are built from
    host-speed-adjusted op times (see ``hostspeed``): a pass is the sum of
    each op's median, and ``op_p50_adj_ms`` the median over every op run."""
    passes, layers, coverage, last_spans = [], [], [], []
    start = time.perf_counter()
    while True:
        record = run_pass(ops_list, tracer, len(passes) * len(ops_list), op_digest,
                          speed)
        if tracer is not None:
            totals, last_spans, attributed = tracer.take_pass()
            layers.append(totals)
            coverage.append(attributed / record["wall_s"])
        passes.append(record)
        if time.perf_counter() - start >= seconds:
            break
    speed.tick(force=True)
    for p in passes:
        scales = [speed.scale(t0, t1) for t0, t1 in p["op_spans"]]
        p["op_s"] = [t1 - t0 for t0, t1 in p["op_spans"]]
        p["op_adj_s"] = [t * k for t, k in zip(p["op_s"], scales)]
        p["op_cpu_adj_s"] = [t * k for t, k in zip(p["op_cpu_s"], scales)]
    med = statistics.median
    count = len(ops_list)
    op_s = [t for p in passes for t in p["op_s"]]
    op_adj_s = [t for p in passes for t in p["op_adj_s"]]
    op_adj_med = [med(p["op_adj_s"][i] for p in passes) for i in range(count)]
    digests = {"|".join(p["op_digests"]) for p in passes}
    summary = {
        "passes": len(passes),
        "ops_per_pass": count,
        "wall_s": med([p["wall_s"] for p in passes]),
        "cpu_s": med([p["cpu_s"] for p in passes]),
        "op_p50_ms": med(op_s) * 1e3,
        "wall_adj_s": sum(op_adj_med),
        "cpu_adj_s": sum(med(p["op_cpu_adj_s"][i] for p in passes) for i in range(count)),
        "op_p50_adj_ms": med(op_adj_s) * 1e3,
        "op_p90_adj_ms": (
            statistics.quantiles(op_adj_s, n=10)[-1] * 1e3 if len(op_adj_s) >= 100
            else None
        ),
        "ref_ms": [med(speed.block_s) * 1e3, min(speed.block_s) * 1e3,
                   max(speed.block_s) * 1e3, len(speed.block_s)],
        "attempted": len(op_s),
        "failed": sum(len(p["problems"]) for p in passes),
        "problems": sorted({msg for p in passes for msg in p["problems"]})[:20],
        "digest_stable": len(digests) == 1,
        "op_digests": passes[0]["op_digests"],
        "labels": [op.label for op in ops_list],
        "op_adj_ms": [t * 1e3 for t in op_adj_med],
    }
    if tracer is not None:
        names = sorted({k for totals in layers for k in totals})
        summary["layers"] = {
            k: med(t.get(k, 0.0) for t in layers) for k in names
        }
        summary["coverage"] = med(coverage)
        summary["spans"] = last_spans
    return summary


def _src_lines(root: Path) -> dict:
    out, total = {}, 0
    for path in sorted((root / "src" / "infowalk").glob("*.py")):
        with open(path) as fh:
            count = sum(1 for _ in fh)
        total += count
        if not path.stem.startswith("_"):
            out[f"{path.stem}.src_lines"] = count
    out["infowalk.src_lines"] = total
    return out


def _write_trace(path: Path, summary: dict) -> None:
    """Spans of the last traced pass, one JSON object per line."""
    labels = summary["labels"]
    with open(path, "w") as fh:
        for op_id, span, parent, name, start, end in summary.pop("spans"):
            fh.write(json.dumps({
                "op": op_id, "op_label": labels[op_id % len(labels)],
                "span": span, "parent": parent, "name": name,
                "start_s": start, "dur_ms": (end - start) * 1e3,
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    speed = hostspeed.HostSpeed()
    speed.tick(force=True)
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import infowalk as iw
    import infowalk.cli  # noqa: F401  (the README examples run through it)

    if Path(iw.__file__).resolve().parent != src / "infowalk":
        print(f"imported infowalk from {iw.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ops
    import spans

    workdir = OUT_DIR / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    ops_list = ops.build(args.workload, args.seed, args.smoke, iw)
    setup_s = time.perf_counter() - t0
    speed.tick(force=True)
    setup = {"setup_s": setup_s, "setup_adj_s": setup_s * speed.scale(t0, t0 + setup_s)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    ops_list[0].run()  # warm-up, not timed
    gc.collect()
    gc.freeze()  # later collections scan only what the ops allocate

    result = dict(setup)
    half = args.seconds / 2.0 if args.trace else args.seconds
    result["untraced"] = run_phase(ops_list, half, None, ops.digest, speed)
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        traced = run_phase(ops_list, half, tracer, ops.digest, speed)
        trace_path = workdir / f"trace-seed{args.seed}.jsonl"
        _write_trace(trace_path, traced)
        traced["trace_file"] = str(trace_path.relative_to(ROOT))
        traced["layers"].update(_src_lines(ROOT))
        result["traced"] = traced
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
