"""infowalk benchmark: time to an audited number, and the memory it takes.

Usage, from the root of a checkout:

    python3 bench/run.py --workload buzzer-audit --seed 1 --seconds 30 --trace 0

Each run starts fresh single-threaded processes: a few that only set up
(import plus input generation) to measure ``setup_s``, then one that runs
the workload (see ``worker.py``).  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Lines before it are a
human-readable report.  ``--smoke`` runs tiny sizes for the tests.

Exits 2 without a result when the checkout holds no ``src/infowalk``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
DEADLINE_S = 170.0  # a run must end within 180 s


def _worker(args, extra, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra + (["--smoke"] if args.smoke else [])
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(result, setup_s):
    run = result["untraced"]
    return {
        "setup_s": setup_s,
        "wall_adj_s": run["wall_adj_s"],
        "cpu_adj_s": run["cpu_adj_s"],
        "op_p50_adj_ms": run["op_p50_adj_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_rate": 1.0 - run["failed"] / run["attempted"],
    }


def _per_layer(result):
    plain, traced = result["untraced"], result["traced"]
    layers = dict(traced["layers"])
    valid = layers.get("optimize.xor_floor_search.valid", 0.0)
    sampled = layers.get("optimize.xor_floor_search.sampled", 0.0)
    layers["optimize.xor_floor_search.valid_ratio"] = valid / sampled if sampled else 0.0
    layers["ops.error_rate"] = traced["failed"] / traced["attempted"]
    layers["trace.coverage"] = traced["coverage"]
    layers["trace.wall_adj_s"] = traced["wall_adj_s"]
    layers["trace.untraced_wall_adj_s"] = plain["wall_adj_s"]
    layers["trace.overhead_adj_s"] = traced["wall_adj_s"] - plain["wall_adj_s"]
    return layers


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "infowalk" / "__init__.py").is_file():
        print(f"no src/infowalk under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2

    try:
        setups = [
            _worker(args, ["--setup-only"], 60.0)
            for _ in range(2 if args.smoke else SETUP_RUNS)
        ]
        left = DEADLINE_S - (time.perf_counter() - started)
        result = _worker(args, ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], left)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result)
    setup_s = statistics.median(s["setup_adj_s"] for s in setups)
    setup_raw_s = statistics.median(s["setup_s"] for s in setups)

    plain = result["untraced"]
    runs = [plain] + ([result["traced"]] if args.trace else [])
    digests_agree = len({"|".join(r["op_digests"]) for r in runs}) == 1
    correct = (
        all(r["failed"] == 0 and r["digest_stable"] for r in runs) and digests_agree
    )
    if args.trace:
        values = _per_layer(result)
        wanted = spec["per_layer"]
        missing = 0.0  # a layer this workload never calls did no work
    else:
        values = _end_to_end(result, setup_s)
        wanted = spec["end_to_end"]
        missing = None
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], missing)
        if value is None:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    chosen = runs[-1]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    print(f"  {chosen['passes']} passes of {chosen['ops_per_pass']} ops, "
          f"{attempted} ops timed in all, {failed} failed")
    print(f"  raw set-up {setup_raw_s:.4f} s, median of {len(setups)} processes")
    print(f"  raw, untraced: wall_s {plain['wall_s']:.4f} s, cpu_s "
          f"{plain['cpu_s']:.4f} s, op_p50_ms {plain['op_p50_ms']:.4f} ms")
    ref_med, ref_min, ref_max, readings = plain["ref_ms"]
    print(f"  reference block {ref_med:.3f} ms median, {ref_min:.3f} to "
          f"{ref_max:.3f} ms over {readings} readings")
    if plain["op_p90_adj_ms"] is not None:
        print(f"  op_p90_adj_ms {plain['op_p90_adj_ms']:.4f} ms (untraced, "
              f"{plain['attempted']} ops)")
    for label, ms in zip(chosen["labels"], chosen["op_adj_ms"]):
        print(f"  op {label}: {ms:.3f} ms adjusted median")
    for problem in sorted({p for r in runs for p in r["problems"]}):
        print(f"  FAILED {problem}")
    if not digests_agree:
        print("  FAILED traced and untraced output digests differ")
    if not all(r["digest_stable"] for r in runs):
        print("  FAILED output digests changed from pass to pass")
    pass_digest = hashlib.sha256("|".join(plain["op_digests"]).encode()).hexdigest()
    print(f"  pass digest {pass_digest}")
    if args.trace:
        print(f"  trace file {result['traced']['trace_file']}")
        if values["trace.coverage"] < 0.9:
            print(f"  note: spans cover only {values['trace.coverage']:.1%} "
                  "of the traced op time")
    for name, m in metrics.items():
        print(f"  {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
