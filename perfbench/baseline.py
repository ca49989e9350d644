#!/usr/bin/env python3
"""Measures the ledger's baseline and writes perfbench/baseline.json.

Run from the repository root:

    python3 perfbench/baseline.py

For every workload of BENCHMARK.json it runs `perfbench/run.py --trace 0`
once per seed 1-10 and `--trace 1` once (seed 1), then records each end-to-end metric's median
and quartiles, its spread (interquartile range over median) next to its
bound, the per-layer table of the traced run, each workload's rationale and
the box fingerprint. Exits 1 when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import ledger  # noqa: E402  (after the bytecode switch)

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in result["metrics"].items()}, took


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    report = {}
    for w in spec["workloads"]:
        name, values, took = w["name"], {}, []
        for seed in SEEDS:
            metrics, seconds = run_once(name, seed, spec["run_seconds"], 0)
            took.append(seconds)
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
        per_layer, traced_s = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        end_to_end = {}
        for k, vs in values.items():
            q1, q2, q3 = ledger.quartiles(vs)
            spread = ledger.iqr_share(vs)
            end_to_end[k] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[k], "values": vs}
            within = spread <= bounds[k]
            ok = ok and within
            print(f"{name:15s} {k:12s} median {q2:12.4f}  spread {spread:.4f}  "
                  f"bound {bounds[k]}{'' if within else '  OVER BOUND'}", flush=True)
        report[name] = {
            "why": w["why"],
            "runs": len(SEEDS),
            "seconds_per_run": {"median": ledger.median(took), "max": max(took),
                                "traced": traced_s},
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }

    baseline = {
        "manifest": ledger.fingerprint(os.getcwd()),
        "run_seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "workloads": report,
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
