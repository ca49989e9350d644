#!/usr/bin/env python3
"""Horizon performance ledger: times the release `repro` binary end to end.

Run from the repository root:

    python3 perfbench/run.py --workload full_cold --seed 1 --seconds 10 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  full_cold       `repro all --jobs 2`, paper scale, no cache, no trace store
  quick_cold      `repro all --quick --jobs 2`
  serve_warm      `repro serve --jobs 2` with a warm memo; 2 keep-alive
                  connections, closed loop, POST /run/{id}?format=text over
                  the 18 experiments in a seed-shuffled order per sweep
  sampled_replay  `repro all --jobs 2 --sampling simpoint --trace-store D`
                  replaying a store written by an exact run during set-up

Every output is compared byte for byte with its reference; a mismatch or a
failed operation makes the command exit 1. The last stdout line is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
`--trace 0`, the per-layer metrics of an in-process traced run (the
`perfbench/tracer` package) with `--trace 1`. Every record, with its box
fingerprint, is appended to `<CARGO_TARGET_DIR>/perfbench/ledger.jsonl`.
"""

import argparse
import collections
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
import ledger  # noqa: E402  (after the bytecode switch)

JOBS = "2"
CONNECTIONS = 2
# Per-process ceiling; the whole command must end within 180 s.
PROCESS_TIMEOUT_S = 120.0
# Repetitions of a cheap set-up, whose median is reported.
SETUP_REPEATS = 3
# Request orders handed to the traced serve run (it cycles past the end).
TRACED_SWEEPS = 256
# serve_warm sweeps on past `--seconds` until at least `ledger.MIN_TAIL`
# requests lie beyond p90, but never past this many seconds.
MAX_TIMED_S = 90.0

GOLDEN = "repro_output.txt"
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
TRACER_MANIFEST = os.path.join("perfbench", "tracer", "Cargo.toml")


class BenchError(Exception):
    """A failure that makes the run exit non-zero without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def read_text(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


# ---------------------------------------------------------------- build --


def cargo_build(manifest, *extra):
    argv = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
    log("perfbench: " + " ".join(argv))
    # Cargo's progress goes to stderr; its stdout must not reach ours.
    if subprocess.run(argv, stdout=sys.stderr).returncode != 0:
        raise BenchError(f"build failed: {' '.join(argv)}")


def binary(target, name):
    path = os.path.join(target, "release", name)
    if not os.access(path, os.X_OK):
        raise BenchError(f"missing binary {path}")
    return path


# ------------------------------------------------------------ processes --


def run_repro(ctx, argv, expected, tag):
    """Runs `repro argv` to completion. Returns (seconds, peak RSS in MiB,
    output matches `expected`)."""
    out_path = os.path.join(ctx.work, f"{tag}.out")
    err_path = os.path.join(ctx.work, f"{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([ctx.repro, *argv], stdout=out, stderr=err, cwd=ctx.work)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        ok = proc.returncode == 0 and f.read() == expected
    if not ok:
        log(f"perfbench: `repro {' '.join(argv)}` exited {proc.returncode} "
            f"or differs from its reference (stdout {out_path})")
    return seconds, usage.ru_maxrss / 1024.0, ok


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status", encoding="utf-8") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM not found")


class Daemon:
    """One `repro serve` process on an ephemeral loopback port."""

    def __init__(self, ctx):
        self.log_path = os.path.join(ctx.work, "serve.log")
        self.log_file = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [ctx.repro, "serve", "--addr", "127.0.0.1:0", "--jobs", JOBS,
             "--workers", str(CONNECTIONS)],
            stdout=subprocess.DEVNULL, stderr=self.log_file, cwd=ctx.work)
        try:
            self.port = self._wait_ready()
        except BenchError:
            self.stop()
            raise

    def _wait_ready(self):
        deadline = time.monotonic() + 30
        marker = "listening on http://"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("repro serve exited during start-up")
            text = read_text(self.log_path)
            if marker in text:
                addr = text.split(marker, 1)[1].split()[0]
                return int(addr.rsplit(":", 1)[1])
            time.sleep(0.01)
        raise BenchError("repro serve did not report its address")

    def connect(self):
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=PROCESS_TIMEOUT_S)

    def stop(self):
        """SIGTERM, then wait for the graceful drain; SIGKILL as a last
        resort. Returns True for a clean exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.log_file.close()
        return code == 0


def post_run(conn, experiment, expected):
    """POST /run/<experiment>?format=text on a keep-alive connection.
    Returns (seconds, response is 200 and byte-identical)."""
    start = time.perf_counter()
    try:
        conn.request("POST", f"/run/{experiment}?format=text", body=b"")
        resp = conn.getresponse()
        body = resp.read()
        ok = resp.status == 200 and body == expected
    except (OSError, http.client.HTTPException) as e:
        log(f"perfbench: POST /run/{experiment}: {e}")
        conn.close()
        ok = False
    seconds = time.perf_counter() - start
    if not ok:
        log(f"perfbench: POST /run/{experiment} failed or differs from its section")
    return seconds, ok


# ------------------------------------------------------------ workloads --


class Result:
    """What one workload run measured."""

    def __init__(self):
        self.setup = []        # seconds per set-up
        self.units = []        # seconds per timed unit (a run or a sweep)
        self.ops = []          # seconds per operation (a run or a request)
        self.rss_mb = []       # peak RSS per process that did the work
        self.failed = 0
        self.timed_s = 0.0
        self.short_tail = False  # fewer than MIN_TAIL requests beyond p90

    def op(self, seconds, ok):
        self.ops.append(seconds)
        self.failed += 0 if ok else 1

    def metrics(self):
        return {
            "setup_s": ledger.median(self.setup),
            "wall_s": ledger.median(self.units),
            "req_p50_ms": 1000.0 * ledger.percentile(self.ops, 50),
            "req_p90_ms": 1000.0 * ledger.percentile(self.ops, 90),
            "req_per_s": len(self.ops) / self.timed_s,
            "peak_rss_mb": ledger.median(self.rss_mb),
        }


def smoke_setup(ctx, result):
    """Set-up of the batch workloads: a `repro table1 --quick` smoke run
    checked against its reference section, repeated; the median is
    reported."""
    expected = ctx.quick_sections["table1"].encode()
    for i in range(SETUP_REPEATS):
        seconds, _, ok = run_repro(ctx, ["table1", "--quick", "--jobs", JOBS], expected, f"smoke{i}")
        result.setup.append(seconds)
        if not ok:
            raise BenchError("set-up smoke run failed")


def timed_runs(ctx, result, argv, expected):
    """Repeats `repro argv` until `--seconds` have passed (at least once)."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < ctx.seconds:
        seconds, rss, ok = run_repro(ctx, argv, expected, f"run{i}")
        result.units.append(seconds)
        result.rss_mb.append(rss)
        result.op(seconds, ok)
        i += 1
    result.timed_s = time.perf_counter() - start


def full_cold(ctx):
    result = Result()
    smoke_setup(ctx, result)
    timed_runs(ctx, result, ["all", "--jobs", JOBS], ctx.golden.encode())
    return result


def quick_cold(ctx):
    result = Result()
    smoke_setup(ctx, result)
    timed_runs(ctx, result, ["all", "--quick", "--jobs", JOBS], ctx.quick.encode())
    return result


def sampled_replay(ctx):
    """Set-up writes the trace store with an exact run (checked against
    repro_output.txt); the timed runs replay it under SimPoint sampling."""
    result = Result()
    start = time.perf_counter()
    store = ctx.fresh_dir("store")
    _, _, ok = run_repro(ctx, ["all", "--jobs", JOBS, "--trace-store", store],
                         ctx.golden.encode(), "write")
    result.setup.append(time.perf_counter() - start)
    if not ok:
        raise BenchError("set-up store write failed")
    timed_runs(ctx, result, ["all", "--jobs", JOBS, "--sampling", "simpoint",
                             "--trace-store", store], ctx.sampled.encode())
    return result


def serve_warm(ctx):
    """Set-up starts the daemon and fills its memo with one cold pass over
    the registry; the timed phase is a closed loop of sweeps, each sweep
    requesting every experiment once over 2 keep-alive connections."""
    result = Result()
    sections = [(sid, text.encode()) for sid, text in ctx.golden_sections]
    expected = dict(sections)
    start = time.perf_counter()
    daemon = Daemon(ctx)
    try:
        conn = daemon.connect()
        for sid, text in sections:
            _, ok = post_run(conn, sid, text)
            if not ok:
                raise BenchError(f"cold pass failed on {sid}")
        # An idle keep-alive connection would hold one of the daemon's two
        # connection workers until its idle timeout.
        conn.close()
        result.setup.append(time.perf_counter() - start)

        conns = [daemon.connect() for _ in range(CONNECTIONS)]
        lock = threading.Lock()

        def client(conn, queue):
            while True:
                with lock:
                    if not queue:
                        return
                    sid = queue.popleft()
                seconds, ok = post_run(conn, sid, expected[sid])
                with lock:
                    result.op(seconds, ok)

        def more():
            elapsed = time.perf_counter() - begin
            if sweep == 0 or elapsed < ctx.seconds:
                return True
            return (ledger.beyond(result.ops, 90) < ledger.MIN_TAIL
                    and elapsed < MAX_TIMED_S)

        begin = time.perf_counter()
        sweep = 0
        while more():
            queue = collections.deque(ledger.request_order(ctx.seed, sweep, expected))
            sweep_start = time.perf_counter()
            threads = [threading.Thread(target=client, args=(c, queue)) for c in conns]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            result.units.append(time.perf_counter() - sweep_start)
            sweep += 1
        result.timed_s = time.perf_counter() - begin
        result.short_tail = ledger.beyond(result.ops, 90) < ledger.MIN_TAIL
        for c in conns:
            c.close()
        result.rss_mb.append(vm_hwm_mb(daemon.proc.pid))
    finally:
        clean = daemon.stop()
    if not clean:
        raise BenchError("repro serve did not shut down cleanly")
    return result


WORKLOADS = {
    "full_cold": full_cold,
    "quick_cold": quick_cold,
    "serve_warm": serve_warm,
    "sampled_replay": sampled_replay,
}


# --------------------------------------------------------------- traced --


def traced(ctx, untraced):
    """Runs the in-process traced harness on the same workload and adds the
    metrics that compare it with the untraced run just measured."""
    tracer = binary(ctx.target, "perfbench-tracer")
    work = ctx.fresh_dir("traced")
    # Expected outputs, one file per experiment section of each reference.
    expected = os.path.join(work, "expected")
    for name, text in (("golden", ctx.golden), ("quick_cold", ctx.quick),
                       ("sampled_replay", ctx.sampled)):
        os.makedirs(os.path.join(expected, name))
        for sid, body in ledger.split_sections(text):
            with open(os.path.join(expected, name, sid), "w", encoding="utf-8") as f:
                f.write(body)
    argv = [tracer, "--workload", ctx.workload, "--seconds", str(ctx.seconds),
            "--work", work, "--expected", expected]
    if ctx.workload == "serve_warm":
        # The traced sweeps follow the same seed-driven orders.
        orders = os.path.join(work, "orders.txt")
        ids = [sid for sid, _ in ctx.golden_sections]
        with open(orders, "w", encoding="utf-8") as f:
            for sweep in range(TRACED_SWEEPS):
                f.write(" ".join(ledger.request_order(ctx.seed, sweep, ids)) + "\n")
        argv += ["--orders", orders]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"tracer exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = {name: m["value"] for name, m in report["metrics"].items()}
    units = {name: m["unit"] for name, m in report["metrics"].items()}
    u = untraced.metrics()
    layers["telemetry.trace_overhead_ratio"] = report["wall_s"] / u["wall_s"]
    units["telemetry.trace_overhead_ratio"] = "ratio"
    layers["bench.http_overhead_ms"] = (
        u["req_p50_ms"] - report["warm_median_ms"] if ctx.workload == "serve_warm" else 0.0)
    units["bench.http_overhead_ms"] = "ms"
    if units != ctx.declared["per_layer"]:
        raise BenchError("tracer metrics or units differ from BENCHMARK.json per_layer")
    recon = report["reconcile"]
    print(f"reconcile critical path: engine.campaign_s {recon['campaign_s']:.4f} + "
          f"analysis spans {recon['analysis_spans_s']:.4f} = "
          f"{recon['campaign_s'] + recon['analysis_spans_s']:.4f} s "
          f"vs cold wall {recon['wall_s']:.4f} s -> ratio {recon['critical_path_ratio']:.4f} "
          f"(tolerance {recon['critical_path_tolerance']}); "
          f"unattributed {recon['unattributed_s']:.4f} s")
    print(f"reconcile simulation: uarch/simpoint thread-summed {recon['layer_sum_s']:.4f} s vs "
          f"campaign {recon['campaign_s']:.4f} s x {recon['workers']} workers x "
          f"efficiency {recon['parallel_efficiency']:.4f} = {recon['sim_wall_s']:.4f} s "
          f"-> ratio {recon['sim_coverage_ratio']:.4f} (tolerance {recon['sim_coverage_tolerance']})")
    print(f"telemetry.trace_overhead_ratio {layers['telemetry.trace_overhead_ratio']:.4f} "
          f"(traced wall {report['wall_s']:.4f} s / untraced wall {u['wall_s']:.4f} s)")
    if not recon["holds"]:
        log("perfbench: reconciliation outside its tolerance")
    return layers, units, report["attempted"], report["failed"], recon["holds"]


# ----------------------------------------------------------------- main --


class Context:
    def __init__(self, args, root, target):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.target = target
        self.repro = binary(target, "repro")
        self.work = os.path.join(target, "perfbench", f"{args.workload}-{os.getpid()}")
        self.golden = read_text(os.path.join(root, GOLDEN))
        self.golden_sections = ledger.split_sections(self.golden)
        self.quick = ledger.read_reference(REFERENCE_DIR, "quick_cold")
        self.quick_sections = dict(ledger.split_sections(self.quick))
        self.sampled = ledger.read_reference(REFERENCE_DIR, "sampled_replay")
        self.declared = ledger.declared_metrics(os.path.join(root, "BENCHMARK.json"))

    def fresh_dir(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    for need in ("Cargo.toml", os.path.join("crates", "bench", "Cargo.toml"), GOLDEN):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"run from the repository root: {need} not found")
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, os.environ["CARGO_TARGET_DIR"])
    cargo_build("Cargo.toml", "-p", "horizon-bench", "--bin", "repro")
    if args.trace:
        cargo_build(TRACER_MANIFEST)

    ctx = Context(args, root, target)
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)
    try:
        result = WORKLOADS[args.workload](ctx)
        attempted, failed = len(result.ops), result.failed
        if result.short_tail:
            log(f"perfbench: fewer than {ledger.MIN_TAIL} requests beyond p90 "
                f"after {MAX_TIMED_S} s; req_p90_ms is not supported")
        correct = failed == 0 and not result.short_tail
        if args.trace:
            metrics, units, t_attempted, t_failed, holds = traced(ctx, result)
            attempted += t_attempted
            failed += t_failed
            correct = correct and t_failed == 0 and holds
        else:
            metrics, units = result.metrics(), ctx.declared["end_to_end"]
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    if set(metrics) != set(units):
        raise BenchError("metrics differ from those BENCHMARK.json declares")
    print(f"workload {args.workload}: {attempted} operations, {failed} failed, "
          f"fail_ratio {failed / attempted:.4f}")
    if not args.trace:
        tail = ledger.beyond(result.ops, 90)
        print(f"  req_p90_ms rests on {len(result.ops)} operations, {tail} beyond it; "
              f"highest percentile with >= {ledger.MIN_TAIL} beyond: "
              f"{ledger.highest_supported_percentile(result.ops)}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.4f} {units[name]}")
    record = {
        "manifest": ledger.fingerprint(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if not args.trace:
        record["samples"] = {"setup_s": result.setup, "unit_s": result.units, "op_s": result.ops}
    os.makedirs(os.path.join(target, "perfbench"), exist_ok=True)
    with open(os.path.join(target, "perfbench", "ledger.jsonl"), "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"perfbench: error: {e}")
        sys.exit(1)
