//! End-to-end tests of the `repro` binary: telemetry sinks, determinism
//! across worker counts, stdout purity, and the cache-gc subcommand.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::{Command, Output};

use serde::Value;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("horizon-cli-test-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .output()
        .expect("repro binary runs")
}

/// Parses a JSONL trace, asserting every line is valid JSON and the first
/// line is a schema-2 meta record. Returns one `Value` per line.
fn parse_trace(path: &std::path::Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).expect("trace file exists");
    let lines: Vec<Value> = text
        .lines()
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str::<Value>(line)
                .unwrap_or_else(|e| panic!("trace line {} is not JSON ({e:?}): {line}", i + 1))
        })
        .collect();
    assert!(!lines.is_empty(), "trace is empty");
    let meta = &lines[0];
    assert_eq!(
        str_field(meta, "type"),
        "meta",
        "first line is the meta record"
    );
    assert_eq!(num_field(meta, "schema"), 2, "schema version");
    lines
}

fn str_field<'a>(v: &'a Value, name: &str) -> &'a str {
    match v.field(name).expect("field present") {
        Value::Str(s) => s.as_str(),
        other => panic!("field '{name}' is not a string: {other:?}"),
    }
}

fn num_field(v: &Value, name: &str) -> u64 {
    match v.field(name).expect("field present") {
        Value::Num(raw) => raw.parse().expect("integer field"),
        other => panic!("field '{name}' is not a number: {other:?}"),
    }
}

/// Span counts per name, plus counter name → value.
fn trace_shape(lines: &[Value]) -> (BTreeMap<String, usize>, BTreeMap<String, u64>) {
    let mut spans: BTreeMap<String, usize> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    for line in lines {
        match str_field(line, "type") {
            "span" => {
                *spans
                    .entry(str_field(line, "name").to_string())
                    .or_default() += 1
            }
            "counter" => {
                counters.insert(
                    str_field(line, "name").to_string(),
                    num_field(line, "value"),
                );
            }
            _ => {}
        }
    }
    (spans, counters)
}

#[test]
fn traces_are_structurally_identical_across_worker_counts() {
    let dir = scratch_dir("determinism");
    let mut outputs = Vec::new();
    for jobs in ["1", "8"] {
        let trace = dir.join(format!("trace-{jobs}.jsonl"));
        let metrics = dir.join(format!("metrics-{jobs}.txt"));
        let out = run(&[
            "all",
            "--quick",
            "--jobs",
            jobs,
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "jobs={jobs}: {:?}", out.status);
        outputs.push((out, trace, metrics));
    }

    // Reports are bit-identical regardless of parallelism, and telemetry
    // never leaks into them.
    assert_eq!(outputs[0].0.stdout, outputs[1].0.stdout);
    let stdout = String::from_utf8(outputs[0].0.stdout.clone()).unwrap();
    assert!(
        !stdout.contains("\"type\""),
        "trace records leaked to stdout"
    );
    assert!(!stdout.contains("horizon_"), "metrics leaked to stdout");

    // The traces hold the same spans (per-name counts) and the same
    // counters; only wall-clock values may differ.
    let shape1 = trace_shape(&parse_trace(&outputs[0].1));
    let shape8 = trace_shape(&parse_trace(&outputs[1].1));
    assert_eq!(shape1.0, shape8.0, "span counts differ across --jobs");
    let counter_names = |m: &BTreeMap<String, u64>| m.keys().cloned().collect::<BTreeSet<String>>();
    assert_eq!(counter_names(&shape1.1), counter_names(&shape8.1));
    for (name, value) in &shape1.1 {
        if name.contains("nanos") {
            continue; // wall clock legitimately varies
        }
        assert_eq!(
            shape8.1[name], *value,
            "counter '{name}' differs across --jobs"
        );
    }

    // Every experiment and pipeline stage is represented by spans.
    let (spans, counters) = shape1;
    for required in [
        "experiment",
        "engine.campaign",
        "engine.simulate",
        "engine.job",
        "sim.measure",
        "stats.standardize",
        "stats.eigen",
        "stats.project",
        "cluster.linkage",
        "cluster.cut",
        "core.similarity",
        "core.subset",
        "core.validate",
    ] {
        assert!(
            spans.contains_key(required),
            "no '{required}' spans in trace"
        );
    }
    assert!(
        spans["experiment"] >= 18,
        "one span per registry experiment"
    );
    assert_eq!(counters["engine.unique_jobs"], spans["engine.job"] as u64);

    // Prometheus output carries the cache counters and the per-phase
    // wall-clock histogram the acceptance criteria ask for.
    let metrics = std::fs::read_to_string(&outputs[0].2).unwrap();
    for required in [
        "horizon_engine_memo_hits",
        "horizon_engine_disk_hits",
        "horizon_span_wall_nanos_bucket",
        "horizon_span_wall_nanos_sum{phase=\"engine.job\"}",
    ] {
        assert!(metrics.contains(required), "metrics missing '{required}'");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spans_nest_under_their_campaign() {
    let dir = scratch_dir("nesting");
    let trace = dir.join("trace.jsonl");
    let out = run(&["table1", "--quick", "--trace-out", trace.to_str().unwrap()]);
    assert!(out.status.success());

    let lines = parse_trace(&trace);
    let spans: Vec<&Value> = lines
        .iter()
        .filter(|l| str_field(l, "type") == "span")
        .collect();
    let find = |name: &str| {
        spans
            .iter()
            .find(|s| str_field(s, "name") == name)
            .unwrap_or_else(|| panic!("no '{name}' span"))
    };
    let experiment_id = num_field(find("experiment"), "id");
    let campaign = find("engine.campaign");
    assert_eq!(num_field(campaign, "parent"), experiment_id);
    let campaign_id = num_field(campaign, "id");
    for s in spans
        .iter()
        .filter(|s| str_field(s, "name") == "engine.job")
    {
        assert_eq!(num_field(s, "parent"), campaign_id, "job outside campaign");
        let fields = s.field("fields").unwrap();
        assert_eq!(str_field(fields, "outcome"), "simulated");
        assert!(!str_field(fields, "workload").is_empty());
        assert!(!str_field(fields, "machine").is_empty());
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_gc_prunes_and_reports() {
    let dir = scratch_dir("cache-gc");
    let cache = dir.join("cache");
    let out = run(&["table1", "--quick", "--cache-dir", cache.to_str().unwrap()]);
    assert!(out.status.success());
    let entries = || {
        std::fs::read_dir(&cache)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count()
    };
    let before = entries();
    assert!(before > 5, "cache populated ({before} entries)");

    let out = run(&[
        "cache-gc",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--max-entries",
        "5",
    ]);
    assert!(out.status.success());
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(
        report.contains(&format!(
            "examined {before} entries, removed {}",
            before - 5
        )),
        "unexpected report: {report}"
    );
    assert!(report.contains("retained 5"));
    assert_eq!(entries(), 5);

    // Without a cache dir the subcommand is a usage error.
    let out = run(&["cache-gc"]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_store_replays_across_processes_and_gc_prunes_it() {
    let dir = scratch_dir("trace-store");
    let cache = dir.join("cache");
    let store = cache.join("traces");

    // Cold run: --cache-dir implies a trace store at <cache-dir>/traces;
    // every batch misses and writes a packed trace through.
    let out = run(&[
        "table1",
        "--quick",
        "--stats",
        "--cache-dir",
        cache.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let cold_report = String::from_utf8(out.stdout).unwrap();
    let cold_stats = String::from_utf8(out.stderr).unwrap();
    assert!(
        cold_stats.contains("trace store:     0 hits"),
        "stats: {cold_stats}"
    );
    assert!(cold_stats.contains("B/inst"), "stats: {cold_stats}");
    let traces = || {
        std::fs::read_dir(&store)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "trace"))
            .count()
    };
    let written = traces();
    assert!(written > 0, "store populated ({written} traces)");

    // Warm run in a fresh process with --trace-store only (no measurement
    // cache): every batch must simulate again, and each one replays a
    // stored trace instead of re-expanding it.
    let out = run(&[
        "table1",
        "--quick",
        "--stats",
        "--trace-store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let warm_report = String::from_utf8(out.stdout).unwrap();
    let warm_stats = String::from_utf8(out.stderr).unwrap();
    assert_eq!(cold_report, warm_report, "replay changed the report");
    assert!(
        warm_stats.contains(&format!("trace store:     {written} hits, 0 misses")),
        "stats: {warm_stats}"
    );

    // --no-trace-store really disables the store: no counters appear.
    let out = run(&["table1", "--quick", "--stats", "--no-trace-store"]);
    assert!(out.status.success());
    let off_stats = String::from_utf8(out.stderr).unwrap();
    assert!(!off_stats.contains("trace store:"), "stats: {off_stats}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        cold_report,
        "disabling the store changed the report"
    );

    // The flags conflict.
    let out = run(&[
        "table1",
        "--quick",
        "--trace-store",
        store.to_str().unwrap(),
        "--no-trace-store",
    ]);
    assert_eq!(out.status.code(), Some(2));

    // cache-gc prunes the implicit store down to a byte budget; budget 0
    // clears it.
    let out = run(&[
        "cache-gc",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--max-trace-bytes",
        "0",
    ]);
    assert!(out.status.success());
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(
        report.contains(&format!("examined {written} traces, removed {written}")),
        "unexpected report: {report}"
    );
    assert_eq!(traces(), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_and_otlp_sinks_leave_the_report_bytes_alone() {
    let dir = scratch_dir("progress-otlp");
    let otlp = dir.join("otlp.json");
    let trace = dir.join("trace.jsonl");
    let with_sinks = run(&[
        "table1",
        "--quick",
        "--progress",
        "--otlp-out",
        otlp.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(with_sinks.status.success());
    let plain = run(&["table1", "--quick"]);
    assert!(plain.status.success());
    assert_eq!(
        with_sinks.stdout, plain.stdout,
        "--progress/--otlp-out altered the stdout report"
    );

    // Progress goes to stderr: phase transitions and jobs-done lines.
    let stderr = String::from_utf8(with_sinks.stderr).unwrap();
    assert!(
        stderr.lines().any(|l| l.starts_with("progress: phase ")),
        "no phase progress lines: {stderr}"
    );
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("progress: ") && l.contains("jobs")),
        "no job-count progress lines: {stderr}"
    );

    // The trace meta line attributes the run (schema 2).
    let lines = parse_trace(&trace);
    assert!(num_field(&lines[0], "run") > 0);
    assert_eq!(str_field(&lines[0], "experiment"), "table1");

    // The OTLP document is one JSON object with the resourceSpans →
    // scopeSpans → spans hierarchy, spec-length hex ids, and every span
    // in the same (run-derived) trace.
    let text = std::fs::read_to_string(&otlp).expect("otlp file exists");
    let doc: Value = serde_json::from_str(text.trim()).expect("otlp is JSON");
    let Ok(Value::Seq(resource_spans)) = doc.field("resourceSpans") else {
        panic!("no resourceSpans: {text}");
    };
    let Ok(Value::Seq(scope_spans)) = resource_spans[0].field("scopeSpans") else {
        panic!("no scopeSpans");
    };
    let Ok(Value::Seq(spans)) = scope_spans[0].field("spans") else {
        panic!("no spans");
    };
    assert!(!spans.is_empty(), "otlp export has no spans");
    let trace_id = str_field(&spans[0], "traceId");
    assert_eq!(trace_id.len(), 32);
    for span in spans {
        assert_eq!(str_field(span, "traceId"), trace_id, "one run, one trace");
        assert_eq!(str_field(span, "spanId").len(), 16);
        let start: u64 = str_field(span, "startTimeUnixNano").parse().unwrap();
        let end: u64 = str_field(span, "endTimeUnixNano").parse().unwrap();
        assert!(start <= end);
    }

    // `--progress` is an experiment-run flag; elsewhere it is a usage
    // error, same as the misplaced serve flags.
    let out = run(&["list", "--progress"]);
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_and_experiments_are_rejected() {
    let out = run(&["table1", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["no-such-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["table1", "--trace-out"]);
    assert_eq!(out.status.code(), Some(2), "missing flag value");
    let out = run(&["table1", "--otlp-out"]);
    assert_eq!(out.status.code(), Some(2), "missing flag value");
    // Serve has no cluster flags.
    for args in [
        ["serve", "--role", "router"],
        ["serve", "--peers", "127.0.0.1:1"],
        ["serve", "--rate-limit", "5"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn unknown_subcommand_lists_known_subcommands() {
    let out = run(&["serv"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown subcommand or experiment 'serv'"),
        "stderr: {stderr}"
    );
    for name in ["all", "list", "serve", "cache-gc", "help"] {
        assert!(
            stderr.contains(name),
            "stderr should list subcommand '{name}': {stderr}"
        );
    }
    assert!(
        stderr.contains("table1"),
        "stderr should list experiments: {stderr}"
    );

    // Serve-only flags outside `repro serve` are usage errors, not silently
    // ignored knobs.
    let out = run(&["table1", "--quick", "--queue-cap", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--queue-cap"), "stderr: {stderr}");
}
