//! The daemon's recorder over warm runs: `repro serve` keeps no span
//! records, however many requests it answers, while its latency
//! histograms and counters still see every request. Its own test binary,
//! because it installs a process-wide engine, as `repro serve` does.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use horizon_bench::serve::{daemon_recorder, ServeOptions, Server};
use horizon_engine::Engine;

/// Reads one `Content-Length`-framed response off a kept-alive connection.
fn read_response(stream: &mut TcpStream) -> String {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response header byte");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("content-length header")
        .trim()
        .parse()
        .expect("content-length value");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    head + &String::from_utf8(body).expect("utf8 body")
}

#[test]
fn daemon_recorder_keeps_no_span_records_across_warm_runs() {
    let recorder = Arc::new(daemon_recorder());
    horizon_telemetry::install(Arc::clone(&recorder));
    let engine = Arc::new(Engine::new().with_recorder(Arc::clone(&recorder)));
    Arc::clone(&engine).install();
    let server = Server::bind(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeOptions::default()
        },
        engine,
        Arc::clone(&recorder),
        None,
    )
    .expect("bind ephemeral");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let serving = std::thread::spawn(move || server.run());

    let run = "POST /run/table1?format=text HTTP/1.1\r\nHost: x\r\n\
               Content-Length: 14\r\n\r\n{\"quick\":true}";
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(run.as_bytes()).expect("send cold");
    let cold = read_response(&mut stream);
    assert!(cold.starts_with("HTTP/1.1 200 "), "{cold}");
    let simulated = recorder.counter_value("engine.simulated_jobs");
    assert!(simulated > 0, "the cold run simulates");

    let warm = 8u64;
    for _ in 0..warm {
        stream.write_all(run.as_bytes()).expect("send warm");
        assert_eq!(read_response(&mut stream), cold);
    }
    drop(stream);

    let snap = recorder.snapshot();
    assert_eq!(
        snap.counter("engine.simulated_jobs"),
        simulated,
        "warm runs simulate nothing"
    );
    assert!(snap.counter("engine.memo_hits") > 0);
    assert!(
        snap.spans.is_empty(),
        "{} span records kept",
        snap.spans.len()
    );
    let requests = snap.span_wall["serve.request"].count();
    assert_eq!(requests, 1 + warm);
    assert!(
        snap.dropped_spans > requests,
        "every closed span is counted"
    );
    let runs = snap
        .labeled_histograms
        .get(&("serve.request_wall_ms", "route", "run"))
        .expect("run latencies recorded");
    assert_eq!(runs.count(), 1 + warm);

    shutdown.store(true, Ordering::SeqCst);
    serving.join().expect("serve thread").expect("clean exit");
}
