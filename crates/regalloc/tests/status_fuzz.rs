//! The status surface under hostile and concurrent load:
//!
//! * a seeded fuzz of the [`StatusServer`] request path over a real
//!   socket — random bytes and mutated valid heads (truncation, NUL and
//!   high bytes, invalid UTF-8, huge and negative trace ids, `?&=`
//!   storms, odd methods) against a service running an observatory. Every
//!   connection gets exactly one status line with a known code, and the
//!   server still answers `/healthz` afterwards;
//! * `/status` read while jobs complete: every document is one snapshot,
//!   whose counts agree with its own job list;
//! * `/trace/<id>` after shutdown: the traces of the last 32 jobs to
//!   complete stay served.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccra_machine::RegisterFile;
use ccra_regalloc::{
    AllocatorConfig, BatchConfig, BatchJob, BatchService, ChaosConfig, ObsvConfig, StatusServer,
};
use ccra_workloads::{random_program, FuzzConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::json::Value;

/// The codes the server may answer with.
const CODES: [u16; 6] = [200, 400, 404, 405, 431, 503];

fn job(name: &str, seed: u64) -> BatchJob {
    BatchJob::new(
        name,
        random_program(
            seed,
            &FuzzConfig {
                functions: 3,
                stmts_per_fn: 8,
                max_loop_depth: 1,
                max_trips: 4,
            },
        ),
        RegisterFile::new(8, 6, 2, 2),
        AllocatorConfig::improved(),
    )
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sends `request` in one write, closes the write half, and returns every
/// byte of the response.
fn exchange(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect to status server");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set a read timeout");
    stream.write_all(request).expect("write request");
    stream
        .shutdown(Shutdown::Write)
        .expect("close the write half");
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .unwrap_or_else(|e| panic!("reading the answer to {request:?}: {e}"));
    response
}

/// The code of the response's one status line.
fn status_code(request: &[u8], response: &[u8]) -> u16 {
    let text = String::from_utf8_lossy(response);
    assert_eq!(
        text.matches("HTTP/1.0 ").count(),
        1,
        "exactly one status line for {request:?}, got {text:?}"
    );
    let code = text
        .strip_prefix("HTTP/1.0 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("a status line first for {request:?}, got {text:?}"));
    assert!(CODES.contains(&code), "{code} for {request:?}");
    code
}

/// A plausible request head the mutations start from.
fn valid_head(rng: &mut StdRng) -> Vec<u8> {
    let paths = [
        "/status".to_string(),
        "/healthz".to_string(),
        "/metrics".to_string(),
        "/alerts".to_string(),
        "/debug/flightrec".to_string(),
        "/history?series=gauge:batch_queue_depth".to_string(),
        "/history?series=derived:queue_delay_slope_us_per_s".to_string(),
        format!("/trace/{}", rng.gen_range(0u64..4)),
        format!("/trace/req-{}", rng.gen_range(0u64..4)),
    ];
    let path = &paths[rng.gen_range(0..paths.len())];
    format!("GET {path} HTTP/1.0\r\nHost: fuzz\r\n\r\n").into_bytes()
}

/// One fuzz case: random bytes, or a valid head with one mutation.
fn fuzz_request(rng: &mut StdRng) -> Vec<u8> {
    let mut head = valid_head(rng);
    match rng.gen_range(0..8) {
        0 => (0..rng.gen_range(0usize..200))
            .map(|_| rng.gen_range(0u32..256) as u8)
            .collect(),
        1 => {
            head.truncate(rng.gen_range(0..head.len()));
            head
        }
        2 => {
            // NUL and high bytes, invalid UTF-8 included.
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..head.len());
                let byte = [0x00, 0x80, 0xc3, 0xfe, 0xff][rng.gen_range(0..5)];
                head.insert(at, byte);
            }
            head
        }
        3 => {
            let digits: String = (0..rng.gen_range(20..60))
                .map(|_| char::from(b'0' + rng.gen_range(0u32..10) as u8))
                .collect();
            let id = match rng.gen_range(0..4) {
                0 => digits,
                1 => format!("-{digits}"),
                2 => format!("req--{}", rng.gen_range(0u64..10)),
                _ => format!("-{}", rng.gen_range(0u64..10)),
            };
            format!("GET /trace/{id} HTTP/1.0\r\n\r\n").into_bytes()
        }
        4 => {
            let storm: String = (0..rng.gen_range(1..80))
                .map(|_| ['?', '&', '=', 's', ':'][rng.gen_range(0..5)])
                .collect();
            let route = ["/history", "/status", "/alerts", ""][rng.gen_range(0..4)];
            format!("GET {route}?{storm} HTTP/1.0\r\n\r\n").into_bytes()
        }
        5 => {
            let method = [
                "POST",
                "get",
                "PATCH",
                "G\0ET",
                "GETGETGETGET",
                "\u{1F600}",
                "",
            ][rng.gen_range(0..7)];
            format!("{method} /status HTTP/1.0\r\n\r\n").into_bytes()
        }
        6 => {
            // Bare line endings and whitespace.
            let line = ["\n", "\r\n", " \r\n", "\r\r\n", "GET  \n\n"][rng.gen_range(0..5)];
            line.repeat(rng.gen_range(1..5)).into_bytes()
        }
        _ => head,
    }
}

#[test]
fn fuzzed_requests_each_get_one_known_status_line() {
    let service = BatchService::start(BatchConfig {
        workers: 1,
        queue_capacity: 8,
        obsv: Some(ObsvConfig::default()),
        ..BatchConfig::default()
    });
    let handle = service.handle();
    for i in 0..3u64 {
        service.submit(job(&format!("seed-{i}"), i)).expect("open");
    }
    wait_until("the seed jobs", || handle.statuses().len() == 3);
    handle.obsv_tick();
    let server = StatusServer::bind(service.handle(), "127.0.0.1:0").expect("bind :0");
    let addr = server.local_addr();

    // A request head that is not UTF-8 is a bad request, not a
    // connection closed without an answer.
    for request in [
        &b"GET /status\xff HTTP/1.0\r\n\r\n"[..],
        b"\xc3\x28 / HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\nX-Bad: \xfe\xff\r\n\r\n",
    ] {
        let code = status_code(request, &exchange(addr, request));
        assert!(code == 400 || code == 200, "{code} for {request:?}");
    }
    let bad = b"GET /status\xff HTTP/1.0\r\n\r\n";
    assert_eq!(status_code(bad, &exchange(addr, bad)), 400);

    let mut rng = StdRng::seed_from_u64(0x5747_5553);
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..400 {
        let request = fuzz_request(&mut rng);
        seen.insert(status_code(&request, &exchange(addr, &request)));
    }
    assert!(
        seen.len() >= 3,
        "the fuzz reaches several answers, saw {seen:?}"
    );

    let health = b"GET /healthz HTTP/1.0\r\n\r\n";
    assert_eq!(status_code(health, &exchange(addr, health)), 200);
    server.shutdown();
    assert_eq!(service.shutdown().len(), 3);
}

fn int(v: &Value, key: &str) -> i64 {
    v.get(key)
        .and_then(Value::as_i64)
        .unwrap_or_else(|| panic!("{key} in {}", v.to_json()))
}

#[test]
fn status_is_one_snapshot_while_jobs_complete() {
    const JOBS: u64 = 40;
    let service = BatchService::start(BatchConfig {
        workers: 2,
        queue_capacity: JOBS as usize,
        chaos: Some(ChaosConfig {
            seed: 11,
            panic_per_mille: 0,
            error_per_mille: 400,
            spike_per_mille: 0,
            spike_us: 0,
        }),
        ..BatchConfig::default()
    });
    let handle = service.handle();
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let handle = handle.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let doc = handle.status_value();
                let Some(Value::Arr(jobs)) = doc.get("jobs") else {
                    panic!("a jobs array in {}", doc.to_json());
                };
                assert_eq!(int(&doc, "completed"), jobs.len() as i64);
                let degraded: i64 = jobs.iter().map(|j| int(j, "degraded_funcs")).sum();
                assert_eq!(int(&doc, "degraded_funcs"), degraded);
                let ids: Vec<i64> = jobs.iter().map(|j| int(j, "id")).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted: {ids:?}");
                snapshots += 1;
            }
            snapshots
        })
    };
    for i in 0..JOBS {
        service
            .submit(job(&format!("job-{i}"), 100 + i))
            .expect("open");
    }
    wait_until("every job", || handle.statuses().len() == JOBS as usize);
    stop.store(true, Ordering::Relaxed);
    assert!(poller.join().expect("the poller's checks hold") > 0);

    let last = handle.status_value();
    let results = service.shutdown();
    assert_eq!(results.len(), JOBS as usize);
    assert!(
        results.iter().any(|r| r.status.label() == "degraded"),
        "the chaos faults degraded some jobs"
    );
    let Some(Value::Arr(jobs)) = last.get("jobs") else {
        panic!("a jobs array");
    };
    assert_eq!(jobs.len(), results.len());
    for (j, r) in jobs.iter().zip(&results) {
        assert_eq!(int(j, "id"), r.id as i64);
        assert_eq!(int(j, "micros"), r.micros as i64, "job {}", r.id);
    }
}

#[test]
fn shutdown_keeps_the_traces_of_the_last_32_jobs() {
    const JOBS: u64 = 40;
    let service = BatchService::start(BatchConfig {
        workers: 2,
        queue_capacity: JOBS as usize,
        ..BatchConfig::default()
    });
    let handle = service.handle();
    for i in 0..JOBS {
        service
            .submit(job(&format!("job-{i}"), 200 + i))
            .expect("open");
    }
    wait_until("every job", || handle.statuses().len() == JOBS as usize);
    // While the service runs, every completed job's trace is served.
    assert!((0..JOBS).all(|id| handle.trace(id).is_some()));
    let results = service.shutdown();
    let kept: Vec<u64> = (0..JOBS).filter(|&id| handle.trace(id).is_some()).collect();
    assert_eq!(kept.len(), 32, "kept {kept:?}");
    for id in kept {
        let served = handle.trace(id).expect("kept");
        let returned = results[id as usize].trace.as_ref().expect("traced");
        assert_eq!(served.id, id);
        assert_eq!(served.e2e_us, returned.e2e_us);
        assert!(handle.trace_chrome_json(id).is_some());
    }
    assert!(handle.trace(JOBS).is_none(), "unknown ids stay unknown");
}
