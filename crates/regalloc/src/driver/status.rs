//! A live status endpoint for [`BatchService`]: a minimal HTTP/1.0 server
//! on `std::net::TcpListener` alone.
//!
//! The server wraps a [`BatchHandle`] and answers these `GET` routes:
//!
//! * `/healthz` — `200 text/plain`, body `ok`; `503` with a body naming
//!   the rule while any critical observatory alert is firing;
//! * `/metrics` — the service metrics plus scrape-time gauges in the
//!   Prometheus text exposition format
//!   ([`BatchHandle::metrics_text`]);
//! * `/status` — a JSON document with the live queue depth, in-flight
//!   count, per-job [`BatchStatus`], degraded-function total, the
//!   queue-wait / service / end-to-end latency quantiles, and an
//!   `admission` object (limiter window and admitted count, shed /
//!   expired / cancelled / timeout totals, per-priority e2e p50/p99)
//!   ([`BatchHandle::status_value`]);
//! * `/trace/<id>` — one request's Chrome-trace JSON
//!   ([`BatchHandle::trace_chrome_json`]; `<id>` is the submission id,
//!   with or without the `req-` prefix); `404` when the trace is gone or
//!   was never recorded;
//! * `/debug/flightrec` — the flight recorder: live rings plus retained
//!   automatic dumps ([`BatchHandle::flightrec_value`]);
//! * `/history?series=<name>` — one observatory series' retained points
//!   as JSON `{ts_us, value}` pairs (`404` without an observatory or for
//!   an unknown series);
//! * `/alerts` — observatory alert rule states plus the recent
//!   transition log (`404` without an observatory).
//!
//! The three observatory routes — `/healthz`, `/alerts`, `/history` —
//! first offer the observatory a tick ([`BatchHandle::obsv_tick`]), then
//! read. The observatory's interval gate turns that into at most one
//! sample per 2 s however often they are polled, so whoever polls them
//! (a health checker, a scraper) is what drives the history; nothing
//! samples between reads.
//!
//! Anything else is `404`; non-`GET` methods are `405`; a request head
//! larger than [`MAX_REQUEST_BYTES`] is `431`. Every response closes the
//! connection (`Connection: close`), which is all HTTP/1.0 promises
//! anyway — no keep-alive, no chunking, no TLS. That is exactly enough
//! for `curl` and a Prometheus scraper, and it keeps the server at one
//! short, auditable accept loop.
//!
//! Bind to port 0 for an ephemeral port (tests do); read the actual
//! address back with [`StatusServer::local_addr`]. Shutdown is graceful
//! and idempotent: [`StatusServer::shutdown`] (or drop) sets a stop flag,
//! wakes the accept loop with a self-connection, and joins the thread.
//!
//! [`BatchService`]: crate::driver::BatchService
//! [`BatchStatus`]: crate::driver::BatchStatus

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::driver::batch::BatchHandle;

/// How long a connection may dribble its request before being dropped.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// The most request-head bytes (request line + headers) the server reads;
/// anything longer is answered `431` and dropped — an unbounded
/// `read_line` on an untrusted socket is an allocation amplifier.
pub const MAX_REQUEST_BYTES: u64 = 8 * 1024;

/// How much of an oversized request the server reads off the wire before
/// answering `431`. Closing a socket with unread data sends a TCP reset,
/// which can destroy the rejection response before the client reads it;
/// draining a bounded tail lets well-meaning-but-oversized clients see
/// the `431`. Past this, the reset is the answer.
const DRAIN_LIMIT: u64 = 64 * 1024;

/// The status HTTP server (see the module docs).
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `handle` on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(handle: BatchHandle, addr: &str) -> io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &handle, &stop))
        };
        Ok(StatusServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address actually bound (the real port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the accept loop, and joins the server
    /// thread. Called by drop too; explicit shutdown just makes the join
    /// visible in the caller.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop only observes the flag between connections;
        // poke it with one so it observes it now.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: &TcpListener, handle: &BatchHandle, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // A failed accept or a misbehaving client never kills the server.
        if let Ok(stream) = stream {
            let _ = serve_connection(stream, handle);
        }
    }
}

/// Reads one request, writes one response, closes.
fn serve_connection(stream: TcpStream, handle: &BatchHandle) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    // Cap the request head: past MAX_REQUEST_BYTES, reads see EOF.
    // Lines are read as bytes: a head that is not UTF-8 is a bad request,
    // not a read error that closes the connection unanswered.
    let mut reader = BufReader::new(stream).take(MAX_REQUEST_BYTES);
    let mut request_line = Vec::new();
    reader.read_until(b'\n', &mut request_line)?;
    // Drain the headers; HTTP/1.0 GETs carry no body.
    let mut truncated = request_line.last() != Some(&b'\n');
    loop {
        let mut line = Vec::new();
        if reader.read_until(b'\n', &mut line)? == 0 {
            truncated = truncated || reader.limit() == 0;
            break;
        }
        if line.trim_ascii().is_empty() {
            break;
        }
    }
    let mut stream = reader.into_inner().into_inner();
    if truncated {
        let mut sink = [0u8; 4096];
        let mut drained = 0u64;
        while drained < DRAIN_LIMIT {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(n) => drained += n as u64,
            }
        }
        return respond(&mut stream, 431, "text/plain", "request too large\n");
    }

    let Ok(request_line) = std::str::from_utf8(&request_line) else {
        return respond(&mut stream, 400, "text/plain", "bad request\n");
    };
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    if let Some(id) = path.strip_prefix("/trace/") {
        return match parse_trace_id(id).and_then(|id| handle.trace_chrome_json(id)) {
            Some(body) => respond(&mut stream, 200, "application/json", &(body + "\n")),
            None => respond(&mut stream, 404, "text/plain", "no such trace\n"),
        };
    }
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    if matches!(route, "/healthz" | "/alerts" | "/history") {
        handle.obsv_tick();
    }
    if route == "/history" {
        return match handle.observatory() {
            None => respond(&mut stream, 404, "text/plain", "observatory disabled\n"),
            Some(obsv) => {
                let Some(series) = query_param(query, "series") else {
                    return respond(&mut stream, 400, "text/plain", "missing series parameter\n");
                };
                match obsv.history_value(series) {
                    Some(doc) => respond(
                        &mut stream,
                        200,
                        "application/json",
                        &(doc.to_json() + "\n"),
                    ),
                    None => respond(&mut stream, 404, "text/plain", "no such series\n"),
                }
            }
        };
    }
    match route {
        "/healthz" => match handle.critical_alert() {
            Some(rule) => respond(
                &mut stream,
                503,
                "text/plain",
                &format!("critical alert firing: {rule}\n"),
            ),
            None => respond(&mut stream, 200, "text/plain", "ok\n"),
        },
        "/alerts" => match handle.observatory() {
            Some(obsv) => {
                let body = obsv.alerts_value().to_json() + "\n";
                respond(&mut stream, 200, "application/json", &body)
            }
            None => respond(&mut stream, 404, "text/plain", "observatory disabled\n"),
        },
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            &handle.metrics_text(),
        ),
        "/status" => {
            let body = handle.status_value().to_json() + "\n";
            respond(&mut stream, 200, "application/json", &body)
        }
        "/debug/flightrec" => {
            let body = handle.flightrec_value().to_json() + "\n";
            respond(&mut stream, 200, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// Parses a `/trace/<id>` path segment: a decimal submission id, with or
/// without the `req-` prefix [`crate::driver::RequestTrace::trace_id`]
/// renders.
fn parse_trace_id(segment: &str) -> Option<u64> {
    segment.strip_prefix("req-").unwrap_or(segment).parse().ok()
}

/// Finds `key=value` in a query string. No percent-decoding — series
/// names use `:` and `_`, which travel verbatim.
fn query_param<'q>(query: &'q str, key: &str) -> Option<&'q str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

fn respond(stream: &mut TcpStream, code: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::batch::{BatchConfig, BatchService};

    /// A bare-hands HTTP/1.0 client: one request, the whole response.
    fn fetch(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to status server");
        stream.write_all(request.as_bytes()).expect("write request");
        let mut response = String::new();
        io::Read::read_to_string(&mut stream, &mut response).expect("read response");
        response
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        fetch(addr, &format!("GET {path} HTTP/1.0\r\n\r\n"))
    }

    #[test]
    fn routes_respond_and_shutdown_joins() {
        let service = BatchService::start(BatchConfig {
            workers: 1,
            queue_capacity: 4,
            ..BatchConfig::default()
        });
        let server = StatusServer::bind(service.handle(), "127.0.0.1:0").expect("bind :0");
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0, "ephemeral port resolved");

        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 200"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.0 200"), "{metrics}");
        assert!(metrics.contains("batch_queue_depth"), "{metrics}");

        let status = get(addr, "/status");
        assert!(status.contains("application/json"), "{status}");
        let body = status
            .split("\r\n\r\n")
            .nth(1)
            .expect("response has a body");
        let value = serde::json::parse(body.trim()).expect("status body parses");
        assert!(value.get("queue_depth").is_some());
        assert!(value.get("jobs").is_some());

        assert!(get(addr, "/nope").starts_with("HTTP/1.0 404"));
        let post = fetch(addr, "POST /status HTTP/1.0\r\n\r\n");
        assert!(post.starts_with("HTTP/1.0 405"), "{post}");

        server.shutdown();
        // The port stops answering (connect may still succeed briefly on
        // some stacks, but the listener is gone once shutdown returned).
        drop(service.shutdown());
    }

    #[test]
    fn history_and_alerts_routes_serve_the_observatory() {
        use crate::obsv::{Clock, ManualClock, ObsvConfig};
        use std::sync::Arc;

        let clock = Arc::new(ManualClock::new());
        let service = BatchService::start(BatchConfig {
            workers: 1,
            obsv: Some(ObsvConfig {
                clock: clock.clone() as Arc<dyn Clock>,
                ..ObsvConfig::default()
            }),
            ..BatchConfig::default()
        });
        let handle = service.handle();
        let server = StatusServer::bind(handle.clone(), "127.0.0.1:0").expect("bind :0");
        let addr = server.local_addr();

        // The first read ticks: /alerts reports it, and a second read at
        // the same instant does not tick again.
        let ticks = |resp: &str| {
            let body = resp.split("\r\n\r\n").nth(1).expect("body");
            let doc = serde::json::parse(body.trim()).expect("alerts parse");
            doc.get("ticks").and_then(serde::json::Value::as_i64)
        };
        let alerts = get(addr, "/alerts");
        assert!(alerts.starts_with("HTTP/1.0 200"), "{alerts}");
        assert!(alerts.contains("\"rules\""), "{alerts}");
        assert_eq!(ticks(&alerts), Some(1), "{alerts}");
        assert_eq!(ticks(&get(addr, "/alerts")), Some(1));
        let missing = get(addr, "/history?series=rate:nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        assert!(get(addr, "/history").starts_with("HTTP/1.0 400"));

        // One interval later, a /history read ticks again before it reads.
        let path = "/history?series=derived:queue_delay_slope_us_per_s";
        clock.set(crate::obsv::RAW_INTERVAL_US);
        let resp = get(addr, path);
        assert!(resp.starts_with("HTTP/1.0 200"), "{resp}");
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        let doc = serde::json::parse(body.trim()).expect("history parses");
        assert!(doc.get("tier").is_none(), "one tier, no tier field");
        match doc.get("points") {
            Some(serde::json::Value::Arr(a)) => assert_eq!(a.len(), 2, "{path}"),
            other => panic!("points array expected, got {other:?}"),
        }
        assert_eq!(handle.observatory().expect("configured").ticks(), 2);

        server.shutdown();
        drop(service.shutdown());
    }

    #[test]
    fn healthz_goes_503_naming_the_firing_critical_rule() {
        use crate::driver::batch::BatchJob;
        use crate::obsv::{Clock, ManualClock, ObsvConfig, RAW_INTERVAL_US, RULE_E2E_BURN};
        use crate::types::AllocatorConfig;
        use ccra_ir::{FunctionBuilder, Program, RegClass};
        use ccra_machine::RegisterFile;
        use std::sync::Arc;

        let clock = Arc::new(ManualClock::new());
        // A 1us SLO: every real completion is over it, so one job of real
        // traffic fires the default critical burn rule on the next tick.
        let service = BatchService::start(BatchConfig {
            workers: 1,
            obsv: Some(ObsvConfig {
                e2e_slo_us: 1,
                clock: clock.clone() as Arc<dyn Clock>,
            }),
            ..BatchConfig::default()
        });
        let handle = service.handle();
        let server = StatusServer::bind(handle.clone(), "127.0.0.1:0").expect("bind :0");
        let addr = server.local_addr();

        assert!(
            get(addr, "/healthz").starts_with("HTTP/1.0 200"),
            "healthy before any traffic (this read took the first tick)"
        );
        let mut b = FunctionBuilder::new("main");
        let x = b.new_vreg(RegClass::Int);
        b.iconst(x, 1);
        b.ret(Some(x));
        let mut program = Program::new();
        let id = program.add_function(b.finish());
        program.set_main(id);
        let job = BatchJob::new(
            "probe",
            program,
            RegisterFile::mips_full(),
            AllocatorConfig::improved(),
        );
        service.submit(job).expect("accepted");
        while handle.statuses().is_empty() {
            std::thread::yield_now();
        }
        clock.set(RAW_INTERVAL_US);
        let fired = handle.obsv_tick();
        assert!(
            fired.iter().any(|t| t.fired && t.rule == RULE_E2E_BURN),
            "the burn rule fires on the first tick: {fired:?}"
        );
        let health = get(addr, "/healthz");
        assert!(health.starts_with("HTTP/1.0 503"), "{health}");
        assert!(
            health.ends_with(&format!("critical alert firing: {RULE_E2E_BURN}\n")),
            "{health}"
        );

        // /status carries uptime and the build object.
        let status = get(addr, "/status");
        let body = status.split("\r\n\r\n").nth(1).expect("body");
        let doc = serde::json::parse(body.trim()).expect("status parses");
        assert!(doc.get("uptime_us").is_some());
        let build = doc.get("build").expect("build object");
        assert_eq!(
            build
                .get("crate_version")
                .and_then(serde::json::Value::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(
            build
                .get("status_schema")
                .and_then(serde::json::Value::as_i64),
            Some(crate::driver::batch::STATUS_SCHEMA_VERSION as i64)
        );

        server.shutdown();
        drop(service.shutdown());
    }

    #[test]
    fn drop_is_a_graceful_shutdown_too() {
        let service = BatchService::start(BatchConfig::default());
        let addr = {
            let server = StatusServer::bind(service.handle(), "127.0.0.1:0").expect("bind :0");
            let addr = server.local_addr();
            assert!(get(addr, "/healthz").starts_with("HTTP/1.0 200"));
            addr
        };
        // Dropped: connecting may succeed at the TCP level on a reused
        // port, but the server thread has been joined — nothing serves.
        let _ = addr;
        drop(service.shutdown());
    }
}
