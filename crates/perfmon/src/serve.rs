//! The live observability endpoints: a dependency-free HTTP server.
//!
//! One background thread, blocking handlers, `Connection: close` — the
//! minimum HTTP/1.1 a Prometheus scraper (or `curl`) needs, and nothing
//! more. Four endpoints:
//!
//! * `/metrics` — the Prometheus text exposition of the latest published
//!   [`MetricsSnapshot`] ([`MetricsSnapshot::to_prometheus`]).
//! * `/timeseries` — the latest published [`RunTimeline`] as JSON (the
//!   `nbody-timeline/v1` schema — per-rank step samples + flight events).
//! * `/dashboard` — a self-contained HTML page with SVG sparklines and
//!   drift windows over the same timeline
//!   ([`render_dashboard`](crate::render_dashboard)); when a
//!   wire log has been published, it grows a channel-latency panel.
//! * `/wire` — the latest published wire-probe log as JSON (the
//!   `nbody-wireprobe/v1` schema — per-rank message events).
//! * `/health` — the numerical-health summary of the latest published
//!   timeline as JSON ([`HealthSummary`]): energy drift, momentum norm,
//!   sentinel and fingerprint-mismatch events with blame.
//! * `/healthz` — liveness probe (the *server*'s health, not the
//!   simulation's — that is `/health`).
//!
//! Non-`GET`/`HEAD` methods get `405 Method Not Allowed` with an `Allow`
//! header; unknown paths get 404. Callers [`publish`](MetricsServer::publish)
//! / [`publish_timeline`](MetricsServer::publish_timeline) whenever they
//! have fresh state, so the endpoints are views of the latest drained
//! registries, not second registries.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nbody_metrics::MetricsSnapshot;
use nbody_simhealth::HealthSummary;
use nbody_timeline::RunTimeline;
use nbody_wireprobe::{match_events, WireLog, WireReport};

use crate::dashboard::render_dashboard_with_wire;

/// How long the accept loop sleeps between polls when idle.
const POLL: Duration = Duration::from_millis(10);

/// Per-connection read/write deadline; a stalled scraper cannot wedge the
/// serving thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The bodies the server can answer with, refreshed by `publish*` calls.
///
/// The last-published timeline and wire report are kept alongside the
/// rendered strings so either `publish_timeline` or `publish_wire` can
/// re-render the dashboard with both halves present.
struct Bodies {
    metrics: String,
    timeseries: String,
    dashboard: String,
    wire: String,
    health: String,
    timeline: RunTimeline,
    wire_report: Option<WireReport>,
}

/// The running observability server. Dropping it stops the serving thread.
pub struct MetricsServer {
    addr: SocketAddr,
    bodies: Arc<Mutex<Bodies>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port) and
    /// start serving. The endpoints initially serve empty state.
    pub fn start<A: ToSocketAddrs>(addr: A) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let empty_tl = RunTimeline::from_ranks(Vec::new());
        let bodies = Arc::new(Mutex::new(Bodies {
            metrics: MetricsSnapshot::empty().to_prometheus(),
            timeseries: empty_tl.to_json().to_string(),
            dashboard: render_dashboard_with_wire(&empty_tl, None),
            wire: WireLog::default().to_json(),
            health: HealthSummary::from_timeline(&empty_tl).to_json(),
            timeline: empty_tl,
            wire_report: None,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let bodies = Arc::clone(&bodies);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("metrics-http".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                let _ = handle_connection(stream, &bodies);
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(POLL);
                            }
                            Err(_) => std::thread::sleep(POLL),
                        }
                    }
                })?
        };
        Ok(MetricsServer {
            addr,
            bodies,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replace the served `/metrics` body with the Prometheus rendering of
    /// `snapshot`.
    pub fn publish(&self, snapshot: &MetricsSnapshot) {
        if let Ok(mut b) = self.bodies.lock() {
            b.metrics = snapshot.to_prometheus();
        }
    }

    /// Replace the served `/timeseries` JSON and `/dashboard` page with
    /// renderings of `timeline`. Any previously published wire report
    /// stays on the dashboard.
    pub fn publish_timeline(&self, timeline: &RunTimeline) {
        let json = timeline.to_json().to_string();
        let health = HealthSummary::from_timeline(timeline).to_json();
        if let Ok(mut b) = self.bodies.lock() {
            b.timeseries = json;
            b.health = health;
            b.dashboard = render_dashboard_with_wire(timeline, b.wire_report.as_ref());
            b.timeline = timeline.clone();
        }
    }

    /// Replace the served `/wire` JSON with `log` and re-render the
    /// `/dashboard` page so it grows the channel-latency panel derived
    /// from the matched send/recv pairs.
    pub fn publish_wire(&self, log: &WireLog) {
        let report = match_events(log);
        let json = log.to_json();
        if let Ok(mut b) = self.bodies.lock() {
            b.wire = json;
            b.dashboard = render_dashboard_with_wire(&b.timeline, Some(&report));
            b.wire_report = Some(report);
        }
    }

    /// Stop the serving thread and wait for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serve one request on `stream`; see the module docs for the routes.
fn handle_connection(mut stream: TcpStream, bodies: &Arc<Mutex<Bodies>>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;

    // Read until the end of the request head (or the buffer limit — the
    // requests we answer have no meaningful body).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    // Method gate first: the resource may exist, but only reads are
    // supported — that is 405 + Allow, not 404.
    if method != "GET" && method != "HEAD" {
        let body = "method not allowed\n";
        write!(
            stream,
            "HTTP/1.1 405 Method Not Allowed\r\nAllow: GET, HEAD\r\n\
             Content-Type: text/plain\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )?;
        return stream.flush();
    }

    // Clone the body out so the lock is not held during the write.
    let (status, content_type, body) = {
        let b = bodies.lock().map_err(|_| std::io::ErrorKind::Other)?;
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                b.metrics.clone(),
            ),
            "/timeseries" => ("200 OK", "application/json", b.timeseries.clone()),
            "/wire" => ("200 OK", "application/json", b.wire.clone()),
            "/health" => ("200 OK", "application/json", b.health.clone()),
            "/dashboard" => (
                "200 OK",
                "text/html; charset=utf-8",
                b.dashboard.clone(),
            ),
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let payload = if method == "HEAD" { "" } else { body.as_str() };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody_metrics::{MetricsRecorder, MetricsSnapshot};
    use nbody_timeline::{RankTimeline, StepSample};
    use nbody_trace::Phase;

    /// A snapshot with counters, a phase label, a gauge, and a histogram —
    /// enough shape to prove the scrape is lossless.
    fn sample_snapshot() -> MetricsSnapshot {
        let shards = (0..2)
            .map(|rank| {
                let rec = MetricsRecorder::for_rank(rank);
                rec.counter("comm_send_messages", Some(Phase::Shift))
                    .add(3 + rank as u64);
                rec.counter("compute_flops", None).add(12_345);
                rec.counter("compute_nanos", None).add(678);
                rec.gauge("mem_particles_hwm", None).record_max(42);
                rec.histogram("comm_send_bytes_hist", Some(Phase::Shift))
                    .observe(512);
                rec.finish()
            })
            .collect();
        MetricsSnapshot::from_shards(shards)
    }

    fn sample_timeline() -> RunTimeline {
        RunTimeline::from_ranks(vec![RankTimeline {
            rank: 0,
            stride: 1,
            samples: (0..4)
                .map(|step| StepSample {
                    step,
                    t_secs: step as f64 * 0.1,
                    dt_secs: 0.1,
                    send_bytes: 256,
                    coll_bytes: 32,
                    blocked_secs: 0.01,
                    flops: 1000,
                    compute_nanos: 900,
                    particles: 50,
                    ..StepSample::default()
                })
                .collect(),
            events: Vec::new(),
            dropped_events: 0,
            failure: None,
        }])
    }

    fn scrape(addr: SocketAddr, request: &str) -> (String, String) {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn http_scrape_round_trips_the_snapshot() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let snap = sample_snapshot();
        server.publish(&snap);

        // Raw TCP client, as the satellite demands: no HTTP library on
        // either side.
        let (head, body) = scrape(
            server.local_addr(),
            "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("Content-Type: text/plain; version=0.0.4"));
        let advertised: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(advertised, body.len());

        // Lossless: parsing the scraped exposition reconstructs the
        // in-memory snapshot exactly.
        let parsed = MetricsSnapshot::parse_prometheus(&body).unwrap();
        assert_eq!(parsed, snap);

        // The new compute gauges are present in the exposition.
        assert!(body.contains("compute_flops"), "{body}");
        server.shutdown();
    }

    #[test]
    fn publish_replaces_the_served_body() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let (_, empty_body) = scrape(
            server.local_addr(),
            "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        let before = MetricsSnapshot::parse_prometheus(&empty_body).unwrap();
        assert!(before.is_empty(), "starts serving an empty snapshot");

        server.publish(&sample_snapshot());
        let (_, body) = scrape(
            server.local_addr(),
            "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(body.contains("comm_send_messages"));
    }

    #[test]
    fn unknown_paths_get_404_and_healthz_answers() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let (head, _) = scrape(
            server.local_addr(),
            "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let (head, body) = scrape(
            server.local_addr(),
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
    }

    #[test]
    fn non_get_methods_are_405_with_allow_header() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        for request in [
            "POST /metrics HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            "DELETE /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            "PUT /nope HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ] {
            let (head, body) = scrape(server.local_addr(), request);
            assert!(head.starts_with("HTTP/1.1 405"), "{request}: {head}");
            assert!(head.contains("Allow: GET, HEAD"), "{head}");
            assert_eq!(body, "method not allowed\n");
        }
        // HEAD stays allowed: headers only, no payload.
        let (head, body) = scrape(
            server.local_addr(),
            "HEAD /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.is_empty());
    }

    #[test]
    fn timeseries_round_trips_the_timeline_as_json() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let tl = sample_timeline();
        server.publish_timeline(&tl);
        let (head, body) = scrape(
            server.local_addr(),
            "GET /timeseries HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Content-Type: application/json"));
        let parsed = RunTimeline::parse(&body).expect("served JSON parses back");
        assert_eq!(parsed.ranks.len(), 1);
        assert_eq!(parsed.ranks[0].samples.len(), 4);
        assert_eq!(parsed.ranks[0].samples[2].send_bytes, 256);
    }

    #[test]
    fn wire_endpoint_round_trips_the_log_and_feeds_the_dashboard() {
        use nbody_wireprobe::{MsgEvent, ProbeKind, RankWireLog};
        let ev = |kind, t: f64| MsgEvent {
            kind,
            src: 0,
            dst: 1,
            comm: 0,
            tag: 0x3000,
            phase: Phase::Shift,
            count: 4,
            bytes: 224,
            t_secs: t,
            step: None,
        };
        let log = WireLog::from_ranks(vec![RankWireLog {
            rank: 0,
            events: vec![ev(ProbeKind::Send, 0.000), ev(ProbeKind::Recv, 0.002)],
            dropped_events: 0,
        }]);

        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        server.publish_timeline(&sample_timeline());
        server.publish_wire(&log);

        // /wire serves the log JSON losslessly.
        let (head, body) = scrape(
            server.local_addr(),
            "GET /wire HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Content-Type: application/json"));
        let parsed = WireLog::parse(&body).expect("served wire JSON parses back");
        assert_eq!(parsed, log);

        // The dashboard gained the channel-latency panel, and a later
        // timeline publish keeps it.
        let dash = "GET /dashboard HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (_, body) = scrape(server.local_addr(), dash);
        assert!(body.contains("channel latency (wire probes)"), "{body}");
        server.publish_timeline(&sample_timeline());
        let (_, body) = scrape(server.local_addr(), dash);
        assert!(body.contains("channel latency (wire probes)"), "{body}");
        server.shutdown();
    }

    #[test]
    fn health_endpoint_serves_the_summary_of_the_latest_timeline() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        let req = "GET /health HTTP/1.1\r\nConnection: close\r\n\r\n";

        // Before any publish: an unmeasured summary, still valid JSON.
        let (head, body) = scrape(server.local_addr(), req);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Content-Type: application/json"));
        assert!(body.contains("\"measured_steps\":0"), "{body}");

        // A health-instrumented timeline flips the summary to measured.
        let mut tl = sample_timeline();
        for s in &mut tl.ranks[0].samples {
            s.energy = -0.5;
            s.momentum = 2e-14;
        }
        server.publish_timeline(&tl);
        let (_, body) = scrape(server.local_addr(), req);
        assert!(body.contains("\"measured_steps\":4"), "{body}");
        assert!(body.contains("\"clean\":true"), "{body}");
        server.shutdown();
    }

    #[test]
    fn dashboard_serves_the_inline_html_page() {
        let server = MetricsServer::start("127.0.0.1:0").unwrap();
        server.publish_timeline(&sample_timeline());
        let (head, body) = scrape(
            server.local_addr(),
            "GET /dashboard HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("Content-Type: text/html"));
        assert!(body.starts_with("<!doctype html>"));
        assert!(body.contains("<svg"), "sparklines present");
    }
}
