//! HTTP conformance and differential tests for the `davide-api`
//! front-end (ISSUE 7 satellite c).
//!
//! Conformance: hostile traffic — malformed request lines, oversized
//! headers/bodies, truncated requests, bad UTF-8 — never panics a
//! worker, always maps to the documented 4xx (or a silent drop), and
//! keep-alive vs `Connection: close` semantics hold.
//!
//! Differential: every `/v1/*` and `/health` response body over the
//! real socket is bit-identical to serialising the same
//! [`QueryService`] answer in-process — the HTTP layer adds transport,
//! never meaning.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

use davide_api::{
    ApiServer, ApiServerConfig, HttpClient, JobProfileRequest, JobRollupRequest, QueryOp,
    QueryRequest, QueryService, QueryServiceConfig, RunningServer, UserRollupRequest,
};
use davide_obs::{flight, GrantStage, ObsHub, StageSet};
use davide_sched::{
    simulate, Fcfs, PlacementStrategy, SimConfig, WorkloadConfig, WorkloadGenerator,
};
use davide_telemetry::gateway::power_topic;
use davide_telemetry::{Resolution, ShardedTsDb};

/// A served fixture: accounting state from a small simulated campaign
/// plus telemetry frames covering one placed job's runtime window.
struct Fixture {
    svc: QueryService<ShardedTsDb>,
    server: RunningServer,
    job_id: u64,
    series: String,
    window: (f64, f64),
}

fn fixture() -> Fixture {
    let hub = ObsHub::monotonic();
    let svc = QueryService::over_store(
        ShardedTsDb::new(4, 1 << 16, 1 << 12),
        &hub,
        QueryServiceConfig::default(),
    );
    let mut gen = WorkloadGenerator::new(WorkloadConfig::default(), 0xBEEF);
    let trace = gen.trace(12);
    let outcome = simulate(
        &trace,
        &mut Fcfs,
        SimConfig::davide().with_placement(PlacementStrategy::FirstFit),
    );
    svc.ingest_outcome(&outcome, |n| power_topic(n, "node"));
    let job = outcome
        .completed
        .iter()
        .find(|j| outcome.placements.get(&j.id).is_some_and(|p| !p.is_empty()))
        .expect("a placed job");
    let (t0, t1) = (job.start_s.unwrap_or(0.0), job.end_s.unwrap_or(0.0));
    let dt = ((t1 - t0) / 256.0).max(1e-3);
    let watts: Vec<f32> = (0..256)
        .map(|i| 1600.0 + 150.0 * ((i as f32) * 0.07).sin())
        .collect();
    {
        let store = svc.store();
        let mut store = store.write();
        for &node in &outcome.placements[&job.id] {
            store.append_frame(&power_topic(node, "node"), t0, dt, &watts);
        }
    }
    let series = power_topic(outcome.placements[&job.id][0], "node");
    let server = ApiServer::start(svc.clone(), ApiServerConfig::default()).expect("server start");
    Fixture {
        svc,
        server,
        job_id: job.id,
        series,
        window: (t0, t1),
    }
}

/// Send raw bytes on a fresh connection and return everything the
/// server answers before closing (empty if it just drops us).
fn raw_exchange(fx: &Fixture, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(fx.server.addr()).expect("connect");
    s.write_all(bytes).expect("write");
    s.shutdown(Shutdown::Write).expect("shutdown write");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    out
}

fn status_of(response: &str) -> Option<u16> {
    response.split(' ').nth(1)?.parse().ok()
}

// ---------------------------------------------------------------- //
// Differential: HTTP body == direct service answer, byte for byte. //
// ---------------------------------------------------------------- //

#[test]
fn every_endpoint_is_bit_identical_to_the_direct_call() {
    let fx = fixture();
    let (t0, t1) = fx.window;
    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");

    let (status, body) = c.request("GET", "/health", "").expect("health");
    assert_eq!(status, 200);
    assert_eq!(body, serde_json::to_string(&fx.svc.health().to_value()));

    // Every op over the placed job's series, plus a wildcard filter.
    let mut queries: Vec<QueryRequest> = [
        QueryOp::Points,
        QueryOp::Mean,
        QueryOp::Energy,
        QueryOp::Last,
    ]
    .into_iter()
    .map(|op| QueryRequest::series(op, &fx.series, Resolution::Raw, t0, t1))
    .collect();
    queries.push(QueryRequest::filter(
        QueryOp::Energy,
        "davide/+/power/node",
        Resolution::Raw,
        t0,
        t1,
    ));
    for q in &queries {
        let wire = serde_json::to_string(&q.to_value());
        let (status, body) = c.request("POST", "/v1/query", &wire).expect("query");
        assert_eq!(status, 200, "query {wire}");
        let direct = fx.svc.query(q).expect("direct query");
        assert_eq!(body, serde_json::to_string(&direct.to_value()), "{wire}");
    }

    for req in [
        UserRollupRequest { user_id: None },
        UserRollupRequest {
            user_id: Some(
                fx.svc
                    .rollup_user(&UserRollupRequest { user_id: None })
                    .unwrap()
                    .users[0]
                    .user_id,
            ),
        },
    ] {
        let wire = serde_json::to_string(&req.to_value());
        let (status, body) = c.request("POST", "/v1/rollup/user", &wire).expect("rollup");
        assert_eq!(status, 200);
        let direct = fx.svc.rollup_user(&req).expect("direct rollup");
        assert_eq!(body, serde_json::to_string(&direct.to_value()));
    }

    for measured in [false, true] {
        let req = JobRollupRequest {
            job_id: fx.job_id,
            measured,
        };
        let wire = serde_json::to_string(&req.to_value());
        let (status, body) = c
            .request("POST", "/v1/rollup/job", &wire)
            .expect("job rollup");
        assert_eq!(status, 200);
        let direct = fx.svc.rollup_job(&req).expect("direct job rollup");
        assert_eq!(body, serde_json::to_string(&direct.to_value()));
    }

    let req = JobProfileRequest {
        job_id: fx.job_id,
        decimate: 4,
    };
    let wire = serde_json::to_string(&req.to_value());
    let (status, body) = c
        .request("POST", "/v1/profile/job", &wire)
        .expect("profile");
    assert_eq!(status, 200);
    let direct = fx.svc.profile_job(&req).expect("direct profile");
    assert_eq!(body, serde_json::to_string(&direct.to_value()));
}

#[test]
fn observability_endpoints_are_bit_identical_to_the_direct_call() {
    let fx = fixture();

    // Attach two rack hubs carrying deterministic span, flight and
    // counter state — the shape a federated harness leaves behind.
    for rack in 0..2u64 {
        let (hub, _clock) = ObsHub::manual();
        let t0 = 100.0 * (rack + 1) as f64;
        for (k, stage) in [
            GrantStage::FedSplit,
            GrantStage::BridgeDeliver,
            GrantStage::RackReceive,
            GrantStage::CapCommand,
            GrantStage::PowerCrossing,
        ]
        .into_iter()
        .enumerate()
        {
            hub.grants.stamp(7, stage, t0 + k as f64);
        }
        hub.grants.close(7);
        let cap = 8_000.0 + rack as f64;
        let t_ns = (t0 * 1e9) as u64;
        hub.flight
            .push(t_ns, GrantStage::FedSplit.name(), "", 7, cap.to_bits());
        hub.flight.push(
            t_ns + 5,
            GrantStage::CapCommand.name(),
            "",
            7,
            cap.to_bits(),
        );
        hub.flight.push(
            t_ns + 9,
            flight::kind::VIOLATION,
            "INV-CAP",
            0,
            t0.to_bits(),
        );
        hub.registry.counter("rack_jobs_total").add(3 + rack);
        fx.svc.attach_rack_obs(&format!("rack{rack:02}"), &hub);
    }

    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");

    let (status, body) = c.request("GET", "/v1/trace/grants", "").expect("trace");
    assert_eq!(status, 200);
    let direct = fx.svc.trace_grants();
    assert_eq!(body, serde_json::to_string(&direct.to_value()));
    assert_eq!(direct.racks.len(), 2);
    assert_eq!(direct.racks[0].completed, 1);
    assert_eq!(direct.racks[0].spans.len(), 1);
    assert_eq!(direct.racks[0].spans[0].events.len(), 2);

    let (status, body) = c.request("GET", "/v1/obs/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    let direct = fx.svc.obs_metrics();
    assert_eq!(body, serde_json::to_string(&direct.to_value()));
    // Federation rollup: counters sum across the attached racks.
    let jobs = direct
        .counters
        .iter()
        .find(|(n, _)| n == "rack_jobs_total")
        .expect("rolled up");
    assert_eq!(jobs.1, 3 + 4);

    let (status, body) = c.request("GET", "/v1/obs/flight", "").expect("flight");
    assert_eq!(status, 200);
    let direct = fx.svc.obs_flight();
    assert_eq!(body, serde_json::to_string(&direct.to_value()));
    assert_eq!(direct.racks[1].events.len(), 3);
    assert_eq!(direct.racks[1].events[2].kind, "violation");
    assert_eq!(direct.racks[1].events[2].label, "INV-CAP");

    // Stability: a second exchange is byte-identical (the service's
    // own request counters never leak into these bodies).
    let (_, again) = c.request("GET", "/v1/obs/flight", "").expect("again");
    assert_eq!(again, body);

    // Wrong method → 405 with the GET allow set.
    for path in ["/v1/trace/grants", "/v1/obs/metrics", "/v1/obs/flight"] {
        let raw = format!("POST {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let resp = raw_exchange(&fx, raw.as_bytes());
        assert_eq!(status_of(&resp), Some(405), "{path} → {resp:?}");
        assert!(resp.contains("Allow: GET"), "{resp:?}");
    }
}

#[test]
fn observability_endpoints_answer_empty_without_attached_racks() {
    let fx = fixture();
    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");
    let (status, body) = c.request("GET", "/v1/trace/grants", "").expect("trace");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"racks":[],"version":"v1"}"#);
    let (status, body) = c.request("GET", "/v1/obs/metrics", "").expect("metrics");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"counters":[],"racks":[],"version":"v1"}"#);
    let (status, body) = c.request("GET", "/v1/obs/flight", "").expect("flight");
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"racks":[],"version":"v1"}"#);
}

#[test]
fn service_errors_are_bit_identical_too() {
    let fx = fixture();

    // A structurally valid JSON body that fails request validation:
    // the HTTP answer is the exact `from_value` error, serialised.
    let wire = r#"{"op":"mean"}"#;
    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");
    let (status, body) = c.request("POST", "/v1/query", wire).expect("query");
    let parsed = serde_json::from_str(wire).expect("valid JSON");
    let err = QueryRequest::from_value(&parsed).expect_err("must not validate");
    assert_eq!(status, err.status());
    assert_eq!(status, 400);
    assert_eq!(body, serde_json::to_string(&err.to_value()));

    // Unknown user → 404, body identical to the direct error value.
    let r = UserRollupRequest {
        user_id: Some(u32::MAX),
    };
    let wire = serde_json::to_string(&r.to_value());
    let mut c = HttpClient::connect(fx.server.addr()).expect("reconnect");
    let (status, body) = c.request("POST", "/v1/rollup/user", &wire).expect("rollup");
    let err = fx.svc.rollup_user(&r).expect_err("must not resolve");
    assert_eq!(status, err.status());
    assert_eq!(status, 404);
    assert_eq!(body, serde_json::to_string(&err.to_value()));

    // Unknown job id, same property (404 keeps the connection open).
    let r = JobRollupRequest {
        job_id: u64::MAX,
        measured: false,
    };
    let wire = serde_json::to_string(&r.to_value());
    let (status, body) = c.request("POST", "/v1/rollup/job", &wire).expect("rollup");
    let err = fx.svc.rollup_job(&r).expect_err("must not resolve");
    assert_eq!(status, err.status());
    assert_eq!(body, serde_json::to_string(&err.to_value()));
}

// ------------------------------------------------------------- //
// Conformance: hostile traffic maps to definite 4xx, no panics. //
// ------------------------------------------------------------- //

#[test]
fn malformed_request_lines_get_400_and_never_panic() {
    let fx = fixture();
    for bad in [
        "GARBAGE\r\n\r\n",
        "GET\r\n\r\n",
        "GET /health\r\n\r\n",
        "GET /health HTTP/1.1 extra\r\n\r\n",
        "GET /health HTTP/2.0\r\n\r\n",
        "GET health HTTP/1.1\r\n\r\n",
        " /health HTTP/1.1\r\n\r\n",
        "GET /health HTTP/1.1\r\nno-colon-header\r\n\r\n",
        "GET /health HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        "GET /health HTTP/1.1\r\nContent-Length: -3\r\n\r\n",
    ] {
        let resp = raw_exchange(&fx, bad.as_bytes());
        assert_eq!(status_of(&resp), Some(400), "request {bad:?} → {resp:?}");
    }
    // A worker survives all of that and still serves clean requests.
    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");
    let (status, _) = c.request("GET", "/health", "").expect("health");
    assert_eq!(status, 200);
}

#[test]
fn oversized_headers_get_431() {
    let fx = fixture();
    let huge = format!(
        "GET /health HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(9_000)
    );
    let resp = raw_exchange(&fx, huge.as_bytes());
    assert_eq!(status_of(&resp), Some(431));
}

#[test]
fn oversized_bodies_get_413_without_reading_them() {
    let fx = fixture();
    // Only the header block is sent: the server must reject on the
    // declared length, not wait for 2 MiB that will never arrive.
    let decl = format!(
        "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        2 << 20
    );
    let resp = raw_exchange(&fx, decl.as_bytes());
    assert_eq!(status_of(&resp), Some(413));
}

#[test]
fn truncated_requests_are_dropped_and_the_worker_survives() {
    let fx = fixture();
    // Body shorter than declared, then half-close: no sane answer
    // exists, so the server just drops the connection.
    let resp = raw_exchange(
        &fx,
        b"POST /v1/query HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"op\"",
    );
    assert!(
        resp.is_empty(),
        "truncated body must be dropped, got {resp:?}"
    );
    // Peer death mid-header is the same story.
    let resp = raw_exchange(&fx, b"GET /health HT");
    assert!(
        resp.is_empty(),
        "truncated header must be dropped, got {resp:?}"
    );
    // The pool is intact.
    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");
    let (status, _) = c.request("GET", "/health", "").expect("health");
    assert_eq!(status, 200);
}

#[test]
fn non_utf8_and_non_json_bodies_get_400() {
    let fx = fixture();
    let mut raw = b"POST /v1/query HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec();
    raw.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
    let resp = raw_exchange(&fx, &raw);
    assert_eq!(status_of(&resp), Some(400), "non-UTF-8 body → {resp:?}");

    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");
    let (status, _) = c
        .request("POST", "/v1/query", "{not json")
        .expect("request");
    assert_eq!(status, 400);
}

#[test]
fn wrong_methods_get_405_with_an_allow_header() {
    let fx = fixture();
    let resp = raw_exchange(&fx, b"POST /health HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert_eq!(status_of(&resp), Some(405));
    assert!(resp.contains("Allow: GET"), "{resp:?}");

    let resp = raw_exchange(&fx, b"GET /v1/query HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&resp), Some(405));
    assert!(resp.contains("Allow: POST"), "{resp:?}");
}

#[test]
fn keep_alive_serves_many_requests_and_404_does_not_close() {
    let fx = fixture();
    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");
    for _ in 0..8 {
        let (status, _) = c.request("GET", "/health", "").expect("health");
        assert_eq!(status, 200);
    }
    // 404 is a routine miss, not a protocol violation: the connection
    // stays open and keeps serving.
    let (status, _) = c.request("GET", "/v1/nope", "").expect("miss");
    assert_eq!(status, 404);
    let (status, _) = c.request("GET", "/health", "").expect("health after miss");
    assert_eq!(status, 200);
}

#[test]
fn connection_close_and_http10_semantics_hold() {
    let fx = fixture();
    // Explicit close: the server honours it and says so.
    let resp = raw_exchange(&fx, b"GET /health HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
    assert!(resp.contains("Connection: close"), "{resp:?}");

    // HTTP/1.0 defaults to close and is answered in kind.
    let resp = raw_exchange(&fx, b"GET /health HTTP/1.0\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.0 200"), "{resp:?}");
    assert!(resp.contains("Connection: close"), "{resp:?}");

    // An error answer closes too: the next request on the same socket
    // cannot be served.
    let mut c = HttpClient::connect(fx.server.addr()).expect("connect");
    let (status, _) = c
        .request("POST", "/v1/query", "{not json")
        .expect("bad json");
    assert_eq!(status, 400);
    assert!(
        c.request("GET", "/health", "").is_err(),
        "400 must close the connection"
    );
}
