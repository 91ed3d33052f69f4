//! End-to-end tests of the HTTP service: a real server on an ephemeral
//! loopback port, driven through the bundled client.
//!
//! The acceptance property of the serving layer is pinned here: warm
//! (cached) responses are **byte-identical** to cold ones, repeated
//! requests are served without recomputing any cell (verified through
//! `/stats`), and `/matrix` cells agree exactly with a direct
//! `Pipeline::run_matrix` on the same configurations.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use distvliw_arch::MachineConfig;
use distvliw_core::{Heuristic, Pipeline, Solution};
use distvliw_serve::client::{self, Client};
use distvliw_serve::engine::ServeEngine;
use distvliw_serve::event::EventConfig;
use distvliw_serve::json;
use distvliw_serve::Server;

/// Spawns a server on an ephemeral port; returns its base URL and the
/// event-loop thread (joined after `/shutdown`).
fn spawn_server() -> (String, std::thread::JoinHandle<()>) {
    spawn_server_with(EventConfig::default())
}

/// Spawns a server with explicit connection-layer sizing.
fn spawn_server_with(config: EventConfig) -> (String, std::thread::JoinHandle<()>) {
    let engine = ServeEngine::new(MachineConfig::paper_baseline(), 256);
    let server = Server::bind_with("127.0.0.1:0", engine, config).expect("bind ephemeral port");
    let base = format!("http://{}", server.local_addr());
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (base, handle)
}

fn shutdown(base: &str, handle: std::thread::JoinHandle<()>) {
    let resp = client::post(base, "/shutdown", "").expect("shutdown");
    assert_eq!(resp.status, 200);
    handle.join().expect("server thread");
}

fn stats_field(base: &str, path: &[&str]) -> u64 {
    let resp = client::get(base, "/stats").expect("stats");
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).expect("stats json");
    let mut cur = &v;
    for key in path {
        cur = cur.get(key).unwrap_or_else(|| panic!("missing {key}"));
    }
    cur.as_u64().expect("integer stat")
}

#[test]
fn health_stats_and_unknown_routes() {
    let (base, handle) = spawn_server();

    let resp = client::get(&base, "/healthz").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.starts_with(b"{\"status\":\"ok\"}"));

    let resp = client::get(&base, "/nope").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::post(&base, "/fig6", "").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client::post(&base, "/matrix", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    let resp = client::post(&base, "/matrix", r#"{"suites":["wat"]}"#).unwrap();
    assert_eq!(resp.status, 400);
    let resp = client::post(
        &base,
        "/matrix",
        r#"{"suites":["gsmdec"],"machine":{"interleave_bytes":16}}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 400, "invalid machine must be rejected");

    // Index lists the routes.
    let resp = client::get(&base, "/").unwrap();
    assert_eq!(resp.status, 200);
    assert!(String::from_utf8_lossy(&resp.body).contains("/matrix"));

    shutdown(&base, handle);
}

#[test]
fn keep_alive_serves_sequential_requests() {
    let (base, handle) = spawn_server();
    let mut client = Client::connect(&base).unwrap();
    for _ in 0..3 {
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
    }
    shutdown(&base, handle);
}

#[test]
fn matrix_is_cached_byte_identical_and_matches_run_matrix() {
    let (base, handle) = spawn_server();
    let body =
        r#"{"suites":["gsmdec","jpegenc"],"solutions":["mdc","ddgt"],"heuristics":["prefclus"]}"#;

    let cold = client::post(&base, "/matrix", body).unwrap();
    assert_eq!(cold.status, 200);
    let computed_after_cold = stats_field(&base, &["computed_cells"]);
    assert_eq!(
        computed_after_cold, 4,
        "2 suites × 2 solutions × 1 heuristic"
    );

    // Warm repeat: byte-identical, all hits, no recompute.
    let hits_before = stats_field(&base, &["cache", "hits"]);
    let warm = client::post(&base, "/matrix", body).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.body, cold.body,
        "cached response must be byte-identical"
    );
    assert_eq!(
        stats_field(&base, &["computed_cells"]),
        computed_after_cold,
        "repeat must not recompute"
    );
    assert!(stats_field(&base, &["cache", "hits"]) >= hits_before + 4);

    // The served numbers equal a direct cold run_matrix.
    let suites = vec![
        distvliw_mediabench::suite("gsmdec").unwrap(),
        distvliw_mediabench::suite("jpegenc").unwrap(),
    ];
    let direct = Pipeline::new(MachineConfig::paper_baseline()).run_matrix(
        &suites,
        &[Solution::Mdc, Solution::Ddgt],
        &[Heuristic::PrefClus],
    );
    let served = json::parse(std::str::from_utf8(&warm.body).unwrap()).unwrap();
    let cells = served.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), direct.len());
    for (cell, direct_cell) in cells.iter().zip(&direct) {
        assert_eq!(
            cell.get("suite").unwrap().as_str().unwrap(),
            direct_cell.suite
        );
        assert_eq!(
            cell.get("solution").unwrap().as_str().unwrap(),
            direct_cell.solution.to_string()
        );
        assert_eq!(cell.get("ok").unwrap().as_bool(), Some(true));
        let direct_stats = direct_cell.stats.as_ref().expect("direct cell runs");
        assert_eq!(
            cell.get("total_cycles").unwrap().as_u64().unwrap(),
            direct_stats.total_cycles(),
            "{}/{}",
            direct_cell.suite,
            direct_cell.solution
        );
        assert_eq!(
            cell.get("comm_ops").unwrap().as_u64().unwrap(),
            direct_stats.total.comm_ops
        );
        assert_eq!(
            cell.get("kernels").unwrap().as_array().unwrap().len(),
            direct_stats.kernels.len()
        );
    }
    shutdown(&base, handle);
}

#[test]
fn figure_endpoint_repeat_is_a_pure_cache_hit() {
    let (base, handle) = spawn_server();

    // Use a machine override via /matrix first to prove distinct keys
    // coexist, then the figure path. (Keeps this test to one server.)
    let cold = client::get(&base, "/table4").unwrap();
    assert_eq!(cold.status, 200);
    let computed = stats_field(&base, &["computed_cells"]);
    assert!(computed > 0);

    let warm = client::get(&base, "/table4").unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body);
    assert_eq!(
        stats_field(&base, &["computed_cells"]),
        computed,
        "warm /table4 must be assembled purely from cache"
    );

    // /stats surfaces the per-cluster counters of everything computed.
    let resp = client::get(&base, "/stats").unwrap();
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let cluster = v.get("cluster").unwrap();
    let accesses = cluster.get("accesses").unwrap().as_array().unwrap();
    assert_eq!(accesses.len(), 4, "four clusters on the paper machine");
    let total: u64 = accesses.iter().map(|a| a.as_u64().unwrap()).sum();
    assert!(total > 0, "computed cells accumulate cluster usage");
    assert!(cluster.get("imbalance").unwrap().as_f64().unwrap() >= 1.0);
    assert!(cluster.get("mem_bus_grants").unwrap().as_u64().unwrap() > 0);

    shutdown(&base, handle);
}

#[test]
fn matrix_interleave_override_changes_the_run() {
    let (base, handle) = spawn_server();
    let body = |interleave: &str| {
        format!(
            r#"{{"suites":["epicdec"],"solutions":["mdc"],"heuristics":["prefclus"]{interleave}}}"#
        )
    };
    let plain = client::post(&base, "/matrix", &body("")).unwrap();
    assert_eq!(plain.status, 200);
    let overridden = client::post(
        &base,
        "/matrix",
        &body(r#","machine":{"interleave_bytes":2}"#),
    )
    .unwrap();
    assert_eq!(overridden.status, 200);

    // The override must reach the pipeline, matching a direct run on a
    // re-interleaved suite (not merely perturb the cache key).
    let mut suite = distvliw_mediabench::suite("epicdec").unwrap();
    suite.interleave_bytes = 2;
    let direct = Pipeline::new(MachineConfig::paper_baseline())
        .run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)
        .unwrap();
    let v = json::parse(std::str::from_utf8(&overridden.body).unwrap()).unwrap();
    let cell = &v.get("cells").unwrap().as_array().unwrap()[0];
    assert_eq!(
        cell.get("total_cycles").unwrap().as_u64().unwrap(),
        direct.total_cycles()
    );
    assert_ne!(
        overridden.body, plain.body,
        "a different interleave must change the results"
    );
    shutdown(&base, handle);
}

#[test]
fn sweep_is_cached_and_matches_a_direct_pipeline_sweep() {
    use distvliw_core::experiments::{sweep, sweep_default_suites, SweepSpec, SWEEP_SOLUTIONS};

    let (base, handle) = spawn_server();

    let cold = client::get(&base, "/sweep").unwrap();
    assert_eq!(cold.status, 200);
    let computed = stats_field(&base, &["computed_cells"]);
    assert!(computed > 0);

    // Warm repeat: byte-identical, assembled purely from cache hits.
    let hits_before = stats_field(&base, &["cache", "hits"]);
    let warm = client::get(&base, "/sweep").unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, cold.body, "warm /sweep must be byte-identical");
    assert_eq!(
        stats_field(&base, &["computed_cells"]),
        computed,
        "warm /sweep must not recompute any cell"
    );
    assert_eq!(
        stats_field(&base, &["cache", "hits"]),
        hits_before + computed,
        "every cell of the warm sweep is a cache hit"
    );

    // The served rows equal a direct (uncached) pipeline sweep.
    let spec = SweepSpec::default();
    let direct = sweep(
        &MachineConfig::paper_baseline(),
        &sweep_default_suites(),
        &spec,
    )
    .unwrap()
    .rows;
    let served = json::parse(std::str::from_utf8(&warm.body).unwrap()).unwrap();
    let rows = served.get("rows").unwrap().as_array().unwrap();
    assert_eq!(
        rows.len(),
        spec.cluster_counts.len() * spec.mem_buses.len() * SWEEP_SOLUTIONS.len()
    );
    assert_eq!(rows.len(), direct.len());
    for (row, want) in rows.iter().zip(&direct) {
        let ctx = format!(
            "{} clusters, {}@{} buses, {}",
            want.n_clusters, want.mem_buses.count, want.mem_buses.latency, want.solution
        );
        assert_eq!(
            row.get("n_clusters").unwrap().as_u64().unwrap(),
            want.n_clusters as u64,
            "{ctx}"
        );
        assert_eq!(
            row.get("solution").unwrap().as_str().unwrap(),
            want.solution.to_string(),
            "{ctx}"
        );
        assert_eq!(
            row.get("total_cycles").unwrap().as_u64().unwrap(),
            want.total_cycles,
            "{ctx}"
        );
        assert_eq!(
            row.get("bus_busy_cycles").unwrap().as_u64().unwrap(),
            want.bus_busy_cycles,
            "{ctx}"
        );
        assert_eq!(
            row.get("violations").unwrap().as_u64().unwrap(),
            want.violations,
            "{ctx}"
        );
        assert_eq!(
            row.get("imbalance").unwrap().as_f64().unwrap(),
            want.imbalance(),
            "{ctx}"
        );
        let shares = row.get("accesses_by_cluster").unwrap().as_array().unwrap();
        assert_eq!(shares.len(), want.n_clusters, "{ctx}");
        for (c, share) in shares.iter().enumerate() {
            assert_eq!(
                share.as_u64().unwrap(),
                want.cluster.accesses_of(c),
                "{ctx} cluster {c}"
            );
        }
    }
    shutdown(&base, handle);
}

#[test]
fn matrix_accepts_bundled_trace_suites() {
    let (base, handle) = spawn_server();
    let body =
        r#"{"suites":["fir8","ptrchase"],"solutions":["free","mdc"],"heuristics":["prefclus"]}"#;
    let resp = client::post(&base, "/matrix", body).unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let cells = v.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), 4);
    for cell in cells {
        assert_eq!(cell.get("ok").unwrap().as_bool(), Some(true));
        assert!(cell.get("total_cycles").unwrap().as_u64().unwrap() > 0);
    }
    // Direct parity for one trace cell.
    let suite = distvliw_mediabench::trace_suites()
        .into_iter()
        .find(|s| s.name == "fir8")
        .unwrap();
    let direct = Pipeline::new(MachineConfig::paper_baseline())
        .run_suite(&suite, Solution::Free, Heuristic::PrefClus)
        .unwrap();
    assert_eq!(
        cells[0].get("total_cycles").unwrap().as_u64().unwrap(),
        direct.total_cycles()
    );
    shutdown(&base, handle);
}

/// Collects `(name, dur_us)` over a `?trace=1` span tree.
fn walk_spans(span: &json::Json, out: &mut Vec<(String, u64)>) {
    let name = span.get("name").unwrap().as_str().unwrap().to_string();
    let dur = span.get("dur_us").unwrap().as_u64().unwrap();
    out.push((name, dur));
    if let Some(children) = span.get("children").and_then(json::Json::as_array) {
        for child in children {
            walk_spans(child, out);
        }
    }
}

#[test]
fn trace_query_reports_phase_spans_and_cache_hits_skip_compute() {
    let (base, handle) = spawn_server();

    // Cold: the tree must show the compute phases under the request
    // root, and the wrapped response must equal the plain one.
    let cold = client::post(
        &base,
        "/matrix?trace=1",
        r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
    )
    .unwrap();
    assert_eq!(cold.status, 200);
    let v = json::parse(std::str::from_utf8(&cold.body).unwrap()).unwrap();
    assert!(v.get("dropped_spans").unwrap().as_u64().unwrap() == 0);
    let tree = v.get("trace").unwrap().as_array().unwrap();
    let mut spans = Vec::new();
    for root in tree {
        walk_spans(root, &mut spans);
    }
    let total = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .sum()
    };
    let count = |name: &str| spans.iter().filter(|(n, _)| n == name).count();
    assert_eq!(count("request"), 1, "exactly one root request span");
    assert_eq!(count("parse"), 1);
    assert!(count("cache_lookup") >= 1);
    assert!(count("compile") >= 1, "cold run must compile");
    assert!(count("sim") >= 1, "cold run must simulate");
    assert!(total("compile") > 0 && total("sim") > 0);

    // Warm repeat of the same body: pure cache hit — zero compile/sim
    // time, and the inner response byte-identical to the cold inner.
    let warm = client::post(
        &base,
        "/matrix?trace=1",
        r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
    )
    .unwrap();
    assert_eq!(warm.status, 200);
    let w = json::parse(std::str::from_utf8(&warm.body).unwrap()).unwrap();
    let tree = w.get("trace").unwrap().as_array().unwrap();
    let mut spans = Vec::new();
    for root in tree {
        walk_spans(root, &mut spans);
    }
    assert!(
        !spans.iter().any(|(n, _)| n == "compile" || n == "sim"),
        "cache hit must not compile or simulate, got {spans:?}"
    );
    assert!(
        spans
            .iter()
            .any(|(n, _)| n == "cache_lookup" || n == "flight_wait"),
        "cache hit must record its lookup"
    );
    assert_eq!(
        v.get("response").unwrap().render(),
        w.get("response").unwrap().render(),
        "traced warm response must wrap the identical inner body"
    );

    // Without ?trace=1 the body is NOT wrapped.
    let plain = client::post(
        &base,
        "/matrix",
        r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
    )
    .unwrap();
    let p = json::parse(std::str::from_utf8(&plain.body).unwrap()).unwrap();
    assert!(p.get("trace").is_none());
    assert!(p.get("cells").is_some());

    shutdown(&base, handle);
}

#[test]
fn metrics_exposition_has_families_from_every_layer() {
    let (base, handle) = spawn_server();

    // Drive one computing request so sched/sim counters exist.
    let resp = client::post(
        &base,
        "/matrix",
        r#"{"suites":["fir8"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 200);

    let resp = client::get(&base, "/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let text = std::str::from_utf8(&resp.body).unwrap();

    let mut families = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            families.push(parts.next().unwrap().to_string());
            assert!(
                matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                "bad TYPE line: {line}"
            );
        } else if !line.starts_with('#') && !line.is_empty() {
            let value = line.rsplit(' ').next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample line: {line}"
            );
        }
    }
    for required in [
        // serve layer
        "serve_http_requests_total",
        "serve_http_request_duration_us",
        "serve_cache_hits_total",
        "serve_cache_misses_total",
        "serve_cache_entries",
        "serve_cells_computed_total",
        "serve_uptime_seconds",
        // sched layer
        "sched_schedules_total",
        "sched_iis_tried_total",
        "sched_schedule_duration_us",
        // sim layer
        "sim_kernels_total",
        "sim_cycles_total",
        "sim_kernel_duration_us",
    ] {
        assert!(
            families.iter().any(|f| f == required),
            "missing family {required}; have {families:?}"
        );
    }
    assert!(families.len() >= 15, "want >=15 families, got {families:?}");

    // The snapshot is deterministic: two scrapes expose the same
    // families in the same order (sample values may advance).
    let again = client::get(&base, "/metrics").unwrap();
    let families_again: Vec<&str> = std::str::from_utf8(&again.body)
        .unwrap()
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|r| r.split_whitespace().next())
        .collect();
    assert_eq!(families, families_again);

    // GET only.
    let resp = client::post(&base, "/metrics", "").unwrap();
    assert_eq!(resp.status, 405);

    shutdown(&base, handle);
}

#[test]
fn debug_trace_returns_recent_spans() {
    let (base, handle) = spawn_server();

    for _ in 0..3 {
        let resp = client::get(&base, "/healthz").unwrap();
        assert_eq!(resp.status, 200);
    }
    let resp = client::get(&base, "/debug/trace?n=8").unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let spans = v.get("spans").unwrap().as_array().unwrap();
    assert!(!spans.is_empty() && spans.len() <= 8);
    assert_eq!(
        v.get("count").unwrap().as_u64().unwrap(),
        spans.len() as u64
    );
    for span in spans {
        assert!(span.get("id").unwrap().as_u64().unwrap() > 0);
        assert!(span.get("name").unwrap().as_str().is_some());
        assert!(span.get("start_us").unwrap().as_u64().is_some());
    }
    // The request spans recorded by the pings above are visible.
    let has_request = spans
        .iter()
        .any(|s| s.get("name").unwrap().as_str() == Some("request"));
    assert!(has_request, "global rings must hold the request spans");

    shutdown(&base, handle);
}

#[test]
fn stats_reports_uptime_build_and_counters() {
    let (base, handle) = spawn_server();

    let resp = client::get(&base, "/stats").unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert!(v.get("uptime_secs").unwrap().as_u64().is_some());
    let build = v.get("build").unwrap();
    assert_eq!(
        build.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(build.get("git").unwrap().as_str().is_some());
    // The registry snapshot is an object of integer counters.
    let counters = v.get("counters").unwrap();
    assert!(
        counters
            .get("serve_connections_total")
            .and_then(json::Json::as_u64)
            .is_some_and(|n| n >= 1),
        "this very request rode an accepted connection"
    );

    shutdown(&base, handle);
}

#[test]
fn queue_overflow_is_answered_503_and_the_connection_survives() {
    let (base, handle) = spawn_server_with(EventConfig {
        workers: 1,
        max_conns: 64,
        queue_depth: 1,
    });

    // Occupy the single worker with a slow cold sweep and the single
    // queue slot with a cold matrix cell.
    let base_a = base.clone();
    let slow = std::thread::spawn(move || client::get(&base_a, "/sweep").unwrap());
    std::thread::sleep(Duration::from_millis(200));
    let base_b = base.clone();
    let queued = std::thread::spawn(move || {
        client::post(
            &base_b,
            "/matrix",
            r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));

    // The next request finds the queue full: 503, retry-after, and the
    // connection stays usable for the retry.
    let mut probe = Client::connect(&base).unwrap();
    let resp = probe.get("/healthz").unwrap();
    if resp.status == 503 {
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(
            !resp.closes(),
            "queue-full rejection must keep the connection open"
        );
        let mut ok = false;
        for _ in 0..100 {
            std::thread::sleep(Duration::from_millis(100));
            let retry = probe.get("/healthz").unwrap();
            if retry.status == 200 {
                ok = true;
                break;
            }
            assert_eq!(retry.status, 503, "only overload 503s are acceptable");
        }
        assert!(ok, "the probe must eventually be admitted");
    } else {
        // The compute won the race and drained the queue first; the
        // request must then simply have succeeded.
        assert_eq!(resp.status, 200);
    }

    assert_eq!(slow.join().expect("sweep client").status, 200);
    assert_eq!(queued.join().expect("matrix client").status, 200);
    shutdown(&base, handle);
}

/// Occurrences of `needle` in `haystack` (responses are counted by
/// their status-line prefix; the JSON bodies never contain it).
fn count_occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    haystack
        .windows(needle.len())
        .filter(|w| *w == needle)
        .count()
}

#[test]
fn pipelined_inline_responses_are_answered_iteratively() {
    let (base, handle) = spawn_server_with(EventConfig {
        workers: 1,
        max_conns: 64,
        queue_depth: 1,
    });

    // Occupy the single worker with a slow cold sweep and the single
    // queue slot with a cold matrix cell, so pipelined requests are
    // answered inline (queue-full 503) by the loop thread itself.
    let base_a = base.clone();
    let slow = std::thread::spawn(move || client::get(&base_a, "/sweep").unwrap());
    std::thread::sleep(Duration::from_millis(200));
    let base_b = base.clone();
    let queued = std::thread::spawn(move || {
        client::post(
            &base_b,
            "/matrix",
            r#"{"suites":["gsmdec"],"solutions":["mdc"],"heuristics":["prefclus"]}"#,
        )
        .unwrap()
    });
    std::thread::sleep(Duration::from_millis(200));

    // One burst of pipelined keep-alive requests. The loop must answer
    // every one of them — iteratively, not one stack frame per
    // buffered request (the old recursive flush→dispatch chain grew
    // the loop thread's stack with each inline answer).
    const N: usize = 1000;
    let host = client::host_of(&base);
    let mut raw = TcpStream::connect(&host).unwrap();
    let mut burst = Vec::new();
    for _ in 0..N {
        burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
    }
    raw.write_all(&burst).unwrap();

    raw.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    while count_occurrences(&bytes, b"HTTP/1.1 ") < N {
        let n = raw.read(&mut chunk).unwrap();
        assert!(
            n > 0,
            "server closed the connection after {} of {N} responses",
            count_occurrences(&bytes, b"HTTP/1.1 ")
        );
        bytes.extend_from_slice(&chunk[..n]);
    }
    let ok = count_occurrences(&bytes, b"HTTP/1.1 200 ");
    let rejected = count_occurrences(&bytes, b"HTTP/1.1 503 ");
    assert_eq!(
        ok + rejected,
        N,
        "every pipelined request must be answered 200 or overload-503"
    );
    assert_eq!(
        count_occurrences(&bytes, b"connection: close"),
        0,
        "inline answers on a keep-alive connection must not close it"
    );

    drop(raw);
    assert_eq!(slow.join().expect("sweep client").status, 200);
    assert_eq!(queued.join().expect("matrix client").status, 200);
    shutdown(&base, handle);
}

#[test]
fn bare_crlf_stream_is_skipped_before_a_real_request() {
    let (base, handle) = spawn_server();
    let host = client::host_of(&base);

    // Stray blank lines between requests are skipped per RFC 7230
    // §3.5 — including a large run split across many reads (the event
    // loop drains them instead of buffering them for the whole
    // request window).
    let mut raw = TcpStream::connect(&host).unwrap();
    for _ in 0..16 {
        raw.write_all(&b"\r\n".repeat(2048)).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    raw.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");

    shutdown(&base, handle);
}

#[test]
fn http_1_0_and_chunked_requests_are_answered_correctly_end_to_end() {
    let (base, handle) = spawn_server();
    let host = client::host_of(&base);

    // An HTTP/1.0 request without `Connection: keep-alive` is answered
    // and the connection closed (it used to hang until the idle reap).
    let mut raw = TcpStream::connect(&host).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    // `Connection: keep-alive, close` must close per RFC 7230 §6.1.
    let mut raw = TcpStream::connect(&host).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.1\r\nconnection: keep-alive, close\r\n\r\n")
        .unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    // Chunked request bodies are rejected up front with 501.
    let mut raw = TcpStream::connect(&host).unwrap();
    raw.write_all(
        b"POST /matrix HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n4\r\nwat!\r\n0\r\n\r\n",
    )
    .unwrap();
    let mut bytes = Vec::new();
    raw.read_to_end(&mut bytes).unwrap();
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.starts_with("HTTP/1.1 501 "), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    shutdown(&base, handle);
}

#[test]
fn fig6_fractions_match_experiments_module() {
    // The serve-side figure assembly must agree with the reference
    // implementation in distvliw_core::experiments. Comparing one
    // benchmark keeps the test fast.
    let (base, handle) = spawn_server();
    let body =
        r#"{"suites":["pgpdec"],"solutions":["free","mdc","ddgt"],"heuristics":["prefclus"]}"#;
    let resp = client::post(&base, "/matrix", body).unwrap();
    assert_eq!(resp.status, 200);
    let v = json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let cells = v.get("cells").unwrap().as_array().unwrap();

    let pipeline = Pipeline::new(MachineConfig::paper_baseline());
    let suite = distvliw_mediabench::suite("pgpdec").unwrap();
    for (cell, solution) in cells
        .iter()
        .zip([Solution::Free, Solution::Mdc, Solution::Ddgt])
    {
        let direct = pipeline
            .run_suite(&suite, solution, Heuristic::PrefClus)
            .unwrap();
        assert_eq!(
            cell.get("local_hit_ratio").unwrap().as_f64().unwrap(),
            direct.local_hit_ratio(),
            "{solution}"
        );
        assert_eq!(
            cell.get("imbalance").unwrap().as_f64().unwrap(),
            direct.cluster.imbalance(),
            "{solution}"
        );
    }
    shutdown(&base, handle);
}
