//! Route dispatch: assembles every experiment endpoint from cached
//! cells and renders JSON.
//!
//! The figure/table assembly mirrors `distvliw_core::experiments` —
//! same cells, same arithmetic — but goes through
//! [`ServeEngine::run_cells`] so repeated and overlapping requests are
//! served from the result cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use distvliw_arch::{AccessClass, AttractionBufferConfig, MachineConfig};
use distvliw_core::experiments::{
    sweep_machine, sweep_row, table3, table5, SweepSpec, SWEEP_DEFAULT_SUITE_NAMES, SWEEP_SOLUTIONS,
};
use distvliw_core::{derive_hybrid, Heuristic, PipelineError, Solution, SuiteStats};
use distvliw_ir::Suite;
use distvliw_obs::logger;
use distvliw_obs::trace::{self, SpanRecord, TraceCtx, TraceSink};

use crate::engine::{machine_with_overrides, CellSpec, ServeEngine};
use crate::http::{Request, Response};
use crate::json::{self, Json};

/// Requests slower than this (total wall millis) emit a `slow_request`
/// warning through the structured logger. `u64::MAX` disables the
/// check; `serve --slow-ms` sets it.
static SLOW_REQUEST_MS: AtomicU64 = AtomicU64::new(u64::MAX);

/// Sets the slow-request warning threshold in milliseconds.
pub fn set_slow_request_ms(ms: u64) {
    SLOW_REQUEST_MS.store(ms, Ordering::Relaxed);
}

/// Handles one request with full observability: a per-request trace
/// context (so every phase span lands in this request's tree), the
/// HTTP-layer metrics, the JSON access-log line, the slow-request
/// warning, and — with `?trace=1` — the request's own span tree wrapped
/// around the response body. `parse_start`/`parse_dur` time the framing
/// read, which happened before this function could open a context.
#[must_use]
pub fn serve_request(
    engine: &ServeEngine,
    request: &Request,
    parse_start: Instant,
    parse_dur: Duration,
) -> Response {
    let start = Instant::now();
    let wants_trace = request.query_param("trace").is_some_and(|v| v == "1");
    // The sink is only needed when somebody will read the collected
    // spans; without it, spans still reach the global rings.
    let sink = (wants_trace || logger::access_enabled()).then(TraceSink::new);
    let ctx = sink
        .as_ref()
        .map_or_else(TraceCtx::default, TraceCtx::for_sink);
    let mut response = trace::with_ctx(ctx, || {
        let mut root = trace::Span::enter("request");
        root.field_str("method", request.method.clone());
        root.field_str("path", request.path.clone());
        trace::record("parse", parse_start, parse_dur, Vec::new());
        let response = handle(engine, request);
        root.field_u64("status", u64::from(response.status));
        response
    });
    let total = parse_dur + start.elapsed();

    let reg = distvliw_obs::global();
    let label = route_label(&request.path);
    reg.counter_with(
        "serve_http_requests_total",
        "Requests served, by (normalized) path",
        &[("path", &label)],
    )
    .inc();
    reg.histogram(
        "serve_http_request_duration_us",
        "Total request wall time (parse through render) in microseconds",
    )
    .record_micros(total);
    reg.counter(
        "serve_http_response_bytes_total",
        "Response body bytes written",
    )
    .add(response.body.len() as u64);

    let slow_ms = SLOW_REQUEST_MS.load(Ordering::Relaxed);
    if total.as_millis() as u64 >= slow_ms {
        reg.counter(
            "serve_http_slow_requests_total",
            "Requests slower than the configured threshold",
        )
        .inc();
        logger::event(
            "warn",
            "slow_request",
            &[
                ("method", request.method.as_str().into()),
                ("path", request.path.as_str().into()),
                ("total_ms", (total.as_millis() as u64).into()),
                ("threshold_ms", slow_ms.into()),
            ],
        );
    }

    if let Some(sink) = sink {
        let (records, dropped) = sink.take();
        let phase = |name: &str| -> u64 {
            records
                .iter()
                .filter(|r| r.name == name)
                .map(|r| r.dur_ns / 1_000)
                .sum()
        };
        if logger::access_enabled() {
            let outcome = if records.iter().any(|r| r.name == "compile") {
                "computed"
            } else if records.iter().any(|r| r.name == "flight_wait") {
                "flight"
            } else if records.iter().any(|r| {
                r.name == "cache_lookup"
                    && r.fields.iter().any(|(k, v)| {
                        *k == "outcome" && matches!(v, trace::FieldValue::Str(s) if s == "hit")
                    })
            }) {
                "hit"
            } else {
                "none"
            };
            logger::access(&[
                ("method", request.method.as_str().into()),
                ("path", request.path.as_str().into()),
                ("status", u64::from(response.status).into()),
                ("cache", outcome.into()),
                ("bytes", (response.body.len() as u64).into()),
                ("total_us", (total.as_micros() as u64).into()),
                ("parse_us", phase("parse").into()),
                ("cache_lookup_us", phase("cache_lookup").into()),
                ("flight_wait_us", phase("flight_wait").into()),
                ("compile_us", phase("compile").into()),
                ("sim_us", phase("sim").into()),
                ("persist_us", phase("persist").into()),
            ]);
        }
        if wants_trace && response.content_type == "application/json" {
            let tree = span_tree(&records);
            let mut body = Vec::with_capacity(response.body.len() + 256);
            body.extend_from_slice(b"{\"trace\":");
            body.extend_from_slice(tree.render().as_bytes());
            body.extend_from_slice(b",\"dropped_spans\":");
            body.extend_from_slice(dropped.to_string().as_bytes());
            body.extend_from_slice(b",\"response\":");
            body.extend_from_slice(&response.body);
            body.push(b'}');
            response.body = body;
        }
    }
    response
}

/// Collapses request paths onto the route set so the per-path counter
/// stays bounded under 404 scans.
fn route_label(path: &str) -> String {
    match path {
        "/" | "/healthz" | "/stats" | "/metrics" | "/debug/trace" | "/fig6" | "/fig7" | "/fig9"
        | "/table3" | "/table4" | "/table5" | "/nobal" | "/sweep" | "/matrix" | "/shutdown" => {
            path.to_string()
        }
        _ => "other".to_string(),
    }
}

/// Renders one span as JSON (durations in microseconds).
fn span_json(r: &SpanRecord, children: Json) -> Json {
    let fields: Vec<(String, Json)> = r
        .fields
        .iter()
        .map(|(k, v)| {
            let v = match v {
                trace::FieldValue::U64(n) => Json::U64(*n),
                trace::FieldValue::Str(s) => Json::str(s.clone()),
            };
            ((*k).to_string(), v)
        })
        .collect();
    let mut pairs = vec![
        ("name", Json::str(r.name)),
        ("start_us", Json::U64(r.start_us)),
        ("dur_us", Json::U64(r.dur_ns / 1_000)),
    ];
    if !fields.is_empty() {
        pairs.push(("fields", Json::Obj(fields)));
    }
    match children {
        Json::Arr(c) if c.is_empty() => {}
        c => pairs.push(("children", c)),
    }
    Json::obj(pairs)
}

/// Assembles one request's flat span records into a parent→child tree,
/// children ordered by start time, roots at the top level.
fn span_tree(records: &[SpanRecord]) -> Json {
    let known: std::collections::BTreeSet<u64> = records.iter().map(|r| r.id).collect();
    let mut by_parent: std::collections::BTreeMap<u64, Vec<&SpanRecord>> =
        std::collections::BTreeMap::new();
    for r in records {
        let parent = if known.contains(&r.parent) {
            r.parent
        } else {
            0
        };
        by_parent.entry(parent).or_default().push(r);
    }
    for children in by_parent.values_mut() {
        children.sort_by_key(|r| (r.start_us, r.id));
    }
    fn render(id: u64, by_parent: &std::collections::BTreeMap<u64, Vec<&SpanRecord>>) -> Json {
        Json::Arr(
            by_parent
                .get(&id)
                .map(|children| {
                    children
                        .iter()
                        .map(|r| span_json(r, render(r.id, by_parent)))
                        .collect()
                })
                .unwrap_or_default(),
        )
    }
    render(0, &by_parent)
}

/// Handles one request against the engine. Unknown paths get 404,
/// wrong methods 405, malformed bodies 400.
#[must_use]
pub fn handle(engine: &ServeEngine, request: &Request) -> Response {
    if request.path == "/metrics" {
        return if request.method == "GET" {
            Response {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: metrics_text(engine).into_bytes(),
                extra_headers: Vec::new(),
            }
        } else {
            ApiError::MethodNotAllowed.into_response()
        };
    }
    let result = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => Ok(index()),
        ("GET", "/healthz") => Ok(healthz()),
        ("GET", "/stats") => Ok(stats(engine)),
        ("GET", "/debug/trace") => Ok(debug_trace(request)),
        ("GET", "/fig6") => fig6(engine),
        ("GET", "/fig7") => exec_rows(engine, engine.machine(), "fig7"),
        ("GET", "/fig9") => {
            let machine = engine
                .machine()
                .clone()
                .with_attraction_buffers(AttractionBufferConfig::paper());
            exec_rows(engine, &machine, "fig9")
        }
        ("GET", "/table3") => Ok(table3_json()),
        ("GET", "/table4") => table4_json(engine),
        ("GET", "/table5") => Ok(table5_json()),
        ("GET", "/nobal") => nobal_json(engine),
        ("GET", "/sweep") => sweep_json(engine),
        ("POST", "/matrix") => matrix(engine, &request.body),
        (
            _,
            "/" | "/healthz" | "/stats" | "/debug/trace" | "/fig6" | "/fig7" | "/fig9" | "/table3"
            | "/table4" | "/table5" | "/nobal" | "/sweep" | "/matrix",
        ) => Err(ApiError::MethodNotAllowed),
        _ => Err(ApiError::NotFound),
    };
    match result {
        Ok(body) => Response::json(200, body.render()),
        Err(e) => e.into_response(),
    }
}

/// Endpoint-level failures.
enum ApiError {
    NotFound,
    MethodNotAllowed,
    BadRequest(String),
    Internal(String),
}

impl ApiError {
    fn into_response(self) -> Response {
        let (status, msg) = match self {
            ApiError::NotFound => (404, "not found".to_string()),
            ApiError::MethodNotAllowed => (405, "method not allowed".to_string()),
            ApiError::BadRequest(msg) => (400, msg),
            ApiError::Internal(msg) => (500, msg),
        };
        Response::json(status, Json::obj(vec![("error", Json::str(msg))]).render())
    }
}

fn pipeline_err(e: &PipelineError) -> ApiError {
    ApiError::Internal(e.to_string())
}

fn index() -> Json {
    Json::obj(vec![
        ("service", Json::str("distvliw-serve")),
        (
            "endpoints",
            Json::Arr(
                [
                    "GET /healthz",
                    "GET /stats",
                    "GET /metrics",
                    "GET /debug/trace",
                    "GET /fig6",
                    "GET /fig7",
                    "GET /fig9",
                    "GET /table3",
                    "GET /table4",
                    "GET /table5",
                    "GET /nobal",
                    "GET /sweep",
                    "POST /matrix",
                    "POST /shutdown",
                ]
                .iter()
                .map(|s| Json::str(*s))
                .collect(),
            ),
        ),
    ])
}

fn healthz() -> Json {
    Json::obj(vec![("status", Json::str("ok"))])
}

/// Appends one counter-style family in Prometheus text format.
fn push_family(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    );
}

/// The `/metrics` exposition: the process-global registry (sched, sim,
/// sweep and HTTP families, in deterministic sorted order) followed by
/// the engine-owned families, collected from [`ServeEngine::stats`] at
/// scrape time so they have exactly one source of truth.
fn metrics_text(engine: &ServeEngine) -> String {
    let mut out = distvliw_obs::global().render_prometheus();
    let s = engine.stats();
    let c = |out: &mut String, name, help, value| push_family(out, name, "counter", help, value);
    let g = |out: &mut String, name, help, value| push_family(out, name, "gauge", help, value);
    c(
        &mut out,
        "serve_cache_hits_total",
        "Cell-cache lookup hits",
        s.cache.hits,
    );
    c(
        &mut out,
        "serve_cache_misses_total",
        "Cell-cache lookup misses",
        s.cache.misses,
    );
    c(
        &mut out,
        "serve_cache_evictions_total",
        "Cell-cache LRU evictions",
        s.cache.evictions,
    );
    c(
        &mut out,
        "serve_cache_insertions_total",
        "Cell-cache insertions",
        s.cache.insertions,
    );
    g(
        &mut out,
        "serve_cache_entries",
        "Resident cell-cache entries",
        s.cache_entries as u64,
    );
    g(
        &mut out,
        "serve_cache_capacity",
        "Configured cell-cache capacity",
        s.cache_capacity as u64,
    );
    c(
        &mut out,
        "serve_cells_computed_total",
        "Cells computed by the pipeline (cache misses that led the flight)",
        s.computed_cells,
    );
    c(
        &mut out,
        "serve_flight_deduped_requests_total",
        "Requests served by piggybacking on an identical in-flight computation",
        s.deduped_requests,
    );
    c(
        &mut out,
        "serve_seeded_kernels_total",
        "Kernels whose II search opened from a profitable seed",
        s.seeded_kernels,
    );
    if let Some(p) = s.persist {
        c(
            &mut out,
            "serve_persist_appended_records_total",
            "Records appended to the state logs",
            p.appended_records,
        );
        c(
            &mut out,
            "serve_persist_compactions_total",
            "Atomic compact-and-rewrite passes of the cell log",
            p.compactions,
        );
        c(
            &mut out,
            "serve_persist_flushes_total",
            "Explicit state flushes (periodic and shutdown)",
            p.flushes,
        );
        c(
            &mut out,
            "serve_persist_write_errors_total",
            "State-log writes that failed with an I/O error",
            p.write_errors,
        );
    }
    g(
        &mut out,
        "serve_uptime_seconds",
        "Seconds since the engine started",
        s.uptime_ms / 1000,
    );
    g(
        &mut out,
        "serve_process_threads",
        "OS threads in this process (loop + workers + flusher; 0 without procfs)",
        distvliw_obs::process_threads(),
    );
    out
}

/// `GET /debug/trace?n=K`: the `K` most recently finished spans across
/// all threads (default 64), oldest first.
fn debug_trace(request: &Request) -> Json {
    let n = request
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(64)
        .min(65_536);
    let spans = trace::recent(n);
    Json::obj(vec![
        ("count", Json::U64(spans.len() as u64)),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|r| {
                        let mut pairs = vec![
                            ("id", Json::U64(r.id)),
                            ("parent", Json::U64(r.parent)),
                            ("trace", Json::U64(r.trace)),
                        ];
                        if let Json::Obj(more) = span_json(r, Json::Arr(Vec::new())) {
                            pairs.extend(more.iter().map(|(k, v)| (k.as_str(), v.clone())));
                            Json::obj(pairs)
                        } else {
                            Json::obj(pairs)
                        }
                    })
                    .collect(),
            ),
        ),
    ])
}

fn stats(engine: &ServeEngine) -> Json {
    let s = engine.stats();
    let counters: Vec<(String, Json)> = distvliw_obs::global()
        .counter_snapshot()
        .into_iter()
        .map(|(name, value)| (name, Json::U64(value)))
        .collect();
    let accesses: Vec<Json> = (0..s.cluster.accesses.len())
        .map(|c| Json::U64(s.cluster.accesses_of(c)))
        .collect();
    let violations: Vec<Json> = s
        .cluster
        .violations
        .as_slice()
        .iter()
        .map(|&v| Json::U64(v))
        .collect();
    Json::obj(vec![
        (
            "cache",
            Json::obj(vec![
                ("hits", Json::U64(s.cache.hits)),
                ("misses", Json::U64(s.cache.misses)),
                ("evictions", Json::U64(s.cache.evictions)),
                ("insertions", Json::U64(s.cache.insertions)),
                ("entries", Json::U64(s.cache_entries as u64)),
                ("capacity", Json::U64(s.cache_capacity as u64)),
            ]),
        ),
        ("computed_cells", Json::U64(s.computed_cells)),
        ("deduped_requests", Json::U64(s.deduped_requests)),
        ("seeded_kernels", Json::U64(s.seeded_kernels)),
        (
            "persist",
            match s.persist {
                None => Json::Null,
                Some(p) => Json::obj(vec![
                    ("loaded_cells", Json::U64(p.loaded_cells)),
                    ("loaded_seeds", Json::U64(p.loaded_seeds)),
                    ("discarded_records", Json::U64(p.discarded_records)),
                    ("discarded_bytes", Json::U64(p.discarded_bytes)),
                    ("stale_stores", Json::U64(p.stale_stores)),
                    ("appended_records", Json::U64(p.appended_records)),
                    ("compactions", Json::U64(p.compactions)),
                    ("flushes", Json::U64(p.flushes)),
                    ("write_errors", Json::U64(p.write_errors)),
                ]),
            },
        ),
        (
            "cluster",
            Json::obj(vec![
                ("accesses", Json::Arr(accesses)),
                ("violations", Json::Arr(violations)),
                ("imbalance", Json::F64(s.cluster.imbalance())),
                ("mem_bus_grants", Json::U64(s.cluster.mem_bus_grants)),
                ("next_level_grants", Json::U64(s.cluster.next_level_grants)),
            ]),
        ),
        ("uptime_ms", Json::U64(s.uptime_ms)),
        ("uptime_secs", Json::U64(s.uptime_ms / 1000)),
        ("threads", Json::U64(distvliw_obs::process_threads())),
        (
            "build",
            Json::obj(vec![
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                (
                    "git",
                    Json::str(option_env!("DISTVLIW_GIT_DESCRIBE").unwrap_or("unknown")),
                ),
            ]),
        ),
        ("counters", Json::Obj(counters)),
    ])
}

/// Unwraps a batch of cell results, surfacing the first failure.
fn all_ok(results: &[crate::engine::CellResult]) -> Result<Vec<&SuiteStats>, ApiError> {
    results
        .iter()
        .map(|r| r.as_ref().as_ref().map_err(pipeline_err))
        .collect()
}

fn breakdown(stats: &SuiteStats) -> Json {
    let field = |class: AccessClass| Json::F64(stats.total.accesses.fraction(class));
    Json::obj(vec![
        ("local_hit", field(AccessClass::LocalHit)),
        ("remote_hit", field(AccessClass::RemoteHit)),
        ("local_miss", field(AccessClass::LocalMiss)),
        ("remote_miss", field(AccessClass::RemoteMiss)),
        ("combined", field(AccessClass::Combined)),
    ])
}

/// The Free/MDC/DDGT × PrefClus grid over the figure suites — the cell
/// set `/fig6` and `/table4` are both assembled from (shared through
/// the cache).
fn prefclus_grid<'a>(engine: &'a ServeEngine, suites: &[&'a Suite]) -> Vec<CellSpec<'a>> {
    let mut specs = Vec::with_capacity(suites.len() * 3);
    for suite in suites {
        for solution in [Solution::Free, Solution::Mdc, Solution::Ddgt] {
            specs.push(CellSpec {
                suite,
                machine: engine.machine(),
                solution,
                heuristic: Heuristic::PrefClus,
            });
        }
    }
    specs
}

/// Figure 6: per-suite access classification for Free/MDC/DDGT under
/// PrefClus.
fn fig6(engine: &ServeEngine) -> Result<Json, ApiError> {
    let suites: Vec<&Suite> = engine.figure_suites().collect();
    let results = engine.run_cells(&prefclus_grid(engine, &suites));
    let cells = all_ok(&results)?;
    let rows: Vec<Json> = suites
        .iter()
        .zip(cells.chunks(3))
        .map(|(suite, chunk)| {
            Json::obj(vec![
                ("benchmark", Json::str(suite.name.clone())),
                ("free", breakdown(chunk[0])),
                ("mdc", breakdown(chunk[1])),
                ("ddgt", breakdown(chunk[2])),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("figure", Json::str("fig6")),
        ("heuristic", Json::str("PrefClus")),
        ("rows", Json::Arr(rows)),
    ]))
}

fn bar(stats: &SuiteStats, baseline_total: u64) -> Json {
    let b = baseline_total.max(1) as f64;
    let compute = stats.total.compute_cycles as f64 / b;
    let stall = stats.total.stall_cycles as f64 / b;
    Json::obj(vec![
        ("compute", Json::F64(compute)),
        ("stall", Json::F64(stall)),
        ("total", Json::F64(compute + stall)),
    ])
}

/// Figure 7 / Figure 9: normalized execution time on `machine`.
fn exec_rows(
    engine: &ServeEngine,
    machine: &MachineConfig,
    figure: &str,
) -> Result<Json, ApiError> {
    const COMBOS: [(Solution, Heuristic); 4] = [
        (Solution::Mdc, Heuristic::PrefClus),
        (Solution::Mdc, Heuristic::MinComs),
        (Solution::Ddgt, Heuristic::PrefClus),
        (Solution::Ddgt, Heuristic::MinComs),
    ];
    let suites: Vec<&Suite> = engine.figure_suites().collect();
    let mut specs = Vec::with_capacity(suites.len() * 5);
    for suite in &suites {
        specs.push(CellSpec {
            suite,
            machine,
            solution: Solution::Free,
            heuristic: Heuristic::MinComs,
        });
        for (solution, heuristic) in COMBOS {
            specs.push(CellSpec {
                suite,
                machine,
                solution,
                heuristic,
            });
        }
    }
    let results = engine.run_cells(&specs);
    let cells = all_ok(&results)?;
    let rows: Vec<Json> = suites
        .iter()
        .zip(cells.chunks(5))
        .map(|(suite, chunk)| {
            let base = chunk[0].total_cycles();
            Json::obj(vec![
                ("benchmark", Json::str(suite.name.clone())),
                ("mdc_prefclus", bar(chunk[1], base)),
                ("mdc_mincoms", bar(chunk[2], base)),
                ("ddgt_prefclus", bar(chunk[3], base)),
                ("ddgt_mincoms", bar(chunk[4], base)),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("figure", Json::str(figure)),
        ("baseline", Json::str("Free/MinComs")),
        ("rows", Json::Arr(rows)),
    ]))
}

fn table3_json() -> Json {
    let rows: Vec<Json> = table3()
        .into_iter()
        .map(|row| {
            let (pc, pa) = match row.paper {
                Some((c, a)) => (Json::F64(c), Json::F64(a)),
                None => (Json::Null, Json::Null),
            };
            Json::obj(vec![
                ("benchmark", Json::str(row.benchmark)),
                ("cmr", Json::F64(row.stats.cmr)),
                ("car", Json::F64(row.stats.car)),
                ("paper_cmr", pc),
                ("paper_car", pa),
            ])
        })
        .collect();
    Json::obj(vec![
        ("table", Json::str("table3")),
        ("rows", Json::Arr(rows)),
    ])
}

/// Table 4: DDGT/MDC communication ratio and selected-loop speedups.
fn table4_json(engine: &ServeEngine) -> Result<Json, ApiError> {
    let suites: Vec<&Suite> = engine.figure_suites().collect();
    let results = engine.run_cells(&prefclus_grid(engine, &suites));
    let cells = all_ok(&results)?;
    let rows: Vec<Json> = suites
        .iter()
        .zip(cells.chunks(3))
        .map(|(suite, chunk)| {
            // The row arithmetic (including the ≥10%-slowdown loop
            // selection) is shared with `repro table4`.
            let row = distvliw_core::experiments::Table4Row::from_stats(
                suite.name.clone(),
                chunk[0],
                chunk[1],
                chunk[2],
            );
            Json::obj(vec![
                ("benchmark", Json::str(row.benchmark)),
                ("comm_ratio", Json::F64(row.comm_ratio)),
                (
                    "selected_speedup",
                    row.selected_speedup.map_or(Json::Null, Json::F64),
                ),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("table", Json::str("table4")),
        ("rows", Json::Arr(rows)),
    ]))
}

fn table5_json() -> Json {
    let rows: Vec<Json> = table5()
        .into_iter()
        .map(|row| {
            let (poc, poa, pnc, pna) = row.paper;
            Json::obj(vec![
                ("benchmark", Json::str(row.benchmark)),
                ("old_cmr", Json::F64(row.old.cmr)),
                ("old_car", Json::F64(row.old.car)),
                ("new_cmr", Json::F64(row.new.cmr)),
                ("new_car", Json::F64(row.new.car)),
                (
                    "paper",
                    Json::Arr(vec![
                        Json::F64(poc),
                        Json::F64(poa),
                        Json::F64(pnc),
                        Json::F64(pna),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("table", Json::str("table5")),
        ("rows", Json::Arr(rows)),
    ])
}

/// The NOBAL bus-configuration study on both machine variants.
fn nobal_json(engine: &ServeEngine) -> Result<Json, ApiError> {
    let mut out = Vec::new();
    let suites: Vec<&Suite> = engine.figure_suites().collect();
    for (machine, title) in [
        (MachineConfig::nobal_mem(), "nobal_mem"),
        (MachineConfig::nobal_reg(), "nobal_reg"),
    ] {
        let mut specs = Vec::with_capacity(suites.len() * 3);
        for suite in &suites {
            for (solution, heuristic) in [
                (Solution::Mdc, Heuristic::PrefClus),
                (Solution::Mdc, Heuristic::MinComs),
                (Solution::Ddgt, Heuristic::PrefClus),
            ] {
                specs.push(CellSpec {
                    suite,
                    machine: &machine,
                    solution,
                    heuristic,
                });
            }
        }
        let results = engine.run_cells(&specs);
        let cells = all_ok(&results)?;
        let rows: Vec<Json> = suites
            .iter()
            .zip(cells.chunks(3))
            .map(|(suite, chunk)| {
                let best_mdc = chunk[0].total_cycles().min(chunk[1].total_cycles());
                let ddgt_pref = chunk[2].total_cycles();
                Json::obj(vec![
                    ("benchmark", Json::str(suite.name.clone())),
                    ("best_mdc", Json::U64(best_mdc)),
                    ("ddgt_prefclus", Json::U64(ddgt_pref)),
                    (
                        "ddgt_speedup",
                        Json::F64(best_mdc as f64 / ddgt_pref.max(1) as f64 - 1.0),
                    ),
                ])
            })
            .collect();
        out.push((title, Json::Arr(rows)));
    }
    Ok(Json::obj(
        std::iter::once(("study", Json::str("nobal")))
            .chain(out)
            .collect::<Vec<_>>(),
    ))
}

/// `GET /sweep`: the default cluster-count × memory-bus sensitivity
/// sweep over [`distvliw_core::experiments::sweep_default_suites`],
/// assembled from cached cells. The aggregation goes through the same
/// [`sweep_row`] fold as `distvliw_core::experiments::sweep`, so the
/// served numbers are identical to a direct pipeline sweep — the only
/// difference is that every `(suite, machine, solution)` cell is
/// memoized, deduplicated and sharded like any other request. Like the
/// factored sweep runner, only the three concrete solutions are
/// computed; the Hybrid rows are derived per loop from the MDC and
/// DDGT cells ([`derive_hybrid`]), which drops a quarter of the grid's
/// compile+simulate work without changing a byte of the response.
fn sweep_json(engine: &ServeEngine) -> Result<Json, ApiError> {
    const CONCRETE: [Solution; 3] = [Solution::Free, Solution::Mdc, Solution::Ddgt];
    let spec = SweepSpec::default();
    let suites: Vec<&Suite> = SWEEP_DEFAULT_SUITE_NAMES
        .iter()
        .map(|name| {
            engine
                .suite(name)
                .expect("default sweep suites are bundled")
        })
        .collect();

    // Grid machines first (specs borrow them), in sweep nesting order.
    let mut machines = Vec::with_capacity(spec.cluster_counts.len() * spec.mem_buses.len());
    for &n_clusters in &spec.cluster_counts {
        for &mem_buses in &spec.mem_buses {
            machines.push((
                n_clusters,
                mem_buses,
                sweep_machine(engine.machine(), n_clusters, mem_buses),
            ));
        }
    }
    let mut specs = Vec::with_capacity(machines.len() * CONCRETE.len() * suites.len());
    for (_, _, machine) in &machines {
        for solution in CONCRETE {
            for suite in &suites {
                specs.push(CellSpec {
                    suite,
                    machine,
                    solution,
                    heuristic: spec.heuristic,
                });
            }
        }
    }
    let results = engine.run_cells(&specs);
    let cells = all_ok(&results)?;

    let mut rows = Vec::new();
    for ((n_clusters, mem_buses, _), point) in machines
        .iter()
        .zip(cells.chunks(CONCRETE.len() * suites.len()))
    {
        // The derived hybrid suites must outlive the row loop below.
        let hybrid: Vec<SuiteStats> = point[suites.len()..2 * suites.len()]
            .iter()
            .zip(&point[2 * suites.len()..])
            .map(|(mdc, ddgt)| derive_hybrid(mdc, ddgt))
            .collect();
        let mut point_rows: Vec<(Solution, Vec<&SuiteStats>)> = CONCRETE
            .iter()
            .zip(point.chunks(suites.len()))
            .map(|(&solution, chunk)| (solution, chunk.to_vec()))
            .collect();
        point_rows.push((Solution::Hybrid, hybrid.iter().collect()));
        debug_assert_eq!(point_rows.len(), SWEEP_SOLUTIONS.len());
        for (solution, per_suite) in &point_rows {
            let row = sweep_row(*n_clusters, *mem_buses, *solution, per_suite);
            let shares: Vec<Json> = (0..row.n_clusters)
                .map(|c| Json::U64(row.cluster.accesses_of(c)))
                .collect();
            rows.push(Json::obj(vec![
                ("n_clusters", Json::U64(row.n_clusters as u64)),
                ("mem_bus_count", Json::U64(row.mem_buses.count as u64)),
                (
                    "mem_bus_latency",
                    Json::U64(u64::from(row.mem_buses.latency)),
                ),
                ("solution", Json::str(row.solution.to_string())),
                ("total_cycles", Json::U64(row.total_cycles)),
                ("stall_cycles", Json::U64(row.stall_cycles)),
                ("bus_busy_cycles", Json::U64(row.bus_busy_cycles)),
                ("bus_drain_cycles", Json::U64(row.bus_drain_cycles)),
                ("bus_occupancy", Json::F64(row.bus_occupancy())),
                ("violations", Json::U64(row.violations)),
                ("accesses", Json::U64(row.accesses)),
                ("imbalance", Json::F64(row.imbalance())),
                ("accesses_by_cluster", Json::Arr(shares)),
            ]));
        }
    }
    Ok(Json::obj(vec![
        ("sweep", Json::str("default")),
        ("heuristic", Json::str(spec.heuristic.to_string())),
        (
            "suites",
            Json::Arr(suites.iter().map(|s| Json::str(s.name.clone())).collect()),
        ),
        ("rows", Json::Arr(rows)),
    ]))
}

/// One cell of a `/matrix` response.
fn cell_json(
    suite: &str,
    solution: Solution,
    heuristic: Heuristic,
    result: &Result<SuiteStats, PipelineError>,
) -> Json {
    let mut pairs = vec![
        ("suite", Json::str(suite)),
        ("solution", Json::str(solution.to_string())),
        ("heuristic", Json::str(heuristic.to_string())),
    ];
    match result {
        Err(e) => {
            pairs.push(("ok", Json::Bool(false)));
            pairs.push(("error", Json::str(e.to_string())));
        }
        Ok(stats) => {
            pairs.push(("ok", Json::Bool(true)));
            pairs.push(("total_cycles", Json::U64(stats.total_cycles())));
            pairs.push(("compute_cycles", Json::U64(stats.total.compute_cycles)));
            pairs.push(("stall_cycles", Json::U64(stats.total.stall_cycles)));
            pairs.push(("local_hit_ratio", Json::F64(stats.local_hit_ratio())));
            pairs.push(("comm_ops", Json::U64(stats.total.comm_ops)));
            pairs.push((
                "coherence_violations",
                Json::U64(stats.total.coherence_violations),
            ));
            pairs.push(("bus_busy_cycles", Json::U64(stats.total.bus_busy_cycles)));
            pairs.push(("imbalance", Json::F64(stats.cluster.imbalance())));
            pairs.push((
                "kernels",
                Json::Arr(
                    stats
                        .kernels
                        .iter()
                        .map(|k| {
                            Json::obj(vec![
                                ("name", Json::str(k.name.clone())),
                                ("ii", Json::U64(u64::from(k.ii))),
                                ("span", Json::U64(u64::from(k.span))),
                                ("total_cycles", Json::U64(k.stats.total_cycles())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
    }
    Json::obj(pairs)
}

/// `POST /matrix`: run an arbitrary experiment grid.
///
/// Body: `{"suites": [...], "solutions": [...], "heuristics": [...],
/// "machine": {...}}`. Suites are required; solutions default to
/// `["mdc","ddgt"]`, heuristics to `["prefclus"]`, the machine to the
/// server's configured machine plus any overrides.
fn matrix(engine: &ServeEngine, body: &[u8]) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::BadRequest("body is not utf-8".to_string()))?;
    let parsed = json::parse(text).map_err(|e| ApiError::BadRequest(format!("bad json: {e}")))?;

    let suite_names: Vec<&str> = parsed
        .get("suites")
        .and_then(Json::as_array)
        .ok_or_else(|| ApiError::BadRequest("`suites` must be an array".to_string()))?
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| ApiError::BadRequest("suite names must be strings".to_string()))
        })
        .collect::<Result<_, _>>()?;
    if suite_names.is_empty() {
        return Err(ApiError::BadRequest(
            "`suites` must be nonempty".to_string(),
        ));
    }
    let suites: Vec<&Suite> = suite_names
        .iter()
        .map(|name| {
            engine
                .suite(name)
                .ok_or_else(|| ApiError::BadRequest(format!("unknown suite `{name}`")))
        })
        .collect::<Result<_, _>>()?;

    fn parse_list<T: std::str::FromStr<Err = String>>(
        parsed: &Json,
        field: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, ApiError> {
        match parsed.get(field) {
            None => Ok(default),
            Some(v) => v
                .as_array()
                .ok_or_else(|| ApiError::BadRequest(format!("`{field}` must be an array")))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .ok_or_else(|| {
                            ApiError::BadRequest(format!("`{field}` entries must be strings"))
                        })?
                        .parse::<T>()
                        .map_err(ApiError::BadRequest)
                })
                .collect(),
        }
    }
    let solutions = parse_list(&parsed, "solutions", vec![Solution::Mdc, Solution::Ddgt])?;
    let heuristics = parse_list(&parsed, "heuristics", vec![Heuristic::PrefClus])?;
    if solutions.is_empty() || heuristics.is_empty() {
        return Err(ApiError::BadRequest(
            "`solutions` and `heuristics` must be nonempty".to_string(),
        ));
    }

    let machine = match parsed.get("machine") {
        None => engine.machine().clone(),
        Some(overrides) => {
            machine_with_overrides(engine.machine(), overrides).map_err(ApiError::BadRequest)?
        }
    };

    // The pipeline always runs a suite at the *suite's* interleave
    // (paper Table 1), so an `interleave_bytes` override must be
    // applied to the suites themselves or it would silently change
    // nothing but the cache key.
    let override_interleave = parsed
        .get("machine")
        .and_then(|m| m.get("interleave_bytes"))
        .and_then(Json::as_u64);
    let reinterleaved: Option<Vec<Suite>> = override_interleave.map(|bytes| {
        suites
            .iter()
            .map(|s| {
                let mut s = (*s).clone();
                s.interleave_bytes = bytes;
                s
            })
            .collect()
    });
    let suites: Vec<&Suite> = match &reinterleaved {
        Some(owned) => owned.iter().collect(),
        None => suites,
    };

    // The same (suite, solution, heuristic) nesting order as
    // `Pipeline::run_matrix`, sharded the same way.
    let mut specs = Vec::new();
    for suite in &suites {
        for &solution in &solutions {
            for &heuristic in &heuristics {
                specs.push(CellSpec {
                    suite,
                    machine: &machine,
                    solution,
                    heuristic,
                });
            }
        }
    }
    let results = engine.run_cells(&specs);
    let cells: Vec<Json> = specs
        .iter()
        .zip(&results)
        .map(|(spec, result)| {
            cell_json(
                &spec.suite.name,
                spec.solution,
                spec.heuristic,
                result.as_ref(),
            )
        })
        .collect();
    Ok(Json::obj(vec![("cells", Json::Arr(cells))]))
}
