//! The resident experiment engine: cached, deduplicated, sharded cell
//! execution.
//!
//! One *cell* is a `(suite, machine, solution, heuristic)` combination —
//! the same unit `Pipeline::run_matrix` fans out. The engine memoizes
//! cells in a content-addressed [`ResultCache`], collapses concurrent
//! identical requests through [`SingleFlight`], and shards the cells of
//! one request across worker threads via [`distvliw_core::par`]. Every
//! endpoint is assembled from cells, so results are shared *between*
//! endpoints too (Figure 6 and Figure 7 reuse each other's
//! MDC/DDGT-PrefClus runs).

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use distvliw_arch::MachineConfig;
use distvliw_core::cachekey::{
    cell_key_from_fingerprint, digest_fingerprint, suite_digest, CacheKey,
};
use distvliw_core::{
    par, Heuristic, IiSeedStore, Pipeline, PipelineError, PipelineOptions, Solution,
};
use distvliw_ir::Suite;
use distvliw_sim::ClusterUsage;

use crate::cache::{CacheStats, ResultCache, SingleFlight};
use crate::persist::{self, LogWriter};

/// A computed cell, shared between the cache and concurrent requesters.
pub type CellResult = Arc<Result<distvliw_core::SuiteStats, PipelineError>>;

/// One cell of an experiment grid.
#[derive(Clone, Copy)]
pub struct CellSpec<'a> {
    /// The benchmark suite to run.
    pub suite: &'a Suite,
    /// The machine to run it on (the pipeline applies the suite's
    /// interleave on top).
    pub machine: &'a MachineConfig,
    /// Coherence solution.
    pub solution: Solution,
    /// Cluster-assignment heuristic.
    pub heuristic: Heuristic,
}

/// Persistence counters, as served by `/stats` and `servecli state`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Cell results restored into the cache at boot (after last-wins
    /// dedup).
    pub loaded_cells: u64,
    /// II seeds restored into the seed store at boot.
    pub loaded_seeds: u64,
    /// Persisted records thrown away at boot: stale-era records, frames
    /// behind a corrupt one, and checksum-valid records whose payload
    /// failed to decode.
    pub discarded_records: u64,
    /// Bytes truncated at boot (torn/corrupt tails, stale stores).
    pub discarded_bytes: u64,
    /// Stores rejected wholesale for a stale era fingerprint (0–2).
    pub stale_stores: u64,
    /// Records appended to the logs since boot.
    pub appended_records: u64,
    /// Atomic compact-and-rewrite passes of the cell log since boot.
    pub compactions: u64,
    /// Explicit flushes (periodic and shutdown) since boot.
    pub flushes: u64,
    /// Persistence writes that failed with an I/O error (serving
    /// continues; the warm state just stops growing).
    pub write_errors: u64,
}

/// The open state logs plus their counters, behind one lock. Lock
/// ordering: the cache lock is always taken **before** this one.
struct PersistState {
    cells: LogWriter,
    seeds: LogWriter,
    stats: PersistStats,
}

/// Aggregate engine counters, as served by `/stats`.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Cache counters.
    pub cache: CacheStats,
    /// Resident cache entries.
    pub cache_entries: usize,
    /// Configured cache capacity.
    pub cache_capacity: usize,
    /// Cells actually computed by the pipeline (cache misses that led
    /// the flight).
    pub computed_cells: u64,
    /// Requests served by piggybacking on an identical in-flight
    /// computation.
    pub deduped_requests: u64,
    /// Per-cluster usage aggregated over every computed cell.
    pub cluster: ClusterUsage,
    /// Kernels whose II search started from a profitable persisted or
    /// recorded seed (summed over computed cells).
    pub seeded_kernels: u64,
    /// Persistence counters, when the engine runs with a state dir.
    pub persist: Option<PersistStats>,
    /// Milliseconds since the engine was created.
    pub uptime_ms: u64,
}

/// The long-running engine behind the HTTP service.
pub struct ServeEngine {
    machine: MachineConfig,
    options: PipelineOptions,
    suites: Vec<Suite>,
    /// Content fingerprint of each entry of `suites`, precomputed so
    /// key derivation on the hot (cached) path never re-walks a graph
    /// or re-hashes a ~100 KB digest.
    fingerprints: Vec<[u8; 16]>,
    figure_names: Vec<String>,
    cache: Mutex<ResultCache<CellResult>>,
    flight: SingleFlight<CellResult>,
    /// One shared II-seed store for every pipeline this engine spawns,
    /// so a cell computed on one machine variant seeds the II search of
    /// scheduler-equivalent variants — and so the store can be persisted
    /// across restarts.
    seeds: Arc<IiSeedStore>,
    persist: Option<Mutex<PersistState>>,
    usage: Mutex<ClusterUsage>,
    computed: AtomicU64,
    deduped: AtomicU64,
    seeded: AtomicU64,
    started: Instant,
}

impl ServeEngine {
    /// An engine for `machine` with the given cell-cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is invalid or `cache_capacity` is zero.
    #[must_use]
    pub fn new(machine: MachineConfig, cache_capacity: usize) -> Self {
        machine.validate().expect("valid machine configuration");
        let mut suites: Vec<Suite> = distvliw_mediabench::BENCHMARKS
            .iter()
            .map(distvliw_mediabench::build_suite)
            .collect();
        // The bundled recorded traces are addressable like any other
        // suite (in `/matrix` bodies and the `/sweep` grid).
        suites.extend(distvliw_mediabench::trace_suites());
        let figure_names = distvliw_mediabench::FIGURE_BENCHMARKS
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let fingerprints = suites
            .iter()
            .map(|s| digest_fingerprint(&suite_digest(s)))
            .collect();
        ServeEngine {
            machine,
            options: PipelineOptions::default(),
            suites,
            fingerprints,
            figure_names,
            cache: Mutex::new(ResultCache::new(cache_capacity)),
            flight: SingleFlight::new(),
            seeds: Arc::new(IiSeedStore::new()),
            persist: None,
            usage: Mutex::new(ClusterUsage::default()),
            computed: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            seeded: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Runs the independent static checker (`distvliw-check`) on every
    /// schedule this engine compiles, failing the cell instead of
    /// serving an illegal schedule (`serve --check`; see
    /// docs/checking.md). Debug builds always check.
    #[must_use]
    pub fn with_check(mut self, check: bool) -> Self {
        self.options.check = check;
        self
    }

    /// Attaches durable state under `dir` (created if missing): the
    /// cell cache loads from `cells.log`, the II-seed store from
    /// `seeds.log`, and both logs are kept current as the engine runs
    /// (append per insert, atomic compaction on eviction, fsync on
    /// flush). Corrupt or stale stores are recovered, never fatal —
    /// see [`PersistStats`] for what was kept.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating or opening the logs (not
    /// corruption, which is healed in place).
    pub fn with_state_dir(mut self, dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let era = persist::era_bytes();
        let (mut cells, cell_records, cell_report) =
            LogWriter::open(dir.join("cells.log"), persist::KIND_CELLS, &era)?;
        let (mut seeds_log, seed_records, seed_report) =
            LogWriter::open(dir.join("seeds.log"), persist::KIND_SEEDS, &era)?;

        let mut stats = PersistStats {
            discarded_records: cell_report.discarded_records + seed_report.discarded_records,
            discarded_bytes: cell_report.discarded_bytes + seed_report.discarded_bytes,
            stale_stores: u64::from(cell_report.stale) + u64::from(seed_report.stale),
            ..PersistStats::default()
        };

        // Replay cells in file order (LRU-first snapshot, then appends):
        // `preload` keeps the boot invisible to the traffic counters
        // while last-wins dedup and capacity eviction apply as usual.
        let mut undecodable = 0u64;
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for (key, value) in cell_records {
                match persist::suite_stats_from_bytes(&value) {
                    Some(suite) => {
                        cache.preload(CacheKey::from_bytes(key), Arc::new(Ok(suite)));
                    }
                    // Checksum-valid but undecodable: a payload this
                    // era's codec never wrote. Drop it, heal below.
                    None => undecodable += 1,
                }
            }
            stats.loaded_cells = cache.len() as u64;
            if undecodable > 0 {
                let entries = cache.entries_by_recency();
                if cells.rewrite(encode_live(&entries)).is_err() {
                    stats.write_errors += 1;
                } else {
                    stats.compactions += 1;
                }
            }
        }

        let mut seeds = Vec::with_capacity(seed_records.len());
        let mut undecodable_seeds = 0u64;
        for (key, value) in seed_records {
            match (
                <[u8; 16]>::try_from(key.as_slice()),
                <[u8; 4]>::try_from(value.as_slice()),
            ) {
                (Ok(key), Ok(ii)) => seeds.push((key, u32::from_le_bytes(ii))),
                _ => undecodable_seeds += 1,
            }
        }
        self.seeds.absorb(&seeds);
        stats.loaded_seeds = self.seeds.len() as u64;
        if undecodable_seeds > 0 {
            let live = self.seeds.snapshot();
            let rewrite = seeds_log.rewrite(
                live.iter()
                    .map(|(k, ii)| (k.as_slice(), ii.to_le_bytes().to_vec())),
            );
            if rewrite.is_err() {
                stats.write_errors += 1;
            } else {
                stats.compactions += 1;
            }
        }
        stats.discarded_records += undecodable + undecodable_seeds;

        self.persist = Some(Mutex::new(PersistState {
            cells,
            seeds: seeds_log,
            stats,
        }));
        Ok(self)
    }

    /// The machine endpoint cells default to.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The bundled suite named `name`, if any.
    #[must_use]
    pub fn suite(&self, name: &str) -> Option<&Suite> {
        self.suites.iter().find(|s| s.name == name)
    }

    /// The thirteen figure suites, in the paper's order.
    pub fn figure_suites(&self) -> impl Iterator<Item = &Suite> {
        self.figure_names.iter().filter_map(|name| self.suite(name))
    }

    /// Runs one cell through cache → single-flight → pipeline.
    pub fn run_cell(&self, spec: CellSpec<'_>) -> CellResult {
        self.lookup(spec)
            .unwrap_or_else(|key| self.compute(spec, &key))
    }

    /// The counted cache lookup of one cell: its cached value, or its
    /// key on a miss.
    fn lookup(&self, spec: CellSpec<'_>) -> Result<CellResult, CacheKey> {
        // Specs normally borrow a bundled suite, whose fingerprint was
        // precomputed; a foreign suite (e.g. re-interleaved for a
        // /matrix override) digests on the spot.
        let fingerprint = self
            .suites
            .iter()
            .position(|s| std::ptr::eq(s, spec.suite))
            .map_or_else(
                || digest_fingerprint(&suite_digest(spec.suite)),
                |i| self.fingerprints[i],
            );
        let key = cell_key_from_fingerprint(
            &fingerprint,
            spec.machine,
            &self.options,
            spec.solution,
            spec.heuristic,
        );
        let mut span = distvliw_obs::Span::enter("cache_lookup");
        let value = self.cache.lock().expect("cache lock").get(&key);
        span.field_str("outcome", if value.is_some() { "hit" } else { "miss" });
        value.ok_or(key)
    }

    /// The miss path of one cell: single-flight → pipeline → cache.
    fn compute(&self, spec: CellSpec<'_>, key: &CacheKey) -> CellResult {
        let flight_start = Instant::now();
        let (value, leader) = self.flight.work(key.bytes(), || {
            // Double-check under the flight: a requester that missed the
            // cache above but reached here after the previous leader
            // retired its flight must find the published entry, not
            // recompute it. Uncounted — this request's lookup was
            // already tallied as the miss above.
            if let Some(value) = self.cache.lock().expect("cache lock").get_uncounted(key) {
                return value;
            }
            let pipeline = Pipeline::new(spec.machine.clone())
                .with_options(self.options)
                .with_seed_store(self.seeds.clone());
            let result: CellResult =
                Arc::new(pipeline.run_suite(spec.suite, spec.solution, spec.heuristic));
            if let Ok(stats) = result.as_ref() {
                *self.usage.lock().expect("usage lock") += &stats.cluster;
                self.seeded
                    .fetch_add(stats.sched.seeded_kernels, Ordering::Relaxed);
            }
            self.computed.fetch_add(1, Ordering::Relaxed);
            // Publish to the cache *before* the flight slot is retired,
            // so a racer arriving between retirement and publication
            // cannot start a duplicate computation.
            let persist_span = distvliw_obs::Span::enter("persist");
            let mut cache = self.cache.lock().expect("cache lock");
            let evicted = cache.insert(key.clone(), result.clone());
            // Persist under the cache lock (cache → persist ordering),
            // so the log mirrors insertion order exactly.
            self.persist_insert(&cache, key, &result, evicted.is_some());
            drop(cache);
            drop(persist_span);
            result
        });
        if !leader {
            self.deduped.fetch_add(1, Ordering::Relaxed);
            // The wait is only known retroactively: the span covers the
            // time this request was blocked on the leader's computation.
            distvliw_obs::trace::record(
                "flight_wait",
                flight_start,
                flight_start.elapsed(),
                Vec::new(),
            );
        }
        value
    }

    /// Runs a batch of cells (results in input order). This is the
    /// serving-side analogue of `Pipeline::run_matrix`: every cell is
    /// looked up in the cache on the calling thread, only the misses
    /// are sharded across worker threads — an all-hit batch spawns
    /// none — and identical cells, within this batch or across
    /// concurrent requests, are computed once.
    #[must_use]
    pub fn run_cells(&self, specs: &[CellSpec<'_>]) -> Vec<CellResult> {
        let probed: Vec<Result<CellResult, CacheKey>> =
            specs.iter().map(|&spec| self.lookup(spec)).collect();
        let misses: Vec<(CellSpec<'_>, &CacheKey)> = specs
            .iter()
            .zip(&probed)
            .filter_map(|(&spec, probe)| probe.as_ref().err().map(|key| (spec, key)))
            .collect();
        let mut computed =
            par::par_map(&misses, |&(spec, key)| self.compute(spec, key)).into_iter();
        probed
            .into_iter()
            .map(|probe| probe.unwrap_or_else(|_| computed.next().expect("one result per miss")))
            .collect()
    }

    /// Mirrors one cache insertion into the logs: newly dirtied II
    /// seeds and the cell value are appended; an eviction triggers an
    /// atomic compact-and-rewrite of the cell log instead, so the log
    /// stays an exact LRU-ordered snapshot of the live set. Callers
    /// hold the cache lock (cache → persist ordering). Write failures
    /// are counted, not fatal.
    fn persist_insert(
        &self,
        cache: &ResultCache<CellResult>,
        key: &CacheKey,
        value: &CellResult,
        evicted: bool,
    ) {
        let Some(persist) = &self.persist else { return };
        let mut p = persist.lock().expect("persist lock");
        for (seed_key, ii) in self.seeds.drain_dirty() {
            if p.seeds.append(&seed_key, &ii.to_le_bytes()).is_err() {
                p.stats.write_errors += 1;
            } else {
                p.stats.appended_records += 1;
            }
        }
        if evicted {
            let entries = cache.entries_by_recency();
            if p.cells.rewrite(encode_live(&entries)).is_err() {
                p.stats.write_errors += 1;
            } else {
                p.stats.compactions += 1;
            }
        } else if let Ok(stats) = value.as_ref() {
            // Only Ok cells persist; a failed cell is recomputed (and
            // may succeed) after a restart.
            if p.cells
                .append(key.bytes(), &persist::suite_stats_bytes(stats))
                .is_err()
            {
                p.stats.write_errors += 1;
            } else {
                p.stats.appended_records += 1;
            }
        }
    }

    /// Flushes the durable state: appends any dirty II seeds and fsyncs
    /// both logs. With `compact`, additionally rewrites the cell log to
    /// the current LRU-ordered live set, capturing recency drift from
    /// cache hits since the last eviction — used on clean shutdown.
    /// No-op without a state dir; write failures are counted, not
    /// fatal.
    pub fn flush_state(&self, compact: bool) {
        let Some(persist) = &self.persist else { return };
        let cache = self.cache.lock().expect("cache lock");
        let mut p = persist.lock().expect("persist lock");
        for (seed_key, ii) in self.seeds.drain_dirty() {
            if p.seeds.append(&seed_key, &ii.to_le_bytes()).is_err() {
                p.stats.write_errors += 1;
            } else {
                p.stats.appended_records += 1;
            }
        }
        if compact {
            let entries = cache.entries_by_recency();
            if p.cells.rewrite(encode_live(&entries)).is_err() {
                p.stats.write_errors += 1;
            } else {
                p.stats.compactions += 1;
            }
        } else if p.cells.sync().is_err() {
            p.stats.write_errors += 1;
        }
        if p.seeds.sync().is_err() {
            p.stats.write_errors += 1;
        }
        p.stats.flushes += 1;
    }

    /// A snapshot of the engine counters.
    ///
    /// # Panics
    ///
    /// Panics if an internal lock is poisoned.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let cache = self.cache.lock().expect("cache lock");
        EngineStats {
            cache: cache.stats(),
            cache_entries: cache.len(),
            cache_capacity: cache.capacity(),
            computed_cells: self.computed.load(Ordering::Relaxed),
            deduped_requests: self.deduped.load(Ordering::Relaxed),
            cluster: self.usage.lock().expect("usage lock").clone(),
            seeded_kernels: self.seeded.load(Ordering::Relaxed),
            persist: self
                .persist
                .as_ref()
                .map(|p| p.lock().expect("persist lock").stats),
            uptime_ms: self.started.elapsed().as_millis() as u64,
        }
    }
}

/// Adapts an `entries_by_recency` snapshot into the record iterator a
/// cell-log rewrite wants, dropping `Err` cells (only successful runs
/// persist).
fn encode_live(entries: &[(CacheKey, CellResult)]) -> impl Iterator<Item = (&[u8], Vec<u8>)> {
    entries
        .iter()
        .filter_map(|(key, value)| match value.as_ref() {
            Ok(stats) => Some((key.bytes(), persist::suite_stats_bytes(stats))),
            Err(_) => None,
        })
}

/// Applies JSON machine overrides (see `docs/serving.md`) on top of
/// `base` and validates the result.
///
/// # Errors
///
/// Returns a message naming the offending field.
pub fn machine_with_overrides(
    base: &MachineConfig,
    overrides: &crate::json::Json,
) -> Result<MachineConfig, String> {
    use crate::json::Json;
    let mut machine = base.clone();
    let as_usize = |v: &Json, what: &str| -> Result<usize, String> {
        v.as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| format!("{what} must be a non-negative integer"))
    };
    let as_u64 = |v: &Json, what: &str| -> Result<u64, String> {
        v.as_u64()
            .ok_or_else(|| format!("{what} must be a non-negative integer"))
    };
    let as_u32 = |v: &Json, what: &str| -> Result<u32, String> {
        v.as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| format!("{what} must be a 32-bit non-negative integer"))
    };
    if let Some(v) = overrides.get("n_clusters") {
        machine.n_clusters = as_usize(v, "n_clusters")?;
    }
    if let Some(v) = overrides.get("interleave_bytes") {
        machine.interleave_bytes = as_u64(v, "interleave_bytes")?;
    }
    if let Some(v) = overrides.get("cache") {
        if let Some(x) = v.get("total_bytes") {
            machine.cache.total_bytes = as_u64(x, "cache.total_bytes")?;
        }
        if let Some(x) = v.get("block_bytes") {
            machine.cache.block_bytes = as_u64(x, "cache.block_bytes")?;
        }
        if let Some(x) = v.get("assoc") {
            machine.cache.assoc = as_usize(x, "cache.assoc")?;
        }
        if let Some(x) = v.get("latency") {
            machine.cache.latency = as_u32(x, "cache.latency")?;
        }
    }
    for (field, buses) in [
        ("reg_buses", &mut machine.reg_buses),
        ("mem_buses", &mut machine.mem_buses),
    ] {
        if let Some(v) = overrides.get(field) {
            if let Some(x) = v.get("count") {
                buses.count = as_usize(x, field)?;
            }
            if let Some(x) = v.get("latency") {
                buses.latency = as_u32(x, field)?;
            }
        }
    }
    if let Some(v) = overrides.get("next_level") {
        if let Some(x) = v.get("ports") {
            machine.next_level.ports = as_usize(x, "next_level.ports")?;
        }
        if let Some(x) = v.get("latency") {
            machine.next_level.latency = as_u32(x, "next_level.latency")?;
        }
    }
    if let Some(v) = overrides.get("attraction_buffers") {
        machine.attraction_buffers = match v {
            Json::Null => None,
            v if !matches!(v, Json::Obj(_)) => {
                return Err(
                    "attraction_buffers must be an object {entries, assoc} or null".to_string(),
                );
            }
            v => Some(distvliw_arch::AttractionBufferConfig {
                entries: v
                    .get("entries")
                    .map(|x| as_usize(x, "attraction_buffers.entries"))
                    .transpose()?
                    .unwrap_or(16),
                assoc: v
                    .get("assoc")
                    .map(|x| as_usize(x, "attraction_buffers.assoc"))
                    .transpose()?
                    .unwrap_or(2),
            }),
        };
    }
    machine
        .validate()
        .map_err(|e| format!("invalid machine: {e}"))?;
    Ok(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn engine() -> ServeEngine {
        ServeEngine::new(MachineConfig::paper_baseline(), 64)
    }

    #[test]
    fn identical_cells_hit_the_cache() {
        let engine = engine();
        let suite = engine.suite("gsmdec").unwrap();
        let spec = CellSpec {
            suite,
            machine: engine.machine(),
            solution: Solution::Mdc,
            heuristic: Heuristic::PrefClus,
        };
        let cold = engine.run_cell(spec);
        let s = engine.stats();
        assert_eq!(s.computed_cells, 1);
        assert_eq!(s.cache.hits, 0);
        assert_eq!(s.cache.misses, 1, "one lookup outcome per request");
        let warm = engine.run_cell(spec);
        let s = engine.stats();
        assert_eq!(s.computed_cells, 1, "second run must not recompute");
        assert_eq!(s.cache.hits, 1);
        assert!(Arc::ptr_eq(&cold, &warm), "same cached value");
        // Computed usage is the cell's own per-cluster usage.
        let stats = cold.as_ref().as_ref().unwrap();
        assert_eq!(s.cluster, stats.cluster);
    }

    #[test]
    fn any_perturbation_misses() {
        let engine = engine();
        let suite = engine.suite("gsmdec").unwrap();
        let base = CellSpec {
            suite,
            machine: engine.machine(),
            solution: Solution::Mdc,
            heuristic: Heuristic::PrefClus,
        };
        engine.run_cell(base);
        // Different heuristic, solution, machine and suite each compute
        // a fresh cell.
        let m2 = engine.machine().clone().with_interleave(2);
        let other_suite = engine.suite("jpegenc").unwrap();
        let variants = [
            CellSpec {
                heuristic: Heuristic::MinComs,
                ..base
            },
            CellSpec {
                solution: Solution::Ddgt,
                ..base
            },
            CellSpec {
                machine: &m2,
                ..base
            },
            CellSpec {
                suite: other_suite,
                ..base
            },
        ];
        for (i, spec) in variants.iter().enumerate() {
            engine.run_cell(*spec);
            assert_eq!(
                engine.stats().computed_cells,
                i as u64 + 2,
                "variant {i} must compute"
            );
        }
        assert_eq!(engine.stats().cache.hits, 0);
    }

    #[test]
    fn concurrent_identical_requests_compute_once() {
        let engine = engine();
        let suite = engine.suite("epicdec").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..6 {
                scope.spawn(|| {
                    let spec = CellSpec {
                        suite,
                        machine: engine.machine(),
                        solution: Solution::Ddgt,
                        heuristic: Heuristic::PrefClus,
                    };
                    let result = engine.run_cell(spec);
                    assert!(result.is_ok());
                });
            }
        });
        let s = engine.stats();
        assert_eq!(s.computed_cells, 1, "single-flight must collapse the storm");
        assert_eq!(
            s.cache.hits + s.deduped_requests,
            5,
            "five requests piggybacked (via cache or flight)"
        );
    }

    #[test]
    fn cached_cells_match_a_direct_pipeline_run() {
        let engine = engine();
        let suite = engine.suite("g721dec").unwrap();
        let spec = CellSpec {
            suite,
            machine: engine.machine(),
            solution: Solution::Ddgt,
            heuristic: Heuristic::MinComs,
        };
        engine.run_cell(spec); // cold
        let warm = engine.run_cell(spec); // from cache
        let direct = Pipeline::new(engine.machine().clone())
            .run_suite(suite, Solution::Ddgt, Heuristic::MinComs)
            .unwrap();
        let warm = warm.as_ref().as_ref().unwrap();
        assert_eq!(warm.total_cycles(), direct.total_cycles());
        assert_eq!(warm.total, direct.total);
        assert_eq!(warm.cluster, direct.cluster);
    }

    #[test]
    fn machine_overrides_apply_and_validate() {
        let base = MachineConfig::paper_baseline();
        let body = json::parse(
            r#"{"interleave_bytes": 2,
                "reg_buses": {"count": 2, "latency": 4},
                "attraction_buffers": {"entries": 32}}"#,
        )
        .unwrap();
        let m = machine_with_overrides(&base, &body).unwrap();
        assert_eq!(m.interleave_bytes, 2);
        assert_eq!(m.reg_buses.count, 2);
        assert_eq!(m.reg_buses.latency, 4);
        assert_eq!(m.attraction_buffers.unwrap().entries, 32);
        assert_eq!(m.attraction_buffers.unwrap().assoc, 2);

        // Null strips the buffers.
        let none = json::parse(r#"{"attraction_buffers": null}"#).unwrap();
        let m = machine_with_overrides(
            &base
                .clone()
                .with_attraction_buffers(distvliw_arch::AttractionBufferConfig::paper()),
            &none,
        )
        .unwrap();
        assert_eq!(m.attraction_buffers, None);

        // Invalid geometry is rejected, not run.
        let bad = json::parse(r#"{"interleave_bytes": 16}"#).unwrap();
        assert!(machine_with_overrides(&base, &bad).is_err());
        let bad = json::parse(r#"{"n_clusters": "four"}"#).unwrap();
        assert!(machine_with_overrides(&base, &bad).is_err());
        // `false` must not silently *enable* default buffers.
        let bad = json::parse(r#"{"attraction_buffers": false}"#).unwrap();
        assert!(machine_with_overrides(&base, &bad).is_err());
    }
}
