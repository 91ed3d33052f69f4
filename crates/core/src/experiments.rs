//! Drivers that regenerate every table and figure of the paper's
//! evaluation (Sections 4–6). Each driver returns typed rows; the
//! [`crate::report`] module renders them as text tables.

use std::collections::{HashMap, HashSet};

use distvliw_arch::{AccessClass, AttractionBufferConfig, BusConfig, MachineConfig};
use distvliw_coherence::{chain_stats, specialize_kernel, ChainStats};
use distvliw_ir::Suite;
use distvliw_mediabench::{figure_suites, suite, trace_suites};
use distvliw_sched::Heuristic;
use distvliw_sim::ClusterUsage;

use crate::par;
use crate::pipeline::{Pipeline, PipelineError, Solution, SuiteArtifact, SuiteStats};

/// Fraction of memory accesses per class (Figure 6 bar segments).
#[derive(Debug, Clone, Copy, Default)]
pub struct AccessBreakdown {
    /// Fractions indexed like [`AccessClass::ALL`].
    pub fractions: [f64; 5],
}

impl AccessBreakdown {
    fn of(stats: &SuiteStats) -> Self {
        let mut fractions = [0.0; 5];
        for class in AccessClass::ALL {
            fractions[class.index()] = stats.total.accesses.fraction(class);
        }
        AccessBreakdown { fractions }
    }

    /// Local hit fraction.
    #[must_use]
    pub fn local_hits(&self) -> f64 {
        self.fractions[AccessClass::LocalHit.index()]
    }
}

/// One benchmark row of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Free scheduling (no memory-dependence restrictions).
    pub free: AccessBreakdown,
    /// The MDC solution.
    pub mdc: AccessBreakdown,
    /// The DDGT solution.
    pub ddgt: AccessBreakdown,
}

/// Figure 6: classification of memory accesses under PrefClus.
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn fig6(machine: &MachineConfig) -> Result<Vec<Fig6Row>, PipelineError> {
    let pipeline = Pipeline::new(machine.clone());
    let mut rows = Vec::new();
    for suite in figure_suites() {
        let h = Heuristic::PrefClus;
        let free = pipeline.run_suite(&suite, Solution::Free, h)?;
        let mdc = pipeline.run_suite(&suite, Solution::Mdc, h)?;
        let ddgt = pipeline.run_suite(&suite, Solution::Ddgt, h)?;
        rows.push(Fig6Row {
            benchmark: suite.name.clone(),
            free: AccessBreakdown::of(&free),
            mdc: AccessBreakdown::of(&mdc),
            ddgt: AccessBreakdown::of(&ddgt),
        });
    }
    Ok(rows)
}

/// Arithmetic-mean row over Figure 6 rows.
#[must_use]
pub fn fig6_amean(rows: &[Fig6Row]) -> Fig6Row {
    let n = rows.len().max(1) as f64;
    let mut mean = Fig6Row {
        benchmark: "AMEAN".into(),
        free: AccessBreakdown::default(),
        mdc: AccessBreakdown::default(),
        ddgt: AccessBreakdown::default(),
    };
    for row in rows {
        for i in 0..5 {
            mean.free.fractions[i] += row.free.fractions[i] / n;
            mean.mdc.fractions[i] += row.mdc.fractions[i] / n;
            mean.ddgt.fractions[i] += row.ddgt.fractions[i] / n;
        }
    }
    mean
}

/// One normalized execution-time bar (compute + stall segments).
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizedBar {
    /// Compute cycles / baseline total cycles.
    pub compute: f64,
    /// Stall cycles / baseline total cycles.
    pub stall: f64,
}

impl NormalizedBar {
    fn of(stats: &SuiteStats, baseline_total: u64) -> Self {
        let b = baseline_total.max(1) as f64;
        NormalizedBar {
            compute: stats.total.compute_cycles as f64 / b,
            stall: stats.total.stall_cycles as f64 / b,
        }
    }

    /// Total normalized cycles.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.compute + self.stall
    }
}

/// One benchmark row of Figure 7 / Figure 9: the four solution bars,
/// normalized to Free(MinComs) on the same machine.
#[derive(Debug, Clone)]
pub struct ExecRow {
    /// Benchmark name.
    pub benchmark: String,
    /// MDC with PrefClus.
    pub mdc_pref: NormalizedBar,
    /// MDC with MinComs.
    pub mdc_min: NormalizedBar,
    /// DDGT with PrefClus.
    pub ddgt_pref: NormalizedBar,
    /// DDGT with MinComs.
    pub ddgt_min: NormalizedBar,
}

fn exec_row(pipeline: &Pipeline, suite: &Suite) -> Result<ExecRow, PipelineError> {
    let baseline = pipeline.run_suite(suite, Solution::Free, Heuristic::MinComs)?;
    let base = baseline.total_cycles();
    let run = |solution, heuristic| -> Result<NormalizedBar, PipelineError> {
        Ok(NormalizedBar::of(
            &pipeline.run_suite(suite, solution, heuristic)?,
            base,
        ))
    };
    Ok(ExecRow {
        benchmark: suite.name.clone(),
        mdc_pref: run(Solution::Mdc, Heuristic::PrefClus)?,
        mdc_min: run(Solution::Mdc, Heuristic::MinComs)?,
        ddgt_pref: run(Solution::Ddgt, Heuristic::PrefClus)?,
        ddgt_min: run(Solution::Ddgt, Heuristic::MinComs)?,
    })
}

/// Figure 7: normalized execution time for the four solution/heuristic
/// combinations, baseline Free(MinComs).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn fig7(machine: &MachineConfig) -> Result<Vec<ExecRow>, PipelineError> {
    let pipeline = Pipeline::new(machine.clone());
    figure_suites()
        .iter()
        .map(|s| exec_row(&pipeline, s))
        .collect()
}

/// Figure 9: the same bars with 16-entry 2-way Attraction Buffers
/// (baseline Free(MinComs) also has the buffers).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn fig9(machine: &MachineConfig) -> Result<Vec<ExecRow>, PipelineError> {
    let with_ab = machine
        .clone()
        .with_attraction_buffers(AttractionBufferConfig::paper());
    fig7(&with_ab)
}

/// Arithmetic-mean row over execution-time rows.
#[must_use]
pub fn exec_amean(rows: &[ExecRow]) -> ExecRow {
    let n = rows.len().max(1) as f64;
    let mut mean = ExecRow {
        benchmark: "AMEAN".into(),
        mdc_pref: NormalizedBar::default(),
        mdc_min: NormalizedBar::default(),
        ddgt_pref: NormalizedBar::default(),
        ddgt_min: NormalizedBar::default(),
    };
    for r in rows {
        for (acc, bar) in [
            (&mut mean.mdc_pref, r.mdc_pref),
            (&mut mean.mdc_min, r.mdc_min),
            (&mut mean.ddgt_pref, r.ddgt_pref),
            (&mut mean.ddgt_min, r.ddgt_min),
        ] {
            acc.compute += bar.compute / n;
            acc.stall += bar.stall / n;
        }
    }
    mean
}

/// One benchmark row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Measured chain ratios.
    pub stats: ChainStats,
    /// The paper's published ratios, when available.
    pub paper: Option<(f64, f64)>,
}

/// Table 3: CMR and CAR per benchmark.
#[must_use]
pub fn table3() -> Vec<Table3Row> {
    distvliw_mediabench::BENCHMARKS
        .iter()
        .filter(|spec| distvliw_mediabench::FIGURE_BENCHMARKS.contains(&spec.name))
        .map(|spec| {
            let suite = distvliw_mediabench::build_suite(spec);
            Table3Row {
                benchmark: spec.name.to_string(),
                stats: chain_stats(suite.kernels.iter()),
                paper: spec.table3,
            }
        })
        .collect()
}

/// One benchmark row of Table 4.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Dynamic communication operations of DDGT over MDC (PrefClus).
    pub comm_ratio: f64,
    /// DDGT speedup over MDC on the *selected loops* (loops with ≥10%
    /// MDC slowdown vs the Free baseline), `None` when no loop
    /// qualifies (the paper's dashes).
    pub selected_speedup: Option<f64>,
}

impl Table4Row {
    /// Computes one Table 4 row from the three PrefClus suite runs.
    /// Shared by [`table4`] and the serving layer's `/table4` endpoint
    /// so the selection criterion cannot drift between them.
    #[must_use]
    pub fn from_stats(
        benchmark: impl Into<String>,
        free: &SuiteStats,
        mdc: &SuiteStats,
        ddgt: &SuiteStats,
    ) -> Table4Row {
        let comm_ratio = ddgt.total.comm_ops as f64 / (mdc.total.comm_ops.max(1)) as f64;

        // Selected loops: ≥10% MDC slowdown vs the Free baseline.
        let mut mdc_cycles = 0u64;
        let mut ddgt_cycles = 0u64;
        for ((f, m), d) in free.kernels.iter().zip(&mdc.kernels).zip(&ddgt.kernels) {
            if m.stats.total_cycles() as f64 >= 1.10 * f.stats.total_cycles() as f64 {
                mdc_cycles += m.stats.total_cycles();
                ddgt_cycles += d.stats.total_cycles();
            }
        }
        let selected_speedup =
            (mdc_cycles > 0).then(|| mdc_cycles as f64 / ddgt_cycles.max(1) as f64 - 1.0);
        Table4Row {
            benchmark: benchmark.into(),
            comm_ratio,
            selected_speedup,
        }
    }
}

/// Table 4: Δ communication operations and selected-loop speedups
/// (PrefClus).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn table4(machine: &MachineConfig) -> Result<Vec<Table4Row>, PipelineError> {
    let pipeline = Pipeline::new(machine.clone());
    let mut rows = Vec::new();
    for suite in figure_suites() {
        let h = Heuristic::PrefClus;
        let free = pipeline.run_suite(&suite, Solution::Free, h)?;
        let mdc = pipeline.run_suite(&suite, Solution::Mdc, h)?;
        let ddgt = pipeline.run_suite(&suite, Solution::Ddgt, h)?;
        rows.push(Table4Row::from_stats(
            suite.name.clone(),
            &free,
            &mdc,
            &ddgt,
        ));
    }
    Ok(rows)
}

/// One benchmark row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Ratios before code specialization.
    pub old: ChainStats,
    /// Ratios after code specialization.
    pub new: ChainStats,
    /// Paper values `(old_cmr, old_car, new_cmr, new_car)`.
    pub paper: (f64, f64, f64, f64),
}

/// Table 5: chain restrictions before and after code specialization for
/// epicdec, pgpdec and rasta (paper Section 6).
#[must_use]
pub fn table5() -> Vec<Table5Row> {
    let targets = [
        ("epicdec", (0.64, 0.22, 0.20, 0.06)),
        ("pgpdec", (0.73, 0.24, 0.52, 0.17)),
        ("rasta", (0.52, 0.26, 0.13, 0.06)),
    ];
    targets
        .iter()
        .map(|&(name, paper)| {
            let s = suite(name).expect("specialization benchmarks exist");
            let old = chain_stats(s.kernels.iter());
            let specialized: Vec<_> = s.kernels.iter().map(|k| specialize_kernel(k).0).collect();
            let new = chain_stats(specialized.iter());
            Table5Row {
                benchmark: name.to_string(),
                old,
                new,
                paper,
            }
        })
        .collect()
}

/// One benchmark row of the NOBAL bus-configuration study (Section 4.2,
/// "Other architectural configurations").
#[derive(Debug, Clone)]
pub struct NobalRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Best MDC total cycles (over both heuristics).
    pub best_mdc: u64,
    /// DDGT(PrefClus) total cycles.
    pub ddgt_pref: u64,
    /// Speedup of DDGT(PrefClus) over the best MDC (positive = DDGT
    /// wins).
    pub ddgt_speedup: f64,
}

/// Runs the NOBAL study on one machine variant
/// ([`MachineConfig::nobal_mem`] or [`MachineConfig::nobal_reg`]).
///
/// # Errors
///
/// Propagates the first pipeline failure.
pub fn nobal(machine: &MachineConfig) -> Result<Vec<NobalRow>, PipelineError> {
    let pipeline = Pipeline::new(machine.clone());
    let mut rows = Vec::new();
    for suite in figure_suites() {
        let mdc_pref = pipeline.run_suite(&suite, Solution::Mdc, Heuristic::PrefClus)?;
        let mdc_min = pipeline.run_suite(&suite, Solution::Mdc, Heuristic::MinComs)?;
        let ddgt = pipeline.run_suite(&suite, Solution::Ddgt, Heuristic::PrefClus)?;
        let best_mdc = mdc_pref.total_cycles().min(mdc_min.total_cycles());
        let ddgt_pref = ddgt.total_cycles();
        rows.push(NobalRow {
            benchmark: suite.name.clone(),
            best_mdc,
            ddgt_pref,
            ddgt_speedup: best_mdc as f64 / ddgt_pref.max(1) as f64 - 1.0,
        });
    }
    Ok(rows)
}

/// The gsmdec loop case study of Section 4.2 and the epicdec Attraction
/// Buffer case study of Section 5.4.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// Which loop.
    pub name: String,
    /// MDC(PrefClus) compute and stall cycles.
    pub mdc: (u64, u64),
    /// DDGT(PrefClus) compute and stall cycles.
    pub ddgt: (u64, u64),
    /// MDC local hit ratio.
    pub mdc_local: f64,
    /// DDGT local hit ratio.
    pub ddgt_local: f64,
    /// Speedup of DDGT over MDC on this loop.
    pub speedup: f64,
}

fn case_study(machine: &MachineConfig, bench: &str) -> Result<CaseStudy, PipelineError> {
    let s = suite(bench).expect("case-study benchmark exists");
    let pipeline = Pipeline::new(machine.clone().with_interleave(s.interleave_bytes));
    let chained = &s.kernels[0];
    let mdc = pipeline.run_kernel(chained, Solution::Mdc, Heuristic::PrefClus)?;
    let ddgt = pipeline.run_kernel(chained, Solution::Ddgt, Heuristic::PrefClus)?;
    Ok(CaseStudy {
        name: format!("{bench}.{}", chained.name),
        mdc: (mdc.stats.compute_cycles, mdc.stats.stall_cycles),
        ddgt: (ddgt.stats.compute_cycles, ddgt.stats.stall_cycles),
        mdc_local: mdc.stats.local_hit_ratio(),
        ddgt_local: ddgt.stats.local_hit_ratio(),
        speedup: mdc.stats.total_cycles() as f64 / ddgt.stats.total_cycles().max(1) as f64 - 1.0,
    })
}

/// The gsmdec selected-loop case study (paper Section 4.2).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn gsmdec_case_study(machine: &MachineConfig) -> Result<CaseStudy, PipelineError> {
    case_study(machine, "gsmdec")
}

/// The epicdec Attraction-Buffer case study (paper Section 5.4): the
/// 76-memory-op chain loop with 16-entry 2-way buffers.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn epicdec_ab_case_study(machine: &MachineConfig) -> Result<CaseStudy, PipelineError> {
    let with_ab = machine
        .clone()
        .with_attraction_buffers(AttractionBufferConfig::paper());
    case_study(&with_ab, "epicdec")
}

/// Description of a sensitivity sweep: the cluster-count × memory-bus
/// grid of paper Section 5.4's scaling question. Every grid point runs
/// all four solutions ([`SWEEP_SOLUTIONS`]) under one heuristic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// Cluster counts to sweep (default 2/4/8/16).
    pub cluster_counts: Vec<usize>,
    /// Memory-bus configurations to sweep (count × latency grid).
    pub mem_buses: Vec<BusConfig>,
    /// Cluster-assignment heuristic for every cell.
    pub heuristic: Heuristic,
}

impl Default for SweepSpec {
    /// The default grid: cluster counts 2/4/8/16 × three memory-bus
    /// points — the paper's baseline (4 buses @ 2 cycles), half the
    /// buses (4→2) and double the latency (2→4).
    fn default() -> Self {
        SweepSpec {
            cluster_counts: vec![2, 4, 8, 16],
            mem_buses: vec![
                BusConfig {
                    count: 4,
                    latency: 2,
                },
                BusConfig {
                    count: 2,
                    latency: 2,
                },
                BusConfig {
                    count: 4,
                    latency: 4,
                },
            ],
            heuristic: Heuristic::PrefClus,
        }
    }
}

/// The four solutions every sweep cell runs, in row order.
pub const SWEEP_SOLUTIONS: [Solution; 4] = [
    Solution::Free,
    Solution::Mdc,
    Solution::Ddgt,
    Solution::Hybrid,
];

/// The machine for one sweep grid point: `base` with the cluster count
/// and memory buses replaced. The cache block size is raised to the
/// cluster stripe (`n_clusters × 4` bytes, the widest bundled
/// interleave) when the baseline block no longer divides evenly —
/// total capacity is unchanged, so configurations at ≤ 8 clusters keep
/// the paper's 32-byte blocks exactly.
///
/// # Panics
///
/// Panics if the resulting configuration is invalid (impossible for
/// power-of-two cluster counts over a valid base).
#[must_use]
pub fn sweep_machine(
    base: &MachineConfig,
    n_clusters: usize,
    mem_buses: BusConfig,
) -> MachineConfig {
    let mut machine = base.clone();
    machine.n_clusters = n_clusters;
    machine.mem_buses = mem_buses;
    let stripe = n_clusters as u64 * 4;
    if !machine.cache.block_bytes.is_multiple_of(stripe) {
        machine.cache.block_bytes = machine.cache.block_bytes.max(stripe);
    }
    machine.validate().expect("sweep machine is valid");
    machine
}

/// Names of the suites the default sweep runs, in sweep order — one
/// chained synthetic benchmark plus the bundled recorded traces. The
/// serving layer resolves these against its resident suites so a warm
/// `GET /sweep` never rebuilds a workload; kept in lock-step with
/// [`sweep_default_suites`] by a unit test.
pub const SWEEP_DEFAULT_SUITE_NAMES: [&str; 3] = ["gsmdec", "fir8", "ptrchase"];

/// The suites the default sweep (`repro sweep` and `GET /sweep`) runs
/// ([`SWEEP_DEFAULT_SUITE_NAMES`]): small enough that the full
/// 2→16-cluster grid stays cheap, broad enough to cover both workload
/// classes.
#[must_use]
pub fn sweep_default_suites() -> Vec<Suite> {
    let traces = trace_suites();
    SWEEP_DEFAULT_SUITE_NAMES
        .iter()
        .map(|name| {
            suite(name)
                .or_else(|| traces.iter().find(|t| t.name == *name).cloned())
                .expect("default sweep suites are bundled")
        })
        .collect()
}

/// One `(cluster count, bus point, solution)` row of a sweep, aggregated
/// over all swept suites.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Cluster count of this grid point.
    pub n_clusters: usize,
    /// Memory-bus configuration of this grid point.
    pub mem_buses: BusConfig,
    /// Coherence solution of this row.
    pub solution: Solution,
    /// Total cycles over all suites.
    pub total_cycles: u64,
    /// Stall cycles over all suites.
    pub stall_cycles: u64,
    /// Memory-bus busy cycles over all suites.
    pub bus_busy_cycles: u64,
    /// Summed bus drain windows over all suites (each at least its
    /// suite's total cycles — see `SimStats::bus_drain_cycles`); the
    /// denominator that keeps [`SweepRow::bus_occupancy`] ≤ 1.
    pub bus_drain_cycles: u64,
    /// Coherence violations (nonzero only for the Free baseline).
    pub violations: u64,
    /// Classified memory accesses over all suites.
    pub accesses: u64,
    /// Per-cluster usage aggregated over all suites (the imbalance
    /// surface; its length equals `n_clusters`).
    pub cluster: ClusterUsage,
    /// Scheduler search effort over all suites (ejections, placement
    /// attempts — the ejection-scheduler trajectory the sweep report
    /// surfaces).
    pub sched: crate::SchedTotals,
}

impl SweepRow {
    /// The busiest-cluster-over-mean imbalance ratio of this row.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        self.cluster.imbalance()
    }

    /// Fraction of the available bus capacity the memory buses were
    /// busy. The window is the drain (`bus_drain_cycles`), not the
    /// issue span: fire-and-forget stores can keep the buses busy past
    /// the last issue cycle, and over the drain window occupancy is
    /// always ≤ 1.
    #[must_use]
    pub fn bus_occupancy(&self) -> f64 {
        let capacity = self
            .bus_drain_cycles
            .saturating_mul(self.mem_buses.count as u64);
        if capacity == 0 {
            0.0
        } else {
            self.bus_busy_cycles as f64 / capacity as f64
        }
    }
}

/// Folds per-suite statistics into one [`SweepRow`]. Shared by
/// [`sweep`] and the serving layer's `GET /sweep` so both aggregate
/// identically.
#[must_use]
pub fn sweep_row(
    n_clusters: usize,
    mem_buses: BusConfig,
    solution: Solution,
    per_suite: &[&SuiteStats],
) -> SweepRow {
    let mut row = SweepRow {
        n_clusters,
        mem_buses,
        solution,
        total_cycles: 0,
        stall_cycles: 0,
        bus_busy_cycles: 0,
        bus_drain_cycles: 0,
        violations: 0,
        accesses: 0,
        cluster: ClusterUsage::default(),
        sched: crate::SchedTotals::default(),
    };
    for stats in per_suite {
        row.total_cycles += stats.total_cycles();
        row.stall_cycles += stats.total.stall_cycles;
        row.bus_busy_cycles += stats.total.bus_busy_cycles;
        row.bus_drain_cycles += stats.total.bus_drain_cycles;
        row.violations += stats.total.coherence_violations;
        row.accesses += stats.total.accesses.total();
        row.cluster += &stats.cluster;
        row.sched += &stats.sched;
    }
    row
}

/// Reuse telemetry of one factored [`sweep`] run: how many suite
/// schedules were actually compiled, how many grid cells replayed an
/// artifact compiled for an earlier bus point, and how many compiles
/// were *fallbacks* — a sim axis that turned out to be scheduler-visible
/// (bus latency feeds the scheduler's remote-access latencies), so the
/// runner had to recompile instead of reusing. The sweep report surfaces
/// these so dropped reuse is never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReuse {
    /// Suite-level schedule artifacts compiled (one per distinct
    /// scheduler projection × solution × suite).
    pub schedules_compiled: u64,
    /// Concrete grid cells served by an artifact compiled for an
    /// earlier grid point (bus count is sim-only, so these cells paid
    /// for simulation only).
    pub schedules_reused: u64,
    /// Compiles forced because a `(cluster count, solution, suite)`
    /// combination met a *second* scheduler projection — the sched-axis
    /// fallback counter (bus latency changes the projection; bus count
    /// never does).
    pub sched_axis_recompiles: u64,
}

/// The result of a factored [`sweep`]: the grid rows in `(cluster
/// count, bus point, solution)` nesting order plus the reuse telemetry.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// Grid rows, ordered exactly like the naive [`sweep_naive`] rows.
    pub rows: Vec<SweepRow>,
    /// Schedule-artifact reuse counters.
    pub reuse: SweepReuse,
}

/// The concrete (compiled) solutions of every sweep cell; the trailing
/// [`Solution::Hybrid`] row of [`SWEEP_SOLUTIONS`] is derived from the
/// MDC and DDGT runs per loop ([`crate::derive_hybrid`]).
const SWEEP_CONCRETE: [Solution; 3] = [Solution::Free, Solution::Mdc, Solution::Ddgt];

/// Wraps a cell failure with its grid coordinates.
fn cell_error(
    n_clusters: usize,
    mem_buses: BusConfig,
    solution: Solution,
    suite: &str,
    source: PipelineError,
) -> PipelineError {
    PipelineError::Cell {
        n_clusters,
        mem_buses,
        solution,
        suite: suite.to_string(),
        source: Box::new(source),
    }
}

/// Runs the sensitivity sweep, factored into a schedule-once/sim-many
/// pipeline: for every cluster count × bus point of `spec` and every
/// solution of [`SWEEP_SOLUTIONS`], the grid cell's suite statistics
/// come from a schedule artifact ([`Pipeline::compile_suite`]) keyed by
/// the machine's scheduler projection
/// ([`distvliw_arch::MachineConfig::sched_canonical_bytes`]), the
/// solution and the suite — so cells that differ only in sim-only axes
/// (memory-bus *count*) replay one schedule under
/// [`Pipeline::simulate_artifact`] instead of recompiling, and the
/// hybrid rows are derived per loop from the MDC and DDGT cells
/// ([`crate::derive_hybrid`]) without any extra compile or simulation.
/// Compiles and simulations fan out over [`crate::par`], compiles
/// coarsest-first (the largest cluster counts are the most expensive
/// searches, so they start first); results merge deterministically back
/// into `(cluster count, bus point, solution)` row order.
///
/// Every cell schedules from a cold pipeline (fresh II-seed store, as
/// [`Pipeline::run_matrix`] does), so the surfaced search-effort
/// counters are reproducible and byte-identical to the per-cell
/// reference [`sweep_naive`] — the equivalence the
/// `tests/sweep_equivalence.rs` suite pins.
///
/// # Errors
///
/// Reports the first failing cell in row order, wrapped with its
/// `(clusters, bus, solution, suite)` coordinates
/// ([`PipelineError::Cell`]).
pub fn sweep(
    base: &MachineConfig,
    suites: &[Suite],
    spec: &SweepSpec,
) -> Result<SweepRun, PipelineError> {
    let sweep_start = std::time::Instant::now();
    struct Unit {
        machine: MachineConfig,
        solution: Solution,
        suite_idx: usize,
    }

    let points: Vec<(usize, BusConfig, MachineConfig)> = spec
        .cluster_counts
        .iter()
        .flat_map(|&n| {
            spec.mem_buses
                .iter()
                .map(move |&bus| (n, bus, sweep_machine(base, n, bus)))
        })
        .collect();

    // Deduplicate compile work: one unit per (scheduler projection,
    // solution, suite). Bus count never reaches the scheduler, so a
    // later bus point usually maps onto an existing unit; bus *latency*
    // is scheduler-visible, so its cells recompile — counted as the
    // sched-axis fallback rather than silently absorbed.
    let mut units: Vec<Unit> = Vec::new();
    let mut unit_of: HashMap<(Vec<u8>, usize), usize> = HashMap::new();
    let mut seen_triples: HashSet<(usize, usize, usize)> = HashSet::new();
    let mut reuse = SweepReuse::default();
    // Cell → unit, in (point, solution, suite) enumeration order.
    let mut cell_units: Vec<usize> = Vec::new();
    for (n_clusters, _, machine) in &points {
        for (sol_idx, &solution) in SWEEP_CONCRETE.iter().enumerate() {
            for (suite_idx, suite) in suites.iter().enumerate() {
                let proj = machine
                    .clone()
                    .with_interleave(suite.interleave_bytes)
                    .sched_canonical_bytes();
                let key = (proj, sol_idx * suites.len() + suite_idx);
                let unit_idx = match unit_of.get(&key) {
                    Some(&idx) => {
                        reuse.schedules_reused += 1;
                        idx
                    }
                    None => {
                        let triple = (*n_clusters, sol_idx, suite_idx);
                        if !seen_triples.insert(triple) {
                            reuse.sched_axis_recompiles += 1;
                        }
                        reuse.schedules_compiled += 1;
                        let idx = units.len();
                        units.push(Unit {
                            machine: machine.clone(),
                            solution,
                            suite_idx,
                        });
                        unit_of.insert(key, idx);
                        idx
                    }
                };
                cell_units.push(unit_idx);
            }
        }
    }

    // Compile phase: cold pipelines, coarsest-first for load balance
    // (schedule search cost grows with cluster count), results mapped
    // back to unit order.
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(units[i].machine.n_clusters));
    let compiled = par::par_map(&order, |&i| {
        let unit = &units[i];
        let mut span = distvliw_obs::Span::enter("sweep.compile_unit");
        span.field_str("suite", suites[unit.suite_idx].name.clone());
        span.field_u64("n_clusters", unit.machine.n_clusters as u64);
        let pipeline = Pipeline::new(unit.machine.clone());
        (
            i,
            pipeline.compile_suite(&suites[unit.suite_idx], unit.solution, spec.heuristic),
        )
    });
    let mut artifacts: Vec<Option<Result<SuiteArtifact, PipelineError>>> =
        (0..units.len()).map(|_| None).collect();
    for (i, result) in compiled {
        artifacts[i] = Some(result);
    }
    // Surface the first failing cell in row order, with coordinates.
    for (cell_idx, &unit_idx) in cell_units.iter().enumerate() {
        let suite_idx = cell_idx % suites.len();
        let sol_idx = (cell_idx / suites.len()) % SWEEP_CONCRETE.len();
        let point_idx = cell_idx / (suites.len() * SWEEP_CONCRETE.len());
        if let Some(Err(e)) = artifacts[unit_idx].as_ref() {
            let (n_clusters, mem_buses, _) = points[point_idx];
            return Err(cell_error(
                n_clusters,
                mem_buses,
                SWEEP_CONCRETE[sol_idx],
                &suites[suite_idx].name,
                e.clone(),
            ));
        }
    }
    let artifacts: Vec<SuiteArtifact> = artifacts
        .into_iter()
        .map(|a| {
            a.expect("every unit compiled")
                .expect("errors surfaced above")
        })
        .collect();

    // Sim phase: every concrete cell replays its artifact on the grid
    // point's machine. Simulation cannot fail, so the fan-out is a plain
    // deterministic map.
    let pipelines: Vec<Pipeline> = points
        .iter()
        .map(|(_, _, machine)| Pipeline::new(machine.clone()))
        .collect();
    let cells: Vec<(usize, usize)> = cell_units
        .iter()
        .enumerate()
        .map(|(cell_idx, &unit_idx)| (cell_idx / (suites.len() * SWEEP_CONCRETE.len()), unit_idx))
        .collect();
    let sims: Vec<SuiteStats> = par::par_map(&cells, |&(point_idx, unit_idx)| {
        let mut span = distvliw_obs::Span::enter("sweep.sim_cell");
        span.field_u64("point", point_idx as u64);
        span.field_u64("unit", unit_idx as u64);
        pipelines[point_idx].simulate_artifact(&artifacts[unit_idx])
    });

    // Merge back into (cluster count, bus point, solution) row order,
    // deriving the hybrid rows from the MDC and DDGT cells.
    let per_point = SWEEP_CONCRETE.len() * suites.len();
    let mut rows = Vec::with_capacity(points.len() * SWEEP_SOLUTIONS.len());
    for (point_idx, (n_clusters, mem_buses, _)) in points.iter().enumerate() {
        let point_sims = &sims[point_idx * per_point..(point_idx + 1) * per_point];
        let of = |sol_idx: usize| &point_sims[sol_idx * suites.len()..(sol_idx + 1) * suites.len()];
        for (sol_idx, &solution) in SWEEP_CONCRETE.iter().enumerate() {
            let refs: Vec<&SuiteStats> = of(sol_idx).iter().collect();
            rows.push(sweep_row(*n_clusters, *mem_buses, solution, &refs));
        }
        let hybrid: Vec<SuiteStats> = of(1)
            .iter()
            .zip(of(2))
            .map(|(mdc, ddgt)| crate::derive_hybrid(mdc, ddgt))
            .collect();
        let refs: Vec<&SuiteStats> = hybrid.iter().collect();
        rows.push(sweep_row(*n_clusters, *mem_buses, Solution::Hybrid, &refs));
    }
    let reg = distvliw_obs::global();
    reg.counter(
        "sweep_cells_simulated_total",
        "Concrete sweep cells simulated",
    )
    .add(cells.len() as u64);
    reg.histogram(
        "sweep_duration_us",
        "Wall time of one factored sweep in microseconds",
    )
    .record_micros(sweep_start.elapsed());
    Ok(SweepRun { rows, reuse })
}

/// The naive per-cell reference sweep: every `(cluster count, bus
/// point, solution, suite)` cell runs the full
/// [`Pipeline::run_suite`] compile+simulate path from a cold pipeline —
/// no artifact reuse, no derived hybrid. This is the semantic
/// definition the factored [`sweep`] is tested byte-identical against,
/// and the baseline leg of the `sweep/*` bench ids.
///
/// # Errors
///
/// Reports the first failing cell in row order, wrapped with its
/// coordinates ([`PipelineError::Cell`]).
pub fn sweep_naive(
    base: &MachineConfig,
    suites: &[Suite],
    spec: &SweepSpec,
) -> Result<Vec<SweepRow>, PipelineError> {
    let mut rows = Vec::new();
    for &n_clusters in &spec.cluster_counts {
        for &mem_buses in &spec.mem_buses {
            let machine = sweep_machine(base, n_clusters, mem_buses);
            for solution in SWEEP_SOLUTIONS {
                let mut per_suite = Vec::with_capacity(suites.len());
                for suite in suites {
                    // A cold pipeline per cell keeps the search-effort
                    // telemetry reproducible (the `run_matrix`
                    // rationale): no cell's II seeds warm another's.
                    let pipeline = Pipeline::new(machine.clone());
                    per_suite.push(
                        pipeline
                            .run_suite(suite, solution, spec.heuristic)
                            .map_err(|e| {
                                cell_error(n_clusters, mem_buses, solution, &suite.name, e)
                            })?,
                    );
                }
                let refs: Vec<&SuiteStats> = per_suite.iter().collect();
                rows.push(sweep_row(n_clusters, mem_buses, solution, &refs));
            }
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reports_all_figure_benchmarks() {
        let rows = table3();
        assert_eq!(rows.len(), 13);
        for row in &rows {
            assert!(row.stats.car <= row.stats.cmr + 1e-9, "{}", row.benchmark);
        }
    }

    #[test]
    fn table5_specialization_shrinks_chains() {
        for row in table5() {
            assert!(
                row.new.cmr < row.old.cmr,
                "{}: {} !< {}",
                row.benchmark,
                row.new.cmr,
                row.old.cmr
            );
            assert!(row.new.car <= row.old.car + 1e-9, "{}", row.benchmark);
        }
    }

    #[test]
    fn sweep_machine_scales_block_only_when_needed() {
        let base = MachineConfig::paper_baseline();
        let bus = base.mem_buses;
        for n in [2, 4, 8] {
            let m = sweep_machine(&base, n, bus);
            assert_eq!(m.cache.block_bytes, 32, "{n} clusters keep paper blocks");
            assert_eq!(m.validate(), Ok(()));
        }
        let m = sweep_machine(&base, 16, bus);
        assert_eq!(m.cache.block_bytes, 64, "16 clusters need a 64B stripe");
        assert_eq!(m.cache.total_bytes, base.cache.total_bytes);
        assert_eq!(m.validate(), Ok(()));
        // Bus overrides land.
        let m = sweep_machine(
            &base,
            8,
            BusConfig {
                count: 2,
                latency: 4,
            },
        );
        assert_eq!(m.mem_buses.count, 2);
        assert_eq!(m.mem_buses.latency, 4);
        // Both bundled interleaves validate at every swept count.
        for n in SweepSpec::default().cluster_counts {
            for il in [2, 4] {
                let m = sweep_machine(&base, n, bus).with_interleave(il);
                assert_eq!(m.validate(), Ok(()), "{n} clusters, {il}B interleave");
            }
        }
    }

    #[test]
    fn sweep_covers_grid_and_stays_coherent() {
        let spec = SweepSpec {
            cluster_counts: vec![2, 8],
            mem_buses: vec![BusConfig {
                count: 4,
                latency: 2,
            }],
            heuristic: Heuristic::PrefClus,
        };
        let suites = trace_suites();
        let run = sweep(&MachineConfig::paper_baseline(), &suites, &spec).unwrap();
        // One bus point: every concrete cell compiles, nothing reuses.
        assert_eq!(run.reuse.schedules_compiled, (2 * 3 * suites.len()) as u64);
        assert_eq!(run.reuse.schedules_reused, 0);
        assert_eq!(run.reuse.sched_axis_recompiles, 0);
        let rows = run.rows;
        assert_eq!(rows.len(), 2 * SWEEP_SOLUTIONS.len());
        for row in &rows {
            assert!(row.total_cycles > 0);
            assert!(row.accesses > 0);
            assert_eq!(
                row.cluster.accesses.len(),
                row.n_clusters,
                "per-cluster counters span the whole machine"
            );
            assert!(row.imbalance() >= 1.0);
            // The drain window bounds the busy cycles — occupancy is a
            // true fraction even for store-heavy traces whose transfers
            // queue past the schedule drain.
            assert!(row.bus_drain_cycles >= row.total_cycles);
            assert!(
                row.bus_busy_cycles <= row.bus_drain_cycles * row.mem_buses.count as u64,
                "{}/{}",
                row.n_clusters,
                row.solution
            );
            assert!(row.bus_occupancy() <= 1.0);
            if row.solution != Solution::Free {
                assert_eq!(row.violations, 0, "{}/{}", row.n_clusters, row.solution);
            }
        }
        // Hybrid never loses to either pure solution, at every scale.
        for chunk in rows.chunks(4) {
            let (mdc, ddgt, hybrid) = (&chunk[1], &chunk[2], &chunk[3]);
            assert!(hybrid.total_cycles <= mdc.total_cycles.min(ddgt.total_cycles));
        }
    }

    #[test]
    fn sweep_default_suites_match_their_name_list() {
        // The serving layer resolves SWEEP_DEFAULT_SUITE_NAMES against
        // its resident suites, so the name list and the suite builder
        // must agree exactly (order included).
        let names: Vec<String> = sweep_default_suites()
            .iter()
            .map(|s| s.name.clone())
            .collect();
        assert_eq!(names, SWEEP_DEFAULT_SUITE_NAMES);
        // And the mix covers both workload classes.
        assert!(names.contains(&"gsmdec".to_string()));
        assert!(names.iter().any(|n| n != "gsmdec"));
    }

    #[test]
    fn fig6_single_benchmark_shapes() {
        // Run one benchmark end to end (full fig6 is exercised by the
        // reproduction binaries; this keeps unit tests fast).
        let machine = MachineConfig::paper_baseline();
        let pipeline = Pipeline::new(machine);
        let s = suite("pgpdec").unwrap();
        let h = Heuristic::PrefClus;
        let free = pipeline.run_suite(&s, Solution::Free, h).unwrap();
        let mdc = pipeline.run_suite(&s, Solution::Mdc, h).unwrap();
        let ddgt = pipeline.run_suite(&s, Solution::Ddgt, h).unwrap();
        let f = AccessBreakdown::of(&free);
        let m = AccessBreakdown::of(&mdc);
        let d = AccessBreakdown::of(&ddgt);
        // The paper's ordering: DDGT maximizes local accesses; MDC
        // colocation reduces them below the unrestricted baseline.
        assert!(
            d.local_hits() >= m.local_hits(),
            "DDGT {} vs MDC {}",
            d.local_hits(),
            m.local_hits()
        );
        assert!(
            f.local_hits() >= m.local_hits(),
            "Free {} vs MDC {}",
            f.local_hits(),
            m.local_hits()
        );
    }
}
