//! Cells, the layer-by-layer re-run of a cell, and the golden checks.
//!
//! A cell is one (suite, machine, solution, heuristic) result that a
//! report, sweep row or matrix grid consumes. The traced run re-runs
//! each distinct cell through the same public calls the pipeline makes
//! (profile, coherence pass, modulo scheduler, checker, simulator), one
//! span per call, and then once more through the pipeline's own entry
//! points (`Pipeline::compile_suite` / `simulate_artifact`); the two
//! must agree schedule for schedule and statistic for statistic.

use std::collections::HashMap;

use distvliw_arch::{AccessClass, MachineConfig};
use distvliw_coherence::{find_chains, transform, SchedConstraints};
use distvliw_core::{Heuristic, KernelRun, Solution};
use distvliw_ir::profile::preferred_clusters;
use distvliw_ir::{LoopKernel, Suite};
use distvliw_sched::{ModuloScheduler, Schedule};
use distvliw_sim::{simulate_kernel_detailed, SimOptions, SimStats};

use crate::trace::Tracer;
use crate::Outcome;

/// The solutions a golden line or matrix grid enumerates, in file order.
pub const CONCRETE: [Solution; 3] = [Solution::Free, Solution::Mdc, Solution::Ddgt];
/// Both heuristics, in golden file order.
pub const HEURISTICS: [Heuristic; 2] = [Heuristic::PrefClus, Heuristic::MinComs];

/// Lower-case solution name, as the golden files spell it.
pub fn sol_name(s: Solution) -> &'static str {
    match s {
        Solution::Free => "free",
        Solution::Mdc => "mdc",
        Solution::Ddgt => "ddgt",
        Solution::Hybrid => "hybrid",
    }
}

/// Deterministic work counts of the traced layers (the work ledger).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub schedules: u64,
    pub iis_tried: u64,
    pub placement_attempts: u64,
    pub ejections: u64,
    pub first_ii_hits: u64,
    pub sync_edges: u64,
    pub check_violations: u64,
    pub sim_kernels: u64,
    pub sim_cycles: u64,
}

/// One kernel compiled layer by layer.
pub struct Compiled {
    pub kernel: LoopKernel,
    pub schedule: Schedule,
}

/// Compiles `kernel` on `machine` (interleave already applied) through
/// the layers' public calls, one span each.
pub fn compile_layered(
    tr: &mut Tracer,
    machine: &MachineConfig,
    kernel: &LoopKernel,
    solution: Solution,
    heuristic: Heuristic,
    c: &mut Counters,
) -> Result<Compiled, String> {
    let n = machine.n_clusters;
    let prefs = tr.span("ir.profile", |_| {
        preferred_clusters(kernel, n, |a| machine.home_cluster(a))
    });
    let (kernel, constraints) = match solution {
        Solution::Free => tr.span("coherence.free", |_| {
            (kernel.clone(), SchedConstraints::none())
        }),
        Solution::Mdc => tr.span("coherence.mdc", |_| {
            let chains = find_chains(&kernel.ddg);
            let pref_arg = (heuristic == Heuristic::PrefClus).then_some(&prefs);
            let constraints = SchedConstraints::for_mdc(&chains, &kernel.ddg, pref_arg, n);
            (kernel.clone(), constraints)
        }),
        Solution::Ddgt => tr.span("coherence.ddgt", |_| {
            let mut kernel = kernel.clone();
            let report = transform(&mut kernel.ddg, n);
            c.sync_edges += report.sync_edges as u64;
            (kernel, SchedConstraints::for_ddgt(&report))
        }),
        Solution::Hybrid => return Err("hybrid is derived, not compiled".into()),
    };
    let (schedule, sched) = tr
        .span(&format!("sched.c{n}"), |_| {
            ModuloScheduler::new(machine)
                .with_latency_relaxation(true)
                .schedule_with_stats(&kernel.ddg, &constraints, &prefs, heuristic)
        })
        .map_err(|e| format!("{}: schedule failed: {e:?}", kernel.name))?;
    c.schedules += 1;
    c.iis_tried += u64::from(sched.iis_tried);
    c.placement_attempts += sched.placement_attempts;
    c.ejections += sched.ejections;
    c.first_ii_hits += u64::from(sched.iis_tried == 1);
    let report = tr.span("check", |_| {
        distvliw_check::check_schedule(&kernel.ddg, machine, &constraints, heuristic, &schedule)
    });
    c.check_violations += report.len() as u64;
    if !report.is_clean() {
        return Err(format!(
            "{}: checker rejected the schedule: {report}",
            kernel.name
        ));
    }
    Ok(Compiled { kernel, schedule })
}

/// Simulates a layered compile on `machine` (interleave applied).
pub fn simulate_layered(
    tr: &mut Tracer,
    machine: &MachineConfig,
    k: &Compiled,
    c: &mut Counters,
) -> SimStats {
    let (stats, _) = tr.span("sim", |_| {
        simulate_kernel_detailed(machine, &k.kernel, &k.schedule, SimOptions::default())
    });
    c.sim_kernels += 1;
    c.sim_cycles += stats.total_cycles();
    stats
}

/// The statistics part of a golden line (the format of
/// `tests/common/mod.rs`).
pub fn render_stats(stats: &SimStats) -> String {
    format!(
        "compute={} stall={} lh={} rh={} lm={} rm={} cb={} viol={} comm={} bus={} iters={}",
        stats.compute_cycles,
        stats.stall_cycles,
        stats.accesses.get(AccessClass::LocalHit),
        stats.accesses.get(AccessClass::RemoteHit),
        stats.accesses.get(AccessClass::LocalMiss),
        stats.accesses.get(AccessClass::RemoteMiss),
        stats.accesses.get(AccessClass::Combined),
        stats.coherence_violations,
        stats.comm_ops,
        stats.bus_busy_cycles,
        stats.iterations,
    )
}

/// FNV-1a over the full placement description, as the golden files
/// fingerprint a schedule.
pub fn schedule_fingerprint(s: &Schedule) -> u64 {
    use std::fmt::Write as _;
    let mut text = String::new();
    for (n, op) in &s.ops {
        let class = op
            .assumed_class
            .map_or_else(|| "-".to_string(), |c| format!("{c:?}"));
        let _ = writeln!(text, "{n} c{} t{} {class}", op.cluster, op.start);
    }
    for c in &s.copies {
        let _ = writeln!(
            text,
            "copy {} {}->{} t{}",
            c.producer, c.from_cluster, c.to_cluster, c.start
        );
    }
    fnv(text.as_bytes())
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

/// The pinned golden lines, read (never written) from `tests/golden/`.
pub struct Goldens {
    /// `(suite, kernel index, solution, heuristic)` on the paper machine
    /// (latency relaxation on, as the pipeline runs) → statistics text.
    paper: HashMap<(String, usize, &'static str, Heuristic), String>,
    /// `n=<clusters> <suite>/<kernel> <solution> <heuristic>` → the rest
    /// of the `scale_stats.txt` line.
    scale: HashMap<String, String>,
}

impl Goldens {
    /// Reads both golden files relative to the checkout root.
    pub fn load() -> Result<Goldens, String> {
        let read = |path: &str| {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
        };
        let sim = read("tests/golden/sim_stats.txt")?;
        let mut lines = sim.lines();
        let mut paper = HashMap::new();
        for suite in distvliw_mediabench::suites() {
            for (ki, kernel) in suite.kernels.iter().enumerate() {
                for h in HEURISTICS {
                    for s in CONCRETE {
                        for relax in [true, false] {
                            let line = lines
                                .next()
                                .ok_or("sim_stats.txt has fewer lines than configurations")?;
                            let prefix =
                                format!("{} {} {h} relax={relax} ", kernel.name, sol_name(s));
                            let rest = line.strip_prefix(&prefix).ok_or_else(|| {
                                format!(
                                    "sim_stats.txt line `{line}` does not start with `{prefix}`"
                                )
                            })?;
                            if relax {
                                paper.insert(
                                    (suite.name.clone(), ki, sol_name(s), h),
                                    rest.to_string(),
                                );
                            }
                        }
                    }
                }
            }
        }
        if lines.next().is_some() {
            return Err("sim_stats.txt has more lines than configurations".into());
        }
        let mut scale = HashMap::new();
        for line in read("tests/golden/scale_stats.txt")?.lines() {
            let mut parts = line.splitn(5, ' ');
            let key: Vec<&str> = parts.by_ref().take(4).collect();
            let rest = parts.next().ok_or("short scale_stats.txt line")?;
            scale.insert(key.join(" "), rest.to_string());
        }
        Ok(Goldens { paper, scale })
    }

    /// Checks one kernel result on the paper machine; `None` when the
    /// configuration is not pinned.
    pub fn check_paper(
        &self,
        suite: &str,
        kernel_idx: usize,
        solution: Solution,
        heuristic: Heuristic,
        stats: &SimStats,
    ) -> Option<Result<(), String>> {
        let want =
            self.paper
                .get(&(suite.to_string(), kernel_idx, sol_name(solution), heuristic))?;
        let got = render_stats(stats);
        Some(if *want == got {
            Ok(())
        } else {
            Err(format!(
                "golden sim_stats mismatch for {suite}#{kernel_idx} {} {heuristic}: got `{got}`, want `{want}`",
                sol_name(solution)
            ))
        })
    }

    /// Checks one kernel result on a large (`sweep_machine`, baseline
    /// buses) machine against `scale_stats.txt`. With a schedule the
    /// whole line is compared, fingerprint included; from a pipeline
    /// `KernelRun` the II, span, copy count and statistics are.
    pub fn check_scale(
        &self,
        n_clusters: usize,
        suite: &str,
        kernel: &str,
        solution: Solution,
        heuristic: Heuristic,
        got: ScaleResult<'_>,
    ) -> Option<Result<(), String>> {
        let key = format!(
            "n={n_clusters} {suite}/{kernel} {} {heuristic}",
            sol_name(solution)
        );
        let want = self.scale.get(&key)?;
        let (got, want_cmp) = match got {
            ScaleResult::Schedule(schedule, stats) => (
                format!(
                    "II={} span={} copies={} fp={:016x} {}",
                    schedule.ii,
                    schedule.span,
                    schedule.copies.len(),
                    schedule_fingerprint(schedule),
                    render_stats(stats)
                ),
                want.clone(),
            ),
            ScaleResult::Run(run) => (
                format!(
                    "II={} span={} copies={} {}",
                    run.ii,
                    run.span,
                    run.static_comm_ops,
                    render_stats(&run.stats)
                ),
                // Drop the fingerprint field, which a KernelRun cannot
                // reproduce.
                want.split(' ')
                    .filter(|f| !f.starts_with("fp="))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        };
        Some(if got == want_cmp {
            Ok(())
        } else {
            Err(format!(
                "golden scale_stats mismatch for {key}: got `{got}`, want `{want_cmp}`"
            ))
        })
    }
}

/// What a scale-golden check compares against.
pub enum ScaleResult<'a> {
    Schedule(&'a Schedule, &'a SimStats),
    Run(&'a KernelRun),
}

/// A suite restricted to its first kernel — the loop case studies run
/// one kernel of a suite.
pub fn first_kernel(suite: &Suite) -> Suite {
    let mut s = suite.clone();
    s.kernels.truncate(1);
    s
}

/// The spans of the layer-by-layer re-run that stand for work the
/// release pipeline also does: profile, coherence pass, scheduler and
/// simulator. The checker is off the release path and is left out.
pub const LAYERED: &[&str] = &["ir.", "coherence.", "sched.", "sim"];

/// The band `trace.coverage` must stay in. Outside it the layered calls
/// no longer account for the program's own time on the same cells: a
/// pipeline stage the layered re-run misses (or one it adds) shows as a
/// failed run, not as a quietly wrong per-layer breakdown.
pub const COVERAGE_BAND: (f64, f64) = (0.8, 1.25);

/// Sets `trace.coverage` and `trace.overhead` for one traced run.
///
/// * coverage = the self time of the [`LAYERED`] spans (`layered_ms`) ÷
///   the program's own time for the same cells (`program_ms`), both
///   timed in the traced run, one after the other, cell by cell;
/// * overhead = the layered re-run's wall time, tracing included and the
///   checker left out (`layered_wall_ms`) ÷ the untraced single-thread
///   time of the same cells (`untraced_ms`).
pub fn trace_ratios(
    layered_ms: f64,
    program_ms: f64,
    layered_wall_ms: f64,
    untraced_ms: f64,
    out: &mut Outcome,
) {
    let coverage = layered_ms / program_ms;
    let overhead = layered_wall_ms / untraced_ms;
    let (lo, hi) = COVERAGE_BAND;
    if !(lo..=hi).contains(&coverage) {
        out.fail(
            1,
            format!(
                "trace.coverage {coverage:.3} is outside [{lo}, {hi}]: the layered calls do not \
                 add up to the program's {program_ms:.1} ms on the same cells"
            ),
        );
    }
    out.set("trace.coverage", coverage);
    out.set("trace.overhead", overhead);
    out.note("coverage_program_ms", format!("{program_ms:.3}"));
    out.note("overhead_layered_wall_ms", format!("{layered_wall_ms:.3}"));
    out.note("overhead_untraced_ms", format!("{untraced_ms:.3}"));
}

/// Per-layer busy times and counts from the traced spans.
pub fn layer_metrics(tr: &Tracer, c: &Counters, out: &mut Outcome) {
    out.set("mediabench.build_ms", tr.self_ms("mediabench."));
    out.set("ir.profile_ms", tr.self_ms("ir.profile"));
    out.set("coherence.mdc_ms", tr.self_ms("coherence.mdc"));
    out.set("coherence.ddgt_ms", tr.self_ms("coherence.ddgt"));
    out.set("coherence.sync_edges", c.sync_edges as f64);
    for n in [2, 4, 8, 16] {
        out.set(
            &format!("sched.ms.c{n}"),
            tr.self_ms(&format!("sched.c{n}")),
        );
    }
    out.set("sched.schedules", c.schedules as f64);
    out.set("sched.iis_tried", c.iis_tried as f64);
    out.set("sched.placement_attempts", c.placement_attempts as f64);
    out.set("sched.ejections", c.ejections as f64);
    out.set(
        "sched.first_ii_hit_ratio",
        c.first_ii_hits as f64 / c.schedules.max(1) as f64,
    );
    out.set("check.ms", tr.self_ms("check"));
    out.set("check.violations", c.check_violations as f64);
    let sim_ms = tr.self_ms("sim");
    out.set("sim.ms", sim_ms);
    out.set("sim.cycles", c.sim_cycles as f64);
    out.set(
        "sim.ns_per_cycle",
        sim_ms * 1e6 / c.sim_cycles.max(1) as f64,
    );
    out.set("core.pipeline_ms", tr.self_ms("core.pipeline"));
    out.set("core.report_ms", tr.self_ms("core.report"));
}

/// The traced run's deterministic counts go to the ledger.
pub fn ledger_counters(c: &Counters, out: &mut Outcome) {
    out.ledger("sched.schedules", c.schedules);
    out.ledger("sched.iis_tried", c.iis_tried);
    out.ledger("sched.placement_attempts", c.placement_attempts);
    out.ledger("sched.ejections", c.ejections);
    out.ledger("sched.first_ii_hits", c.first_ii_hits);
    out.ledger("coherence.sync_edges", c.sync_edges);
    out.ledger("check.violations", c.check_violations);
    out.ledger("sim.kernels", c.sim_kernels);
    out.ledger("sim.cycles", c.sim_cycles);
}
