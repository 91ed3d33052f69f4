//! Shared helpers for the reproduction binaries and Criterion benches.
//!
//! [`report`] renders any named experiment to a string, and
//! [`EXPERIMENTS`] enumerates the catalog the `repro` bin runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use distvliw_arch::MachineConfig;
use distvliw_core::experiments::{
    epicdec_ab_case_study, fig6, fig7, fig9, gsmdec_case_study, nobal, sweep, sweep_default_suites,
    table3, table4, table5, SweepSpec,
};
use distvliw_core::{report as render, Heuristic, Pipeline, PipelineOptions, Solution};
use distvliw_sim::SimOptions;

/// The paper's Table 2 machine.
#[must_use]
pub fn paper_machine() -> MachineConfig {
    MachineConfig::paper_baseline()
}

/// Pipeline options with a reduced iteration cap, for quick benches.
#[must_use]
pub fn quick_options() -> PipelineOptions {
    PipelineOptions {
        sim: SimOptions {
            max_iterations: 128,
            detect_violations: false,
        },
        ..PipelineOptions::default()
    }
}

/// Every experiment name [`report`] understands, in the paper's order.
/// `repro <name>` prints each; the figure and table entries and `sweep`
/// additionally have a matching serving-layer route (`hybrid`, `loops`
/// and `imbalance` are `repro`-only). Every report begins with its own
/// descriptive title line.
pub const EXPERIMENTS: &[&str] = &[
    "table3",
    "fig6",
    "fig7",
    "table4",
    "table5",
    "fig9",
    "nobal",
    "loops",
    "hybrid",
    "imbalance",
    "sweep",
];

/// Renders the named experiment against `machine`.
///
/// # Errors
///
/// Returns a human-readable message for unknown names or pipeline
/// failures.
pub fn report(name: &str, machine: &MachineConfig) -> Result<String, String> {
    let fail = |e: distvliw_core::PipelineError| format!("{name} failed: {e}");
    match name {
        "table3" => Ok(render::render_table3(&table3())),
        "fig6" => fig6(machine).map(|r| render::render_fig6(&r)).map_err(fail),
        "fig7" => fig7(machine)
            .map(|r| render::render_exec(&r, "Figure 7: normalized execution time"))
            .map_err(fail),
        "fig9" => fig9(machine)
            .map(|r| {
                render::render_exec(
                    &r,
                    "Figure 9: normalized execution time with Attraction Buffers",
                )
            })
            .map_err(fail),
        "table4" => table4(machine)
            .map(|r| render::render_table4(&r))
            .map_err(fail),
        "table5" => Ok(render::render_table5(&table5())),
        "nobal" => nobal_report().map_err(fail),
        "loops" => loops_report(machine).map_err(fail),
        "hybrid" => hybrid_report(machine).map_err(fail),
        "imbalance" => imbalance_report(machine).map_err(fail),
        "sweep" => sweep_report(machine).map_err(fail),
        other => Err(format!("unknown experiment `{other}`")),
    }
}

/// Both NOBAL machine variants, concatenated.
fn nobal_report() -> Result<String, distvliw_core::PipelineError> {
    let mut out = String::new();
    for (machine, title) in [
        (
            MachineConfig::nobal_mem(),
            "NOBAL+MEM: more memory buses than register buses",
        ),
        (
            MachineConfig::nobal_reg(),
            "NOBAL+REG: more register buses than memory buses",
        ),
    ] {
        let rows = nobal(&machine)?;
        let _ = writeln!(out, "{}", render::render_nobal(&rows, title));
    }
    Ok(out)
}

/// The gsmdec and epicdec loop case studies, concatenated.
fn loops_report(machine: &MachineConfig) -> Result<String, distvliw_core::PipelineError> {
    let mut out = String::new();
    let _ = writeln!(out, "Loop case studies (paper Sections 4.2 and 5.4)");
    let _ = writeln!(
        out,
        "{}",
        render::render_case_study(&gsmdec_case_study(machine)?)
    );
    let _ = writeln!(
        out,
        "(with Attraction Buffers)\n{}",
        render::render_case_study(&epicdec_ab_case_study(machine)?)
    );
    Ok(out)
}

/// The per-loop hybrid of paper Section 6 against pure MDC and DDGT.
fn hybrid_report(machine: &MachineConfig) -> Result<String, distvliw_core::PipelineError> {
    let pipeline = Pipeline::new(machine.clone());
    let mut out = String::new();
    let _ = writeln!(out, "Hybrid solution (per-loop best of MDC/DDGT, PrefClus)");
    let _ = writeln!(
        out,
        "{:<10} | {:>10} {:>10} {:>10} | {:>10}",
        "benchmark", "MDC", "DDGT", "Hybrid", "gain"
    );
    for suite in distvliw_mediabench::figure_suites() {
        let run = |s| {
            pipeline
                .run_suite(&suite, s, Heuristic::PrefClus)
                .map(|r| r.total_cycles())
        };
        let mdc = run(Solution::Mdc)?;
        let ddgt = run(Solution::Ddgt)?;
        let hybrid = run(Solution::Hybrid)?;
        let best_pure = mdc.min(ddgt);
        let gain = best_pure as f64 / hybrid.max(1) as f64 - 1.0;
        let _ = writeln!(
            out,
            "{:<10} | {:>10} {:>10} {:>10} | {:>9.1}%",
            suite.name,
            mdc,
            ddgt,
            hybrid,
            gain * 100.0
        );
    }
    Ok(out)
}

/// Per-cluster access shares, violations and grant pressure under
/// MDC/DDGT (PrefClus) — the imbalance surface the ROADMAP's
/// workload-breadth item asks for.
fn imbalance_report(machine: &MachineConfig) -> Result<String, distvliw_core::PipelineError> {
    let pipeline = Pipeline::new(machine.clone());
    let mut entries = Vec::new();
    for suite in distvliw_mediabench::figure_suites() {
        for solution in [Solution::Mdc, Solution::Ddgt] {
            let stats = pipeline.run_suite(&suite, solution, Heuristic::PrefClus)?;
            entries.push((
                format!("{} {solution}(PrefClus)", suite.name),
                stats.cluster,
            ));
        }
    }
    Ok(render::render_cluster_imbalance(
        "Cluster imbalance: accesses by issuing cluster (PrefClus)",
        &entries,
    ))
}

/// The cluster-count × memory-bus sensitivity sweep over the default
/// workload mix (one synthetic benchmark plus the bundled recorded
/// traces), all four solutions per grid point. Runs the factored
/// schedule-once/sim-many path and appends its reuse counters, so a
/// sched-axis fallback to recompilation is visible in the report.
fn sweep_report(machine: &MachineConfig) -> Result<String, distvliw_core::PipelineError> {
    let run = sweep(machine, &sweep_default_suites(), &SweepSpec::default())?;
    let mut out = render::render_sweep(
        &run.rows,
        "Sensitivity sweep: cluster count × memory buses (PrefClus; gsmdec + recorded traces)",
    );
    out.push_str(&render::render_sweep_reuse(&run.reuse));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(report("fig42", &paper_machine()).is_err());
    }

    #[test]
    fn compile_only_reports_render() {
        // table3/table5 run no pipeline, so they are cheap enough for a
        // unit test and exercise the dispatch path end to end.
        let t3 = report("table3", &paper_machine()).unwrap();
        assert!(t3.contains("Table 3"));
        let t5 = report("table5", &paper_machine()).unwrap();
        assert!(t5.contains("specialization"));
    }

    #[test]
    fn catalog_names_are_unique_and_dispatchable() {
        let mut seen = std::collections::HashSet::new();
        for &name in EXPERIMENTS {
            assert!(seen.insert(name), "duplicate experiment {name}");
            // Dispatch must at least recognize the name (cheap ones run
            // above; here only the unknown-name branch must not fire).
            if matches!(name, "table3" | "table5") {
                assert!(report(name, &paper_machine()).is_ok());
            }
        }
    }
}
