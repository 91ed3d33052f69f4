//! Golden parity tests for the large-machine (8- and 16-cluster)
//! configurations the sensitivity sweep opened.
//!
//! The 4-cluster paper machine is pinned by `tests/golden_parity.rs`
//! and `tests/golden_sim_stats.rs`; this file extends the net to the
//! scaled machines ([`sweep_machine`] at 8 and 16 clusters, paper
//! buses) over a mixed workload — two synthetic benchmarks plus the
//! bundled recorded traces — so future refactors cannot silently change
//! large-machine scheduling or simulated behaviour. Each snapshot line
//! pins the schedule (II, span, copy count, a fingerprint of every
//! placement) *and* the simulated statistics. The search effort
//! behind each schedule is pinned in the `scale` section of
//! `tests/golden/search_effort.txt`.
//!
//! Regenerate (only when a change is *meant* to alter behaviour or
//! search effort) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_scale
//! ```

use distvliw::arch::MachineConfig;
use distvliw::coherence::{find_chains, transform, SchedConstraints};
use distvliw::core::experiments::sweep_machine;
use distvliw::ir::profile::preferred_clusters;
use distvliw::ir::{LoopKernel, Suite};
use distvliw::sched::{Heuristic, ModuloScheduler};
use distvliw::sim::{simulate_kernel, SimOptions};

mod common;
use common::{check_search_effort, render_effort, render_stats, schedule_fingerprint};

const GOLDEN_PATH: &str = "tests/golden/scale_stats.txt";

/// The swept cluster counts not already covered by the 4-cluster golden
/// files.
const CLUSTER_COUNTS: [usize; 2] = [8, 16];

/// The pinned workload: chained + streaming synthetics and both bundled
/// traces.
fn pinned_suites() -> Vec<Suite> {
    let mut suites = vec![
        distvliw::mediabench::suite("gsmdec").expect("bundled benchmark"),
        distvliw::mediabench::suite("jpegenc").expect("bundled benchmark"),
    ];
    suites.extend(distvliw::mediabench::trace_suites());
    suites
}

/// Compiles and simulates `kernel` the same way the pipeline does,
/// appending one snapshot line and one search-effort line per
/// (solution, heuristic) configuration.
fn snapshot_kernel(
    n_clusters: usize,
    machine: &MachineConfig,
    suite: &str,
    kernel: &LoopKernel,
    out: &mut Vec<(String, String)>,
) {
    let prefs = preferred_clusters(kernel, machine.n_clusters, |a| machine.home_cluster(a));
    for heuristic in [Heuristic::PrefClus, Heuristic::MinComs] {
        for solution in ["free", "mdc", "ddgt"] {
            let mut kernel = kernel.clone();
            let constraints = match solution {
                "free" => SchedConstraints::none(),
                "mdc" => {
                    let chains = find_chains(&kernel.ddg);
                    let pref_arg = (heuristic == Heuristic::PrefClus).then_some(&prefs);
                    SchedConstraints::for_mdc(&chains, &kernel.ddg, pref_arg, machine.n_clusters)
                }
                _ => {
                    let report = transform(&mut kernel.ddg, machine.n_clusters);
                    SchedConstraints::for_ddgt(&report)
                }
            };
            let (schedule, effort) = ModuloScheduler::new(machine)
                .schedule_with_stats(&kernel.ddg, &constraints, &prefs, heuristic)
                .expect("pinned kernels schedule at every scale");
            let stats = simulate_kernel(machine, &kernel, &schedule, SimOptions::default());
            let config = format!(
                "n={n_clusters} {suite}/{} {solution} {heuristic}",
                kernel.name
            );
            let line = format!(
                "{config} II={} span={} copies={} fp={:016x} {}",
                schedule.ii,
                schedule.span,
                schedule.copies.len(),
                schedule_fingerprint(&schedule),
                render_stats(&stats)
            );
            out.push((line, render_effort("scale", &config, &effort)));
        }
    }
}

fn current_snapshot() -> Vec<(String, String)> {
    let base = MachineConfig::paper_baseline();
    let mut lines = Vec::new();
    for n_clusters in CLUSTER_COUNTS {
        for suite in pinned_suites() {
            let machine = sweep_machine(&base, n_clusters, base.mem_buses)
                .with_interleave(suite.interleave_bytes);
            for kernel in &suite.kernels {
                snapshot_kernel(n_clusters, &machine, &suite.name, kernel, &mut lines);
            }
        }
    }
    lines
}

#[test]
fn large_machine_behaviour_matches_golden_snapshot() {
    let snapshot = current_snapshot();
    let rendered: String = snapshot.iter().map(|(l, _)| format!("{l}\n")).collect();
    let effort: Vec<String> = snapshot.iter().map(|(_, e)| e.clone()).collect();

    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        eprintln!("updated {GOLDEN_PATH} with {} entries", snapshot.len());
        check_search_effort("scale", &effort);
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing; run GOLDEN_UPDATE=1 cargo test --test golden_scale");
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden_lines.len(),
        snapshot.len(),
        "configuration count changed: golden {} vs current {}",
        golden_lines.len(),
        snapshot.len()
    );
    for ((line, _), want) in snapshot.iter().zip(&golden_lines) {
        assert_eq!(
            line.as_str(),
            *want,
            "large-machine behaviour diverged from golden snapshot.\n current: {line}\n  golden: {want}"
        );
    }
    check_search_effort("scale", &effort);
}
