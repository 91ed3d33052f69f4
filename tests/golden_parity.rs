//! Golden parity tests for the modulo scheduler.
//!
//! The dense-map / transactional-MRT rewrite of the scheduling hot path
//! must be a pure performance change: for every bundled Mediabench
//! kernel, every coherence solution and both cluster-assignment
//! heuristics, the produced schedule (II, span, per-op cluster/cycle,
//! assumed latency classes and copy operations) has to stay **byte
//! identical** to the snapshot in `tests/golden/schedules.txt`. The
//! search effort behind each schedule (IIs tried, ejections, placement
//! attempts) is pinned in the `parity` section of
//! `tests/golden/search_effort.txt`.
//!
//! Regenerate the snapshots (only when a change is *meant* to alter
//! schedules or search effort) with:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test --test golden_parity
//! ```

use std::fmt::Write as _;

use distvliw::arch::MachineConfig;
use distvliw::coherence::{find_chains, transform, SchedConstraints};
use distvliw::ir::profile::preferred_clusters;
use distvliw::ir::LoopKernel;
use distvliw::sched::{Heuristic, ModuloScheduler, Schedule};

mod common;
use common::{check_search_effort, render_effort, schedule_fingerprint};

const GOLDEN_PATH: &str = "tests/golden/schedules.txt";

/// Renders the placement of one schedule, for diagnostics on mismatch.
fn describe(s: &Schedule) -> String {
    let mut text = format!("II={} span={} copies={}\n", s.ii, s.span, s.copies.len());
    for (n, op) in &s.ops {
        let _ = writeln!(
            text,
            "  {n}: cluster {} cycle {} {:?}",
            op.cluster, op.start, op.assumed_class
        );
    }
    for c in &s.copies {
        let _ = writeln!(
            text,
            "  copy {}: {}->{} cycle {}",
            c.producer, c.from_cluster, c.to_cluster, c.start
        );
    }
    text
}

/// One configuration: its snapshot line, its schedule (for
/// diagnostics) and its search-effort line.
type Entry = (String, Schedule, String);

/// Schedules `kernel` the same way the pipeline does for each solution,
/// and appends one snapshot entry per configuration.
fn snapshot_kernel(
    machine: &MachineConfig,
    suite: &str,
    kernel: &LoopKernel,
    out: &mut Vec<Entry>,
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
            for relax in [true, false] {
                let (schedule, stats) = ModuloScheduler::new(machine)
                    .with_latency_relaxation(relax)
                    .schedule_with_stats(&kernel.ddg, &constraints, &prefs, heuristic)
                    .expect("bundled kernels schedule");
                let config = format!("{solution} {heuristic} relax={relax}");
                let effort = render_effort(
                    "parity",
                    &format!("{suite}/{} {config}", kernel.name),
                    &stats,
                );
                let key = format!(
                    "{} {config} II={} span={} copies={} fp={:016x}",
                    kernel.name,
                    schedule.ii,
                    schedule.span,
                    schedule.copies.len(),
                    schedule_fingerprint(&schedule)
                );
                out.push((key, schedule, effort));
            }
        }
    }
}

fn current_snapshot() -> Vec<Entry> {
    let mut lines = Vec::new();
    for suite in distvliw::mediabench::suites() {
        let machine = MachineConfig::paper_baseline().with_interleave(suite.interleave_bytes);
        for kernel in &suite.kernels {
            snapshot_kernel(&machine, &suite.name, kernel, &mut lines);
        }
    }
    lines
}

#[test]
fn schedules_match_golden_snapshot() {
    let snapshot = current_snapshot();
    let rendered: String = snapshot.iter().map(|(k, ..)| format!("{k}\n")).collect();
    let effort: Vec<String> = snapshot.iter().map(|(.., e)| e.clone()).collect();

    if std::env::var("GOLDEN_UPDATE").is_ok() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden file");
        eprintln!("updated {GOLDEN_PATH} with {} entries", snapshot.len());
        check_search_effort("parity", &effort);
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot missing; run GOLDEN_UPDATE=1 cargo test --test golden_parity");
    let golden_lines: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden_lines.len(),
        snapshot.len(),
        "configuration count changed: golden {} vs current {}",
        golden_lines.len(),
        snapshot.len()
    );
    for ((key, schedule, _), want) in snapshot.iter().zip(&golden_lines) {
        assert_eq!(
            key.as_str(),
            *want,
            "schedule diverged from golden snapshot.\n current: {key}\n  golden: {want}\nfull placement:\n{}",
            describe(schedule)
        );
    }
    check_search_effort("parity", &effort);
}
