//! Helpers shared by the golden test binaries (`golden_parity`,
//! `golden_sim_stats`, `golden_scale`): the schedule fingerprint, the
//! statistics line format and the search-effort snapshot. One
//! definition keeps every snapshot pinning the same surface — a counter
//! added to [`SimStats`] or a change to the fingerprint scheme is either
//! reflected in all golden files at once or in none.
#![allow(dead_code)] // each test binary uses a subset

use std::fmt::Write as _;

use distvliw::arch::AccessClass;
use distvliw::sched::{SchedStats, Schedule};
use distvliw::sim::SimStats;

/// FNV-1a over the full placement description (clusters, cycles,
/// assumed latency classes, copies), so a golden file stays compact
/// while still pinning every op.
pub fn schedule_fingerprint(s: &Schedule) -> u64 {
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
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in text.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

/// One snapshot line: every *pinned* counter of [`SimStats`], spelled
/// out so a diff names the exact statistic that moved. (The derived
/// `bus_drain_cycles` window is deliberately not pinned: it is bounded
/// below by counters that are.)
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

/// The search-effort snapshot shared by `golden_parity` and
/// `golden_scale`: each binary owns the lines that start with its
/// section name.
const SEARCH_EFFORT_PATH: &str = "tests/golden/search_effort.txt";

/// One search-effort line: the scheduler's deterministic work counters
/// for one configuration. They pin how hard the II search works, so a
/// search-pruning change shows as a diff of this file while the
/// schedule goldens stay byte-identical.
pub fn render_effort(section: &str, config: &str, stats: &SchedStats) -> String {
    format!(
        "{section} {config} iis_tried={} ejections={} placement_attempts={}",
        stats.iis_tried, stats.ejections, stats.placement_attempts
    )
}

/// Compares `lines` with this `section` of [`SEARCH_EFFORT_PATH`], or,
/// under `GOLDEN_UPDATE`, rewrites that section and keeps the others
/// (sections are stored in name order).
///
/// # Panics
///
/// Panics on the first line that differs, or when the section's line
/// count changed.
pub fn check_search_effort(section: &str, lines: &[String]) {
    let prefix = format!("{section} ");
    let existing = std::fs::read_to_string(SEARCH_EFFORT_PATH).unwrap_or_default();
    if std::env::var("GOLDEN_UPDATE").is_ok() {
        let mut all: Vec<&str> = existing
            .lines()
            .filter(|l| !l.starts_with(&prefix))
            .collect();
        all.extend(lines.iter().map(String::as_str));
        // Stable: keeps each section's own line order.
        all.sort_by_key(|l| l.split(' ').next().unwrap_or_default());
        let rendered: String = all.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(SEARCH_EFFORT_PATH, rendered).expect("write search-effort file");
        eprintln!(
            "updated {SEARCH_EFFORT_PATH} section {section} with {} entries",
            lines.len()
        );
        return;
    }
    let golden: Vec<&str> = existing
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .collect();
    assert_eq!(
        golden.len(),
        lines.len(),
        "search-effort section {section}: golden {} vs current {} configurations \
         (regenerate with GOLDEN_UPDATE=1)",
        golden.len(),
        lines.len()
    );
    for (line, want) in lines.iter().zip(&golden) {
        assert_eq!(
            line.as_str(),
            *want,
            "scheduler search effort diverged from {SEARCH_EFFORT_PATH}.\n current: {line}\n  golden: {want}"
        );
    }
}
