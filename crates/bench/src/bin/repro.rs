//! Reproduces the paper's evaluation on the Table 2 machine:
//! `repro [name…]` prints each named report of
//! [`distvliw_bench::EXPERIMENTS`], in the order given, separated by a
//! blank line. With no name it prints the whole catalog in the paper's
//! order.
//!
//! | name | report |
//! |---|---|
//! | `table3` | Table 3: biggest-chain ratios CMR and CAR per benchmark, next to the paper's values |
//! | `fig6` | Figure 6: local/remote hits and misses and combined accesses under PrefClus |
//! | `fig7` | Figure 7: execution time normalized to Free/MinComs, MDC and DDGT under both heuristics |
//! | `table4` | Table 4: DDGT/MDC communication ratio and DDGT speedup on the selected loops |
//! | `table5` | Table 5: CMR/CAR before and after code specialization |
//! | `fig9` | Figure 9: execution time with 16-entry 2-way Attraction Buffers |
//! | `nobal` | Section 4.2: the NOBAL+MEM and NOBAL+REG machines |
//! | `loops` | the gsmdec (Section 4.2) and epicdec (Section 5.4) loop case studies |
//! | `hybrid` | Section 6: per-loop best of MDC/DDGT against both |
//! | `imbalance` | per-cluster access shares, violations and grant pressure |
//! | `sweep` | cluster-count × memory-bus sensitivity sweep |
//!
//! An unknown name exits nonzero before any report runs and lists the
//! catalog; a failing report is reported on stderr, the rest still run,
//! and the exit code is nonzero.

use std::process::ExitCode;

use distvliw_bench::{paper_machine, report, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = names.iter().find(|n| !EXPERIMENTS.contains(n)) {
        eprintln!(
            "unknown experiment `{unknown}`; expected one of: {}",
            EXPERIMENTS.join(" ")
        );
        return ExitCode::FAILURE;
    }
    let machine = paper_machine();
    let mut failed = false;
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            println!();
        }
        // Each report opens with its own title line, so no extra
        // heading is printed here.
        match report(name, &machine) {
            Ok(text) => print!("{text}"),
            Err(err) => {
                eprintln!("{err}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
