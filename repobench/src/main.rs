//! The repository benchmark.
//!
//! ```text
//! repobench --workload <figures|sweep|serve> --seed N --seconds S --trace 0|1
//! repobench compare <results-A> <results-B> [--bounds BENCHMARK.json]
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` and the
//! golden files under `tests/golden/`). With `--trace 0` the workload
//! is measured end to end and every end-to-end metric is printed; with
//! `--trace 1` a separate, single-threaded traced run prints every
//! per-layer metric. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Every result
//! is also appended, with its run metadata, to
//! `.repobench/results/<workload>.jsonl`, and the run's deterministic
//! work counts are checked against `.repobench/ledger/`. See
//! `repobench/README.md`.

mod cells;
mod compare;
mod cpu;
mod figures;
mod meta;
mod serve;
mod speed;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order. Every
/// timing among them is process CPU time ([`cpu`]) scaled to a fixed
/// host speed ([`speed`]); the wall-clock figures of the same operations
/// go to the run notes.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_cpu_s", "cells/cpu_s"),
    ("req_per_cpu_s", "req/cpu_s"),
    ("figure_cpu_p50_ms", "ms"),
    ("figure_cpu_tail_ms", "ms"),
    ("matrix_cpu_p50_ms", "ms"),
    ("matrix_cpu_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: name and unit, in
/// `BENCHMARK.json` order. A layer a workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mediabench.build_ms", "ms"),
    ("ir.profile_ms", "ms"),
    ("coherence.mdc_ms", "ms"),
    ("coherence.ddgt_ms", "ms"),
    ("coherence.sync_edges", "count"),
    ("sched.ms.c2", "ms"),
    ("sched.ms.c4", "ms"),
    ("sched.ms.c8", "ms"),
    ("sched.ms.c16", "ms"),
    ("sched.ms.matrix_miss", "ms"),
    ("sched.schedules", "count"),
    ("sched.iis_tried", "count"),
    ("sched.placement_attempts", "count"),
    ("sched.ejections", "count"),
    ("sched.first_ii_hit_ratio", "ratio"),
    ("check.ms", "ms"),
    ("check.violations", "count"),
    ("sim.ms", "ms"),
    ("sim.cycles", "cycles"),
    ("sim.ns_per_cycle", "ns/cycle"),
    ("core.cells_requested", "cells"),
    ("core.cells_distinct", "cells"),
    ("core.pipeline_ms", "ms"),
    ("core.sweep.schedules_compiled", "count"),
    ("core.sweep.schedules_reused", "count"),
    ("core.sweep.sched_axis_recompiles", "count"),
    ("core.fanout_speedup", "ratio"),
    ("core.report_ms", "ms"),
    ("serve.http.parse_us", "us"),
    ("serve.http.render_response_us", "us"),
    ("serve.handle_us.figure", "us"),
    ("serve.handle_us.matrix", "us"),
    ("serve.engine.hit_ratio.figure", "ratio"),
    ("serve.engine.hit_ratio.matrix", "ratio"),
    ("serve.engine.computed_cells", "cells"),
    ("serve.engine.deduped", "count"),
    ("serve.json.render_us", "us"),
    ("serve.json.bytes", "bytes"),
    ("serve.persist.append_us", "us"),
    ("serve.persist.bytes", "bytes"),
    ("serve.persist.compactions", "count"),
    ("serve.transport_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["figures", "sweep", "serve"];

/// Set-ups per batch run; `setup_s` is their median.
pub const SETUPS: usize = 11;

/// Where results, ledgers, spans and scratch state go, relative to the
/// checkout root.
pub const STATE_DIR: &str = ".repobench";

/// Arguments of one measured run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<String, f64>,
    /// Run metadata and the statistics behind each tail.
    pub notes: BTreeMap<String, String>,
    /// Deterministic counts and output hashes that must repeat exactly
    /// across every run in the checkout with the same seed.
    pub ledger: BTreeMap<String, u64>,
    /// The traced run's spans, as JSON lines.
    pub spans: String,
}

impl Outcome {
    /// Counts `n` failed operations, keeping the first messages.
    pub fn fail(&mut self, n: u64, msg: impl Into<String>) {
        self.failed += n;
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.insert(key.to_string(), value.into());
    }

    /// Records a ledger entry; a repeated key within one run must carry
    /// the same value (each iteration of a fixed input repeats its
    /// counts exactly).
    pub fn ledger(&mut self, key: impl Into<String>, value: u64) {
        let key = key.into();
        match self.ledger.get(&key) {
            Some(&old) if old != value => {
                self.fail(
                    1,
                    format!("nondeterminism within the run: {key} was {old}, now {value}"),
                );
            }
            _ => {
                self.ledger.insert(key, value);
            }
        }
    }

    /// Operation times of a batch workload, where every iteration repeats
    /// the same operations: `reps[op]` holds each repetition's `(cpu_ms,
    /// wall_ms)` of one operation. An operation's cost is the mean of its
    /// scaled CPU times ([`speed`]): the scaled times still differ a
    /// little between the host's fast and slow states, and the mean moves
    /// smoothly with the share of each state a run saw where the median
    /// jumps (over ten 20 s `sweep` runs the metrics spread 0.03–0.07
    /// with means, 0.05–0.11 with medians). `{prefix}_cpu_p50_ms` and
    /// `{prefix}_cpu_tail_ms` are the median and [`stats::tail`] over
    /// operations. The notes record the tail's percentile and the same
    /// statistics over each operation's median wall time. Returns the
    /// summed costs (CPU ms) and median wall times (ms).
    pub fn op_times(&mut self, prefix: &str, reps: &[Vec<(f64, f64)>], what: &str) -> (f64, f64) {
        let column = |r: &Vec<(f64, f64)>, pick: fn(&(f64, f64)) -> f64| -> Vec<f64> {
            r.iter().map(pick).collect()
        };
        let cpu: Vec<f64> = reps
            .iter()
            .map(|r| stats::mean(&column(r, |x| x.0)))
            .collect();
        let wall: Vec<f64> = reps
            .iter()
            .map(|r| stats::median(&column(r, |x| x.1)))
            .collect();
        let (tail, pct, beyond) = stats::tail(&cpu);
        self.set(&format!("{prefix}_cpu_p50_ms"), stats::median(&cpu));
        self.set(&format!("{prefix}_cpu_tail_ms"), tail);
        let counts: Vec<usize> = reps.iter().map(Vec::len).collect();
        self.note(
            &format!("{prefix}_cpu_tail_ms"),
            format!(
                "p{pct:.2} ({beyond} beyond it) over the {} {what}s' mean scaled CPU times; {} to {} repetitions each",
                reps.len(),
                counts.iter().min().unwrap_or(&0),
                counts.iter().max().unwrap_or(&0),
            ),
        );
        self.note(
            &format!("{prefix}_wall_ms"),
            format!(
                "p50 {:.4}, p{pct:.2} {:.4} over the {what}s' median wall times",
                stats::median(&wall),
                stats::tail(&wall).0
            ),
        );
        (cpu.iter().sum(), wall.iter().sum())
    }

    /// Request times of the serve workload, given as windows of
    /// consecutive requests of one kind, `(cpu_ms, wall_ms)` each: each
    /// window's median and [`stats::tail`] are taken on the scaled CPU
    /// times ([`speed`]), and their means over windows (as in
    /// [`Outcome::op_times`]) are reported as `{prefix}_cpu_p50_ms` and
    /// `{prefix}_cpu_tail_ms`. The notes record the tail's percentile and
    /// sample counts, and the same statistics on the wall clock.
    pub fn window_times(&mut self, prefix: &str, windows: &[Vec<(f64, f64)>]) {
        let summary = |pick: fn(&(f64, f64)) -> f64| {
            let windows: Vec<Vec<f64>> = windows
                .iter()
                .map(|w| w.iter().map(pick).collect())
                .collect();
            let p50: Vec<f64> = windows.iter().map(|w| stats::median(w)).collect();
            let tails: Vec<(f64, f64, usize)> = windows.iter().map(|w| stats::tail(w)).collect();
            let values: Vec<f64> = tails.iter().map(|t| t.0).collect();
            let (_, pct, beyond) = tails.first().copied().unwrap_or_default();
            (stats::mean(&p50), stats::mean(&values), pct, beyond)
        };
        let (p50, tail, pct, beyond) = summary(|op| op.0);
        self.set(&format!("{prefix}_cpu_p50_ms"), p50);
        self.set(&format!("{prefix}_cpu_tail_ms"), tail);
        let samples: usize = windows.iter().map(Vec::len).sum();
        self.note(
            &format!("{prefix}_cpu_tail_ms"),
            format!(
                "p{pct:.2} ({beyond} samples beyond it) of each window, mean over {} windows; {samples} samples",
                windows.len()
            ),
        );
        let (p50, tail, _, _) = summary(|op| op.1);
        self.note(
            &format!("{prefix}_wall_ms"),
            format!("p50 {p50:.4}, p{pct:.2} {tail:.4} (wall clock, mean over windows)"),
        );
    }

    /// Sets `cells_per_cpu_s` and `req_per_cpu_s` from the mean over
    /// iterations (or windows) of the scaled CPU time ([`speed`]) per cell
    /// and per operation. The note gives the range over iterations and
    /// the wall-clock rates (from the median wall time per cell).
    pub fn throughput(&mut self, iterations: &[Iteration], what: &str) {
        let per = |f: fn(&Iteration) -> u64, secs: fn(&Iteration) -> f64| -> Vec<f64> {
            iterations
                .iter()
                .map(|i| secs(i) / f(i).max(1) as f64)
                .collect()
        };
        let cells = per(|i| i.cells, |i| i.cpu_s);
        self.set("cells_per_cpu_s", 1.0 / stats::mean(&cells));
        self.set(
            "req_per_cpu_s",
            1.0 / stats::mean(&per(|i| i.ops, |i| i.cpu_s)),
        );
        let (lo, hi) = cells.iter().fold((f64::INFINITY, 0.0_f64), |(lo, hi), &c| {
            (lo.min(c), hi.max(c))
        });
        let wall = |f: fn(&Iteration) -> u64| 1.0 / stats::median(&per(f, |i| i.wall_s));
        self.note(
            "throughput",
            format!(
                "mean over {} {what}; cells/cpu_s from {:.1} to {:.1}; wall clock: median {:.1} cells/s, {:.2} req/s",
                iterations.len(),
                1.0 / hi,
                1.0 / lo,
                wall(|i| i.cells),
                wall(|i| i.ops),
            ),
        );
    }
}

/// One measured iteration (or window of requests) of a workload.
pub struct Iteration {
    pub cells: u64,
    pub ops: u64,
    /// Process CPU seconds the iteration used, scaled ([`speed`]).
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Runs `setup` `reps` times, returning the last result and the set-up
/// time: the median of the repetitions' scaled CPU seconds ([`speed`]),
/// like every end-to-end timing. The note `setup_wall_s` holds
/// the wall-clock median.
pub fn repeated_setup<T>(reps: usize, out: &mut Outcome, mut setup: impl FnMut() -> T) -> (T, f64) {
    let (mut cpu, mut wall) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let mut gauge = speed::Gauge::new();
    let mut last = None;
    for _ in 0..reps {
        let (value, (c, w)) = gauge.time(&mut setup);
        cpu.push(c / 1e3);
        wall.push(w / 1e3);
        // Drop the previous instance outside the timed region.
        last = Some(value);
    }
    out.note("setup_wall_s", format!("{:.4}", stats::median(&wall)));
    (last.expect("at least one set-up"), stats::median(&cpu))
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A small deterministic generator (SplitMix64) for the workloads'
/// seeded inputs. Each (seed, stream) pair starts from a mixed state, so
/// two streams of one seed are not shifted copies of one sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(
            seed ^ mix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The SplitMix64 output function.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Checks that `BENCHMARK.json` names exactly the workloads and metrics
/// this program reports, so the two cannot drift apart.
fn check_manifest() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = distvliw_serve::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    if workloads != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
        ));
    }
    if names("end_to_end") != own(END_TO_END) {
        return Err("BENCHMARK.json end_to_end metrics differ from the program's".into());
    }
    if names("per_layer") != own(PER_LAYER) {
        return Err("BENCHMARK.json per_layer metrics differ from the program's".into());
    }
    Ok(())
}

fn run(args: &RunArgs) -> Result<Outcome, String> {
    check_manifest()?;
    std::fs::create_dir_all(STATE_DIR).map_err(|e| format!("cannot create {STATE_DIR}: {e}"))?;
    // The untraced runs time every operation on the process CPU clock, so
    // a wider fan-out cannot show in them, only its overhead; serial
    // kernels make their CPU times and peak memory repeat more closely
    // (per-thread allocator arenas alone moved `peak_rss_mb` by ~10%).
    // The traced runs measure the fan-out (`core.fanout_speedup`). An
    // explicit setting is kept, and recorded with the run either way.
    if !args.trace && std::env::var_os("DISTVLIW_THREADS").is_none() {
        std::env::set_var("DISTVLIW_THREADS", "1");
    }
    let mut out = match (args.workload.as_str(), args.trace) {
        ("figures", false) => figures::run(args)?,
        ("figures", true) => figures::run_traced(args)?,
        ("sweep", false) => sweep::run(args)?,
        ("sweep", true) => sweep::run_traced(args)?,
        ("serve", false) => serve::run(args)?,
        ("serve", true) => serve::run_traced(args)?,
        _ => unreachable!("workload validated"),
    };
    meta::record(args, &mut out);
    meta::check_ledger(args, &mut out)?;
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    if !args.trace {
        // A workload may read it at a fixed point of its own instead.
        if !out.metrics.contains_key("peak_rss_mb") {
            out.set("peak_rss_mb", peak_rss_mb());
        }
        let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.set("success_ratio", ok);
    }
    // A layer the workload never enters reads 0 (and nothing else may
    // be missing or extra).
    for (name, _) in wanted {
        out.metrics.entry((*name).to_string()).or_insert(0.0);
    }
    let extra: Vec<&String> = out
        .metrics
        .keys()
        .filter(|k| !wanted.iter().any(|(n, _)| n == k))
        .collect();
    if !extra.is_empty() {
        return Err(format!("internal: unlisted metrics {extra:?}"));
    }
    Ok(out)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome, trace: bool) -> String {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = out.metrics[*name];
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(value)
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed
    )
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("repobench compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = result_json(&out, args.trace);
    println!(
        "repobench {} seed={} trace={} ({} attempted, {} failed)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for (name, unit) in if args.trace { PER_LAYER } else { END_TO_END } {
        println!("  {name:<36} {:>16.6} {unit}", out.metrics[*name]);
    }
    for (k, v) in &out.notes {
        println!("  # {k}: {v}");
    }
    for e in &out.errors {
        println!("  ! {e}");
    }
    if let Err(e) = meta::save(&args, &out, &line) {
        eprintln!("repobench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}
