//! The `figures` workload: every report of `distvliw_bench::EXPERIMENTS`
//! except `sweep`, rendered cold on the paper's Table 2 machine, plus
//! one cold `Pipeline::run_matrix` grid over the figure suites whose
//! per-kernel results are checked against `tests/golden/sim_stats.txt`.
//! The inputs are the paper's fixed calibrated suites: the seed is
//! recorded but not used.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use distvliw_arch::{AttractionBufferConfig, MachineConfig};
use distvliw_core::experiments::{fig6, fig7, fig9, table3, table4, table5};
use distvliw_core::{
    derive_hybrid, report as render, Heuristic, MatrixCell, Pipeline, Solution, SuiteStats,
};
use distvliw_ir::Suite;

use crate::cells::{
    compile_layered, first_kernel, fnv, layer_metrics, ledger_counters, simulate_layered,
    trace_ratios, Counters, Goldens, CONCRETE, HEURISTICS, LAYERED,
};
use crate::speed::Gauge;
use crate::trace::Tracer;
use crate::{repeated_setup, Iteration, Outcome, RunArgs, SETUPS};

const PAPER: usize = 0;
const PAPER_AB: usize = 1;
const NOBAL_MEM: usize = 2;
const NOBAL_REG: usize = 3;

/// One requested cell: indices into [`Catalog::suites`] and
/// [`Catalog::machines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    suite: usize,
    machine: usize,
    solution: Solution,
    heuristic: Heuristic,
}

/// The suites, machines and cells each report consumes. The cell lists
/// mirror what each report shows (`crates/core/src/experiments.rs` and
/// `crates/bench/src/lib.rs`): a cell counts whether the program
/// computes it or reuses it. Every untraced pass checks each list
/// against the program: the schedules a report runs, read from the
/// program's `sched_schedules_total` counter, must equal
/// [`Catalog::schedules`] of its cells, so a report that gains or drops
/// cells fails the run instead of skewing `cells_per_s`.
pub struct Catalog {
    suites: Vec<Suite>,
    machines: Vec<MachineConfig>,
    reports: Vec<(&'static str, Vec<CellKey>)>,
    matrix: Vec<CellKey>,
}

impl Catalog {
    pub fn build() -> Catalog {
        let mut suites = distvliw_mediabench::figure_suites();
        let n = suites.len();
        let by_name = |name: &str| {
            suites
                .iter()
                .position(|s| s.name == name)
                .expect("figure suite")
        };
        let gsmdec_loop = first_kernel(&suites[by_name("gsmdec")]);
        let epicdec_loop = first_kernel(&suites[by_name("epicdec")]);
        suites.push(gsmdec_loop);
        suites.push(epicdec_loop);
        let paper = MachineConfig::paper_baseline();
        let machines = vec![
            paper.clone(),
            paper.with_attraction_buffers(AttractionBufferConfig::paper()),
            MachineConfig::nobal_mem(),
            MachineConfig::nobal_reg(),
        ];
        use Heuristic::{MinComs as Min, PrefClus as Pref};
        use Solution::{Ddgt, Free, Hybrid, Mdc};
        let grid = |machine: usize, combos: &[(Solution, Heuristic)]| -> Vec<CellKey> {
            (0..n)
                .flat_map(|suite| {
                    combos.iter().map(move |&(solution, heuristic)| CellKey {
                        suite,
                        machine,
                        solution,
                        heuristic,
                    })
                })
                .collect()
        };
        let access = [(Free, Pref), (Mdc, Pref), (Ddgt, Pref)];
        let exec = [
            (Free, Min),
            (Mdc, Pref),
            (Mdc, Min),
            (Ddgt, Pref),
            (Ddgt, Min),
        ];
        let nobal = [(Mdc, Pref), (Mdc, Min), (Ddgt, Pref)];
        let one = |suite, machine, solution| CellKey {
            suite,
            machine,
            solution,
            heuristic: Pref,
        };
        let mut nobal_cells = grid(NOBAL_MEM, &nobal);
        nobal_cells.extend(grid(NOBAL_REG, &nobal));
        let reports = vec![
            ("table3", vec![]),
            ("fig6", grid(PAPER, &access)),
            ("fig7", grid(PAPER, &exec)),
            ("table4", grid(PAPER, &access)),
            ("table5", vec![]),
            ("fig9", grid(PAPER_AB, &exec)),
            ("nobal", nobal_cells),
            (
                "loops",
                vec![
                    one(n, PAPER, Mdc),
                    one(n, PAPER, Ddgt),
                    one(n + 1, PAPER_AB, Mdc),
                    one(n + 1, PAPER_AB, Ddgt),
                ],
            ),
            (
                "hybrid",
                grid(PAPER, &[(Mdc, Pref), (Ddgt, Pref), (Hybrid, Pref)]),
            ),
            ("imbalance", grid(PAPER, &[(Mdc, Pref), (Ddgt, Pref)])),
        ];
        let matrix = (0..n)
            .flat_map(|suite| {
                CONCRETE.iter().flat_map(move |&solution| {
                    HEURISTICS.iter().map(move |&heuristic| CellKey {
                        suite,
                        machine: PAPER,
                        solution,
                        heuristic,
                    })
                })
            })
            .collect();
        Catalog {
            suites,
            machines,
            reports,
            matrix,
        }
    }

    /// Cells requested by one iteration (reports plus the matrix grid).
    fn requested(&self) -> usize {
        self.reports.iter().map(|(_, c)| c.len()).sum::<usize>() + self.matrix.len()
    }

    /// The `schedule()` calls computing `cells` from scratch takes: one
    /// per kernel, two for a Hybrid cell (the pipeline compiles the MDC
    /// and the DDGT variant of each loop and keeps the cheaper).
    fn schedules(&self, cells: &[CellKey]) -> u64 {
        cells
            .iter()
            .map(|c| {
                let kernels = self.suites[c.suite].kernels.len() as u64;
                if c.solution == Solution::Hybrid {
                    2 * kernels
                } else {
                    kernels
                }
            })
            .sum()
    }

    /// Distinct cells, in first-request order.
    fn distinct(&self) -> Vec<CellKey> {
        let mut seen = std::collections::HashSet::new();
        self.reports
            .iter()
            .flat_map(|(_, cells)| cells.iter())
            .chain(&self.matrix)
            .filter(|c| seen.insert(**c))
            .copied()
            .collect()
    }
}

/// Everything the untraced pass produced in one iteration.
struct Pass {
    texts: Vec<String>,
    matrix: Vec<MatrixCell>,
    figure_ms: Vec<(f64, f64)>,
    matrix_ms: Vec<(f64, f64)>,
    cells: u64,
}

/// One untraced iteration: every report, then the matrix grid, each
/// timed from outside.
fn pass(cat: &Catalog, gauge: &mut Gauge, out: &mut Outcome) -> Pass {
    let paper = &cat.machines[PAPER];
    let mut p = Pass {
        texts: Vec::new(),
        matrix: Vec::new(),
        figure_ms: Vec::new(),
        matrix_ms: Vec::new(),
        cells: 0,
    };
    for (name, cells) in &cat.reports {
        let before = schedules_total();
        let (text, times) = gauge.time(|| distvliw_bench::report(name, paper));
        p.figure_ms.push(times);
        check_schedules(name, schedules_total() - before, cat.schedules(cells), out);
        let ops = cells.len().max(1) as u64;
        out.attempted += ops;
        p.cells += cells.len() as u64;
        match text {
            Ok(text) => p.texts.push(text),
            Err(e) => {
                out.fail(ops, format!("report {name}: {e}"));
                p.texts.push(String::new());
            }
        }
    }
    // One matrix operation per figure suite: its Free/MDC/DDGT ×
    // PrefClus/MinComs grid, as one `POST /matrix` for that suite.
    let pipeline = Pipeline::new(paper.clone());
    let before = schedules_total();
    for suite in &cat.suites[..cat.suites.len() - 2] {
        let (cells, times) =
            gauge.time(|| pipeline.run_matrix(std::slice::from_ref(suite), &CONCRETE, &HEURISTICS));
        p.matrix_ms.push(times);
        p.matrix.extend(cells);
    }
    check_schedules(
        "matrix",
        schedules_total() - before,
        cat.schedules(&cat.matrix),
        out,
    );
    out.attempted += p.matrix.len() as u64;
    p.cells += p.matrix.len() as u64;
    p
}

/// Completed `schedule()` calls in this process so far, read from the
/// program's own observability counter.
fn schedules_total() -> u64 {
    distvliw_obs::global()
        .counter("sched_schedules_total", "Completed schedule() calls")
        .get()
}

/// Fails the run when a report ran another number of schedules than the
/// catalog's cells for it need.
fn check_schedules(name: &str, ran: u64, want: u64, out: &mut Outcome) {
    if ran != want {
        out.fail(
            1,
            format!(
                "{name}: the program ran {ran} schedules, the catalog's cells need {want}: \
                 the catalog no longer matches the report"
            ),
        );
    }
}

/// Output checks of one untraced iteration: report texts are
/// byte-identical to the first iteration's (and, through the ledger, to
/// every earlier run's); MDC and DDGT cells have no coherence
/// violations; pinned cells match the goldens.
fn check_pass(cat: &Catalog, goldens: &Goldens, p: &Pass, out: &mut Outcome) {
    for ((name, cells), text) in cat.reports.iter().zip(&p.texts) {
        if !text.is_empty() {
            let before = out.failed;
            out.ledger(format!("report.{name}.fnv"), fnv(text.as_bytes()));
            if out.failed > before {
                out.fail(
                    cells.len().max(1) as u64 - 1,
                    format!("report {name} text changed"),
                );
            }
        }
    }
    let mut totals = Counters::default();
    for cell in &p.matrix {
        let stats = match &cell.stats {
            Ok(s) => s,
            Err(e) => {
                out.fail(
                    1,
                    format!(
                        "matrix cell {} {} {}: {e}",
                        cell.suite, cell.solution, cell.heuristic
                    ),
                );
                continue;
            }
        };
        if let Err(e) = check_cell(goldens, &cell.suite, cell.solution, cell.heuristic, stats) {
            out.fail(1, e);
        }
        totals.iis_tried += stats.sched.iis_tried;
        totals.placement_attempts += stats.sched.placement_attempts;
        totals.ejections += stats.sched.ejections;
        totals.sim_cycles += stats.total_cycles();
    }
    out.ledger("matrix.iis_tried", totals.iis_tried);
    out.ledger("matrix.placement_attempts", totals.placement_attempts);
    out.ledger("matrix.ejections", totals.ejections);
    out.ledger("matrix.sim_cycles", totals.sim_cycles);
    out.ledger("core.cells_requested", p.cells);
}

/// Zero coherence violations for MDC, DDGT and Hybrid; golden lines
/// for every pinned paper-machine kernel.
fn check_cell(
    goldens: &Goldens,
    suite: &str,
    solution: Solution,
    heuristic: Heuristic,
    stats: &SuiteStats,
) -> Result<(), String> {
    if solution != Solution::Free && stats.total.coherence_violations != 0 {
        return Err(format!(
            "{suite} {solution} {heuristic}: {} coherence violations",
            stats.total.coherence_violations
        ));
    }
    for (ki, k) in stats.kernels.iter().enumerate() {
        if let Some(Err(e)) = goldens.check_paper(suite, ki, solution, heuristic, &k.stats) {
            return Err(e);
        }
    }
    Ok(())
}

fn setup() -> Result<(Catalog, Goldens), String> {
    let goldens = Goldens::load()?;
    Ok((Catalog::build(), goldens))
}

/// The untraced, end-to-end run.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (built, setup_s) = repeated_setup(SETUPS, &mut out, setup);
    let (cat, goldens) = built?;
    out.set("setup_s", setup_s);
    let start = Instant::now();
    // Every iteration runs the same operations; their repetitions are
    // collected per operation.
    let mut figure_ms: Vec<Vec<(f64, f64)>> = vec![Vec::new(); cat.reports.len()];
    let mut matrix_ms: Vec<Vec<(f64, f64)>> = Vec::new();
    let (mut iterations, mut cells) = (0, 0);
    let mut gauge = Gauge::new();
    while iterations == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let p = pass(&cat, &mut gauge, &mut out);
        check_pass(&cat, &goldens, &p, &mut out);
        matrix_ms.resize(p.matrix_ms.len(), Vec::new());
        for (reps, op) in figure_ms.iter_mut().zip(&p.figure_ms) {
            reps.push(*op);
        }
        for (reps, op) in matrix_ms.iter_mut().zip(&p.matrix_ms) {
            reps.push(*op);
        }
        cells = p.cells;
        iterations += 1;
    }
    let (report_cpu, report_wall) = out.op_times("figure", &figure_ms, "report");
    let (matrix_cpu, matrix_wall) = out.op_times("matrix", &matrix_ms, "matrix operation");
    // One iteration at every operation's cost.
    out.throughput(
        &[Iteration {
            cells,
            ops: (figure_ms.len() + matrix_ms.len()) as u64,
            cpu_s: (report_cpu + matrix_cpu) / 1e3,
            wall_s: (report_wall + matrix_wall) / 1e3,
        }],
        "iterations at each operation's cost",
    );
    out.note("iterations", iterations.to_string());
    out.note("cells_per_iteration", cells.to_string());
    Ok(out)
}

/// The traced run: one untraced iteration with the default fan-out,
/// one serial, then a serial traced re-run of every distinct cell
/// through the layers' public calls and the pipeline's entry points.
pub fn run_traced(_args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (cat, goldens) = setup()?;

    let t = Instant::now();
    let mut gauge = Gauge::new();
    let par = pass(&cat, &mut gauge, &mut out);
    let wall_par = t.elapsed().as_secs_f64();
    check_pass(&cat, &goldens, &par, &mut out);

    std::env::set_var("DISTVLIW_THREADS", "1");
    let t = Instant::now();
    let serial = pass(&cat, &mut gauge, &mut out);
    let wall_serial = t.elapsed().as_secs_f64();
    check_pass(&cat, &goldens, &serial, &mut out);

    // Report rows for the render timings, computed before the traced
    // clock starts.
    let paper = &cat.machines[PAPER];
    let rows = (
        fig6(paper).map_err(|e| e.to_string())?,
        fig7(paper).map_err(|e| e.to_string())?,
        fig9(paper).map_err(|e| e.to_string())?,
        table4(paper).map_err(|e| e.to_string())?,
        table3(),
        table5(),
    );

    let mut tr = Tracer::new();
    let t = Instant::now();
    let cat = tr.span("mediabench.build", |_| Catalog::build());
    let mut c = Counters::default();
    let distinct = cat.distinct();
    let mut reference: HashMap<CellKey, SuiteStats> = HashMap::new();
    let matrix: HashSet<CellKey> = cat.matrix.iter().copied().collect();
    let mut matrix_layered_ns = 0u64;
    for key in &distinct {
        out.attempted += 1;
        match traced_cell(&mut tr, &cat, *key, &reference, &goldens, &mut c) {
            Ok((stats, layered_ns)) => {
                if matrix.contains(key) {
                    matrix_layered_ns += layered_ns;
                }
                reference.insert(*key, stats);
            }
            Err(e) => out.fail(1, e),
        }
    }
    tr.span("core.report", |_| {
        let texts = [
            render::render_fig6(&rows.0),
            render::render_exec(&rows.1, "Figure 7: normalized execution time"),
            render::render_exec(
                &rows.2,
                "Figure 9: normalized execution time with Attraction Buffers",
            ),
            render::render_table4(&rows.3),
            render::render_table3(&rows.4),
            render::render_table5(&rows.5),
        ];
        std::hint::black_box(texts);
    });
    let wall_traced = t.elapsed().as_secs_f64();

    // The traced cells must equal the untraced run's.
    for cell in &par.matrix {
        let key = CellKey {
            suite: cat
                .suites
                .iter()
                .position(|s| s.name == cell.suite)
                .expect("suite"),
            machine: PAPER,
            solution: cell.solution,
            heuristic: cell.heuristic,
        };
        if let (Ok(untraced), Some(traced)) = (&cell.stats, reference.get(&key)) {
            let same = untraced.kernels.len() == traced.kernels.len()
                && untraced
                    .kernels
                    .iter()
                    .zip(&traced.kernels)
                    .all(|(a, b)| a.ii == b.ii && a.stats == b.stats);
            if !same {
                out.fail(
                    1,
                    format!(
                        "traced cell {} {} {} differs from the untraced run",
                        cell.suite, cell.solution, cell.heuristic
                    ),
                );
            }
        }
    }
    if par.texts != serial.texts {
        out.fail(
            1,
            "report texts differ between the parallel and the serial run",
        );
    }

    layer_metrics(&tr, &c, &mut out);
    out.set("core.cells_requested", cat.requested() as f64);
    out.set("core.cells_distinct", distinct.len() as f64);
    out.set("core.fanout_speedup", wall_serial / wall_par);
    // The reports request cells more than once and the traced run
    // computes each distinct cell once, so the untraced side of the
    // overhead is the serial matrix grid, whose cells the traced run
    // covers exactly once.
    trace_ratios(
        tr.self_ms_any(LAYERED),
        tr.self_ms("core.pipeline"),
        matrix_layered_ns as f64 / 1e6,
        serial.matrix_ms.iter().map(|op| op.1).sum(),
        &mut out,
    );
    out.note("wall_parallel_s", format!("{wall_par:.3}"));
    out.note("wall_serial_s", format!("{wall_serial:.3}"));
    out.note("wall_traced_s", format!("{wall_traced:.3}"));
    ledger_counters(&c, &mut out);
    out.spans = tr.to_jsonl();
    Ok(out)
}

/// Re-runs one distinct cell layer by layer and through the pipeline's
/// entry points, checking that they agree, that the checker passes and
/// that pinned kernels match the goldens. Hybrid cells are derived
/// from their MDC and DDGT cells, as the program derives them. Returns
/// the cell's statistics and the wall time (ns) of its layered re-run,
/// checker excluded.
fn traced_cell(
    tr: &mut Tracer,
    cat: &Catalog,
    key: CellKey,
    done: &HashMap<CellKey, SuiteStats>,
    goldens: &Goldens,
    c: &mut Counters,
) -> Result<(SuiteStats, u64), String> {
    let suite = &cat.suites[key.suite];
    let what = format!(
        "{} {} {} on machine #{}",
        suite.name, key.solution, key.heuristic, key.machine
    );
    if key.solution == Solution::Hybrid {
        let part = |solution| {
            done.get(&CellKey { solution, ..key })
                .ok_or_else(|| format!("{what}: its MDC/DDGT cell is missing"))
        };
        let (mdc, ddgt) = (part(Solution::Mdc)?, part(Solution::Ddgt)?);
        let stats = tr.span("core.derive_hybrid", |_| derive_hybrid(mdc, ddgt));
        check_cell(goldens, &suite.name, key.solution, key.heuristic, &stats)
            .map_err(|e| format!("{what}: {e}"))?;
        return Ok((stats, 0));
    }
    let base = &cat.machines[key.machine];
    let machine = base.clone().with_interleave(suite.interleave_bytes);
    let mut layered = Vec::with_capacity(suite.kernels.len());
    let (mark, t) = (tr.mark(), Instant::now());
    for kernel in &suite.kernels {
        let k = compile_layered(tr, &machine, kernel, key.solution, key.heuristic, c)
            .map_err(|e| format!("{what}: {e}"))?;
        let stats = simulate_layered(tr, &machine, &k, c);
        layered.push((k, stats));
    }
    let layered_ns =
        (t.elapsed().as_nanos() as u64).saturating_sub(tr.dur_ns_since(mark, &["check"]));
    let stats = tr
        .span("core.pipeline", |_| {
            let pipeline = Pipeline::new(base.clone());
            pipeline
                .compile_suite(suite, key.solution, key.heuristic)
                .map(|artifact| (pipeline.simulate_artifact(&artifact), artifact))
        })
        .map_err(|e| format!("{what}: {e}"))?;
    let (stats, artifact) = stats;
    for (i, ((k, sim), run)) in layered.iter().zip(&stats.kernels).enumerate() {
        if k.schedule != artifact.kernels[i].schedule || *sim != run.stats {
            return Err(format!(
                "{what}: kernel {} differs between the layered re-run and the pipeline",
                run.name
            ));
        }
    }
    if key.machine == PAPER {
        check_cell(goldens, &suite.name, key.solution, key.heuristic, &stats)
            .map_err(|e| format!("{what}: {e}"))?;
    } else if key.solution != Solution::Free && stats.total.coherence_violations != 0 {
        return Err(format!(
            "{what}: {} coherence violations",
            stats.total.coherence_violations
        ));
    }
    Ok((stats, layered_ns))
}
