//! The `sweep` workload: the factored `core::experiments::sweep` over
//! the default `SweepSpec` grid (2/4/8/16 clusters × 3 bus points × 4
//! solutions), on the default sweep suites plus a seeded draw from the
//! figure suites, and a cold `Pipeline::run_matrix` grid at 8 and 16
//! clusters checked against `tests/golden/scale_stats.txt`.

use std::collections::HashMap;
use std::time::Instant;

use distvliw_arch::MachineConfig;
use distvliw_core::experiments::{
    sweep, sweep_default_suites, sweep_machine, sweep_row, SweepReuse, SweepSpec, SWEEP_SOLUTIONS,
};
use distvliw_core::{derive_hybrid, report as render, MatrixCell, Pipeline, Solution, SuiteStats};
use distvliw_ir::Suite;

use crate::cells::{
    compile_layered, fnv, layer_metrics, ledger_counters, simulate_layered, trace_ratios, Compiled,
    Counters, Goldens, ScaleResult, CONCRETE, HEURISTICS, LAYERED,
};
use crate::speed::Gauge;
use crate::trace::Tracer;
use crate::{repeated_setup, Iteration, Outcome, Rng, RunArgs, SETUPS};

/// The seeded draw is stratified by cost so that every draw costs about
/// the same: the one heavy suite always, one of the mid tier and two of
/// the light tier. Tiers come from single-suite sweep times on a 2-core
/// host (epicdec ~770 ms; mid 55–112 ms; light 12–38 ms). gsmdec is a
/// default sweep suite and so is not drawn again.
const HEAVY: &[&str] = &["epicdec"];
const MID: &[&str] = &["pgpdec", "rasta", "pgpenc", "pegwitenc"];
const LIGHT: &[&str] = &[
    "g721dec",
    "g721enc",
    "gsmenc",
    "jpegdec",
    "jpegenc",
    "mpeg2dec",
    "pegwitdec",
];

/// Cluster counts of the golden-checked matrix grid.
const MATRIX_CLUSTERS: [usize; 2] = [8, 16];

const TITLE: &str = "Sensitivity sweep (repobench draw)";

/// The suites of iteration `iteration` under `seed`.
fn draw(pool: &[Suite], defaults: &[Suite], seed: u64, iteration: u64) -> Vec<Suite> {
    let mut rng = Rng::new(seed, iteration);
    let mut names: Vec<&str> = HEAVY.to_vec();
    names.push(MID[rng.below(MID.len())]);
    let first = rng.below(LIGHT.len());
    let second = (first + 1 + rng.below(LIGHT.len() - 1)) % LIGHT.len();
    names.push(LIGHT[first]);
    names.push(LIGHT[second]);
    let mut suites = defaults.to_vec();
    suites.extend(names.iter().map(|n| {
        pool.iter()
            .find(|s| s.name == *n)
            .expect("figure suite")
            .clone()
    }));
    suites
}

struct Inputs {
    pool: Vec<Suite>,
    defaults: Vec<Suite>,
    pinned: Vec<Suite>,
    goldens: Goldens,
}

fn setup() -> Result<Inputs, String> {
    Ok(Inputs {
        pool: distvliw_mediabench::figure_suites(),
        defaults: sweep_default_suites(),
        pinned: pinned(),
        goldens: Goldens::load()?,
    })
}

/// Everything one iteration of the traced run's untraced passes
/// produced.
struct Pass {
    text: String,
    sweep_ms: (f64, f64),
}

/// The suites `tests/golden/scale_stats.txt` pins, in its order.
fn pinned() -> Vec<Suite> {
    let mut suites: Vec<Suite> = ["gsmdec", "jpegenc"]
        .iter()
        .map(|n| distvliw_mediabench::suite(n).expect("bundled benchmark"))
        .collect();
    suites.extend(distvliw_mediabench::trace_suites());
    suites
}

/// One sweep over `suites`, timed from outside, with its output checks.
struct SweepOp {
    text: String,
    reuse: SweepReuse,
    ms: (f64, f64),
    cells: u64,
}

fn sweep_op(suites: &[Suite], gauge: &mut Gauge, out: &mut Outcome) -> SweepOp {
    let paper = MachineConfig::paper_baseline();
    let spec = SweepSpec::default();
    let row_cells =
        (spec.cluster_counts.len() * spec.mem_buses.len() * SWEEP_SOLUTIONS.len()) as u64;
    let before = cells_simulated();
    let (result, ms) = gauge.time(|| sweep(&paper, suites, &spec));
    let n_cells = row_cells * suites.len() as u64;
    out.attempted += n_cells;
    // `cells_per_cpu_s` counts the cells of every row, Hybrid included;
    // the program's own counter sees the concrete cells it simulated.
    // The two must agree, or the count behind `cells_per_cpu_s` is stale.
    let simulated = cells_simulated() - before;
    let concrete = n_cells / SWEEP_SOLUTIONS.len() as u64 * CONCRETE.len() as u64;
    if result.is_ok() && simulated != concrete {
        out.fail(
            1,
            format!(
                "the sweep simulated {simulated} concrete cells, the benchmark counts {concrete}"
            ),
        );
    }
    let mut op = SweepOp {
        text: String::new(),
        reuse: SweepReuse::default(),
        ms,
        cells: n_cells,
    };
    match result {
        Ok(run) => {
            for row in &run.rows {
                if row.solution != Solution::Free && row.violations != 0 {
                    out.fail(
                        suites.len() as u64,
                        format!(
                            "sweep row {} clusters {:?} {}: {} violations",
                            row.n_clusters, row.mem_buses, row.solution, row.violations
                        ),
                    );
                }
            }
            op.text =
                render::render_sweep(&run.rows, TITLE) + &render::render_sweep_reuse(&run.reuse);
            op.reuse = run.reuse;
        }
        Err(e) => out.fail(n_cells, format!("sweep: {e}")),
    }
    op
}

/// The matrix grids: one operation per (cluster count, pinned suite),
/// that suite's Free/MDC/DDGT × PrefClus/MinComs grid at 8 or 16
/// clusters, checked against the goldens (ledger key `{tag}.…`).
/// Returns each operation's times and the grids' cell count.
fn matrix_grids(
    inputs: &Inputs,
    tag: &str,
    gauge: &mut Gauge,
    out: &mut Outcome,
) -> (Vec<(f64, f64)>, u64) {
    let paper = MachineConfig::paper_baseline();
    let (mut grids, mut times, mut cells) = (Vec::new(), Vec::new(), 0);
    for n in MATRIX_CLUSTERS {
        let pipeline = Pipeline::new(sweep_machine(&paper, n, paper.mem_buses));
        let mut grid = Vec::new();
        for suite in &inputs.pinned {
            let (cells, ms) = gauge
                .time(|| pipeline.run_matrix(std::slice::from_ref(suite), &CONCRETE, &HEURISTICS));
            grid.extend(cells);
            times.push(ms);
        }
        out.attempted += grid.len() as u64;
        cells += grid.len() as u64;
        grids.push((n, grid));
    }
    check_matrix(&inputs.goldens, &grids, tag, out);
    (times, cells)
}

/// One pass of the traced run's untraced side: the sweep over `suites`
/// in one call, then the matrix grids.
fn pass(suites: &[Suite], inputs: &Inputs, out: &mut Outcome) -> Pass {
    let mut gauge = Gauge::new();
    let op = sweep_op(suites, &mut gauge, out);
    let (_, matrix_cells) = matrix_grids(inputs, "pass", &mut gauge, out);
    out.ledger("pass.sweep.fnv", fnv(op.text.as_bytes()));
    out.ledger("pass.core.cells_requested", op.cells + matrix_cells);
    Pass {
        text: op.text,
        sweep_ms: op.ms,
    }
}

/// Concrete sweep cells simulated in this process so far, read from the
/// program's own observability counter.
fn cells_simulated() -> u64 {
    distvliw_obs::global()
        .counter(
            "sweep_cells_simulated_total",
            "Concrete sweep cells simulated",
        )
        .get()
}

fn check_matrix(
    goldens: &Goldens,
    grids: &[(usize, Vec<MatrixCell>)],
    tag: &str,
    out: &mut Outcome,
) {
    let mut iis = 0;
    for (n, cells) in grids {
        for cell in cells {
            let what = format!(
                "matrix n={n} {} {} {}",
                cell.suite, cell.solution, cell.heuristic
            );
            let stats = match &cell.stats {
                Ok(s) => s,
                Err(e) => {
                    out.fail(1, format!("{what}: {e}"));
                    continue;
                }
            };
            iis += stats.sched.iis_tried;
            if cell.solution != Solution::Free && stats.total.coherence_violations != 0 {
                out.fail(
                    1,
                    format!(
                        "{what}: {} coherence violations",
                        stats.total.coherence_violations
                    ),
                );
                continue;
            }
            let bad = stats.kernels.iter().find_map(|k| {
                goldens
                    .check_scale(
                        *n,
                        &cell.suite,
                        &k.name,
                        cell.solution,
                        cell.heuristic,
                        ScaleResult::Run(k),
                    )
                    .and_then(Result::err)
            });
            if let Some(e) = bad {
                out.fail(1, e);
            }
        }
    }
    out.ledger(format!("{tag}.matrix.iis_tried"), iis);
}

/// The suites of one untraced iteration, in the order `seed` gives
/// iteration `iteration`.
fn order(n: usize, seed: u64, iteration: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, iteration);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// The untraced, end-to-end run: every iteration sweeps each suite (the
/// default sweep suites and every figure suite) as an operation of its
/// own, in a seeded order, then runs the matrix grids.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (inputs, setup_s) = repeated_setup(SETUPS, &mut out, setup);
    let inputs = inputs?;
    out.set("setup_s", setup_s);
    let suites: Vec<Suite> = inputs
        .defaults
        .iter()
        .chain(&inputs.pool)
        .cloned()
        .collect();
    let start = Instant::now();
    let mut sweep_ms: Vec<Vec<(f64, f64)>> = vec![Vec::new(); suites.len()];
    let mut matrix_ms: Vec<Vec<(f64, f64)>> = Vec::new();
    let (mut iterations, mut cells) = (0u64, 0);
    let mut gauge = Gauge::new();
    while iterations == 0 || start.elapsed().as_secs_f64() < args.seconds {
        cells = 0;
        for i in order(suites.len(), args.seed, iterations) {
            let op = sweep_op(std::slice::from_ref(&suites[i]), &mut gauge, &mut out);
            let name = &suites[i].name;
            out.ledger(format!("sweep.{name}.fnv"), fnv(op.text.as_bytes()));
            out.ledger(
                format!("sweep.{name}.schedules_compiled"),
                op.reuse.schedules_compiled,
            );
            out.ledger(
                format!("sweep.{name}.schedules_reused"),
                op.reuse.schedules_reused,
            );
            out.ledger(
                format!("sweep.{name}.sched_axis_recompiles"),
                op.reuse.sched_axis_recompiles,
            );
            sweep_ms[i].push(op.ms);
            cells += op.cells;
        }
        let (times, matrix_cells) = matrix_grids(&inputs, "matrix", &mut gauge, &mut out);
        matrix_ms.resize(times.len(), Vec::new());
        for (reps, op) in matrix_ms.iter_mut().zip(times) {
            reps.push(op);
        }
        cells += matrix_cells;
        out.ledger("core.cells_requested", cells);
        iterations += 1;
    }
    let (sweep_cpu, sweep_wall) = out.op_times("figure", &sweep_ms, "suite sweep");
    let (matrix_cpu, matrix_wall) = out.op_times("matrix", &matrix_ms, "matrix operation");
    // One iteration at every operation's cost.
    out.throughput(
        &[Iteration {
            cells,
            ops: (sweep_ms.len() + matrix_ms.len()) as u64,
            cpu_s: (sweep_cpu + matrix_cpu) / 1e3,
            wall_s: (sweep_wall + matrix_wall) / 1e3,
        }],
        "iterations at each operation's cost",
    );
    out.note("iterations", iterations.to_string());
    out.note(
        "suites",
        suites
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );
    Ok(out)
}

/// One compile unit of the factored sweep: a (scheduler projection,
/// solution, suite) triple.
struct Unit {
    machine: MachineConfig,
    solution: Solution,
    suite: usize,
}

/// The traced run: one untraced iteration with the default fan-out,
/// one serial, then a serial traced re-run of the same sweep — every
/// compile unit and every simulated cell through the layers' public
/// calls and the pipeline's entry points — whose rows and reuse
/// counters must equal the untraced sweep's.
pub fn run_traced(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let inputs = setup()?;
    let suites = draw(&inputs.pool, &inputs.defaults, args.seed, 0);

    let t = Instant::now();
    let par = pass(&suites, &inputs, &mut out);
    let wall_par = t.elapsed().as_secs_f64();
    std::env::set_var("DISTVLIW_THREADS", "1");
    let t = Instant::now();
    let serial = pass(&suites, &inputs, &mut out);
    let wall_serial = t.elapsed().as_secs_f64();
    if par.text != serial.text {
        out.fail(
            1,
            "sweep text differs between the parallel and the serial run",
        );
    }

    let mut tr = Tracer::new();
    let mut c = Counters::default();
    let t = Instant::now();
    let paper = MachineConfig::paper_baseline();
    let suites = tr.span("mediabench.build", |_| {
        let pool = distvliw_mediabench::figure_suites();
        draw(&pool, &sweep_default_suites(), args.seed, 0)
    });
    let spec = SweepSpec::default();
    let points: Vec<_> = spec
        .cluster_counts
        .iter()
        .flat_map(|&n| spec.mem_buses.iter().map(move |&bus| (n, bus)))
        .map(|(n, bus)| (n, bus, sweep_machine(&paper, n, bus)))
        .collect();

    // The same compile-unit dedup the factored sweep documents.
    let mut reuse = SweepReuse::default();
    let mut units: Vec<Unit> = Vec::new();
    let mut unit_of: HashMap<(Vec<u8>, usize, usize), usize> = HashMap::new();
    let mut triples = std::collections::HashSet::new();
    let mut cell_unit = Vec::new();
    for (n, _, machine) in &points {
        for (si, &solution) in CONCRETE.iter().enumerate() {
            for (ui, suite) in suites.iter().enumerate() {
                let proj = machine
                    .clone()
                    .with_interleave(suite.interleave_bytes)
                    .sched_canonical_bytes();
                let idx = *unit_of.entry((proj, si, ui)).or_insert_with(|| {
                    if !triples.insert((*n, si, ui)) {
                        reuse.sched_axis_recompiles += 1;
                    }
                    reuse.schedules_compiled += 1;
                    units.push(Unit {
                        machine: machine.clone(),
                        solution,
                        suite: ui,
                    });
                    units.len() - 1
                });
                cell_unit.push(idx);
            }
        }
    }
    reuse.schedules_reused = cell_unit.len() as u64 - reuse.schedules_compiled;

    let mut compiled: Vec<Option<(Vec<Compiled>, distvliw_core::SuiteArtifact)>> = Vec::new();
    for unit in &units {
        out.attempted += 1;
        let suite = &suites[unit.suite];
        let what = format!(
            "unit {} {} n={}",
            suite.name, unit.solution, unit.machine.n_clusters
        );
        let machine = unit.machine.clone().with_interleave(suite.interleave_bytes);
        let layered: Result<Vec<Compiled>, String> = suite
            .kernels
            .iter()
            .map(|k| compile_layered(&mut tr, &machine, k, unit.solution, spec.heuristic, &mut c))
            .collect();
        let artifact = tr.span("core.pipeline", |_| {
            Pipeline::new(unit.machine.clone()).compile_suite(suite, unit.solution, spec.heuristic)
        });
        match (layered, artifact) {
            (Ok(layered), Ok(artifact)) => {
                if layered
                    .iter()
                    .zip(&artifact.kernels)
                    .any(|(l, a)| l.schedule != a.schedule)
                {
                    out.fail(
                        1,
                        format!("{what}: layered schedule differs from the pipeline's"),
                    );
                }
                compiled.push(Some((layered, artifact)));
            }
            (Err(e), _) => {
                out.fail(1, format!("{what}: {e}"));
                compiled.push(None);
            }
            (_, Err(e)) => {
                out.fail(1, format!("{what}: {e}"));
                compiled.push(None);
            }
        }
    }

    let per_point = CONCRETE.len() * suites.len();
    let mut sims: Vec<Option<SuiteStats>> = Vec::with_capacity(cell_unit.len());
    for (cell, &u) in cell_unit.iter().enumerate() {
        let (n, bus, machine) = &points[cell / per_point];
        let Some((layered, artifact)) = &compiled[u] else {
            sims.push(None);
            continue;
        };
        out.attempted += 1;
        let suite = &suites[units[u].suite];
        let sim_machine = machine.clone().with_interleave(suite.interleave_bytes);
        let stats: Vec<_> = layered
            .iter()
            .map(|k| simulate_layered(&mut tr, &sim_machine, k, &mut c))
            .collect();
        let reference = tr.span("core.pipeline", |_| {
            Pipeline::new(machine.clone()).simulate_artifact(artifact)
        });
        let what = format!(
            "cell {} {} n={n} bus={bus:?}",
            suite.name, units[u].solution
        );
        if stats
            .iter()
            .zip(&reference.kernels)
            .any(|(s, r)| *s != r.stats)
        {
            out.fail(
                1,
                format!("{what}: layered simulation differs from the pipeline's"),
            );
        }
        if *bus == paper.mem_buses {
            for (k, s) in layered.iter().zip(&stats) {
                let check = inputs.goldens.check_scale(
                    *n,
                    &suite.name,
                    &k.kernel.name,
                    units[u].solution,
                    spec.heuristic,
                    ScaleResult::Schedule(&k.schedule, s),
                );
                if let Some(Err(e)) = check {
                    out.fail(1, e);
                }
            }
        }
        sims.push(Some(reference));
    }

    let text = tr.span("core.report", |_| -> Option<String> {
        let mut rows = Vec::new();
        for (pi, (n, bus, _)) in points.iter().enumerate() {
            let of = |si: usize| -> Option<Vec<&SuiteStats>> {
                (0..suites.len())
                    .map(|ui| sims[pi * per_point + si * suites.len() + ui].as_ref())
                    .collect()
            };
            for (si, &solution) in CONCRETE.iter().enumerate() {
                rows.push(sweep_row(*n, *bus, solution, &of(si)?));
            }
            let hybrid: Vec<SuiteStats> = of(1)?
                .iter()
                .zip(of(2)?)
                .map(|(m, d)| derive_hybrid(m, d))
                .collect();
            rows.push(sweep_row(
                *n,
                *bus,
                Solution::Hybrid,
                &hybrid.iter().collect::<Vec<_>>(),
            ));
        }
        Some(render::render_sweep(&rows, TITLE) + &render::render_sweep_reuse(&reuse))
    });
    let wall_traced = t.elapsed().as_secs_f64();
    if text.as_deref() != Some(par.text.as_str()) {
        out.fail(
            1,
            "the traced sweep's rows or reuse counters differ from the untraced sweep's",
        );
    }

    layer_metrics(&tr, &c, &mut out);
    let requested = (points.len() * SWEEP_SOLUTIONS.len() * suites.len()) as f64;
    out.set("core.cells_requested", requested);
    out.set("core.cells_distinct", cell_unit.len() as f64);
    out.set(
        "core.sweep.schedules_compiled",
        reuse.schedules_compiled as f64,
    );
    out.set("core.sweep.schedules_reused", reuse.schedules_reused as f64);
    out.set(
        "core.sweep.sched_axis_recompiles",
        reuse.sched_axis_recompiles as f64,
    );
    out.set("core.fanout_speedup", wall_serial / wall_par);
    // The traced re-run compiles each unit and simulates each cell of
    // the untraced sweep exactly once. Its wall time, less the spans the
    // untraced sweep does not run (the pipeline's duplicate calls, the
    // checker and building the suites), is set against the serial
    // sweep's.
    let layered_wall_ms =
        wall_traced * 1e3 - tr.self_ms_any(&["core.pipeline", "check", "mediabench."]);
    trace_ratios(
        tr.self_ms_any(LAYERED),
        tr.self_ms("core.pipeline"),
        layered_wall_ms,
        serial.sweep_ms.1,
        &mut out,
    );
    out.note("wall_parallel_s", format!("{wall_par:.3}"));
    out.note("wall_serial_s", format!("{wall_serial:.3}"));
    out.note("wall_traced_s", format!("{wall_traced:.3}"));
    out.note(
        "suites",
        suites
            .iter()
            .map(|s| s.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
    );
    ledger_counters(&c, &mut out);
    out.spans = tr.to_jsonl();
    Ok(out)
}
