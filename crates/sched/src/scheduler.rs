//! The swing-style modulo scheduler with integrated cluster assignment.
//!
//! For each candidate initiation interval (II) starting at the MII, nodes
//! are placed in priority order into per-cluster modulo reservation
//! tables. Cluster choice follows the active heuristic (paper
//! Section 2.2):
//!
//! * **PrefClus** — memory instructions go to their *preferred cluster*
//!   (profile-derived); MDC chains go to the chain's average preferred
//!   cluster; everything else minimizes communications with balance as a
//!   tie-break.
//! * **MinComs** — every unconstrained instruction minimizes
//!   register-to-register communications (workload balance as tie-break);
//!   a post-pass then maps virtual clusters to physical clusters so local
//!   accesses are maximized.
//!
//! Register-flow edges that end up crossing clusters materialize explicit
//! copy operations reserved on the register-bus rows of the reservation
//! table — the paper's "communication operations".
//!
//! # Hot-path layout
//!
//! The scheduler re-runs for every (solution × heuristic × II candidate ×
//! latency-class trial) combination, so the inner structures are dense
//! and allocation-free per trial:
//!
//! * every per-node side table ([`distvliw_ir::NodeMap`], [`CopyTable`])
//!   is a flat `NodeId`-indexed vector — no tree maps on the hot path;
//! * a candidate placement reserves resources directly in the [`Mrt`] and
//!   *rolls back* through its reservation journal on failure instead of
//!   cloning the table per trial; the live-range journal and the planned
//!   copies live in the placer and are reused by every trial;
//! * the start-cycle scan skips the starts a failed trial proves
//!   infeasible: when an incoming copy finds no free bus slot before its
//!   deadline, the scan resumes at the first start whose deadline
//!   reaches the first free slot (see `Placer::commit`);
//! * the priority order is computed once per latency assignment (it does
//!   not depend on the II) and shared by the whole II search;
//! * one [`RecMiiSolver`] instance carries its scratch buffers across
//!   every latency-assignment trial.

use std::collections::{BTreeMap, VecDeque};

use distvliw_arch::{LatencyClass, MachineConfig};
use distvliw_coherence::SchedConstraints;
use distvliw_ir::{Ddg, DepKind, NodeId, NodeMap, PrefMap};

use crate::dense::DenseDeps;
use crate::eject::{eject_budget, EvictionRecord};
use crate::mii::{constrained_res_mii, res_mii, RecMiiSolver};
use crate::mrt::Mrt;
use crate::pressure::{range_cost, PressureCtx};
use crate::schedule::{CopyOp, SchedStats, Schedule, ScheduleError, ScheduledOp, SearchPhase};

/// Slack subtracted from a profile-provided II seed before the search
/// opens: covers small graph drift between the run that recorded the
/// seed and the current one, while still skipping the (deterministically
/// re-failing) II range below it.
const SEED_II_SLACK: u32 = 2;

/// The two cluster-assignment heuristics of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Memory instructions to their preferred (profiled) cluster.
    PrefClus,
    /// Minimize communications; post-pass maps virtual→physical clusters.
    MinComs,
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Heuristic::PrefClus => f.write_str("PrefClus"),
            Heuristic::MinComs => f.write_str("MinComs"),
        }
    }
}

impl std::str::FromStr for Heuristic {
    type Err = String;

    /// Parses the case-insensitive heuristic name used in request bodies
    /// and CLI flags (`prefclus`, `mincoms`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "prefclus" => Ok(Heuristic::PrefClus),
            "mincoms" => Ok(Heuristic::MinComs),
            other => Err(format!(
                "unknown heuristic `{other}` (expected prefclus or mincoms)"
            )),
        }
    }
}

/// The read-only inputs shared by every placement attempt of one
/// `schedule` call.
#[derive(Clone, Copy)]
struct SchedCtx<'a> {
    ddg: &'a Ddg,
    dense: &'a DenseDeps,
    constraints: &'a SchedConstraints,
    prefs: &'a PrefMap,
    heuristic: Heuristic,
}

/// Modulo scheduler for one machine configuration.
#[derive(Debug, Clone)]
pub struct ModuloScheduler<'m> {
    machine: &'m MachineConfig,
    relax_latencies: bool,
    ejection: bool,
    ii_seed: Option<u32>,
}

impl<'m> ModuloScheduler<'m> {
    /// Creates a scheduler with cache-sensitive latency assignment and
    /// the ejection (backtracking) fallback enabled.
    #[must_use]
    pub fn new(machine: &'m MachineConfig) -> Self {
        ModuloScheduler {
            machine,
            relax_latencies: true,
            ejection: true,
            ii_seed: None,
        }
    }

    /// Enables or disables the latency-assignment relaxation pass
    /// (paper Section 2.2, reference 21); useful for ablation studies.
    #[must_use]
    pub fn with_latency_relaxation(mut self, on: bool) -> Self {
        self.relax_latencies = on;
        self
    }

    /// Enables or disables the ejection fallback. With it off the search
    /// degenerates to the restart-only scan (one from-scratch placement
    /// pass per II) — kept for ablations and the regression tests that
    /// prove ejection never does worse.
    #[must_use]
    pub fn with_ejection(mut self, on: bool) -> Self {
        self.ejection = on;
        self
    }

    /// Seeds the II search with a previously achieved II for this
    /// (graph, constraints, heuristic) configuration: the search opens
    /// at `seed − 2` (clamped to the MII), skipping the II range a prior
    /// deterministic run already proved unplaceable. An accurate seed
    /// reproduces the unseeded result exactly (the skipped IIs would
    /// fail again identically); callers must key seeds by the full
    /// configuration, since a seed recorded for a *different* graph
    /// could mask a lower feasible II.
    #[must_use]
    pub fn with_ii_seed(mut self, seed: Option<u32>) -> Self {
        self.ii_seed = seed;
        self
    }

    /// Schedules `ddg` under `constraints` with the given heuristic.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidGraph`] for graphs with
    /// zero-distance cycles and [`ScheduleError::NoFeasibleIi`] if no II
    /// up to the search bound admits a placement.
    pub fn schedule(
        &self,
        ddg: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        heuristic: Heuristic,
    ) -> Result<Schedule, ScheduleError> {
        self.schedule_with_stats(ddg, constraints, prefs, heuristic)
            .map(|(s, _)| s)
    }

    /// Like [`ModuloScheduler::schedule`], additionally returning the
    /// search telemetry ([`SchedStats`]): attempts, ejections, the MII
    /// and the seed that applied. The pipeline records the achieved II
    /// per configuration and feeds it back via
    /// [`ModuloScheduler::with_ii_seed`].
    ///
    /// # Errors
    ///
    /// Same contract as [`ModuloScheduler::schedule`].
    pub fn schedule_with_stats(
        &self,
        ddg: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        heuristic: Heuristic,
    ) -> Result<(Schedule, SchedStats), ScheduleError> {
        let start = std::time::Instant::now();
        let mut span = distvliw_obs::Span::enter("sched.schedule");
        span.field_u64("nodes", ddg.node_count() as u64);
        let result = self.schedule_inner(ddg, constraints, prefs, heuristic);
        let reg = distvliw_obs::global();
        reg.histogram(
            "sched_schedule_duration_us",
            "Wall time of one schedule() call in microseconds",
        )
        .record_micros(start.elapsed());
        match &result {
            Ok((_, stats)) => {
                span.field_u64("ii", u64::from(stats.ii));
                span.field_u64("mii", u64::from(stats.mii));
                span.field_u64("iis_tried", u64::from(stats.iis_tried));
                span.field_u64("ejections", stats.ejections);
                reg.counter("sched_schedules_total", "Completed schedule() calls")
                    .inc();
                reg.counter(
                    "sched_iis_tried_total",
                    "Candidate initiation intervals tried across all searches",
                )
                .add(u64::from(stats.iis_tried));
                reg.counter(
                    "sched_placement_attempts_total",
                    "Node placement attempts across all searches",
                )
                .add(stats.placement_attempts);
                reg.counter(
                    "sched_ejections_total",
                    "Nodes ejected by the backtracking placement fallback",
                )
                .add(stats.ejections);
                if stats.seeded_at.is_some() {
                    reg.counter(
                        "sched_seeded_schedules_total",
                        "Schedules whose II search opened from a stored seed",
                    )
                    .inc();
                }
            }
            Err(_) => {
                span.field_str("error", "unschedulable");
                reg.counter(
                    "sched_schedule_failures_total",
                    "schedule() calls returning an error",
                )
                .inc();
            }
        }
        result
    }

    fn schedule_inner(
        &self,
        ddg: &Ddg,
        constraints: &SchedConstraints,
        prefs: &PrefMap,
        heuristic: Heuristic,
    ) -> Result<(Schedule, SchedStats), ScheduleError> {
        let min_ii = constraints.min_ii.max(1);
        if ddg.has_zero_distance_cycle() {
            return Err(ScheduleError::InvalidGraph);
        }
        if ddg.node_count() == 0 {
            // Honor a constraint-mandated minimum II even for the
            // trivial schedule.
            return Ok((
                Schedule {
                    ii: min_ii,
                    ops: BTreeMap::new(),
                    copies: Vec::new(),
                    span: min_ii,
                    n_clusters: self.machine.n_clusters,
                },
                SchedStats {
                    ii: min_ii,
                    mii: min_ii,
                    ..SchedStats::default()
                },
            ));
        }
        let dense = DenseDeps::new(ddg);
        let ctx = SchedCtx {
            ddg,
            dense: &dense,
            constraints,
            prefs,
            heuristic,
        };

        // Phase 1: optimistic latencies (local hit for every load).
        let local_hit = self.machine.latency_of(LatencyClass::LocalHit);
        let mut classes: NodeMap<LatencyClass> =
            ddg.loads().map(|l| (l, LatencyClass::LocalHit)).collect();
        let mut lat = self.cycles_of(&classes);
        let mut rec_solver = RecMiiSolver::from_dense(&dense);

        // Every II below the MII is provably infeasible. The
        // constraint-aware resource bound is what kills the degenerate
        // blowup: an MDC chain colocated in one cluster used to start
        // the scan at the machine-wide ResMII and fail one full
        // placement pass per II until the single-cluster bound was
        // reached by brute force.
        let mii0 = res_mii(ddg, self.machine)
            .max(rec_solver.rec_mii(&lat))
            .max(constrained_res_mii(ddg, self.machine, constraints))
            .max(min_ii);
        if mii0 == u32::MAX {
            return Err(ScheduleError::InvalidGraph);
        }
        // Seed from a prior run of this configuration, keeping the
        // bound sound (never below the MII).
        let seeded_at = match self.ii_seed {
            Some(seed) => {
                let start = seed.saturating_sub(SEED_II_SLACK);
                (start > mii0).then_some(start)
            }
            None => None,
        };
        let start_ii = seeded_at.unwrap_or(mii0);
        // MDC chains can serialize all memory ops of a chain in one
        // cluster, inflating the achievable II up to n_clusters × ResMII.
        let max_ii = mii0
            .saturating_mul(self.machine.n_clusters as u32)
            .saturating_add(ddg.node_count() as u32)
            .saturating_add(32)
            .max(start_ii);

        // The priority order depends only on the latency assignment, not
        // the II: compute it once for the whole II search.
        let mut counters = SearchCounters::default();
        let mut order = priority_order(ddg, &dense, &lat);
        let mut found: Option<(u32, Placement)> = None;
        let mut used_eject = false;
        for ii in start_ii..=max_ii {
            counters.iis_tried += 1;
            let mut trial_span = distvliw_obs::Span::enter("sched.ii_trial");
            trial_span.field_u64("ii", u64::from(ii));
            if let Some(p) = self.try_place(ctx, &lat, &order, ii, &mut counters) {
                trial_span.field_str("outcome", "placed");
                found = Some((ii, p));
                break;
            }
            if self.ejection {
                let eject_span = distvliw_obs::Span::enter("sched.eject");
                let placed = self.try_place_eject(ctx, &lat, &order, ii, &mut counters);
                drop(eject_span);
                if let Some(p) = placed {
                    trial_span.field_str("outcome", "ejected");
                    found = Some((ii, p));
                    used_eject = true;
                    break;
                }
            }
            trial_span.field_str("outcome", "infeasible");
        }
        let Some((ii0, mut best)) = found else {
            return Err(ScheduleError::NoFeasibleIi {
                mii: mii0,
                max_tried: max_ii,
                phase: SearchPhase::Optimistic,
                attempts: counters.attempts,
                first_blocked: counters.first_blocked,
            });
        };
        let span_budget = best.span.saturating_add(4 * ii0);
        // A placement pass under relaxed latencies only gets the
        // ejection fallback if phase 1 needed it at this II — when the
        // plain pass carried phase 1, relaxation trials stay plain and
        // byte-identical to the pre-ejection scheduler. Only the
        // *joint* relaxation trials (at most three) get the fallback:
        // the per-load refinement multiplies by the load count, and a
        // full-budget ejection pass per failed refinement trial is the
        // kind of degenerate search-cost blowup this change exists to
        // remove.
        let relax_try = |order: &[NodeId], lat: &NodeMap<u32>, counters: &mut SearchCounters| {
            self.try_place(ctx, lat, order, ii0, counters).or_else(|| {
                (used_eject && self.ejection)
                    .then(|| self.try_place_eject(ctx, lat, order, ii0, counters))
                    .flatten()
            })
        };

        // Phase 2: cache-sensitive latency assignment — raise load
        // latencies as far as compute time (II and schedule length) allows.
        if self.relax_latencies && !classes.is_empty() {
            let loads: Vec<NodeId> = classes.keys().collect();
            // Joint pass: find the largest uniform class that still fits.
            let mut uniform = LatencyClass::LocalHit;
            for class in [
                LatencyClass::RemoteMiss,
                LatencyClass::LocalMiss,
                LatencyClass::RemoteHit,
            ] {
                if self.machine.latency_of(class) <= local_hit {
                    continue;
                }
                let saved_classes = classes.clone();
                let saved_lat = lat.clone();
                for &l in &loads {
                    classes.insert(l, class);
                    lat.insert(l, self.machine.latency_of(class));
                }
                if rec_solver.feasible_at(&lat, ii0) {
                    order = priority_order(ddg, &dense, &lat);
                    if let Some(p) = relax_try(&order, &lat, &mut counters) {
                        // Compute time is dominated by the II; allow the
                        // pipeline fill (span) to grow by a bounded number
                        // of stages, as the paper's latency assignment
                        // does.
                        if p.span <= span_budget {
                            best = p;
                            uniform = class;
                            break;
                        }
                    }
                }
                classes = saved_classes;
                lat = saved_lat;
            }
            // Per-load refinement above the uniform class.
            if uniform != LatencyClass::RemoteMiss {
                for &load in &loads {
                    for class in [
                        LatencyClass::RemoteMiss,
                        LatencyClass::LocalMiss,
                        LatencyClass::RemoteHit,
                    ] {
                        if self.machine.latency_of(class) <= self.machine.latency_of(classes[load])
                        {
                            break;
                        }
                        let old_class = classes[load];
                        let old_lat = lat[load];
                        classes.insert(load, class);
                        lat.insert(load, self.machine.latency_of(class));
                        if rec_solver.feasible_at(&lat, ii0) {
                            order = priority_order(ddg, &dense, &lat);
                            // Plain pass only — see `relax_try`.
                            if let Some(p) = self.try_place(ctx, &lat, &order, ii0, &mut counters) {
                                if p.span <= span_budget {
                                    best = p;
                                    break;
                                }
                            }
                        }
                        classes.insert(load, old_class);
                        lat.insert(load, old_lat);
                    }
                }
            }
        }

        let stats = SchedStats {
            ii: ii0,
            mii: mii0,
            iis_tried: counters.iis_tried,
            placement_attempts: counters.attempts,
            ejections: counters.ejections,
            seeded_at,
            max_reg_pressure: counters.max_pressure,
        };
        let mut schedule = Schedule {
            ii: ii0,
            ops: best
                .placed
                .iter()
                .map(|(n, &(cluster, start))| {
                    (
                        n,
                        ScheduledOp {
                            node: n,
                            cluster,
                            start,
                            assumed_class: classes.get(n).copied(),
                        },
                    )
                })
                .collect(),
            copies: best.copies,
            span: best.span,
            n_clusters: self.machine.n_clusters,
        };

        if heuristic == Heuristic::MinComs {
            let perm = best_physical_mapping(ddg, &schedule, prefs, self.machine.n_clusters);
            schedule.permute_clusters(&perm);
        }
        Ok((schedule, stats))
    }

    fn cycles_of(&self, classes: &NodeMap<LatencyClass>) -> NodeMap<u32> {
        classes
            .iter()
            .map(|(n, &c)| (n, self.machine.latency_of(c)))
            .collect()
    }

    fn placer<'a>(
        &'a self,
        ctx: SchedCtx<'a>,
        load_lat: &'a NodeMap<u32>,
        ii: u32,
        counters: &'a mut SearchCounters,
    ) -> Placer<'a> {
        Placer {
            machine: self.machine,
            ctx,
            load_lat,
            ii,
            bus_lat: self.machine.reg_buses.latency,
            mrt: Mrt::new(self.machine, ii),
            placed: NodeMap::with_capacity(ctx.ddg.node_count()),
            copies: Vec::new(),
            copy_map: CopyTable::new(ctx.ddg.node_count(), self.machine.n_clusters),
            group_cluster: ctx.constraints.group_target.clone(),
            planned: Vec::new(),
            range_log: Vec::new(),
            ranges: vec![NO_RANGE; ctx.ddg.node_count() * self.machine.n_clusters],
            stage_regs: vec![0; self.machine.n_clusters],
            counters,
        }
    }

    /// One from-scratch placement pass at a fixed II. Returns `None`
    /// when any node cannot be placed.
    fn try_place(
        &self,
        ctx: SchedCtx<'_>,
        load_lat: &NodeMap<u32>,
        order: &[NodeId],
        ii: u32,
        counters: &mut SearchCounters,
    ) -> Option<Placement> {
        let mut placer = self.placer(ctx, load_lat, ii, counters);
        for &n in order {
            if !placer.place(n) {
                placer.counters.first_blocked = Some(n);
                return None;
            }
        }
        placer.into_placement()
    }

    /// The ejection pass at a fixed II: like [`ModuloScheduler::try_place`],
    /// but a node that cannot be placed evicts the ops blocking it (see
    /// `crate::eject`), which re-enter the worklist at the back. Fails
    /// the II once the ejection budget is spent or a node cannot be
    /// forced into any cluster.
    fn try_place_eject(
        &self,
        ctx: SchedCtx<'_>,
        load_lat: &NodeMap<u32>,
        order: &[NodeId],
        ii: u32,
        counters: &mut SearchCounters,
    ) -> Option<Placement> {
        let mut budget = eject_budget(ctx.ddg.node_count());
        let mut placer = self.placer(ctx, load_lat, ii, counters);
        let mut queue: VecDeque<NodeId> = order.iter().copied().collect();
        let mut floor: NodeMap<u32> = NodeMap::new();
        while let Some(n) = queue.pop_front() {
            if placer.place(n) {
                continue;
            }
            let Some(evicted) = placer.force_place(n, &mut floor) else {
                placer.counters.first_blocked = Some(n);
                return None;
            };
            placer.counters.ejections += evicted.len() as u64;
            let cost = evicted.len() as u64;
            if cost > budget {
                placer.counters.first_blocked = Some(n);
                return None;
            }
            budget -= cost;
            queue.extend(evicted);
        }
        placer.into_placement()
    }
}

/// Accumulated search telemetry, shared by every pass of one
/// `schedule_with_stats` call.
#[derive(Debug, Default)]
struct SearchCounters {
    /// Candidate `(cluster, cycle)` commit trials.
    attempts: u64,
    /// Ops evicted by the ejection passes.
    ejections: u64,
    /// IIs attempted.
    iis_tried: u32,
    /// Peak accepted per-cluster register pressure.
    max_pressure: u32,
    /// First unplaceable node of the most recent failed pass.
    first_blocked: Option<NodeId>,
}

/// Dense `(node, cluster) → copy start cycle` table: which clusters
/// already receive a copy of each producer's value, and when the transfer
/// starts.
struct CopyTable {
    n_clusters: usize,
    slots: Vec<Option<u32>>,
}

impl CopyTable {
    fn new(n_nodes: usize, n_clusters: usize) -> Self {
        CopyTable {
            n_clusters,
            slots: vec![None; n_nodes * n_clusters],
        }
    }

    fn get(&self, producer: NodeId, cluster: usize) -> Option<u32> {
        self.slots[producer.index() * self.n_clusters + cluster]
    }

    fn insert(&mut self, producer: NodeId, cluster: usize, start: u32) {
        self.slots[producer.index() * self.n_clusters + cluster] = Some(start);
    }

    fn remove(&mut self, producer: NodeId, cluster: usize) {
        self.slots[producer.index() * self.n_clusters + cluster] = None;
    }
}

/// A planned (not yet accepted) inter-cluster copy of one commit attempt.
struct PlannedCopy {
    producer: NodeId,
    from: usize,
    to: usize,
    start: u32,
}

/// Sentinel for an absent live range in the placer's flat
/// `(node × cluster)` range table (costs zero registers).
const NO_RANGE: (i64, i64) = (i64::MAX, i64::MIN);

/// A journaled live-range write: the flat range-table index and the
/// value it overwrote.
type RangeLog = Vec<(usize, (i64, i64))>;

/// Outcome of one commit trial at `(cluster, start)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trial {
    /// The op is placed.
    Placed,
    /// The trial failed; every start of this cluster before the given
    /// one fails as well.
    RetryFrom(i64),
    /// The trial failed, and so does every later start of this cluster.
    Exhausted,
}

/// The mutable state of one placement attempt at a fixed II.
struct Placer<'a> {
    machine: &'a MachineConfig,
    ctx: SchedCtx<'a>,
    load_lat: &'a NodeMap<u32>,
    ii: u32,
    bus_lat: u32,
    mrt: Mrt,
    placed: NodeMap<(usize, u32)>,
    copies: Vec<CopyOp>,
    copy_map: CopyTable,
    group_cluster: BTreeMap<u32, usize>,
    /// Reused across commit attempts (cleared each time).
    planned: Vec<PlannedCopy>,
    /// Live-range journal of the in-flight commit, reused across
    /// commit attempts (cleared each time).
    range_log: RangeLog,
    /// Live range of each value per cluster (`node × n_clusters +
    /// cluster`, [`NO_RANGE`] when absent) — the incremental state of
    /// the stage-aware pressure model.
    ranges: Vec<(i64, i64)>,
    /// Per-cluster stage-crossing register demand
    /// (`Σ range_cost(ranges)` — see `crate::pressure`).
    stage_regs: Vec<u64>,
    /// Search telemetry, shared with the surrounding II search.
    counters: &'a mut SearchCounters,
}

impl Placer<'_> {
    /// Places `n` in the best feasible cluster/cycle, or reports failure.
    fn place(&mut self, n: NodeId) -> bool {
        let candidates = self.candidate_clusters(n);
        for c in candidates {
            let Some((est, lst)) = self.start_bounds(n, c) else {
                continue;
            };
            let hi = lst.min(est + i64::from(self.ii) - 1);
            let mut t = est;
            while t <= hi {
                let start = u32::try_from(t).expect("start bounded");
                match self.commit(n, c, start) {
                    Trial::Placed => {
                        if let Some(&g) = self.ctx.constraints.colocate.get(&n) {
                            self.group_cluster.entry(g).or_insert(c);
                        }
                        return true;
                    }
                    Trial::RetryFrom(next) => t = next,
                    Trial::Exhausted => break,
                }
            }
        }
        false
    }

    /// Candidate clusters for `n`, best first.
    fn candidate_clusters(&self, n: NodeId) -> Vec<usize> {
        let constraints = self.ctx.constraints;
        if let Some(&pin) = constraints.pinned.get(&n) {
            return vec![pin];
        }
        if let Some(g) = constraints.colocate.get(&n) {
            if let Some(&c) = self.group_cluster.get(g) {
                return vec![c];
            }
        }
        let op = self.ctx.ddg.node(n);
        if self.ctx.heuristic == Heuristic::PrefClus && op.is_memory() {
            if let Some(info) = op.mem_id().and_then(|m| self.ctx.prefs.get(&m)) {
                // Preferred cluster first, then the rest by profile count.
                let mut order: Vec<usize> = (0..self.machine.n_clusters).collect();
                order.sort_by_key(|&c| (std::cmp::Reverse(info.counts()[c]), c));
                return order;
            }
        }
        // MinComs cost: copies needed if placed in c, then current load.
        let mut rf_neighbors: Vec<usize> = Vec::new();
        for d in self.ctx.dense.in_deps(n) {
            if d.kind == DepKind::RegFlow {
                if let Some(&(pc, _)) = self.placed.get(d.src) {
                    rf_neighbors.push(pc);
                }
            }
        }
        for d in self.ctx.dense.out_deps(n) {
            if d.kind == DepKind::RegFlow {
                if let Some(&(sc, _)) = self.placed.get(d.dst) {
                    rf_neighbors.push(sc);
                }
            }
        }
        // One key per cluster, computed once; the keys end in `c`, so
        // they are unique and an unstable sort gives the same order.
        let mut keys: Vec<(usize, u32, usize)> = (0..self.machine.n_clusters)
            .map(|c| {
                let comms = rf_neighbors.iter().filter(|&&x| x != c).count();
                (comms, self.mrt.cluster_load(c), c)
            })
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|(.., c)| c).collect()
    }

    /// Earliest start for `n` in cluster `c` from placed predecessors
    /// only (clamped ≥ 0). Shared by the bounded normal placement and
    /// the forced placement of the ejection pass, which ignores
    /// successors and evicts the ones it violates instead.
    fn pred_est(&self, n: NodeId, c: usize) -> i64 {
        let bus_lat = i64::from(self.bus_lat);
        let ii = i64::from(self.ii);
        let mut est = 0i64;
        for d in self.ctx.dense.in_deps(n) {
            if d.src == n {
                continue; // self edges are covered by RecMII
            }
            let Some(&(pc, ps)) = self.placed.get(d.src) else {
                continue;
            };
            let lat = i64::from(d.latency(self.load_lat));
            let dist = i64::from(d.distance);
            let bound = if d.kind == DepKind::RegFlow && pc != c {
                match self.copy_map.get(d.src, c) {
                    Some(s0) => i64::from(s0) + bus_lat - ii * dist,
                    None => i64::from(ps) + lat + bus_lat - ii * dist,
                }
            } else {
                i64::from(ps) + lat - ii * dist
            };
            est = est.max(bound);
        }
        est
    }

    /// Earliest/latest start for `n` in cluster `c` given current
    /// placements (as i64: latest may be unbounded, earliest clamped ≥ 0).
    fn start_bounds(&self, n: NodeId, c: usize) -> Option<(i64, i64)> {
        let bus_lat = i64::from(self.bus_lat);
        let ii = i64::from(self.ii);
        let est = self.pred_est(n, c);
        let mut lst = i64::from(u32::MAX / 2);
        for d in self.ctx.dense.out_deps(n) {
            if d.dst == n {
                continue;
            }
            let Some(&(sc, ss)) = self.placed.get(d.dst) else {
                continue;
            };
            let lat = i64::from(d.latency(self.load_lat));
            let dist = i64::from(d.distance);
            let bound = if d.kind == DepKind::RegFlow && sc != c {
                i64::from(ss) - lat - bus_lat + ii * dist
            } else {
                i64::from(ss) - lat + ii * dist
            };
            lst = lst.min(bound);
        }
        if lst < est {
            None
        } else {
            Some((est, lst))
        }
    }

    /// Attempts to commit `n` at `(c, start)`: checks the functional unit
    /// and plans every required inter-cluster copy, reserving buses
    /// directly in the reservation table. On failure the journal rolls
    /// every touched cell back — nothing is cloned either way.
    ///
    /// A failed trial also tells the start-cycle scan where to resume.
    /// An incoming copy `p → n` of distance `d` is ready at `r = s_p +
    /// lat` and must launch by `deadline(start) = start − bus_lat + II·d`.
    /// Let `f` be the first bus-free launch in `[r, r + II]`. The copy
    /// fits exactly when `f ≤ deadline(start)`, i.e. when `start ≥ f +
    /// bus_lat − II·d`. The earlier incoming copies of this commit only
    /// see their windows widen as `start` grows, so they keep their slots
    /// and `f` stays the same for every later start: the scan may jump
    /// straight to `f + bus_lat − II·d`, or leave the cluster when there
    /// is no `f`. Every other failure resumes at `start + 1`.
    fn commit(&mut self, n: NodeId, c: usize, start: u32) -> Trial {
        // Both are `Copy` references outliving `self`: iterating the graph
        // below holds no borrow of `self`, so the reservation table and
        // side tables stay freely mutable inside the loops.
        let ddg = self.ctx.ddg;
        let dense = self.ctx.dense;
        let load_lat = self.load_lat;
        self.counters.attempts += 1;
        let next = Trial::RetryFrom(i64::from(start) + 1);
        let class = ddg.node(n).kind.fu_class();
        if let Some(class) = class {
            if !self.mrt.fu_free(c, class, start) {
                return next;
            }
        }

        // Plan copies for cross-cluster register flow, in both directions.
        // Copies move the producer's same-iteration value; consumers at
        // distance d read the copy's value d iterations later.
        let mark = self.mrt.checkpoint();
        self.planned.clear();
        let ii_i = i64::from(self.ii);
        let bus_lat_i = i64::from(self.bus_lat);
        for d in dense.in_deps(n) {
            if d.kind != DepKind::RegFlow || d.src == n {
                continue;
            }
            let Some(&(pc, ps)) = self.placed.get(d.src) else {
                continue;
            };
            if pc == c || self.copy_map.get(d.src, c).is_some() {
                continue;
            }
            if self
                .planned
                .iter()
                .any(|p| p.producer == d.src && p.to == c)
            {
                continue;
            }
            // The first free launch does not depend on `start`; the
            // deadline `start + reach` does (see the skip rule above).
            let ready = ps + d.latency(load_lat);
            let reach = ii_i * i64::from(d.distance) - bus_lat_i;
            let Some(slot) = self.mrt.find_bus_slot(ready, ready.saturating_add(self.ii)) else {
                self.mrt.rollback(mark);
                return Trial::Exhausted;
            };
            if i64::from(slot) > i64::from(start) + reach {
                self.mrt.rollback(mark);
                return Trial::RetryFrom(i64::from(slot) - reach);
            }
            self.mrt.reserve_bus(slot);
            self.planned.push(PlannedCopy {
                producer: d.src,
                from: pc,
                to: c,
                start: slot,
            });
        }
        let n_lat = self.out_latency(n);
        for d in dense.out_deps(n) {
            if d.kind != DepKind::RegFlow || d.dst == n {
                continue;
            }
            let Some(&(sc, ss)) = self.placed.get(d.dst) else {
                continue;
            };
            if sc == c || self.copy_map.get(n, sc).is_some() {
                continue;
            }
            if self.planned.iter().any(|p| p.producer == n && p.to == sc) {
                continue;
            }
            let ready = i64::from(start) + n_lat;
            let deadline = i64::from(ss) - bus_lat_i + ii_i * i64::from(d.distance);
            if deadline < ready || ready < 0 {
                self.mrt.rollback(mark);
                return next;
            }
            let Some(slot) = self
                .mrt
                .find_bus_slot(ready as u32, deadline.min(ready + ii_i) as u32)
            else {
                self.mrt.rollback(mark);
                return next;
            };
            self.mrt.reserve_bus(slot);
            self.planned.push(PlannedCopy {
                producer: n,
                from: c,
                to: sc,
                start: slot,
            });
        }

        // Stage-aware register pressure gate: the placement and its
        // planned copies must not push any cluster's stage-crossing
        // register demand past the budget. Checking here — instead of
        // letting the overflow fester until it shows up as inexplicable
        // bus-slot failures — is what makes pressure a first-class
        // placement constraint. The demand is maintained incrementally
        // (journaled live-range extensions); a rejected placement undoes
        // its extensions exactly. The placement entry inserted here is
        // the one that persists on acceptance — only the pressure-reject
        // path removes it.
        self.placed.insert(n, (c, start));
        let mut rlog = std::mem::take(&mut self.range_log);
        rlog.clear();
        self.apply_pressure(n, c, start, &mut rlog);
        let cap = u64::from(self.machine.regs_per_cluster as u32);
        let peak = self.stage_regs.iter().copied().max().unwrap_or(0);
        if peak > cap {
            self.undo_ranges(&mut rlog);
            self.range_log = rlog;
            self.placed.remove(n);
            self.mrt.rollback(mark);
            return next;
        }
        self.range_log = rlog;
        self.counters.max_pressure = self
            .counters
            .max_pressure
            .max(u32::try_from(peak).unwrap_or(u32::MAX));

        // All feasible: accept the journaled bus reservations.
        self.mrt.commit(mark);
        if let Some(class) = class {
            self.mrt.reserve_fu(c, class, start);
        }
        for p in self.planned.drain(..) {
            self.copy_map.insert(p.producer, p.to, p.start);
            self.copies.push(CopyOp {
                producer: p.producer,
                from_cluster: p.from,
                to_cluster: p.to,
                start: p.start,
            });
        }
        Trial::Placed
    }

    /// Cycles after issue at which `n`'s result register is written —
    /// the producer latency commit charges on outgoing register flow.
    fn out_latency(&self, n: NodeId) -> i64 {
        let ddg = self.ctx.ddg;
        i64::from(if ddg.node(n).is_load() {
            self.load_lat.get(n).copied().unwrap_or(1)
        } else {
            ddg.node(n).kind.base_latency()
        })
    }

    /// The model context for the from-scratch pressure mirror in
    /// `crate::pressure` (debug assertions and eviction recomputes).
    fn pressure_ctx(&self) -> PressureCtx<'_> {
        PressureCtx {
            ddg: self.ctx.ddg,
            dense: self.ctx.dense,
            load_lat: self.load_lat,
            bus_lat: self.bus_lat,
            ii: self.ii,
            n_clusters: self.machine.n_clusters,
        }
    }

    /// Copy lookup covering both accepted copies and the ones planned by
    /// the in-flight commit.
    fn copy_lookup(&self, p: NodeId, k: usize) -> Option<u32> {
        self.copy_map.get(p, k).or_else(|| {
            self.planned
                .iter()
                .find(|pc| pc.producer == p && pc.to == k)
                .map(|pc| pc.start)
        })
    }

    /// Writes one live-range cell, keeping the per-cluster demand sums
    /// in step and journaling the previous value into `log`.
    fn set_range(&mut self, node: NodeId, cluster: usize, new: (i64, i64), log: &mut RangeLog) {
        let idx = node.index() * self.machine.n_clusters + cluster;
        let old = self.ranges[idx];
        if old == new {
            return;
        }
        log.push((idx, old));
        let sums = &mut self.stage_regs[cluster];
        *sums -= range_cost(old.0, old.1, self.ii);
        *sums += range_cost(new.0, new.1, self.ii);
        self.ranges[idx] = new;
    }

    /// Extends (or creates) the live range of `node`'s value in
    /// `cluster` to cover `[def, last]`.
    fn extend_range(
        &mut self,
        node: NodeId,
        cluster: usize,
        def: i64,
        last: i64,
        log: &mut RangeLog,
    ) {
        let idx = node.index() * self.machine.n_clusters + cluster;
        let (d0, l0) = self.ranges[idx];
        let new = if (d0, l0) == NO_RANGE {
            (def, last.max(def))
        } else {
            (d0.min(def), l0.max(last))
        };
        self.set_range(node, cluster, new, log);
    }

    /// Applies the live-range updates of committing `n` at `(c, start)`
    /// (planned copies included) to the incremental pressure state.
    fn apply_pressure(&mut self, n: NodeId, c: usize, start: u32, log: &mut RangeLog) {
        let dense = self.ctx.dense;
        let ii = i64::from(self.ii);
        let bus_lat = i64::from(self.bus_lat);
        // n's own value: home range plus ranges in every cluster its
        // placed consumers read it from.
        if dense.out_deps(n).iter().any(|d| d.kind == DepKind::RegFlow) {
            let def = i64::from(start) + self.out_latency(n);
            self.extend_range(n, c, def, def, log);
            for d in dense.out_deps(n) {
                if d.kind != DepKind::RegFlow {
                    continue;
                }
                let Some(&(qc, qs)) = self.placed.get(d.dst) else {
                    continue;
                };
                let use_at = i64::from(qs) + ii * i64::from(d.distance);
                if qc == c {
                    self.extend_range(n, c, def, use_at, log);
                } else if let Some(s0) = self.copy_lookup(n, qc) {
                    self.extend_range(n, c, def, i64::from(s0), log);
                    self.extend_range(n, qc, i64::from(s0) + bus_lat, use_at, log);
                }
            }
        }
        // Values n reads: extend their ranges to this read (and, for a
        // copy planned by this commit, the home range to the launch).
        for d in dense.in_deps(n) {
            if d.kind != DepKind::RegFlow || d.src == n {
                continue;
            }
            let p = d.src;
            let Some(&(pc, ps)) = self.placed.get(p) else {
                continue;
            };
            let use_at = i64::from(start) + ii * i64::from(d.distance);
            let home_def = i64::from(ps) + self.out_latency(p);
            if pc == c {
                self.extend_range(p, c, home_def, use_at, log);
            } else if let Some(s0) = self.copy_lookup(p, c) {
                self.extend_range(p, pc, home_def, i64::from(s0), log);
                self.extend_range(p, c, i64::from(s0) + bus_lat, use_at, log);
            }
        }
    }

    /// Recomputes the live range of `p`'s value in `cluster` from
    /// scratch (after an eviction shrank or removed contributions),
    /// journaling the overwritten cell.
    fn recompute_value_range(&mut self, p: NodeId, cluster: usize, log: &mut RangeLog) {
        let ctx = self.pressure_ctx();
        let lookup = |q: NodeId, k: usize| self.copy_map.get(q, k);
        let new = crate::pressure::value_range(&ctx, &self.placed, &lookup, p, cluster)
            .unwrap_or(NO_RANGE);
        self.set_range(p, cluster, new, log);
    }

    /// Undoes journaled live-range writes, newest first.
    fn undo_ranges(&mut self, log: &mut RangeLog) {
        while let Some((idx, old)) = log.pop() {
            let cluster = idx % self.machine.n_clusters;
            let cur = self.ranges[idx];
            let sums = &mut self.stage_regs[cluster];
            *sums -= range_cost(cur.0, cur.1, self.ii);
            *sums += range_cost(old.0, old.1, self.ii);
            self.ranges[idx] = old;
        }
    }

    /// Forced placement of `n` (the ejection path): pick a start bounded
    /// by placed predecessors only, evict whatever blocks it — the
    /// same-slot functional-unit occupant and every placed successor
    /// whose separation the start would violate — and commit. Returns
    /// the evicted nodes for re-enqueueing, or `None` when no cluster
    /// admits `n` even with evictions (e.g. the register buses or the
    /// pressure budget stay exhausted).
    fn force_place(&mut self, n: NodeId, floor: &mut NodeMap<u32>) -> Option<Vec<NodeId>> {
        for c in self.candidate_clusters(n) {
            // One forced shot per cluster, at the earliest
            // predecessor-legal slot (Rau's rule): the monotone floor —
            // "previous start + 1" whenever `n` is forced again at this
            // II — provides the progress a slot scan would, at a
            // fraction of the cost on hopeless IIs. A wider scan here
            // multiplies into every failed II of every latency trial.
            let est = self.pred_est(n, c).max(0);
            let base = est.max(i64::from(floor.get(n).copied().unwrap_or(0)));
            let Ok(start) = u32::try_from(base) else {
                continue;
            };
            let mark = self.mrt.checkpoint();
            let mut rec = EvictionRecord::default();
            self.evict_conflicts(n, c, start, &mut rec);
            if self.commit(n, c, start) == Trial::Placed {
                if let Some(&g) = self.ctx.constraints.colocate.get(&n) {
                    self.group_cluster.entry(g).or_insert(c);
                }
                floor.insert(n, start + 1);
                return Some(rec.evicted().collect());
            }
            self.unevict(rec, mark);
        }
        None
    }

    /// Evicts everything that blocks placing `n` at `(c, start)`: enough
    /// same-class ops in the target modulo slot to free a unit, and
    /// every placed successor whose dependence the start would violate.
    /// Predecessor constraints never need evictions — the forced start
    /// is at or after `pred_est`.
    fn evict_conflicts(&mut self, n: NodeId, c: usize, start: u32, rec: &mut EvictionRecord) {
        if let Some(class) = self.ctx.ddg.node(n).kind.fu_class() {
            while !self.mrt.fu_free(c, class, start) {
                let slot = start % self.ii;
                let victim = self
                    .placed
                    .iter()
                    .find(|&(m, &(mc, ms))| {
                        mc == c
                            && ms % self.ii == slot
                            && self.ctx.ddg.node(m).kind.fu_class() == Some(class)
                    })
                    .map(|(m, _)| m);
                match victim {
                    Some(m) => self.evict(m, rec),
                    // Unreachable (every FU reservation belongs to a
                    // placed op), but never loop on it.
                    None => break,
                }
            }
        }
        let ii = i64::from(self.ii);
        let bus_lat = i64::from(self.bus_lat);
        let n_lat = self.out_latency(n);
        let mut victims: Vec<NodeId> = Vec::new();
        for d in self.ctx.dense.out_deps(n) {
            if d.dst == n {
                continue;
            }
            let Some(&(sc, ss)) = self.placed.get(d.dst) else {
                continue;
            };
            let dist = i64::from(d.distance);
            let violated = if d.kind == DepKind::RegFlow && sc != c {
                // Mirror of commit's copy deadline: the transfer must
                // fit between the value being ready and the consumer
                // reading it.
                i64::from(ss) - bus_lat + ii * dist < i64::from(start) + n_lat
            } else {
                let lat = i64::from(d.latency(self.load_lat));
                i64::from(ss) + ii * dist < i64::from(start) + lat
            };
            if violated && !victims.contains(&d.dst) {
                victims.push(d.dst);
            }
        }
        for m in victims {
            if self.placed.contains_key(m) {
                self.evict(m, rec);
            }
        }
    }

    /// Removes `m` from the schedule: releases its functional unit,
    /// drops the copies that moved its value, drops copies *to* it that
    /// no other consumer in its cluster still needs, and clears its
    /// colocation-group binding when it was the group's last placed
    /// member (so a re-placed chain may pick a fresh cluster). Every
    /// release is journaled; `unevict` plus a rollback restores the
    /// exact prior state.
    fn evict(&mut self, m: NodeId, rec: &mut EvictionRecord) {
        let (mc, ms) = self.placed.remove(m).expect("evicting a placed op");
        if let Some(class) = self.ctx.ddg.node(m).kind.fu_class() {
            self.mrt.release_fu(mc, class, ms);
        }
        // Copies of m's value (m is the producer).
        let mut removed: Vec<CopyOp> = Vec::new();
        self.copies.retain(|cp| {
            if cp.producer == m {
                removed.push(*cp);
                false
            } else {
                true
            }
        });
        // Copies into m's cluster that only m consumed.
        for d in self.ctx.dense.in_deps(m) {
            if d.kind != DepKind::RegFlow || d.src == m {
                continue;
            }
            let p = d.src;
            let Some(&(pc, _)) = self.placed.get(p) else {
                continue;
            };
            if pc == mc || self.copy_map.get(p, mc).is_none() {
                continue;
            }
            let needed = self.ctx.dense.out_deps(p).iter().any(|e| {
                e.kind == DepKind::RegFlow
                    && e.dst != m
                    && self.placed.get(e.dst).is_some_and(|&(qc, _)| qc == mc)
            });
            if !needed {
                if let Some(pos) = self
                    .copies
                    .iter()
                    .position(|cp| cp.producer == p && cp.to_cluster == mc)
                {
                    removed.push(self.copies.remove(pos));
                }
            }
        }
        for cp in &removed {
            self.mrt.release_bus(cp.start);
            self.copy_map.remove(cp.producer, cp.to_cluster);
        }
        // Live-range bookkeeping: m's value disappears everywhere, the
        // values m read shrink by this use, and producers whose copy was
        // dropped lose the launch from their home range.
        for k in 0..self.machine.n_clusters {
            self.set_range(m, k, NO_RANGE, &mut rec.ranges);
        }
        let dense = self.ctx.dense;
        for &d in dense.in_deps(m) {
            if d.kind != DepKind::RegFlow || d.src == m {
                continue;
            }
            if self.placed.contains_key(d.src) {
                self.recompute_value_range(d.src, mc, &mut rec.ranges);
            }
        }
        for cp in &removed {
            if cp.producer != m && self.placed.contains_key(cp.producer) {
                self.recompute_value_range(cp.producer, cp.from_cluster, &mut rec.ranges);
            }
        }
        if let Some(&g) = self.ctx.constraints.colocate.get(&m) {
            if !self.ctx.constraints.group_target.contains_key(&g) {
                let still_placed = self
                    .ctx
                    .constraints
                    .colocate
                    .iter()
                    .any(|(&q, &qg)| qg == g && q != m && self.placed.contains_key(q));
                if !still_placed {
                    if let Some(cl) = self.group_cluster.remove(&g) {
                        rec.groups.push((g, cl));
                    }
                }
            }
        }
        rec.copies.append(&mut removed);
        rec.nodes.push((m, mc, ms));
    }

    /// Restores everything a rejected ejection chain evicted: the
    /// reservation table rolls back through its journal (releases
    /// included), the side tables restore from the record.
    fn unevict(&mut self, mut rec: EvictionRecord, mark: crate::mrt::Checkpoint) {
        self.mrt.rollback(mark);
        self.undo_ranges(&mut rec.ranges);
        for cp in rec.copies {
            self.copy_map.insert(cp.producer, cp.to_cluster, cp.start);
            self.copies.push(cp);
        }
        for (g, cl) in rec.groups {
            self.group_cluster.insert(g, cl);
        }
        for (m, mc, ms) in rec.nodes {
            self.placed.insert(m, (mc, ms));
        }
    }

    /// Finalizes a fully placed attempt.
    fn into_placement(self) -> Option<Placement> {
        #[cfg(debug_assertions)]
        {
            // The incremental pressure accounting must agree with the
            // from-scratch model on every completed pass.
            let ctx = self.pressure_ctx();
            let lookup = |q: NodeId, k: usize| self.copy_map.get(q, k);
            for c in 0..self.machine.n_clusters {
                debug_assert_eq!(
                    crate::pressure::cluster_pressure(&ctx, &self.placed, &lookup, c),
                    self.stage_regs[c],
                    "incremental pressure accounting diverged in cluster {c}"
                );
            }
        }
        let span = self
            .placed
            .values()
            .map(|&(_, s)| s + 1)
            .chain(self.copies.iter().map(|c| c.start + self.bus_lat))
            .max()
            .unwrap_or(1)
            .max(self.ii);
        Some(Placement {
            placed: self.placed,
            copies: self.copies,
            span,
        })
    }
}

/// Internal placement result.
#[derive(Debug)]
struct Placement {
    placed: NodeMap<(usize, u32)>,
    copies: Vec<CopyOp>,
    span: u32,
}

/// Topological order over zero-distance edges, prioritizing nodes with the
/// longest latency path to a sink (critical path first).
///
/// The ready set is a max-heap keyed by `(height, Reverse(node))` — the
/// same node the previous sort-then-pop implementation selected (highest
/// height, lowest id on ties), at O(log n) per step instead of a re-sort.
fn priority_order(ddg: &Ddg, dense: &DenseDeps, load_lat: &NodeMap<u32>) -> Vec<NodeId> {
    let n = ddg.node_count();
    // Heights by reverse topological DP over zero-distance edges.
    let mut indeg = vec![0u32; n];
    let mut outdeg = vec![0u32; n];
    for i in 0..n {
        for d in dense.out_deps(NodeId(i as u32)) {
            if d.distance == 0 && d.src != d.dst {
                indeg[d.dst.index()] += 1;
                outdeg[d.src.index()] += 1;
            }
        }
    }
    // Reverse topo: heights.
    let mut height = vec![0i64; n];
    let mut stack: Vec<usize> = (0..n).filter(|&i| outdeg[i] == 0).collect();
    let mut rem_out = outdeg.clone();
    while let Some(i) = stack.pop() {
        for d in dense.in_deps(NodeId(i as u32)) {
            if d.distance != 0 || d.src == d.dst {
                continue;
            }
            let j = d.src.index();
            let h = height[i] + i64::from(d.latency(load_lat));
            height[j] = height[j].max(h);
            rem_out[j] -= 1;
            if rem_out[j] == 0 {
                stack.push(j);
            }
        }
    }
    // Forward topo with max-height priority.
    let mut ready: std::collections::BinaryHeap<(i64, std::cmp::Reverse<usize>)> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(|i| (height[i], std::cmp::Reverse(i)))
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut rem_in = indeg;
    while let Some((_, std::cmp::Reverse(i))) = ready.pop() {
        order.push(NodeId(i as u32));
        for d in dense.out_deps(NodeId(i as u32)) {
            if d.distance != 0 || d.src == d.dst {
                continue;
            }
            let j = d.dst.index();
            rem_in[j] -= 1;
            if rem_in[j] == 0 {
                ready.push((height[j], std::cmp::Reverse(j)));
            }
        }
    }
    debug_assert_eq!(
        order.len(),
        n,
        "graph must be acyclic over zero-distance edges"
    );
    order
}

/// The MinComs post-pass: choose the virtual→physical cluster permutation
/// that maximizes profiled local accesses (paper Section 2.2).
///
/// The rule: an optimal mapping; ties go to the first in `permute` order,
/// at every cluster count. `permute` (a test oracle) is the swap
/// recursion that enumerates permutations starting from the identity;
/// [`best_mapping`] finds that permutation in polynomial time.
fn best_physical_mapping(
    ddg: &Ddg,
    schedule: &Schedule,
    prefs: &PrefMap,
    n_clusters: usize,
) -> Vec<usize> {
    best_mapping(&local_gain(ddg, schedule, prefs, n_clusters))
}

/// `gain[v][p]` = profiled accesses that become local if virtual cluster
/// `v` is mapped to physical cluster `p`.
fn local_gain(ddg: &Ddg, schedule: &Schedule, prefs: &PrefMap, n_clusters: usize) -> Vec<Vec<u64>> {
    let mut gain = vec![vec![0u64; n_clusters]; n_clusters];
    for n in ddg.mem_nodes() {
        let Some(op) = schedule.ops.get(&n) else {
            continue;
        };
        let Some(info) = ddg.node(n).mem_id().and_then(|m| prefs.get(&m)) else {
            continue;
        };
        for (g, &count) in gain[op.cluster].iter_mut().zip(info.counts()) {
            *g += count;
        }
    }
    gain
}

/// The first permutation in `permute` order that maximizes
/// `Σ gain[v][perm[v]]` (`perm[v] = p`).
///
/// One Hungarian solve gives the optimum and optimal duals. The walk then
/// replays `permute`'s depth-first order, fixing virtual cluster `k` to
/// the first candidate column through which an optimal completion still
/// exists. By complementary slackness every edge of every optimal
/// assignment is tight under the duals, so only tight edges are tried;
/// each is confirmed by a Hungarian solve over the remaining rows. The
/// last tight candidate needs no solve: one candidate must succeed.
fn best_mapping(gain: &[Vec<u64>]) -> Vec<usize> {
    let n = gain.len();
    let full = hungarian(n, |r, c| gain[r][c]);
    // `perm` is `permute`'s working slice: at depth `k` the candidates
    // for row `k` are `perm[k..]`, tried in slice order.
    let mut perm: Vec<usize> = (0..n).collect();
    let mut fixed = 0u64;
    for k in 0..n {
        let tight: Vec<usize> = (k..n)
            .filter(|&i| full.row_dual[k] + full.col_dual[perm[i]] == gain[k][perm[i]] as i64)
            .collect();
        let (&last, rest) = tight
            .split_last()
            .expect("an optimal completion passes through a tight edge");
        let pick = rest
            .iter()
            .copied()
            .find(|&i| {
                perm.swap(k, i);
                let tail = hungarian(n - k - 1, |r, c| gain[k + 1 + r][perm[k + 1 + c]]);
                perm.swap(k, i);
                fixed + gain[k][perm[i]] + tail.value == full.value
            })
            .unwrap_or(last);
        perm.swap(k, pick);
        fixed += gain[k][perm[k]];
    }
    perm
}

/// An optimal maximum-weight assignment's value plus optimal duals:
/// `row_dual[r] + col_dual[c] >= gain(r, c)` everywhere, with equality
/// on every edge of every optimal assignment.
struct Assignment {
    value: u64,
    row_dual: Vec<i64>,
    col_dual: Vec<i64>,
}

/// The Hungarian algorithm with potentials, O(n³), over the `n × n`
/// matrix `gain(row, col)`.
fn hungarian(n: usize, gain: impl Fn(usize, usize) -> u64) -> Assignment {
    let inf = i64::MAX / 4;
    // Minimize the negated gains; u/v are row/column potentials, p[j] is
    // the row matched to column j (0 = unmatched), way[j] the previous
    // column on the augmenting path. Indices are 1-based so slot 0 can
    // serve as the virtual start column.
    let mut u = vec![0i64; n + 1];
    let mut v = vec![0i64; n + 1];
    let mut p = vec![0usize; n + 1];
    let mut way = vec![0usize; n + 1];
    for i in 1..=n {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; n + 1];
        let mut used = vec![false; n + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=n {
                if used[j] {
                    continue;
                }
                let cur = -(gain(i0 - 1, j - 1) as i64) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            for j in 0..=n {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    Assignment {
        value: (1..=n).map(|j| gain(p[j] - 1, j - 1)).sum(),
        row_dual: u[1..].iter().map(|x| -x).collect(),
        col_dual: v[1..].iter().map(|x| -x).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distvliw_coherence::{find_chains, transform};
    use distvliw_ir::{DdgBuilder, OpKind, PrefInfo, Width};

    fn machine() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    /// Asserts every dependence of `ddg` holds in `s` (copy latency
    /// included for cross-cluster register flow).
    fn assert_valid(ddg: &Ddg, s: &Schedule, m: &MachineConfig) {
        for (_, d) in ddg.deps() {
            if d.src == d.dst {
                continue;
            }
            let a = s.op(d.src);
            let b = s.op(d.dst);
            let lat = match d.kind {
                DepKind::RegFlow => {
                    let base = if ddg.node(d.src).is_load() {
                        a.assumed_class.map_or(1, |c| m.latency_of(c))
                    } else {
                        ddg.node(d.src).kind.base_latency()
                    };
                    if a.cluster != b.cluster {
                        base + m.reg_buses.latency
                    } else {
                        base
                    }
                }
                k => k.min_separation(),
            };
            assert!(
                i64::from(b.start) + i64::from(s.ii) * i64::from(d.distance)
                    >= i64::from(a.start) + i64::from(lat),
                "violated {d:?}: {a:?} -> {b:?} at II {}",
                s.ii
            );
        }
        // FU capacity: at most one op per class per cluster per II slot.
        let mut usage: BTreeMap<(usize, usize, u32), u32> = BTreeMap::new();
        for op in s.ops.values() {
            let Some(class) = ddg.node(op.node).kind.fu_class() else {
                continue;
            };
            *usage
                .entry((op.cluster, class.index(), op.start % s.ii))
                .or_default() += 1;
        }
        for ((c, class, slot), count) in usage {
            assert!(
                count <= 1,
                "cluster {c} class {class} slot {slot} oversubscribed"
            );
        }
    }

    fn simple_graph() -> Ddg {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let a = b.op(OpKind::IntAlu, &[l]);
        let _s = b.store(Width::W4, &[a]);
        b.finish()
    }

    #[test]
    fn schedules_simple_chain() {
        let g = simple_graph();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(s.ii, 1);
        assert_eq!(s.ops.len(), 3);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn latency_relaxation_spreads_consumers() {
        // With relaxation, an isolated load-use pair gets the largest
        // latency class because nothing else constrains the span... unless
        // span would grow; here span grows, so the class stays small but
        // the schedule remains valid. Just check both modes are valid.
        let g = simple_graph();
        for relax in [false, true] {
            let s = ModuloScheduler::new(&machine())
                .with_latency_relaxation(relax)
                .schedule(
                    &g,
                    &SchedConstraints::none(),
                    &PrefMap::new(),
                    Heuristic::MinComs,
                )
                .unwrap();
            assert_valid(&g, &s, &machine());
        }
    }

    #[test]
    fn mem_pressure_raises_ii() {
        let mut b = DdgBuilder::new();
        for _ in 0..9 {
            b.load(Width::W4);
        }
        let g = b.finish();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert!(s.ii >= 3, "9 loads / 4 mem FUs needs II >= 3, got {}", s.ii);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn mdc_chain_shares_cluster() {
        let mut b = DdgBuilder::new();
        let l1 = b.load(Width::W4);
        let l2 = b.load(Width::W4);
        let st = b.store(Width::W4, &[l1, l2]);
        b.dep(l1, st, DepKind::MemAnti, 0);
        b.dep(l2, st, DepKind::MemAnti, 0);
        let g = b.finish();
        let chains = find_chains(&g);
        let constraints = SchedConstraints::for_mdc(&chains, &g, None, 4);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        let c = s.op(l1).cluster;
        assert_eq!(s.op(l2).cluster, c);
        assert_eq!(s.op(st).cluster, c);
        // 3 memory ops serialized on one memory FU → II at least 3.
        assert!(s.ii >= 3);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn prefclus_sends_memory_to_preferred_cluster() {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let _a = b.op(OpKind::IntAlu, &[l]);
        let g = b.finish();
        let mut prefs = PrefMap::new();
        prefs.insert(
            g.node(l).mem_id().unwrap(),
            PrefInfo::from_counts(vec![0, 0, 90, 10]),
        );
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &SchedConstraints::none(), &prefs, Heuristic::PrefClus)
            .unwrap();
        assert_eq!(s.op(l).cluster, 2);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn mdc_prefclus_uses_chain_average() {
        let mut b = DdgBuilder::new();
        let l1 = b.load(Width::W4);
        let l2 = b.load(Width::W4);
        b.dep(l1, l2, DepKind::MemAnti, 0); // artificial chain of two loads
        let g = b.finish();
        let mut prefs = PrefMap::new();
        prefs.insert(
            g.node(l1).mem_id().unwrap(),
            PrefInfo::from_counts(vec![60, 0, 40, 0]),
        );
        prefs.insert(
            g.node(l2).mem_id().unwrap(),
            PrefInfo::from_counts(vec![0, 0, 70, 30]),
        );
        let chains = find_chains(&g);
        let constraints = SchedConstraints::for_mdc(&chains, &g, Some(&prefs), 4);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &prefs, Heuristic::PrefClus)
            .unwrap();
        // Merged counts {60, 0, 110, 30} → cluster 2 for both.
        assert_eq!(s.op(l1).cluster, 2);
        assert_eq!(s.op(l2).cluster, 2);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn ddgt_instances_cover_all_clusters() {
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let a = b.op(OpKind::IntAlu, &[l]);
        let st = b.store_to(g_mem(0), Width::W4, &[a]);
        b.dep(st, l, DepKind::MemFlow, 1);
        let mut g = b.finish();
        let report = transform(&mut g, 4);
        let constraints = SchedConstraints::for_ddgt(&report);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::PrefClus)
            .unwrap();
        let group = &report.replica_groups[0];
        let mut clusters: Vec<usize> = group.instances.iter().map(|&i| s.op(i).cluster).collect();
        clusters.sort_unstable();
        assert_eq!(clusters, vec![0, 1, 2, 3]);
        // The producer value is broadcast: at least 3 copies.
        assert!(s.comm_ops() >= 3, "copies: {}", s.comm_ops());
        assert_valid(&g, &s, &machine());
    }

    fn g_mem(id: u32) -> distvliw_ir::MemId {
        distvliw_ir::MemId(id)
    }

    #[test]
    fn cross_cluster_flow_materializes_copies() {
        // Two chained memory ops pinned to different clusters.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let s = b.store(Width::W4, &[l]);
        let g = b.finish();
        let mut constraints = SchedConstraints::none();
        constraints.pinned.insert(l, 0);
        constraints.pinned.insert(s, 3);
        let sched = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::PrefClus)
            .unwrap();
        assert_eq!(sched.op(l).cluster, 0);
        assert_eq!(sched.op(s).cluster, 3);
        assert_eq!(sched.comm_ops(), 1);
        let copy = sched.copies[0];
        assert_eq!((copy.from_cluster, copy.to_cluster), (0, 3));
        // Store issues only after the copy arrives.
        assert!(sched.op(s).start >= copy.start + machine().reg_buses.latency);
        assert_valid(&g, &sched, &machine());
    }

    #[test]
    fn copies_are_deduplicated_per_destination_cluster() {
        // One producer, two consumers in the same remote cluster → 1 copy.
        let mut b = DdgBuilder::new();
        let p = b.op(OpKind::IntAlu, &[]);
        let c1 = b.op(OpKind::IntAlu, &[p]);
        let c2 = b.op(OpKind::IntAlu, &[p]);
        let g = b.finish();
        let mut constraints = SchedConstraints::none();
        constraints.pinned.insert(p, 0);
        constraints.pinned.insert(c1, 1);
        constraints.pinned.insert(c2, 1);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::PrefClus)
            .unwrap();
        assert_eq!(s.comm_ops(), 1);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn recurrence_limits_ii() {
        let mut b = DdgBuilder::new();
        let acc = b.op(OpKind::FpMul, &[]); // 4-cycle producer
        b.recurrence(acc, acc, 1);
        let g = b.finish();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(s.ii, 4);
    }

    #[test]
    fn empty_graph_schedules_trivially() {
        let g = Ddg::new();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(s.ops.len(), 0);
        assert_eq!(s.ii, 1);
    }

    #[test]
    fn empty_graph_honors_constraint_minimum_ii() {
        // Regression: the empty-graph early return used to hardcode
        // ii = 1 without consulting the constraints.
        let g = Ddg::new();
        let constraints = SchedConstraints::none().with_min_ii(7);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert_eq!(s.ii, 7);
        assert!(s.span >= s.ii);
        // And a non-empty graph may not undercut it either.
        let g = simple_graph();
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert!(s.ii >= 7);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn register_pressure_cap_is_enforced_during_placement() {
        // A producer feeding a consumer across a long recurrence-forced
        // II stretch: with a generous register file the value simply
        // stays live across stages; with a 1-register cluster budget
        // the stage-crossing range is rejected during placement and the
        // schedule must adapt (or the II grow) — never silently
        // overflow.
        let mut b = DdgBuilder::new();
        // A latency-4 self-recurrence at distance 1 forces II ≥ 4.
        let acc = b.op(OpKind::FpMul, &[]);
        b.recurrence(acc, acc, 1);
        // A value consumed far later: producer → long dependent chain.
        let p = b.op(OpKind::IntAlu, &[]);
        let mut chain = p;
        for _ in 0..12 {
            chain = b.op(OpKind::IntMul, &[chain]);
        }
        let _sink = b.op(OpKind::IntAlu, &[p, chain]);
        let g = b.finish();

        let roomy = machine();
        let s = ModuloScheduler::new(&roomy)
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_valid(&g, &s, &roomy);
        let (_, roomy_stats) = ModuloScheduler::new(&roomy)
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert!(
            roomy_stats.max_reg_pressure >= 1,
            "the long-lived value must register as stage-crossing pressure"
        );

        let tight = machine().with_regs_per_cluster(1);
        let (ts, tight_stats) = ModuloScheduler::new(&tight)
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_valid(&g, &ts, &tight);
        assert!(
            tight_stats.max_reg_pressure <= 1,
            "no accepted placement may exceed the register budget: {}",
            tight_stats.max_reg_pressure
        );
    }

    #[test]
    fn disabling_ejection_matches_on_easy_graphs() {
        // Where the plain pass succeeds at the first II, the ejection
        // scheduler must be byte-identical to the restart-only search.
        let g = simple_graph();
        let on = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        let off = ModuloScheduler::new(&machine())
            .with_ejection(false)
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(on, off);
    }

    #[test]
    fn stats_report_the_search_effort() {
        let g = simple_graph();
        let (s, stats) = ModuloScheduler::new(&machine())
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(stats.ii, s.ii);
        assert_eq!(stats.mii, 1);
        assert!(stats.iis_tried >= 1);
        assert!(stats.placement_attempts >= s.ops.len() as u64);
        assert_eq!(stats.ejections, 0);
        assert_eq!(stats.seeded_at, None);
    }

    #[test]
    fn seeding_skips_the_low_ii_scan() {
        // An accurate seed must reproduce the cold result exactly, and
        // a seed at or below the MII is ignored (the bound stays
        // sound).
        let mut b = DdgBuilder::new();
        for _ in 0..9 {
            b.load(Width::W4);
        }
        let g = b.finish();
        let cold = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        let (warm, stats) = ModuloScheduler::new(&machine())
            .with_ii_seed(Some(cold.ii))
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(warm, cold);
        assert_eq!(stats.seeded_at, None, "seed − slack is clamped to the MII");
        let (low, stats) = ModuloScheduler::new(&machine())
            .with_ii_seed(Some(1))
            .schedule_with_stats(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert_eq!(low, cold);
        assert_eq!(stats.seeded_at, None);
    }

    #[test]
    fn mincoms_postpass_maximizes_local_accesses() {
        // A single memory op whose profile prefers cluster 3; MinComs
        // places it anywhere, the post-pass must relabel its cluster to 3.
        let mut b = DdgBuilder::new();
        let l = b.load(Width::W4);
        let _ = b.op(OpKind::IntAlu, &[l]);
        let g = b.finish();
        let mut prefs = PrefMap::new();
        prefs.insert(
            g.node(l).mem_id().unwrap(),
            PrefInfo::from_counts(vec![0, 0, 0, 100]),
        );
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &SchedConstraints::none(), &prefs, Heuristic::MinComs)
            .unwrap();
        assert_eq!(s.op(l).cluster, 3);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn sync_edges_are_honored() {
        let mut b = DdgBuilder::new();
        let cons = b.op(OpKind::IntAlu, &[]);
        let st = b.store(Width::W4, &[]);
        b.dep(cons, st, DepKind::Sync, 0);
        let g = b.finish();
        let s = ModuloScheduler::new(&machine())
            .schedule(
                &g,
                &SchedConstraints::none(),
                &PrefMap::new(),
                Heuristic::MinComs,
            )
            .unwrap();
        assert!(s.op(st).start >= s.op(cons).start);
        assert_valid(&g, &s, &machine());
    }

    #[test]
    fn figure3_after_ddgt_schedules_on_four_clusters() {
        // End-to-end: the paper's Figure 3 graph through DDGT, then
        // scheduled; all dependences and pins must hold.
        let mut b = DdgBuilder::new();
        let n1 = b.load(Width::W4);
        let n2 = b.load(Width::W4);
        let n3 = b.store(Width::W4, &[]);
        let n4 = b.store(Width::W4, &[n1]);
        let _n5 = b.op(OpKind::IntAlu, &[n2]);
        b.dep(n1, n3, DepKind::MemAnti, 0);
        b.dep(n1, n4, DepKind::MemAnti, 0);
        b.dep(n2, n3, DepKind::MemAnti, 0);
        b.dep(n2, n4, DepKind::MemAnti, 0);
        b.dep(n3, n4, DepKind::MemOut, 0);
        b.dep(n4, n3, DepKind::MemOut, 1);
        b.dep(n3, n1, DepKind::MemFlow, 1);
        b.dep(n4, n2, DepKind::MemFlow, 1);
        let mut g = b.finish();
        let report = transform(&mut g, 4);
        let constraints = SchedConstraints::for_ddgt(&report);
        let s = ModuloScheduler::new(&machine())
            .schedule(&g, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert_valid(&g, &s, &machine());
        // Loads stayed free (not replicated), stores cover all clusters.
        for group in &report.replica_groups {
            let mut cl: Vec<usize> = group.instances.iter().map(|&i| s.op(i).cluster).collect();
            cl.sort_unstable();
            assert_eq!(cl, vec![0, 1, 2, 3]);
        }
    }

    /// Swap recursion over `slice[k..]`, starting from the identity: the
    /// visiting order whose first optimum the MinComs mapping returns.
    fn permute(slice: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
        if k == slice.len() {
            visit(slice);
            return;
        }
        for i in k..slice.len() {
            slice.swap(k, i);
            permute(slice, k + 1, visit);
            slice.swap(k, i);
        }
    }

    /// The oracle: enumerate every permutation in `permute` order and keep
    /// the first with the highest score (the identity when all score 0).
    fn brute_force_mapping(gain: &[Vec<u64>]) -> Vec<usize> {
        let n = gain.len();
        let mut best: Vec<usize> = (0..n).collect();
        let mut best_score = 0u64;
        let mut ids: Vec<usize> = (0..n).collect();
        permute(&mut ids, 0, &mut |p| {
            let score: u64 = (0..n).map(|v| gain[v][p[v]]).sum();
            if score > best_score {
                best_score = score;
                best = p.to_vec();
            }
        });
        best
    }

    /// Deterministic pseudo-random gain matrices for the assignment
    /// tests (SplitMix64).
    fn gain_matrix(n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        (0..n)
            .map(|_| (0..n).map(|_| next() % 1000).collect())
            .collect()
    }

    #[test]
    fn hungarian_assignment_matches_brute_force_optimum() {
        for n in 2..=8 {
            for seed in 0..4 {
                let dense = gain_matrix(n, seed * 31 + n as u64);
                // Three in four entries zero: many tied optima.
                let sparse: Vec<Vec<u64>> = dense
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|&g| if g % 4 == 0 { g } else { 0 })
                            .collect()
                    })
                    .collect();
                let zero = vec![vec![0u64; n]; n];
                // Row v repeats row v / 2: swapping twin rows ties.
                let duplicate: Vec<Vec<u64>> = (0..n).map(|v| dense[v / 2].clone()).collect();
                for (kind, gain) in [
                    ("dense", &dense),
                    ("sparse", &sparse),
                    ("zero", &zero),
                    ("duplicate", &duplicate),
                ] {
                    let perm = best_mapping(gain);
                    assert_eq!(perm, brute_force_mapping(gain), "n={n} seed={seed} {kind}");
                }
            }
        }
    }

    #[test]
    fn large_machine_assignment_is_fast_and_valid() {
        // 16! permutations are unenumerable; the walk must solve a
        // 16-cluster matrix instantly and optimally (checked against the
        // trivial diagonal-dominant construction).
        let n = 16;
        let mut gain = gain_matrix(n, 7);
        for (v, row) in gain.iter_mut().enumerate() {
            row[(v + 3) % n] += 1_000_000; // planted optimum: shift by 3
        }
        let perm = best_mapping(&gain);
        for (v, &p) in perm.iter().enumerate() {
            assert_eq!(p, (v + 3) % n, "virtual cluster {v}");
        }
    }
}
