//! Property tests for the modulo scheduler: every produced schedule must
//! respect dependences (with copy latency for cross-cluster flow),
//! functional-unit capacity, and the heuristics' placement contracts.

use std::collections::BTreeMap;

use distvliw_arch::{BusConfig, MachineConfig};
use distvliw_coherence::SchedConstraints;
use distvliw_ir::{Ddg, DdgBuilder, DepKind, NodeId, NodeMap, OpKind, PrefInfo, PrefMap, Width};
use distvliw_sched::{Heuristic, ModuloScheduler, Mrt, Schedule};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = Ddg> {
    (1usize..12, proptest::collection::vec(any::<u8>(), 16)).prop_map(|(n, entropy)| {
        let mut b = DdgBuilder::new();
        let mut produced: Vec<NodeId> = Vec::new();
        for i in 0..n {
            let pick = entropy[i % entropy.len()];
            let node = match pick % 5 {
                0 => b.load(Width::W4),
                1 if !produced.is_empty() => {
                    let src = produced[usize::from(pick) % produced.len()];
                    b.store(Width::W4, &[src])
                }
                2 => b.op(OpKind::FpAlu, &[]),
                _ => {
                    let srcs: Vec<NodeId> = produced
                        .get(usize::from(pick) % produced.len().max(1))
                        .copied()
                        .into_iter()
                        .collect();
                    b.op(OpKind::IntAlu, &srcs)
                }
            };
            if b.graph().node(node).dest.is_some() {
                produced.push(node);
            }
        }
        // A loop-carried recurrence sometimes.
        if entropy[0] % 2 == 0 {
            if let Some(&p) = produced.first() {
                if let Some(&q) = produced.last() {
                    if p != q {
                        b.recurrence(q, p, 1 + u32::from(entropy[1] % 2));
                    }
                }
            }
        }
        b.finish()
    })
}

fn machine() -> MachineConfig {
    MachineConfig::paper_baseline()
}

/// Checks dependence and resource legality of a schedule.
fn assert_legal(ddg: &Ddg, s: &Schedule, m: &MachineConfig) -> Result<(), TestCaseError> {
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
                base + if a.cluster != b.cluster {
                    m.reg_buses.latency
                } else {
                    0
                }
            }
            k => k.min_separation(),
        };
        prop_assert!(
            i64::from(b.start) + i64::from(s.ii) * i64::from(d.distance)
                >= i64::from(a.start) + i64::from(lat),
            "violated {d:?} at II {}",
            s.ii
        );
    }
    let mut fu: BTreeMap<(usize, usize, u32), u32> = BTreeMap::new();
    for op in s.ops.values() {
        if let Some(class) = ddg.node(op.node).kind.fu_class() {
            let e = fu
                .entry((op.cluster, class.index(), op.start % s.ii))
                .or_default();
            *e += 1;
            prop_assert!(
                *e <= 1,
                "FU oversubscribed at {:?}",
                (op.cluster, class, op.start)
            );
        }
    }
    // Register buses: transfers occupy `latency` slots; capacity `count`.
    let mut bus = vec![0u32; s.ii as usize];
    for c in &s.copies {
        for k in 0..m.reg_buses.latency {
            let slot = ((c.start + k) % s.ii) as usize;
            bus[slot] += 1;
            prop_assert!(bus[slot] <= m.reg_buses.count as u32, "bus oversubscribed");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn schedules_are_always_legal(ddg in arb_graph()) {
        let m = machine();
        for h in [Heuristic::PrefClus, Heuristic::MinComs] {
            let s = ModuloScheduler::new(&m)
                .schedule(&ddg, &SchedConstraints::none(), &PrefMap::new(), h)
                .unwrap();
            assert_legal(&ddg, &s, &m)?;
            prop_assert_eq!(s.ops.len(), ddg.node_count());
        }
    }

    #[test]
    fn disabling_relaxation_is_also_legal(ddg in arb_graph()) {
        let m = machine();
        let s = ModuloScheduler::new(&m)
            .with_latency_relaxation(false)
            .schedule(&ddg, &SchedConstraints::none(), &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        assert_legal(&ddg, &s, &m)?;
        // Without relaxation every load keeps the optimistic class.
        for l in ddg.loads() {
            prop_assert_eq!(
                s.op(l).assumed_class,
                Some(distvliw_arch::LatencyClass::LocalHit)
            );
        }
    }

    #[test]
    fn prefclus_honors_unanimous_profiles(ddg in arb_graph(), cluster in 0usize..4) {
        let m = machine();
        let mut prefs = PrefMap::new();
        for n in ddg.mem_nodes() {
            let mut counts = vec![0u64; 4];
            counts[cluster] = 100;
            prefs.insert(ddg.node(n).mem_id().unwrap(), PrefInfo::from_counts(counts));
        }
        // Latency relaxation re-places the graph and may legitimately use
        // fallback clusters; the strict property holds for the base
        // placement.
        let s = ModuloScheduler::new(&m)
            .with_latency_relaxation(false)
            .schedule(&ddg, &SchedConstraints::none(), &prefs, Heuristic::PrefClus)
            .unwrap();
        // With unanimous profiles, light memory pressure (≤ II slots) and
        // no loop-carried edges (which let a consumer be placed *before*
        // its producer and bound it from above), every load lands in its
        // preferred cluster. Stores may still fall back when operand-copy
        // deadlines do not fit.
        let mem_count = ddg.mem_nodes().count() as u32;
        let acyclic = ddg.deps().all(|(_, d)| d.distance == 0);
        if mem_count <= s.ii && acyclic {
            for n in ddg.loads() {
                prop_assert_eq!(s.op(n).cluster, cluster);
            }
        }
        assert_legal(&ddg, &s, &m)?;
    }

    #[test]
    fn pinning_is_always_respected(ddg in arb_graph(), pin in 0usize..4) {
        let m = machine();
        let mut constraints = SchedConstraints::none();
        for n in ddg.node_ids() {
            constraints.pinned.insert(n, pin);
        }
        // Everything in one cluster is schedulable (II inflates).
        let s = ModuloScheduler::new(&m)
            .schedule(&ddg, &constraints, &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        for n in ddg.node_ids() {
            prop_assert_eq!(s.op(n).cluster, pin);
        }
        prop_assert_eq!(s.comm_ops(), 0, "single cluster needs no copies");
        assert_legal(&ddg, &s, &m)?;
    }

    #[test]
    fn ii_never_undershoots_mii(ddg in arb_graph()) {
        let m = machine();
        let lat: NodeMap<u32> = ddg.loads().map(|l| (l, 1)).collect();
        let bound = distvliw_sched::mii::mii(&ddg, &m, &lat);
        let s = ModuloScheduler::new(&m)
            .schedule(&ddg, &SchedConstraints::none(), &PrefMap::new(), Heuristic::MinComs)
            .unwrap();
        prop_assert!(s.ii >= bound, "II {} below MII {}", s.ii, bound);
    }
}

/// A reservation table at `ii` on `buses` register buses of latency
/// `bus_lat`, with a transfer reserved at every listed cycle that still
/// has room.
fn bus_table(ii: u32, bus_lat: u32, buses: usize, transfers: &[u8]) -> Mrt {
    let m = machine().with_reg_buses(BusConfig {
        count: buses,
        latency: bus_lat,
    });
    let mut mrt = Mrt::new(&m, ii);
    for &cycle in transfers {
        if mrt.bus_free(u32::from(cycle)) {
            mrt.reserve_bus(u32::from(cycle));
        }
    }
    mrt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The placer's start-cycle skip rule. An incoming copy ready at
    /// `ready` fits a consumer start `t` when a bus slot is free in
    /// `[ready, min(deadline(t), ready + II)]`, with `deadline(t) = t −
    /// bus_lat + II·dist`. With `f` the first free slot in `[ready,
    /// ready + II]`, that holds exactly for `t ≥ f + bus_lat − II·dist`,
    /// never without `f`, and the slot found is then always `f` — so a
    /// failed start may resume the scan at that bound.
    #[test]
    fn bus_skip_bound_is_exact(
        ii in 1u32..=48,
        bus_lat in 1u32..=4,
        buses in 1usize..=4,
        transfers in proptest::collection::vec(any::<u8>(), 0..96),
        ready in 0u32..64,
        dist in 0u32..=3,
    ) {
        let mrt = bus_table(ii, bus_lat, buses, &transfers);
        let first = mrt.find_bus_slot(ready, ready + ii);
        let (ii, bus_lat, ready, dist) =
            (i64::from(ii), i64::from(bus_lat), i64::from(ready), i64::from(dist));
        let horizon = ready + ii + bus_lat + 2;
        for t in 0..=horizon {
            let deadline = t - bus_lat + ii * dist;
            let slot = if deadline < ready {
                None
            } else {
                let to = u32::try_from(deadline.min(ready + ii)).unwrap();
                mrt.find_bus_slot(u32::try_from(ready).unwrap(), to)
            };
            match first {
                None => prop_assert_eq!(slot, None, "t={} fits without a free slot", t),
                Some(f) => {
                    let bound = i64::from(f) + bus_lat - ii * dist;
                    prop_assert_eq!(slot.is_some(), t >= bound, "t={} bound={}", t, bound);
                    if let Some(s) = slot {
                        prop_assert_eq!(s, f, "t={} found a slot other than f", t);
                    }
                }
            }
        }
    }
}
