//! A fully cached batch under a multi-worker fan-out, in a test binary
//! of its own: it sets `DISTVLIW_THREADS` for the whole process, which
//! would leak into tests running alongside it.

use std::sync::Arc;

use distvliw_arch::MachineConfig;
use distvliw_core::{Heuristic, Solution};
use distvliw_serve::engine::{CellSpec, ServeEngine};

#[test]
fn an_all_hit_batch_returns_the_cached_cells_and_counts_one_hit_each() {
    std::env::set_var("DISTVLIW_THREADS", "4");
    let engine = ServeEngine::new(MachineConfig::paper_baseline(), 64);
    let suite = engine.suite("gsmdec").expect("bundled suite");
    let specs: Vec<CellSpec<'_>> = [Solution::Mdc, Solution::Ddgt]
        .into_iter()
        .flat_map(|solution| {
            [Heuristic::PrefClus, Heuristic::MinComs].map(|heuristic| CellSpec {
                suite,
                machine: engine.machine(),
                solution,
                heuristic,
            })
        })
        .collect();

    let cold = engine.run_cells(&specs);
    let before = engine.stats();
    assert_eq!(before.computed_cells, 4);
    assert_eq!((before.cache.hits, before.cache.misses), (0, 4));

    let warm = engine.run_cells(&specs);
    let after = engine.stats();
    assert_eq!(warm.len(), cold.len());
    for (w, c) in warm.iter().zip(&cold) {
        assert!(Arc::ptr_eq(w, c), "a warm cell must be the cached value");
    }
    assert_eq!(after.cache.hits, before.cache.hits + 4, "one hit per cell");
    assert_eq!(after.cache.misses, before.cache.misses);
    assert_eq!(after.computed_cells, before.computed_cells);
    assert_eq!(after.deduped_requests, before.deduped_requests);
}
