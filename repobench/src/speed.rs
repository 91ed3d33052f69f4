//! Scaling CPU times to a fixed host speed.
//!
//! Identical work does not take identical CPU time on a shared host. The
//! one this benchmark was written on switches between a fast and a slow
//! state every second or so, and sometimes stays slow for a whole run:
//! the same matrix grid took 57–62 CPU ms in one state and 104–112 in
//! the other, and a run's fastest repetitions were up to 1.7× another
//! run's. The core runs at another clock, or shares its caches and
//! execution units with a neighbour, and no clock of the process sees
//! that.
//!
//! So the benchmark runs a fixed [`reference`] computation between the
//! operations it measures, and scales each operation's CPU time by
//! [`NOMINAL_MS`] over the reference's CPU time around it: every
//! end-to-end timing reads as CPU time on a host that runs the reference
//! in exactly [`NOMINAL_MS`]. Over six 20 s `sweep` runs the sum of the
//! operations' median times spread (IQR ÷ median) 0.27 unscaled and
//! 0.071 scaled.
//!
//! The reference resembles the program's own work (a small DAG walked
//! through index vectors, a hash map used as a reservation table,
//! sorting, short-lived vectors). It lives in the benchmark, so no change
//! to the program moves it, and a change to the program shows in full.

use std::collections::HashMap;
use std::hint::black_box;

use crate::cpu::{ms, thread_cpu_s, Stamp};

/// The reference's CPU time on the host the benchmark was written on,
/// in its fast state (0.99–1.0 ms); the unit every scaled time is in.
pub const NOMINAL_MS: f64 = 1.0;

/// One pass of the reference computation on the calling thread; returns
/// its CPU ms.
pub fn reference() -> f64 {
    let t = thread_cpu_s();
    black_box(work(black_box(0x2545_F491_4F6C_DD1D)));
    (thread_cpu_s() - t) * 1e3
}

/// Times operations on the process CPU clock, scaled by the reference
/// runs on either side of each.
pub struct Gauge {
    before: f64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            before: reference(),
        }
    }

    /// Runs `f`, then the reference. Returns `f`'s result and its scaled
    /// CPU ms and wall ms.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, (f64, f64)) {
        let t = Stamp::now();
        let value = f();
        let (cpu_ms, wall_ms) = ms(t.elapsed());
        let after = reference();
        let scale = scale(self.before, after);
        self.before = after;
        (value, (cpu_ms * scale, wall_ms))
    }
}

/// The factor that scales a CPU time measured between two reference
/// runs to the nominal speed.
pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
    2.0 * NOMINAL_MS / (before_ms + after_ms)
}

fn work(seed: u64) -> u64 {
    const NODES: usize = 1500;
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // A layered DAG: each node's edges go to later nodes.
    let succs: Vec<Vec<u32>> = (0..NODES)
        .map(|i| {
            let n = (next() % 4) as usize;
            (0..n)
                .filter_map(|_| {
                    let span = NODES - i - 1;
                    (span > 0).then(|| (i + 1 + (next() as usize % span.min(64))) as u32)
                })
                .collect()
        })
        .collect();
    // Longest path by node order (a topological order), twice over with
    // latencies drawn per edge.
    let mut acc = 0u64;
    for round in 0..3u64 {
        let mut dist = vec![0u64; NODES];
        for (i, out) in succs.iter().enumerate() {
            for &s in out {
                let lat = 1 + (i as u64 ^ u64::from(s) ^ round) % 5;
                let d = dist[i] + lat;
                if d > dist[s as usize] {
                    dist[s as usize] = d;
                }
            }
        }
        acc = acc.wrapping_add(dist.iter().copied().max().unwrap_or(0));
    }
    // A resource table in a hash map, as a scheduler's reservation table.
    let mut table: HashMap<u64, u32> = HashMap::new();
    for _ in 0..20_000 {
        let k = next() % 4096;
        *table.entry(k).or_insert(0) += 1;
    }
    acc = acc.wrapping_add(table.values().map(|&v| u64::from(v)).sum::<u64>());
    // Sorting, and short-lived vectors.
    let mut v: Vec<u64> = (0..20_000).map(|_| next()).collect();
    v.sort_unstable();
    for chunk in v.chunks(64) {
        let copy: Vec<u64> = chunk.iter().rev().copied().collect();
        acc = acc.wrapping_add(copy[0]);
    }
    acc
}
