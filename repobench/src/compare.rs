//! `repobench compare A B`: reads two result sets (a results directory
//! such as `.repobench/results`, or one `.jsonl` file) — for example a
//! parent commit and a change, run with the same benchmark settings —
//! and prints, per workload × end-to-end metric, each side's median and
//! quartiles, the share of pairs B won and a verdict under the rule of
//! choosing-metrics §8.

use std::collections::BTreeMap;
use std::path::Path;

use distvliw_serve::json::{self, Json};

use crate::stats::{median, quartiles};

/// `(workload, metric) → values in run order` of untraced results.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Set, String> {
    let files: Vec<std::path::PathBuf> = if path.is_dir() {
        let mut v: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        v.sort();
        v
    } else {
        vec![path.to_path_buf()]
    };
    let mut set = Set::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let rec = json::parse(line).map_err(|e| format!("{}: {e}", f.display()))?;
            if rec.get("trace").and_then(Json::as_u64) != Some(0) {
                continue;
            }
            let workload = rec
                .get("workload")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string();
            let Some(Json::Obj(metrics)) = rec.get("result").and_then(|r| r.get("metrics")) else {
                continue;
            };
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    set.entry((workload.clone(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(set)
}

/// `metric → (lower is better, bound)` from `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    Ok(doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                (
                    m.get("better")?.as_str()? == "lower",
                    m.get("bound")?.as_f64()?,
                ),
            ))
        })
        .collect())
}

/// The verdict for one metric: `a` is the parent, `b` the change.
pub fn verdict(a: &[f64], b: &[f64], lower_better: bool, bound: f64) -> (f64, &'static str) {
    let better = |x: f64, y: f64| if lower_better { x < y } else { x > y };
    let pairs = a.len().min(b.len());
    let won = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let share = won as f64 / pairs.max(1) as f64;
    let (ma, mb) = (median(a), median(b));
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs().max(f64::MIN_POSITIVE)
    };
    let (qa1, qa3) = quartiles(a);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| better(x, y)));
    let worse_by = if lower_better { mb - ma } else { ma - mb } / ma.abs().max(f64::MIN_POSITIVE);
    let verdict = if spread(a) > bound || spread(b) > bound {
        if all_better {
            "better (every run)"
        } else if all_worse {
            "worse (every run)"
        } else {
            "unresolved (spread exceeds bound)"
        }
    } else if share >= 0.9 && (mb - ma).abs() > qa3 - qa1 && better(mb, ma) {
        "better"
    } else if worse_by > bound {
        "regression"
    } else {
        "no change beyond bound"
    };
    (share, verdict)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut manifest = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            manifest = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            paths.push(a.clone());
        }
    }
    let [a, b] = paths.as_slice() else {
        return Err(
            "usage: repobench compare <results-A> <results-B> [--bounds BENCHMARK.json]".into(),
        );
    };
    let (sa, sb) = (load(Path::new(a))?, load(Path::new(b))?);
    let bounds = bounds(Path::new(&manifest))?;
    println!(
        "{:<9} {:<16} {:>6} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>5} verdict",
        "workload", "metric", "runs", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "won"
    );
    for ((workload, metric), va) in &sa {
        let Some(vb) = sb.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(&(lower, bound)) = bounds.get(metric) else {
            continue;
        };
        let (share, v) = verdict(va, vb, lower, bound);
        let (a1, a3) = quartiles(va);
        let (b1, b3) = quartiles(vb);
        println!(
            "{workload:<9} {metric:<16} {:>6} {a1:>12.4} {:>12.4} {a3:>12.4} | {b1:>12.4} {:>12.4} {b3:>12.4} | {:>4.0}% {v}",
            format!("{}/{}", va.len(), vb.len()),
            median(va),
            median(vb),
            share * 100.0
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts() {
        let a: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&a, &faster, true, 0.25).1, "better");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&a, &slower, true, 0.1).1, "regression");
        assert_eq!(verdict(&a, &a, true, 0.25).1, "no change beyond bound");
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(
            verdict(&noisy, &noisy, true, 0.1).1,
            "unresolved (spread exceeds bound)"
        );
    }
}
