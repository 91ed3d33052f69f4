//! Run metadata, the work-counter ledger and the result files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::{cells::fnv, Outcome, RunArgs, STATE_DIR};

/// Records the run metadata every result carries.
pub fn record(args: &RunArgs, out: &mut Outcome) {
    out.note("git_revision", git_revision());
    out.note("source_fnv", format!("{:016x}", source_fingerprint()));
    out.note("rustc", rustc_version());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.note("nproc", nproc.to_string());
    out.note(
        "distvliw_threads",
        std::env::var("DISTVLIW_THREADS").unwrap_or_else(|_| format!("{nproc} (unset: nproc)")),
    );
    out.note("seed", args.seed.to_string());
    out.note("seconds", args.seconds.to_string());
    if !args.trace {
        out.note("clock", crate::cpu::CLOCK);
    }
}

/// The commit of the checkout, when it is a git checkout (read from
/// `.git` directly, without leaving the checkout).
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout; see source_fnv)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                // A packed ref.
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head.to_string(),
    }
}

/// FNV-1a over every Rust source and manifest of the workspace crates
/// and of the benchmark, in path order: identifies the code under test
/// where no git revision is available, and keys the ledger, so a
/// change that legitimately moves a count starts a fresh ledger.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("repobench/src"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
    }
    fnv(&bytes)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn ledger_path(args: &RunArgs, source: &str) -> PathBuf {
    Path::new(STATE_DIR).join("ledger").join(format!(
        "{source}-{}-trace{}-seed{}.txt",
        args.workload,
        u8::from(args.trace),
        args.seed
    ))
}

/// Compares this run's deterministic counts with every earlier run of
/// the checkout (same workload, trace flag and seed). A count that
/// differs is nondeterminism: it fails the run and is never averaged
/// away. New keys are added to the ledger. The ledger is keyed by the
/// source fingerprint [`record`] noted.
pub fn check_ledger(args: &RunArgs, out: &mut Outcome) -> Result<(), String> {
    let path = ledger_path(
        args,
        out.notes
            .get("source_fnv")
            .map_or("unknown", String::as_str),
    );
    let mut ledger: BTreeMap<String, u64> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            if let Some((k, v)) = line.rsplit_once(' ') {
                if let Ok(v) = v.parse() {
                    ledger.insert(k.to_string(), v);
                }
            }
        }
    }
    let mut mismatches = Vec::new();
    for (k, &v) in &out.ledger {
        match ledger.get(k) {
            Some(&old) if old != v => mismatches.push(format!(
                "nondeterminism across runs: {k} = {v}, an earlier run of this seed had {old}"
            )),
            Some(_) => {}
            None => {
                ledger.insert(k.clone(), v);
            }
        }
    }
    for m in mismatches {
        out.fail(1, m);
    }
    out.note(
        "ledger",
        format!("{} ({} counts checked)", path.display(), out.ledger.len()),
    );
    let mut text = String::new();
    for (k, v) in &ledger {
        let _ = writeln!(text, "{k} {v}");
    }
    std::fs::create_dir_all(path.parent().expect("ledger dir"))
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Appends the result, with its metadata and failures, to the
/// workload's result file, and writes the traced run's spans.
pub fn save(args: &RunArgs, out: &Outcome, line: &str) -> Result<(), String> {
    use std::io::Write as _;
    let dir = Path::new(STATE_DIR).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let quote = |s: &str| distvliw_serve::json::Json::str(s).render();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), quote(v)))
        .collect();
    let errors: Vec<String> = out.errors.iter().map(|e| quote(e)).collect();
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"result\":{line},\"notes\":{{{}}},\"errors\":[{}]}}\n",
        quote(&args.workload),
        args.seed,
        u8::from(args.trace),
        notes.join(","),
        errors.join(",")
    );
    let path = dir.join(format!("{}.jsonl", args.workload));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(record.as_bytes()))
        .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
    if args.trace {
        let path = Path::new(STATE_DIR)
            .join("trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(path.parent().expect("trace dir"))
            .and_then(|()| std::fs::write(&path, &out.spans))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}
