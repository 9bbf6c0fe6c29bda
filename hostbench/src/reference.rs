//! Reference outputs every op is checked against, one line per grid
//! point and budget: a digest of the detailed `SimStats`, the detailed
//! CPI and the sampled CPI. `--regenerate` rewrites the file; nothing
//! else does.

use crate::grid::{grid, reference_budget, specs, store_budget};
use looseloops::{fnv1a64, ExecMode, Job, SamplingPlan, SimStats, SweepEngine};
use std::collections::HashMap;
use std::fmt::Write;

/// The checked-in references.
pub const REFERENCE_TSV: &str = include_str!("../reference.tsv");

/// Which budget a reference line belongs to.
pub const REF: &str = "ref";
pub const STORE: &str = "store";

/// What one grid point must produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    pub digest: u64,
    pub detailed_cpi: f64,
    pub sampled_cpi: f64,
}

/// References keyed by `(budget tag, point name)`.
#[derive(Debug, Clone, Default)]
pub struct References {
    pub map: HashMap<(String, String), Expected>,
}

/// Stable digest of every field of a run's statistics.
pub fn digest(stats: &SimStats) -> u64 {
    fnv1a64(format!("{stats:?}").as_bytes())
}

/// Cycles per retired instruction, as the CPI stacks report it.
pub fn cpi(stats: &SimStats) -> f64 {
    stats.loop_cost.cpi()
}

/// |sampled − detailed| / detailed, in percent.
pub fn cpi_err_pct(sampled: f64, detailed: f64) -> f64 {
    100.0 * (sampled - detailed).abs() / detailed
}

impl References {
    pub fn parse(text: &str) -> Result<References, String> {
        let mut map = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("reference line {}: `{line}`", n + 1);
            if f.len() != 5 {
                return Err(bad());
            }
            let e = Expected {
                digest: u64::from_str_radix(f[2], 16).map_err(|_| bad())?,
                detailed_cpi: f[3].parse().map_err(|_| bad())?,
                sampled_cpi: f[4].parse().map_err(|_| bad())?,
            };
            map.insert((f[0].to_string(), f[1].to_string()), e);
        }
        Ok(References { map })
    }

    pub fn builtin() -> References {
        References::parse(REFERENCE_TSV).expect("reference.tsv parses")
    }

    /// The reference for `point` at budget `tag`. A missing reference is
    /// a failed check, never a panic.
    pub fn get(&self, tag: &str, point: &str) -> Option<Expected> {
        self.map.get(&(tag.to_string(), point.to_string())).copied()
    }
}

/// Run every grid point at both budgets, detailed and sampled, on fresh
/// single-worker engines, and render the reference file.
pub fn regenerate() -> String {
    let mut out = String::from(
        "# hostbench reference outputs: budget\tpoint\tdigest of detailed SimStats\tdetailed CPI\tsampled CPI\n\
         # Regenerate with: cargo run --release --manifest-path hostbench/Cargo.toml -- --regenerate\n",
    );
    for (tag, budget) in [(REF, reference_budget()), (STORE, store_budget())] {
        let points = grid(&specs(budget));
        let jobs: Vec<Job> = points.iter().map(|p| p.job.clone()).collect();
        let detailed = SweepEngine::new(1).try_run_jobs(&jobs);
        let plan = SamplingPlan::for_budget(budget);
        let sampled = SweepEngine::with_mode(1, ExecMode::Sampled(plan), None).try_run_jobs(&jobs);
        for ((p, d), s) in points.iter().zip(detailed).zip(sampled) {
            let d = d.unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let s = s.unwrap_or_else(|e| panic!("{} sampled: {e}", p.name));
            let _ = writeln!(
                out,
                "{tag}\t{}\t{:016x}\t{:?}\t{:?}",
                p.name,
                digest(&d),
                cpi(&d),
                cpi(&s)
            );
        }
        eprintln!("[hostbench] {tag}: {} points", points.len());
    }
    out
}
