//! Sim-MIPS regression harness: times the fig4 and fig8 reference
//! sweeps, the full `figure all` pass on one shared engine, and the
//! functional fast-forward interpreter, on a single-worker engine at a
//! fixed budget, recording wall time, instructions, and simulated MIPS
//! as JSON.
//!
//! The checked-in baseline lives at the repo root as `BENCH_pr10.json`;
//! the CI smoke job re-runs this bench and fails on a >20% sim-MIPS
//! regression (see `scripts/check_simmips.py`). Budgets are fixed so
//! the comparison is apples-to-apples, but the usual `LOOSELOOPS_WARMUP`
//! / `LOOSELOOPS_MEASURE` overrides still work for quick local runs —
//! the budget is recorded in the JSON and the checker refuses to compare
//! mismatched budgets.
//!
//! Output path: `LOOSELOOPS_BENCH_OUT` if set, else `BENCH_pr10.json` at
//! the workspace root (i.e. running the bench with no overrides
//! regenerates the baseline).

use looseloops::{
    capture_checkpoint, Benchmark, FigureSpec, PipelineConfig, RunBudget, SweepEngine, Workload,
};
use std::path::PathBuf;
use std::time::Instant;

/// Fixed reference budget for the regression gate (smaller than
/// `RunBudget::bench` so the CI smoke job stays fast, large enough that
/// per-run setup cost does not dominate).
fn reference_budget() -> RunBudget {
    let mut b = RunBudget {
        warmup: 20_000,
        measure: 100_000,
        max_cycles: 20_000_000,
    };
    let parse = |name: &str| {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
    };
    if let Some(v) = parse("LOOSELOOPS_WARMUP") {
        b.warmup = v;
    }
    if let Some(v) = parse("LOOSELOOPS_MEASURE") {
        b.measure = v;
    }
    b
}

struct Entry {
    figure: &'static str,
    jobs: u64,
    instructions: u64,
    wall_s: f64,
    sim_mips: f64,
}

/// Run the registry figures `ids` on ONE fresh single-worker engine and
/// record the sweep's wall time and sim-MIPS. With every id this is the
/// full `looseloops figure all` pass: overlapping grid points (the base
/// machine appears in several figures) simulate once and the rest come
/// from the memo cache, exactly as the CLI runs it.
fn measure(figure: &'static str, ids: &[&str], budget: RunBudget, workloads: &[Workload]) -> Entry {
    let sweep = SweepEngine::new(1);
    let t0 = Instant::now();
    let mut series = 0;
    for id in ids {
        let spec = FigureSpec::for_id(id, workloads, budget).expect("registry id");
        let results = spec.run_on(&sweep).expect("reference figure runs");
        series += spec.render(&results).series.len();
    }
    let wall = t0.elapsed();
    let s = sweep.summary();
    eprintln!("[simmips] {figure}: {series} series, {}", s.line());
    Entry {
        figure,
        jobs: s.jobs_run,
        instructions: s.instructions,
        wall_s: wall.as_secs_f64(),
        sim_mips: s.instructions as f64 / s.wall.as_secs_f64().max(1e-9) / 1e6,
    }
}

/// Time the functional fast-forward interpreter (with cache/TLB/
/// predictor warming) on the compress proxy. Its sim-MIPS is what makes
/// checkpointed warm-up and interval sampling pay off, so the checker
/// gates the *ratio* of this entry to the detailed sweeps' sim-MIPS
/// (`check_simmips.py --min-ff-ratio`).
fn measure_functional_ff() -> Entry {
    const INSTRUCTIONS: u64 = 2_000_000;
    let cfg = PipelineConfig::base();
    let workload = Workload::Single(Benchmark::Compress);
    let wcfg = workload.config_for(&cfg);
    let t0 = Instant::now();
    let ckpt =
        capture_checkpoint(&wcfg, workload.programs(), INSTRUCTIONS).expect("functional warm-up");
    let wall = t0.elapsed();
    assert_eq!(ckpt.instructions, INSTRUCTIONS, "compress must not halt");
    let entry = Entry {
        figure: "functional-ff",
        jobs: 1,
        instructions: INSTRUCTIONS,
        wall_s: wall.as_secs_f64(),
        sim_mips: INSTRUCTIONS as f64 / wall.as_secs_f64().max(1e-9) / 1e6,
    };
    eprintln!(
        "[simmips] functional-ff: {INSTRUCTIONS} instructions in {:.3}s ({:.1} sim-MIPS)",
        entry.wall_s, entry.sim_mips
    );
    entry
}

fn to_json(budget: RunBudget, entries: &[Entry]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"budget\": {{\"warmup\": {}, \"measure\": {}, \"max_cycles\": {}}},\n",
        budget.warmup, budget.measure, budget.max_cycles
    ));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"figure\": \"{}\", \"jobs\": {}, \"instructions\": {}, \"wall_s\": {:.4}, \"sim_mips\": {:.3}}}{}\n",
            e.figure,
            e.jobs,
            e.instructions,
            e.wall_s,
            e.sim_mips,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let budget = reference_budget();
    eprintln!(
        "[simmips] reference sweeps, warmup={} measure={} instructions per run, 1 worker",
        budget.warmup, budget.measure
    );
    let workloads = Workload::paper_set();
    let entries = [
        measure("fig4", &["fig4"], budget, &workloads),
        measure("fig8", &["fig8"], budget, &workloads),
        measure("figure-all", FigureSpec::IDS, budget, &workloads),
        measure_functional_ff(),
    ];
    let json = to_json(budget, &entries);
    let path = std::env::var("LOOSELOOPS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_pr10.json")
        });
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[simmips] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[simmips] cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    print!("{json}");
}
