//! Determinism: identical configuration + workload ⇒ identical cycle
//! counts and statistics, across every scheme. Figure results depend on
//! this (speedups are ratios of single runs).

use looseloops_repro::core::{try_run_benchmark, Benchmark, PipelineConfig, RunBudget};
use looseloops_repro::workload::Benchmark as B;

fn budget() -> RunBudget {
    RunBudget {
        warmup: 1_000,
        measure: 8_000,
        max_cycles: 2_000_000,
    }
}

fn fingerprint(cfg: &PipelineConfig, b: Benchmark) -> (u64, u64, u64, u64, [u64; 5]) {
    let s = try_run_benchmark(cfg, b, budget()).expect("benchmark runs");
    (
        s.cycles,
        s.total_retired(),
        s.branch_mispredicts,
        s.load_replays,
        s.operand_sources,
    )
}

#[test]
fn base_runs_are_reproducible() {
    for b in [B::Compress, B::Swim, B::Apsi] {
        let cfg = PipelineConfig::base();
        assert_eq!(fingerprint(&cfg, b), fingerprint(&cfg, b), "{b}");
    }
}

#[test]
fn dra_runs_are_reproducible() {
    for b in [B::Gcc, B::Turb3d] {
        let cfg = PipelineConfig::dra_for_rf(5);
        assert_eq!(fingerprint(&cfg, b), fingerprint(&cfg, b), "{b}");
    }
}

#[test]
fn different_configs_actually_differ() {
    let a = fingerprint(&PipelineConfig::base_with_latencies(3, 3), B::Go);
    let b = fingerprint(&PipelineConfig::base_with_latencies(9, 9), B::Go);
    assert_ne!(a.0, b.0, "pipeline length must change the cycle count");
}

#[test]
fn smt_runs_are_reproducible() {
    let cfg = PipelineConfig::base().smt(2);
    let run = || {
        let s = looseloops_repro::core::try_run_pair(&cfg, B::pairs()[0], budget())
            .expect("SMT pair runs");
        (s.cycles, s.retired.clone())
    };
    assert_eq!(run(), run());
}
