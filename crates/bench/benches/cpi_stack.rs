//! Per-loop CPI stacks: base vs DRA machine (5-cycle register file).
//!
//! The table makes the paper's argument quantitative per workload: on the
//! base machine the lost retire slots concentrate in the branch- and
//! load-resolution loops; the DRA shortens IQ-EX (shrinking both) at the
//! price of a new operand-resolution component.

use looseloops::{cpi_stack_report_on, PipelineConfig, SweepEngine, Workload};
use std::time::Instant;

fn main() {
    let budget = looseloops_bench::budget_from_env();
    let sweep = SweepEngine::from_env();
    eprintln!(
        "[cpi-stack] warmup={} measure={} instructions per run, {} sweep workers…",
        budget.warmup,
        budget.measure,
        sweep.workers()
    );
    let base = PipelineConfig::base_for_rf(5);
    let dra = PipelineConfig::dra_for_rf(5);
    let configs = [
        (
            format!("base:{}_{}", base.dec_iq_stages, base.iq_ex_stages),
            base,
        ),
        (
            format!("dra:{}_{}", dra.dec_iq_stages, dra.iq_ex_stages),
            dra,
        ),
    ];
    let t0 = Instant::now();
    let rep = cpi_stack_report_on(
        &sweep,
        "cpi-stack",
        "Per-loop CPI stacks, base vs DRA (5-cycle register file)",
        &configs,
        &Workload::paper_set(),
        budget,
    )
    .expect("base and DRA runs complete");
    eprintln!("[cpi-stack] done in {:.1}s", t0.elapsed().as_secs_f64());
    eprintln!("[cpi-stack] sweep: {}", sweep.summary().line());
    println!("{rep}");
    let dir = std::path::PathBuf::from("target/figures");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("cpi_stack.json");
        if std::fs::write(&path, rep.to_json()).is_ok() {
            println!("(archived to {})", path.display());
        }
    }
}
