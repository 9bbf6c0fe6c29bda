//! The paper's evaluation, experiment by experiment.
//!
//! Every figure of the evaluation section (Figures 4, 5, 6, 8, 9 and the
//! ablations) is one [`FigureSpec`]: pure data naming a machine grid, a
//! workload set and a [`RunBudget`]. [`FigureSpec::IDS`] lists them in
//! `looseloops figure all` order and [`FigureSpec::for_id`] builds one.
//! [`FigureSpec::run_on`] runs the grid on a caller-owned [`SweepEngine`]
//! and hands back the results, from which [`FigureSpec::render`] folds the
//! [`FigureResult`] (who wins, by what factor) and
//! [`FigureSpec::render_stacks`] the per-loop CPI stacks.

use crate::report::{CpiStackReport, CpiStackRow, FigureResult, Series};
use crate::simulator::{try_run_programs, RunBudget};
use crate::sweep::{Job, SweepEngine, SweepError};
use looseloops_branch;
use looseloops_isa::Program;
use looseloops_mem;
use looseloops_pipeline::{LoadSpecPolicy, PipelineConfig, SimError, SimStats};
use looseloops_regs;
use looseloops_workload::{Benchmark, SmtPair};
use std::sync::Arc;

/// A workload of the paper's evaluation: a single benchmark or an SMT pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One hardware thread.
    Single(Benchmark),
    /// The paper's two-thread SMT pairings.
    Pair(SmtPair),
    /// A named microbenchmark (currently only "chase").
    Micro(&'static str),
}

impl Workload {
    /// The thirteen workloads of Figures 4, 5 and 8: ten benchmarks plus
    /// three SMT pairs.
    pub fn paper_set() -> Vec<Workload> {
        let mut v: Vec<Workload> = Benchmark::all().into_iter().map(Workload::Single).collect();
        v.extend(Benchmark::pairs().into_iter().map(Workload::Pair));
        v
    }

    /// A fast subset for smoke tests (one int, one fp, one pair).
    pub fn smoke_set() -> Vec<Workload> {
        vec![
            Workload::Single(Benchmark::Compress),
            Workload::Single(Benchmark::Swim),
            Workload::Pair(Benchmark::pairs()[0]),
        ]
    }

    /// Display name (paper style).
    pub fn name(&self) -> String {
        match self {
            Workload::Single(b) => b.name().to_string(),
            Workload::Pair(p) => p.name(),
            Workload::Micro(m) => (*m).to_string(),
        }
    }

    /// The hardware-thread count this workload occupies.
    pub fn threads(&self) -> usize {
        match self {
            Workload::Single(_) | Workload::Micro(_) => 1,
            Workload::Pair(_) => 2,
        }
    }

    /// `cfg` with its thread count adjusted to this workload — the exact
    /// machine [`Workload::try_run`] simulates. Factored out so the
    /// checkpoint/sampling drivers build the same machine the detailed
    /// path does.
    pub fn config_for(&self, cfg: &PipelineConfig) -> PipelineConfig {
        cfg.clone().smt(self.threads())
    }

    /// The concrete program list this workload runs, one per hardware
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics on an unknown [`Workload::Micro`] name (a programming error,
    /// not a simulation outcome).
    pub fn programs(&self) -> Vec<Program> {
        match self {
            Workload::Single(b) => vec![b.program()],
            Workload::Pair(p) => p.programs(),
            Workload::Micro(m) => match *m {
                "chase" => vec![looseloops_workload::kernels::int::chase(16 << 20)],
                other => panic!("unknown microbenchmark {other}"),
            },
        }
    }

    /// Run this workload under `cfg` (thread count is adjusted to fit).
    ///
    /// # Errors
    ///
    /// Everything the `try_run_*` drivers can report: an invalid
    /// configuration, a deadlock, or (with `cfg.audit`) an invariant
    /// violation.
    ///
    /// # Panics
    ///
    /// Panics on an unknown [`Workload::Micro`] name (a programming error,
    /// not a simulation outcome).
    pub fn try_run(&self, cfg: &PipelineConfig, budget: RunBudget) -> Result<SimStats, SimError> {
        try_run_programs(&self.config_for(cfg), self.programs(), budget)
    }
}

/// How a figure's completed grid results are folded into a
/// [`FigureResult`]. Pure data → pure function: no engine involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureKind {
    /// IPC of every config relative to `configs[baseline]`, per workload.
    Speedup {
        /// Index of the reference config.
        baseline: usize,
    },
    /// Figure 6: operand-availability-gap CDF of the single grid point,
    /// columns are gap values 0..=60.
    GapCdf,
    /// Figure 9: operand-source fractions of one config across workloads.
    OperandSources,
    /// Figure 8: pairwise speedups — configs come in (base, DRA) pairs,
    /// rows 2k base and 2k+1 the matched DRA.
    DraPairSpeedup,
}

/// One figure of the evaluation as **pure data**: a labeled machine grid,
/// a workload set, a budget, and a rendering rule. The spec is completely
/// decoupled from execution — [`FigureSpec::jobs`] enumerates the sweep
/// points and [`FigureSpec::render`] folds their results, so the same
/// spec runs on a local [`SweepEngine`] ([`FigureSpec::run_on`]) or is
/// shipped job-by-job to a `looseloops serve` daemon unchanged.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Canonical figure id (`fig4`, `ablation-load-policy`, ...).
    pub id: String,
    /// Human title, exactly as the figure prints it.
    pub title: String,
    /// What the paper says this figure should show.
    pub paper_expectation: String,
    /// The labeled machine grid.
    pub configs: Vec<(String, PipelineConfig)>,
    /// The workload set (already including any figure-specific pins or
    /// extras, e.g. Figure 6's turb3d or the load-policy chase micro).
    pub workloads: Vec<Workload>,
    /// Warm-up/measurement budget every grid point runs at.
    pub budget: RunBudget,
    /// How results become a figure.
    pub kind: FigureKind,
}

impl FigureSpec {
    /// Every figure id `looseloops figure` understands, in `figure all`
    /// order. The ablations' canonical ids carry an `ablation-` prefix
    /// that these short forms drop; [`FigureSpec::for_id`] takes both.
    pub const IDS: &'static [&'static str] = &[
        "fig4",
        "fig5",
        "fig6",
        "fig8",
        "fig9",
        "load-policy",
        "dra-design",
        "fwd-window",
        "iq-size",
        "prefetch",
        "predictor",
    ];

    /// The spec behind a figure id, canonical (`ablation-load-policy`) or
    /// CLI-short (`load-policy`). `workloads` seeds the workload set;
    /// figures that pin their own workloads (Figure 6) ignore it, and the
    /// load-policy ablation appends its chase microbenchmark. `None` for
    /// an unknown id.
    pub fn for_id(id: &str, workloads: &[Workload], budget: RunBudget) -> Option<FigureSpec> {
        match id {
            "fig4" => Some(fig4_spec(workloads, budget)),
            "fig5" => Some(fig5_spec(workloads, budget)),
            "fig6" => Some(fig6_spec(budget)),
            "fig8" => Some(fig8_spec(workloads, budget)),
            "fig9" => Some(fig9_spec(workloads, budget)),
            "load-policy" | "ablation-load-policy" => Some(load_policy_spec(workloads, budget)),
            "dra-design" | "ablation-dra-design" => Some(dra_design_spec(workloads, budget)),
            "fwd-window" | "ablation-fwd-window" => Some(fwd_window_spec(workloads, budget)),
            "iq-size" | "ablation-iq-size" => Some(iq_size_spec(workloads, budget)),
            "prefetch" | "ablation-prefetch" => Some(prefetch_spec(workloads, budget)),
            "predictor" | "ablation-predictor" => Some(predictor_spec(workloads, budget)),
            _ => None,
        }
    }

    /// The full `configs × workloads` grid as sweep jobs, row-major in
    /// config order — the exact order [`FigureSpec::render`] expects its
    /// results in.
    pub fn jobs(&self) -> Vec<Job> {
        self.configs
            .iter()
            .flat_map(|(_, cfg)| {
                self.workloads
                    .iter()
                    .map(move |w| Job::new(cfg.clone(), *w, self.budget))
            })
            .collect()
    }

    /// Fold completed results (one per [`FigureSpec::jobs`] entry, same
    /// order) into the figure. Pure: no simulation, no engine.
    ///
    /// # Panics
    ///
    /// Panics when `results` does not cover the grid.
    pub fn render(&self, results: &[Arc<SimStats>]) -> FigureResult {
        let nw = self.workloads.len();
        assert_eq!(
            results.len(),
            self.configs.len() * nw,
            "figure {} expects one result per grid point",
            self.id
        );
        let series = match self.kind {
            FigureKind::Speedup { baseline } => {
                // ipc[config][workload]
                let ipc: Vec<Vec<f64>> = results
                    .chunks(nw.max(1))
                    .map(|row| row.iter().map(|s| s.ipc()).collect())
                    .collect();
                self.configs
                    .iter()
                    .enumerate()
                    .map(|(i, (label, _))| Series {
                        label: label.clone(),
                        values: (0..nw).map(|w| ipc[i][w] / ipc[baseline][w]).collect(),
                    })
                    .collect()
            }
            FigureKind::GapCdf => {
                let cdf = results[0].gap_cdf();
                return FigureResult {
                    id: self.id.clone(),
                    title: self.title.clone(),
                    columns: (0..=60).map(|p: usize| p.to_string()).collect(),
                    series: vec![Series {
                        label: self.workloads[0].name(),
                        values: (0..=60).map(|p: usize| cdf[p]).collect(),
                    }],
                    paper_expectation: self.paper_expectation.clone(),
                };
            }
            FigureKind::OperandSources => {
                let labels = ["pre-read", "forward", "crc", "regfile", "miss"];
                let mut fractions: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
                for stats in &results[..nw] {
                    for (i, v) in stats.operand_source_fractions().into_iter().enumerate() {
                        fractions[i].push(v);
                    }
                }
                labels
                    .iter()
                    .zip(fractions)
                    .map(|(l, values)| Series {
                        label: (*l).into(),
                        values,
                    })
                    .collect()
            }
            FigureKind::DraPairSpeedup => (0..self.configs.len() / 2)
                .map(|k| {
                    let base = &self.configs[2 * k].1;
                    let dra = &self.configs[2 * k + 1].1;
                    Series {
                        label: format!(
                            "DRA:{}_{} vs Base:{}_{}",
                            dra.dec_iq_stages,
                            dra.iq_ex_stages,
                            base.dec_iq_stages,
                            base.iq_ex_stages
                        ),
                        values: (0..nw)
                            .map(|w| {
                                results[(2 * k + 1) * nw + w].ipc() / results[2 * k * nw + w].ipc()
                            })
                            .collect(),
                    }
                })
                .collect(),
        };
        FigureResult {
            id: self.id.clone(),
            title: self.title.clone(),
            columns: self.workloads.iter().map(Workload::name).collect(),
            series,
            paper_expectation: self.paper_expectation.clone(),
        }
    }

    /// The per-loop CPI-stack companion view of the same results: one row
    /// per (config, workload) grid point.
    pub fn render_stacks(&self, results: &[Arc<SimStats>]) -> CpiStackReport {
        self.stacks_report(
            format!("{}-stacks", self.id),
            format!("Per-loop CPI stacks behind {}", self.id),
            results,
        )
    }

    fn stacks_report(
        &self,
        id: String,
        title: String,
        results: &[Arc<SimStats>],
    ) -> CpiStackReport {
        let nw = self.workloads.len().max(1);
        let mut rep = CpiStackReport::new(id, title);
        for ((label, _), row) in self.configs.iter().zip(results.chunks(nw)) {
            for (w, stats) in self.workloads.iter().zip(row) {
                rep.rows.push(CpiStackRow::from_stats(
                    format!("{label}/{}", w.name()),
                    stats,
                ));
            }
        }
        rep
    }

    /// Execute the grid on `sweep`: one result per [`FigureSpec::jobs`]
    /// entry, in the order [`FigureSpec::render`] and
    /// [`FigureSpec::render_stacks`] expect.
    ///
    /// # Errors
    ///
    /// After the whole grid has drained, a [`SweepError`] naming every
    /// failed job's label and [`SimError`].
    pub fn run_on(&self, sweep: &SweepEngine) -> Result<Vec<Arc<SimStats>>, SweepError> {
        let jobs = self.jobs();
        let results = sweep.try_run_jobs(&jobs);
        let mut failures = Vec::new();
        let mut out = Vec::with_capacity(results.len());
        for (job, result) in jobs.iter().zip(results) {
            match result {
                Ok(stats) => out.push(stats),
                Err(e) => failures.push((job.label(), e)),
            }
        }
        if failures.is_empty() {
            Ok(out)
        } else {
            Err(SweepError { failures })
        }
    }
}

fn spec(
    id: &str,
    title: &str,
    expectation: &str,
    configs: Vec<(String, PipelineConfig)>,
    workloads: &[Workload],
    budget: RunBudget,
    kind: FigureKind,
) -> FigureSpec {
    FigureSpec {
        id: id.into(),
        title: title.into(),
        paper_expectation: expectation.into(),
        configs,
        workloads: workloads.to_vec(),
        budget,
        kind,
    }
}

/// The labeled machine grid of Figure 4: DEC→EX swept from 6 to 18
/// cycles.
fn fig4_configs() -> Vec<(String, PipelineConfig)> {
    [(3, 3), (5, 5), (7, 7), (9, 9)]
        .into_iter()
        .map(|(x, y)| {
            (
                format!("{x}_{y}"),
                PipelineConfig::base_with_latencies(x, y),
            )
        })
        .collect()
}

/// **Figure 4** — performance vs pipeline length. DEC→EX is swept from 6
/// to 18 cycles (configs 3_3, 5_5, 7_7, 9_9); results are speedups
/// relative to the 6-cycle machine.
fn fig4_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "fig4",
        "Performance for varying pipeline lengths (relative to 6 cycles DEC->EX)",
        "monotonic losses up to ~24% at 18 cycles; int codes lose to the branch loop, \
         swim/turb3d to the load loop; hydro2d/mgrid (memory-bound) and apsi (low ILP) \
         are least sensitive; SMT pairs lose less than their worst member",
        fig4_configs(),
        workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    )
}

/// The labeled machine grid of Figure 5: fixed 12-cycle DEC→EX, varying
/// the DEC-IQ / IQ-EX split.
fn fig5_configs() -> Vec<(String, PipelineConfig)> {
    [(3, 9), (5, 7), (7, 5), (9, 3)]
        .into_iter()
        .map(|(x, y)| {
            (
                format!("{x}_{y}"),
                PipelineConfig::base_with_latencies(x, y),
            )
        })
        .collect()
}

/// **Figure 5** — fixed overall DEC→EX length (12 cycles), varying the
/// DEC-IQ / IQ-EX split: 3_9, 5_7, 7_5, 9_3 relative to 3_9.
fn fig5_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "fig5",
        "Performance for a fixed 12-cycle DEC->EX, shifting stages out of IQ-EX (relative to 3_9)",
        "up to ~15% gain for 9_3 on the load-loop-sensitive codes (swim, turb3d, apsi-swim); \
         branch-bound and memory-bound codes are flat",
        fig5_configs(),
        workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    )
}

/// **Figure 6** — cumulative distribution of the gap (in cycles) between
/// an instruction's first and second operand becoming available, measured
/// on `turb3d` on the base machine. Columns are gap values 0..=60.
fn fig6_spec(budget: RunBudget) -> FigureSpec {
    spec(
        "fig6",
        "CDF of cycles between first- and second-operand availability (turb3d)",
        "~25% of instructions have gaps of 25+ cycles; the 9-cycle \
         forwarding buffer covers only ~50% of instructions",
        vec![("base".to_string(), PipelineConfig::base())],
        &[Workload::Single(Benchmark::Turb3d)],
        budget,
        FigureKind::GapCdf,
    )
}

/// The labeled machine grid of Figure 8: base and DRA per register-file
/// latency, rows 2k base / 2k+1 the matched DRA.
fn fig8_configs() -> Vec<(String, PipelineConfig)> {
    [3u32, 5, 7]
        .into_iter()
        .flat_map(|rf| {
            let base = PipelineConfig::base_for_rf(rf);
            let dra = PipelineConfig::dra_for_rf(rf);
            [
                (
                    format!("base:{}_{} (rf{rf})", base.dec_iq_stages, base.iq_ex_stages),
                    base,
                ),
                (
                    format!("dra:{}_{} (rf{rf})", dra.dec_iq_stages, dra.iq_ex_stages),
                    dra,
                ),
            ]
        })
        .collect()
}

/// **Figure 8** — DRA speedups for register-file read latencies of 3, 5
/// and 7 cycles: DRA:5_3 vs Base:5_5, DRA:7_3 vs Base:5_7, DRA:9_3 vs
/// Base:5_9.
fn fig8_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "fig8",
        "DRA speedup over the base machine, per register-file latency",
        "gains up to 4% / 9% / 15% for 3/5/7-cycle register files, \
         growing with RF latency; apsi (and apsi-swim) LOSE 10-14% \
         from operand-resolution-loop misses",
        fig8_configs(),
        workloads,
        budget,
        FigureKind::DraPairSpeedup,
    )
}

/// **Figure 9** — where operands come from under the DRA (7_3
/// configuration, 5-cycle register file): pre-read / forwarding buffer /
/// CRC / miss fractions per workload.
fn fig9_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "fig9",
        "Operand sources under the DRA (7_3, 5-cycle register file)",
        "more than half of operands come from the forwarding buffer; \
         the rest split between pre-read and the CRCs; miss rates are \
         well under 1% except apsi at ~1.5%",
        vec![("dra:7_3 (rf5)".to_string(), PipelineConfig::dra_for_rf(5))],
        workloads,
        budget,
        FigureKind::OperandSources,
    )
}

/// The labeled machines of the load-policy ablation.
fn load_policy_configs() -> Vec<(String, PipelineConfig)> {
    [
        ("reissue-tree", LoadSpecPolicy::ReissueTree),
        ("reissue-shadow", LoadSpecPolicy::ReissueShadow),
        ("stall", LoadSpecPolicy::Stall),
        ("refetch", LoadSpecPolicy::Refetch),
    ]
    .into_iter()
    .map(|(name, p)| {
        (
            name.to_string(),
            PipelineConfig {
                load_policy: p,
                ..PipelineConfig::base()
            },
        )
    })
    .collect()
}

/// **§2.2.2 ablation** — the four load-resolution-loop management
/// policies, as speedups relative to the paper's choice (tree reissue).
fn load_policy_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    // Append the pointer-chase microbenchmark: the workload where the
    // load-resolution-loop policy is the entire story.
    let mut workloads: Vec<Workload> = workloads.to_vec();
    workloads.push(Workload::Micro("chase"));
    spec(
        "ablation-load-policy",
        "Load mis-speculation recovery policies (relative to tree reissue)",
        "reissue beats stall; refetch is significantly worse than reissue (paper §2.2.2); \
         21264-style shadow reissue trails tree reissue",
        load_policy_configs(),
        &workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    )
}

/// The labeled machines of the DRA-design ablation.
fn dra_design_configs() -> Vec<(String, PipelineConfig)> {
    use looseloops_regs::CrcPolicy;
    let dra = |entries: usize, policy: CrcPolicy, cleanup: bool| {
        let mut cfg = PipelineConfig::dra_for_rf(5);
        cfg.scheme = looseloops_pipeline::RegisterScheme::Dra {
            crc_entries: entries,
            crc_policy: policy,
        };
        cfg.dra_ideal_squash_cleanup = cleanup;
        cfg
    };
    vec![
        (
            "fifo-16 (paper)".to_string(),
            dra(16, CrcPolicy::Fifo, false),
        ),
        ("lru-16".to_string(), dra(16, CrcPolicy::Lru, false)),
        ("fifo-8".to_string(), dra(8, CrcPolicy::Fifo, false)),
        ("fifo-32".to_string(), dra(32, CrcPolicy::Fifo, false)),
        ("ideal-cleanup".to_string(), dra(16, CrcPolicy::Fifo, true)),
    ]
}

/// **DRA design ablation** — the design choices DESIGN.md calls out:
/// CRC size (8/16/32 entries), CRC replacement policy (FIFO vs the
/// "smarter" LRU the paper deemed unnecessary), and idealized
/// insertion-table cleanup on squash. All at the 5-cycle-RF DRA (7_3),
/// relative to the paper's 16-entry FIFO.
fn dra_design_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "ablation-dra-design",
        "DRA design choices (7_3, 5-cycle RF; relative to the paper's 16-entry FIFO CRC)",
        "paper §5.1: mechanisms smarter than FIFO gain almost nothing; capacity matters          more than policy",
        dra_design_configs(),
        workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    )
}

/// The labeled machines of the forwarding-window ablation.
fn fwd_window_configs() -> Vec<(String, PipelineConfig)> {
    [9u64, 5, 13, 17]
        .into_iter()
        .map(|w| {
            (
                format!("window-{w}"),
                PipelineConfig {
                    fwd_window: w,
                    ..PipelineConfig::dra_for_rf(5)
                },
            )
        })
        .collect()
}

/// **Forwarding-window ablation** — the base machine's buffer retains 9
/// cycles of results (5 for long-latency ops + 4 of write-back delay,
/// §2.2.1). Shorter windows push more operands onto the register-file /
/// CRC paths; longer ones are increasingly unimplementable CAMs.
fn fwd_window_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "ablation-fwd-window",
        "Forwarding-buffer retention window under the DRA (7_3; relative to the paper's 9)",
        "the 9-cycle window was sized to hand values to the register file exactly as          they expire; shrinking it shifts traffic to the CRCs (more operand misses),          growing it buys little because the gap distribution has a long tail (Figure 6)",
        fwd_window_configs(),
        workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    )
}

/// The labeled machines of the IQ-capacity ablation.
fn iq_size_configs() -> Vec<(String, PipelineConfig)> {
    [128usize, 64, 32, 256]
        .into_iter()
        .map(|n| {
            (
                format!("iq-{n}"),
                PipelineConfig {
                    iq_entries: n,
                    ..PipelineConfig::base()
                },
            )
        })
        .collect()
}

/// **IQ-capacity ablation** — §2.2.2's IQ-pressure argument: reissue
/// retention shrinks the effective window, so smaller IQs magnify the
/// load-resolution loop's cost.
fn iq_size_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "ablation-iq-size",
        "Instruction-queue capacity on the base machine (relative to the paper's 128)",
        "issued instructions are retained for the 8-cycle loop delay plus a clear          cycle; small IQs lose exposed ILP exactly as §2.2.2 argues",
        iq_size_configs(),
        workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    )
}

/// The labeled machines of the prefetcher ablation.
fn prefetch_configs() -> Vec<(String, PipelineConfig)> {
    use looseloops_mem::PrefetchConfig;
    let with_pf = |mut cfg: PipelineConfig| {
        cfg.mem.prefetch = Some(PrefetchConfig::default());
        cfg
    };
    vec![
        ("base".to_string(), PipelineConfig::base_for_rf(5)),
        (
            "base+prefetch".to_string(),
            with_pf(PipelineConfig::base_for_rf(5)),
        ),
        ("dra".to_string(), PipelineConfig::dra_for_rf(5)),
        (
            "dra+prefetch".to_string(),
            with_pf(PipelineConfig::dra_for_rf(5)),
        ),
    ]
}

/// **Prefetcher extension** — the paper attacks the load-resolution
/// loop's *delay* (DRA); a stride prefetcher attacks its mis-speculation
/// *rate*. This ablation runs base / base+prefetch / DRA / DRA+prefetch
/// (5-cycle RF) to show the two are complementary.
fn prefetch_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "ablation-prefetch",
        "Stride prefetching vs / with the DRA (5-cycle RF; relative to the base machine)",
        "extension beyond the paper: prefetching cuts the load loop's mis-speculation          rate, the DRA cuts its delay — the streaming codes should take both",
        prefetch_configs(),
        workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    )
}

/// The labeled machines of the predictor ablation.
fn predictor_configs() -> Vec<(String, PipelineConfig)> {
    use looseloops_branch::PredictorKind;
    [
        ("tournament", PredictorKind::Tournament),
        ("gshare", PredictorKind::Gshare),
        ("local", PredictorKind::Local),
        ("bimodal", PredictorKind::Bimodal),
        ("always-taken", PredictorKind::Taken),
    ]
    .into_iter()
    .map(|(n, k)| {
        (
            n.to_string(),
            PipelineConfig {
                predictor: k,
                ..PipelineConfig::base()
            },
        )
    })
    .collect()
}

/// **Predictor ablation** — the branch-resolution loop's mis-speculation
/// rate under different direction predictors, as speedup relative to the
/// paper-style tournament.
fn predictor_spec(workloads: &[Workload], budget: RunBudget) -> FigureSpec {
    spec(
        "ablation-predictor",
        "Direction predictors on the base machine (relative to the tournament)",
        "weaker predictors fire the branch-resolution loop more often; the          branch-limited integer codes pay the most",
        predictor_configs(),
        workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    )
}

/// Per-loop CPI stacks for a labeled config grid × workload set: one row
/// per (config, workload) point, columns in [`CpiComponent::ALL`]
/// (re-exported as `looseloops_pipeline::CpiComponent`) order. Every point
/// is a memoized [`SweepEngine`] job, so generating the stacks for a
/// figure that already ran is pure cache hits.
///
/// # Errors
///
/// As [`FigureSpec::run_on`].
pub fn cpi_stack_report_on(
    sweep: &SweepEngine,
    id: &str,
    title: &str,
    configs: &[(String, PipelineConfig)],
    workloads: &[Workload],
    budget: RunBudget,
) -> Result<CpiStackReport, SweepError> {
    let grid = spec(
        id,
        title,
        "",
        configs.to_vec(),
        workloads,
        budget,
        FigureKind::Speedup { baseline: 0 },
    );
    let results = grid.run_on(sweep)?;
    Ok(grid.stacks_report(id.into(), title.into(), &results))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunBudget {
        RunBudget {
            warmup: 500,
            measure: 4_000,
            max_cycles: 2_000_000,
        }
    }

    /// Run the registry's figure `id` over `workloads` on a fresh engine.
    fn figure(id: &str, workloads: &[Workload]) -> FigureResult {
        let spec = FigureSpec::for_id(id, workloads, tiny()).expect("registry id");
        spec.render(&spec.run_on(&SweepEngine::new(2)).expect("figure runs"))
    }

    #[test]
    fn paper_set_has_thirteen_workloads() {
        assert_eq!(Workload::paper_set().len(), 13);
    }

    #[test]
    fn registry_ids_are_distinct_resolve_and_keep_their_order() {
        assert_eq!(
            FigureSpec::IDS,
            [
                "fig4",
                "fig5",
                "fig6",
                "fig8",
                "fig9",
                "load-policy",
                "dra-design",
                "fwd-window",
                "iq-size",
                "prefetch",
                "predictor",
            ],
            "`figure all` order"
        );
        let ws = Workload::smoke_set();
        let mut canonical = std::collections::HashSet::new();
        for id in FigureSpec::IDS {
            let spec = FigureSpec::for_id(id, &ws, tiny()).expect("every id resolves");
            assert!(canonical.insert(spec.id.clone()), "duplicate figure {id}");
            if id.starts_with("fig") {
                assert_eq!(spec.id, *id);
            } else {
                let alias = format!("ablation-{id}");
                assert_eq!(spec.id, alias);
                let long = FigureSpec::for_id(&alias, &ws, tiny()).expect("alias resolves");
                assert_eq!(format!("{long:?}"), format!("{spec:?}"), "{alias} vs {id}");
            }
        }
        assert!(FigureSpec::for_id("nonesuch", &ws, tiny()).is_none());
    }

    #[test]
    fn fig4_shape() {
        let f = figure("fig4", &Workload::smoke_set());
        assert_eq!(f.series.len(), 4);
        assert_eq!(f.columns.len(), 3);
        // Baseline series is exactly 1.0 everywhere.
        for v in &f.series[0].values {
            assert!((v - 1.0).abs() < 1e-12);
        }
        // Longer pipes do not help.
        for (b, long) in f.series[0].values.iter().zip(&f.series[3].values) {
            assert!(long <= &(b * 1.02), "9_9 must not beat 3_3: {long} vs {b}");
        }
    }

    #[test]
    fn fig6_cdf_is_monotone() {
        let f = figure("fig6", &[]);
        let vals = &f.series[0].values;
        for w in vals.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(vals[60] <= 1.0 && vals[0] >= 0.0);
    }

    #[test]
    fn fig9_fractions_sum_to_one() {
        let f = figure("fig9", &[Workload::Single(Benchmark::M88ksim)]);
        let total: f64 = f.series.iter().map(|s| s.values[0]).sum();
        assert!((total - 1.0).abs() < 1e-9, "fractions sum to {total}");
        // DRA never uses the baseline register-file path.
        let rf = f.series.iter().find(|s| s.label == "regfile").unwrap();
        assert_eq!(rf.values[0], 0.0);
    }
}
