//! The traffic the benchmark replays: the `FigureSpec` registry grid that
//! `looseloops figure all` runs, and the seeded order ops draw from it.

use looseloops::{FigureSpec, Job, RunBudget, Workload};
use looseloops_rng::Rng;
use std::collections::{BTreeMap, HashSet};

/// Every figure `figure all` regenerates, in its order.
pub const FIGURE_IDS: [&str; 11] = [
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

/// The `BENCH_pr10.json` reference budget: 20k warm-up + 100k measured.
pub fn reference_budget() -> RunBudget {
    RunBudget {
        warmup: 20_000,
        measure: 100_000,
        max_cycles: 20_000_000,
    }
}

/// The budget the warm result store is filled at: small, so the fill in
/// set-up stays short. A store hit costs the same at any budget.
pub fn store_budget() -> RunBudget {
    RunBudget {
        warmup: 300,
        measure: 1_200,
        max_cycles: 2_000_000,
    }
}

/// Instructions a job stands for: its warm-up plus measured budget.
pub fn budget_instructions(b: RunBudget) -> u64 {
    b.warmup + b.measure
}

/// The registry's figure specs over the paper's workload set.
pub fn specs(budget: RunBudget) -> Vec<FigureSpec> {
    FIGURE_IDS
        .iter()
        .map(|id| FigureSpec::for_id(id, &Workload::paper_set(), budget).expect("registry id"))
        .collect()
}

/// One distinct grid job, named after the first figure that runs it.
#[derive(Debug, Clone)]
pub struct Point {
    /// `figure/config/workload`, e.g. `fig4/3_3/gcc`.
    pub name: String,
    pub job: Job,
}

/// The figure of `job` inside `spec` (row-major configs × workloads).
pub fn point_name(spec: &FigureSpec, index: usize, job: &Job) -> String {
    let config = &spec.configs[index / spec.workloads.len().max(1)].0;
    format!("{}/{config}/{}", spec.id, job.workload.name())
}

/// The distinct jobs of `specs`, in first-occurrence order.
pub fn grid(specs: &[FigureSpec]) -> Vec<Point> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for spec in specs {
        for (i, job) in spec.jobs().into_iter().enumerate() {
            if seen.insert(job.key()) {
                out.push(Point {
                    name: point_name(spec, i, &job),
                    job,
                });
            }
        }
    }
    out
}

/// A seeded permutation of `0..strata.len()` in which every prefix holds
/// each stratum in proportion to its size (to within one element).
///
/// Each stratum is shuffled, its k-th member of n is placed at
/// `(k + u) / n` for a seeded offset `u` in [0, 1), and the positions are
/// merged. A run that stops after any number of ops has therefore seen
/// the grid's own mix of workloads, whatever the seed.
pub fn op_order(strata: &[String], seed: u64) -> Vec<usize> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in strata.iter().enumerate() {
        groups.entry(s.as_str()).or_default().push(i);
    }
    let mut placed: Vec<(f64, u64, usize)> = Vec::with_capacity(strata.len());
    for members in groups.values_mut() {
        rng.shuffle(members);
        let u = rng.gen_f64();
        let tie = rng.next_u64();
        let n = members.len() as f64;
        for (k, &i) in members.iter().enumerate() {
            placed.push(((k as f64 + u) / n, tie, i));
        }
    }
    placed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    placed.into_iter().map(|(_, _, i)| i).collect()
}

/// A seeded order of the figure ids for one op.
pub fn figure_order(rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..FIGURE_IDS.len()).collect();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strata() -> Vec<String> {
        let mut s = Vec::new();
        for (name, n) in [("gcc", 30), ("swim", 29), ("chase", 4), ("pair", 12)] {
            s.extend(std::iter::repeat_n(name.to_string(), n));
        }
        s
    }

    #[test]
    fn order_is_reproducible_for_a_seed_and_differs_across_seeds() {
        let s = strata();
        assert_eq!(op_order(&s, 7), op_order(&s, 7));
        assert_ne!(op_order(&s, 7), op_order(&s, 8));
        let mut sorted = op_order(&s, 7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn every_prefix_keeps_the_grid_mix() {
        let s = strata();
        let total = s.len() as f64;
        for seed in 0..20 {
            let order = op_order(&s, seed);
            for name in ["gcc", "swim", "chase", "pair"] {
                let n = s.iter().filter(|x| *x == name).count() as f64;
                let mut seen = 0.0;
                for (len, &i) in order.iter().enumerate() {
                    if s[i] == name {
                        seen += 1.0;
                    }
                    let want = (len + 1) as f64 * n / total;
                    assert!((seen - want).abs() <= 2.0, "seed {seed} {name} at {len}");
                }
            }
        }
    }

    #[test]
    fn figure_all_grid_has_420_distinct_jobs() {
        let g = grid(&specs(reference_budget()));
        assert_eq!(g.len(), 420);
        let names: HashSet<&str> = g.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), g.len(), "point names are unique");
    }
}
