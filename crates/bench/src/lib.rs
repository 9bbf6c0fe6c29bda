//! Shared budget handling for the bench targets.
//!
//! The figures themselves are regenerated by `looseloops figure <id>`
//! (see EXPERIMENTS.md for each table's command). The targets here are
//! `micro` (component micro-benchmarks), `simmips` (the sim-MIPS
//! regression harness behind `BENCH_pr10.json`) and `cpi_stack` (per-loop
//! CPI stacks, base vs DRA). They run under `cargo bench` with
//! `harness = false`; budgets are overridable for quick runs:
//!
//! ```text
//! LOOSELOOPS_WARMUP=5000 LOOSELOOPS_MEASURE=50000 cargo bench --bench cpi_stack
//! ```

use looseloops::RunBudget;

/// Apply `LOOSELOOPS_WARMUP` / `LOOSELOOPS_MEASURE` / `LOOSELOOPS_MAX_CYCLES`
/// overrides from `lookup` to the default bench budget.
///
/// # Errors
///
/// A value that does not parse as an unsigned integer is an error naming
/// the variable and the offending value.
pub fn budget_from_vars(lookup: impl Fn(&str) -> Option<String>) -> Result<RunBudget, String> {
    fn parse(name: &str, value: &str) -> Result<u64, String> {
        value
            .trim()
            .parse()
            .map_err(|_| format!("{name}: cannot parse `{value}` as an unsigned integer"))
    }
    let mut b = RunBudget::bench();
    if let Some(v) = lookup("LOOSELOOPS_WARMUP") {
        b.warmup = parse("LOOSELOOPS_WARMUP", &v)?;
    }
    if let Some(v) = lookup("LOOSELOOPS_MEASURE") {
        b.measure = parse("LOOSELOOPS_MEASURE", &v)?;
    }
    if let Some(v) = lookup("LOOSELOOPS_MAX_CYCLES") {
        b.max_cycles = parse("LOOSELOOPS_MAX_CYCLES", &v)?;
    }
    Ok(b)
}

/// Read the run budget from the environment, defaulting to
/// [`RunBudget::bench`].
///
/// # Errors
///
/// As [`budget_from_vars`].
pub fn try_budget_from_env() -> Result<RunBudget, String> {
    budget_from_vars(|name| std::env::var(name).ok())
}

/// [`try_budget_from_env`] for the bench mains: a malformed variable
/// prints a clear error and exits instead of unwinding through a panic.
pub fn budget_from_env() -> RunBudget {
    try_budget_from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        }
    }

    #[test]
    fn defaults_when_unset() {
        let b = budget_from_vars(|_| None).unwrap();
        assert_eq!(b, RunBudget::bench());
    }

    #[test]
    fn all_three_overrides_apply() {
        let b = budget_from_vars(vars(&[
            ("LOOSELOOPS_WARMUP", "10"),
            ("LOOSELOOPS_MEASURE", "20"),
            ("LOOSELOOPS_MAX_CYCLES", "30"),
        ]))
        .unwrap();
        assert_eq!((b.warmup, b.measure, b.max_cycles), (10, 20, 30));
    }

    #[test]
    fn max_cycles_alone_is_honored() {
        let b = budget_from_vars(vars(&[("LOOSELOOPS_MAX_CYCLES", "123456")])).unwrap();
        assert_eq!(b.max_cycles, 123_456);
        assert_eq!(b.warmup, RunBudget::bench().warmup);
    }

    #[test]
    fn bad_values_name_the_variable_and_value() {
        let e = budget_from_vars(vars(&[("LOOSELOOPS_MEASURE", "lots")])).unwrap_err();
        assert!(
            e.contains("LOOSELOOPS_MEASURE") && e.contains("`lots`"),
            "{e}"
        );
        let e = budget_from_vars(vars(&[("LOOSELOOPS_MAX_CYCLES", "-3")])).unwrap_err();
        assert!(
            e.contains("LOOSELOOPS_MAX_CYCLES") && e.contains("`-3`"),
            "{e}"
        );
    }
}
