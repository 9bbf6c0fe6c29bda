//! hostbench — host-time benchmark of the looseloops simulator.
//!
//! ```text
//! hostbench --workload <detailed|sampled|warm-store|serve> --seed N --seconds S --trace <0|1>
//! hostbench --regenerate      # rewrite reference.tsv
//! ```
//!
//! Runs one workload in this process, checks every op's output against
//! the references, and prints one JSON result as the last line of
//! standard output: the end-to-end metrics untraced, the per-layer
//! metrics traced. See README.md.

mod grid;
mod host;
mod reference;
mod stats;
mod trace;
mod workloads;

use host::{calibrate, peak_rss_mb, speed_factor, HostSample, Stopwatch};
use looseloops::pipeline::profile;
use reference::References;
use stats::{median, tail, windows};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::{layers, Tracer};
use workloads::{work_dir, Bench, Kind, Modelled, Outcome};

/// Set-ups per run: at least this many, and more until they have taken
/// `SETUP_MIN_SECONDS`; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Rates are the median over up to this many consecutive windows of
/// ops, each at least `RATE_WINDOW_OPS` long so it holds the grid's mix
/// (a run with fewer than twice that many ops is one window).
const RATE_WINDOWS: usize = 10;
const RATE_WINDOW_OPS: usize = 100;
/// Fewest ops a run makes, so the tail percentile has samples beyond it.
const MIN_OPS: usize = 20;
/// Fewest op pairs a traced run makes.
const MIN_TRACED_OPS: usize = 11;
/// Where run-time scratch (stores, span files) goes, from the checkout root.
const OUT_DIR: &str = "hostbench/out";

/// Span names whose self-time share the traced run reports. Each sits
/// under an `op` root (calls the op makes) or a `replay` root (the nested
/// calls replayed after the op).
const SPAN_NAMES: [&str; 19] = [
    "op",
    "sweep.try_run_jobs",
    "experiments.spec",
    "experiments.render",
    "server.request",
    "replay",
    "sweep.key",
    "workload.programs",
    "pipeline.new",
    "pipeline.run",
    "checkpoint.load",
    "checkpoint.cursor",
    "checkpoint.snapshot",
    "checkpoint.restore",
    "isa.advance",
    "store.load",
    "server.hello",
    "server.figure",
    "server.done",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Regenerate,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv == ["--regenerate"] {
        return Ok(Mode::Regenerate);
    }
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                kv.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed: not an integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds: not a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Mode::Run(Args {
        kind,
        seed,
        seconds,
        trace,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!(
            "hostbench: {e}\nusage: hostbench --workload <detailed|sampled|warm-store|serve> \
             --seed N --seconds S --trace <0|1>\n       hostbench --regenerate"
        );
        std::process::exit(2);
    });
    match mode {
        Mode::Regenerate => {
            let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.tsv");
            if let Err(e) = std::fs::write(&path, reference::regenerate()) {
                eprintln!("hostbench: write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[hostbench] wrote {}", path.display());
        }
        Mode::Run(args) => {
            let work = work_dir(Path::new(OUT_DIR), args.kind.name());
            let result = run(&args, &work);
            let _ = std::fs::remove_dir_all(&work);
            match result {
                Ok(lines) => {
                    for l in lines {
                        println!("{l}");
                    }
                }
                Err(e) => {
                    eprintln!("hostbench: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Host-speed calibration around timed work. `host::calibrate` runs once
/// first and then after every set-up, and after every op of a workload
/// timed in CPU time (`Kind::cpu_clock`); the time in between is taken to
/// the reference host speed by the mean of the two readings either side
/// of it. Ops on the wall clock keep their measured time.
struct Calibration {
    ops: bool,
    /// Every reading (1 = the reference host's fast phase).
    readings: Vec<f64>,
}

impl Calibration {
    fn new(kind: Kind) -> Calibration {
        Calibration {
            ops: kind.cpu_clock(),
            readings: vec![calibrate()],
        }
    }

    /// The factor for the work done since the last calibration.
    fn next_factor(&mut self) -> f64 {
        let before = *self.readings.last().expect("a first calibration");
        let after = calibrate();
        self.readings.push(after);
        speed_factor(before, after)
    }

    /// Run op `i` and take its time to the reference host speed.
    fn op(&mut self, bench: &mut Bench, i: usize, tr: &mut Tracer) -> Outcome {
        let mut out = bench.op(i, tr);
        out.scale(if self.ops { self.next_factor() } else { 1.0 });
        out
    }
}

/// Set the workload up repeatedly (each time in a fresh directory) and
/// keep the last; return it with every set-up's process CPU seconds, at
/// the reference host speed. Set-up computes on this process's threads on
/// every workload (`serve`'s accept waits in its warm pass are sleeps).
fn setup(
    kind: Kind,
    seed: u64,
    refs: &Arc<References>,
    work: &Path,
    cal: &mut Calibration,
) -> Result<(Bench, Vec<f64>), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept: Option<(Bench, PathBuf)> = None;
    let mut k = 0;
    while k < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        k += 1;
        let dir = work.join(format!("setup{k}"));
        let t = Stopwatch::start(true);
        let b = Bench::setup(kind, seed, refs, &dir)?;
        let secs = t.stop().0;
        times.push(secs * cal.next_factor());
        if let Some((mut old, old_dir)) = kept.replace((b, dir)) {
            old.shutdown()?;
            drop(old);
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    Ok((kept.expect("at least one set-up").0, times))
}

fn run(args: &Args, work: &Path) -> Result<Vec<String>, String> {
    let refs = Arc::new(References::builtin());
    let host0 = HostSample::now();
    let wall0 = Instant::now();
    let mut cal = Calibration::new(args.kind);
    let (mut bench, setups) = setup(args.kind, args.seed, &refs, work, &mut cal)?;
    let mut lines = Vec::new();
    let (metrics, outs) = if args.trace {
        traced(args, &mut bench, &refs, work, &setups, &mut cal, &mut lines)?
    } else {
        let outs = plain(args, &mut bench, &mut cal);
        (end_to_end(&outs, &setups, bench.cpi_err_pct(&outs)), outs)
    };
    bench.shutdown()?;
    let wall_s = wall0.elapsed().as_secs_f64();

    let failures: Vec<&str> = outs.iter().filter_map(|o| o.failure.as_deref()).collect();
    for f in failures.iter().take(5) {
        eprintln!("[hostbench] failed op: {f}");
    }
    let secs: Vec<f64> = outs.iter().map(|o| o.secs).collect();
    let raw: Vec<f64> = outs.iter().map(|o| o.raw_secs).collect();
    let wall: Vec<f64> = outs.iter().map(|o| o.wall_secs).collect();
    let calibration = format!(
        "{{\"readings\":{},\"median\":{},\"min\":{},\"max\":{}}}",
        cal.readings.len(),
        median(&cal.readings),
        cal.readings.iter().copied().fold(f64::INFINITY, f64::min),
        cal.readings.iter().copied().fold(0.0, f64::max)
    );
    let mut diag = format!(
        "{{\"diagnostics\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"ops\":{},\"op_clock\":\"{}\",\"op_raw_p50_ms\":{},\"op_wall_p50_ms\":{},\"calibration\":{calibration},\"tail_percentile\":{},\"setups\":{},\"setup_s_min\":{},\"setup_s_max\":{},\"peak_rss_mb\":{},\"host\":{}",
        args.kind.name(),
        args.seed,
        args.trace,
        outs.len(),
        if args.kind.cpu_clock() { "process-cpu" } else { "wall" },
        median(&raw) * 1e3,
        median(&wall) * 1e3,
        tail(&secs).1,
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        setups.iter().copied().fold(0.0, f64::max),
        peak_rss_mb(),
        host0.delta_json(&HostSample::now(), wall_s)
    );
    diag.push_str("}}");
    lines.push(diag);
    lines.push(result_line(
        failures.is_empty(),
        outs.len(),
        failures.len(),
        &metrics,
    ));
    Ok(lines)
}

/// Closed loop: ops back to back until `seconds` have passed and the
/// run has at least `MIN_OPS` ops and one full error pass.
fn plain(args: &Args, bench: &mut Bench, cal: &mut Calibration) -> Vec<Outcome> {
    let mut off = Tracer::new(false);
    let min_ops = args.kind.error_pass(bench.points.len()).max(MIN_OPS);
    let t = Instant::now();
    let mut outs = Vec::new();
    while outs.len() < min_ops || t.elapsed().as_secs_f64() < args.seconds {
        outs.push(cal.op(bench, outs.len(), &mut off));
    }
    outs
}

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(outs: &[Outcome], setups: &[f64], cpi_err_pct: f64) -> Metrics {
    let secs: Vec<f64> = outs.iter().map(|o| o.secs).collect();
    let cuts = windows(outs.len(), RATE_WINDOWS, RATE_WINDOW_OPS);
    let rate = |f: &dyn Fn(&Outcome) -> f64| {
        let per_window: Vec<f64> = cuts
            .iter()
            .map(|r| {
                let w = &outs[r.clone()];
                w.iter().map(f).sum::<f64>() / w.iter().map(|o| o.secs).sum::<f64>()
            })
            .collect();
        median(&per_window)
    };
    vec![
        ("setup_s".into(), median(setups), "s"),
        ("op_p50_ms".into(), median(&secs) * 1e3, "ms"),
        ("op_tail_ms".into(), tail(&secs).0 * 1e3, "ms"),
        ("ops_per_s".into(), rate(&|_| 1.0), "1/s"),
        (
            "sim_mips".into(),
            rate(&|o| o.instructions as f64) / 1e6,
            "MIPS",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ("cpi_err_pct".into(), cpi_err_pct, "%"),
    ]
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// Per-layer values measurable from one set of spans.
fn span_values(spans: &[trace::Span]) -> BTreeMap<&'static str, f64> {
    let (by, roots) = layers(spans);
    let mut v = BTreeMap::new();
    let mean_us = |n: &str| by.get(n).map(|l| l.mean_ns() / 1e3);
    let per_inst = |n: &str| {
        by.get(n)
            .filter(|l| l.work > 0)
            .map(|l| l.total_ns as f64 / l.work as f64)
    };
    let mut put = |k: &'static str, x: Option<f64>| {
        if let Some(x) = x {
            v.insert(k, x);
        }
    };
    put("pipeline.run_ns_per_inst", per_inst("pipeline.run"));
    put("pipeline.new_us", mean_us("pipeline.new"));
    put("isa.ff_ns_per_inst", per_inst("isa.advance"));
    put("checkpoint.load_us", mean_us("checkpoint.load"));
    put("checkpoint.restore_us", mean_us("checkpoint.restore"));
    put("checkpoint.snapshot_us", mean_us("checkpoint.snapshot"));
    put("workload.programs_us", mean_us("workload.programs"));
    put("sweep.key_us", mean_us("sweep.key"));
    put("store.load_us", mean_us("store.load"));
    put("experiments.render_us", mean_us("experiments.render"));
    put("server.hello_ms", mean_us("server.hello").map(|x| x / 1e3));
    put(
        "server.figure_ms",
        mean_us("server.figure").map(|x| x / 1e3),
    );
    put("server.done_ms", mean_us("server.done").map(|x| x / 1e3));
    if by.contains_key("checkpoint.restore") {
        let t = |n: &str| by.get(n).map_or(0, |l| l.total_ns) as f64;
        let replay = roots.get("replay").copied().unwrap_or(0).max(1) as f64;
        put(
            "sampling.detail_share",
            Some((t("pipeline.new") + t("checkpoint.restore") + t("pipeline.run")) / replay),
        );
    }
    v
}

/// Per-op means of the counters, and modelled counts per 1000 retired.
fn counter_values(outs: &[Outcome], server: bool) -> Vec<(&'static str, f64)> {
    let n = outs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Outcome) -> u64| outs.iter().map(f).sum::<u64>() as f64 / n;
    let mut m = Modelled::default();
    for o in outs {
        m.merge(&o.modelled);
    }
    let pki = |x: u64| 1000.0 * x as f64 / m.retired.max(1) as f64;
    let mut v = vec![
        ("sweep.jobs_run", mean(&|o| o.counters.jobs_run)),
        ("sweep.cache_hits", mean(&|o| o.counters.cache_hits)),
        ("sweep.store_hits", mean(&|o| o.counters.store_hits)),
        ("pipeline.ipc", m.retired as f64 / m.cycles.max(1) as f64),
        (
            "pipeline.fetched_per_retired",
            m.fetched as f64 / m.retired.max(1) as f64,
        ),
        ("pipeline.replays_pki", pki(m.replays)),
        ("mem.l1d_miss_pki", pki(m.l1d_misses)),
        ("mem.l2_miss_pki", pki(m.l2_misses)),
        ("branch.mispredict_pki", pki(m.mispredicts)),
        ("regs.operand_miss_pki", pki(m.operand_misses)),
    ];
    if server {
        v.extend([
            (
                "server.jobs_requested",
                mean(&|o| o.counters.jobs_requested),
            ),
            ("server.cache_hits", mean(&|o| o.counters.cache_hits)),
            ("server.store_hits", mean(&|o| o.counters.store_hits)),
            ("server.dedup_hits", mean(&|o| o.counters.dedup_hits)),
        ]);
    }
    v
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("pipeline.run_ns_per_inst".into(), "ns"),
        ("pipeline.new_us".into(), "us"),
        ("pipeline.stepped_per_inst".into(), "ratio"),
        ("pipeline.skipped_share".into(), "share"),
    ];
    for s in profile::STAGE_NAMES {
        v.push((format!("pipeline.stage.{s}_share"), "share"));
    }
    v.extend([
        ("pipeline.profiler_overhead_pct".into(), "%"),
        ("pipeline.ipc".into(), "1/cycle"),
        ("pipeline.fetched_per_retired".into(), "ratio"),
        ("pipeline.replays_pki".into(), "count/1000"),
        ("mem.l1d_miss_pki".into(), "count/1000"),
        ("mem.l2_miss_pki".into(), "count/1000"),
        ("branch.mispredict_pki".into(), "count/1000"),
        ("regs.operand_miss_pki".into(), "count/1000"),
        ("isa.ff_ns_per_inst".into(), "ns"),
        ("checkpoint.load_us".into(), "us"),
        ("checkpoint.restore_us".into(), "us"),
        ("checkpoint.snapshot_us".into(), "us"),
        ("workload.programs_us".into(), "us"),
        ("sampling.detail_share".into(), "share"),
        ("checkpoint.fill_s".into(), "s"),
        ("sweep.key_us".into(), "us"),
        ("store.load_us".into(), "us"),
        ("experiments.render_us".into(), "us"),
        ("sweep.jobs_run".into(), "count"),
        ("sweep.cache_hits".into(), "count"),
        ("sweep.store_hits".into(), "count"),
        ("store.fill_s".into(), "s"),
        ("server.hello_ms".into(), "ms"),
        ("server.figure_ms".into(), "ms"),
        ("server.done_ms".into(), "ms"),
        ("server.jobs_requested".into(), "count"),
        ("server.cache_hits".into(), "count"),
        ("server.store_hits".into(), "count"),
        ("server.dedup_hits".into(), "count"),
        ("trace.overhead_pct".into(), "%"),
    ]);
    for s in SPAN_NAMES {
        v.push((format!("self.{s}_share"), "share"));
    }
    v
}

/// The traced run. Op pairs first (each op untraced, then traced with
/// its replay), until two thirds of `seconds`; then one traced op of
/// every other workload, which supplies the layers this workload does
/// not call; then the stage profiler over the first ops again (the
/// profiler cannot be switched off once on, so it comes last).
fn traced(
    args: &Args,
    bench: &mut Bench,
    refs: &Arc<References>,
    work: &Path,
    setups: &[f64],
    cal: &mut Calibration,
    lines: &mut Vec<String>,
) -> Result<(Metrics, Vec<Outcome>), String> {
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    let t = Instant::now();
    while a.len() < MIN_TRACED_OPS || t.elapsed().as_secs_f64() < args.seconds * 2.0 / 3.0 {
        let i = a.len();
        a.push(cal.op(bench, i, &mut off));
        b.push(cal.op(bench, i, &mut on));
    }

    // One traced op of each other workload.
    let mut probe_values: Vec<(Kind, BTreeMap<&'static str, f64>)> = Vec::new();
    let mut probe_counters: Vec<(&'static str, f64)> = Vec::new();
    let mut fills: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let own_fill = bench.fill_s.unwrap_or(0.0);
    match args.kind {
        Kind::Sampled => {
            fills.insert("checkpoint.fill_s", (own_fill, "own"));
        }
        Kind::WarmStore | Kind::Serve => {
            fills.insert("store.fill_s", (own_fill, "own"));
        }
        Kind::Detailed => {}
    }
    let mut profiled: Option<Bench> = None;
    let mut probe_outs = Vec::new();
    for kind in Kind::ALL.into_iter().filter(|&k| k != args.kind) {
        let mut p = Bench::setup(
            kind,
            args.seed,
            refs,
            &work.join(format!("probe-{}", kind.name())),
        )?;
        let mut tr = Tracer::new(true);
        let out = p.op(0, &mut tr);
        if let Some(fill) = p.fill_s {
            let name = if kind == Kind::Sampled {
                "checkpoint.fill_s"
            } else {
                "store.fill_s"
            };
            fills.entry(name).or_insert((fill, kind.name()));
        }
        if kind == Kind::Serve {
            probe_counters = counter_values(std::slice::from_ref(&out), true);
        }
        probe_values.push((kind, span_values(&tr.spans)));
        tr.write(&Path::new(OUT_DIR).join(format!(
            "spans-{}-seed{}-probe-{}.jsonl",
            args.kind.name(),
            args.seed,
            kind.name()
        )))
        .map_err(|e| e.to_string())?;
        probe_outs.push(out);
        if kind == Kind::Detailed {
            profiled = Some(p);
        } else {
            p.shutdown()?;
        }
    }

    // The stage profiler, over ops whose untraced time is known.
    let profiled_kind;
    let (pbench, base): (&mut Bench, Vec<f64>) = if args.kind.simulates() {
        profiled_kind = args.kind;
        (bench, a.iter().map(|o| o.secs).collect())
    } else {
        profiled_kind = Kind::Detailed;
        let p = profiled.as_mut().expect("detailed probe");
        let base = (0..3).map(|i| cal.op(p, i, &mut off).secs).collect();
        (p, base)
    };
    profile::enable();
    let _ = profile::take_report();
    let t = Instant::now();
    let mut c = Vec::new();
    while c.len() < base.len() && (c.is_empty() || t.elapsed().as_secs_f64() < args.seconds / 3.0) {
        c.push(cal.op(pbench, c.len(), &mut off));
    }
    let report = profile::take_report().unwrap_or_default();
    let c_secs: f64 = c.iter().map(|o| o.secs).sum();
    let base_secs: f64 = base[..c.len()].iter().sum();
    let profiler_overhead = 100.0 * (c_secs / base_secs - 1.0);
    let c_insts: u64 = c.iter().map(|o| o.detailed_instructions).sum();

    // Assemble the per-layer metrics.
    on.write(&Path::new(OUT_DIR).join(format!(
        "spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    )))
    .map_err(|e| e.to_string())?;
    let own = span_values(&on.spans);
    let mut values: BTreeMap<String, (f64, String)> = BTreeMap::new();
    for (k, x) in &own {
        values.insert((*k).to_string(), (*x, "own".into()));
    }
    for (kind, pv) in &probe_values {
        for (k, x) in pv {
            values
                .entry((*k).to_string())
                .or_insert((*x, format!("probe:{}", kind.name())));
        }
    }
    for (k, (x, src)) in &fills {
        values.insert((*k).to_string(), (*x, (*src).to_string()));
    }
    let own_counters = counter_values(&a, args.kind == Kind::Serve);
    for (k, x) in own_counters {
        values.insert(k.to_string(), (x, "own".into()));
    }
    for (k, x) in probe_counters {
        values
            .entry(k.to_string())
            .or_insert((x, "probe:serve".into()));
    }
    let total = report.total_ns().max(1) as f64;
    for (i, s) in profile::STAGE_NAMES.iter().enumerate() {
        values.insert(
            format!("pipeline.stage.{s}_share"),
            (
                report.stage_ns[i] as f64 / total,
                format!("profiler:{}", profiled_kind.name()),
            ),
        );
    }
    let cycles = (report.stepped_cycles + report.skipped_cycles).max(1) as f64;
    let src = format!("profiler:{}", profiled_kind.name());
    values.insert(
        "pipeline.stepped_per_inst".into(),
        (
            report.stepped_cycles as f64 / c_insts.max(1) as f64,
            src.clone(),
        ),
    );
    values.insert(
        "pipeline.skipped_share".into(),
        (report.skipped_cycles as f64 / cycles, src.clone()),
    );
    values.insert(
        "pipeline.profiler_overhead_pct".into(),
        (profiler_overhead, src),
    );
    let a_secs: Vec<f64> = a.iter().map(|o| o.secs).collect();
    let b_secs: Vec<f64> = b.iter().map(|o| o.secs).collect();
    let trace_overhead = 100.0 * (b_secs.iter().sum::<f64>() / a_secs.iter().sum::<f64>() - 1.0);
    values.insert("trace.overhead_pct".into(), (trace_overhead, "own".into()));
    let (by, roots) = layers(&on.spans);
    let mut shares: Vec<(f64, &str, &str)> = Vec::new();
    for name in SPAN_NAMES {
        let share = by.get(name).map_or(0.0, |l| {
            l.self_ns as f64 / roots.get(l.root).copied().unwrap_or(0).max(1) as f64
        });
        if let Some(l) = by.get(name) {
            shares.push((share, name, l.root));
        }
        values.insert(format!("self.{name}_share"), (share, "own".into()));
    }

    // The human-readable report.
    let ua = end_to_end(&a, setups, bench.cpi_err_pct(&a));
    let ub = end_to_end(&b, setups, bench.cpi_err_pct(&b));
    lines.push(format!(
        "# trace report: workload {} seed {}: {} op pairs (untraced, traced), {} profiled {} ops",
        args.kind.name(),
        args.seed,
        a.len(),
        c.len(),
        profiled_kind.name()
    ));
    for (x, y) in ua.iter().zip(&ub) {
        if matches!(
            x.0.as_str(),
            "op_p50_ms" | "op_tail_ms" | "ops_per_s" | "sim_mips"
        ) {
            lines.push(format!(
                "#   tracing overhead {}: untraced {:.4} {}, traced {:.4} ({:+.2}%)",
                x.0,
                x.1,
                x.2,
                y.1,
                100.0 * (y.1 / x.1 - 1.0)
            ));
        }
    }
    lines.push(format!(
        "#   stage profiler overhead: {profiler_overhead:+.1}% of op time over {} {} ops",
        c.len(),
        profiled_kind.name()
    ));
    shares.sort_by(|x, y| y.0.total_cmp(&x.0));
    for (share, name, root) in shares {
        lines.push(format!(
            "#   self time {:>6.2}% of {root:<6} {name}",
            100.0 * share
        ));
    }
    for (name, unit) in per_layer_names() {
        if let Some((x, src)) = values.get(&name) {
            lines.push(format!("#   {name:<34} {x:>14.4} {unit:<10} [{src}]"));
        }
    }
    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let x = values.get(&name).map_or(0.0, |v| v.0);
            (name, x, unit)
        })
        .collect();
    let mut outs = a;
    outs.extend(b);
    outs.extend(probe_outs);
    outs.extend(c);
    if let Some(mut p) = profiled {
        p.shutdown()?;
    }
    Ok((metrics, outs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use looseloops::json::{parse, JsonValue};

    fn benchmark_json() -> JsonValue {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn listed(b: &JsonValue, key: &str) -> Vec<(String, String)> {
        b.get(key)
            .and_then(JsonValue::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_printed() {
        let b = benchmark_json();
        let layer: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&b, "per_layer"), layer);
        let outs = vec![Outcome {
            secs: 0.1,
            instructions: 1,
            ..Outcome::default()
        }];
        let e2e: Vec<(String, String)> = end_to_end(&outs, &[1.0], 0.5)
            .into_iter()
            .map(|(n, _, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&b, "end_to_end"), e2e);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &vec![("op_p50_ms".into(), 1.25, "ms")]);
        let v = parse(&line).expect("JSON");
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(3));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("op_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("ms"));
    }
}
