//! Subcommand implementations.

use crate::args::{ArgError, Args};
use crate::config::{budget_from_args, config_from_args, BUDGET_FLAGS, CONFIG_FLAGS};
use looseloops::{
    capture_checkpoint, cpi_stack_report_on, loop_inventory, restore_into, run_sampled,
    warm_digest, CheckpointStore, ExecMode, FigureSpec, Job, Machine, ResultStore, RunBudget,
    SamplingPlan, SimStats, SweepEngine, WarmMemo, Workload,
};
use looseloops_workload::Benchmark;

fn config_flag_set(extra: &[&str]) -> Vec<&'static str> {
    let mut v: Vec<&str> = CONFIG_FLAGS.to_vec();
    v.extend_from_slice(BUDGET_FLAGS);
    // Leak is fine: flag names live for the whole process.
    v.iter()
        .copied()
        .chain(extra.iter().copied())
        .map(|s| &*Box::leak(s.to_string().into_boxed_str()))
        .collect()
}

fn print_stats(stats: &SimStats, json: bool) {
    if json {
        println!("{{");
        println!("  \"cycles\": {},", stats.cycles);
        println!("  \"retired\": {:?},", stats.retired);
        println!("  \"ipc\": {},", stats.ipc());
        println!("  \"branches\": {},", stats.branches);
        println!("  \"branch_mispredicts\": {},", stats.branch_mispredicts);
        println!("  \"loads\": {},", stats.loads);
        println!("  \"load_l1_misses\": {},", stats.load_l1_misses);
        println!("  \"load_replays\": {},", stats.load_replays);
        println!("  \"operand_misses\": {},", stats.operand_misses);
        println!("  \"operand_sources\": {:?},", stats.operand_sources);
        println!("  \"mem_order_traps\": {},", stats.mem_order_traps);
        println!("  \"tlb_traps\": {},", stats.tlb_traps);
        println!("  \"iq_occupancy_mean\": {},", stats.iq_occupancy_mean);
        println!("  \"audit_checks\": {},", stats.audit_checks);
        println!("  \"faults_injected\": {},", stats.faults_injected);
        println!("  \"deadlocks_detected\": {}", stats.deadlocks_detected);
        println!("}}");
        return;
    }
    println!("cycles                {}", stats.cycles);
    println!(
        "instructions retired  {} {:?}",
        stats.total_retired(),
        stats.retired
    );
    println!("IPC                   {:.4}", stats.ipc());
    println!(
        "branches              {} ({} mispredicted, {:.2}%)",
        stats.branches,
        stats.branch_mispredicts,
        stats.branch_mispredict_rate() * 100.0
    );
    println!(
        "loads                 {} ({} L1 misses, {:.2}%)",
        stats.loads,
        stats.load_l1_misses,
        stats.load_miss_rate() * 100.0
    );
    println!(
        "useless work          {} (load replays {}, shadow {}, operand {}, squashed-after-issue {})",
        stats.useless_work(),
        stats.load_replays,
        stats.shadow_replays,
        stats.operand_replays,
        stats.squashed_after_issue
    );
    let f = stats.operand_source_fractions();
    println!(
        "operand sources       pre-read {:.1}%  forward {:.1}%  crc {:.1}%  regfile {:.1}%  miss {:.3}%",
        f[0] * 100.0,
        f[1] * 100.0,
        f[2] * 100.0,
        f[3] * 100.0,
        f[4] * 100.0
    );
    println!(
        "traps                 memory-order {}  dTLB {}  barriers {}",
        stats.mem_order_traps, stats.tlb_traps, stats.mem_barriers
    );
    println!(
        "IQ occupancy          mean {:.1}  post-issue {:.1}  peak {}",
        stats.iq_occupancy_mean, stats.iq_post_issue_mean, stats.iq_peak
    );
    if stats.audit_checks > 0 || stats.faults_injected > 0 || stats.deadlocks_detected > 0 {
        println!(
            "hardening             audit checks {}  faults injected {} (flip/spike/miss {:?})  deadlocks {}",
            stats.audit_checks, stats.faults_injected, stats.faults_by_kind, stats.deadlocks_detected
        );
    }
}

/// Print the wall-clock stage profile accumulated since the last call,
/// when `--profile-stages` recorded one. Goes to stderr, like the sweep
/// summary, so piped figure output stays byte-identical. With
/// `--profile-json FILE`, the report is also appended to FILE as one JSON
/// line per label, for `scripts/diff_stage_profile.py`.
fn emit_profile(label: &str, json_path: Option<&str>) {
    if let Some(rep) = looseloops_pipeline::profile::take_report() {
        eprintln!("[profile] {label}: {}", rep.render());
        if let Some(path) = json_path {
            use std::io::Write as _;
            let line = rep.render_json(label);
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = written {
                eprintln!("[profile] cannot write {path}: {e}");
            }
        }
    }
}

/// Shared handling of the profiling flags: `--profile-stages` turns the
/// per-stage timers on; `--profile-json FILE` does too and selects a JSON
/// sink. Returns the sink path for `emit_profile`.
fn profile_from_args(args: &Args) -> Option<&str> {
    if args.has("profile-stages") || args.has("profile-json") {
        looseloops_pipeline::profile::enable();
    }
    args.get("profile-json")
}

/// Parse the execution-mode flags shared by `run` and `figure`:
/// `--fast-forward`, `--sample SPEC`, `--ckpt-dir DIR`.
fn mode_from_args(
    args: &Args,
    budget: RunBudget,
) -> Result<(ExecMode, Option<CheckpointStore>), ArgError> {
    let mode = match (args.get("sample"), args.has("fast-forward")) {
        (Some(_), true) => {
            return Err(ArgError(
                "--sample already fast-forwards between windows; drop --fast-forward".into(),
            ))
        }
        (Some(spec), false) => {
            ExecMode::Sampled(SamplingPlan::parse(spec, budget).map_err(ArgError)?)
        }
        (None, true) => ExecMode::FastForward,
        (None, false) => ExecMode::Detailed,
    };
    let store = match args.get("ckpt-dir") {
        None => None,
        Some(_) if mode == ExecMode::Detailed => {
            return Err(ArgError(
                "--ckpt-dir needs --fast-forward or --sample".into(),
            ))
        }
        Some(dir) => Some(CheckpointStore::open(dir).map_err(|e| ArgError(e.to_string()))?),
    };
    Ok((mode, store))
}

/// Resolve `--bench NAME` / `--pair NAME` into a [`Workload`].
fn workload_from_flags(args: &Args) -> Result<Workload, ArgError> {
    if let Some(name) = args.get("bench") {
        Benchmark::all()
            .into_iter()
            .find(|b| b.name() == name)
            .map(Workload::Single)
            .ok_or_else(|| {
                ArgError(format!(
                    "unknown benchmark `{name}` — see `looseloops list`"
                ))
            })
    } else if let Some(name) = args.get("pair") {
        Benchmark::pairs()
            .into_iter()
            .find(|p| p.name() == name)
            .map(Workload::Pair)
            .ok_or_else(|| ArgError(format!("unknown pair `{name}` — see `looseloops list`")))
    } else {
        Err(ArgError("need --bench or --pair".into()))
    }
}

/// `looseloops run`
pub fn run(args: &Args) -> Result<(), ArgError> {
    let allowed = config_flag_set(&[
        "bench",
        "pair",
        "asm",
        "verify",
        "trace",
        "json",
        "fast-forward",
        "sample",
        "ckpt-dir",
        "profile-stages",
        "profile-json",
    ]);
    args.reject_unknown(&allowed)?;
    let mut cfg = config_from_args(args)?;
    let budget = budget_from_args(args)?;
    let profile_json = profile_from_args(args);

    let (mode, store) = mode_from_args(args, budget)?;
    if mode != ExecMode::Detailed {
        for incompatible in ["asm", "verify", "trace"] {
            if args.has(incompatible) {
                return Err(ArgError(format!(
                    "--{incompatible} runs the detailed path only; drop --fast-forward/--sample"
                )));
            }
        }
        let workload = workload_from_flags(args)?;
        let job = Job::new(cfg, workload, budget);
        let memo = WarmMemo::default();
        let label = workload.name();
        match mode {
            ExecMode::FastForward => {
                let stats = looseloops::checkpoint::run_fast_forwarded(&job, store.as_ref(), &memo)
                    .map_err(|e| ArgError(e.to_string()))?;
                if !args.has("json") {
                    println!(
                        "== {label} (fast-forwarded warm-up: {} instrs) ==",
                        budget.warmup
                    );
                }
                print_stats(&stats, args.has("json"));
            }
            ExecMode::Sampled(plan) => {
                let run = run_sampled(&job, plan, store.as_ref(), &memo)
                    .map_err(|e| ArgError(e.to_string()))?;
                if !args.has("json") {
                    println!(
                        "== {label} (sampled: {} windows of {} detailed instrs) ==",
                        plan.windows, plan.detail
                    );
                }
                print_stats(&run.stats, args.has("json"));
                if !args.has("json") {
                    println!("sampling              {}", run.error_bar());
                }
            }
            ExecMode::Detailed => unreachable!("handled above"),
        }
        emit_profile(&label, profile_json);
        return Ok(());
    }

    let (programs, label) = if let Some(name) = args.get("bench") {
        let b = Benchmark::all()
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| {
                ArgError(format!(
                    "unknown benchmark `{name}` — see `looseloops list`"
                ))
            })?;
        (vec![b.program()], name.to_string())
    } else if let Some(name) = args.get("pair") {
        let p = Benchmark::pairs()
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| ArgError(format!("unknown pair `{name}` — see `looseloops list`")))?;
        cfg.threads = 2;
        (p.programs(), name.to_string())
    } else if let Some(path) = args.get("asm") {
        let src = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let prog = looseloops_isa::asm::assemble_named(path, &src)
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        (vec![prog], path.to_string())
    } else {
        return Err(ArgError("run needs --bench, --pair, or --asm".into()));
    };
    cfg.validate().map_err(|e| ArgError(e.to_string()))?;

    let mut m = Machine::new(cfg, programs).map_err(|e| ArgError(e.to_string()))?;
    if args.has("verify") {
        m.enable_verification();
    }
    if args.get("trace").is_some() {
        m.enable_trace();
    }
    if budget.warmup > 0 {
        m.run(budget.warmup, budget.max_cycles)
            .map_err(|e| ArgError(e.to_string()))?;
        m.reset_stats();
        // Tracing starts after warm-up.
        if args.get("trace").is_some() {
            let _ = m.take_trace();
            m.enable_trace();
        }
    }
    m.run(budget.measure, budget.max_cycles)
        .map_err(|e| ArgError(e.to_string()))?;

    if !args.has("json") {
        println!("== {label} ==");
    }
    print_stats(m.stats(), args.has("json"));
    if let Some(path) = args.get("trace") {
        std::fs::write(path, m.take_trace())
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        if !args.has("json") {
            println!("trace written to {path}");
        }
    }
    emit_profile(&label, profile_json);
    Ok(())
}

/// Parse `--workloads a,b,c` (default: the full paper set).
fn workloads_from_args(args: &Args) -> Result<Vec<Workload>, ArgError> {
    match args.get("workloads") {
        None => Ok(Workload::paper_set()),
        Some(list) => list
            .split(',')
            .map(|n| {
                Workload::paper_set()
                    .into_iter()
                    .find(|w| w.name() == n)
                    .ok_or_else(|| ArgError(format!("unknown workload `{n}`")))
            })
            .collect(),
    }
}

/// Resolve the persistent result store: `--store-dir DIR` explicitly,
/// else the `LOOSELOOPS_STORE` environment variable, else none.
fn result_store_from_args(args: &Args) -> Result<Option<ResultStore>, ArgError> {
    match args.get("store-dir") {
        Some(dir) => ResultStore::open(dir)
            .map(Some)
            .map_err(|e| ArgError(e.to_string())),
        None => Ok(ResultStore::from_env()),
    }
}

/// Build a sweep engine from `--jobs N` (0 or absent: `LOOSELOOPS_JOBS` /
/// the machine) executing under `mode`, with the persistent result store
/// from `--store-dir` / `LOOSELOOPS_STORE` attached when configured.
fn sweep_from_args(
    args: &Args,
    mode: ExecMode,
    store: Option<CheckpointStore>,
) -> Result<SweepEngine, ArgError> {
    let jobs: usize = args.get_or("jobs", 0)?;
    let workers = if jobs == 0 {
        looseloops::jobs_from_env()
    } else {
        jobs
    };
    let result_store = result_store_from_args(args)?;
    Ok(SweepEngine::with_stores(workers, mode, store, result_store))
}

/// `looseloops figure`
pub fn figure(args: &Args) -> Result<(), ArgError> {
    // The machines are the figure's own grid, so the config flags of `run`
    // are rejected rather than silently ignored.
    let mut allowed = BUDGET_FLAGS.to_vec();
    allowed.extend_from_slice(&[
        "smoke",
        "json-out",
        "workloads",
        "jobs",
        "stacks",
        "fast-forward",
        "sample",
        "ckpt-dir",
        "store-dir",
        "profile-stages",
        "profile-json",
    ]);
    args.reject_unknown(&allowed)?;
    let profile_json = profile_from_args(args);
    let known = || format!("{}, all", FigureSpec::IDS.join(", "));
    let id = args
        .positional()
        .first()
        .ok_or_else(|| ArgError(format!("figure needs an id ({})", known())))?
        .clone();
    let mut budget = budget_from_args(args)?;
    if args.has("smoke") {
        budget = RunBudget {
            warmup: 1_000,
            measure: 5_000,
            max_cycles: 2_000_000,
        };
    }
    let workloads = workloads_from_args(args)?;
    let (mode, store) = mode_from_args(args, budget)?;
    let sweep = sweep_from_args(args, mode, store)?;
    let ids: Vec<&str> = if id == "all" {
        if args.get("json-out").is_some() {
            return Err(ArgError(
                "--json-out applies to a single figure, not `all`".into(),
            ));
        }
        FigureSpec::IDS.to_vec()
    } else {
        vec![id.as_str()]
    };

    for fid in ids {
        let spec = FigureSpec::for_id(fid, &workloads, budget)
            .ok_or_else(|| ArgError(format!("unknown figure `{fid}` (known: {})", known())))?;
        let results = spec.run_on(&sweep).map_err(|e| ArgError(e.to_string()))?;
        let fig = spec.render(&results);
        print!("{fig}");
        // With --stacks, the figure's per-loop CPI stacks follow it,
        // folded from the same results.
        if args.has("stacks") {
            print!("{}", spec.render_stacks(&results));
        }
        emit_profile(fid, profile_json);
        if let Some(path) = args.get("json-out") {
            std::fs::write(path, fig.to_json())
                .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        }
    }
    eprintln!("[sweep] {}", sweep.summary().line());
    if let Some(path) = args.get("json-out") {
        println!("(json written to {path})");
    }
    Ok(())
}

/// `looseloops store` — manage the persistent result store. The one
/// subcommand, `gc --max-bytes N`, evicts least-recently-used entries
/// (both saves and hits refresh recency) until the store fits the budget.
pub fn store(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["store-dir", "max-bytes"])?;
    match args.positional().first().map(String::as_str) {
        Some("gc") => {
            let store = result_store_from_args(args)?.ok_or_else(|| {
                ArgError("store gc needs --store-dir DIR (or LOOSELOOPS_STORE)".into())
            })?;
            let max_bytes: u64 = match args.get("max-bytes") {
                Some(v) => v
                    .parse()
                    .map_err(|_| ArgError(format!("--max-bytes: cannot parse `{v}`")))?,
                None => return Err(ArgError("store gc needs --max-bytes N (bytes)".into())),
            };
            let report = store.gc(max_bytes).map_err(|e| ArgError(e.to_string()))?;
            println!(
                "{}: evicted {} entr(ies) ({} bytes), kept {} ({} bytes) within the {} byte budget",
                store.dir().display(),
                report.evicted,
                report.bytes_evicted,
                report.kept,
                report.bytes_kept,
                max_bytes
            );
            Ok(())
        }
        Some(other) => Err(ArgError(format!(
            "unknown store subcommand `{other}` (known: gc)"
        ))),
        None => Err(ArgError("store needs a subcommand (known: gc)".into())),
    }
}

/// `looseloops serve` — bind a TCP job server in front of one shared
/// sweep engine (plus result store, when configured) and run until a
/// client sends `{"cmd":"shutdown"}`.
pub fn serve(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["addr", "jobs", "queue", "store-dir"])?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:4641");
    let queue: usize = args.get_or("queue", 4)?;
    let sweep = sweep_from_args(args, ExecMode::Detailed, None)?;
    let server = looseloops::server::JobServer::bind(addr, sweep, queue)
        .map_err(|e| ArgError(format!("cannot bind {addr}: {e}")))?;
    // Scripts wait for this exact line before submitting.
    println!(
        "listening on {}",
        server.local_addr().map_err(|e| ArgError(e.to_string()))?
    );
    server.run().map_err(|e| ArgError(e.to_string()))
}

/// `looseloops submit` — send one request to a running `serve` daemon
/// and print the streamed NDJSON events (or, with `--table`, render the
/// figure/stacks events exactly as a local `figure` run would).
pub fn submit(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[
        "addr",
        "smoke",
        "warmup",
        "measure",
        "max-cycles",
        "workloads",
        "stacks",
        "table",
        "shutdown",
    ])?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:4641");
    let request = if args.has("shutdown") {
        "{\"cmd\":\"shutdown\"}".to_string()
    } else {
        let id = args
            .positional()
            .first()
            .ok_or_else(|| ArgError("submit needs a figure id (or --shutdown)".into()))?;
        let mut req = format!(
            "{{\"cmd\":\"figure\",\"id\":{}",
            looseloops::json_escape(id)
        );
        if !args.has("smoke") {
            // Budget fields are optional on the wire; the server's default
            // is exactly `--smoke`, so only overrides are sent.
            let budget = budget_from_args(args)?;
            req.push_str(&format!(
                ",\"warmup\":{},\"measure\":{},\"max_cycles\":{}",
                budget.warmup, budget.measure, budget.max_cycles
            ));
        }
        if let Some(list) = args.get("workloads") {
            let names: Vec<String> = list.split(',').map(looseloops::json_escape).collect();
            req.push_str(&format!(",\"workloads\":[{}]", names.join(",")));
        }
        if args.has("stacks") {
            req.push_str(",\"stacks\":true");
        }
        req.push('}');
        req
    };

    let lines = looseloops::server::request_lines(addr, &request)
        .map_err(|e| ArgError(format!("cannot reach {addr}: {e}")))?;
    let mut failed = None;
    for line in &lines {
        let parsed = looseloops::json::parse(line).ok();
        let event = parsed
            .as_ref()
            .and_then(|v| v.get("event"))
            .and_then(looseloops::json::JsonValue::as_str);
        if event == Some("error") {
            failed = Some(
                parsed
                    .as_ref()
                    .and_then(|v| v.get("message"))
                    .and_then(looseloops::json::JsonValue::as_str)
                    .unwrap_or("unknown server error")
                    .to_string(),
            );
        }
        if args.has("table") {
            match (event, &parsed) {
                (Some("figure"), Some(v)) => {
                    if let Some(fig) = v
                        .get("figure")
                        .and_then(looseloops::server::figure_from_json)
                    {
                        print!("{fig}");
                        continue;
                    }
                }
                (Some("stacks"), Some(v)) => {
                    if let Some(rep) = v
                        .get("stacks")
                        .and_then(looseloops::server::stacks_from_json)
                    {
                        print!("{rep}");
                        continue;
                    }
                }
                (Some("summary"), Some(v)) => {
                    if let Some(l) = v.get("line").and_then(looseloops::json::JsonValue::as_str) {
                        eprintln!("[serve] {l}");
                        continue;
                    }
                }
                (Some("hello" | "done"), _) => continue,
                _ => {}
            }
        }
        println!("{line}");
    }
    match failed {
        Some(msg) => Err(ArgError(format!("server: {msg}"))),
        None => Ok(()),
    }
}

/// `looseloops loops` (and `looseloops loops attribute`)
pub fn loops(args: &Args) -> Result<(), ArgError> {
    if args.positional().first().map(String::as_str) == Some("attribute") {
        return loops_attribute(args);
    }
    let allowed = config_flag_set(&[]);
    args.reject_unknown(&allowed)?;
    let cfg = config_from_args(args)?;
    println!(
        "machine: DEC-IQ={} IQ-EX={} RF-read={} scheme={:?}",
        cfg.dec_iq_stages, cfg.iq_ex_stages, cfg.rf_read_latency, cfg.scheme
    );
    for l in loop_inventory(&cfg) {
        println!("  {l}");
    }
    Ok(())
}

/// `looseloops loops attribute` — run the configured machine over the
/// workloads and print its per-loop CPI stack: where every lost retire
/// slot went, one column per loop-cost component, components summing to
/// the measured CPI.
fn loops_attribute(args: &Args) -> Result<(), ArgError> {
    let allowed = config_flag_set(&["workloads", "jobs", "store-dir"]);
    args.reject_unknown(&allowed)?;
    let cfg = config_from_args(args)?;
    let budget = budget_from_args(args)?;
    let workloads = workloads_from_args(args)?;
    let sweep = sweep_from_args(args, ExecMode::Detailed, None)?;
    let label = format!(
        "{}:{}_{}",
        if cfg.scheme.is_dra() { "dra" } else { "base" },
        cfg.dec_iq_stages,
        cfg.iq_ex_stages
    );
    let configs = [(label, cfg.clone())];
    let rep = cpi_stack_report_on(
        &sweep,
        "loops-attribute",
        "Per-loop CPI attribution (components sum to CPI)",
        &configs,
        &workloads,
        budget,
    )
    .map_err(|e| ArgError(e.to_string()))?;
    print!("{rep}");
    println!("loops charged:");
    for l in loop_inventory(&cfg) {
        if let Some(c) = l.cpi_component() {
            println!("  {:<18} <- {l}", c.name());
        }
    }
    println!(
        "conservation: every cycle's {} retire slots are either used by a retiring \
         instruction or charged to exactly one component (enforced by the invariant \
         auditor under --audit)",
        cfg.width
    );
    eprintln!("[sweep] {}", sweep.summary().line());
    Ok(())
}

/// `looseloops asm`
pub fn asm(args: &Args) -> Result<(), ArgError> {
    let allowed = config_flag_set(&["run", "disasm", "verify", "instructions"]);
    args.reject_unknown(&allowed)?;
    let path = args
        .positional()
        .first()
        .ok_or_else(|| ArgError("asm needs a source file".into()))?;
    let src =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let prog = looseloops_isa::asm::assemble_named(path, &src)
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!(
        "{path}: {} instructions, {} data chunks",
        prog.len(),
        prog.init_data.len()
    );
    if args.has("disasm") {
        print!("{}", looseloops_isa::disassemble(&prog));
    }
    if args.has("run") {
        let cfg = config_from_args(args)?;
        let max: u64 = args.get_or("instructions", 1_000_000)?;
        let mut m = Machine::new(cfg, vec![prog]).map_err(|e| ArgError(e.to_string()))?;
        m.enable_verification();
        m.run(max, 100_000_000)
            .map_err(|e| ArgError(e.to_string()))?;
        println!("halted: {}", m.is_done());
        print_stats(m.stats(), false);
    }
    Ok(())
}

/// `looseloops kernel` — inspect a benchmark proxy's generated code.
pub fn kernel(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&["disasm"])?;
    let name = args
        .positional()
        .first()
        .ok_or_else(|| ArgError("kernel needs a benchmark name — see `looseloops list`".into()))?;
    let b = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| ArgError(format!("unknown benchmark `{name}`")))?;
    let prog = b.program();
    println!("{name}: {}", b.description());
    println!(
        "{} instructions, {} data chunks ({} bytes of initial data)",
        prog.len(),
        prog.init_data.len(),
        prog.init_data.iter().map(|(_, b)| b.len()).sum::<usize>()
    );
    if args.has("disasm") {
        print!("{}", looseloops_isa::disassemble(&prog));
    }
    Ok(())
}

/// `looseloops list`
pub fn list(_args: &Args) -> Result<(), ArgError> {
    println!("benchmarks (Spec95 proxies):");
    for b in Benchmark::all() {
        println!(
            "  {:<10} {:<4} {}",
            b.name(),
            if b.is_int() { "int" } else { "fp" },
            b.description()
        );
    }
    println!("SMT pairs:");
    for p in Benchmark::pairs() {
        println!("  {}", p.name());
    }
    println!("figures: {}", FigureSpec::IDS.join(" "));
    Ok(())
}

/// `looseloops checkpoint` — build (or report) the functional warm-up
/// checkpoint a workload's sweep points would share, and optionally
/// verify a detailed resume from it against the ISA oracle.
pub fn checkpoint(args: &Args) -> Result<(), ArgError> {
    let allowed = config_flag_set(&["bench", "pair", "dir", "verify"]);
    args.reject_unknown(&allowed)?;
    let cfg = config_from_args(args)?;
    let budget = budget_from_args(args)?;
    let workload = workload_from_flags(args)?;
    let dir = args.get("dir").unwrap_or(".looseloops-ckpt");
    let store = CheckpointStore::open(dir).map_err(|e| ArgError(e.to_string()))?;

    let wcfg = workload.config_for(&cfg);
    let digest = warm_digest(&wcfg, &workload, budget.warmup);
    let (ckpt, cached) = match store.load(digest) {
        Ok(Some(c)) => (c, true),
        Ok(None) => {
            let c = capture_checkpoint(&wcfg, workload.programs(), budget.warmup)
                .map_err(|e| ArgError(e.to_string()))?;
            store
                .save(digest, &c)
                .map_err(|e| ArgError(e.to_string()))?;
            (c, false)
        }
        Err(e) => return Err(ArgError(e.to_string())),
    };

    println!(
        "{} after {} functional warm-up instruction(s)",
        workload.name(),
        ckpt.instructions
    );
    println!(
        "digest     {digest:016x}{}",
        if cached { "  (already stored)" } else { "" }
    );
    println!(
        "file       {} ({} bytes)",
        store.path(digest).display(),
        ckpt.encode().len()
    );
    let live_btb = ckpt.btb.iter().filter(|(t, _)| *t != u64::MAX).count();
    println!(
        "contents   {} thread(s), {} memory page(s), {} predictor word(s), {} BTB entr(ies)",
        ckpt.threads.len(),
        ckpt.mem.pages_touched(),
        ckpt.predictor.len(),
        live_btb
    );

    if args.has("verify") {
        let check = budget.measure.clamp(1_000, 20_000);
        let mut m = Machine::new(wcfg, workload.programs()).map_err(|e| ArgError(e.to_string()))?;
        restore_into(&mut m, &ckpt).map_err(|e| ArgError(e.to_string()))?;
        m.enable_verification();
        m.run(check, budget.max_cycles)
            .map_err(|e| ArgError(format!("resume verification failed: {e}")))?;
        println!(
            "verify     ok — detailed resume matched the ISA oracle for {} instruction(s)",
            m.stats().total_retired()
        );
    }
    Ok(())
}

/// `looseloops fuzz`
pub fn fuzz(args: &Args) -> Result<(), ArgError> {
    args.reject_unknown(&[
        "seeds",
        "start",
        "jobs",
        "budget",
        "profile",
        "replay",
        "write-corpus",
        "no-shrink",
    ])?;

    // Replay mode: re-run every checked-in reproducer and fail on any
    // divergence.
    if let Some(dir) = args.get("replay") {
        let entries = looseloops_fuzz::corpus::load_dir(std::path::Path::new(dir))
            .map_err(|e| ArgError(format!("corpus: {e}")))?;
        let mut failed = 0;
        for entry in &entries {
            let out = looseloops_fuzz::run_case(&entry.case);
            match out.finding {
                None => println!(
                    "ok   {:<40} ({} retired, recorded: {})",
                    entry.name, out.retired, entry.recorded_finding
                ),
                Some(f) => {
                    println!("FAIL {:<40} {f}", entry.name);
                    failed += 1;
                }
            }
        }
        println!(
            "replayed {} corpus entr(ies), {failed} failure(s)",
            entries.len()
        );
        if failed > 0 {
            return Err(ArgError(format!("{failed} corpus entr(ies) diverged")));
        }
        return Ok(());
    }

    let jobs: usize = args.get_or("jobs", 0)?;
    let profile = match args.get("profile") {
        None => None,
        Some(name) => Some(looseloops_fuzz::GenProfile::from_name(name).ok_or_else(|| {
            ArgError(format!(
                "unknown profile `{name}` (try: {})",
                looseloops_fuzz::GenProfile::all()
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?),
    };
    let opts = looseloops_fuzz::CampaignOpts {
        start: args.get_or("start", 0u64)?,
        seeds: args.get_or("seeds", 100u64)?,
        jobs: if jobs == 0 {
            looseloops::jobs_from_env()
        } else {
            jobs
        },
        profile,
        shrink: !args.has("no-shrink"),
        budget: args
            .get("budget")
            .map(|b| {
                b.parse::<u64>()
                    .map_err(|_| ArgError(format!("bad --budget `{b}`")))
            })
            .transpose()?,
    };
    let report = looseloops_fuzz::run_campaign(&opts);
    print!("{report}");

    if let Some(dir) = args.get("write-corpus") {
        let dir = std::path::Path::new(dir);
        for fail in &report.failures {
            if let Some((case, finding)) = &fail.shrunk {
                let name = format!("fuzz-seed-{:04x}", fail.seed);
                let path = looseloops_fuzz::save_entry(dir, &name, case, finding)
                    .map_err(|e| ArgError(format!("corpus: {e}")))?;
                println!("wrote {}", path.display());
            }
        }
    }
    if report.failures.is_empty() {
        Ok(())
    } else {
        Err(ArgError(format!(
            "{} differential failure(s) in {} case(s)",
            report.failures.len(),
            report.cases
        )))
    }
}
