//! The four workloads: how each sets up, what one op calls, and how the
//! op's output is checked. Ops call only public functions of
//! `looseloops`; when traced, an op also replays the nested public calls
//! it made (on the same inputs) so each layer gets a span of its own, and
//! the replay's result must equal the op's.

use crate::grid::{
    budget_instructions, figure_order, grid, op_order, point_name, reference_budget, specs,
    store_budget, Point, FIGURE_IDS,
};
use crate::host::Stopwatch;
use crate::reference::{cpi, cpi_err_pct, digest, References, REF, STORE};
use crate::trace::Tracer;
use looseloops::checkpoint::{warm_checkpoint, WarmMemo};
use looseloops::json::{parse, JsonValue};
use looseloops::server::{figure_from_json, request_lines, stacks_from_json, JobServer};
use looseloops::{
    restore_into, warm_digest, CheckpointStore, ExecMode, FigureSpec, FunctionalCursor, Job,
    Machine, ResultStore, SamplingPlan, SimStats, SweepEngine, Workload,
};
use looseloops_rng::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The interval at which `JobServer::run` polls for a connection when
/// none is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Detailed,
    Sampled,
    WarmStore,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Detailed, Kind::Sampled, Kind::WarmStore, Kind::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Detailed => "detailed",
            Kind::Sampled => "sampled",
            Kind::WarmStore => "warm-store",
            Kind::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Ops whose `cpi_err_pct` is averaged, and that every run makes: one
    /// full pass over what the workload answers, so the figure repeats
    /// exactly across runs and seeds. The detailed workload cannot afford a
    /// pass per run (see `Bench::cpi_err_pct`).
    pub fn error_pass(self, points: usize) -> usize {
        match self {
            Kind::Detailed => 0,
            Kind::Sampled => points,
            Kind::WarmStore => 1,
            Kind::Serve => FIGURE_IDS.len(),
        }
    }

    /// Are ops timed in process CPU time (else wall time), and taken to
    /// the reference host speed by calibration? `serve` ops are largely the
    /// server's accept wait, which only the wall clock sees and which does
    /// not scale with host speed.
    pub fn cpu_clock(self) -> bool {
        self != Kind::Serve
    }

    /// Does an op step pipeline machines?
    pub fn simulates(self) -> bool {
        matches!(self, Kind::Detailed | Kind::Sampled)
    }
}

/// Modelled event counts summed over the results an op delivered.
#[derive(Debug, Default, Clone, Copy)]
pub struct Modelled {
    pub retired: u64,
    pub cycles: u64,
    pub fetched: u64,
    pub replays: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub mispredicts: u64,
    pub operand_misses: u64,
}

impl Modelled {
    pub fn add(&mut self, s: &SimStats) {
        self.retired += s.total_retired();
        self.cycles += s.cycles;
        self.fetched += s.fetched;
        self.replays += s.load_replays + s.shadow_replays + s.operand_replays;
        self.l1d_misses += s.mem.l1d.misses;
        self.l2_misses += s.mem.l2.misses;
        self.mispredicts += s.branch_mispredicts;
        self.operand_misses += s.operand_misses;
    }

    pub fn merge(&mut self, o: &Modelled) {
        self.retired += o.retired;
        self.cycles += o.cycles;
        self.fetched += o.fetched;
        self.replays += o.replays;
        self.l1d_misses += o.l1d_misses;
        self.l2_misses += o.l2_misses;
        self.mispredicts += o.mispredicts;
        self.operand_misses += o.operand_misses;
    }
}

/// Engine or server counters for one op.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub jobs_requested: u64,
    pub jobs_run: u64,
    pub cache_hits: u64,
    pub store_hits: u64,
    pub dedup_hits: u64,
}

/// What one op reports.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Host seconds of the program's work (checks excluded), on the
    /// workload's clock (`Kind::cpu_clock`), taken to the reference host
    /// speed on the CPU clock.
    pub secs: f64,
    /// The same span on the workload's clock, as measured.
    pub raw_secs: f64,
    /// The same span on the wall clock.
    pub wall_secs: f64,
    /// Budget instructions of the jobs the op answered.
    pub instructions: u64,
    /// Instructions the op simulated in detail.
    pub detailed_instructions: u64,
    /// Why the op failed, if it did.
    pub failure: Option<String>,
    /// One |sampled − detailed| / detailed CPI error per answered job
    /// (none on `detailed`: see `Bench::cpi_err_pct`).
    pub cpi_err: Vec<f64>,
    pub counters: Counters,
    pub modelled: Modelled,
}

impl Outcome {
    /// Keep the measured time in `raw_secs` and scale `secs` by `factor`
    /// (`host::speed_factor`).
    pub fn scale(&mut self, factor: f64) {
        self.raw_secs = self.secs;
        self.secs *= factor;
    }

    fn fail(&mut self, why: impl Into<String>) {
        if self.failure.is_none() {
            self.failure = Some(why.into());
        }
    }
}

/// A `JobServer` running on a thread of this process.
struct Server {
    addr: SocketAddr,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        request_lines(self.addr, "{\"cmd\":\"shutdown\"}")
            .map_err(|e| format!("shutdown request: {e}"))?;
        handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// One figure as the local engine renders it, and what each job of its
/// grid must deliver.
struct Figure {
    spec: FigureSpec,
    /// Table, stacks table and both JSON renderings, concatenated.
    rendered: String,
    figure_json: String,
    stacks_json: String,
    digests: Vec<u64>,
    sampled_cpi: Vec<f64>,
    modelled: Modelled,
}

/// One figure of a warm-store op: its index, the result of every job of
/// its grid, and its rendering (when every job succeeded).
type Answered = (usize, Vec<Result<Arc<SimStats>, String>>, Option<String>);

/// A workload, set up and ready to run ops.
pub struct Bench {
    pub kind: Kind,
    refs: Arc<References>,
    pub points: Vec<Point>,
    order: Vec<usize>,
    plan: SamplingPlan,
    ckpt: Option<CheckpointStore>,
    store: Option<ResultStore>,
    figures: Vec<Figure>,
    seed: u64,
    server: Option<Server>,
    /// Seconds the checkpoint or result store fill took.
    pub fill_s: Option<f64>,
}

fn render_figure(spec: &FigureSpec, stats: &[Arc<SimStats>]) -> (String, String, String) {
    let fig = spec.render(stats);
    let stacks = spec.render_stacks(stats);
    let figure_json = fig.to_json();
    let stacks_json = stacks.to_json();
    let rendered = format!(
        "{}{}{figure_json}{stacks_json}",
        fig.to_table(),
        stacks.to_table()
    );
    (rendered, figure_json, stacks_json)
}

impl Bench {
    /// Set up `kind` with its stores under `work`. Everything here runs
    /// before the first timed op and counts towards `setup_s`.
    pub fn setup(
        kind: Kind,
        seed: u64,
        refs: &Arc<References>,
        work: &Path,
    ) -> Result<Bench, String> {
        let budget = match kind {
            Kind::Detailed | Kind::Sampled => reference_budget(),
            Kind::WarmStore | Kind::Serve => store_budget(),
        };
        let specs = specs(budget);
        let points = grid(&specs);
        // Strata are (figure, workload): every prefix of the order then has
        // the grid's mix of both, and so of host cost per job.
        let strata: Vec<String> = points
            .iter()
            .map(|p| {
                let figure = p.name.split('/').next().unwrap_or_default();
                format!("{figure}|{}", p.job.workload.name())
            })
            .collect();
        let order = op_order(&strata, seed);
        let mut b = Bench {
            kind,
            refs: Arc::clone(refs),
            points,
            order,
            plan: SamplingPlan::for_budget(budget),
            ckpt: None,
            store: None,
            figures: Vec::new(),
            seed,
            server: None,
            fill_s: None,
        };
        match kind {
            Kind::Detailed => {}
            Kind::Sampled => b.fill_checkpoints(work)?,
            Kind::WarmStore => b.fill_store(work, specs)?,
            Kind::Serve => {
                b.fill_store(work, specs)?;
                b.start_server()?;
            }
        }
        b.warm_up()?;
        Ok(b)
    }

    /// One untimed op on a fixed job (the same whatever the seed), so
    /// one-time costs — first page faults, lazily built state — land in
    /// set-up rather than in the first timed op. `detailed` runs that job
    /// at the store budget: it still builds and predecodes a machine, but
    /// keeps a full reference-budget job, the noisiest op there is, out of
    /// `setup_s`. `serve` is warmed by its registry pass instead.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut off = Tracer::new(false);
        let first = self.points[0].clone();
        let out = match self.kind {
            Kind::Detailed => {
                let mut small = first;
                small.job.budget = store_budget();
                self.op_detailed(small, &mut off)
            }
            Kind::Sampled => self.op_sampled(first, &mut off),
            Kind::WarmStore => self.op_warm_store(0, &mut off),
            Kind::Serve => return Ok(()),
        };
        out.failure
            .map_or(Ok(()), |f| Err(format!("warm-up op: {f}")))
    }

    /// Capture every warm checkpoint the grid needs into a fresh store.
    fn fill_checkpoints(&mut self, work: &Path) -> Result<(), String> {
        let t = Stopwatch::start(true);
        let store = CheckpointStore::open(work.join("ckpt")).map_err(|e| e.to_string())?;
        let memo = WarmMemo::default();
        for p in &self.points {
            warm_checkpoint(&p.job, Some(&store), &memo)
                .map_err(|e| format!("checkpoint {}: {e}", p.name))?;
        }
        self.fill_s = Some(t.stop().0);
        self.ckpt = Some(store);
        Ok(())
    }

    /// Fill a fresh result store with the whole registry, check every
    /// result against the references, and keep the cold renderings.
    fn fill_store(&mut self, work: &Path, specs: Vec<FigureSpec>) -> Result<(), String> {
        let t = Stopwatch::start(true);
        let store = ResultStore::open(work.join("store")).map_err(|e| e.to_string())?;
        let engine = SweepEngine::with_stores(1, ExecMode::Detailed, None, Some(store.clone()));
        let mut fills = Vec::new();
        for spec in specs {
            let results = engine.try_run_jobs(&spec.jobs());
            let stats = results
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("{}: {e}", spec.id))?;
            fills.push((spec, stats));
        }
        self.fill_s = Some(t.stop().0);
        let names: HashMap<String, &str> = self
            .points
            .iter()
            .map(|p| (p.job.key(), p.name.as_str()))
            .collect();
        let mut figures = Vec::new();
        for (spec, stats) in fills {
            let mut digests = Vec::new();
            let mut sampled_cpi = Vec::new();
            let mut modelled = Modelled::default();
            for (i, (job, s)) in spec.jobs().iter().zip(&stats).enumerate() {
                let name = names
                    .get(&job.key())
                    .map_or_else(|| point_name(&spec, i, job), |n| n.to_string());
                let e = self
                    .refs
                    .get(STORE, &name)
                    .ok_or_else(|| format!("no reference for {name}"))?;
                if digest(s) != e.digest {
                    return Err(format!("store fill of {name} differs from its reference"));
                }
                digests.push(e.digest);
                sampled_cpi.push(e.sampled_cpi);
                modelled.add(s);
            }
            let (rendered, figure_json, stacks_json) = render_figure(&spec, &stats);
            figures.push(Figure {
                spec,
                rendered,
                figure_json,
                stacks_json,
                digests,
                sampled_cpi,
                modelled,
            });
        }
        self.figures = figures;
        self.store = Some(store);
        Ok(())
    }

    /// Start a server over the filled store and warm its memo with one
    /// pass over the registry.
    fn start_server(&mut self) -> Result<(), String> {
        let engine = SweepEngine::with_stores(1, ExecMode::Detailed, None, self.store.clone());
        let server = JobServer::bind("127.0.0.1:0", engine, 1).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = std::thread::spawn(move || server.run());
        self.server = Some(Server {
            addr,
            handle: Some(handle),
        });
        for id in FIGURE_IDS {
            let lines = request_lines(addr, &figure_request(id)).map_err(|e| e.to_string())?;
            if lines.iter().any(|l| l.contains("\"event\":\"error\"")) {
                return Err(format!("warm pass {id}: {lines:?}"));
            }
        }
        Ok(())
    }

    /// Stop the server, if any.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.server.as_mut().map_or(Ok(()), Server::stop)
    }

    /// Mean |sampled − detailed| / detailed CPI over one full pass of what
    /// the workload answers (`Kind::error_pass`), in percent. On `detailed`
    /// no run affords the 420-job pass, and every op's detailed CPI must
    /// equal its reference or the op fails; the figure is the grid's, from
    /// the references, so it is the same in every run whatever ops it made.
    pub fn cpi_err_pct(&self, outs: &[Outcome]) -> f64 {
        let errs: Vec<f64> = if self.kind == Kind::Detailed {
            self.points
                .iter()
                .filter_map(|p| self.refs.get(REF, &p.name))
                .map(|e| cpi_err_pct(e.sampled_cpi, e.detailed_cpi))
                .collect()
        } else {
            let pass = self.kind.error_pass(self.points.len()).min(outs.len());
            outs[..pass]
                .iter()
                .flat_map(|o| o.cpi_err.iter().copied())
                .collect()
        };
        errs.iter().sum::<f64>() / errs.len().max(1) as f64
    }

    /// Run op `i` (ops cycle through the seeded order).
    pub fn op(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        tr.set_op(i as u64);
        let mut out = match self.kind {
            Kind::Detailed => self.op_detailed(self.point(i).clone(), tr),
            Kind::Sampled => self.op_sampled(self.point(i).clone(), tr),
            Kind::WarmStore => self.op_warm_store(i, tr),
            Kind::Serve => self.op_serve(i, tr),
        };
        // Only the error pass's errors are averaged; dropping the rest keeps
        // the benchmark's own bookkeeping from growing `peak_rss_mb` with
        // the number of ops a run makes.
        if i >= self.kind.error_pass(self.points.len()) {
            out.cpi_err = Vec::new();
        }
        out
    }

    /// The generator behind op (or serve cycle) `n`: a pure function of
    /// the seed and `n`, so op `n` is the same op however often it runs.
    fn rng_for(&self, n: u64) -> Rng {
        Rng::seed_from_u64(self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Wait, untimed, a seeded time in [0, `ACCEPT_POLL`) before serve
    /// request `i` (`replay` picks a second draw for the replayed request).
    /// A closed-loop client that reconnects as soon as its last reply is
    /// read lands at a fixed phase of the server's accept poll, and waits
    /// out the rest of the interval whatever the server's work took; with
    /// a uniform phase, the accept wait averages half the interval and the
    /// work adds to every op.
    fn accept_phase(&self, i: usize, replay: bool) {
        let mut rng = self.rng_for(!(i as u64));
        let u = rng.gen_f64();
        let u = if replay { rng.gen_f64() } else { u };
        std::thread::sleep(ACCEPT_POLL.mul_f64(u));
    }

    fn point(&self, i: usize) -> &Point {
        &self.points[self.order[i % self.order.len()]]
    }

    /// One cold grid job on a fresh single-worker detailed engine.
    fn op_detailed(&mut self, p: Point, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let t = Stopwatch::start(self.kind.cpu_clock());
        let op = tr.begin("op");
        let engine = SweepEngine::new(1);
        let s = tr.begin("sweep.try_run_jobs");
        let result = engine.try_run_jobs(std::slice::from_ref(&p.job));
        tr.end(s);
        tr.end(op);
        (out.secs, out.wall_secs) = t.stop();
        out.instructions = budget_instructions(p.job.budget);
        out.detailed_instructions = out.instructions;
        out.counters = engine_counters(&engine);

        let stats = match result.into_iter().next() {
            Some(Ok(s)) => s,
            Some(Err(e)) => {
                out.fail(format!("{}: {e}", p.name));
                return out;
            }
            None => {
                out.fail("no result");
                return out;
            }
        };
        out.modelled.add(&stats);
        let table = if p.job.budget == store_budget() {
            STORE
        } else {
            REF
        };
        match self.refs.get(table, &p.name) {
            Some(e) if e.digest == digest(&stats) && e.detailed_cpi == cpi(&stats) => {}
            _ => out.fail(format!(
                "{}: detailed stats differ from the reference",
                p.name
            )),
        }
        if tr.is_on() {
            match replay_detailed(&p.job, tr) {
                Ok(r) if digest(&r) == digest(&stats) => {}
                Ok(_) => out.fail(format!("{}: replay differs from the op", p.name)),
                Err(e) => out.fail(format!("{}: replay: {e}", p.name)),
            }
        }
        out
    }

    /// One grid job, sampled, on a fresh engine over the filled
    /// checkpoint store.
    fn op_sampled(&mut self, p: Point, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let t = Stopwatch::start(self.kind.cpu_clock());
        let op = tr.begin("op");
        let engine = SweepEngine::with_mode(1, ExecMode::Sampled(self.plan), self.ckpt.clone());
        let s = tr.begin("sweep.try_run_jobs");
        let result = engine.try_run_jobs(std::slice::from_ref(&p.job));
        tr.end(s);
        tr.end(op);
        (out.secs, out.wall_secs) = t.stop();
        out.instructions = budget_instructions(p.job.budget);
        out.detailed_instructions = self.plan.detailed_instructions();
        out.counters = engine_counters(&engine);

        let stats = match result.into_iter().next() {
            Some(Ok(s)) => s,
            Some(Err(e)) => {
                out.fail(format!("{}: {e}", p.name));
                return out;
            }
            None => {
                out.fail("no result");
                return out;
            }
        };
        out.modelled.add(&stats);
        match self.refs.get(REF, &p.name) {
            Some(e) if e.sampled_cpi == cpi(&stats) => {
                out.cpi_err.push(cpi_err_pct(cpi(&stats), e.detailed_cpi));
            }
            _ => out.fail(format!(
                "{}: sampled CPI differs from the reference",
                p.name
            )),
        }
        if tr.is_on() {
            let store = self
                .ckpt
                .as_ref()
                .expect("sampled bench has a checkpoint store");
            match replay_sampled(&p.job, self.plan, store, tr) {
                Ok(r) if cpi(&r) == cpi(&stats) => {}
                Ok(_) => out.fail(format!("{}: replay differs from the op", p.name)),
                Err(e) => out.fail(format!("{}: replay: {e}", p.name)),
            }
        }
        out
    }

    /// The whole registry on a fresh engine over the warm result store:
    /// every figure, its stacks and JSON, in a seeded figure order.
    fn op_warm_store(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let order = figure_order(&mut self.rng_for(i as u64));
        let mut out = Outcome::default();
        let mut delivered: Vec<Answered> = Vec::with_capacity(order.len());
        let t = Stopwatch::start(self.kind.cpu_clock());
        let op = tr.begin("op");
        let engine = SweepEngine::with_stores(1, ExecMode::Detailed, None, self.store.clone());
        for &f in &order {
            let s = tr.begin("experiments.spec");
            let spec = FigureSpec::for_id(FIGURE_IDS[f], &Workload::paper_set(), store_budget())
                .expect("registry id");
            let jobs = spec.jobs();
            tr.end(s);
            let s = tr.begin("sweep.try_run_jobs");
            let results = engine.try_run_jobs(&jobs);
            tr.end(s);
            let s = tr.begin("experiments.render");
            let stats: Result<Vec<Arc<SimStats>>, _> = results.iter().cloned().collect();
            let rendered = stats.ok().map(|st| render_figure(&spec, &st).0);
            tr.end(s);
            let results = results.into_iter().map(|r| r.map_err(|e| e.to_string()));
            delivered.push((f, results.collect(), rendered));
        }
        tr.end(op);
        (out.secs, out.wall_secs) = t.stop();
        out.counters = engine_counters(&engine);
        if out.counters.jobs_run != 0 {
            out.fail(format!(
                "{} jobs simulated on a warm store",
                out.counters.jobs_run
            ));
        }

        let mut replay_jobs = Vec::new();
        for (f, results, rendered) in &delivered {
            let fig = &self.figures[*f];
            if rendered.as_deref() != Some(fig.rendered.as_str()) {
                out.fail(format!(
                    "{}: output differs from the cold render",
                    fig.spec.id
                ));
            }
            for (j, r) in results.iter().enumerate() {
                out.instructions += budget_instructions(store_budget());
                match r {
                    Ok(s) if digest(s) == fig.digests[j] => {
                        out.modelled.add(s);
                        out.cpi_err.push(cpi_err_pct(fig.sampled_cpi[j], cpi(s)));
                    }
                    Ok(_) => out.fail(format!(
                        "{}: job {j} differs from its reference",
                        fig.spec.id
                    )),
                    Err(e) => out.fail(format!("{}: {e}", fig.spec.id)),
                }
            }
            if tr.is_on() {
                replay_jobs.extend(fig.spec.jobs().into_iter().zip(fig.digests.clone()));
            }
        }
        if tr.is_on() {
            let store = self.store.as_ref().expect("warm-store bench has a store");
            if let Err(e) = replay_store(&replay_jobs, store, tr) {
                out.fail(e);
            }
        }
        out
    }

    /// One `figure` request with stacks to the warm server, through the
    /// shipped client (one connection per request).
    fn op_serve(&mut self, i: usize, tr: &mut Tracer) -> Outcome {
        let cycle = figure_order(&mut self.rng_for((i / FIGURE_IDS.len()) as u64));
        let f = cycle[i % FIGURE_IDS.len()];
        let addr = self.server.as_ref().expect("serve bench has a server").addr;
        let request = figure_request(FIGURE_IDS[f]);
        let mut out = Outcome::default();
        self.accept_phase(i, false);
        let t = Stopwatch::start(self.kind.cpu_clock());
        let op = tr.begin("op");
        let s = tr.begin("server.request");
        let reply = request_lines(addr, &request);
        tr.end(s);
        tr.end(op);
        (out.secs, out.wall_secs) = t.stop();

        let fig = &self.figures[f];
        let jobs = fig.digests.len() as u64;
        out.instructions = jobs * budget_instructions(store_budget());
        out.modelled = fig.modelled;
        let lines = match reply {
            Ok(l) => l,
            Err(e) => {
                out.fail(format!("request {}: {e}", fig.spec.id));
                return out;
            }
        };
        match check_reply(&lines, fig) {
            Ok((counters, cpis)) => {
                out.counters = counters;
                out.cpi_err = cpis
                    .iter()
                    .zip(&fig.sampled_cpi)
                    .map(|(&d, &s)| cpi_err_pct(s, d))
                    .collect();
            }
            Err(e) => out.fail(format!("{}: {e}", fig.spec.id)),
        }
        if tr.is_on() {
            self.accept_phase(i, true);
            match replay_serve(addr, &request, tr) {
                Ok(replayed) if same_payload(&replayed, &lines) => {}
                Ok(_) => out.fail(format!("{}: replayed reply differs", fig.spec.id)),
                Err(e) => out.fail(format!("{}: replay: {e}", fig.spec.id)),
            }
        }
        out
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Err(e) = self.shutdown() {
            eprintln!("[hostbench] {e}");
        }
    }
}

fn figure_request(id: &str) -> String {
    let b = store_budget();
    format!(
        "{{\"cmd\":\"figure\",\"id\":\"{id}\",\"warmup\":{},\"measure\":{},\"max_cycles\":{},\"stacks\":true}}",
        b.warmup, b.measure, b.max_cycles
    )
}

fn engine_counters(engine: &SweepEngine) -> Counters {
    let s = engine.summary();
    Counters {
        jobs_requested: s.jobs_requested,
        jobs_run: s.jobs_run,
        cache_hits: s.cache_hits,
        store_hits: s.store_hits,
        dedup_hits: 0,
    }
}

fn event(line: &str) -> Option<(String, JsonValue)> {
    let v = parse(line).ok()?;
    let e = v.get("event")?.as_str()?.to_string();
    Some((e, v))
}

/// Check a server reply against the local render; return its summary
/// counters and the CPI of every grid point from the stacks.
fn check_reply(lines: &[String], fig: &Figure) -> Result<(Counters, Vec<f64>), String> {
    let mut counters = None;
    let mut cpis = None;
    let mut figure_ok = false;
    let mut done = false;
    for line in lines {
        let (e, v) = event(line).ok_or_else(|| format!("unparsable event `{line}`"))?;
        match e.as_str() {
            "hello" => {}
            "figure" => {
                let f = v.get("figure").and_then(figure_from_json);
                figure_ok = f.map(|f| f.to_json()).as_deref() == Some(fig.figure_json.as_str());
            }
            "stacks" => {
                let s = v
                    .get("stacks")
                    .and_then(stacks_from_json)
                    .ok_or("unreadable stacks")?;
                if s.to_json() != fig.stacks_json {
                    return Err("stacks differ from the local render".into());
                }
                cpis = Some(s.rows.iter().map(|r| r.cpi).collect::<Vec<f64>>());
            }
            "summary" => {
                let n = |k: &str| v.get(k).and_then(JsonValue::as_u64).unwrap_or(u64::MAX);
                counters = Some(Counters {
                    jobs_requested: n("jobs_requested"),
                    jobs_run: n("jobs_run"),
                    cache_hits: n("cache_hits"),
                    store_hits: n("store_hits"),
                    dedup_hits: n("dedup_hits"),
                });
            }
            "done" => done = v.get("id").and_then(JsonValue::as_str) == Some(&fig.spec.id),
            other => return Err(format!("`{other}` event: {line}")),
        }
    }
    if !figure_ok {
        return Err("figure differs from the local render".into());
    }
    if !done {
        return Err("no `done` event".into());
    }
    let counters = counters.ok_or("no summary")?;
    if counters.jobs_run != 0 {
        return Err(format!(
            "{} jobs simulated on a warm server",
            counters.jobs_run
        ));
    }
    Ok((counters, cpis.ok_or("no stacks")?))
}

/// Replies agree when every line but `hello` is identical.
fn same_payload(a: &[String], b: &[String]) -> bool {
    let body = |l: &[String]| l.iter().skip(1).cloned().collect::<Vec<_>>();
    body(a) == body(b)
}

/// The detailed job's nested public calls, each under its own span:
/// `Job::key_with_mode`, `Workload::programs`, `Machine::new`, and the
/// warm-up and measured `Machine::run`.
fn replay_detailed(job: &Job, tr: &mut Tracer) -> Result<SimStats, String> {
    let r = tr.begin("replay");
    let s = tr.begin("sweep.key");
    black_box(job.key_with_mode(ExecMode::Detailed));
    tr.end(s);
    let s = tr.begin("workload.programs");
    let programs = job.workload.programs();
    tr.end(s);
    let cfg = job.workload.config_for(&job.config);
    let s = tr.begin("pipeline.new");
    let m = Machine::new(cfg, programs);
    tr.end(s);
    let mut m = m.map_err(|e| e.to_string())?;
    let b = job.budget;
    if b.warmup > 0 {
        let s = tr.begin("pipeline.run");
        let n = m
            .run(b.warmup, b.max_cycles)
            .map_err(|e| e.to_string())?
            .total_retired();
        tr.end_with(s, n);
        m.reset_stats();
    }
    let s = tr.begin("pipeline.run");
    let stats = m
        .run(b.measure, b.max_cycles)
        .map_err(|e| e.to_string())?
        .clone();
    tr.end_with(s, stats.total_retired());
    tr.end(r);
    Ok(stats)
}

/// The sampled job's nested public calls: checkpoint load, functional
/// fast-forward, window snapshots, machine construction, restore, and
/// the detailed windows.
fn replay_sampled(
    job: &Job,
    plan: SamplingPlan,
    store: &CheckpointStore,
    tr: &mut Tracer,
) -> Result<SimStats, String> {
    let err = |e: looseloops::SimError| e.to_string();
    let r = tr.begin("replay");
    let s = tr.begin("sweep.key");
    black_box(job.key_with_mode(ExecMode::Sampled(plan)));
    tr.end(s);
    let s = tr.begin("workload.programs");
    let programs = job.workload.programs();
    tr.end(s);
    let cfg = job.workload.config_for(&job.config);
    let b = job.budget;
    let s = tr.begin("checkpoint.load");
    let ckpt = store.load(warm_digest(&cfg, &job.workload, b.warmup));
    tr.end(s);
    let ckpt = ckpt
        .map_err(|e| e.to_string())?
        .ok_or("checkpoint missing from the store")?;
    let s = tr.begin("checkpoint.cursor");
    let cursor = FunctionalCursor::from_checkpoint(&cfg, programs.clone(), &ckpt);
    tr.end(s);
    let mut cursor = cursor.map_err(err)?;
    let mut agg: Option<SimStats> = None;
    for _ in 0..plan.windows {
        let s = tr.begin("isa.advance");
        let n = cursor.advance(plan.skip).map_err(err)?;
        tr.end_with(s, n);
        if cursor.all_halted() {
            break;
        }
        let s = tr.begin("checkpoint.snapshot");
        let window = cursor.checkpoint();
        tr.end(s);
        let s = tr.begin("pipeline.new");
        let m = Machine::new(cfg.clone(), programs.clone());
        tr.end(s);
        let mut m = m.map_err(err)?;
        let s = tr.begin("checkpoint.restore");
        let restored = restore_into(&mut m, &window);
        tr.end(s);
        restored.map_err(err)?;
        if plan.detail_warmup > 0 {
            let s = tr.begin("pipeline.run");
            let n = m
                .run(plan.detail_warmup, b.max_cycles)
                .map_err(err)?
                .total_retired();
            tr.end_with(s, n);
            m.reset_stats();
        }
        let s = tr.begin("pipeline.run");
        let stats = m.run(plan.detail, b.max_cycles).map_err(err)?.clone();
        tr.end_with(s, stats.total_retired());
        if stats.total_retired() > 0 && stats.cycles > 0 {
            match &mut agg {
                None => agg = Some(stats),
                Some(a) => a.absorb(&stats),
            }
        }
        let s = tr.begin("isa.advance");
        let n = cursor
            .advance(plan.detail_warmup + plan.detail)
            .map_err(err)?;
        tr.end_with(s, n);
    }
    tr.end(r);
    agg.ok_or_else(|| "no window measured".into())
}

/// The warm-store op's nested calls for every job it answered: the memo
/// key and the store load behind each memo miss. Loads are checked after
/// the replay span closes.
fn replay_store(jobs: &[(Job, u64)], store: &ResultStore, tr: &mut Tracer) -> Result<(), String> {
    let r = tr.begin("replay");
    let mut seen = std::collections::HashSet::new();
    let mut loaded = Vec::new();
    for (i, (job, _)) in jobs.iter().enumerate() {
        let s = tr.begin("sweep.key");
        let key = job.key_with_mode(ExecMode::Detailed);
        tr.end(s);
        let digest_of_key = looseloops::fnv1a64(key.as_bytes());
        if !seen.insert(digest_of_key) {
            continue;
        }
        let s = tr.begin("store.load");
        let got = store.load(digest_of_key, &key);
        tr.end(s);
        loaded.push((i, got));
    }
    tr.end(r);
    for (i, got) in loaded {
        let (job, want) = &jobs[i];
        match got {
            Ok(Some(stats)) if digest(&stats) == *want => {}
            Ok(Some(_)) => return Err(format!("{}: stored result differs", job.label())),
            Ok(None) => return Err(format!("{}: store miss", job.label())),
            Err(e) => return Err(format!("{}: {e}", job.label())),
        }
    }
    Ok(())
}

/// The serve op's request again, from a client that timestamps the
/// connection and each event: `server.hello` is connect → `hello` (the
/// accept wait), `server.figure` is `hello` → `figure`, `server.done` is
/// `figure` → `done`.
fn replay_serve(addr: SocketAddr, request: &str, tr: &mut Tracer) -> Result<Vec<String>, String> {
    let io = |e: std::io::Error| e.to_string();
    let r = tr.begin("replay");
    let mut phase = tr.begin("server.hello");
    let stream = TcpStream::connect(addr).map_err(io)?;
    let mut w = stream.try_clone().map_err(io)?;
    w.write_all(request.as_bytes()).map_err(io)?;
    w.write_all(b"\n").map_err(io)?;
    w.flush().map_err(io)?;
    let mut lines = Vec::new();
    // Every event line starts with its `event` member; matching the
    // prefix keeps JSON parsing out of the timed phases.
    let is = |line: &str, e: &str| line.starts_with(&format!("{{\"event\":\"{e}\""));
    for line in BufReader::new(stream).lines() {
        let line = line.map_err(io)?;
        if is(&line, "hello") {
            tr.end(phase);
            phase = tr.begin("server.figure");
        } else if is(&line, "figure") {
            tr.end(phase);
            phase = tr.begin("server.done");
        }
        let last = is(&line, "done") || is(&line, "error");
        lines.push(line);
        if last {
            break;
        }
    }
    tr.end(phase);
    tr.end(r);
    Ok(lines)
}

/// Fresh per-run scratch directory for the stores.
pub fn work_dir(root: &Path, tag: &str) -> PathBuf {
    root.join(format!("{tag}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Corrupting one reference value makes the op that checks it fail.
    #[test]
    fn a_corrupted_reference_fails_its_op() {
        let refs = Arc::new(References::builtin());
        let work = work_dir(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
            "selftest",
        );
        let mut good = Bench::setup(Kind::Detailed, 3, &refs, &work).expect("setup");
        let mut off = Tracer::new(false);
        // Any op but one on the warm-up job, which set-up itself checks.
        let i = (0..)
            .find(|&i| good.point(i).name != good.points[0].name)
            .expect("more than one grid point");
        let name = good.point(i).name.clone();
        assert_eq!(good.op(i, &mut off).failure, None);

        let mut bad_refs = References::clone(&refs);
        let key = (REF.to_string(), name);
        bad_refs.map.get_mut(&key).expect("reference").detailed_cpi += 1e-9;
        let bad_refs = Arc::new(bad_refs);
        let mut bad = Bench::setup(Kind::Detailed, 3, &bad_refs, &work).expect("setup");
        let out = bad.op(i, &mut off);
        assert!(
            out.failure.is_some(),
            "corrupted reference must fail the op"
        );
        let _ = std::fs::remove_dir_all(&work);
    }
}
