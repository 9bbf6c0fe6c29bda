//! `looseloops serve` — a long-lived job server in front of one shared
//! [`SweepEngine`].
//!
//! Clients connect over TCP and speak newline-delimited JSON: one request
//! per line in, one event per line out. A request names a figure grid
//! ([`FigureSpec::for_id`]); the server runs the grid on its engine and
//! streams the rendered figure (and optionally its per-loop CPI stacks)
//! back, followed by a per-request summary. Because every client shares
//! the engine — and, when configured, its on-disk
//! [`ResultStore`](crate::store::ResultStore) — overlapping grids from
//! different clients simulate once.
//!
//! Three layers of reuse, from fastest to slowest:
//!
//! 1. the engine's in-memory memo cache (finished runs),
//! 2. the **in-flight table** in this module: a job currently simulating
//!    for one client is *joined*, not re-submitted, by every other client
//!    that needs it (`dedup hits` in the summary),
//! 3. the on-disk result store shared with batch runs.
//!
//! The wire format reuses the repo's dependency-free JSON story:
//! [`crate::report::json_escape`] writes, [`crate::json::parse`] reads.
//!
//! ## Protocol (version 1)
//!
//! ```text
//! server → {"event":"hello","version":1,"workers":N}
//! client → {"cmd":"figure","id":"fig4","warmup":1000,"measure":5000,
//!           "workloads":["compress","swim"],"stacks":true}
//! server → {"event":"figure","figure":{...}}          (FigureResult JSON)
//! server → {"event":"stacks","stacks":{...}}          (only with "stacks")
//! server → {"event":"summary","jobs_requested":J,"jobs_run":R,
//!           "cache_hits":C,"store_hits":S,"dedup_hits":D,"line":"..."}
//! server → {"event":"done","id":"fig4"}
//! client → {"cmd":"shutdown"}                          (stops the server)
//! server → {"event":"done","id":"shutdown"}
//! ```
//!
//! Any failure becomes `{"event":"error","message":"..."}`; the
//! connection stays usable for the next request.

use crate::experiments::{FigureSpec, Workload};
use crate::json::{parse, JsonValue};
use crate::report::{json_escape, CpiStackReport, CpiStackRow, FigureResult, Series};
use crate::simulator::RunBudget;
use crate::sweep::{lock_clean, SweepEngine};
use looseloops_pipeline::SimStats;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Wire-protocol version, announced in the `hello` event. Bump on any
/// incompatible change to the request or event shapes.
pub const PROTOCOL_VERSION: u32 = 1;

/// The budget a request runs at when it gives no budget fields — the
/// same numbers as the CLI's `figure --smoke`.
fn smoke_budget() -> RunBudget {
    RunBudget {
        warmup: 1_000,
        measure: 5_000,
        max_cycles: 2_000_000,
    }
}

/// One job's completion slot in the in-flight table. The owner (the
/// connection that got there first) fills it and notifies; joiners block
/// on [`JobCell::wait`].
struct JobCell {
    slot: Mutex<Option<Result<Arc<SimStats>, String>>>,
    cv: Condvar,
}

impl JobCell {
    fn new() -> JobCell {
        JobCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fill(&self, result: Result<Arc<SimStats>, String>) {
        *lock_clean(&self.slot) = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<SimStats>, String> {
        let mut guard = lock_clean(&self.slot);
        loop {
            if let Some(r) = guard.as_ref() {
                return r.clone();
            }
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A counting semaphore bounding how many requests execute grids at
/// once. Connections over the cap block *before* enqueuing work — the
/// backpressure surfaces to clients as a stalled response, and to the
/// OS as an unread socket.
struct Gate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            permits: Mutex::new(permits.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut p = lock_clean(&self.permits);
        while *p == 0 {
            p = self.cv.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
        *p -= 1;
    }

    fn release(&self) {
        *lock_clean(&self.permits) += 1;
        self.cv.notify_one();
    }
}

/// State shared by every connection thread.
struct Shared {
    engine: SweepEngine,
    inflight: Mutex<HashMap<String, Arc<JobCell>>>,
    gate: Gate,
    shutdown: AtomicBool,
    dedup_hits: AtomicU64,
}

/// Engine-counter snapshot used to report per-request deltas: the engine
/// is shared and long-lived, but each client wants to know what *its*
/// request cost.
#[derive(Clone, Copy)]
struct Counters {
    jobs_requested: u64,
    jobs_run: u64,
    cache_hits: u64,
    store_hits: u64,
}

impl Counters {
    fn of(engine: &SweepEngine) -> Counters {
        let s = engine.summary();
        Counters {
            jobs_requested: s.jobs_requested,
            jobs_run: s.jobs_run,
            cache_hits: s.cache_hits,
            store_hits: s.store_hits,
        }
    }
}

/// A bound `looseloops serve` daemon: one shared [`SweepEngine`], an
/// in-flight dedup table, and a bounded execution gate.
pub struct JobServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl JobServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) in front
    /// of `engine`. `queue_cap` bounds concurrently *executing* requests;
    /// further requests block until a slot frees (clamped to ≥ 1).
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: SweepEngine,
        queue_cap: usize,
    ) -> io::Result<JobServer> {
        let listener = TcpListener::bind(addr)?;
        Ok(JobServer {
            listener,
            shared: Arc::new(Shared {
                engine,
                inflight: Mutex::new(HashMap::new()),
                gate: Gate::new(queue_cap),
                shutdown: AtomicBool::new(false),
                dedup_hits: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve connections until a client sends
    /// `{"cmd":"shutdown"}`. Every connection runs on its own thread;
    /// `run` joins them all before returning, so in-flight requests
    /// finish cleanly.
    pub fn run(self) -> io::Result<()> {
        // Non-blocking accept + sleep so the loop can observe shutdown;
        // std's TcpListener has no accept timeout.
        self.listener.set_nonblocking(true)?;
        let mut handles = Vec::new();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&self.shared);
                    handles.push(std::thread::spawn(move || {
                        if let Err(e) = handle_connection(stream, &shared) {
                            eprintln!("[serve] connection error: {e}");
                        }
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }
        for h in handles {
            let _ = h.join();
        }
        Ok(())
    }
}

fn send(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

fn send_error(stream: &mut TcpStream, message: &str) -> io::Result<()> {
    send(
        stream,
        &format!(
            "{{\"event\":\"error\",\"message\":{}}}",
            json_escape(message)
        ),
    )
}

/// Collapse the repo's pretty-printed JSON onto one NDJSON line. Safe
/// because [`json_escape`] never emits a raw newline inside a string —
/// the only `\n` bytes in the rendering are inter-token whitespace.
fn compact(pretty: &str) -> String {
    pretty.replace('\n', " ")
}

/// Read one `\n`-terminated line, polling `shutdown` between short read
/// timeouts so connection threads exit promptly when the server stops.
/// `Ok(None)` on EOF or shutdown.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    shutdown: &AtomicBool,
) -> io::Result<Option<String>> {
    let mut line = String::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match reader.read_line(&mut line) {
            Ok(0) => {
                return Ok(if line.trim().is_empty() {
                    None
                } else {
                    Some(line)
                })
            }
            Ok(_) => {
                if line.ends_with('\n') {
                    return Ok(Some(line));
                }
                // Timed out mid-line: keep accumulating.
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle poll: check shutdown and wait for more bytes.
            }
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(250)))?;
    let mut out = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    send(
        &mut out,
        &format!(
            "{{\"event\":\"hello\",\"version\":{PROTOCOL_VERSION},\"workers\":{}}}",
            shared.engine.workers()
        ),
    )?;
    while let Some(line) = read_request(&mut reader, &shared.shutdown)? {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let req = match parse(line) {
            Ok(v) => v,
            Err(e) => {
                send_error(&mut out, &format!("bad request: {e}"))?;
                continue;
            }
        };
        match req.get("cmd").and_then(JsonValue::as_str) {
            Some("figure") => handle_figure(&mut out, shared, &req)?,
            Some("shutdown") => {
                shared.shutdown.store(true, Ordering::SeqCst);
                send(&mut out, "{\"event\":\"done\",\"id\":\"shutdown\"}")?;
                return Ok(());
            }
            Some(other) => send_error(&mut out, &format!("unknown cmd `{other}`"))?,
            None => send_error(&mut out, "request needs a string `cmd` field")?,
        }
    }
    Ok(())
}

/// Parse a request's optional workload list against the paper set.
fn workloads_from_request(req: &JsonValue) -> Result<Vec<Workload>, String> {
    let Some(names) = req.get("workloads").and_then(JsonValue::as_array) else {
        return Ok(Workload::paper_set());
    };
    names
        .iter()
        .map(|n| {
            let name = n
                .as_str()
                .ok_or_else(|| "workloads must be strings".to_string())?;
            Workload::paper_set()
                .into_iter()
                .find(|w| w.name() == name)
                .ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect()
}

fn budget_from_request(req: &JsonValue) -> RunBudget {
    let mut b = smoke_budget();
    if let Some(v) = req.get("warmup").and_then(JsonValue::as_u64) {
        b.warmup = v;
    }
    if let Some(v) = req.get("measure").and_then(JsonValue::as_u64) {
        b.measure = v;
    }
    if let Some(v) = req.get("max_cycles").and_then(JsonValue::as_u64) {
        b.max_cycles = v;
    }
    b
}

fn handle_figure(out: &mut TcpStream, shared: &Shared, req: &JsonValue) -> io::Result<()> {
    let Some(id) = req.get("id").and_then(JsonValue::as_str) else {
        return send_error(out, "figure request needs a string `id` field");
    };
    let workloads = match workloads_from_request(req) {
        Ok(w) => w,
        Err(msg) => return send_error(out, &msg),
    };
    let budget = budget_from_request(req);
    let Some(spec) = FigureSpec::for_id(id, &workloads, budget) else {
        return send_error(out, &format!("unknown figure `{id}`"));
    };

    shared.gate.acquire();
    let before = Counters::of(&shared.engine);
    let (results, dedup_hits) = run_deduped(shared, &spec.jobs());
    let after = Counters::of(&shared.engine);
    shared.gate.release();

    let failures: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    if !failures.is_empty() {
        let msg = format!(
            "{} job(s) failed: {}",
            failures.len(),
            failures
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join("; ")
        );
        return send_error(out, &msg);
    }
    let stats: Vec<Arc<SimStats>> = results
        .into_iter()
        .map(|r| r.expect("failures handled above"))
        .collect();

    let fig = spec.render(&stats);
    send(
        out,
        &format!(
            "{{\"event\":\"figure\",\"figure\":{}}}",
            compact(&fig.to_json())
        ),
    )?;
    if req.get("stacks").and_then(JsonValue::as_bool) == Some(true) {
        let rep = spec.render_stacks(&stats);
        send(
            out,
            &format!(
                "{{\"event\":\"stacks\",\"stacks\":{}}}",
                compact(&rep.to_json())
            ),
        )?;
    }

    // Per-request accounting: engine-counter deltas plus this request's
    // in-flight joins. The dedup count appears in the line even at zero,
    // so scripts can always grep for it.
    let line = format!(
        "{} jobs run, {} cache hits, {} store hits, {} dedup hits ({} workers)",
        after.jobs_run - before.jobs_run,
        after.cache_hits - before.cache_hits,
        after.store_hits - before.store_hits,
        dedup_hits,
        shared.engine.workers()
    );
    send(
        out,
        &format!(
            "{{\"event\":\"summary\",\"jobs_requested\":{},\"jobs_run\":{},\"cache_hits\":{},\
             \"store_hits\":{},\"dedup_hits\":{},\"line\":{}}}",
            after.jobs_requested - before.jobs_requested,
            after.jobs_run - before.jobs_run,
            after.cache_hits - before.cache_hits,
            after.store_hits - before.store_hits,
            dedup_hits,
            json_escape(&line)
        ),
    )?;
    send(
        out,
        &format!("{{\"event\":\"done\",\"id\":{}}}", json_escape(&spec.id)),
    )
}

/// Run `jobs` through the shared engine with in-flight deduplication:
/// jobs another connection is *currently* simulating are joined (we wait
/// on its [`JobCell`]) instead of re-submitted. Returns one result per
/// job in input order plus the number of joins.
fn run_deduped(
    shared: &Shared,
    jobs: &[crate::sweep::Job],
) -> (Vec<Result<Arc<SimStats>, String>>, u64) {
    let mode = shared.engine.mode();
    let keys: Vec<String> = jobs.iter().map(|j| j.key_with_mode(mode)).collect();

    // Claim or join each key. `owned` keeps only the first occurrence of
    // a key within this request — duplicates inside one batch are already
    // deduplicated by the engine, but they must not double-claim here.
    let mut owned: Vec<usize> = Vec::new();
    let mut joined: Vec<(usize, Arc<JobCell>)> = Vec::new();
    {
        let mut inflight = lock_clean(&shared.inflight);
        for (i, key) in keys.iter().enumerate() {
            if let Some(cell) = inflight.get(key) {
                joined.push((i, Arc::clone(cell)));
            } else {
                inflight.insert(key.clone(), Arc::new(JobCell::new()));
                owned.push(i);
            }
        }
    }
    let dedup_hits = joined.len() as u64;
    shared.dedup_hits.fetch_add(dedup_hits, Ordering::Relaxed);

    let mut out: Vec<Option<Result<Arc<SimStats>, String>>> = vec![None; jobs.len()];
    if !owned.is_empty() {
        let batch: Vec<crate::sweep::Job> = owned.iter().map(|&i| jobs[i].clone()).collect();
        let results = shared.engine.try_run_jobs(&batch);
        let mut inflight = lock_clean(&shared.inflight);
        for (&i, result) in owned.iter().zip(results) {
            let result = result.map_err(|e| e.to_string());
            // Publish to joiners, then retire the cell: completed jobs
            // live in the engine's memo cache, the table is in-flight
            // state only.
            if let Some(cell) = inflight.remove(&keys[i]) {
                cell.fill(result.clone());
            }
            out[i] = Some(result);
        }
    }
    for (i, cell) in joined {
        out[i] = Some(cell.wait());
    }
    (
        out.into_iter()
            .map(|r| r.expect("every job is owned or joined"))
            .collect(),
        dedup_hits,
    )
}

// ---------------------------------------------------------------------------
// Client side (`looseloops submit`)
// ---------------------------------------------------------------------------

/// Connect to a running server, send one request line, and collect every
/// event line up to (and including) the request's terminal `done` or
/// `error` event. The `hello` line is included, so callers see exactly
/// what went over the wire.
pub fn request_lines(addr: impl ToSocketAddrs, request: &str) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    let mut out = stream.try_clone()?;
    out.write_all(request.as_bytes())?;
    out.write_all(b"\n")?;
    out.flush()?;
    let mut lines = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line?;
        let terminal = matches!(
            parse(&line).ok().as_ref().and_then(|v| {
                v.get("event")
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
            }),
            Some(ref e) if e == "done" || e == "error"
        );
        lines.push(line);
        if terminal {
            break;
        }
    }
    Ok(lines)
}

/// Rebuild a [`FigureResult`] from its wire JSON (`figure` event
/// payload). `None` when required fields are missing or mistyped —
/// protocol mismatches degrade to "cannot render", never panic.
pub fn figure_from_json(v: &JsonValue) -> Option<FigureResult> {
    let series = v
        .get("series")?
        .as_array()?
        .iter()
        .map(|s| {
            Some(Series {
                label: s.get("label")?.as_str()?.to_string(),
                values: s
                    .get("values")?
                    .as_array()?
                    .iter()
                    .map(|n| n.as_f64().unwrap_or(f64::NAN))
                    .collect(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(FigureResult {
        id: v.get("id")?.as_str()?.to_string(),
        title: v.get("title")?.as_str()?.to_string(),
        columns: v
            .get("columns")?
            .as_array()?
            .iter()
            .map(|c| Some(c.as_str()?.to_string()))
            .collect::<Option<Vec<_>>>()?,
        series,
        paper_expectation: v.get("paper_expectation")?.as_str()?.to_string(),
    })
}

/// Rebuild a [`CpiStackReport`] from its wire JSON (`stacks` event
/// payload).
pub fn stacks_from_json(v: &JsonValue) -> Option<CpiStackReport> {
    let rows = v
        .get("rows")?
        .as_array()?
        .iter()
        .map(|r| {
            Some(CpiStackRow {
                label: r.get("label")?.as_str()?.to_string(),
                cpi: r.get("cpi")?.as_f64()?,
                components: r
                    .get("components")?
                    .as_array()?
                    .iter()
                    .map(|n| n.as_f64().unwrap_or(f64::NAN))
                    .collect(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(CpiStackReport {
        id: v.get("id")?.as_str()?.to_string(),
        title: v.get("title")?.as_str()?.to_string(),
        components: v
            .get("components")?
            .as_array()?
            .iter()
            .map(|c| Some(c.as_str()?.to_string()))
            .collect::<Option<Vec<_>>>()?,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Job;
    use looseloops_pipeline::PipelineConfig;
    use looseloops_workload::Benchmark;

    fn tiny_engine() -> SweepEngine {
        SweepEngine::new(2)
    }

    fn tiny_budget() -> RunBudget {
        RunBudget {
            warmup: 200,
            measure: 1_000,
            max_cycles: 1_000_000,
        }
    }

    fn start(engine: SweepEngine) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let server = JobServer::bind("127.0.0.1:0", engine, 2).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = std::thread::spawn(move || server.run().expect("serve"));
        (addr, handle)
    }

    fn event_of(line: &str) -> String {
        parse(line)
            .expect("event line parses")
            .get("event")
            .and_then(JsonValue::as_str)
            .expect("event field")
            .to_string()
    }

    #[test]
    fn figure_round_trips_and_matches_a_local_run() {
        let (addr, handle) = start(tiny_engine());
        let req = r#"{"cmd":"figure","id":"fig4","warmup":200,"measure":1000,"workloads":["compress","swim"],"stacks":true}"#;
        let lines = request_lines(addr, req).expect("request");
        let events: Vec<String> = lines.iter().map(|l| event_of(l)).collect();
        assert_eq!(events, ["hello", "figure", "stacks", "summary", "done"]);

        // The streamed figure re-renders byte-identically to a local run
        // of the same spec.
        let fig_json = parse(&lines[1]).unwrap();
        let fig = figure_from_json(fig_json.get("figure").unwrap()).expect("decodable figure");
        let workloads = [
            Workload::Single(Benchmark::Compress),
            Workload::Single(Benchmark::Swim),
        ];
        let spec = FigureSpec::for_id("fig4", &workloads, tiny_budget()).unwrap();
        let local = spec.render(&spec.run_on(&SweepEngine::new(1)).expect("fig4 runs"));
        assert_eq!(fig.to_table(), local.to_table());

        let stacks_json = parse(&lines[2]).unwrap();
        let rep = stacks_from_json(stacks_json.get("stacks").unwrap()).expect("decodable stacks");
        assert_eq!(rep.id, "fig4-stacks");
        assert_eq!(rep.rows.len(), 8, "4 configs x 2 workloads");

        let summary = parse(&lines[3]).unwrap();
        assert_eq!(summary.get("jobs_run").and_then(JsonValue::as_u64), Some(8));
        assert!(summary
            .get("line")
            .and_then(JsonValue::as_str)
            .unwrap()
            .contains("dedup hits"));

        request_lines(addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
        handle.join().expect("server thread");
    }

    #[test]
    fn a_second_identical_request_is_pure_cache_hits() {
        let (addr, handle) = start(tiny_engine());
        let req =
            r#"{"cmd":"figure","id":"fig9","warmup":200,"measure":1000,"workloads":["compress"]}"#;
        let first = request_lines(addr, req).expect("first");
        let second = request_lines(addr, req).expect("second");
        let summary_of = |lines: &[String]| {
            lines
                .iter()
                .map(|l| parse(l).unwrap())
                .find(|v| v.get("event").and_then(JsonValue::as_str) == Some("summary"))
                .expect("summary event")
        };
        let s1 = summary_of(&first);
        let s2 = summary_of(&second);
        assert_eq!(s1.get("jobs_run").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(s2.get("jobs_run").and_then(JsonValue::as_u64), Some(0));
        assert_eq!(s2.get("cache_hits").and_then(JsonValue::as_u64), Some(1));
        request_lines(addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
        handle.join().expect("server thread");
    }

    #[test]
    fn bad_requests_get_error_events_and_the_connection_survives() {
        let (addr, handle) = start(tiny_engine());
        for req in [
            "not json at all",
            r#"{"cmd":"figure"}"#,
            r#"{"cmd":"figure","id":"nonesuch"}"#,
            r#"{"cmd":"figure","id":"fig4","workloads":["nonesuch"]}"#,
            r#"{"cmd":"frobnicate"}"#,
        ] {
            let lines = request_lines(addr, req).expect("request");
            assert_eq!(event_of(lines.last().unwrap()), "error", "for {req}");
        }
        request_lines(addr, r#"{"cmd":"shutdown"}"#).expect("shutdown");
        handle.join().expect("server thread");
    }

    #[test]
    fn inflight_jobs_are_joined_not_resubmitted() {
        // Deterministic dedup check, no timing games: pre-claim a job's
        // key in the in-flight table, run a request for it on another
        // thread, and observe that the request blocks until the cell is
        // filled — and that its result is the one we published.
        let shared = Shared {
            engine: SweepEngine::new(1),
            inflight: Mutex::new(HashMap::new()),
            gate: Gate::new(1),
            shutdown: AtomicBool::new(false),
            dedup_hits: AtomicU64::new(0),
        };
        let job = Job::new(
            PipelineConfig::base(),
            Workload::Single(Benchmark::Compress),
            tiny_budget(),
        );
        let key = job.key_with_mode(shared.engine.mode());
        let cell = Arc::new(JobCell::new());
        lock_clean(&shared.inflight).insert(key, Arc::clone(&cell));

        std::thread::scope(|s| {
            let worker = s.spawn(|| run_deduped(&shared, std::slice::from_ref(&job)));
            // Publish a sentinel result; the joiner must return exactly it.
            std::thread::sleep(Duration::from_millis(50));
            let canned = Arc::new(SimStats::new(1));
            cell.fill(Ok(Arc::clone(&canned)));
            let (results, dedup) = worker.join().expect("joiner");
            assert_eq!(dedup, 1);
            assert_eq!(shared.engine.summary().jobs_run, 0, "nothing simulated");
            assert!(Arc::ptr_eq(results[0].as_ref().unwrap(), &canned));
        });
    }

    #[test]
    fn figure_and_stacks_json_survive_the_wire_format() {
        // compact() must keep the pretty renderings parseable.
        let workloads = [Workload::Single(Benchmark::Compress)];
        let spec = FigureSpec::for_id("fig4", &workloads, tiny_budget()).unwrap();
        let stats = spec.run_on(&SweepEngine::new(1)).expect("fig4 runs");
        let fig = spec.render(&stats);
        let parsed = parse(&compact(&fig.to_json())).expect("figure JSON parses");
        assert_eq!(
            figure_from_json(&parsed).unwrap().to_table(),
            fig.to_table()
        );
        let rep = spec.render_stacks(&stats);
        let parsed = parse(&compact(&rep.to_json())).expect("stacks JSON parses");
        assert_eq!(
            stacks_from_json(&parsed).unwrap().to_table(),
            rep.to_table()
        );
    }
}
