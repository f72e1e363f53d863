//! `serve_mix`: an in-process `warped-serve` with a disk cache and the
//! trace corpus, driven closed-loop by `nproc / 2` keep-alive connections.
//!
//! The seeded stream mixes repeats of a warm pool of cells (answered by
//! the memory cache, or by the disk cache once the memory budget —
//! deliberately below the pool's bytes — has evicted them), fresh cells
//! that simulate, and a few `/sweep` batches over the pool.

use std::collections::{BTreeMap, BTreeSet};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use warped_gates::Technique;
use warped_serve::client::Client;
use warped_serve::{http, json, spawn, ServerConfig, ServerHandle, Service, ServiceConfig};

use crate::cells::{load_corpus, synthetic_cells, trace_cells, Cell, Expected, Reference};
use crate::host::pin_process_to;
use crate::report::Report;
use crate::stats::{fnv1a, iq_mean, median, percentile, ratio, Rng};
use crate::sweep::{push_setup_layers, Sweep};
use crate::{EndToEnd, Settings, WORK_DIR};

/// The workload name.
pub const NAME: &str = "serve_mix";

/// Scale of the warm pool's cells.
pub const POOL_SCALE: f64 = 0.02;

/// Scale of fresh cells (distinct from the pool's, so a fresh cell
/// never aliases a pool cell).
pub const FRESH_SCALE: f64 = 0.01;

/// Memory-cache budget: about half the pool's result bytes, so repeats
/// split between the memory and disk tiers.
pub const CACHE_BYTES: usize = 64 << 10;

/// Out of 100 requests: `/sweep` batches, then fresh cells; the rest
/// repeat a pool cell.
const SWEEP_PCT: u64 = 2;
const FRESH_PCT: u64 = 20;

/// The measured loop runs in this many segments; between two segments
/// the loop pauses while [`SETUPS_PER_GAP`] more servers are started,
/// warmed, timed and stopped, so the set-up times sample the whole run.
/// Each segment, with the set-ups after it, runs on the next CPU.
const SEGMENTS: usize = 16;

/// Set-ups timed in each pause between segments, and after the last.
const SETUPS_PER_GAP: usize = 2;

/// Set-ups timed before the loop; the last of them serves the loop.
const SETUPS_BEFORE: usize = 3;

/// Spans a traced run keeps: the direct phase answers a few hundred
/// thousand requests, so only its first ones are kept.
const MAX_SPANS: usize = 50_000;

/// Pool cells per `/sweep` batch.
const SWEEP_CELLS: usize = 8;

/// The `/run` body of a pool cell.
fn pool_body(cell: &Cell) -> String {
    let (kind, name) = workload_of(cell);
    format!(
        "{{\"{kind}\":\"{name}\",\"technique\":\"{}\",\"scale\":{POOL_SCALE}}}",
        cell.technique.name()
    )
}

fn workload_of(cell: &Cell) -> (&'static str, String) {
    match cell.label.strip_prefix("trace:") {
        Some(rest) => ("trace_ref", rest.split('/').next().unwrap_or("").to_owned()),
        None => (
            "benchmark",
            cell.label.split('/').next().unwrap_or("").to_owned(),
        ),
    }
}

/// Fresh cell number `i` of a run. Consecutive cells walk every
/// workload × technique pair and, independently, the 5000
/// gating-parameter triples (by a stride coprime with 5000), so every
/// few thousand fresh cells hold the same mix whatever the seed, and no
/// cell repeats within lcm(pairs, 5000) cells — 90000 for the 144 pairs
/// of the corpus and catalog.
fn fresh_body(workloads: &[(&'static str, String)], offset: u64, i: u64) -> String {
    let n = workloads.len() as u64;
    let pair = pair_of(workloads, i) as u64;
    let (kind, name) = &workloads[(pair % n) as usize];
    let technique = Technique::ALL[(pair / n) as usize];
    let k = (offset + i * 1009) % 5000;
    format!(
        "{{\"{kind}\":\"{name}\",\"technique\":\"{}\",\"scale\":{FRESH_SCALE},\
         \"idle_detect\":{},\"bet\":{},\"wakeup_delay\":{}}}",
        technique.name(),
        1 + k % 20,
        6 + (k / 20) % 25,
        1 + k / 500
    )
}

/// The workload × technique pair of fresh cell number `i`.
fn pair_of(workloads: &[(&'static str, String)], i: u64) -> usize {
    (i % (workloads.len() as u64 * 6)) as usize
}

/// A started server with its pool warm.
struct Instance {
    server: ServerHandle,
    dir: PathBuf,
    /// First answer of each pool cell, by pool index.
    first: Vec<Vec<u8>>,
    /// Each warm-up answer checked against the reference.
    warm_checks: Vec<Result<(), String>>,
}

impl Instance {
    fn service(&self) -> &Service {
        self.server.service()
    }

    /// Waits until the disk cache's write-behind queue is written.
    fn flush(&self) {
        if let Some(disk) = &self.service().disk {
            disk.flush();
        }
    }

    /// Stops the server and deletes its cache directory. The server is
    /// dropped first: dropping the service drains the disk cache's
    /// write-behind queue, which would otherwise write into the
    /// directory after it is gone.
    fn stop(self) {
        let Instance {
            mut server, dir, ..
        } = self;
        server.shutdown();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The `cycles` field of a report body.
fn cycles_of(body: &[u8]) -> Result<u64, String> {
    let text = std::str::from_utf8(body).map_err(|_| "report is not UTF-8".to_owned())?;
    let doc = json::parse(text).map_err(|e| format!("report is not JSON: {e}"))?;
    if doc.get("timed_out").and_then(json::JsonValue::as_bool) != Some(false) {
        return Err("report says timed_out".to_owned());
    }
    doc.get("cycles")
        .and_then(json::JsonValue::as_u64)
        .filter(|c| *c > 0)
        .ok_or_else(|| "report has no positive cycles".to_owned())
}

/// Spawns a server over a fresh disk-cache directory.
fn spawn_instance(name: &str, workers: usize) -> Result<(ServerHandle, PathBuf), String> {
    let dir = Path::new(WORK_DIR).join(format!("serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers,
        service: ServiceConfig {
            cache_bytes: CACHE_BYTES,
            disk_dir: Some(dir.join("cache")),
            trace_dir: Some(PathBuf::from(crate::cells::TRACE_DIR)),
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("cannot start warped-serve: {e}"))?;
    Ok((server, dir))
}

/// Asks for every pool cell once over one keep-alive connection and
/// returns the answers' bodies, by pool index.
fn warm(server: &ServerHandle, pool: &[Cell]) -> Result<Vec<Vec<u8>>, String> {
    let mut client = Client::new(server.addr());
    pool.iter()
        .map(|cell| {
            let answer = client
                .post_json("/run", &pool_body(cell))
                .map_err(|e| format!("{}: warm-up request failed: {e}", cell.label))?;
            if answer.status == 200 {
                Ok(answer.body)
            } else {
                Err(format!(
                    "{}: warm-up answered {}",
                    cell.label, answer.status
                ))
            }
        })
        .collect()
}

/// What the reference records for one served `/run` body: its cycles and
/// a digest of all its bytes, so every field the server reports — gating
/// counters, `ff_cycles`, instructions, IPC, fingerprint, timeout flag —
/// is checked, not only the cycles.
fn served(body: &[u8]) -> Result<Expected, String> {
    Ok(Expected {
        cycles: cycles_of(body)?,
        digest: fnv1a(body),
    })
}

/// Spawns a server and warms the pool, checking every first answer
/// byte for byte (by digest) against the reference: a mismatch is a
/// failed operation of the run, not a set-up error.
fn start(
    instance: usize,
    pool: &[Cell],
    reference: &Reference,
    workers: usize,
) -> Result<Instance, String> {
    let (server, dir) = spawn_instance(&instance.to_string(), workers)?;
    let first = warm(&server, pool)?;
    let warm_checks = pool
        .iter()
        .zip(&first)
        .map(|(cell, body)| {
            served(body)
                .and_then(|got| reference.check(&cell.label, got))
                .map_err(|e| format!("{}: warm-up: {e}", cell.label))
        })
        .collect();
    let inst = Instance {
        server,
        dir,
        first,
        warm_checks,
    };
    inst.flush();
    Ok(inst)
}

/// The pool: every synthetic and trace cell at [`POOL_SCALE`].
fn pool_cells() -> Result<Vec<Cell>, String> {
    let corpus = load_corpus()?;
    let mut pool = synthetic_cells();
    pool.extend(trace_cells(&corpus.traces));
    Ok(pool)
}

/// Writes the pool's reference: each cell's `/run` body as a server
/// built from this checkout serves it.
///
/// # Errors
///
/// Fails when the corpus cannot be read, the server cannot be started
/// or answers badly, or the write fails.
pub fn bless() -> Result<String, String> {
    let pool = pool_cells()?;
    let (mut server, dir) = spawn_instance("bless", 1)?;
    let bodies = warm(&server, &pool);
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    let mut reference = Reference::default();
    for (cell, body) in pool.iter().zip(bodies?) {
        reference.insert(&cell.label, served(&body)?);
    }
    let path = reference.write(NAME, POOL_SCALE, "digest of the served /run body")?;
    Ok(format!("{} cells -> {}", reference.len(), path.display()))
}

/// What kind of request the stream asked for. A `/run` kind also names
/// its cell: a pool cell, or a fresh cell's workload × technique pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Repeat(usize),
    Fresh(usize),
    Sweep,
}

/// One request of the stream.
struct Request {
    kind: Kind,
    path: &'static str,
    body: String,
    /// The pool cells a `/sweep` batch names, in order.
    batch: Vec<usize>,
}

/// The seeded request stream of one connection.
struct Stream<'a> {
    rng: Rng,
    fresh: &'a AtomicU64,
    workloads: &'a [(&'static str, String)],
    offset: u64,
}

impl Stream<'_> {
    fn next(&mut self, pool: &[Cell]) -> Request {
        let r = self.rng.below(100);
        let mut pick = || self.rng.below(pool.len() as u64) as usize;
        if r < SWEEP_PCT {
            let batch: Vec<usize> = (0..SWEEP_CELLS).map(|_| pick()).collect();
            let bodies: Vec<String> = batch.iter().map(|&i| pool_body(&pool[i])).collect();
            Request {
                kind: Kind::Sweep,
                path: "/sweep",
                body: format!("[{}]", bodies.join(",")),
                batch,
            }
        } else if r < SWEEP_PCT + FRESH_PCT {
            let i = self.fresh.fetch_add(1, Ordering::Relaxed);
            Request {
                kind: Kind::Fresh(pair_of(self.workloads, i)),
                path: "/run",
                body: fresh_body(self.workloads, self.offset, i),
                batch: Vec::new(),
            }
        } else {
            let i = pick();
            Request {
                kind: Kind::Repeat(i),
                path: "/run",
                body: pool_body(&pool[i]),
                batch: Vec::new(),
            }
        }
    }
}

/// One answered request of the closed loop.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Seconds from the loop's start to the request's.
    at: f64,
    ms: f64,
    kind: Kind,
    /// Simulated cycles, for a fresh cell.
    cycles: u64,
}

/// Per-connection results of the closed loop.
#[derive(Debug, Default)]
struct Loop {
    report: Report,
    samples: Vec<Sample>,
    spans: Vec<String>,
    /// Seconds the samples span, for a window.
    wall: f64,
}

impl Loop {
    fn latencies(&self, pick: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| pick(s.kind))
            .map(|s| s.ms)
            .collect()
    }

    fn hit_ms(&self) -> Vec<f64> {
        self.latencies(|k| matches!(k, Kind::Repeat(_)))
    }

    fn miss_ms(&self) -> Vec<f64> {
        self.latencies(|k| matches!(k, Kind::Fresh(_)))
    }
}

/// Checks a `/sweep` answer: one line per requested cell, each carrying
/// exactly the bytes `/run` first answered for it.
fn check_sweep(inst: &Instance, batch: &[usize], lines: &[String]) -> Result<(), String> {
    let want: BTreeSet<String> = batch
        .iter()
        .enumerate()
        .map(|(i, &cell)| {
            let report = String::from_utf8_lossy(&inst.first[cell]);
            format!("{{\"index\":{i},\"report\":{}}}", report.trim_end())
        })
        .collect();
    let got: BTreeSet<String> = lines.iter().cloned().collect();
    if lines.len() == batch.len() && got == want {
        Ok(())
    } else {
        Err(format!(
            "/sweep of {} cells answered {} lines that differ from /run",
            batch.len(),
            lines.len()
        ))
    }
}

/// One keep-alive connection's closed loop until `deadline`.
fn drive(
    inst: &Instance,
    pool: &[Cell],
    stream: &mut Stream<'_>,
    deadline: Instant,
    epoch: Instant,
    conn: usize,
) -> Loop {
    let mut out = Loop::default();
    let mut client = Client::new(inst.server.addr());
    while Instant::now() < deadline {
        let Request {
            kind,
            path,
            body,
            batch,
        } = stream.next(pool);
        let start = Instant::now();
        let result = if kind == Kind::Sweep {
            let mut lines = Vec::new();
            client
                .post_stream_lines(path, &body, |l| lines.push(l.to_owned()))
                .map(|status| (status, Vec::new(), lines))
        } else {
            client
                .post_json(path, &body)
                .map(|r| (r.status, r.body, Vec::new()))
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let mut sample = Sample {
            at: (start - epoch).as_secs_f64(),
            ms,
            kind,
            cycles: 0,
        };
        out.spans.push(format!(
            "{{\"conn\":{conn},\"kind\":\"{kind:?}\",\"start_ns\":{},\"ms\":{ms}}}",
            (start - epoch).as_nanos()
        ));
        let check = match result {
            Err(e) => Err(format!("{path}: {e}")),
            Ok((status, _, _)) if status != 200 => Err(format!("{path} answered {status}")),
            Ok((_, answer, lines)) => match kind {
                Kind::Repeat(i) => {
                    if answer == inst.first[i] {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: repeat answer differs from the first",
                            pool[i].label
                        ))
                    }
                }
                Kind::Fresh(_) => cycles_of(&answer).map(|c| sample.cycles = c),
                Kind::Sweep => check_sweep(inst, &batch, &lines),
            },
        };
        out.samples.push(sample);
        out.report
            .check(check.map_err(|e| format!("{e} (request {body})")));
    }
    out
}

/// Every workload a fresh cell may name, in a seeded order.
fn fresh_workloads(pool: &[Cell], seed: u64) -> Vec<(&'static str, String)> {
    let mut names: Vec<(&'static str, String)> = pool
        .iter()
        .map(workload_of)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    Rng::new(seed, 2).shuffle(&mut names);
    names
}

/// One seeded request stream per connection. The clients share the
/// host with the server: one connection per two CPUs leaves each request
/// a CPU for its client and one for its worker, so latency measures the
/// server rather than CPU contention.
fn streams<'a>(
    settings: &Settings,
    fresh: &'a AtomicU64,
    workloads: &'a [(&'static str, String)],
    stream_base: u64,
) -> Vec<Stream<'a>> {
    let conns = (settings.host.nproc / 2).max(1);
    let offset = Rng::new(settings.seed, 3).below(5000);
    (0..conns)
        .map(|c| Stream {
            rng: Rng::new(settings.seed, stream_base + c as u64),
            fresh,
            workloads,
            offset,
        })
        .collect()
}

/// Runs the closed loop for `seconds`, one connection per stream; the
/// streams carry on where they stopped when called again.
fn closed_loop(
    inst: &Instance,
    pool: &[Cell],
    seconds: f64,
    streams: &mut [Stream<'_>],
) -> (Vec<Loop>, f64) {
    let epoch = Instant::now();
    let deadline = epoch + std::time::Duration::from_secs_f64(seconds);
    let loops = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, stream)| scope.spawn(move || drive(inst, pool, stream, deadline, epoch, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect::<Vec<_>>()
    });
    (loops, epoch.elapsed().as_secs_f64())
}

/// Starts servers and times each set-up.
struct SetUps<'a> {
    pool: &'a [Cell],
    reference: &'a Reference,
    workers: usize,
    /// Each set-up's time.
    seconds: Vec<f64>,
}

impl SetUps<'_> {
    /// Starts, warms and times one server.
    fn start(&mut self) -> Result<Instance, String> {
        let began = Instant::now();
        let inst = start(self.seconds.len(), self.pool, self.reference, self.workers)?;
        self.seconds.push(began.elapsed().as_secs_f64());
        Ok(inst)
    }

    /// Times `n` set-ups of servers that serve nothing else. Their
    /// warm-up answers are checked like the serving one's.
    fn timed(&mut self, report: &mut Report, n: usize) -> Result<(), String> {
        for _ in 0..n {
            let inst = self.start()?;
            for check in &inst.warm_checks {
                report.check(check.clone());
            }
            inst.stop();
        }
        Ok(())
    }
}

/// Runs `serve_mix`.
///
/// # Errors
///
/// Fails when the pool, its reference or a server cannot be set up.
pub fn run(settings: &Settings) -> Result<Report, String> {
    let reference = Reference::load(NAME, POOL_SCALE)?;
    let pool = pool_cells()?;
    if reference.len() != pool.len() {
        return Err(format!(
            "reference covers {} cells, the pool has {}",
            reference.len(),
            pool.len()
        ));
    }
    let mut setups = SetUps {
        pool: &pool,
        reference: &reference,
        workers: settings.host.nproc.max(1),
        seconds: Vec::new(),
    };
    let fresh = AtomicU64::new(0);
    let workloads = fresh_workloads(&pool, settings.seed);
    if settings.trace {
        let inst = setups.start()?;
        let mut report = traced(&inst, &pool, settings, &fresh, &workloads);
        for check in &inst.warm_checks {
            report.check(check.clone());
        }
        inst.stop();
        return Ok(report);
    }
    let mut report = Report::default();
    // Each CPU of a shared host runs at its own speed for up to tens of
    // seconds, and the closed loop's client and worker wake each other on
    // one CPU; so the whole process moves to the next CPU for each
    // segment (and the set-ups after it), and every run samples every CPU.
    let mut pinned = usize::from(pin_process_to(settings.host.cpu_for(0)));
    setups.timed(&mut report, SETUPS_BEFORE - 1)?;
    let inst = setups.start()?;
    let mut streams = streams(settings, &fresh, &workloads, 100);
    let mut segments = Vec::with_capacity(SEGMENTS);
    for segment in 0..SEGMENTS {
        if segment > 0 {
            pinned += usize::from(pin_process_to(settings.host.cpu_for(segment)));
        }
        segments.push(closed_loop(
            &inst,
            &pool,
            settings.seconds / SEGMENTS as f64,
            &mut streams,
        ));
        // The serving instance's write-behind must not overlap the
        // timed set-ups.
        inst.flush();
        setups.timed(&mut report, SETUPS_PER_GAP)?;
    }
    let metrics = untraced(&mut report, segments);
    for check in &inst.warm_checks {
        report.check(check.clone());
    }
    inst.stop();
    metrics.push(&mut report, iq_mean(&setups.seconds));
    println!(
        "set-ups: {} (setup_s is their interquartile mean); {}",
        setups.seconds.len(),
        crate::sweep::rotation(pinned, SEGMENTS, settings, "segments")
    );
    Ok(report)
}

fn merge(loops: Vec<Loop>) -> Loop {
    let mut all = Loop::default();
    for l in loops {
        all.report.attempted += l.report.attempted;
        all.report.failed += l.report.failed;
        all.report.failures.extend(l.report.failures);
        all.samples.extend(l.samples);
        all.spans.extend(l.spans);
    }
    all
}

/// Host speed changes over seconds, so the run is cut into windows of
/// about [`WINDOW_S`]; each metric is computed per window and the run
/// reports the interquartile mean over windows.
const WINDOW_S: f64 = 1.0;

/// The end-to-end metrics of the measured segments, each cut into
/// windows; the segments' checks are added to `report`.
///
/// The `cell_*` and `miss_*` percentiles are the exception: they are
/// taken over the whole run's answers, each answer counting with its
/// cell's typical time — the interquartile mean of every answer to that
/// cell (a pool cell, or a fresh cell's workload × technique pair) —
/// as the sweeps take theirs over per-cell times. A burst of host noise
/// then moves the few answers it hits, not the percentile of a window.
fn untraced(report: &mut Report, segments: Vec<(Vec<Loop>, f64)>) -> EndToEnd {
    let mut per_window: Vec<Loop> = Vec::new();
    let mut per_cell: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let (mut requests, mut hits, mut misses) = (0, 0, 0);
    for (loops, wall) in segments {
        let mut all = merge(loops);
        report.attempted += all.report.attempted;
        report.failed += all.report.failed;
        report.failures.append(&mut all.report.failures);
        requests += all.samples.len();
        hits += all.hit_ms().len();
        misses += all.miss_ms().len();
        for s in all.samples.iter().filter(|s| s.kind != Kind::Sweep) {
            per_cell.entry(s.kind).or_default().push(s.ms);
        }
        let windows = ((wall / WINDOW_S).round() as usize).max(1);
        let width = wall / windows as f64;
        let first = per_window.len();
        per_window.extend((0..windows).map(|_| Loop {
            wall: width,
            ..Loop::default()
        }));
        for s in &all.samples {
            per_window[first + ((s.at / width) as usize).min(windows - 1)]
                .samples
                .push(*s);
        }
    }
    let metrics: Vec<EndToEnd> = per_window
        .iter()
        .map(|w| {
            let miss = w.miss_ms();
            let cycles: u64 = w.samples.iter().map(|s| s.cycles).sum();
            let cell: Vec<f64> = w.latencies(|k| k != Kind::Sweep);
            EndToEnd::of(
                ratio(cycles as f64, miss.iter().sum::<f64>() / 1e3) / 1e6,
                &cell,
                w.samples.len() as f64 / w.wall,
                &w.hit_ms(),
                &miss,
            )
        })
        .collect();
    let typical: BTreeMap<Kind, (f64, usize)> = per_cell
        .iter()
        .map(|(&cell, ms)| (cell, (iq_mean(ms), ms.len())))
        .collect();
    let weighted = |pick: fn(Kind) -> bool| -> Vec<f64> {
        typical
            .iter()
            .filter(|(&cell, _)| pick(cell))
            .flat_map(|(_, &(ms, n))| std::iter::repeat_n(ms, n))
            .collect()
    };
    let cell_ms = weighted(|_| true);
    let miss_ms = weighted(|k| matches!(k, Kind::Fresh(_)));
    println!(
        "samples: {requests} requests ({hits} hit, {misses} miss) in {} windows; \
         metrics are interquartile means over windows, but cell and miss percentiles \
         are taken over answers at their cell's interquartile mean ({} cells)",
        per_window.len(),
        typical.len()
    );
    EndToEnd {
        cell_p50_ms: percentile(&cell_ms, 0.5),
        cell_p90_ms: percentile(&cell_ms, 0.9),
        miss_p50_ms: percentile(&miss_ms, 0.5),
        miss_p90_ms: percentile(&miss_ms, 0.9),
        ..EndToEnd::iq_mean_of(&metrics)
    }
}

/// Which tier answered, read off the counters `handle` moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Memory,
    Disk,
    Simulated,
}

fn counters(service: &Service) -> (u64, u64, u64) {
    (
        service.cache.hits(),
        service
            .disk
            .as_ref()
            .map_or(0, warped_serve::disk::DiskCache::hits),
        service.metrics.simulations.load(Ordering::Relaxed),
    )
}

/// The raw bytes of a keep-alive `POST`.
fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses and handles one request in-process; returns the parse and
/// handle times, the tier that answered, and the response body.
fn handle_direct(service: &Service, raw: &[u8]) -> Result<(f64, f64, Tier, Vec<u8>), String> {
    let mut reader: &[u8] = raw;
    let t0 = Instant::now();
    let req = http::read_request(&mut reader)
        .map_err(|e| format!("parse: {e:?}"))?
        .ok_or("parse: empty request")?;
    let t1 = Instant::now();
    let before = counters(service);
    let mut out = Vec::new();
    service
        .handle(&req, &mut out, true)
        .map_err(|e| format!("handle: {e}"))?;
    let t2 = Instant::now();
    let after = counters(service);
    let tier = if after.2 > before.2 {
        Tier::Simulated
    } else if after.1 > before.1 {
        Tier::Disk
    } else {
        Tier::Memory
    };
    let mut rest: &[u8] = &out;
    let mut line = String::new();
    let _ = rest.read_line(&mut line);
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!("answered {}", line.trim_end()));
    }
    let split = out
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    Ok((
        (t1 - t0).as_secs_f64() * 1e6,
        (t2 - t1).as_secs_f64() * 1e6,
        tier,
        out[split + 4..].to_vec(),
    ))
}

/// The traced run: half the time over sockets (end-to-end latency),
/// half calling `http::read_request` and `Service::handle` directly on
/// the same kind of request bytes, attributed to a tier by which
/// counter moved.
fn traced(
    inst: &Instance,
    pool: &[Cell],
    settings: &Settings,
    fresh: &AtomicU64,
    workloads: &[(&'static str, String)],
) -> Report {
    let (loops, _) = closed_loop(
        inst,
        pool,
        settings.seconds / 2.0,
        &mut streams(settings, fresh, workloads, 100),
    );
    let mut socket = merge(loops);
    let mut report = std::mem::take(&mut socket.report);
    let mut spans = std::mem::take(&mut socket.spans);
    let service = inst.service();
    let mut stream = streams(settings, fresh, workloads, 200).swap_remove(0);
    let (mut parse_us, mut mem_us, mut disk_us, mut sim_ms, mut repeat_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut replay: Vec<Vec<u8>> = Vec::new();
    let epoch = Instant::now();
    let deadline = epoch + std::time::Duration::from_secs_f64(settings.seconds / 2.0);
    while Instant::now() < deadline {
        let Request {
            kind, path, body, ..
        } = stream.next(pool);
        if kind == Kind::Sweep {
            continue;
        }
        let raw = request_bytes(path, &body);
        let at = epoch.elapsed().as_nanos();
        let check = handle_direct(service, &raw).and_then(|(p, h, tier, answer)| {
            parse_us.push(p);
            match tier {
                Tier::Memory => mem_us.push(h),
                Tier::Disk => disk_us.push(h),
                Tier::Simulated => sim_ms.push(h / 1e3),
            }
            if spans.len() < MAX_SPANS {
                spans.push(format!(
                "{{\"direct\":true,\"kind\":\"{kind:?}\",\"tier\":\"{tier:?}\",\"start_ns\":{at},\"parse_us\":{p},\"handle_us\":{h}}}"
            ));
            }
            match kind {
                Kind::Repeat(i) => {
                    repeat_us.push(h);
                    if replay.len() < 4096 {
                        replay.push(raw.clone());
                    }
                    if answer == inst.first[i] {
                        Ok(())
                    } else {
                        Err(format!("{}: repeat answer differs from the first", pool[i].label))
                    }
                }
                _ => cycles_of(&answer).map(|_| ()),
            }
        });
        report.check(check);
    }
    let answered = (mem_us.len() + disk_us.len() + sim_ms.len()) as f64;
    let metrics = &service.metrics;
    // `Sweep` setup layers: the same spec build and corpus parse the
    // server performs at startup.
    if let Ok(s) = crate::sweep::setup(Sweep::Flat, POOL_SCALE, true) {
        push_setup_layers(&mut report, &s.layers);
    }
    crate::sweep::push_unreached(&mut report);
    report.push("power.us_per_cell", 0.0, "us");
    report.push("http.parse_us", median(&parse_us), "us");
    report.push("serve.mem_hit_us", median(&mem_us), "us");
    report.push("serve.disk_hit_us", median(&disk_us), "us");
    report.push("serve.simulate_ms", median(&sim_ms), "ms");
    report.push(
        "serve.transport_us",
        median(&socket.hit_ms()) * 1e3 - median(&repeat_us),
        "us",
    );
    report.push(
        "serve.mem_hit_frac",
        ratio(mem_us.len() as f64, answered),
        "frac",
    );
    report.push(
        "serve.disk_hit_frac",
        ratio(disk_us.len() as f64, answered),
        "frac",
    );
    report.push(
        "serve.simulate_frac",
        ratio(sim_ms.len() as f64, answered),
        "frac",
    );
    report.push(
        "serve.sweep_dedup_frac",
        ratio(
            metrics.sweep_cells_deduped.load(Ordering::Relaxed) as f64,
            metrics.sweep_cells.load(Ordering::Relaxed) as f64,
        ),
        "frac",
    );
    report.push("cache.evictions", service.cache.evictions() as f64, "count");
    report.push(
        "disk.evictions",
        service
            .disk
            .as_ref()
            .map_or(0, warped_serve::disk::DiskCache::evictions) as f64,
        "count",
    );
    report.push(
        "profile.overhead_frac",
        replay_overhead(service, &replay),
        "frac",
    );
    println!(
        "direct samples: parse={} mem={} disk={} simulate={}; socket samples: hit={} miss={}",
        parse_us.len(),
        mem_us.len(),
        disk_us.len(),
        sim_ms.len(),
        socket.hit_ms().len(),
        socket.miss_ms().len()
    );
    crate::sweep::write_spans(NAME, settings, &spans);
    report
}

/// Tracing overhead on the request path: the same repeat requests
/// handled in a bare loop and with per-call timing and counter
/// snapshots, three rounds each, medians compared.
fn replay_overhead(service: &Service, raw: &[Vec<u8>]) -> f64 {
    if raw.is_empty() {
        return 0.0;
    }
    let (mut bare, mut timed) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        for r in raw {
            let mut reader: &[u8] = r;
            if let Ok(Some(req)) = http::read_request(&mut reader) {
                let _ = service.handle(&req, &mut Vec::new(), true);
            }
        }
        bare.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for r in raw {
            let _ = handle_direct(service, r);
        }
        timed.push(start.elapsed().as_secs_f64());
    }
    median(&timed) / median(&bare) - 1.0
}

/// The request-path layers a sweep run does not reach read 0.
pub fn push_unreached(report: &mut Report) {
    for (name, unit) in [
        ("http.parse_us", "us"),
        ("serve.mem_hit_us", "us"),
        ("serve.disk_hit_us", "us"),
        ("serve.simulate_ms", "ms"),
        ("serve.transport_us", "us"),
        ("serve.mem_hit_frac", "frac"),
        ("serve.disk_hit_frac", "frac"),
        ("serve.simulate_frac", "frac"),
        ("serve.sweep_dedup_frac", "frac"),
        ("cache.evictions", "count"),
        ("disk.evictions", "count"),
    ] {
        report.push(name, 0.0, unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cells_never_repeat_within_a_run() {
        let workloads: Vec<(&'static str, String)> =
            (0..24).map(|i| ("benchmark", format!("w{i}"))).collect();
        let bodies: BTreeSet<String> = (0..90_000).map(|i| fresh_body(&workloads, 17, i)).collect();
        assert_eq!(bodies.len(), 90_000);
        assert!(bodies
            .iter()
            .all(|b| !b.contains("\"bet\":0") && !b.contains("\"wakeup_delay\":0")));
    }
}
