//! `sweep_flat` and `sweep_mem`: the experiment grid answered cell by
//! cell through `Experiment::run`/`run_trace` on one worker, the way the
//! sweep engine and the figure binaries drive it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use warped_gates::{Experiment, Technique};
use warped_sim::{HierarchyConfig, LaunchConfig};

use crate::cells::{
    committed_grid_cycles, energy, load_corpus, outcome_digest, synthetic_cells, trace_cells, Cell,
    Expected, Reference, Source,
};
use crate::host::pin_to;
use crate::layers::{run_traced, ProbeTotals};
use crate::report::Report;
use crate::stats::{iq_mean, median, ratio, Rng};
use crate::{EndToEnd, Settings};

/// Which of the two sweep workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// 108 synthetic + 36 trace cells, flat memory model.
    Flat,
    /// The 108 synthetic cells with the L1/L2 + MSHR hierarchy armed.
    Mem,
}

impl Sweep {
    /// The workload name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Sweep::Flat => "sweep_flat",
            Sweep::Mem => "sweep_mem",
        }
    }

    /// The workload scale when `--scale` is not given: small enough that
    /// one pass over every cell takes a few seconds, so a run holds
    /// several whole passes.
    #[must_use]
    pub fn default_scale(self) -> f64 {
        match self {
            Sweep::Flat | Sweep::Mem => 0.1,
        }
    }

    fn experiment(self, scale: f64) -> Experiment {
        Experiment::paper_defaults()
            .with_scale(scale)
            .with_memory_hierarchy((self == Sweep::Mem).then(HierarchyConfig::default))
    }
}

/// How many times a sweep run sets up; `setup_s` is the median. Set-up
/// takes well under a millisecond, so many repeats cost nothing and
/// steady the median.
const SETUP_REPEATS: usize = 25;

/// Setup cost broken down by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    /// Spec and kernel generation (`workloads`).
    pub build: Duration,
    /// WGT1 parse, including lowering to a kernel (`trace`).
    pub parse: Duration,
    /// Turning parsed traces into scaled launches (`trace`).
    pub lower: Duration,
    /// Corpus bytes parsed.
    pub trace_bytes: usize,
}

/// Everything a sweep run needs before its clock starts.
pub struct SweepSetup {
    /// The cells, in canonical order.
    pub cells: Vec<Cell>,
    /// Their reference outcomes.
    pub reference: Reference,
    /// Full-scale committed cycles, checked only at scale 1.
    pub grid: Option<BTreeMap<String, u64>>,
    /// What setting up cost, per layer.
    pub layers: SetupLayers,
}

/// Builds the cells and loads the reference (`bless` skips the load).
///
/// # Errors
///
/// Fails when the corpus, the reference or the committed grid cannot
/// be read.
pub fn setup(sweep: Sweep, scale: f64, bless: bool) -> Result<SweepSetup, String> {
    let mut layers = SetupLayers::default();
    let start = Instant::now();
    let mut cells = synthetic_cells();
    for cell in cells.iter().step_by(Technique::ALL.len()) {
        if let Source::Spec(spec) = &cell.source {
            std::hint::black_box(spec.scaled(scale).kernel());
        }
    }
    layers.build = start.elapsed();
    if sweep == Sweep::Flat {
        let corpus = load_corpus()?;
        layers.parse = corpus.parse;
        layers.trace_bytes = corpus.bytes;
        let start = Instant::now();
        for trace in &corpus.traces {
            let trace = trace.scaled(scale);
            std::hint::black_box(
                LaunchConfig::new(trace.kernel.clone(), trace.total_warps)
                    .with_block_warps(trace.block_warps)
                    .with_stagger(trace.stagger)
                    .with_waves(trace.waves),
            );
        }
        layers.lower = start.elapsed();
        cells.extend(trace_cells(&corpus.traces));
    }
    let reference = if bless {
        Reference::default()
    } else {
        Reference::load(sweep.name(), scale)?
    };
    let grid = if scale == 1.0 && sweep == Sweep::Flat {
        Some(committed_grid_cycles()?)
    } else {
        None
    };
    Ok(SweepSetup {
        cells,
        reference,
        grid,
        layers,
    })
}

/// Checks one cell's outcome against the reference (and, at scale 1,
/// its cycles against the committed grid).
fn check_cell(
    s: &SweepSetup,
    cell: &Cell,
    stats: &warped_sim::SimStats,
    gating: &warped_sim::GatingReport,
    timed_out: bool,
    bet: u32,
) -> Result<(), String> {
    let got = Expected {
        cycles: stats.cycles,
        digest: outcome_digest(stats, gating, timed_out, &energy(stats, gating, bet)),
    };
    s.reference.check(&cell.label, got)?;
    match s.grid.as_ref().map(|g| g.get(&cell.label)) {
        None => Ok(()),
        Some(Some(&cycles)) if cycles == got.cycles => Ok(()),
        Some(want) => Err(format!(
            "{}: {} cycles, committed grid says {want:?}",
            cell.label, got.cycles
        )),
    }
}

/// Writes the reference for `sweep` at `scale`.
///
/// # Errors
///
/// Fails when setup or the write fails.
pub fn bless(sweep: Sweep, scale: f64) -> Result<String, String> {
    let s = setup(sweep, scale, true)?;
    let experiment = sweep.experiment(scale);
    let mut reference = Reference::default();
    for cell in &s.cells {
        let run = cell.run(&experiment);
        let e = energy(&run.stats, &run.gating, run.params.bet);
        reference.insert(
            &cell.label,
            Expected {
                cycles: run.cycles,
                digest: outcome_digest(&run.stats, &run.gating, run.timed_out, &e),
            },
        );
    }
    let path = reference.write(sweep.name(), scale, "full-outcome digest")?;
    Ok(format!("{} cells -> {}", reference.len(), path.display()))
}

/// Runs one sweep workload.
///
/// # Errors
///
/// Fails when setup fails.
pub fn run(sweep: Sweep, settings: &Settings) -> Result<Report, String> {
    let scale = settings.scale.unwrap_or_else(|| sweep.default_scale());
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        s = Some(setup(sweep, scale, false)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one setup");
    let experiment = sweep.experiment(scale);
    if settings.trace {
        Ok(traced(sweep, &s, &experiment, settings))
    } else {
        untraced(sweep, scale, &s, &experiment, settings, setup_s)
    }
}

/// The end-to-end run: whole shuffled passes over every cell until
/// `--seconds` has elapsed (at least two, so repeats exist).
///
/// Passes rotate over the CPUs. Every metric is taken over per-cell
/// times, each the interquartile mean of the cell's passes: robust to
/// bursts, and averaging the CPUs' speeds. Set-up, which takes well
/// under a millisecond, is repeated before every pass too, so its median
/// spans the run rather than one instant of it.
fn untraced(
    sweep: Sweep,
    scale: f64,
    s: &SweepSetup,
    experiment: &Experiment,
    settings: &Settings,
    mut setup_s: Vec<f64>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut rng = Rng::new(settings.seed, 0);
    let mut order: Vec<usize> = (0..s.cells.len()).collect();
    let mut times_ms = vec![Vec::new(); s.cells.len()];
    let mut cycles = vec![0u64; s.cells.len()];
    let start = Instant::now();
    let (mut pass, mut pinned) = (0, 0);
    while pass < 2 || start.elapsed().as_secs_f64() < settings.seconds {
        rng.shuffle(&mut order);
        pinned += usize::from(pin_to(settings.host.cpu_for(pass)));
        let began = Instant::now();
        setup(sweep, scale, false)?;
        setup_s.push(began.elapsed().as_secs_f64());
        for &i in &order {
            let cell = &s.cells[i];
            let t = Instant::now();
            let run = cell.run(experiment);
            times_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            cycles[i] = run.cycles;
            report.check(check_cell(
                s,
                cell,
                &run.stats,
                &run.gating,
                run.timed_out,
                run.params.bet,
            ));
        }
        pass += 1;
    }
    let cell_ms: Vec<f64> = times_ms.iter().map(|t| iq_mean(t)).collect();
    let repeat_ms: Vec<f64> = times_ms.iter().map(|t| iq_mean(&t[1..])).collect();
    let busy_s = cell_ms.iter().sum::<f64>() / 1e3;
    // Every sweep answer simulates, so the misses are all the cells.
    EndToEnd::of(
        cycles.iter().sum::<u64>() as f64 / busy_s / 1e6,
        &cell_ms,
        cell_ms.len() as f64 / busy_s,
        &repeat_ms,
        &cell_ms,
    )
    .push(&mut report, median(&setup_s));
    println!(
        "passes: {pass} over {} cells (each sample is a cell's interquartile mean); {} set-ups; {}",
        s.cells.len(),
        setup_s.len(),
        rotation(pinned, pass, settings, "passes")
    );
    Ok(report)
}

/// Per-technique accumulators of the traced passes.
#[derive(Debug, Default, Clone, Copy)]
struct TechLedger {
    cycles: u64,
    run_ns: u64,
    sched: ProbeTotals,
    gating: ProbeTotals,
}

/// The traced run: untraced and traced passes alternate over the same
/// cells; the traced passes build each `Sm` with probing decorators.
fn traced(sweep: Sweep, s: &SweepSetup, experiment: &Experiment, settings: &Settings) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(settings.seed, 1);
    let mut order: Vec<usize> = (0..s.cells.len()).collect();
    let mut ledger = [TechLedger::default(); 6];
    // Host ns of each pass; passes 2k and 2k+1 cover the same cells
    // untraced and traced.
    let mut pass_ns: Vec<u64> = Vec::new();
    let (mut new_ns, mut parts_ns) = (0u64, 0u64);
    let (mut cycles, mut skipped, mut events, mut power_ns, mut traced_cells) = (0u64, 0, 0, 0, 0);
    let mut mem = warped_sim::MemoryStats::default();
    let mut spans = Vec::new();
    let epoch = Instant::now();
    let (mut pass, mut pinned) = (0, 0);
    while pass < 2 || pass % 2 == 1 || epoch.elapsed().as_secs_f64() < settings.seconds {
        if pass % 2 == 0 {
            rng.shuffle(&mut order);
        }
        pass_ns.push(0);
        // A traced and an untraced pass share each CPU in turn.
        pinned += usize::from(pin_to(settings.host.cpu_for(pass / 2)));
        let traced_pass = pass % 2 == 1;
        for &i in &order {
            let cell = &s.cells[i];
            let t = Instant::now();
            let at = (t - epoch).as_nanos();
            if !traced_pass {
                let run = cell.run(experiment);
                let ns = t.elapsed().as_nanos() as u64;
                *pass_ns.last_mut().expect("pushed above") += ns;
                spans.push(format!(
                    "{{\"pass\":{pass},\"cell\":\"{}\",\"traced\":false,\"start_ns\":{at},\"run_ns\":{ns},\"cycles\":{}}}",
                    cell.label, run.cycles
                ));
                report.check(check_cell(
                    s,
                    cell,
                    &run.stats,
                    &run.gating,
                    run.timed_out,
                    run.params.bet,
                ));
                continue;
            }
            let run = run_traced(experiment, cell, None);
            *pass_ns.last_mut().expect("pushed above") += run.parts_ns + run.new_ns + run.run_ns;
            new_ns += run.new_ns;
            parts_ns += run.parts_ns;
            let stats = &run.outcome.stats;
            let tech = Technique::ALL
                .iter()
                .position(|t| *t == cell.technique)
                .expect("a known technique");
            let l = &mut ledger[tech];
            l.cycles += stats.cycles;
            l.run_ns += run.run_ns;
            l.sched = l.sched.plus(run.sched);
            l.gating = l.gating.plus(run.gating);
            cycles += stats.cycles;
            skipped += stats.fast_forwarded_cycles;
            events += stats.events_dispatched;
            add_mem(&mut mem, &stats.mem);
            traced_cells += 1;
            let p = Instant::now();
            let e = energy(stats, &run.outcome.gating, experiment.params().bet);
            power_ns += p.elapsed().as_nanos() as u64;
            spans.push(format!(
                "{{\"pass\":{pass},\"cell\":\"{}\",\"traced\":true,\"start_ns\":{at},\"new_ns\":{},\"run_ns\":{},\
                 \"sched_calls\":{},\"sched_sampled_ns\":{},\"gating_calls\":{},\"gating_sampled_ns\":{},\"cycles\":{}}}",
                cell.label,
                run.new_ns,
                run.run_ns,
                run.sched.calls,
                run.sched.sampled_ns,
                run.gating.calls,
                run.gating.sampled_ns,
                stats.cycles
            ));
            let got = Expected {
                cycles: stats.cycles,
                digest: outcome_digest(stats, &run.outcome.gating, run.outcome.timed_out, &e),
            };
            report.check(s.reference.check(&cell.label, got));
        }
        pass += 1;
    }
    for (t, l) in Technique::ALL.iter().zip(&ledger) {
        let name = tech_key(*t);
        let sched = l.sched.estimated_ns();
        let gating = l.gating.estimated_ns();
        let probes = l.sched.overhead_ns() + l.gating.overhead_ns();
        let c = l.cycles as f64;
        report.push(format!("sched.ns_per_cycle.{name}"), ratio(sched, c), "ns");
        report.push(
            format!("gating.ns_per_cycle.{name}"),
            ratio(gating, c),
            "ns",
        );
        report.push(
            format!("sim.self_ns_per_cycle.{name}"),
            ratio(l.run_ns as f64 - sched - gating - probes, c),
            "ns",
        );
    }
    let total = ledger
        .iter()
        .fold(TechLedger::default(), |a, l| TechLedger {
            cycles: a.cycles + l.cycles,
            run_ns: a.run_ns + l.run_ns,
            sched: a.sched.plus(l.sched),
            gating: a.gating.plus(l.gating),
        });
    let c = cycles as f64;
    report.push(
        "sched.calls_per_cycle",
        ratio(total.sched.calls as f64, c),
        "1/cycle",
    );
    report.push(
        "gating.calls_per_cycle",
        ratio(total.gating.calls as f64, c),
        "1/cycle",
    );
    report.push("sim.skipped_frac", ratio(skipped as f64, c), "frac");
    report.push("sim.events_per_cycle", ratio(events as f64, c), "1/cycle");
    report.push(
        "sim.new_us",
        ratio(new_ns as f64 / 1e3, traced_cells as f64),
        "us",
    );
    report.push(
        "workloads.kernel_us",
        ratio(parts_ns as f64 / 1e3, traced_cells as f64),
        "us",
    );
    push_mem(&mut report, &mem, c);
    push_setup_layers(&mut report, &s.layers);
    report.push(
        "power.us_per_cell",
        ratio(power_ns as f64 / 1e3, traced_cells as f64),
        "us",
    );
    crate::serve_mix::push_unreached(&mut report);
    let pair_ratios: Vec<f64> = pass_ns
        .chunks_exact(2)
        .map(|pair| ratio(pair[1] as f64, pair[0] as f64))
        .collect();
    report.push("profile.overhead_frac", median(&pair_ratios) - 1.0, "frac");
    println!(
        "passes: {pass}; {}",
        rotation(pinned, pass, settings, "passes")
    );
    write_spans(sweep.name(), settings, &spans);
    report
}

/// Says whether every pass (or `serve_mix` segment) ran on the CPU the
/// rotation chose; a run whose pinning failed read whatever CPUs the OS
/// gave it.
pub fn rotation(pinned: usize, passes: usize, settings: &Settings, what: &str) -> String {
    let cpus = &settings.host.cpus;
    if pinned == passes {
        format!("{what} rotated over CPUs {cpus:?}")
    } else {
        format!(
            "CPU rotation over {cpus:?} FAILED on {} of {passes} {what} (left to the OS)",
            passes - pinned
        )
    }
}

/// The metric-name form of a technique.
#[must_use]
pub fn tech_key(t: Technique) -> &'static str {
    match t {
        Technique::Baseline => "baseline",
        Technique::ConvPg => "convpg",
        Technique::Gates => "gates",
        Technique::NaiveBlackout => "naive_blackout",
        Technique::CoordinatedBlackout => "coord_blackout",
        Technique::WarpedGates => "warped_gates",
    }
}

fn add_mem(acc: &mut warped_sim::MemoryStats, m: &warped_sim::MemoryStats) {
    acc.accesses += m.accesses;
    acc.l1_hits += m.l1_hits;
    acc.l1_misses += m.l1_misses;
    acc.mshr_merges += m.mshr_merges;
    acc.l2_accesses += m.l2_accesses;
    acc.l2_hits += m.l2_hits;
    acc.mshr_peak = acc.mshr_peak.max(m.mshr_peak);
}

/// The `mem` layer's counters; all 0 when the hierarchy is off.
fn push_mem(report: &mut Report, m: &warped_sim::MemoryStats, cycles: f64) {
    report.push(
        "mem.accesses_per_kcycle",
        ratio(m.accesses as f64 * 1e3, cycles),
        "1/kcycle",
    );
    report.push(
        "mem.l1_hit_frac",
        ratio(m.l1_hits as f64, m.accesses as f64),
        "frac",
    );
    report.push(
        "mem.l2_hit_frac",
        ratio(m.l2_hits as f64, m.l2_accesses as f64),
        "frac",
    );
    report.push(
        "mem.mshr_merge_frac",
        ratio(m.mshr_merges as f64, m.l1_misses as f64),
        "frac",
    );
    report.push("mem.mshr_peak", f64::from(m.mshr_peak), "count");
}

/// The `workloads` and `trace` layers' share of setup.
pub fn push_setup_layers(report: &mut Report, l: &SetupLayers) {
    report.push("workloads.build_ms", l.build.as_secs_f64() * 1e3, "ms");
    report.push("trace.parse_ms", l.parse.as_secs_f64() * 1e3, "ms");
    report.push("trace.lower_ms", l.lower.as_secs_f64() * 1e3, "ms");
    report.push("trace.bytes", l.trace_bytes as f64, "bytes");
}

/// The sweep layers a serve run does not reach read 0.
pub fn push_unreached(report: &mut Report) {
    for t in Technique::ALL {
        let name = tech_key(t);
        for layer in [
            "sched.ns_per_cycle",
            "gating.ns_per_cycle",
            "sim.self_ns_per_cycle",
        ] {
            report.push(format!("{layer}.{name}"), 0.0, "ns");
        }
    }
    report.push("sched.calls_per_cycle", 0.0, "1/cycle");
    report.push("gating.calls_per_cycle", 0.0, "1/cycle");
    report.push("sim.skipped_frac", 0.0, "frac");
    report.push("sim.events_per_cycle", 0.0, "1/cycle");
    report.push("sim.new_us", 0.0, "us");
    report.push("workloads.kernel_us", 0.0, "us");
    push_mem(report, &warped_sim::MemoryStats::default(), 0.0);
}

/// Writes the traced run's spans, one JSON object per line, under
/// `.perfbench/` in the checkout.
pub fn write_spans(workload: &str, settings: &Settings, spans: &[String]) {
    let dir = std::path::Path::new(crate::WORK_DIR);
    let path = dir.join(format!("spans-{workload}-seed{}.jsonl", settings.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(
            out,
            "{{\"host\":\"{}\"}}",
            settings.host.line().replace('"', "'")
        )?;
        for span in spans {
            writeln!(out, "{span}")?;
        }
        out.flush()
    });
    match written {
        Ok(()) => eprintln!("spans: {} lines -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}
