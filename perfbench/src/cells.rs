//! The cells the workloads answer — synthetic benchmark × technique and
//! captured trace × technique — their full-outcome digests, and the
//! reference those digests are checked against.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use warped_gates::{Experiment, Technique, TechniqueRun};
use warped_isa::UnitType;
use warped_power::{EnergyBreakdown, PowerParams};
use warped_sim::{GatingReport, SimStats};
use warped_trace::TraceWorkload;
use warped_workloads::{Benchmark, BenchmarkSpec};

use crate::stats::fnv1a;

/// The captured-trace corpus, relative to the checkout root.
pub const TRACE_DIR: &str = "traces";

/// Where the reference outcomes live, relative to the checkout root.
pub const REFERENCE_DIR: &str = "perfbench/reference";

/// What a cell simulates.
#[derive(Debug, Clone)]
pub enum Source {
    /// A synthetic benchmark from the catalog.
    Spec(Arc<BenchmarkSpec>),
    /// A captured WGT1 trace.
    Trace(Arc<TraceWorkload>),
}

/// One workload under one technique.
#[derive(Debug, Clone)]
pub struct Cell {
    /// `nw/Baseline`, or `trace:nw/Baseline` for a trace cell — the
    /// labels of `results/bench_grid.json` and `bench_trace_grid.json`.
    pub label: String,
    /// The workload.
    pub source: Source,
    /// The technique.
    pub technique: Technique,
}

impl Cell {
    /// Answers the cell the way the sweep engine does.
    #[must_use]
    pub fn run(&self, experiment: &Experiment) -> TechniqueRun {
        match &self.source {
            Source::Spec(spec) => experiment.run(spec, self.technique),
            Source::Trace(trace) => experiment.run_trace(trace, self.technique),
        }
    }
}

/// The 108 synthetic cells, in catalog × technique order.
#[must_use]
pub fn synthetic_cells() -> Vec<Cell> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|b| {
            let spec = Arc::new(b.spec());
            Technique::ALL.into_iter().map(move |t| Cell {
                label: format!("{}/{}", b.name(), t.name()),
                source: Source::Spec(Arc::clone(&spec)),
                technique: t,
            })
        })
        .collect()
}

/// One cell per trace × technique.
#[must_use]
pub fn trace_cells(traces: &[Arc<TraceWorkload>]) -> Vec<Cell> {
    traces
        .iter()
        .flat_map(|trace| {
            Technique::ALL.into_iter().map(move |t| Cell {
                label: format!("trace:{}/{}", trace.name, t.name()),
                source: Source::Trace(Arc::clone(trace)),
                technique: t,
            })
        })
        .collect()
}

/// The parsed corpus and what parsing it cost.
#[derive(Debug)]
pub struct Corpus {
    /// Parsed and lowered traces, in file-name order.
    pub traces: Vec<Arc<TraceWorkload>>,
    /// Bytes read.
    pub bytes: usize,
    /// Host time inside `warped_trace::parse_bytes` (parse + lower to a
    /// `warped-isa` kernel), excluding file reads.
    pub parse: Duration,
}

/// Reads and parses every `*.wgt1` file of the corpus.
///
/// # Errors
///
/// Names the file that is missing, unreadable or malformed: every trace
/// of the corpus is part of the workload, so none may be skipped.
pub fn load_corpus() -> Result<Corpus, String> {
    let entries =
        std::fs::read_dir(TRACE_DIR).map_err(|e| format!("cannot read {TRACE_DIR}/: {e}"))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wgt1"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.wgt1 traces under {TRACE_DIR}/"));
    }
    let mut corpus = Corpus {
        traces: Vec::new(),
        bytes: 0,
        parse: Duration::ZERO,
    };
    for path in paths {
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let start = Instant::now();
        let trace =
            warped_trace::parse_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        corpus.parse += start.elapsed();
        corpus.bytes += bytes.len();
        corpus.traces.push(Arc::new(trace));
    }
    Ok(corpus)
}

/// The four unit types whose energy a report carries.
pub const UNITS: [UnitType; 4] = [UnitType::Int, UnitType::Fp, UnitType::Sfu, UnitType::Ldst];

/// The energy model's numbers for one outcome, one breakdown per unit.
#[must_use]
pub fn energy(stats: &SimStats, gating: &GatingReport, bet: u32) -> [EnergyBreakdown; 4] {
    let power = PowerParams::default();
    UNITS.map(|unit| EnergyBreakdown::from_run(&power, stats, gating, unit, bet))
}

/// A digest of a cell's full outcome: every `SimStats` field (memory
/// counters included), every per-domain `GatingReport` counter, the
/// timeout flag, and the energy numbers. `Debug` prints every field and
/// every float exactly, so equal digests mean equal outcomes.
#[must_use]
pub fn outcome_digest(
    stats: &SimStats,
    gating: &GatingReport,
    timed_out: bool,
    energy: &[EnergyBreakdown; 4],
) -> u64 {
    fnv1a(format!("{stats:?}|{gating:?}|{timed_out}|{energy:?}").as_bytes())
}

/// What the reference says one cell must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Simulated cycles.
    pub cycles: u64,
    /// [`outcome_digest`] of the full outcome.
    pub digest: u64,
}

/// Reference outcomes for one workload at one scale, generated with
/// `--bless` and kept with the benchmark.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    rows: BTreeMap<String, Expected>,
}

impl Reference {
    /// The file holding `workload`'s reference at `scale`.
    #[must_use]
    pub fn path(workload: &str, scale: f64) -> PathBuf {
        PathBuf::from(format!("{REFERENCE_DIR}/{workload}@{scale}.tsv"))
    }

    /// Loads a reference file.
    ///
    /// # Errors
    ///
    /// Fails when the file is missing or a line is malformed.
    pub fn load(workload: &str, scale: f64) -> Result<Self, String> {
        let path = Self::path(workload, scale);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "cannot read reference {} ({e}); generate it with --bless",
                path.display()
            )
        })?;
        let mut rows = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let bad = || format!("{}:{}: malformed reference line", path.display(), n + 1);
            let mut fields = line.split('\t');
            let (Some(label), Some(cycles), Some(digest), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(bad());
            };
            let expected = Expected {
                cycles: cycles.parse().map_err(|_| bad())?,
                digest: u64::from_str_radix(digest, 16).map_err(|_| bad())?,
            };
            rows.insert(label.to_owned(), expected);
        }
        Ok(Reference { rows })
    }

    /// Records one cell's outcome (for `--bless`).
    pub fn insert(&mut self, label: &str, expected: Expected) {
        self.rows.insert(label.to_owned(), expected);
    }

    /// Writes the reference file; `digest` names what the digest column
    /// digests, for its header.
    ///
    /// # Errors
    ///
    /// Returns the write error.
    pub fn write(&self, workload: &str, scale: f64, digest: &str) -> Result<PathBuf, String> {
        let path = Self::path(workload, scale);
        let mut text =
            format!("# {workload} reference outcomes at scale {scale}: label, cycles, {digest}\n");
        for (label, e) in &self.rows {
            text.push_str(&format!("{label}\t{}\t{:016x}\n", e.cycles, e.digest));
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    /// The expected outcome of `label`, if the reference has it.
    #[must_use]
    pub fn get(&self, label: &str) -> Option<Expected> {
        self.rows.get(label).copied()
    }

    /// Checks one cell's outcome against the reference.
    ///
    /// # Errors
    ///
    /// Describes the mismatch or the missing row.
    pub fn check(&self, label: &str, got: Expected) -> Result<(), String> {
        match self.get(label) {
            None => Err(format!("{label}: no reference row")),
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!(
                "{label}: outcome differs from the reference (cycles {} vs {}, digest {:016x} vs {:016x})",
                got.cycles, want.cycles, got.digest, want.digest
            )),
        }
    }

    /// How many cells the reference covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the reference is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Full-scale cycles of every cell, from the committed
/// `results/bench_grid.json` and `results/bench_trace_grid.json`.
///
/// # Errors
///
/// Fails when either grid is missing or malformed.
pub fn committed_grid_cycles() -> Result<BTreeMap<String, u64>, String> {
    let mut cycles = BTreeMap::new();
    for path in ["results/bench_grid.json", "results/bench_trace_grid.json"] {
        let table =
            warped_bench::grid::GridTable::load(path).map_err(|e| format!("{path}: {e}"))?;
        let col = table
            .headers
            .iter()
            .position(|h| h == "cycles")
            .ok_or_else(|| format!("{path}: no cycles column"))?;
        for row in table.rows {
            cycles.insert(row.label, row.values[col] as u64);
        }
    }
    Ok(cycles)
}
