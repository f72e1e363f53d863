//! The repository benchmark.
//!
//! Three workloads, each driven from outside the program through its
//! public API:
//!
//! - `sweep_flat`: the 108 synthetic cells and the 36 trace-corpus cells
//!   through `Experiment::run`/`run_trace`, flat memory model, one worker;
//! - `sweep_mem`: the 108 synthetic cells with the L1/L2 + MSHR
//!   hierarchy armed;
//! - `serve_mix`: an in-process `warped-serve` driven closed-loop over
//!   keep-alive connections with memory-cache, disk-cache and fresh
//!   (simulated) cells, `/sweep` batches and `trace_ref` cells.
//!
//! A run prints the end-to-end metrics (`--trace 0`) or, from a separate
//! traced run, the per-layer metrics (`--trace 1`), then one JSON line.
//! Every output is checked; see `BENCHMARK.md` beside this crate.

pub mod cells;
pub mod host;
pub mod layers;
pub mod report;
pub mod serve_mix;
pub mod stats;
pub mod sweep;

use report::Report;
use stats::percentile;

/// Scratch space inside the checkout (disk caches, spans).
pub const WORK_DIR: &str = ".perfbench";

/// One run's command line.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seeds the workload's inputs.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Workload scale override (sweeps only).
    pub scale: Option<f64>,
    /// The host record.
    pub host: host::Host,
}

/// The end-to-end metrics every workload reports, `setup_s` and
/// `peak_rss_mb` aside.
///
/// A cell is one `/run`-style answer. Its *miss* answers simulate; its
/// *hit* answers repeat a cell answered before, which a cache can serve.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Simulated Mcycles per host second spent simulating.
    pub sim_mcycles_per_s: f64,
    /// Median time to answer a cell.
    pub cell_p50_ms: f64,
    /// 90th percentile time to answer a cell.
    pub cell_p90_ms: f64,
    /// Requests answered per second.
    pub req_per_s: f64,
    /// Median time of a repeat.
    pub hit_p50_ms: f64,
    /// 99th percentile time of a repeat.
    pub hit_p99_ms: f64,
    /// Median time of an answer that simulated.
    pub miss_p50_ms: f64,
    /// 90th percentile time of an answer that simulated.
    pub miss_p90_ms: f64,
}

impl EndToEnd {
    /// The metrics of one sample of answers.
    #[must_use]
    pub fn of(
        sim_mcycles_per_s: f64,
        cell_ms: &[f64],
        req_per_s: f64,
        hit_ms: &[f64],
        miss_ms: &[f64],
    ) -> Self {
        EndToEnd {
            sim_mcycles_per_s,
            cell_p50_ms: percentile(cell_ms, 0.5),
            cell_p90_ms: percentile(cell_ms, 0.9),
            req_per_s,
            hit_p50_ms: percentile(hit_ms, 0.5),
            hit_p99_ms: percentile(hit_ms, 0.99),
            miss_p50_ms: percentile(miss_ms, 0.5),
            miss_p90_ms: percentile(miss_ms, 0.9),
        }
    }

    fn fields(&self) -> [(&'static str, f64, &'static str); 8] {
        [
            ("sim_mcycles_per_s", self.sim_mcycles_per_s, "Mcycles/s"),
            ("cell_p50_ms", self.cell_p50_ms, "ms"),
            ("cell_p90_ms", self.cell_p90_ms, "ms"),
            ("req_per_s", self.req_per_s, "1/s"),
            ("hit_p50_ms", self.hit_p50_ms, "ms"),
            ("hit_p99_ms", self.hit_p99_ms, "ms"),
            ("miss_p50_ms", self.miss_p50_ms, "ms"),
            ("miss_p90_ms", self.miss_p90_ms, "ms"),
        ]
    }

    /// Field by field, the interquartile mean over `windows`.
    #[must_use]
    pub fn iq_mean_of(windows: &[EndToEnd]) -> Self {
        let field = |i: usize| -> f64 {
            let values: Vec<f64> = windows.iter().map(|w| w.fields()[i].1).collect();
            stats::iq_mean(&values)
        };
        EndToEnd {
            sim_mcycles_per_s: field(0),
            cell_p50_ms: field(1),
            cell_p90_ms: field(2),
            req_per_s: field(3),
            hit_p50_ms: field(4),
            hit_p99_ms: field(5),
            miss_p50_ms: field(6),
            miss_p90_ms: field(7),
        }
    }

    /// Pushes every end-to-end metric, in one order for every workload.
    pub fn push(&self, report: &mut Report, setup_s: f64) {
        for (name, value, unit) in self.fields() {
            report.push(name, value, unit);
        }
        report.push("setup_s", setup_s, "s");
        report.push("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
}
