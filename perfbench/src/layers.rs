//! Pass-through decorators that reach the `sched` and `gating` layers
//! from outside the simulator, and the traced cell run built on them.
//!
//! The SM calls its scheduler and gating controller a few times per
//! simulated cycle, and one `Instant::now()` costs a sizeable share of a
//! cycle's host time. So every call is counted exactly, but only one in
//! [`STRIDE`] is timed; a layer's time is the sampled mean times the
//! exact call count. Each sample also times an empty interval in the
//! same place and subtracts it, so the timer's own cost — which in the
//! middle of a simulation is higher than in a warm calibration loop —
//! does not read as layer time.

use std::cell::Cell as Counter;
use std::rc::Rc;
use std::time::Instant;

use warped_gates::Experiment;
use warped_sim::probe::Recorder;
use warped_sim::{
    CycleObservation, DomainId, GateTransition, GatingInvariants, GatingReport, IssueCtx,
    LaunchConfig, PowerGating, Sm, SmConfig, SmOutcome, WarpScheduler, NUM_DOMAINS,
};

use crate::cells::{Cell, Source};

/// One call in this many is timed. Odd and prime, so the samples rotate
/// through the methods the SM calls in a fixed per-cycle pattern.
pub const STRIDE: u64 = 61;

/// Exact call count plus a strided timing sample for one layer.
#[derive(Debug, Default)]
pub struct CallProbe {
    calls: Counter<u64>,
    sampled: Counter<u64>,
    sampled_ns: Counter<u64>,
    empty_ns: Counter<u64>,
}

impl CallProbe {
    /// Runs `f`, counting the call and timing it when it falls on the
    /// stride.
    #[inline]
    pub fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(STRIDE) {
            return f();
        }
        let t0 = Instant::now();
        let t1 = Instant::now();
        let r = f();
        let t2 = Instant::now();
        self.sampled.set(self.sampled.get() + 1);
        self.sampled_ns
            .set(self.sampled_ns.get() + (t2 - t1).as_nanos() as u64);
        self.empty_ns
            .set(self.empty_ns.get() + (t1 - t0).as_nanos() as u64);
        r
    }

    /// The counts so far.
    #[must_use]
    pub fn totals(&self) -> ProbeTotals {
        ProbeTotals {
            calls: self.calls.get(),
            sampled: self.sampled.get(),
            sampled_ns: self.sampled_ns.get(),
            empty_ns: self.empty_ns.get(),
        }
    }
}

/// A snapshot of a [`CallProbe`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTotals {
    /// Every call made.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Host ns inside the timed calls, one timer read included.
    pub sampled_ns: u64,
    /// Host ns of the empty intervals timed beside them: one timer read
    /// each.
    pub empty_ns: u64,
}

impl ProbeTotals {
    /// Estimated host ns inside all calls: the sampled mean less the
    /// empty-interval mean, scaled to the exact call count.
    #[must_use]
    pub fn estimated_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call =
            (self.sampled_ns as f64 - self.empty_ns as f64).max(0.0) / self.sampled as f64;
        per_call * self.calls as f64
    }

    /// Host ns the probe itself adds: three timer reads per sample.
    #[must_use]
    pub fn overhead_ns(&self) -> f64 {
        3.0 * self.empty_ns as f64
    }

    /// Sums two snapshots.
    #[must_use]
    pub fn plus(self, other: ProbeTotals) -> ProbeTotals {
        ProbeTotals {
            calls: self.calls + other.calls,
            sampled: self.sampled + other.sampled,
            sampled_ns: self.sampled_ns + other.sampled_ns,
            empty_ns: self.empty_ns + other.empty_ns,
        }
    }
}

/// A scheduler that forwards every method to `inner` and probes the
/// per-cycle ones. Provided methods are forwarded too: the trait
/// defaults would veto idle fast-forwarding and change how the clock
/// steps.
pub struct TracedScheduler {
    inner: Box<dyn WarpScheduler>,
    probe: Rc<CallProbe>,
}

impl TracedScheduler {
    /// Wraps `inner`, reporting to `probe`.
    #[must_use]
    pub fn new(inner: Box<dyn WarpScheduler>, probe: Rc<CallProbe>) -> Self {
        TracedScheduler { inner, probe }
    }
}

impl WarpScheduler for TracedScheduler {
    fn pick(&mut self, ctx: &mut IssueCtx) {
        let inner = &mut self.inner;
        self.probe.call(|| inner.pick(ctx));
    }

    fn fast_forward_idle(&mut self, cycles: u64) -> bool {
        let inner = &mut self.inner;
        self.probe.call(|| inner.fast_forward_idle(cycles))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}

/// A gating controller that forwards every method to `inner` and
/// probes the per-cycle ones. `fast_forward` is forwarded rather than
/// left to the default, which would loop `observe` and inflate the
/// call counts.
pub struct TracedGating {
    inner: Box<dyn PowerGating>,
    probe: Rc<CallProbe>,
}

impl TracedGating {
    /// Wraps `inner`, reporting to `probe`.
    #[must_use]
    pub fn new(inner: Box<dyn PowerGating>, probe: Rc<CallProbe>) -> Self {
        TracedGating { inner, probe }
    }
}

impl PowerGating for TracedGating {
    fn is_on(&self, domain: DomainId) -> bool {
        self.probe.call(|| self.inner.is_on(domain))
    }

    fn observe(&mut self, obs: &CycleObservation) {
        let inner = &mut self.inner;
        self.probe.call(|| inner.observe(obs));
    }

    fn fast_forward(
        &mut self,
        obs: &CycleObservation,
        cycles: u64,
        transitions: &mut Vec<GateTransition>,
    ) {
        let inner = &mut self.inner;
        self.probe
            .call(|| inner.fast_forward(obs, cycles, transitions));
    }

    fn powered_flags(&self, domains: &[DomainId]) -> [bool; NUM_DOMAINS] {
        self.probe.call(|| self.inner.powered_flags(domains))
    }

    fn report(&self) -> GatingReport {
        self.inner.report()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn invariants(&self) -> GatingInvariants {
        self.inner.invariants()
    }

    fn set_sanitize(&mut self, on: bool) {
        self.inner.set_sanitize(on);
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.set_recorder(recorder);
    }
}

/// The SM configuration and launch `experiment` would build for `cell`:
/// the same steps as `Experiment::run` and `Experiment::run_trace`,
/// through public getters only.
#[must_use]
pub fn sm_parts(experiment: &Experiment, cell: &Cell) -> (SmConfig, LaunchConfig) {
    let scale = experiment.scale();
    let (mut cfg, launch) = match &cell.source {
        Source::Spec(spec) => {
            let spec = if scale < 1.0 {
                spec.scaled(scale)
            } else {
                (**spec).clone()
            };
            (spec.sm_config(), spec.launch())
        }
        Source::Trace(trace) => {
            let trace = if scale < 1.0 {
                trace.scaled(scale)
            } else {
                (**trace).clone()
            };
            let mut cfg = SmConfig::gtx480();
            cfg.memory = warped_sim::MemoryConfig {
                l1_hit_rate: trace.l1_hit_rate,
                seed: trace.mem_seed,
                ..warped_sim::MemoryConfig::default()
            };
            let launch = LaunchConfig::new(trace.kernel.clone(), trace.total_warps)
                .with_block_warps(trace.block_warps)
                .with_stagger(trace.stagger)
                .with_waves(trace.waves);
            (cfg, launch)
        }
    };
    cfg.sp_clusters = experiment.layout().sp_clusters();
    if let Some(w) = experiment.issue_width() {
        cfg.issue_width = w;
    }
    cfg.memory.hierarchy = experiment.memory_hierarchy().cloned();
    cfg.sanitize = experiment.sanitize();
    let (event_queue, fast_forward) = experiment.core().sm_flags();
    cfg.event_queue = event_queue;
    cfg.fast_forward = fast_forward;
    (cfg, launch)
}

/// A cell simulated with both decorators in place.
#[derive(Debug)]
pub struct TracedRun {
    /// The simulation outcome (identical to the untraced one).
    pub outcome: SmOutcome,
    /// Host ns building the configuration, launch and kernel.
    pub parts_ns: u64,
    /// Host ns in `Sm::new`.
    pub new_ns: u64,
    /// Host ns in `Sm::run`, probes included.
    pub run_ns: u64,
    /// The scheduler's probe.
    pub sched: ProbeTotals,
    /// The gating controller's probe.
    pub gating: ProbeTotals,
}

/// Simulates `cell` under `experiment` with the `sched` and `gating`
/// layers wrapped in probes. `recorder` is armed as telemetry when set.
#[must_use]
pub fn run_traced(experiment: &Experiment, cell: &Cell, recorder: Option<Recorder>) -> TracedRun {
    let begin = Instant::now();
    let (mut cfg, launch) = sm_parts(experiment, cell);
    cfg.telemetry = recorder;
    let sched_probe = Rc::new(CallProbe::default());
    let gating_probe = Rc::new(CallProbe::default());
    let scheduler = TracedScheduler::new(cell.technique.make_scheduler(), Rc::clone(&sched_probe));
    let gating = TracedGating::new(
        cell.technique
            .make_gating_with_layout(*experiment.params(), experiment.layout()),
        Rc::clone(&gating_probe),
    );
    let start = Instant::now();
    let sm = Sm::new(cfg, launch, Box::new(scheduler), Box::new(gating));
    let built = Instant::now();
    let outcome = sm.run();
    let done = Instant::now();
    TracedRun {
        outcome,
        parts_ns: (start - begin).as_nanos() as u64,
        new_ns: (built - start).as_nanos() as u64,
        run_ns: (done - built).as_nanos() as u64,
        sched: sched_probe.totals(),
        gating: gating_probe.totals(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_scales_the_sampled_mean_to_every_call() {
        let probe = CallProbe::default();
        for _ in 0..(STRIDE * 10) {
            probe.call(|| std::hint::black_box(1 + 1));
        }
        let t = probe.totals();
        assert_eq!(t.calls, STRIDE * 10);
        assert_eq!(t.sampled, 10);
        let fake = ProbeTotals {
            calls: 640,
            sampled: 10,
            sampled_ns: 1000,
            empty_ns: 400,
        };
        assert_eq!(fake.estimated_ns(), 60.0 * 640.0);
        assert_eq!(fake.overhead_ns(), 1200.0);
        let timer_only = ProbeTotals {
            empty_ns: 2000,
            ..fake
        };
        assert_eq!(timer_only.estimated_ns(), 0.0);
    }
}
