//! The traced run must not change what it measures.
//!
//! For every technique, flat and hierarchy-armed, a cell simulated with
//! the probing decorators produces exactly the untraced
//! `Experiment::run` outcome and telemetry stream; and the decorators
//! forward every provided trait method instead of falling back to the
//! trait defaults.

use std::cell::Cell as Flag;
use std::rc::Rc;

use perfbench::cells::{load_corpus, synthetic_cells, trace_cells, Cell};
use perfbench::layers::{run_traced, CallProbe, TracedGating, TracedScheduler};
use warped_gates::Experiment;
use warped_sim::{
    CycleObservation, DomainId, GateTransition, GatingInvariants, GatingReport, HierarchyConfig,
    IssueCtx, PowerGating, Recorder, RecorderConfig, WarpScheduler, NUM_DOMAINS,
};

/// The corpus path is relative to the repository root.
fn at_repo_root() {
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).unwrap();
}

fn cells() -> Vec<Cell> {
    at_repo_root();
    let mut cells: Vec<Cell> = synthetic_cells()
        .into_iter()
        .filter(|c| {
            ["hotspot/", "bfs/", "nw/", "lbm/"]
                .iter()
                .any(|b| c.label.starts_with(b))
        })
        .collect();
    let corpus = load_corpus().unwrap();
    cells.extend(trace_cells(&corpus.traces[..1]));
    cells
}

#[test]
fn traced_outcomes_equal_untraced_for_every_technique_flat_and_hierarchy() {
    let flat = Experiment::paper_defaults()
        .with_scale(0.05)
        .with_sanitize(true);
    let armed = flat
        .clone()
        .with_memory_hierarchy(Some(HierarchyConfig::default()));
    for (mode, experiment) in [("flat", flat), ("hierarchy", armed)] {
        for cell in cells() {
            let plain_log = Recorder::new(RecorderConfig::default());
            let plain = cell.run(&experiment.clone().with_telemetry(Some(plain_log.clone())));
            let traced_log = Recorder::new(RecorderConfig::default());
            let traced = run_traced(&experiment, &cell, Some(traced_log.clone()));
            let what = format!("{mode} {}", cell.label);
            assert_eq!(traced.outcome.stats, plain.stats, "{what}: stats");
            assert_eq!(traced.outcome.gating, plain.gating, "{what}: gating");
            assert_eq!(traced.outcome.timed_out, plain.timed_out, "{what}");
            assert_eq!(traced_log.take(), plain_log.take(), "{what}: telemetry");
            assert!(traced.sched.calls > 0 && traced.gating.calls > 0, "{what}");
            assert!(
                traced.sched.sampled > 0 && traced.gating.sampled > 0,
                "{what}"
            );
        }
    }
}

/// Records which provided methods reached it.
#[derive(Default)]
struct Spy {
    fast_forward: Flag<bool>,
    fast_forward_idle: Flag<bool>,
    powered_flags: Flag<bool>,
    invariants: Flag<bool>,
    sanitize: Flag<bool>,
    recorder: Flag<bool>,
}

struct SpyHandle(Rc<Spy>);

impl WarpScheduler for SpyHandle {
    fn pick(&mut self, _ctx: &mut IssueCtx) {}

    fn fast_forward_idle(&mut self, _cycles: u64) -> bool {
        self.0.fast_forward_idle.set(true);
        true
    }

    fn name(&self) -> &'static str {
        "spy"
    }

    fn set_recorder(&mut self, _recorder: Recorder) {
        self.0.recorder.set(true);
    }
}

impl PowerGating for SpyHandle {
    fn is_on(&self, _domain: DomainId) -> bool {
        true
    }

    fn observe(&mut self, _obs: &CycleObservation) {
        panic!("fast_forward fell back to the default observe loop");
    }

    fn fast_forward(
        &mut self,
        _obs: &CycleObservation,
        _cycles: u64,
        _t: &mut Vec<GateTransition>,
    ) {
        self.0.fast_forward.set(true);
    }

    fn powered_flags(&self, _domains: &[DomainId]) -> [bool; NUM_DOMAINS] {
        self.0.powered_flags.set(true);
        [true; NUM_DOMAINS]
    }

    fn report(&self) -> GatingReport {
        GatingReport::default()
    }

    fn name(&self) -> &'static str {
        "spy"
    }

    fn invariants(&self) -> GatingInvariants {
        self.0.invariants.set(true);
        GatingInvariants::default()
    }

    fn set_sanitize(&mut self, _on: bool) {
        self.0.sanitize.set(true);
    }

    fn set_recorder(&mut self, _recorder: Recorder) {
        self.0.recorder.set(true);
    }
}

#[test]
fn decorators_forward_every_provided_method() {
    let recorder = || Recorder::new(RecorderConfig::default());
    let sched_spy = Rc::new(Spy::default());
    let probe = Rc::new(CallProbe::default());
    let mut sched = TracedScheduler::new(
        Box::new(SpyHandle(Rc::clone(&sched_spy))),
        Rc::clone(&probe),
    );
    assert!(sched.fast_forward_idle(10), "the default would veto");
    sched.set_recorder(recorder());
    assert_eq!(sched.name(), "spy");
    assert!(sched_spy.fast_forward_idle.get() && sched_spy.recorder.get());

    let spy = Rc::new(Spy::default());
    let mut gating = TracedGating::new(Box::new(SpyHandle(Rc::clone(&spy))), Rc::clone(&probe));
    let obs = CycleObservation {
        cycle: 0,
        busy: [false; NUM_DOMAINS],
        blocked_demand: [0; 4],
        active_subset: [0; 4],
    };
    gating.fast_forward(&obs, 100, &mut Vec::new());
    let _ = gating.powered_flags(&[DomainId::from_index(0)]);
    let _ = gating.invariants();
    gating.set_sanitize(true);
    gating.set_recorder(recorder());
    assert_eq!(gating.name(), "spy");
    assert!(spy.fast_forward.get(), "fast_forward");
    assert!(spy.powered_flags.get(), "powered_flags");
    assert!(spy.invariants.get(), "invariants");
    assert!(spy.sanitize.get(), "set_sanitize");
    assert!(spy.recorder.get(), "set_recorder");
    // One probed call each: fast_forward_idle, fast_forward, powered_flags.
    assert_eq!(probe.totals().calls, 3);
}
