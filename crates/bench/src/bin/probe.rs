//! Diagnostic probes: model-calibration tables, not paper figures.
//!
//! Usage: `probe <table> [--scale <f>]`, where `<table>` is one of:
//!
//! * `structure` — per-benchmark pipeline utilisation, idle-period
//!   structure, and occupancy under the baseline scheduler;
//! * `conv-vs-gates` — why GATES differs from ConvPG per benchmark:
//!   runtime, wakeups, premature wakeups, and gated cycles for the INT
//!   unit;
//! * `gates-cost` — GATES' scheduling cost isolated from gating
//!   interactions by running it with gating disabled (`AlwaysOn`);
//! * `accounting` — cycle accounting for one benchmark (`BENCH`,
//!   default `hotspot`) across all techniques: issue-slot usage,
//!   wakeups, critical wakeups, gate events.

use warped_bench::{exit_usage, parse_scale_args, print_table, ArgError, RunGrid};
use warped_gates::{Experiment, GatesScheduler, Technique, TechniqueRun};
use warped_isa::UnitType;
use warped_sim::{AlwaysOn, Sm, TwoLevelScheduler};
use warped_workloads::Benchmark;

const USAGE: &str = "<structure|conv-vs-gates|gates-cost|accounting> [--scale <f in (0,1]>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let table: fn(f64) = match args.first().map(String::as_str) {
        Some("structure") => structure,
        Some("conv-vs-gates") => conv_vs_gates,
        Some("gates-cost") => gates_cost,
        Some("accounting") => accounting,
        other => exit_usage(
            &ArgError::BadValue {
                flag: "<table>".to_owned(),
                value: other.unwrap_or_default().to_owned(),
                expected: "structure, conv-vs-gates, gates-cost or accounting",
            },
            USAGE,
        ),
    };
    let scale = parse_scale_args(&args[1..]).unwrap_or_else(|e| exit_usage(&e, USAGE));
    table(scale);
}

fn structure(scale: f64) {
    let grid = RunGrid::collect(scale, &[Technique::Baseline, Technique::ConvPg]);

    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let run = grid.get(b, Technique::Baseline);
        let s = &run.stats;
        let int_busy = 1.0 - s.idle_fraction(UnitType::Int);
        let fp_busy = 1.0 - s.idle_fraction(UnitType::Fp);
        let hist_int = run.idle_histogram(UnitType::Int);
        let (w, n, l) = hist_int.region_shares(5, 14);
        let conv = grid.get(b, Technique::ConvPg);
        let gated_share =
            conv.gating_of(UnitType::Int).gated_cycles as f64 / (2.0 * conv.cycles as f64);
        rows.push((
            b.name().to_owned(),
            vec![
                s.ipc(),
                s.avg_active_warps(),
                f64::from(s.active_warps_max),
                int_busy,
                fp_busy,
                w,
                n,
                l,
                gated_share,
            ],
        ));
    }
    print_table(
        "probe: baseline structure",
        &[
            "IPC", "avgActv", "maxActv", "INTbusy", "FPbusy", "id<=5", "mid", "long", "gatedShr",
        ],
        &rows,
    );
}

fn conv_vs_gates(scale: f64) {
    let grid = RunGrid::collect(
        scale,
        &[Technique::Baseline, Technique::ConvPg, Technique::Gates],
    );

    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let base = grid.get(b, Technique::Baseline);
        let conv = grid.get(b, Technique::ConvPg);
        let gates = grid.get(b, Technique::Gates);
        let gi = |r: &TechniqueRun| {
            let g = r.gating_of(UnitType::Int);
            (
                g.wakeups as f64,
                g.premature_wakeups as f64,
                g.gated_cycles as f64 / (2.0 * r.cycles as f64),
            )
        };
        let (cw, cp, cg) = gi(conv);
        let (gw, gp, gg) = gi(gates);
        rows.push((
            b.name().to_owned(),
            vec![
                conv.normalized_performance(base),
                gates.normalized_performance(base),
                cw,
                gw,
                cp,
                gp,
                cg,
                gg,
            ],
        ));
    }
    print_table(
        "probe2: ConvPG vs GATES (INT unit)",
        &[
            "perfConv",
            "perfGATES",
            "wkConv",
            "wkGATES",
            "preConv",
            "preGATES",
            "gatedConv",
            "gatedGATES",
        ],
        &rows,
    );
}

fn gates_cost(scale: f64) {
    let mut rows = Vec::new();
    for b in Benchmark::ALL {
        let spec = b.spec().scaled(scale);
        let base = Sm::new(
            spec.sm_config(),
            spec.launch(),
            Box::new(TwoLevelScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        let gates = Sm::new(
            spec.sm_config(),
            spec.launch(),
            Box::new(GatesScheduler::with_max_hold(Technique::GATES_MAX_HOLD)),
            Box::new(AlwaysOn::new()),
        )
        .run();
        let gates_unbounded = Sm::new(
            spec.sm_config(),
            spec.launch(),
            Box::new(GatesScheduler::new()),
            Box::new(AlwaysOn::new()),
        )
        .run();
        rows.push((
            b.name().to_owned(),
            vec![
                base.stats.cycles as f64 / gates.stats.cycles as f64,
                base.stats.cycles as f64 / gates_unbounded.stats.cycles as f64,
            ],
        ));
    }
    print_table(
        "probe3: GATES scheduling cost, no gating (1.0 = two-level)",
        &["hold64", "unbounded"],
        &rows,
    );
}

fn accounting(scale: f64) {
    let exp = Experiment::paper_defaults().with_scale(scale);
    let bench = std::env::var("BENCH").unwrap_or_else(|_| "hotspot".to_owned());
    let b = Benchmark::from_name(&bench).expect("unknown benchmark");

    let mut rows = Vec::new();
    for t in Technique::ALL {
        let run = exp.run(&b.spec(), t);
        let int = run.gating_of(UnitType::Int);
        let fp = run.gating_of(UnitType::Fp);
        rows.push((
            t.name().to_owned(),
            vec![
                run.cycles as f64,
                run.stats.idle_issue_cycles as f64,
                run.stats.dual_issue_cycles as f64,
                (int.wakeups + fp.wakeups) as f64,
                (int.critical_wakeups + fp.critical_wakeups) as f64,
                (int.gate_events + fp.gate_events) as f64,
                (int.wakeup_cycles + fp.wakeup_cycles) as f64,
                (int.demand_blocked_cycles + fp.demand_blocked_cycles) as f64,
            ],
        ));
    }
    print_table(
        &format!("probe4: {bench} cycle accounting"),
        &[
            "cycles", "idleIss", "dualIss", "wakes", "critWk", "gates", "wakeCyc", "dmdBlk",
        ],
        &rows,
    );
}
