//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a checkout, prints the host
//! record, a metric table and, last, one JSON line. Exits 1 when any
//! output was wrong, 2 on a usage or setup error (without a result).
//!
//! `--scale <f>` overrides a sweep's scale (at scale 1 every cell's
//! cycles are also checked against `results/bench_grid.json` and
//! `results/bench_trace_grid.json`); `--bless` regenerates the
//! workload's reference outcomes instead of measuring.

use std::process::ExitCode;

use perfbench::host::Host;
use perfbench::sweep::{self, Sweep};
use perfbench::{serve_mix, Settings};

const USAGE: &str = "usage: perfbench --workload <sweep_flat|sweep_mem|serve_mix> --seed <n> \
                     --seconds <s> --trace <0|1> [--scale <f in (0,1]>] [--bless]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Option<f64>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scale: None,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--scale" => {
                args.scale = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                        .ok_or_else(bad)?,
                );
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || (!args.bless && args.seconds == 0.0) {
        return Err("--workload and --seconds are required".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sweep = match args.workload.as_str() {
        "sweep_flat" => Some(Sweep::Flat),
        "sweep_mem" => Some(Sweep::Mem),
        "serve_mix" => None,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        let done = match sweep {
            Some(s) => sweep::bless(s, args.scale.unwrap_or_else(|| s.default_scale())),
            None => serve_mix::bless(),
        };
        return match done {
            Ok(msg) => {
                println!("blessed {}: {msg}", args.workload);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let host = Host::probe();
    println!("{}", host.line());
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        host,
    };
    let result = match sweep {
        Some(s) => sweep::run(s, &settings),
        None => serve_mix::run(&settings),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }
    print!("{}", report.table());
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
