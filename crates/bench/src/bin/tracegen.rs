//! Capture synthetic benchmark kernels as WGT1 workload traces.
//!
//! For each requested benchmark, `tracegen` records the generated
//! kernel, launch geometry, and memory behaviour as a versioned WGT1
//! text trace (see `warped-trace`) and writes it to
//! `<out>/<name>.wgt1`. Every capture is parsed straight back and the
//! lowered kernel compared structurally against the generator's — a
//! capture that does not round-trip never reaches disk.
//!
//! With `--verify`, each capture is additionally *replayed*: the trace
//! runs through the experiment engine under every technique (sanitizer
//! armed) and its cycle counts and gating reports are diffed
//! bit-for-bit against the native synthetic runs. This is the
//! round-trip gate `verify.sh` drives.
//!
//! Usage:
//! `tracegen [--out <dir>] [--bench <a,b,...>] [--scale <f>] [--verify]`

use std::path::PathBuf;
use std::process::ExitCode;
use warped_bench::{exit_usage, write_atomic, ArgError};
use warped_gates::{Experiment, Technique};
use warped_trace::{capture, parse_str, CaptureSpec};
use warped_workloads::Benchmark;

const USAGE: &str = "[--out <dir>] [--bench <name,name,...>] [--scale <f in (0,1]>] [--verify]";

/// The default corpus: six benchmarks spanning the paper's workload
/// space — compute-bound (sgemm, mri), memory-bound (lbm, bfs), and
/// barrier-phased (hotspot, nw).
const DEFAULT_BENCHES: [Benchmark; 6] = [
    Benchmark::Hotspot,
    Benchmark::Bfs,
    Benchmark::Sgemm,
    Benchmark::Nw,
    Benchmark::Lbm,
    Benchmark::Mri,
];

struct Args {
    out: PathBuf,
    benches: Vec<Benchmark>,
    scale: f64,
    verify: bool,
}

fn parse_args(args: &[String]) -> Result<Args, ArgError> {
    let mut out = Args {
        out: PathBuf::from("traces"),
        benches: DEFAULT_BENCHES.to_vec(),
        scale: 1.0,
        verify: false,
    };
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> Result<String, ArgError> {
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| ArgError::MissingValue(flag.to_owned()))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out.out = value(args, i, "--out")?.into();
                i += 2;
            }
            "--bench" => {
                let v = value(args, i, "--bench")?;
                out.benches = v
                    .split(',')
                    .map(|name| {
                        Benchmark::from_name(name.trim()).ok_or_else(|| ArgError::BadValue {
                            flag: "--bench".to_owned(),
                            value: name.trim().to_owned(),
                            expected: "a benchmark name from the catalog",
                        })
                    })
                    .collect::<Result<_, _>>()?;
                i += 2;
            }
            "--scale" => {
                let v = value(args, i, "--scale")?;
                let bad = || ArgError::BadValue {
                    flag: "--scale".to_owned(),
                    value: v.clone(),
                    expected: "a number in (0,1]",
                };
                let scale: f64 = v.parse().map_err(|_| bad())?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad());
                }
                out.scale = scale;
                i += 2;
            }
            "--verify" => {
                out.verify = true;
                i += 1;
            }
            other => return Err(ArgError::Unknown(other.to_owned())),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| exit_usage(&e, USAGE));

    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("tracegen: cannot create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for bench in &args.benches {
        // Capture the *pre-scaled* spec and replay at scale 1.0: spec
        // scaling divides loop trips before the generator splits them
        // across barrier rounds, so scaling a full-size capture is a
        // different workload than capturing a scaled spec.
        let spec = if args.scale < 1.0 {
            bench.spec().scaled(args.scale)
        } else {
            bench.spec()
        };
        let kernel = spec.kernel();
        let text = capture(&CaptureSpec {
            name: spec.name,
            kernel: &kernel,
            total_warps: spec.total_warps,
            block_warps: spec.block_warps,
            stagger: spec.body_len as u32,
            waves: spec.launches,
            l1_hit_rate: spec.l1_hit_rate,
            mem_seed: spec.seed ^ 0xdead_beef,
        });

        // Self-check: parse the capture back and compare the lowered
        // kernel structurally. This can only fail on a tracegen bug,
        // and then it must fail before anything reaches disk.
        let parsed = match parse_str(&text) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("tracegen: {}: capture does not parse: {e}", spec.name);
                failed = true;
                continue;
            }
        };
        if parsed.kernel != kernel {
            eprintln!(
                "tracegen: {}: parsed kernel differs from generated",
                spec.name
            );
            failed = true;
            continue;
        }

        if args.verify && !verify(&spec, &parsed) {
            failed = true;
            continue;
        }

        let path = args.out.join(format!("{}.wgt1", spec.name));
        match write_atomic(&path, &text) {
            Ok(()) => println!(
                "tracegen: wrote {} ({} bytes, {} instrs{})",
                path.display(),
                text.len(),
                parsed.kernel.len(),
                if args.verify { ", verified" } else { "" }
            ),
            Err(e) => {
                eprintln!("tracegen: cannot write {}: {e}", path.display());
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Replays the trace under every technique (sanitizer armed) and diffs
/// cycles and gating reports bit-for-bit against the native runs.
fn verify(spec: &warped_workloads::BenchmarkSpec, trace: &warped_trace::TraceWorkload) -> bool {
    let exp = Experiment::paper_defaults().with_sanitize(true);
    for technique in Technique::ALL {
        let native = exp.run(spec, technique);
        let replay = exp.run_trace(trace, technique);
        if native.report.cycles != replay.report.cycles
            || native.report.stats != replay.report.stats
            || native.report.gating != replay.report.gating
        {
            eprintln!(
                "tracegen: {}/{technique}: replay diverges (native {} cycles, trace {})",
                spec.name, native.report.cycles, replay.report.cycles
            );
            return false;
        }
    }
    true
}
