//! The auditor's benchmark: three workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path auditbench/Cargo.toml -- \
//!     --workload <paper_cold|fleet_longitudinal|batch_preempt|all> \
//!     [--seed 2022] [--seconds 30] [--trace 0|1] [--smoke] [--expect-bots N]
//! ```
//!
//! Every metric is printed by name with its unit on stderr; the last line
//! of stdout is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. The exit code is 0 only when every output check passed.
//! `--workload all` runs each workload in turn, each in a fresh process
//! so that `peak_rss_mb` stays per workload.

mod layers;
mod measure;
mod workloads;

use measure::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{Run, Sizes, Workload};

const DEFAULT_SEED: u64 = 2022;
const DEFAULT_SECONDS: f64 = 30.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    expect_bots: Option<usize>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("auditbench: {problem}");
    eprintln!(
        "usage: auditbench --workload <paper_cold|fleet_longitudinal|batch_preempt|all> \
         [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--expect-bots N]"
    );
    ExitCode::from(2)
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        expect_bots: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?),
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--expect-bots" => {
                args.expect_bots = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--expect-bots: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    let Some(workload) = args.workload else {
        return run_all(&raw);
    };
    let mut sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    sizes.expect_bots = args.expect_bots;
    let run = Run {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        sizes,
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "[{}] seed {} | {} s | trace {} | {} cores | {} worker threads{}",
        workload.name(),
        run.seed,
        run.seconds,
        u8::from(args.trace),
        cores,
        workloads::WORKERS,
        if args.smoke { " | smoke scale" } else { "" }
    );
    let mut out = if args.trace {
        layers::traced(&run)
    } else {
        workloads::end_to_end(&run)
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    report(workload, &mut out, declared, args.trace)
}

/// Print every declared metric (stderr, human-readable; stdout, the JSON
/// result line) and turn the checks into the exit code.
fn report(
    workload: Workload,
    out: &mut Outcome,
    declared: &[(&str, &str)],
    traced: bool,
) -> ExitCode {
    let mut json = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        // End-to-end metrics are always measured and never 0; a layer a
        // workload does not reach reads 0.
        let value = match out.get(name) {
            None if traced => Some(0.0),
            value => value,
        };
        if !value.is_some_and(|v| v.is_finite() && (traced || v > 0.0)) {
            out.check(false, || format!("{name} was not measured ({value:?})"));
        }
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        let alias = workload
            .aliases()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| format!("  ({a})"))
            .unwrap_or_default();
        eprintln!("  {name:<34} {value:>16.4} {unit}{alias}");
        json.push(format!(
            "{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"
        ));
    }
    let error_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    eprintln!(
        "  {:<34} {error_ratio:>16.4} ratio  ({} failed of {} attempted)",
        "error_ratio", out.failed, out.attempted
    );
    for note in &out.notes {
        eprintln!("  note: {note}");
    }
    for error in &out.errors {
        eprintln!("  ERROR: {error}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: each workload in its own child process, one at a
/// time, forwarding the result lines.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("cannot locate this executable: {e}")),
    };
    let mut passed = true;
    for workload in Workload::ALL {
        let mut child_args: Vec<String> = Vec::with_capacity(raw.len() + 2);
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            if arg == "--workload" {
                it.next();
            } else {
                child_args.push(arg.clone());
            }
        }
        child_args.extend(["--workload".to_string(), workload.name().to_string()]);
        let output = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output();
        match output {
            Ok(output) => {
                print!("{}", String::from_utf8_lossy(&output.stdout));
                passed &= output.status.success();
            }
            Err(e) => {
                eprintln!("auditbench: {} did not start: {e}", workload.name());
                passed = false;
            }
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
