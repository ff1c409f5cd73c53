//! `crossroads-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints comment lines (host context, outcome digests), then one JSON
//! result object as the last line of standard output.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use crossroads_perfbench::report::host_context;
use crossroads_perfbench::{timed_pass, traced_pass, Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 11;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} must be a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required: {}", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where the traced pass leaves its spans: beside the build output
/// (`<target dir>/perfbench-spans/`), inside the tree being measured.
fn spans_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.parent()?.join("perfbench-spans"))
}

fn main() -> ExitCode {
    // The library's config constructors read these; an ambient setting
    // would silently change what is measured.
    let ambient: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CROSSROADS_"))
        .collect();
    if !ambient.is_empty() {
        eprintln!("refusing to run with {} set", ambient.join(", "));
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{}",
        host_context(args.workload.name(), args.seed, args.seconds, args.trace)
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let result = if args.trace {
        let (result, spans) = traced_pass(args.workload, args.seed, Scale::FULL, budget);
        if let Some(dir) = spans_dir() {
            let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
            match std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, spans.to_json()))
            {
                Ok(()) => println!("# spans {} ({} spans)", path.display(), spans.spans().len()),
                Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
            }
        }
        result
    } else {
        timed_pass(args.workload, args.seed, Scale::FULL, budget)
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
