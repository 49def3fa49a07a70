//! The repository's benchmark: three workloads over the `c11check` and
//! `c11netd` paths, and a traced run that splits their time by layer.
//!
//! ```sh
//! bash benchmark/run.sh --workload check-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.sh` builds `c11netd` and this program from the checkout, then
//! runs it from the checkout's root. The last line of standard output is
//! the result object; progress and per-layer tables go to standard
//! error. See `BENCHMARK.json` for the workloads and metrics.

mod check;
mod gen;
mod serve;
mod speed;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: c11-benchmark --netd PATH --workload check-cold|check-matrix|serve-mixed \
     --seed N --seconds S --trace 0|1";

struct Args {
    netd: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut netd = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--netd" => netd = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        netd: netd.ok_or("--netd is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<util::Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("check-cold", false) => check::run_cold(args.seed, args.seconds),
        ("check-matrix", false) => check::run_matrix(args.seed, args.seconds),
        ("serve-mixed", false) => serve::run_serve(&args.netd, args.seed, args.seconds),
        (w @ ("check-cold" | "check-matrix" | "serve-mixed"), true) => {
            trace::run_traced(w, args.seed, args.seconds)
        }
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|o| o.render()) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
