//! perfbench: the es reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <script|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is generated from the seed, run as a closed loop for
//! the given seconds against the public APIs of es-core, es-os and
//! es-serve, and checked op by op against an oracle that does not use
//! es. `--trace 0` prints the end-to-end metrics; `--trace 1` prints
//! the per-layer split, measured from outside the program (see
//! `layers.rs`). The last line of stdout is one JSON object.

mod bare;
mod gen;
mod layers;
mod report;
mod serve;
mod trace;

use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <script|serve> --seed <n> --seconds <s> --trace <0|1>";

/// The checked command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => match value.as_str() {
                "script" | "serve" => workload = Some(value),
                _ => return Err(bad("script or serve")),
            },
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "script" => bare::run(&args),
        _ => serve::run(&args),
    };
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
