//! `jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints one JSON result line (the last line of
//! standard output); progress and context go to standard error. See the
//! library documentation for the workloads and metrics.

use std::process::ExitCode;

use mathcloud_jobbench::fixture::Workload;
use mathcloud_jobbench::probe::{cap_malloc_arenas, pin_to_one_cpu};
use mathcloud_jobbench::run::{run, Options};

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("jobbench: {e}");
            return ExitCode::from(2);
        }
    };
    match pin_to_one_cpu() {
        Some(cpu) => eprintln!("jobbench: pinned to CPU {cpu}"),
        None => eprintln!("jobbench: could not pin to one CPU; running unpinned"),
    }
    cap_malloc_arenas();
    match run(&opts) {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jobbench: {}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
