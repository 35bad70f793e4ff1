//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints run metadata and every metric with its unit as `#` lines,
//! then one JSON result line. Exits non-zero on any mismatched byte
//! or failed call.

use std::process::ExitCode;

use perfbench::gen::Scale;
use perfbench::{catalog, Options, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                WORKLOADS.contains(&value.as_str())
            }
            "--seed" => value.parse().map(|v| opts.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|v| opts.seconds = v)
                .is_ok_and(|_| opts.seconds > 0.0 && opts.seconds <= 600.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    if opts.workload.is_empty() {
        return usage("--workload is required");
    }
    let outcome = match perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    println!("# meta {}", outcome.meta.render());
    for line in &outcome.report {
        println!("# {line}");
    }
    for (name, value) in &outcome.metrics {
        println!("# metric {name} = {value} {}", catalog::unit_of(name));
    }
    if let Some(e) = &outcome.first_error {
        eprintln!("perfbench: first error: {e}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
