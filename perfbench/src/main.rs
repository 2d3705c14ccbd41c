//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <h2-pes|tfim12|h2-served|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit and better direction, then, as the last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  Exits
//! 1 if any correctness check fails and 2 on a usage error.

use std::process::ExitCode;
use treevqa_perfbench::metrics::{render, END_TO_END, PER_LAYER};
use treevqa_perfbench::workload::{Spec, WORKLOADS};
use treevqa_perfbench::{bench, knobs};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <h2-pes|tfim12|h2-served|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Spec::named(&args.workload).is_none() {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before anything else: the program caches its knobs on first use.
    let warnings = knobs::pin();
    let bound_cpu = match knobs::bind_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("cannot bind the benchmark to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for warning in &warnings {
        eprintln!("{warning}");
        println!("{warning}");
    }
    println!("{}", knobs::fingerprint(bound_cpu));
    println!(
        "seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let prefixed = names.len() > 1;
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut json = Vec::new();
    for name in names {
        let spec = Spec::named(name).expect("validated workload name");
        let outcome = match bench::run(&spec, args.seed, args.seconds, args.trace) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let prefix = if prefixed {
            format!("{name}/")
        } else {
            String::new()
        };
        println!("{name}: end-to-end metrics (untraced repetitions)");
        let e2e = render(END_TO_END, &outcome.end_to_end, &prefix);
        let layers = args.trace.then(|| {
            println!("{name}: per-layer metrics (traced repetitions)");
            render(PER_LAYER, &outcome.per_layer, &prefix)
        });
        for failure in &outcome.failures {
            println!("  CHECK FAILED: {failure}");
        }
        let reported = match layers {
            Some(layers) => e2e.and(layers),
            None => e2e,
        };
        match reported {
            Ok(metrics) => json.push(metrics),
            Err(e) => {
                println!("  CHECK FAILED: {e}");
                correct = false;
            }
        }
        correct &= outcome.correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
