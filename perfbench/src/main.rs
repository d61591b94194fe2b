//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the hydra performance ledger and prints, as the
//! last line of standard output, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Diagnostics (sample counts, violating cells) go to
//! standard error. Snapshots are written under `.perfbench_work/` in the
//! current directory and removed before exit; traced runs leave their
//! spans in `.perfbench_out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use hydra_perfbench::probes::{END_TO_END, PER_LAYER};
use hydra_perfbench::{run, run_traced_ledger, RunConfig, Scale};

#[global_allocator]
static ALLOC: hydra_obs::TrackingAllocator = hydra_obs::TrackingAllocator;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
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
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Full,
        workdir: PathBuf::from(".perfbench_work").join(format!(
            "{}-seed{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        )),
    };
    let result = if args.trace {
        run_traced_ledger(&args.workload, &cfg)
    } else {
        run(&args.workload, &cfg)
    };
    std::fs::remove_dir(".perfbench_work").ok();
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for line in &out.violations {
        eprintln!("violation: {line}");
    }
    eprintln!(
        "{}: {} operations attempted, {} failed, {} latency samples",
        args.workload, out.attempted, out.failed, out.samples
    );
    if let Some(ok) = out.metrics.get("ok_frac") {
        eprintln!("{}: failed_frac {}", args.workload, 1.0 - ok);
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let Some(value) = out.metrics.get(*name).copied() else {
            eprintln!("error: metric {name} was not measured");
            return ExitCode::from(1);
        };
        if !value.is_finite() {
            eprintln!("error: metric {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
