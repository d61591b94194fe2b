//! Counter-determinism self-check of the benchmark.
//!
//! Two traced runs at one seed must produce identical summed `QueryStats`,
//! summed `StoreCounters`, MAP and failed fraction — the exact counters a
//! change is judged by. Another seed must change the generated inputs.
//! Runs every workload at its small probe scale.

use hydra_perfbench::{run, Outcome, RunConfig, Scale, WORKLOADS};

fn traced(workload: &str, seed: u64, tag: &str) -> Outcome {
    let cfg = RunConfig {
        seed,
        seconds: 0.0,
        trace: true,
        scale: Scale::Probe,
        workdir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "perfbench-{workload}-{seed}-{tag}-{}",
            std::process::id()
        )),
    };
    run(workload, &cfg).unwrap_or_else(|e| panic!("{workload} failed: {e}"))
}

#[test]
fn traced_counters_repeat_exactly_and_seeds_change_inputs() {
    for workload in WORKLOADS {
        let a = traced(workload, 7, "a");
        let b = traced(workload, 7, "b");
        let counters = a.counters.clone().expect("a traced run records counters");
        assert!(
            !counters.query_stats.is_empty(),
            "{workload}: no queries counted"
        );
        assert_eq!(
            Some(counters),
            b.counters,
            "{workload}: counters differ at one seed"
        );
        assert_eq!(
            (a.attempted, a.failed),
            (b.attempted, b.failed),
            "{workload}"
        );
        assert_eq!(
            a.input_digest, b.input_digest,
            "{workload}: inputs differ at one seed"
        );
        let c = traced(workload, 8, "c");
        assert_ne!(
            a.input_digest, c.input_digest,
            "{workload}: another seed kept the inputs"
        );
    }
}
