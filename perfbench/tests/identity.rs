//! Identity guard: reduced workloads give the same results digest at
//! threads {1, 2} × lanes {0, 8}, and every exact count repeats from run
//! to run at a fixed setting. One test function, so no other test in
//! this binary perturbs the process-global counters.

use issa_perfbench::array::ArrayTrace;
use issa_perfbench::service::Service;
use issa_perfbench::table2::Table2;
use issa_perfbench::tail::Tail;
use issa_perfbench::tracer::Tracer;
use issa_perfbench::{run_job, Job, Opts, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

const SEED: u64 = 0x5eed_0011;

fn opts(threads: usize, lanes: usize) -> Opts {
    Opts {
        seed: SEED,
        threads,
        lanes,
        reduced: true,
        dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-identity"),
    }
}

fn job<W: Workload>(w: &W, name: &str, o: &Opts) -> Job {
    let job = run_job(w, o, &Tracer::new(false));
    assert!(
        job.outcome.errors.is_empty(),
        "{name} at threads {} lanes {}: {:?}",
        o.threads,
        o.lanes,
        job.outcome.errors
    );
    job
}

fn identity<W: Workload>(w: &W, name: &str) {
    let reference = job(w, name, &opts(2, 8));
    for threads in [1, 2] {
        for lanes in [0, 8] {
            let j = job(w, name, &opts(threads, lanes));
            assert_eq!(
                j.outcome.digest.0, reference.outcome.digest.0,
                "{name}: results at threads {threads} lanes {lanes} differ"
            );
            if (threads, lanes) == (2, 8) {
                assert_eq!(j.counts, reference.counts, "{name}: exact counts differ");
                for layer in ["mc.samples", "tail.samples_used", "tail.rounds"] {
                    assert_eq!(
                        j.outcome.layers.get(layer),
                        reference.outcome.layers.get(layer),
                        "{name}: {layer} differs"
                    );
                }
            }
        }
    }
}

#[test]
fn reduced_workloads_are_identical_across_threads_and_lanes() {
    identity(&Table2, "table2");
    identity(&Tail, "tail");
    identity(&ArrayTrace, "array_trace");
    // The service's own checks: artifacts byte-identical to single-process
    // runs, cache hits exactly on repeats.
    let a = job(&Service::default(), "service", &opts(2, 0));
    let b = job(&Service::default(), "service", &opts(1, 0));
    assert_eq!(a.outcome.digest.0, b.outcome.digest.0);
    assert_eq!(
        a.counts,
        job(&Service::default(), "service", &opts(2, 0)).counts
    );
}

#[test]
fn benchmark_json_declares_every_metric_and_workload() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = |name: &str| text.contains(&format!("\"name\": \"{name}\""));
    for name in WORKLOADS {
        assert!(declared(name), "workload {name} missing");
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(declared(name), "metric {name} missing");
        assert!(
            text.contains(&format!("\"unit\": \"{unit}\"")),
            "unit {unit} missing"
        );
    }
    let count = text.matches("\"name\":").count();
    assert_eq!(count, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
}
