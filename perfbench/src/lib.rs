//! The issa benchmark: four workloads driven through the library's
//! public entry points, each checked against a reference, with
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced run. See `perfbench/README.md` for the metric catalogue.

pub mod array;
pub mod measure;
pub mod service;
pub mod table2;
pub mod tail;
pub mod tracer;

use issa_bench::CornerSpec;
use issa_core::montecarlo::{
    run_offset_sample_with, McConfig, McObserver, McPhase, McResult, SampleFailure, SampleRun,
};
use issa_core::probe::{OffsetSearch, ProbeOptions};
use issa_core::workload::Workload as ReadWorkload;
use measure::Digest;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;
use tracer::Tracer;

/// The workload seed used when none is given (the paper runs' seed).
/// Claims are confirmed on the held-out seed `0x20170327` too.
pub const DEFAULT_SEED: u64 = 0x1554_2017;

/// End-to-end metrics (untraced runs): name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name, unit. Every workload reports
/// all of them; a layer the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("circuit.transients", "count"),
    ("circuit.timesteps", "count"),
    ("circuit.newton_iterations", "count"),
    ("circuit.newton_per_step", "ratio"),
    ("circuit.cpu_ns_per_newton", "ns"),
    ("circuit.recovery_attempts", "count"),
    ("circuit.recoveries_failed", "count"),
    ("probe.probes", "count"),
    ("probe.per_offset_sample", "ratio"),
    ("batch.rounds", "count"),
    ("batch.lane_steps", "count"),
    ("batch.occupancy", "ratio"),
    ("batch.scalar_fallbacks", "count"),
    ("mc.samples", "count"),
    ("mc.offset_s", "s"),
    ("mc.delay_s", "s"),
    ("mc.build_sample_s", "s"),
    ("mc.cpu_util", "ratio"),
    ("mc.drain_s", "s"),
    ("tail.rounds", "count"),
    ("tail.samples_used", "count"),
    ("tail.transients", "count"),
    ("tail.converged_corners", "count"),
    ("tail.min_tail_ess", "samples"),
    ("tail.proposal_fit_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.flushes_computed", "count"),
    ("trace.events", "count"),
    ("trace.gen_s", "s"),
    ("trace.save_s", "s"),
    ("trace.load_s", "s"),
    ("trace.replay_s", "s"),
    ("array.reads", "count"),
    ("array.eval_s", "s"),
    ("digital.skew_s", "s"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_p90", "ms"),
    ("service.fresh_s_p50", "s"),
    ("service.hit_ms_p50", "ms"),
    ("service.hit_ms_p90", "ms"),
    ("service.submissions", "count"),
    ("control.status_ms_p50", "ms"),
    ("journal.ack_ms_p50", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.entries", "count"),
    ("cache.bytes", "bytes"),
    ("cache.lookup_ms", "ms"),
    ("bench.traced_wall_s", "s"),
    ("bench.untraced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// Names of the workloads, in the order the doc lists them.
pub const WORKLOADS: [&str; 4] = ["table2", "tail", "array_trace", "service"];

/// Options shared by every workload.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Compute threads.
    pub threads: usize,
    /// Lockstep lane width (0 = scalar path).
    pub lanes: usize,
    /// Reduced sizes (the identity tests), instead of the full workload.
    pub reduced: bool,
    /// Scratch directory for checkpoints, traces and service state.
    pub dir: PathBuf,
}

/// Per-layer metric values by name.
#[derive(Debug, Clone, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.get(name) + value;
        self.set(name, v);
    }

    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a job's verification found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Digest of every physical result the job produced.
    pub digest: Digest,
    /// Operations attempted (samples, or submissions for `service`).
    pub attempted: u64,
    /// Operations that failed (quarantined samples; rejected, failed or
    /// non-completed submissions).
    pub failed: u64,
    /// Output-check failures; empty when the job is correct.
    pub errors: Vec<String>,
    /// Informational lines for the report.
    pub notes: Vec<String>,
    /// Layer metrics the workload measured itself.
    pub layers: Layers,
}

impl Outcome {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// One benchmark workload. `setup` is the program's own set-up before
/// the first timed call (building corners and configurations, generating
/// input traces, starting the service) and is timed as `setup_s`; `run`
/// is the timed phase; `check` verifies the output (untimed) and, when
/// traced, takes the extra layer measurements.
pub trait Workload {
    type Prep;
    type Out;
    /// Lane width the workload runs at.
    fn default_lanes(&self) -> usize;
    fn setup(&self, o: &Opts) -> Self::Prep;
    fn run(&self, o: &Opts, prep: Self::Prep, t: &Tracer) -> Self::Out;
    fn check(&self, o: &Opts, out: Self::Out, t: &Tracer, outcome: &mut Outcome);
}

/// Exact work counters read around a job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub circuit: issa_circuit::PerfSnapshot,
    pub probes: u64,
}

impl Counts {
    #[must_use]
    pub fn now() -> Self {
        Counts {
            circuit: issa_circuit::perf::snapshot(),
            probes: issa_core::perf::sense_calls(),
        }
    }

    #[must_use]
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            circuit: self.circuit.delta_since(&earlier.circuit),
            probes: self.probes - earlier.probes,
        }
    }
}

/// One measured job.
#[derive(Debug)]
pub struct Job {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub counts: Counts,
    pub outcome: Outcome,
}

/// Sets up, runs (timed) and checks one job.
pub fn run_job<W: Workload>(w: &W, o: &Opts, t: &Tracer) -> Job {
    let (prep, setup_s) = measure::secs(|| w.setup(o));
    let before = Counts::now();
    let (out, wall_s, cpu_s) = measure::timed(|| t.span("job", || w.run(o, prep, t)));
    let counts = Counts::now().since(&before);
    let mut outcome = Outcome::default();
    w.check(o, out, t, &mut outcome);
    fill_common_layers(o, wall_s, cpu_s, &counts, &mut outcome.layers);
    Job {
        setup_s,
        wall_s,
        cpu_s,
        counts,
        outcome,
    }
}

fn fill_common_layers(o: &Opts, wall_s: f64, cpu_s: f64, c: &Counts, l: &mut Layers) {
    let p = &c.circuit;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    l.set("circuit.transients", p.transients as f64);
    l.set("circuit.timesteps", p.timesteps as f64);
    l.set("circuit.newton_iterations", p.newton_iterations as f64);
    l.set(
        "circuit.newton_per_step",
        ratio(p.newton_iterations as f64, p.timesteps as f64),
    );
    l.set(
        "circuit.cpu_ns_per_newton",
        ratio(cpu_s * 1e9, p.newton_iterations as f64),
    );
    l.set(
        "circuit.recovery_attempts",
        (p.recoveries_damped + p.recoveries_dt_halved + p.recoveries_gmin + p.recoveries_source)
            as f64,
    );
    l.set("circuit.recoveries_failed", p.recoveries_failed as f64);
    l.set("probe.probes", c.probes as f64);
    l.set(
        "probe.per_offset_sample",
        ratio(c.probes as f64, l.get("mc.samples")),
    );
    l.set("batch.rounds", p.batched_steps as f64);
    l.set("batch.lane_steps", p.batch_lane_steps as f64);
    l.set(
        "batch.occupancy",
        ratio(
            p.batch_lane_steps as f64,
            p.batched_steps as f64 * o.lanes as f64,
        ),
    );
    l.set("batch.scalar_fallbacks", p.scalar_fallbacks as f64);
    l.set(
        "mc.cpu_util",
        ratio(cpu_s, wall_s * o.threads.max(1) as f64),
    );
}

/// Sums the per-corner `McResult` accounting into the `mc.*` layer.
pub fn add_mc_layers(r: &McResult, l: &mut Layers) {
    l.add("mc.samples", r.offsets.len() as f64);
    l.add("mc.offset_s", r.perf.offset_wall_s);
    l.add("mc.delay_s", r.perf.delay_wall_s);
}

/// Times `build_sample` over every sample of `cfg` (traced runs only).
pub fn time_build_samples(cfg: &McConfig, samples: usize, l: &mut Layers) {
    let (_, s) = measure::secs(|| {
        for i in 0..samples {
            std::hint::black_box(issa_core::montecarlo::build_sample(cfg, i));
        }
    });
    l.add("mc.build_sample_s", s);
}

/// Checks that every sample has a result and none was quarantined.
pub fn check_complete(name: &str, r: &McResult, expect: usize, out: &mut Outcome) {
    out.attempted += r.requested as u64;
    out.failed += r.failures.len() as u64;
    out.require(!r.partial, || format!("{name}: partial result"));
    out.require(r.failures.is_empty(), || {
        format!("{name}: {} quarantined sample(s)", r.failures.len())
    });
    out.require(r.offsets.len() == expect, || {
        format!("{name}: {} offsets, expected {expect}", r.offsets.len())
    });
}

/// Recomputes the offsets of `indices` on the single-threaded scalar
/// path and requires them bit-equal to the job's result.
pub fn spot_check(name: &str, cfg: &McConfig, r: &McResult, indices: &[usize], out: &mut Outcome) {
    let scalar = McConfig {
        threads: 1,
        batch_lanes: 0,
        ..cfg.clone()
    };
    for &i in indices {
        let Some(&got) = r.offsets.get(i) else {
            out.errors.push(format!("{name}: no offset for sample {i}"));
            continue;
        };
        match run_offset_sample_with(&scalar, i, None, &mut OffsetSearch::default()) {
            SampleRun::Done(v) if v.to_bits() == got.to_bits() => {}
            other => out.errors.push(format!(
                "{name}: sample {i} offset {got:e} differs from the scalar recomputation {other:?}"
            )),
        }
    }
}

/// Untimed warm-up before a run's set-ups and jobs: scalar offset
/// searches on fixed samples (the same for every seed), so code and
/// allocator are paged in before anything is measured.
pub fn warm_up() {
    const SAMPLES: usize = 4;
    let spec = &issa_bench::paper::table2()[0];
    let cfg = McConfig {
        threads: 1,
        batch_lanes: 0,
        ..table2_config(spec, SAMPLES, DEFAULT_SEED, &Opts::default())
    };
    let mut search = OffsetSearch::default();
    for i in 0..SAMPLES {
        let _ = run_offset_sample_with(&cfg, i, None, &mut search);
    }
}

/// Sample indices to spot-check: `k` distinct indices in `[0, n)` drawn
/// from the seed and a tag.
#[must_use]
pub fn spot_indices(seed: u64, tag: u64, n: usize, k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut x = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    while out.len() < k.min(n) {
        x = measure::splitmix(x);
        let i = (x % n as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

/// A Table II corner under the campaign's configuration (fast probes,
/// 16 delay samples), so results compare with `results/table2.csv`.
#[must_use]
pub fn table2_config(spec: &CornerSpec, samples: usize, seed: u64, o: &Opts) -> McConfig {
    McConfig {
        samples,
        seed,
        probe: ProbeOptions::fast(),
        delay_samples: 16.min(samples),
        threads: o.threads,
        batch_lanes: o.lanes,
        ..McConfig::paper(
            spec.kind,
            ReadWorkload::new(spec.activation, spec.sequence),
            spec.env,
            spec.time,
        )
    }
}

/// The campaign binary's checkpoint key for a Table II corner.
#[must_use]
pub fn table2_name(s: &CornerSpec) -> String {
    format!(
        "table2/{} {} t={} {:.0}C {:.2}V",
        s.kind.name(),
        s.label,
        s.time_label(),
        s.env.temp_c,
        s.env.vdd
    )
}

/// Records every fresh sample completion with its time and worker
/// thread, to measure how long threads idle at the end of a phase.
pub struct Completions {
    t0: Instant,
    events: Mutex<Vec<(bool, f64, ThreadId)>>,
}

impl Default for Completions {
    fn default() -> Self {
        Completions {
            t0: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }
}

impl McObserver for Completions {
    fn sample_finished(&self, phase: McPhase, _: usize, _: Result<f64, &SampleFailure>) {
        let t = self.t0.elapsed().as_secs_f64();
        let tid = std::thread::current().id();
        self.events
            .lock()
            .expect("a completion logger panicked")
            .push((phase == McPhase::Offset, t, tid));
    }
}

impl Completions {
    /// Per phase: the spread between the first and the last worker
    /// thread's final completion — the time finished threads sat idle
    /// while the phase drained \[s\].
    #[must_use]
    pub fn drain_s(&self) -> f64 {
        let events = self.events.lock().expect("a completion logger panicked");
        let mut total = 0.0;
        for offset_phase in [true, false] {
            let mut last: Vec<(ThreadId, f64)> = Vec::new();
            for &(_, t, tid) in events.iter().filter(|e| e.0 == offset_phase) {
                match last.iter_mut().find(|(id, _)| *id == tid) {
                    Some(slot) => slot.1 = slot.1.max(t),
                    None => last.push((tid, t)),
                }
            }
            if last.len() > 1 {
                let hi = last.iter().map(|x| x.1).fold(f64::MIN, f64::max);
                let lo = last.iter().map(|x| x.1).fold(f64::MAX, f64::min);
                total += hi - lo;
            }
        }
        total
    }
}
