//! Benchmark command: runs one workload and prints its metrics.
//!
//! ```sh
//! python3 perfbench/run.py --workload table2 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the lines before it carry the
//! host block, every metric by name and unit, and check notes.

use issa_perfbench::array::ArrayTrace;
use issa_perfbench::measure::{self, median, peak_rss_mb, secs};
use issa_perfbench::service::Service;
use issa_perfbench::table2::Table2;
use issa_perfbench::tail::Tail;
use issa_perfbench::tracer::Tracer;
use issa_perfbench::{
    run_job, warm_up, Job, Layers, Opts, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS,
};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long set-ups repeat in each window: one before the first job
/// and one after every job.
const SETUP_WINDOW: Duration = Duration::from_millis(250);

/// Compute threads of every workload.
const THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: issa-perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = parse_u64(&value()).unwrap_or_else(|| usage("bad --seed")),
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        usage("--workload is required");
    }
    a
}

/// `target-cpu` as pinned by the repository's `.cargo/config.toml`.
fn target_cpu() -> String {
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| {
            let at = s.find("target-cpu=")? + "target-cpu=".len();
            Some(
                s[at..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-' || *c == '_')
                    .collect(),
            )
        })
        .unwrap_or_else(|| "default".into())
}

/// The checked-out revision, read from `.git` in the working directory
/// at run time, so every build of a shared target directory reports the
/// revision it actually runs.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let rev = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_owned()),
        Some(name) => read(name).map(|r| r.trim().to_owned()).or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, n) = l.split_once(' ')?;
                (n == name).then(|| hash.to_owned())
            })
        }),
    });
    rev.filter(|r| !r.is_empty()).map_or_else(
        || "none (not a git checkout)".into(),
        |r| r.chars().take(12).collect(),
    )
}

fn host_block(a: &Args, o: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"workload\": \"{}\", \"seed\": \"{:#x}\", \"nproc\": {nproc}, \"threads\": {}, \
         \"lanes\": {}, \"target_cpu\": \"{}\", \"avx2\": {}, \"rustc\": \"{}\", \
         \"git_rev\": \"{}\", \"trace\": {}}}",
        a.workload,
        o.seed,
        o.threads,
        o.lanes,
        target_cpu(),
        cfg!(target_feature = "avx2"),
        env!("PERFBENCH_RUSTC"),
        git_rev(),
        a.trace,
    )
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The set-ups of one run: how many ran, and the fastest of each window.
#[derive(Default)]
struct Setups {
    count: usize,
    windows: Vec<f64>,
}

impl Setups {
    /// Sets up repeatedly for `SETUP_WINDOW` (at least 8 times) and
    /// keeps the fastest time; tearing down is not timed.
    fn window<W: Workload>(&mut self, w: &W, o: &Opts) {
        let start = Instant::now();
        let (mut count, mut fastest) = (0, f64::INFINITY);
        while count < 8 || start.elapsed() < SETUP_WINDOW {
            let (prep, s) = secs(|| w.setup(o));
            drop(prep);
            count += 1;
            fastest = fastest.min(s);
        }
        self.count += count;
        self.windows.push(fastest);
    }

    /// The fastest set-up of the run. The fastest, not the median: on a
    /// shared host the median of microsecond set-ups jumps between
    /// speeds about 1.7x apart. Windows spread over the run, as the jobs
    /// are, so one slow phase of the host does not set the run's figure.
    fn fastest(&self) -> f64 {
        self.windows.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Prints the host block, warms up (untimed), then measures the set-ups
/// and jobs of one run.
fn drive<W: Workload>(w: &W, a: &Args, o: &mut Opts) -> (Vec<Job>, Setups, Tracer) {
    o.lanes = w.default_lanes();
    println!("# host {}", host_block(a, o));
    let o = &*o;
    warm_up();
    let start = Instant::now();
    let mut setups = Setups::default();
    let mut jobs = Vec::new();
    let tracer = Tracer::new(a.trace);
    if a.trace {
        // One untraced job for the overhead baseline, then the traced one.
        jobs.push(run_job(w, o, &Tracer::new(false)));
        jobs.push(run_job(w, o, &tracer));
    } else {
        let budget = Duration::from_secs_f64(a.seconds);
        setups.window(w, o);
        loop {
            jobs.push(run_job(w, o, &tracer));
            setups.window(w, o);
            let typical = median(&jobs.iter().map(|j| j.wall_s).collect::<Vec<_>>());
            if start.elapsed() + Duration::from_secs_f64(typical) + SETUP_WINDOW > budget {
                break;
            }
        }
    }
    (jobs, setups, tracer)
}

fn main() {
    let a = parse_args();
    if !measure::keep_freed_memory() {
        eprintln!("warning: the allocator refused fixed trim/mmap thresholds");
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let run_root = cwd.join(".bench_run");
    let mut o = Opts {
        seed: a.seed,
        threads: THREADS,
        lanes: 0,
        reduced: false,
        dir: run_root.join(format!("{}-{}", a.workload, std::process::id())),
    };
    let (jobs, setups, tracer) = match a.workload.as_str() {
        "table2" => drive(&Table2, &a, &mut o),
        "tail" => drive(&Tail, &a, &mut o),
        "array_trace" => drive(&ArrayTrace, &a, &mut o),
        _ => drive(&Service::default(), &a, &mut o),
    };
    let _ = std::fs::remove_dir_all(&o.dir);

    // Every job must reproduce the first one's results and exact counts.
    let mut errors: Vec<String> = jobs
        .iter()
        .flat_map(|j| j.outcome.errors.iter().cloned())
        .collect();
    let first = &jobs[0];
    for (k, j) in jobs.iter().enumerate().skip(1) {
        if j.outcome.digest.0 != first.outcome.digest.0 {
            errors.push(format!("job {k} results differ from job 0 (digest)"));
        }
        if j.counts != first.counts {
            errors.push(format!(
                "job {k} exact counts differ from job 0: {:?} vs {:?}",
                j.counts, first.counts
            ));
        }
    }
    let attempted: u64 = jobs.iter().map(|j| j.outcome.attempted).sum();
    let failed: u64 = jobs.iter().map(|j| j.outcome.failed).sum();
    for note in &first.outcome.notes {
        println!("# note {note}");
    }
    for (k, j) in jobs.iter().enumerate() {
        println!(
            "# job {k} setup_s {} wall_s {} cpu_s {}",
            j.setup_s, j.wall_s, j.cpu_s
        );
    }
    let setup_s = setups.fastest();
    if !a.trace {
        println!(
            "# setups {} fastest {setup_s} per window {:?}",
            setups.count, setups.windows
        );
    }
    println!(
        "# jobs {} digest {:016x} attempted {attempted} failed {failed} failed_frac {} \
         transients {} newton {} probes {}",
        jobs.len(),
        first.outcome.digest.0,
        failed as f64 / attempted.max(1) as f64,
        first.counts.circuit.transients,
        first.counts.circuit.newton_iterations,
        first.counts.probes,
    );

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if a.trace {
        let (untraced, traced) = (&jobs[0], &jobs[1]);
        let mut layers: Layers = traced.outcome.layers.clone();
        layers.set("bench.traced_wall_s", traced.wall_s);
        layers.set("bench.untraced_wall_s", untraced.wall_s);
        layers.set("bench.trace_overhead_s", traced.wall_s - untraced.wall_s);
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, layers.get(name)));
        }
        let spans = run_root.join(format!("spans-{}-{:x}.json", a.workload, a.seed));
        if std::fs::write(&spans, tracer.to_json()).is_ok() {
            println!("# spans {}", spans.display());
        }
    } else {
        let pick = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
        let values = [
            setup_s,
            pick(|j| j.wall_s),
            pick(|j| j.cpu_s),
            peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            if !(v.is_finite() && v > 0.0) {
                errors.push(format!("end-to-end metric {name} is {v}"));
            }
            metrics.push((name, unit, v));
        }
    }
    for (name, unit, v) in &metrics {
        println!("# metric {name} = {} {unit}", num(*v));
    }
    for e in &errors {
        println!("# CHECK FAILED: {e}");
        eprintln!("check failed: {e}");
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        errors.is_empty(),
        attempted.max(1)
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*v)
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !errors.is_empty() {
        std::process::exit(1);
    }
}
