//! `array_trace`: the trace-driven array-aging pipeline at its defaults.
//! Generates the three trace classes (set-up), saves and replays them
//! under both schemes, ages the SAs with the measured mix (36 corners ×
//! 24 samples on the scalar path), then replays the trace against each
//! sample group's aged offsets with the aged decoder skew and counts read
//! failures.

use crate::measure::secs;
use crate::tracer::Tracer;
use crate::{
    add_mc_layers, check_complete, spot_check, spot_indices, time_build_samples, Completions, Opts,
    Outcome, Workload,
};
use issa_core::campaign::{run_campaign, CampaignCorner, CampaignOptions};
use issa_core::montecarlo::{run_mc_controlled, McConfig, McControl, McResult};
use issa_core::netlist::SaKind;
use issa_core::workload::{ReadSequence, Workload as ReadWorkload};
use issa_memarray::ArrayScheme;
use issa_ptm45::Environment;
use issa_trace::{
    decoder_skew, replay, DecoderAging, ReplayOptions, ReplayStats, Trace, TraceClass,
};
use std::path::PathBuf;

const COUNTER_BITS: u8 = 8;
const T_DEVELOP: f64 = 26e-12;
const TEMP_C: f64 = 85.0;

pub struct ArrayTrace;

struct Size {
    samples: usize,
    rows: u32,
    width: u32,
    cycles: u64,
    times: usize,
}

fn size(o: &Opts) -> Size {
    if o.reduced {
        Size {
            samples: 8,
            rows: 16,
            width: 8,
            cycles: 512,
            times: 2,
        }
    } else {
        Size {
            samples: 24,
            rows: 32,
            width: 8,
            cycles: 4096,
            times: 6,
        }
    }
}

/// Log-spaced stress times, 1e6 s to 3.15e9 s.
fn time_grid(points: usize) -> Vec<f64> {
    let (lo, hi) = (1e6f64, 3.15e9f64);
    (0..points)
        .map(|i| lo * (hi / lo).powf(i as f64 / (points - 1) as f64))
        .collect()
}

/// One (class, scheme) pair with its replay-measured stress.
struct Lane {
    class: usize,
    switching: bool,
    stats: ReplayStats,
    activation: f64,
    mix: f64,
}

fn scheme(switching: bool) -> ArrayScheme {
    if switching {
        ArrayScheme::InputSwitching {
            counter_bits: COUNTER_BITS,
        }
    } else {
        ArrayScheme::Standard
    }
}

pub struct Prep {
    size: Size,
    times: Vec<f64>,
    dir: PathBuf,
    traces: Vec<Trace>,
    gen_s: f64,
}

pub struct Out {
    size: Size,
    dir: PathBuf,
    traces: Vec<Trace>,
    corners: Vec<CampaignCorner>,
    results: Vec<Option<McResult>>,
    /// Per lane: failures and skew per stress time.
    failures: Vec<Vec<u64>>,
    skews: Vec<Vec<f64>>,
    mixes: Vec<f64>,
    onsets: Vec<Option<f64>>,
    reads: u64,
    gen_s: f64,
    error: Option<String>,
}

fn mc_config(o: &Opts, s: &Size, lane: &Lane, fingerprint: u64, time: f64) -> McConfig {
    let mut cfg = McConfig::smoke(
        if lane.switching {
            SaKind::Issa
        } else {
            SaKind::Nssa
        },
        ReadWorkload::new(lane.activation, ReadSequence::Alternating),
        Environment::nominal().with_temp_c(TEMP_C),
        time,
        s.samples,
    );
    cfg.seed = o.seed;
    cfg.counter_bits = COUNTER_BITS;
    cfg.measured_mix = Some(lane.mix);
    cfg.trace_fingerprint = fingerprint;
    cfg.threads = o.threads;
    cfg.batch_lanes = o.lanes;
    cfg.delay_samples = 0;
    cfg
}

impl Workload for ArrayTrace {
    type Prep = Prep;
    type Out = Out;

    fn default_lanes(&self) -> usize {
        0
    }

    fn setup(&self, o: &Opts) -> Prep {
        let dir = o.dir.join("traces");
        let _ = std::fs::create_dir_all(&dir);
        let size = size(o);
        let times = time_grid(size.times);
        let (traces, gen_s) = secs(|| {
            TraceClass::all()
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    c.generate(size.rows, size.width, size.cycles, o.seed ^ (i as u64 + 1))
                })
                .collect()
        });
        Prep {
            size,
            times,
            dir,
            traces,
            gen_s,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn run(&self, o: &Opts, prep: Prep, t: &Tracer) -> Out {
        let Prep {
            size: s,
            times,
            dir,
            traces,
            gen_s,
        } = prep;
        let classes = TraceClass::all();
        let saved: Result<(), String> = t.span("trace.save", || {
            for (trace, class) in traces.iter().zip(&classes) {
                let path = dir.join(format!("{}.trc", class.name()));
                trace.save(&path).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let lanes: Vec<Lane> = t.span("trace.replay", || {
            let mut lanes = Vec::new();
            for (class, trace) in traces.iter().enumerate() {
                for switching in [false, true] {
                    let stats = replay(trace, &ReplayOptions::new(scheme(switching)));
                    let col = stats.columns[stats.worst_column()];
                    lanes.push(Lane {
                        class,
                        switching,
                        stats,
                        activation: col.activation,
                        mix: col.internal_zero_fraction,
                    });
                }
            }
            lanes
        });

        let mut corners = Vec::new();
        for lane in &lanes {
            let fp = traces[lane.class].fingerprint();
            for (idx, &time) in times.iter().enumerate() {
                corners.push(CampaignCorner {
                    name: format!(
                        "array_trace/{}/{}/t{idx}",
                        classes[lane.class].name(),
                        if lane.switching {
                            "input_switching"
                        } else {
                            "standard"
                        }
                    ),
                    cfg: mc_config(o, &s, lane, fp, time),
                });
            }
        }

        let mut error = saved.err();
        let results: Vec<Option<McResult>> = match t.span("core.campaign", || {
            run_campaign(&corners, &CampaignOptions::default())
        }) {
            Ok(report) => corners
                .iter()
                .map(|c| report.result(&c.name).cloned())
                .collect(),
            Err(e) => {
                error = Some(e.to_string());
                vec![None; corners.len()]
            }
        };

        let aging = DecoderAging::default_45nm(o.seed);
        let env = Environment::nominal().with_temp_c(TEMP_C);
        let mut failures = Vec::new();
        let mut skews = Vec::new();
        let mut onsets = Vec::new();
        let mut reads = 0u64;
        for (l, lane) in lanes.iter().enumerate() {
            let mut fails = Vec::new();
            let mut lane_skews = Vec::new();
            let mut onset = None;
            for (idx, &time) in times.iter().enumerate() {
                let Some(r) = &results[l * times.len() + idx] else {
                    continue;
                };
                let skew = t.span("digital.skew", || {
                    decoder_skew(&aging, &lane.stats, s.rows, &env, time)
                });
                let (f, n) = t.span("array.eval", || {
                    evaluate(&s, &traces[lane.class], lane, &r.offsets, skew)
                });
                if f > 0 && onset.is_none() {
                    onset = Some(time);
                }
                fails.push(f);
                lane_skews.push(skew);
                reads += n;
            }
            failures.push(fails);
            skews.push(lane_skews);
            onsets.push(onset);
        }
        Out {
            size: s,
            dir,
            traces,
            corners,
            results,
            failures,
            skews,
            mixes: lanes.iter().map(|l| l.mix).collect(),
            onsets,
            reads,
            gen_s,
            error,
        }
    }

    fn check(&self, o: &Opts, out: Out, t: &Tracer, res: &mut Outcome) {
        if let Some(e) = &out.error {
            res.errors.push(format!("array_trace pipeline failed: {e}"));
        }
        for (k, (c, r)) in out.corners.iter().zip(&out.results).enumerate() {
            let Some(r) = r else {
                res.errors.push(format!("{}: no result", c.name));
                res.attempted += c.cfg.samples as u64;
                res.failed += c.cfg.samples as u64;
                continue;
            };
            check_complete(&c.name, r, out.size.samples, res);
            res.digest.result(r);
            add_mc_layers(r, &mut res.layers);
            let spots = spot_indices(o.seed, k as u64, out.size.samples, 1);
            spot_check(&c.name, &c.cfg, r, &spots, res);
            if t.enabled() {
                time_build_samples(&c.cfg, out.size.samples, &mut res.layers);
            }
        }
        for (lane_fails, lane_skews) in out.failures.iter().zip(&out.skews) {
            lane_fails.iter().for_each(|&f| res.digest.u64(f));
            lane_skews.iter().for_each(|&s| res.digest.f64(s));
        }
        out.mixes.iter().for_each(|&m| res.digest.f64(m));

        // Input switching must delay the failure onset on every class
        // for the mitigation to hold (lanes alternate standard/switching).
        let mitigation_ok = out.onsets.chunks(2).all(|pair| match (pair[0], pair[1]) {
            (Some(s), Some(w)) => w > s,
            (Some(_), None) => true,
            _ => false,
        });
        res.digest.u64(u64::from(mitigation_ok));
        res.notes.push(format!(
            "mitigation_ok: {mitigation_ok}; failures_per_time: {:?}",
            out.failures
        ));

        // Traces must load back exactly as generated.
        let mut load_s = 0.0;
        for (trace, class) in out.traces.iter().zip(TraceClass::all()) {
            let path = out.dir.join(format!("{}.trc", class.name()));
            let (loaded, s) = secs(|| Trace::load(&path));
            load_s += s;
            res.require(loaded.as_ref().is_ok_and(|l| l == trace), || {
                format!("trace {} does not load back identically", class.name())
            });
        }
        let events: usize = out.traces.iter().map(|t| t.events.len()).sum();
        let l = &mut res.layers;
        l.set("trace.events", events as f64);
        l.set("trace.gen_s", out.gen_s);
        l.set("trace.save_s", t.total("trace.save"));
        l.set("trace.load_s", load_s);
        l.set("trace.replay_s", t.total("trace.replay"));
        l.set("array.reads", out.reads as f64);
        l.set("array.eval_s", t.total("array.eval"));
        l.set("digital.skew_s", t.total("digital.skew"));
        if t.enabled() {
            measure_drain(&out, res);
        }
        let _ = std::fs::remove_dir_all(&out.dir);
    }
}

/// Traced runs, after the timed job: each corner again through
/// `run_mc_controlled` with a completion observer, for `mc.drain_s`. The
/// results must equal the campaign's.
fn measure_drain(out: &Out, res: &mut Outcome) {
    let mut drain_s = 0.0;
    for (c, r) in out.corners.iter().zip(&out.results) {
        let obs = Completions::default();
        let ctl = McControl {
            observer: Some(&obs),
            ..McControl::default()
        };
        let again = run_mc_controlled(&c.cfg, &ctl);
        drain_s += obs.drain_s();
        res.require(matches!((&again, r), (Ok(a), Some(b)) if a == b), || {
            format!("{}: run_mc_controlled differs from the campaign", c.name)
        });
    }
    res.layers.set("mc.drain_s", drain_s);
}

/// Read failures of one corner: each `width` consecutive samples' aged
/// offsets populate one array instance, whose develop budget loses the
/// aged decoder skew; returns (failed column reads, column reads).
fn evaluate(s: &Size, trace: &Trace, lane: &Lane, offsets: &[f64], skew: f64) -> (u64, u64) {
    let width = s.width as usize;
    let mut failures = 0u64;
    let mut reads = 0u64;
    for group in offsets.chunks_exact(width) {
        let mut opts = ReplayOptions::new(scheme(lane.switching));
        opts.t_develop = T_DEVELOP;
        opts.offsets = group.to_vec();
        opts.timing_skew = skew;
        let stats = replay(trace, &opts);
        failures += stats.read_failures;
        reads += stats.reads * s.width as u64;
    }
    (failures, reads)
}
