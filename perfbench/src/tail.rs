//! `tail`: importance-sampled fr = 1e-9 spec estimation (`run_tail_mc`)
//! on NSSA t=0, NSSA 80r0r1 and NSSA 80r0, in 64-sample blocks at the
//! library's default CI target, up to a sample cap. The fresh corner
//! converges within the cap after a seed-dependent number of blocks; the
//! aged corners run to the cap. A better proposal shows as fewer samples
//! solved and as a larger tail ESS.

use crate::measure::secs;
use crate::tracer::Tracer;
use crate::{
    add_mc_layers, spot_check, spot_indices, table2_config, time_build_samples, Opts, Outcome,
    Workload,
};
use issa_bench::paper;
use issa_core::montecarlo::{McConfig, McControl, McResult};
use issa_core::tail::{resolve_proposal, run_tail_mc, with_resolved, TailConfig};

pub struct Tail;

/// (corners, pilot, block, cap).
fn size(o: &Opts) -> (usize, usize, usize, usize) {
    if o.reduced {
        (2, 32, 16, 64)
    } else {
        (3, 400, 64, 1024)
    }
}

pub struct Out {
    corners: Vec<(String, McConfig)>,
    results: Vec<Result<McResult, String>>,
    transients: u64,
}

impl Workload for Tail {
    type Prep = Vec<(String, McConfig)>;
    type Out = Out;

    fn default_lanes(&self) -> usize {
        8
    }

    fn setup(&self, o: &Opts) -> Self::Prep {
        let (n, pilot, block, cap) = size(o);
        let corners: Vec<(String, McConfig)> = paper::table2()
            .iter()
            .take(n)
            .map(|s| {
                let mut cfg = table2_config(s, pilot, o.seed, o);
                cfg.tail = Some(TailConfig {
                    block_samples: block,
                    max_samples: cap,
                    ..TailConfig::default()
                });
                (crate::table2_name(s), cfg)
            })
            .collect();
        corners
    }

    fn run(&self, _: &Opts, corners: Self::Prep, t: &Tracer) -> Out {
        let before = issa_circuit::perf::snapshot().transients;
        let results = corners
            .iter()
            .map(|(_, cfg)| {
                t.span("core.tail", || {
                    run_tail_mc(cfg, &McControl::default()).map_err(|e| e.to_string())
                })
            })
            .collect();
        Out {
            corners,
            results,
            transients: issa_circuit::perf::snapshot().transients - before,
        }
    }

    fn check(&self, o: &Opts, out: Out, t: &Tracer, res: &mut Outcome) {
        let (_, pilot, _, cap) = size(o);
        let mut min_ess = f64::INFINITY;
        for (k, ((name, cfg), r)) in out.corners.iter().zip(&out.results).enumerate() {
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    res.errors.push(format!("{name}: run_tail_mc failed: {e}"));
                    continue;
                }
            };
            let Some(summary) = r.tail else {
                res.errors.push(format!("{name}: no tail summary"));
                continue;
            };
            res.attempted += summary.samples_used as u64 + r.failures.len() as u64;
            res.failed += r.failures.len() as u64;
            res.require(!r.partial && r.failures.is_empty(), || {
                format!("{name}: partial or quarantined samples")
            });
            res.require(
                summary.pilot == pilot
                    && summary.samples_used <= cap
                    && r.offsets.len() == summary.samples_used,
                || format!("{name}: inconsistent tail summary {summary:?}"),
            );
            res.digest.result(r);
            res.notes.push(format!(
                "{name}: {} samples in {} rounds, converged {}, rel CI half-width {:.4}, \
                 tail ESS {:.1}",
                summary.samples_used,
                summary.rounds,
                summary.converged,
                summary.rel_ci_half,
                summary.tail_ess
            ));
            add_mc_layers(r, &mut res.layers);
            res.layers.add("tail.rounds", f64::from(summary.rounds));
            res.layers
                .add("tail.samples_used", summary.samples_used as f64);
            res.layers.add(
                "tail.converged_corners",
                f64::from(u8::from(summary.converged)),
            );
            min_ess = min_ess.min(summary.tail_ess);

            // The proposal refitted from the pilot offsets must be the one
            // the run used.
            let pilot_offsets: Vec<(usize, f64)> =
                r.offsets.iter().copied().enumerate().take(pilot).collect();
            let (proposal, fit_s) = secs(|| resolve_proposal(cfg, &pilot_offsets));
            res.require(
                proposal.magnitude().to_bits() == summary.shift.to_bits(),
                || format!("{name}: refitted proposal differs from the run's"),
            );
            res.layers.add("tail.proposal_fit_ms", fit_s * 1e3);

            // One pilot and one proposal-drawn sample, recomputed alone.
            let k = k as u64;
            spot_check(name, cfg, r, &spot_indices(o.seed, k, pilot, 1), res);
            if summary.samples_used > pilot {
                let resolved = with_resolved(cfg, &proposal.shift, &proposal.neg);
                let drawn: Vec<usize> = spot_indices(o.seed, k, summary.samples_used - pilot, 1)
                    .into_iter()
                    .map(|i| i + pilot)
                    .collect();
                spot_check(name, &resolved, r, &drawn, res);
            }
            if t.enabled() {
                let resolved = with_resolved(cfg, &proposal.shift, &proposal.neg);
                time_build_samples(&resolved, summary.samples_used, &mut res.layers);
            }
        }
        if min_ess.is_finite() {
            res.layers.set("tail.min_tail_ess", min_ess);
        }
        res.layers.set("tail.transients", out.transients as f64);
    }
}
