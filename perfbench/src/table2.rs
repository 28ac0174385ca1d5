//! `table2`: the paper's Table II (10 corners × 400 samples) through
//! `run_campaign` with a checkpoint, at the workload's lane width.

use crate::measure::secs;
use crate::{
    add_mc_layers, check_complete, spot_check, spot_indices, table2_config, table2_name,
    time_build_samples, Opts, Outcome, Workload, DEFAULT_SEED,
};
use issa_bench::{csv_row, paper, CornerSpec};
use issa_core::campaign::{run_campaign, CampaignCorner, CampaignOptions, CampaignReport};
use issa_core::checkpoint::{Checkpoint, SavePolicy};
use issa_core::montecarlo::McResult;
use std::path::PathBuf;

/// The checked-in campaign output the paper seed must reproduce.
pub const REFERENCE_CSV: &str = "results/table2.csv";
const FLUSH_EVERY: usize = 16;

pub struct Table2;

pub struct Prep {
    specs: Vec<CornerSpec>,
    corners: Vec<CampaignCorner>,
    ckpt: PathBuf,
}

pub struct Out {
    prep: Prep,
    report: Result<CampaignReport, String>,
}

/// (corners, samples per corner).
fn size(o: &Opts) -> (usize, usize) {
    if o.reduced {
        (3, 16)
    } else {
        (10, 400)
    }
}

impl Workload for Table2 {
    type Prep = Prep;
    type Out = Out;

    fn default_lanes(&self) -> usize {
        8
    }

    fn setup(&self, o: &Opts) -> Prep {
        let (n, samples) = size(o);
        let specs: Vec<CornerSpec> = paper::table2().into_iter().take(n).collect();
        let corners: Vec<CampaignCorner> = specs
            .iter()
            .map(|s| CampaignCorner {
                name: table2_name(s),
                cfg: table2_config(s, samples, o.seed, o),
            })
            .collect();
        let _ = std::fs::create_dir_all(&o.dir);
        let ckpt = o.dir.join("table2.ckpt");
        let _ = std::fs::remove_file(&ckpt);
        Prep {
            specs,
            corners,
            ckpt,
        }
    }

    fn run(&self, _: &Opts, prep: Prep, t: &crate::tracer::Tracer) -> Out {
        let opts = CampaignOptions {
            checkpoint: Some(prep.ckpt.clone()),
            flush_every: FLUSH_EVERY,
            keep_checkpoint: true,
            ..CampaignOptions::default()
        };
        let report = t.span("core.campaign", || {
            run_campaign(&prep.corners, &opts).map_err(|e| e.to_string())
        });
        Out { prep, report }
    }

    fn check(&self, o: &Opts, out: Out, t: &crate::tracer::Tracer, res: &mut Outcome) {
        let (n, samples) = size(o);
        let report = match &out.report {
            Ok(r) => r,
            Err(e) => {
                res.errors.push(format!("run_campaign failed: {e}"));
                return;
            }
        };
        res.require(!report.partial, || "campaign ended partial".into());
        let mut results: Vec<&McResult> = Vec::new();
        for (k, c) in out.prep.corners.iter().enumerate() {
            let Some(r) = report.result(&c.name) else {
                res.errors.push(format!("{}: no result", c.name));
                continue;
            };
            check_complete(&c.name, r, samples, res);
            res.digest.result(r);
            add_mc_layers(r, &mut res.layers);
            let k = k as u64;
            let spots = spot_indices(o.seed, k, samples, if o.reduced { 1 } else { 2 });
            spot_check(&c.name, &c.cfg, r, &spots, res);
            if t.enabled() {
                time_build_samples(&c.cfg, samples, &mut res.layers);
            }
            results.push(r);
        }
        check_checkpoint(&out.prep, report, t.enabled(), res);
        let fresh: usize = out
            .prep
            .corners
            .iter()
            .map(|c| c.cfg.samples + c.cfg.delay_samples)
            .sum();
        res.layers.set(
            "checkpoint.flushes_computed",
            (fresh / FLUSH_EVERY + out.prep.corners.len()) as f64,
        );
        if results.len() == n && o.seed == DEFAULT_SEED && !o.reduced {
            compare_reference(&out.prep.specs, &results, res);
        }
        let _ = std::fs::remove_file(&out.prep.ckpt);
    }
}

/// The final checkpoint image must load and hold exactly the offsets
/// the campaign reported. Traced runs also time a save and a load.
fn check_checkpoint(prep: &Prep, report: &CampaignReport, traced: bool, res: &mut Outcome) {
    let (loaded, load_s) = secs(|| Checkpoint::load(&prep.ckpt));
    let ckpt = match loaded {
        Ok(c) => c,
        Err(e) => {
            res.errors
                .push(format!("final checkpoint does not load: {e}"));
            return;
        }
    };
    for c in &prep.corners {
        let (Some(stored), Some(r)) = (ckpt.corner(&c.name), report.result(&c.name)) else {
            res.errors
                .push(format!("{}: missing from the checkpoint", c.name));
            continue;
        };
        let mut offsets = stored.resume.offsets.clone();
        offsets.sort_by_key(|p| p.0);
        let same = offsets.len() == r.offsets.len()
            && offsets
                .iter()
                .zip(&r.offsets)
                .enumerate()
                .all(|(i, (&(j, a), b))| i == j && a.to_bits() == b.to_bits());
        res.require(same, || {
            format!("{}: checkpointed offsets differ from the result", c.name)
        });
    }
    if traced {
        let bytes = std::fs::metadata(&prep.ckpt).map_or(0, |m| m.len());
        let copy = prep.ckpt.with_extension("resave.ckpt");
        let (saved, save_s) = secs(|| ckpt.save_with(&copy, &SavePolicy::standard()));
        res.require(saved.is_ok(), || {
            format!("checkpoint re-save failed: {saved:?}")
        });
        let _ = std::fs::remove_file(&copy);
        res.layers.set("checkpoint.bytes", bytes as f64);
        res.layers.set("checkpoint.load_ms", load_s * 1e3);
        res.layers.set("checkpoint.save_ms", save_s * 1e3);
    }
}

/// At the paper seed the rows must reproduce `results/table2.csv`: the
/// offset-derived columns exactly, `delay_ps` up to last-digit drift.
fn compare_reference(specs: &[CornerSpec], results: &[&McResult], res: &mut Outcome) {
    const DELAY_COL: usize = 11;
    let text = match std::fs::read_to_string(REFERENCE_CSV) {
        Ok(t) => t,
        Err(e) => {
            res.errors.push(format!("cannot read {REFERENCE_CSV}: {e}"));
            return;
        }
    };
    let reference: Vec<&str> = text.lines().skip(1).collect();
    res.require(reference.len() == results.len(), || {
        format!("{REFERENCE_CSV} has {} rows", reference.len())
    });
    let mut drifted = 0usize;
    let mut max_drift = 0.0f64;
    for ((spec, r), want) in specs.iter().zip(results).zip(&reference) {
        let got = csv_row(spec, "-", r);
        let g: Vec<&str> = got.split(',').collect();
        let w: Vec<&str> = want.split(',').collect();
        let exact = g.len() == w.len()
            && (0..g.len())
                .filter(|&i| i != DELAY_COL)
                .all(|i| g[i] == w[i]);
        res.require(exact, || {
            format!("table2 row differs from {REFERENCE_CSV}:\n  got  {got}\n  want {want}")
        });
        if let (Some(a), Some(b)) = (g.get(DELAY_COL), w.get(DELAY_COL)) {
            let (a, b): (f64, f64) = (a.parse().unwrap_or(f64::NAN), b.parse().unwrap_or(0.0));
            let drift = ((a - b) / b).abs();
            if a != b {
                drifted += 1;
                max_drift = max_drift.max(drift);
            }
            res.require(drift <= 1e-9, || {
                format!("table2 {} delay_ps {a} vs {REFERENCE_CSV} {b}", spec.label)
            });
        }
    }
    res.notes.push(format!(
        "{REFERENCE_CSV}: offset columns match on {} rows; delay_ps drifts on {drifted} row(s), \
         max relative drift {max_drift:.1e}",
        results.len()
    ));
}
