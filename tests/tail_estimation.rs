//! Importance-sampled tail-estimation mode, end to end: the adaptive
//! driver must be bit-deterministic across thread counts, batch lanes,
//! checkpoint interruptions, and distributed worker counts, the pilot
//! prefix must match the classic engine exactly, and every importance
//! weight must respect the defensive-mixture bound.

use issa::core::campaign::{run_campaign, CampaignCorner, CampaignOptions};
use issa::core::checkpoint::Checkpoint;
use issa::core::montecarlo::{run_mc, McConfig};
use issa::core::tail::{resolve_proposal, run_tail_mc, tail_log_weight, with_resolved, TailConfig};
use issa::dist::coordinator::{serve_campaign, DistReport, ServeOptions};
use issa::dist::scheduler::SchedulerConfig;
use issa::dist::worker::WorkerOptions;
use issa::prelude::*;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Pilot size. Must be at least `devices + 2` (12 Pelgrom-matched
/// devices in the NSSA netlist) or the proposal fit degenerates to the
/// classic engine and the run exercises nothing tail-specific.
const PILOT: usize = 16;

/// One adaptive block past the pilot keeps debug-mode runtime bounded
/// while still producing weighted (shifted) samples to compare.
fn tail_cfg() -> TailConfig {
    TailConfig {
        ci_rel_target: 0.9,
        block_samples: 8,
        max_samples: PILOT + 8,
        min_tail_ess: 0.0,
        ..TailConfig::default()
    }
}

fn base_cfg() -> McConfig {
    McConfig {
        tail: Some(tail_cfg()),
        ..McConfig::smoke(
            SaKind::Nssa,
            Workload::new(0.8, ReadSequence::AllZeros),
            Environment::nominal(),
            1e8,
            PILOT,
        )
    }
}

fn temp_ckpt(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("issa-tail-{}-{tag}-{n}.ckpt", std::process::id()))
}

/// A config whose rounds never converge, so the driver runs three
/// rounds and stops at the cap.
fn three_round_cfg() -> McConfig {
    McConfig {
        tail: Some(TailConfig {
            ci_rel_target: 1e-9,
            max_samples: PILOT + 24,
            ..tail_cfg()
        }),
        ..base_cfg()
    }
}

/// A config that arrives with its proposal already resolved: the driver
/// runs it as one classic assembly, its units carrying the shift bits.
fn pre_resolved_cfg() -> McConfig {
    let cfg = base_cfg();
    let devices = SaInstance::fresh(cfg.kind, cfg.env).devices().len();
    let shift = vec![3.0 / (devices as f64).sqrt(); devices];
    let neg: Vec<f64> = shift.iter().map(|s| -s).collect();
    with_resolved(&cfg, &shift, &neg)
}

fn serve(corners: &[CampaignCorner], workers: usize) -> DistReport {
    serve_with(corners, workers, None, None)
}

fn serve_with(
    corners: &[CampaignCorner],
    workers: usize,
    checkpoint: Option<PathBuf>,
    abort_after_units: Option<u64>,
) -> DistReport {
    let loopback = (0..workers)
        .map(|i| WorkerOptions {
            name: format!("w{i}"),
            reconnect_backoff: Duration::from_millis(25),
            ..WorkerOptions::default()
        })
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    serve_campaign(
        listener,
        corners,
        &ServeOptions {
            scheduler: SchedulerConfig {
                unit_samples: 2,
                lease_timeout: Duration::from_secs(20),
                retry_backoff: Duration::from_millis(30),
                ..SchedulerConfig::default()
            },
            poll: Duration::from_millis(10),
            loopback,
            checkpoint,
            flush_every: 1,
            abort_after_units,
            ..ServeOptions::default()
        },
    )
    .expect("serve starts")
}

/// The adaptive driver runs a useful tail pass on the smoke corner and
/// reports a self-consistent summary: a resolved (non-degenerate)
/// proposal, more samples than the pilot, effective sample sizes within
/// their bounds, and a CI that brackets the estimate.
#[test]
fn tail_run_produces_a_sane_weighted_summary() {
    let result = run_tail_mc(&base_cfg(), &Default::default()).unwrap();
    let tail = result.tail.expect("tail mode must attach a summary");

    assert!(tail.shift > 0.0, "pilot fit degenerated: {tail:?}");
    assert_eq!(tail.pilot, PILOT);
    assert!(tail.samples_used > PILOT, "no tail blocks ran: {tail:?}");
    assert_eq!(result.offsets.len(), tail.samples_used);
    assert!(tail.rounds >= 1);
    assert!(
        tail.ess > 0.0 && tail.ess <= tail.samples_used as f64 + 1e-9,
        "ESS out of range: {tail:?}"
    );
    assert!(tail.tail_ess <= tail.ess + 1e-9, "tail ESS exceeds ESS");
    assert!(tail.spec_lo <= result.spec, "CI must bracket from below");
    assert!(
        tail.spec_hi >= result.spec,
        "CI must bracket from above (INFINITY allowed)"
    );
}

/// Samples below the pilot bound are drawn from the nominal
/// distribution with weight 1, so the pilot prefix of a tail run is
/// bit-identical to a classic (no-tail) run of the same config.
#[test]
fn pilot_prefix_is_bit_identical_to_the_classic_engine() {
    let tail = run_tail_mc(&base_cfg(), &Default::default()).unwrap();
    let classic = run_mc(&McConfig {
        tail: None,
        ..base_cfg()
    })
    .unwrap();

    assert_eq!(classic.offsets.len(), PILOT);
    for (i, (t, c)) in tail.offsets[..PILOT]
        .iter()
        .zip(&classic.offsets)
        .enumerate()
    {
        assert_eq!(
            t.to_bits(),
            c.to_bits(),
            "pilot sample {i} diverged from the classic engine"
        );
    }
    // Post-pilot samples really are shifted: at least one must differ
    // from what the classic engine would produce at the same index.
    let extended = run_mc(&McConfig {
        tail: None,
        samples: tail.offsets.len(),
        ..base_cfg()
    })
    .unwrap();
    assert!(
        tail.offsets[PILOT..]
            .iter()
            .zip(&extended.offsets[PILOT..])
            .any(|(t, c)| t.to_bits() != c.to_bits()),
        "no post-pilot sample was shifted — proposal never engaged"
    );
}

/// Every sample is a pure function of `(cfg, index)` and the stopping
/// rule is evaluated only at deterministic block boundaries, so the
/// full result — offsets, weights, summary, spec — is invariant to the
/// thread count and the batch lane width.
#[test]
fn tail_results_are_invariant_to_threads_and_lanes() {
    let reference = run_tail_mc(&base_cfg(), &Default::default()).unwrap();
    assert!(reference.tail.is_some());
    for (threads, lanes) in [(2, 1), (8, 1), (1, 8), (2, 8)] {
        let got = run_tail_mc(
            &McConfig {
                threads,
                batch_lanes: lanes,
                ..base_cfg()
            },
            &Default::default(),
        )
        .unwrap();
        assert_eq!(
            got, reference,
            "tail run diverged at threads={threads} lanes={lanes}"
        );
    }
}

/// A campaign aborted mid-corner and resumed from its checkpoint must
/// reproduce the uninterrupted tail result bit-for-bit. This exercises
/// the stored-weight path: resumed samples carry their checkpointed
/// log-weights while fresh ones are recomputed from the config.
#[test]
fn checkpointed_tail_campaign_resumes_bit_identically() {
    let reference = run_tail_mc(&base_cfg(), &Default::default()).unwrap();
    let corner = CampaignCorner {
        name: "tail".into(),
        cfg: base_cfg(),
    };
    let path = temp_ckpt("resume");

    let aborted = run_campaign(
        std::slice::from_ref(&corner),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            abort_after: Some(5),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(aborted.partial, "abort_after must interrupt the corner");
    assert!(path.exists(), "aborted campaign must leave its checkpoint");

    let resumed = run_campaign(
        std::slice::from_ref(&corner),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(!resumed.partial);
    assert!(resumed.resumed_records >= 2, "nothing restored");
    assert!(!path.exists(), "completed campaign must remove checkpoint");
    assert_eq!(
        resumed.result("tail").expect("corner completes"),
        &reference,
        "resumed tail corner diverged from the uninterrupted run"
    );
}

/// Distributed tail estimation: the coordinator serves the same driver
/// steps `run_tail_mc` runs (pilot, proposal fit from the merged pilot
/// records, block-by-block rounds), so any loopback worker count must
/// merge to exactly the local result — for a one-round config, a
/// three-round config, and a pre-resolved config.
#[test]
fn loopback_worker_count_does_not_change_tail_results() {
    for (label, cfg, rounds) in [
        ("one round", base_cfg(), 1),
        ("three rounds", three_round_cfg(), 3),
        ("pre-resolved", pre_resolved_cfg(), 0),
    ] {
        let reference = run_tail_mc(&cfg, &Default::default()).unwrap();
        assert_eq!(
            reference.tail.expect("tail summary").rounds,
            rounds,
            "{label}"
        );
        let corners = [CampaignCorner {
            name: "tail".into(),
            cfg,
        }];
        for workers in [1, 3] {
            let report = serve(&corners, workers);
            assert!(!report.campaign.partial, "{label}");
            assert_eq!(
                report.campaign.result("tail").expect("corner completes"),
                &reference,
                "{label}: {workers}-worker distributed tail run diverged from local"
            );
        }
    }
}

/// A distributed tail corner cut short by the abort hook — once inside
/// the pilot, once inside an adaptive round — keeps its merged records
/// in the checkpoint, and a re-serve from that checkpoint must equal the
/// uninterrupted local result.
#[test]
fn aborted_tail_serve_resumes_bit_identically() {
    let reference = run_tail_mc(&base_cfg(), &Default::default()).unwrap();
    let corners = [CampaignCorner {
        name: "tail".into(),
        cfg: base_cfg(),
    }];
    // Two-sample units: the pilot is units 1..=8, round 1 units 9..=12.
    for (label, abort_after, in_round) in [("pilot", 3, false), ("round", 9, true)] {
        let path = temp_ckpt(label);
        let aborted = serve_with(&corners, 2, Some(path.clone()), Some(abort_after));
        assert!(
            aborted.campaign.partial,
            "{label}: abort must cut the corner"
        );
        let kept = Checkpoint::load(&path).expect("aborted serve keeps its checkpoint");
        let offsets = kept
            .corner("tail")
            .expect("corner records")
            .resume
            .offsets
            .len();
        assert_eq!(offsets > PILOT, in_round, "{label}: {offsets} offsets kept");

        let resumed = serve_with(&corners, 2, Some(path.clone()), None);
        assert!(!resumed.campaign.partial, "{label}");
        assert!(
            resumed.campaign.resumed_records > 0,
            "{label}: nothing restored"
        );
        assert!(
            !path.exists(),
            "{label}: completed serve must remove checkpoint"
        );
        assert_eq!(
            resumed.campaign.result("tail").expect("corner completes"),
            &reference,
            "{label}: resumed distributed tail corner diverged from local"
        );
    }
}

/// The defensive mixture keeps a `mix_nominal` share of nominal draws,
/// which bounds every importance weight by `1/mix_nominal` — here
/// log-weight ≤ ln 2. Pilot indices must carry exactly weight 1.
#[test]
fn importance_weights_respect_the_defensive_mixture_bound() {
    let cfg = base_cfg();
    let pilot = run_mc(&McConfig {
        tail: None,
        ..cfg.clone()
    })
    .unwrap();
    let pairs: Vec<(usize, f64)> = pilot.offsets.iter().copied().enumerate().collect();
    let proposal = resolve_proposal(&cfg, &pairs);
    let resolved = with_resolved(&cfg, &proposal.shift, &proposal.neg);

    let bound = (1.0 / resolved.tail.as_ref().unwrap().mix_nominal).ln();
    for index in 0..PILOT + 16 {
        let lw = tail_log_weight(&resolved, index);
        if index < PILOT {
            assert_eq!(lw, 0.0, "pilot sample {index} must have weight 1");
        } else {
            assert!(
                lw <= bound + 1e-12,
                "sample {index} log-weight {lw} exceeds mixture bound {bound}"
            );
            assert!(lw.is_finite(), "sample {index} weight must be finite");
        }
    }
}
