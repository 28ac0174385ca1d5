//! Campaign durability end-to-end: an interrupted campaign resumed from
//! its checkpoint reproduces the uninterrupted result bit for bit at any
//! thread count, partial results are honestly marked, and a stalling
//! sample is quarantined by the watchdog instead of hanging the pool.

use issa::circuit::cancel::CancelCause;
use issa::circuit::faultinject::{FaultKind, FaultPlan};
use issa::core::campaign::{run_campaign, CampaignCorner, CampaignOptions, CornerOutcome};
use issa::core::montecarlo::{run_mc, FailureKind, McConfig, McPhase};
use issa::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SAMPLES: usize = 8;

fn base_cfg(threads: usize) -> McConfig {
    McConfig {
        threads,
        ..McConfig::smoke(
            SaKind::Nssa,
            Workload::new(0.8, ReadSequence::AllZeros),
            Environment::nominal(),
            1e8,
            SAMPLES,
        )
    }
}

fn temp_ckpt(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("issa-resume-{}-{tag}-{n}.ckpt", std::process::id()))
}

/// The acceptance contract: kill a campaign mid-offset-phase, resume it,
/// and get a result bit-identical to an uninterrupted run — at 1, 2, and
/// 8 worker threads (including resuming at a *different* thread count
/// than the one that wrote the checkpoint).
#[test]
fn interrupted_campaign_resumes_bit_identically_across_thread_counts() {
    let reference = run_mc(&base_cfg(1)).unwrap();
    assert!(!reference.partial);

    for (write_threads, resume_threads) in [(1, 1), (2, 8), (8, 2)] {
        let path = temp_ckpt(&format!("t{write_threads}to{resume_threads}"));
        let corner = |threads| CampaignCorner {
            name: "corner".into(),
            cfg: base_cfg(threads),
        };

        // "Kill" after 2 fresh samples; flush every sample so the
        // checkpoint is as fine-grained as a real mid-write kill.
        let aborted = run_campaign(
            &[corner(write_threads)],
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                flush_every: 1,
                abort_after: Some(2),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(aborted.partial);
        assert_eq!(aborted.cancelled, Some(CancelCause::Interrupt));
        assert!(path.exists());

        // An aborted corner that still produced statistics must say so.
        // (At high thread counts every in-flight offset may land before the
        // cancel propagates; partiality then comes from the delay phase.)
        if let Some(r) = aborted.result("corner") {
            assert!(r.partial, "interrupted result must carry partial=true");
            assert!(r.offsets.len() + r.delays.len() < 2 * SAMPLES);
        }

        let resumed = run_campaign(
            &[corner(resume_threads)],
            &CampaignOptions {
                checkpoint: Some(path.clone()),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert!(!resumed.partial);
        assert!(resumed.resumed_records >= 2);
        assert!(
            !path.exists(),
            "completed campaign must remove its checkpoint"
        );
        let result = resumed.result("corner").expect("corner must complete");
        assert_eq!(
            result, &reference,
            "resume ({write_threads} -> {resume_threads} threads) diverged"
        );
    }
}

/// Corners of one circuit share the campaign's offset-search carriers,
/// so the second corner of an uninterrupted run starts with the first
/// one's fit, while a resumed run starts with an empty pool. A kill in
/// the second corner, resumed at another thread count, still reproduces
/// the uninterrupted results bit for bit: carriers steer probe order,
/// never results.
#[test]
fn resume_with_an_empty_search_pool_is_bit_identical() {
    const FIRST: usize = 24;
    let corners = |threads| {
        [(1e8, FIRST), (3e8, SAMPLES)].map(|(time, samples)| CampaignCorner {
            name: format!("nssa t={time:e}"),
            cfg: McConfig {
                time,
                samples,
                ..base_cfg(threads)
            },
        })
    };
    let uninterrupted = run_campaign(&corners(1), &CampaignOptions::default()).unwrap();
    assert!(!uninterrupted.partial);

    let path = temp_ckpt("pool");
    // The first corner's offsets and delays, then 3 of the second's.
    let first_records = FIRST + FIRST.min(6);
    let aborted = run_campaign(
        &corners(1),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            abort_after: Some(first_records + 3),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(aborted.partial);
    assert!(aborted.result("nssa t=3e8").is_none_or(|r| r.partial));

    let resumed = run_campaign(
        &corners(2),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(!resumed.partial);
    assert!(resumed.resumed_records >= first_records + 3);
    for corner in corners(1) {
        assert_eq!(
            resumed
                .result(&corner.name)
                .expect("resumed corner completes"),
            uninterrupted
                .result(&corner.name)
                .expect("corner completes"),
            "{} diverged after resume",
            corner.name
        );
    }
}

/// A kill landing in the *delay* phase (offsets complete, delays partial)
/// resumes just as cleanly.
#[test]
fn delay_phase_interruption_resumes_bit_identically() {
    let reference = run_mc(&base_cfg(2)).unwrap();
    let path = temp_ckpt("delayphase");
    let corner = CampaignCorner {
        name: "corner".into(),
        cfg: base_cfg(2),
    };
    // All 8 offsets plus 1 delay measurement before the abort.
    let aborted = run_campaign(
        std::slice::from_ref(&corner),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            abort_after: Some(SAMPLES + 1),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(aborted.partial);
    let resumed = run_campaign(
        std::slice::from_ref(&corner),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(resumed.resumed_records >= SAMPLES);
    assert_eq!(resumed.result("corner").expect("completes"), &reference);
}

/// Quarantined failures survive the checkpoint round-trip: a resume does
/// not re-attempt a sample the first run already proved dead, and the
/// merged failure list matches the uninterrupted run's.
#[test]
fn quarantined_failures_are_restored_not_retried() {
    let plan = Arc::new(FaultPlan::new().persistent(1, 3, FaultKind::NonConvergence));
    let cfg = McConfig {
        fault_plan: Some(plan),
        max_failure_frac: 0.2,
        ..base_cfg(2)
    };
    let reference = run_mc(&cfg).unwrap();
    assert_eq!(reference.failures.len(), 1, "sample 1 must be quarantined");

    let path = temp_ckpt("failures");
    let corner = CampaignCorner {
        name: "corner".into(),
        cfg,
    };
    run_campaign(
        std::slice::from_ref(&corner),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            abort_after: Some(3),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    let resumed = run_campaign(
        std::slice::from_ref(&corner),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.result("corner").expect("completes"), &reference);
}

/// The watchdog acceptance contract: a `StallSteps`-injected sample trips
/// its per-sample step budget, is quarantined as `TimedOut`, and the rest
/// of the pool finishes normally — same survivor values as a clean run.
#[test]
fn stalled_sample_is_quarantined_as_timed_out_without_stalling_the_pool() {
    let clean = run_mc(&base_cfg(2)).unwrap();

    // Sample 5's first offset transient charges 2M phantom base solves;
    // the 1M budget then cancels it at the next watchdog poll. Real
    // samples consume orders of magnitude fewer solves and never trip.
    let plan = Arc::new(FaultPlan::new().transient(5, 2, FaultKind::StallSteps(2_000_000)));
    let cfg = McConfig {
        fault_plan: Some(plan),
        sample_step_budget: Some(1_000_000),
        max_failure_frac: 0.2,
        ..base_cfg(2)
    };
    let r = run_mc(&cfg).unwrap();

    assert_eq!(r.failures.len(), 1);
    let f = &r.failures[0];
    assert_eq!(f.index, 5);
    assert_eq!(f.kind, FailureKind::TimedOut);
    assert_eq!(f.phase, McPhase::Offset);
    assert!(
        f.error.contains("step budget"),
        "error should name the budget: {}",
        f.error
    );
    assert!(!r.partial, "a quarantined timeout is not a partial run");
    assert!(
        r.perf.circuit.cancellations >= 1,
        "the cancellation must be counted in the perf layer"
    );

    // Survivors are bit-identical to the clean run (sample 5 removed).
    let expected: Vec<f64> = clean
        .offsets
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 5)
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(r.offsets, expected);
}

/// A campaign deadline degrades gracefully: completed corners keep their
/// full statistics, the cut-off corner reports partial with
/// sample-count-aware confidence intervals, and nothing is lost.
#[test]
fn deadline_produces_partial_results_with_honest_intervals() {
    let corner = CampaignCorner {
        name: "only".into(),
        cfg: base_cfg(2),
    };
    // Emulated interrupt after 3 samples stands in for a deadline here
    // (same cancellation path, but deterministic in CI).
    let report = run_campaign(
        std::slice::from_ref(&corner),
        &CampaignOptions {
            abort_after: Some(3),
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(report.partial);
    match &report.corners[0].outcome {
        CornerOutcome::Completed(r) => {
            assert!(r.partial);
            assert!(r.offsets.len() >= 3 && r.offsets.len() < SAMPLES);
            assert_eq!(r.requested, SAMPLES);
            assert!(
                r.mu_ci95.is_finite() && r.mu_ci95 > 0.0,
                "partial stats must carry a finite CI half-width, got {}",
                r.mu_ci95
            );
        }
        CornerOutcome::Failed(e) => {
            // Extremely fast cancellation can beat every sample; that is
            // the explicit no-statistics error, not a bogus result.
            assert!(matches!(e, SaError::Cancelled { .. }), "got {e}");
        }
        CornerOutcome::Skipped => panic!("corner must at least be attempted"),
    }
}

/// The uninterrupted engine path is invisible: driving a corner through
/// the campaign engine (checkpointing on) gives the exact `run_mc` result,
/// and `partial` stays false even with flush-every-sample checkpointing.
#[test]
fn uninterrupted_campaign_is_bit_identical_to_run_mc() {
    let path = temp_ckpt("clean");
    let corner = CampaignCorner {
        name: "corner".into(),
        cfg: base_cfg(2),
    };
    let direct = run_mc(&base_cfg(2)).unwrap();
    let report = run_campaign(
        std::slice::from_ref(&corner),
        &CampaignOptions {
            checkpoint: Some(path.clone()),
            flush_every: 1,
            ..CampaignOptions::default()
        },
    )
    .unwrap();
    assert!(!report.partial);
    assert_eq!(report.cancelled, None);
    assert_eq!(report.result("corner").expect("completes"), &direct);
    assert!(!path.exists());
}
