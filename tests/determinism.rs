//! Reproducibility guarantees of the full pipeline: results must be
//! bit-identical across runs, thread counts, and sample-count extensions,
//! and must change when the seed does.

use issa::core::montecarlo::{run_mc, McConfig};
use issa::prelude::*;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The perf counters are process-global, and the tests of this binary run
/// in parallel. A test that reads counter deltas holds this lock
/// exclusively; every other test holds it shared, so no sibling's work
/// lands inside a counted region.
static COUNTERS: RwLock<()> = RwLock::new(());

fn counters_shared() -> RwLockReadGuard<'static, ()> {
    COUNTERS.read().unwrap_or_else(PoisonError::into_inner)
}

fn counters_exclusive() -> RwLockWriteGuard<'static, ()> {
    COUNTERS.write().unwrap_or_else(PoisonError::into_inner)
}

fn base_cfg(samples: usize) -> McConfig {
    McConfig::smoke(
        SaKind::Issa,
        Workload::new(0.8, ReadSequence::AllZeros),
        Environment::nominal(),
        1e8,
        samples,
    )
}

#[test]
fn thread_count_does_not_change_results() {
    let _counters = counters_shared();
    // Thread sharding changes which samples share a warm-started offset
    // search, so this also exercises the warm-start path-independence
    // invariant. `McResult` equality covers offsets, delays, and every
    // derived statistic bit-for-bit (perf counters are excluded).
    let one = run_mc(&McConfig {
        threads: 1,
        ..base_cfg(9)
    })
    .unwrap();
    let two = run_mc(&McConfig {
        threads: 2,
        ..base_cfg(9)
    })
    .unwrap();
    let eight = run_mc(&McConfig {
        threads: 8,
        ..base_cfg(9)
    })
    .unwrap();
    assert_eq!(one, two);
    assert_eq!(one, eight);
}

#[test]
fn fast_paths_do_not_change_results() {
    let _counters = counters_exclusive();
    // The warm-started offset search and early-exit transients must be
    // exact optimizations: reference mode (both disabled) and fast mode
    // (both enabled, the `smoke` default) produce bit-identical offsets,
    // delays, and statistics for both SA schemes.
    for kind in [SaKind::Nssa, SaKind::Issa] {
        let fast = McConfig {
            kind,
            ..base_cfg(6)
        };
        let reference = McConfig {
            probe: fast.probe.reference(),
            ..fast.clone()
        };
        let f = run_mc(&fast).unwrap();
        let r = run_mc(&reference).unwrap();
        assert_eq!(f, r, "fast vs reference diverged for {kind:?}");
        // Fast mode must actually skip work, not just match results.
        assert!(
            f.perf.circuit.timesteps < r.perf.circuit.timesteps,
            "early exit saved no timesteps for {kind:?}"
        );
        assert!(
            f.perf.probes <= r.perf.probes,
            "warm start cost extra probes for {kind:?}"
        );
    }
}

#[test]
fn unexercised_recovery_ladder_is_bit_identical() {
    let _counters = counters_exclusive();
    // The solver recovery ladder engages only after a Newton failure, so
    // on a healthy corner the full ladder, the pre-ladder engine
    // (timestep halving only), and no recovery at all must produce
    // bit-identical results — at every thread count, with zero recovery
    // work counted and nothing quarantined.
    use issa::circuit::recovery::RecoveryPolicy;
    for threads in [1usize, 2, 8] {
        let run = |recovery| {
            let mut cfg = base_cfg(8);
            cfg.threads = threads;
            cfg.probe.recovery = recovery;
            run_mc(&cfg).unwrap()
        };
        let ladder = run(RecoveryPolicy::default());
        let pre_ladder = run(RecoveryPolicy::halving_only());
        let off = run(RecoveryPolicy::off());
        assert_eq!(
            ladder, pre_ladder,
            "ladder vs pre-ladder diverged at {threads} threads"
        );
        assert_eq!(
            ladder, off,
            "ladder vs no-recovery diverged at {threads} threads"
        );
        assert!(ladder.failures.is_empty());
        assert_eq!(
            ladder.perf.circuit.recovery_attempts(),
            0,
            "healthy run must do zero recovery work"
        );
    }
}

#[test]
fn batched_lanes_do_not_change_results() {
    let _counters = counters_shared();
    // The lockstep batch engine is a scheduling change only: for every
    // supported lane width × thread count, offsets, delays, and every
    // derived statistic must be bit-identical to the scalar run. Lane
    // width 1 exercises the `batch_lanes <= 1 → scalar` selection.
    let scalar = run_mc(&McConfig {
        threads: 1,
        ..base_cfg(9)
    })
    .unwrap();
    for lanes in [1usize, 4, 8] {
        for threads in [1usize, 2, 8] {
            let batched = run_mc(&McConfig {
                batch_lanes: lanes,
                threads,
                ..base_cfg(9)
            })
            .unwrap();
            assert_eq!(scalar, batched, "lanes={lanes} threads={threads} diverged");
        }
    }
}

#[test]
fn batched_fault_injection_falls_back_to_scalar_identically() {
    let _counters = counters_exclusive();
    // Fault-targeted samples never enter a lockstep lane (the fault
    // scope is thread-local — arming it would inject into every lane on
    // the thread); they are pre-routed to the scalar path, whose
    // quarantine records must match the all-scalar run bit-for-bit. The
    // peel-off must also be visible in the scalar-fallback counter.
    use issa::circuit::faultinject::{FaultKind, FaultPlan};
    use std::sync::Arc;
    let cfg = |lanes: usize| {
        let mut c = base_cfg(8);
        c.fault_plan = Some(Arc::new(
            FaultPlan::new()
                .persistent(1, 0, FaultKind::NonConvergence)
                .transient(5, 3, FaultKind::NonConvergence),
        ));
        c.max_failure_frac = 0.5;
        c.batch_lanes = lanes;
        c
    };
    let scalar = run_mc(&cfg(0)).unwrap();
    let before = issa::circuit::perf::snapshot();
    let batched = run_mc(&cfg(4)).unwrap();
    let fallbacks = issa::circuit::perf::snapshot()
        .delta_since(&before)
        .scalar_fallbacks;
    assert_eq!(scalar, batched, "fault-injected batched run diverged");
    assert!(
        !scalar.failures.is_empty(),
        "the persistent fault must quarantine its sample"
    );
    assert!(
        fallbacks >= 1,
        "fault-targeted samples must peel off to the scalar path (saw {fallbacks})"
    );
}

#[test]
fn batched_predictive_search_matches_reference() {
    // Corners long enough for each shard's carrier to pass the flip
    // model's warm-up (feature count + 8 completed samples), so most
    // searches start from a predicted window. Every thread × lane
    // schedule must reproduce the cold reference search bit for bit.
    let _counters = counters_shared();
    for kind in [SaKind::Nssa, SaKind::Issa] {
        let cfg = McConfig {
            kind,
            ..base_cfg(64)
        };
        let reference = run_mc(&McConfig {
            probe: cfg.probe.reference(),
            threads: 2,
            ..cfg.clone()
        })
        .unwrap();
        for threads in [1usize, 2] {
            for lanes in [0usize, 8] {
                let fast = run_mc(&McConfig {
                    threads,
                    batch_lanes: lanes,
                    ..cfg.clone()
                })
                .unwrap();
                assert_eq!(
                    fast, reference,
                    "{kind:?} threads={threads} lanes={lanes} diverged from reference"
                );
            }
        }
    }
}

#[test]
fn predictive_search_halves_the_probes() {
    // One shard of 128 samples: the carrier's flip model predicts most
    // searches, which must cost at most 0.6× the cold reference's probes,
    // give identical offsets, and repeat their probe count exactly.
    let _counters = counters_exclusive();
    let cfg = McConfig {
        threads: 1,
        ..base_cfg(128)
    };
    // A cold search costs the same probes on any shard, so the reference
    // may use both threads.
    let reference = run_mc(&McConfig {
        probe: cfg.probe.reference(),
        threads: 2,
        ..cfg.clone()
    })
    .unwrap();
    let fast = run_mc(&cfg).unwrap();
    let again = run_mc(&cfg).unwrap();
    assert_eq!(fast.offsets, reference.offsets);
    assert_eq!(fast, again);
    assert_eq!(
        fast.perf.probes, again.perf.probes,
        "probe count not repeatable"
    );
    let ratio = fast.perf.probes as f64 / reference.perf.probes as f64;
    assert!(
        ratio <= 0.6,
        "predictive search used {} probes, reference {} ({ratio:.3}×)",
        fast.perf.probes,
        reference.perf.probes
    );
}

#[test]
fn seed_changes_results() {
    let _counters = counters_shared();
    let a = run_mc(&base_cfg(6)).unwrap();
    let b = run_mc(&McConfig {
        seed: 12345,
        ..base_cfg(6)
    })
    .unwrap();
    assert_ne!(a.offsets, b.offsets, "different seeds must differ");
}

#[test]
fn environment_is_part_of_the_corner_not_the_seed() {
    let _counters = counters_shared();
    // Same seed, different temperature: mismatch draws are reused but the
    // aging differs — offsets must differ, yet remain reproducible.
    let nom = run_mc(&base_cfg(5)).unwrap();
    let hot_cfg = McConfig {
        env: Environment::nominal().with_temp_c(125.0),
        ..base_cfg(5)
    };
    let hot1 = run_mc(&hot_cfg).unwrap();
    let hot2 = run_mc(&hot_cfg).unwrap();
    assert_ne!(nom.offsets, hot1.offsets);
    assert_eq!(hot1.offsets, hot2.offsets);
}

#[test]
fn workload_trace_and_control_are_deterministic() {
    use issa::core::stress_trace::empirical_duties;
    let sa = SaInstance::fresh(SaKind::Issa, Environment::nominal());
    let w = Workload::new(
        0.8,
        ReadSequence::Random {
            p_zero: 0.8,
            seed: 3,
        },
    );
    let a = empirical_duties(&sa, w, 8, 1024);
    let b = empirical_duties(&sa, w, 8, 1024);
    assert_eq!(a, b);
}
