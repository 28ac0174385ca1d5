//! Criterion performance benches over the whole stack, plus reduced-size
//! versions of each paper experiment so `cargo bench --workspace` touches
//! every table/figure path (the full-size regenerations live in the
//! `src/bin/` binaries).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion};
use issa_bti::{BtiParams, StressCondition, TrapSet};
use issa_circuit::netlist::Netlist;
use issa_circuit::tran::{transient, Integrator, TranParams};
use issa_circuit::waveform::Waveform;
use issa_core::montecarlo::{build_sample, run_mc, run_mc_controlled, McConfig, McControl};
use issa_core::netlist::{SaInstance, SaKind};
use issa_core::probe::{OffsetSearch, ProbeOptions, SearchPool};
use issa_core::spec::offset_spec;
use issa_core::workload::{ReadSequence, Workload};
use issa_num::matrix::DMatrix;
use issa_num::rng::SeedSequence;
use issa_num::smatrix::{BatchMatrix, BatchPerm, BatchVec, SMatrix};
use issa_ptm45::Environment;
use std::hint::black_box;

fn smoke_cfg(kind: SaKind, seq: ReadSequence, time: f64, samples: usize) -> McConfig {
    McConfig::smoke(
        kind,
        Workload::new(0.8, seq),
        Environment::nominal(),
        time,
        samples,
    )
}

/// Core numerical kernel: LU factor+solve at MNA size.
fn bench_lu_solve(c: &mut Criterion) {
    let n = 16;
    let mut a = DMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(i, j)] = ((i * 31 + j * 17) % 13) as f64 - 6.0;
        }
        a[(i, i)] += 50.0;
    }
    let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
    c.bench_function("lu_solve_16x16", |bench| {
        bench.iter(|| black_box(&a).solve(black_box(&b)).unwrap())
    });
}

/// Problem size for the batched-LU comparison: the heap vs fixed-size vs
/// structure-of-arrays kernel the lockstep batch engine leans on.
const LU_N: usize = 12;
/// Systems factored+solved per bench iteration (divisible by every lane
/// width so each variant does identical total work).
const LU_SYSTEMS: usize = 16;

/// Deterministic well-conditioned per-sample systems, in the style of
/// `lu_solve_16x16` but varied per sample like Monte Carlo Jacobians.
fn lu_systems() -> (Vec<DMatrix>, Vec<[f64; LU_N]>) {
    let mut mats = Vec::new();
    let mut rhss = Vec::new();
    for sys in 0..LU_SYSTEMS {
        let mut a = DMatrix::zeros(LU_N, LU_N);
        for i in 0..LU_N {
            for j in 0..LU_N {
                a[(i, j)] = ((i * 31 + j * 17 + sys * 7) % 13) as f64 - 6.0;
            }
            a[(i, i)] += 50.0 + sys as f64;
        }
        let mut b = [0.0f64; LU_N];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i + sys) as f64;
        }
        mats.push(a);
        rhss.push(b);
    }
    (mats, rhss)
}

/// One `batched_lu` row: LU_SYSTEMS factor+solves, K lanes per batched
/// factorization.
fn bench_batch_lu_width<const K: usize>(
    group: &mut BenchmarkGroup<'_>,
    stacks: &[SMatrix<LU_N>],
    rhss: &[[f64; LU_N]],
) {
    group.bench_function(&format!("batch_12_k{K}"), |bench| {
        bench.iter(|| {
            for chunk in 0..LU_SYSTEMS / K {
                let mut batch = BatchMatrix::<LU_N, K>::zeros();
                let mut b = BatchVec::<LU_N, K>::new();
                for lane in 0..K {
                    batch.load_lane(lane, &stacks[chunk * K + lane]);
                    b.load_lane(lane, &rhss[chunk * K + lane]);
                }
                let mut perm = BatchPerm::<LU_N, K>::new();
                black_box(batch.factor_into(&mut perm));
                let mut x = BatchVec::<LU_N, K>::new();
                batch.solve_factored(&perm, &b, &mut x);
                black_box(&x);
            }
        })
    });
}

/// The tentpole kernel comparison: heap `DMatrix` (allocating, the
/// pre-optimization engine's path) vs const-generic `SMatrix` (scalar
/// fast path) vs structure-of-arrays `BatchMatrix` at lane widths 4, 8,
/// and 16 — all factoring and solving the same 16 systems at the MNA-ish
/// size N=12.
fn bench_batched_lu(c: &mut Criterion) {
    let (mats, rhss) = lu_systems();
    let stacks: Vec<SMatrix<LU_N>> = mats.iter().map(SMatrix::from_dmatrix).collect();
    let mut group = c.benchmark_group("batched_lu");
    group.bench_function("heap_12", |bench| {
        bench.iter(|| {
            for (a, b) in mats.iter().zip(&rhss) {
                let mut lu = a.clone();
                let mut perm = Vec::new();
                lu.factor_into(&mut perm).unwrap();
                let mut x = [0.0f64; LU_N];
                lu.solve_factored(&perm, b, &mut x);
                black_box(&x);
            }
        })
    });
    group.bench_function("smatrix_12", |bench| {
        bench.iter(|| {
            for (a, b) in stacks.iter().zip(&rhss) {
                let mut lu = *a;
                let mut perm = [0usize; LU_N];
                black_box(lu.factor_into(&mut perm).unwrap());
                let mut x = [0.0f64; LU_N];
                lu.solve_factored(&perm, b, &mut x);
                black_box(&x);
            }
        })
    });
    bench_batch_lu_width::<4>(&mut group, &stacks, &rhss);
    bench_batch_lu_width::<8>(&mut group, &stacks, &rhss);
    bench_batch_lu_width::<16>(&mut group, &stacks, &rhss);
    group.finish();
}

/// Transient engine throughput on an RC testbench.
fn bench_transient_rc(c: &mut Criterion) {
    let mut n = Netlist::new();
    let vin = n.node("in");
    let out = n.node("out");
    n.vsource(
        vin,
        Netlist::GROUND,
        Waveform::pulse(0.0, 1.0, 1e-9, 0.1e-9, 0.1e-9, 1e-9, 3e-9),
    );
    n.resistor(vin, out, 1e3);
    n.capacitor(out, Netlist::GROUND, 1e-12);
    for (name, integ) in [
        ("transient_rc_be", Integrator::BackwardEuler),
        ("transient_rc_trap", Integrator::Trapezoidal),
    ] {
        let params = TranParams::new(10e-9, 1e-11).record_all().integrator(integ);
        c.bench_function(name, |bench| {
            bench.iter(|| transient(black_box(&n), black_box(&params)).unwrap())
        });
    }
}

/// One SA regeneration transient (the inner loop of everything).
fn bench_sa_sense(c: &mut Criterion) {
    let sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
    let opts = ProbeOptions::fast();
    let mut group = c.benchmark_group("sense");
    group.sample_size(20);
    group.bench_function("sa_sense_50mv", |bench| {
        bench.iter(|| black_box(&sa).sense(black_box(50e-3), &opts).unwrap())
    });
    group.finish();
}

/// Full offset binary search for one instance.
fn bench_offset_search(c: &mut Criterion) {
    let sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
    let opts = ProbeOptions::fast();
    let mut group = c.benchmark_group("offset");
    group.sample_size(10);
    group.bench_function("offset_binary_search", |bench| {
        bench.iter(|| black_box(&sa).offset_voltage(&opts).unwrap())
    });
    group.finish();
}

/// Offset probing in the modes the hot-path work distinguishes: the
/// reference profile (fresh contexts, no warm start, full windows), the
/// fast profile cold (context reuse + early exit), the fast profile
/// warm-started across a batch of aged samples — the Monte Carlo inner
/// loop exactly as `run_mc` drives it — and the same batch on a carrier
/// a [`SearchPool`] kept from an earlier corner of the circuit, as a
/// campaign's later corners start.
fn bench_offset_probe(c: &mut Criterion) {
    let cfg = smoke_cfg(SaKind::Nssa, ReadSequence::AllZeros, 1e8, 4);
    let samples: Vec<SaInstance> = (0..4).map(|i| build_sample(&cfg, i)).collect();
    let fast = ProbeOptions::fast();
    let reference = ProbeOptions::fast().reference();
    let pool = SearchPool::default();
    let earlier = McConfig {
        threads: 1,
        batch_lanes: 0,
        delay_samples: 0,
        ..smoke_cfg(SaKind::Nssa, ReadSequence::Alternating, 3e8, 32)
    };
    let ctl = McControl {
        search: Some(&pool),
        ..McControl::default()
    };
    run_mc_controlled(&earlier, &ctl).unwrap();
    let pooled = pool.lease(&cfg, 0).clone();

    let mut group = c.benchmark_group("offset_probe");
    group.sample_size(10);
    group.bench_function("reference_mode", |bench| {
        bench.iter(|| {
            let mut search = OffsetSearch::default();
            for sa in &samples {
                black_box(sa.offset_voltage_with(&reference, &mut search).unwrap());
            }
        })
    });
    group.bench_function("fast_cold", |bench| {
        bench.iter(|| {
            for sa in &samples {
                black_box(sa.offset_voltage(&fast).unwrap());
            }
        })
    });
    group.bench_function("fast_warm_batch", |bench| {
        bench.iter(|| {
            let mut search = OffsetSearch::default();
            for sa in &samples {
                black_box(sa.offset_voltage_with(&fast, &mut search).unwrap());
            }
        })
    });
    group.bench_function("fast_pooled_batch", |bench| {
        bench.iter(|| {
            let mut search = pooled.clone();
            for sa in &samples {
                black_box(sa.offset_voltage_with(&fast, &mut search).unwrap());
            }
        })
    });
    group.finish();
}

/// A small but complete Monte Carlo corner (offset + delay phases) in
/// both probe modes — the end-to-end quantity the hot-path work targets.
fn bench_mc_small(c: &mut Criterion) {
    let fast = smoke_cfg(SaKind::Nssa, ReadSequence::AllZeros, 1e8, 4);
    let reference = McConfig {
        probe: fast.probe.reference(),
        ..fast.clone()
    };
    let mut group = c.benchmark_group("mc_small");
    group.sample_size(10);
    group.bench_function("fast_mode", |bench| {
        bench.iter(|| run_mc(black_box(&fast)).unwrap())
    });
    group.bench_function("reference_mode", |bench| {
        bench.iter(|| run_mc(black_box(&reference)).unwrap())
    });
    group.finish();
}

/// BTI trap-set sampling and evaluation.
fn bench_bti(c: &mut Criterion) {
    let params = BtiParams::default_45nm();
    let area = 17.8 * 45e-9 * 45e-9;
    let stress = StressCondition::new(0.4, 1.0, 25.0);
    let mut rng = SeedSequence::root(3).rng();
    let traps = TrapSet::sample(&params, area, &mut rng);
    c.bench_function("bti_sample_trapset", |bench| {
        bench.iter_batched(
            || SeedSequence::root(9).rng(),
            |mut rng| TrapSet::sample(black_box(&params), black_box(area), &mut rng),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("bti_delta_vth_expected", |bench| {
        bench.iter(|| params.delta_vth_expected(black_box(&traps), &stress, black_box(1e8)))
    });
}

/// Aged-sample construction (mismatch + traps + stress, no circuits).
fn bench_build_sample(c: &mut Criterion) {
    let cfg = smoke_cfg(SaKind::Issa, ReadSequence::AllZeros, 1e8, 4);
    c.bench_function("mc_build_sample", |bench| {
        bench.iter(|| build_sample(black_box(&cfg), black_box(2)))
    });
}

/// The Eq. 3 spec solve.
fn bench_spec_solver(c: &mut Criterion) {
    c.bench_function("offset_spec_eq3", |bench| {
        bench.iter(|| offset_spec(black_box(17e-3), black_box(15e-3), black_box(1e-9)))
    });
}

/// The tail-estimation numeric path: the Φ⁻¹ solve behind every spec and
/// shift-magnitude computation, the weighted quantile/CI band inversion
/// at the adaptive-round size, the log-weight normalization + ESS
/// reduction, and the closed-form likelihood-ratio replay (one Gaussian
/// per device, no circuit solves) — everything the adaptive stopping
/// rule runs per block boundary.
fn bench_tail_estimation(c: &mut Criterion) {
    use issa_core::tail::{tail_log_weight, with_resolved, TailConfig};
    use issa_num::special::inv_norm_cdf;
    use issa_num::wstats::{effective_sample_size, tail_quantile_ci, weights_from_log, Z_95};

    let mut group = c.benchmark_group("tail_estimation");
    group.bench_function("inv_norm_cdf_1e9", |bench| {
        bench.iter(|| inv_norm_cdf(black_box(1.0 - 1e-9)))
    });
    // A deterministic 4096-point weighted set shaped like an IS tail:
    // values spread over [0, 8) with exponentially decaying weights.
    let pairs: Vec<(f64, f64)> = (0..4096)
        .map(|i| {
            let x = (i as f64 * 0.618_034).fract() * 8.0;
            (x, (-x).exp())
        })
        .collect();
    group.bench_function("tail_quantile_ci_4096", |bench| {
        bench.iter(|| tail_quantile_ci(black_box(&pairs), black_box(1e-6), Z_95))
    });
    let log_w: Vec<f64> = pairs.iter().map(|&(x, _)| -x).collect();
    group.bench_function("weights_ess_4096", |bench| {
        bench.iter(|| {
            let w = weights_from_log(black_box(&log_w));
            black_box(effective_sample_size(&w))
        })
    });
    let base = McConfig {
        tail: Some(TailConfig::default()),
        ..smoke_cfg(SaKind::Nssa, ReadSequence::AllZeros, 0.0, 8)
    };
    let d = SaInstance::fresh(base.kind, base.env).devices().len();
    let shift: Vec<f64> = vec![6.0 / (d as f64).sqrt(); d];
    let neg: Vec<f64> = shift.iter().map(|s| -s).collect();
    let cfg = with_resolved(&base, &shift, &neg);
    group.bench_function("tail_log_weight_replay", |bench| {
        bench.iter(|| tail_log_weight(black_box(&cfg), black_box(64)))
    });
    group.finish();
}

/// Reduced-size versions of each paper experiment (2 samples per corner,
/// one representative corner per table/figure).
fn bench_experiments_reduced(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments_reduced");
    group.sample_size(10);
    group.bench_function("table2_corner_80r0", |bench| {
        let cfg = smoke_cfg(SaKind::Nssa, ReadSequence::AllZeros, 1e8, 2);
        bench.iter(|| run_mc(black_box(&cfg)).unwrap())
    });
    group.bench_function("table3_corner_80r0_hi_vdd", |bench| {
        let cfg = McConfig {
            env: Environment::nominal().with_vdd_factor(1.1),
            ..smoke_cfg(SaKind::Nssa, ReadSequence::AllZeros, 1e8, 2)
        };
        bench.iter(|| run_mc(black_box(&cfg)).unwrap())
    });
    group.bench_function("table4_corner_80r0_125c", |bench| {
        let cfg = McConfig {
            env: Environment::nominal().with_temp_c(125.0),
            ..smoke_cfg(SaKind::Nssa, ReadSequence::AllZeros, 1e8, 2)
        };
        bench.iter(|| run_mc(black_box(&cfg)).unwrap())
    });
    group.bench_function("fig7_point_issa_125c", |bench| {
        let cfg = McConfig {
            env: Environment::nominal().with_temp_c(125.0),
            ..smoke_cfg(SaKind::Issa, ReadSequence::AllZeros, 1e8, 2)
        };
        bench.iter(|| run_mc(black_box(&cfg)).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lu_solve,
    bench_batched_lu,
    bench_transient_rc,
    bench_sa_sense,
    bench_offset_search,
    bench_offset_probe,
    bench_mc_small,
    bench_bti,
    bench_build_sample,
    bench_spec_solver,
    bench_tail_estimation,
    bench_experiments_reduced,
);
criterion_main!(benches);
