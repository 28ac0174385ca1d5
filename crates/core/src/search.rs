//! The offset search: one grid, one state machine, one warm-start carrier.
//!
//! Offsets are measured on a fixed dyadic grid ([`OffsetGrid`]) and are
//! determined by the unique grid cell in which the sense decision flips.
//! [`OffsetFsm`] is the only implementation of the search: it asks for
//! one probe at a time and consumes its decision. The scalar path
//! ([`SaInstance::offset_voltage_with`]) drives it one probe after
//! another on one instance; the lockstep scheduler ([`crate::batch`])
//! drives one per lane. [`OffsetSearch`] carries what earlier searches
//! learned into where the next one starts.

use crate::netlist::SaInstance;
use crate::probe::ProbeOptions;
use issa_num::matrix::{DMatrix, Lu};

/// The fixed dyadic offset-search grid over `[−vin_max, +vin_max]`:
/// `n` cells, `n` the smallest power of two whose cell width does not
/// exceed `offset_tol`. Every driver of [`OffsetFsm`] probes the points
/// of this one construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OffsetGrid {
    /// Number of grid cells.
    pub(crate) n: i64,
    vin_max: f64,
    step: f64,
}

impl OffsetGrid {
    /// Builds the grid from the probe options.
    ///
    /// # Panics
    ///
    /// Panics if `opts.offset_tol` or `opts.vin_max` is not positive.
    pub(crate) fn from_opts(opts: &ProbeOptions) -> Self {
        assert!(opts.offset_tol > 0.0, "offset_tol must be positive");
        assert!(opts.vin_max > 0.0, "vin_max must be positive");
        let mut n: i64 = 1;
        while 2.0 * opts.vin_max / n as f64 > opts.offset_tol {
            n <<= 1;
        }
        Self {
            n,
            vin_max: opts.vin_max,
            step: 2.0 * opts.vin_max / n as f64,
        }
    }

    /// Input differential of grid point `i`.
    pub(crate) fn value(self, i: i64) -> f64 {
        -self.vin_max + i as f64 * self.step
    }

    /// Half-width of the previous-flip window: ±(n/16) cells, at least
    /// one.
    fn half_window(self) -> i64 {
        (self.n / 16).max(1)
    }

    /// Measured offset once the search has narrowed to `[lo, hi]`:
    /// the flip point of `vin`, positive = biased toward One.
    fn offset(self, lo: i64, hi: i64) -> f64 {
        -0.5 * (self.value(lo) + self.value(hi))
    }
}

/// Samples beyond the feature count the flip model needs before it
/// predicts: with fewer, its residual estimate has too few degrees of
/// freedom to size a window on.
const MODEL_WARMUP: usize = 8;

/// Predicted-window half-width in standard errors of the prediction
/// (at least one cell). Narrow on purpose: a probe inside a wider window
/// costs as much as a probe that widens a missed one, and the geometric
/// widening recovers a miss in a few probes.
const WINDOW_SIGMAS: f64 = 0.5;

/// Warm-start carrier for the offset search.
///
/// The search runs on a fixed dyadic grid over `[−vin_max, +vin_max]`
/// whose cell width is the largest power-of-two division of the bracket
/// not exceeding `offset_tol`. The measured offset is determined by the
/// unique grid cell in which the sense decision flips, so *any* probe
/// order that brackets and bisects to that cell returns the bit-identical
/// value. That is what makes warm-starting, sharding samples across
/// threads and interleaving them across lanes safe: a carrier changes
/// which probes run, never the result.
///
/// A Monte Carlo shard threads one carrier through its samples, and
/// each completed search feeds it the sample's flip cell. The carrier
/// keeps two things:
///
/// - the previous sample's flip cell. The next search first probes a
///   ±(n/16)-cell window around it and falls back to the full bracket
///   when the window misses;
/// - a running least-squares fit of the flip cell on `[1, ΔVth of each
///   device]` (normal equations, at most 17×17). Once it holds at least
///   *p* + 8 samples (*p* features), each search starts from a narrow
///   window around the sample's *predicted* flip cell, ±½ standard
///   error of the prediction (at least one cell). A miss widens the
///   window outward geometrically; at a grid end the search takes the
///   full-bracket probes, so [`SaError::OffsetOutOfRange`] is reported
///   exactly when the cold search would report it.
///
/// The fit is updated in completion order, which each shard fixes
/// deterministically, so probe counts repeat exactly run to run.
/// [`ProbeOptions::warm_start`] turns both starts off.
///
/// [`SaError::OffsetOutOfRange`]: crate::SaError::OffsetOutOfRange
#[derive(Debug, Clone, Default)]
pub struct OffsetSearch {
    /// Lower index of the previous flip cell on the search grid.
    center: Option<i64>,
    /// Decision below the previous flip: the side a missed predicted
    /// window widens toward.
    below: bool,
    model: FlipModel,
}

impl OffsetSearch {
    /// Where the next search of `sa` starts.
    pub(crate) fn start(&self, sa: &SaInstance, grid: OffsetGrid, opts: &ProbeOptions) -> Start {
        if !opts.warm_start {
            return Start::Cold;
        }
        if let Some((center, se)) = self.model.predict(&features(sa)) {
            let half = (WINDOW_SIGMAS * se).ceil().clamp(1.0, grid.n as f64) as i64;
            return Start::Predicted {
                center,
                half,
                below: self.below,
            };
        }
        self.center.map_or(Start::Cold, Start::Previous)
    }

    /// Feeds a completed search of `sa` back into the carrier.
    pub(crate) fn record(&mut self, sa: &SaInstance, flip: Flip) {
        self.center = Some(flip.lo);
        self.below = flip.below;
        self.model.record(&features(sa), flip.lo as f64 + 0.5);
    }
}

/// Regressors of the flip model: an intercept and each device's ΔVth in
/// mV (so every column is of order one to a hundred).
fn features(sa: &SaInstance) -> Vec<f64> {
    std::iter::once(1.0)
        .chain(sa.devices().iter().map(|&d| 1e3 * sa.delta_vth(d)))
        .collect()
}

/// Running ordinary least squares of the flip position \[cells\] on the
/// [`features`], kept as normal-equation sums.
#[derive(Debug, Clone, Default)]
struct FlipModel {
    /// Feature count; 0 before the first sample.
    p: usize,
    /// Samples recorded.
    n: usize,
    /// `XᵀX`, row-major `p × p`.
    xtx: Vec<f64>,
    /// `Xᵀy`.
    xty: Vec<f64>,
    /// `yᵀy`.
    yty: f64,
    /// Solved model, once `n ≥ p + MODEL_WARMUP`.
    fit: Option<Fit>,
}

#[derive(Debug, Clone)]
struct Fit {
    /// Factors of the ridge-stabilized `XᵀX`.
    lu: Lu,
    beta: Vec<f64>,
    /// Residual variance `RSS / (n − p)` \[cells²\].
    s2: f64,
}

impl FlipModel {
    fn record(&mut self, x: &[f64], y: f64) {
        let p = x.len();
        if p != self.p {
            // A carrier moved to another SA kind: start over.
            *self = FlipModel {
                p,
                xtx: vec![0.0; p * p],
                xty: vec![0.0; p],
                ..FlipModel::default()
            };
        }
        for (i, &xi) in x.iter().enumerate() {
            self.xty[i] += xi * y;
            for (j, &xj) in x.iter().enumerate() {
                self.xtx[i * p + j] += xi * xj;
            }
        }
        self.yty += y * y;
        self.n += 1;
        self.fit = if self.n >= p + MODEL_WARMUP {
            self.solve()
        } else {
            None
        };
    }

    fn solve(&self) -> Option<Fit> {
        let p = self.p;
        // A tiny ridge on the device columns keeps a constant column (a
        // device without spread) from making the system singular.
        let mean_diag = (1..p).map(|i| self.xtx[i * p + i]).sum::<f64>() / (p - 1).max(1) as f64;
        let ridge = 1e-9 * mean_diag;
        let mut a = DMatrix::zeros(p, p);
        for i in 0..p {
            for j in 0..p {
                a[(i, j)] = self.xtx[i * p + j] + if i == j && i > 0 { ridge } else { 0.0 };
            }
        }
        let lu = a.lu().ok()?;
        let beta = lu.solve(&self.xty);
        // RSS = yᵀy − 2βᵀXᵀy + βᵀXᵀXβ holds for any β.
        let quad: f64 = (0..p)
            .map(|i| beta[i] * (0..p).map(|j| self.xtx[i * p + j] * beta[j]).sum::<f64>())
            .sum();
        let rss = self.yty - 2.0 * dot(&beta, &self.xty) + quad;
        let s2 = rss.max(0.0) / (self.n - p) as f64;
        (s2.is_finite() && beta.iter().all(|b| b.is_finite())).then_some(Fit { lu, beta, s2 })
    }

    /// Predicted flip position \[cells\] of a sample with features `x`,
    /// and the prediction's standard error.
    fn predict(&self, x: &[f64]) -> Option<(f64, f64)> {
        let fit = self.fit.as_ref().filter(|_| x.len() == self.p)?;
        let y = dot(&fit.beta, x);
        let leverage = dot(x, &fit.lu.solve(x)).max(0.0);
        let se = (fit.s2 * (1.0 + leverage)).sqrt();
        (y.is_finite() && se.is_finite()).then_some((y, se))
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// How a search starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Start {
    /// Probe both grid ends, then bisect.
    Cold,
    /// Probe a ±(n/16)-cell window around the previous flip cell; on a
    /// miss, fall back to the full bracket.
    Previous(i64),
    /// Probe a ±`half`-cell window around the predicted flip position
    /// `center` \[cells\]; on a miss, widen it geometrically toward the
    /// flip. `below` is the decision under the flip: a window whose ends
    /// both decide it lies below the flip and widens upward.
    Predicted { center: f64, half: i64, below: bool },
}

/// A finished search's flip cell `[lo, lo + 1]` and the decision on its
/// low side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flip {
    pub(crate) lo: i64,
    pub(crate) below: bool,
}

/// Outcome of one [`OffsetFsm`] decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum OffsetStep {
    /// Probe [`OffsetFsm::current_probe`] next.
    Continue,
    /// Search finished: the measured offset and its flip cell.
    Done { result: f64, flip: Flip },
    /// No flip within ±vin_max.
    OutOfRange,
}

/// What a window does when both its ends decide alike.
#[derive(Debug, Clone, Copy)]
enum Miss {
    /// Probe the grid ends (the previous-flip window).
    FullBracket,
    /// Widen outward geometrically: upward when the ends decided
    /// `below`, the decision under the flip, else downward (the
    /// predicted window).
    Widen { below: bool },
}

#[derive(Debug, Clone, Copy)]
struct Window {
    lo: i64,
    hi: i64,
    miss: Miss,
}

#[derive(Debug, Clone, Copy)]
enum OffsetState {
    /// Probing the window's low end.
    WindowLo(Window),
    /// Probing the window's high end; `dl` is the low end's decision.
    WindowHi { w: Window, dl: bool },
    /// Widening a missed predicted window: probing `from ± step`,
    /// clamped to the grid. Every probe so far on this side decided `dw`.
    Widen {
        w: Window,
        dw: bool,
        up: bool,
        from: i64,
        step: i64,
    },
    /// Probing the grid end whose decision is still unknown (0 first,
    /// then `n`). A cold search starts here; a missed window (with the
    /// decision both its ends gave) arrives here when no narrower probe
    /// is left.
    Ends {
        missed: Option<(Window, bool)>,
        d0: Option<bool>,
        dn: Option<bool>,
    },
    /// Bracket established: probing `mid = lo + (hi - lo) / 2`.
    Bisect { lo: i64, hi: i64, d_lo: bool },
}

/// The offset binary search as an explicit state machine, one probe per
/// step. Drivers read [`OffsetFsm::current_probe`], run that probe, and
/// feed its decision (`V(S) − V(SBar) > 0`) to [`OffsetFsm::on_decision`]
/// until it reports [`OffsetStep::Done`] or [`OffsetStep::OutOfRange`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct OffsetFsm {
    grid: OffsetGrid,
    state: OffsetState,
}

impl OffsetFsm {
    pub(crate) fn new(grid: OffsetGrid, start: Start) -> Self {
        let n = grid.n;
        let state = match start {
            Start::Cold => OffsetState::Ends {
                missed: None,
                d0: None,
                dn: None,
            },
            Start::Previous(c) => {
                let half = grid.half_window();
                let c = c.clamp(0, n - 1);
                OffsetState::WindowLo(Window {
                    lo: (c - half).max(0),
                    hi: (c + 1 + half).min(n),
                    miss: Miss::FullBracket,
                })
            }
            Start::Predicted {
                center,
                half,
                below,
            } => {
                let c = center.clamp(0.0, n as f64).round() as i64;
                let half = half.max(1);
                OffsetState::WindowLo(Window {
                    lo: (c - half).max(0),
                    hi: (c + half).min(n),
                    miss: Miss::Widen { below },
                })
            }
        };
        OffsetFsm { grid, state }
    }

    /// Input differential of the probe the current state is waiting on.
    pub(crate) fn current_vin(&self) -> f64 {
        self.grid.value(self.current_probe())
    }

    /// Grid index of the probe the current state is waiting on.
    fn current_probe(&self) -> i64 {
        match self.state {
            OffsetState::WindowLo(w) => w.lo,
            OffsetState::WindowHi { w, .. } => w.hi,
            OffsetState::Widen {
                up: true,
                from,
                step,
                ..
            } => (from + step).min(self.grid.n),
            OffsetState::Widen { from, step, .. } => (from - step).max(0),
            OffsetState::Ends { d0: None, .. } => 0,
            OffsetState::Ends { .. } => self.grid.n,
            OffsetState::Bisect { lo, hi, .. } => lo + (hi - lo) / 2,
        }
    }

    /// Feeds the current probe's decision into the search.
    pub(crate) fn on_decision(&mut self, d: bool) -> OffsetStep {
        let n = self.grid.n;
        match self.state {
            OffsetState::WindowLo(w) => {
                self.state = OffsetState::WindowHi { w, dl: d };
                OffsetStep::Continue
            }
            OffsetState::WindowHi { w, dl } if dl != d => self.enter_bisect(w.lo, w.hi, dl),
            OffsetState::WindowHi { w, dl } => {
                // Both ends decided `dl`. A predicted window widens toward
                // the flip: upward while the decision is still `below`.
                if let Miss::Widen { below } = w.miss {
                    let up = dl == below;
                    if (up && w.hi < n) || (!up && w.lo > 0) {
                        self.state = OffsetState::Widen {
                            w,
                            dw: dl,
                            up,
                            from: if up { w.hi } else { w.lo },
                            step: w.hi - w.lo,
                        };
                        return OffsetStep::Continue;
                    }
                }
                self.enter_ends(
                    Some((w, dl)),
                    (w.lo == 0).then_some(dl),
                    (w.hi == n).then_some(dl),
                )
            }
            OffsetState::Widen {
                w,
                dw,
                up,
                from,
                step,
            } => {
                let at = self.current_probe();
                match (d != dw, up) {
                    (true, true) => self.enter_bisect(from, at, dw),
                    (true, false) => self.enter_bisect(at, from, d),
                    // Ran into a grid end without a flip: settle it with
                    // the full-bracket probes.
                    (false, true) if at == n => {
                        self.enter_ends(Some((w, dw)), (w.lo == 0).then_some(dw), Some(dw))
                    }
                    (false, false) if at == 0 => {
                        self.enter_ends(Some((w, dw)), Some(dw), (w.hi == n).then_some(dw))
                    }
                    (false, _) => {
                        self.state = OffsetState::Widen {
                            w,
                            dw,
                            up,
                            from: at,
                            step: 2 * step,
                        };
                        OffsetStep::Continue
                    }
                }
            }
            OffsetState::Ends {
                missed,
                d0: None,
                dn,
            } => self.enter_ends(missed, Some(d), dn),
            OffsetState::Ends { missed, d0, .. } => self.enter_ends(missed, d0, Some(d)),
            OffsetState::Bisect { lo, hi, d_lo } => {
                let mid = lo + (hi - lo) / 2;
                let (lo, hi) = if d == d_lo { (mid, hi) } else { (lo, mid) };
                self.enter_bisect(lo, hi, d_lo)
            }
        }
    }

    /// Waits for the grid-end decisions still unknown, then picks the
    /// bracket: the whole grid for a cold search, else the side of the
    /// missed window the flip must be on. `missed` is that window and the
    /// decision both its ends gave.
    fn enter_ends(
        &mut self,
        missed: Option<(Window, bool)>,
        d0: Option<bool>,
        dn: Option<bool>,
    ) -> OffsetStep {
        let (Some(d0), Some(dn)) = (d0, dn) else {
            self.state = OffsetState::Ends { missed, d0, dn };
            return OffsetStep::Continue;
        };
        match missed {
            _ if d0 == dn => OffsetStep::OutOfRange,
            None => self.enter_bisect(0, self.grid.n, d0),
            Some((w, dw)) if dw == d0 => self.enter_bisect(w.hi, self.grid.n, dw),
            Some((w, _)) => self.enter_bisect(0, w.lo, d0),
        }
    }

    /// Continues bisection of `[lo, hi]` (`d(lo) == d_lo != d(hi)`), or
    /// finishes when the bracket is one cell wide.
    fn enter_bisect(&mut self, lo: i64, hi: i64, d_lo: bool) -> OffsetStep {
        if hi - lo > 1 {
            self.state = OffsetState::Bisect { lo, hi, d_lo };
            OffsetStep::Continue
        } else {
            OffsetStep::Done {
                result: self.grid.offset(lo, hi),
                flip: Flip { lo, below: d_lo },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{SaDevice, SaKind};
    use issa_ptm45::Environment;

    /// The fast-profile grid: 4096 cells.
    fn grid() -> OffsetGrid {
        OffsetGrid::from_opts(&ProbeOptions::fast())
    }

    /// Runs `fsm` against the decision function `d` and returns its
    /// outcome and the grid points it probed.
    fn drive(mut fsm: OffsetFsm, d: impl Fn(i64) -> bool) -> (OffsetStep, Vec<i64>) {
        let mut probes = Vec::new();
        loop {
            let i = fsm.current_probe();
            assert!((0..=fsm.grid.n).contains(&i), "probe {i} off the grid");
            probes.push(i);
            assert!(probes.len() <= 64, "search does not terminate: {probes:?}");
            match fsm.on_decision(d(i)) {
                OffsetStep::Continue => {}
                step => return (step, probes),
            }
        }
    }

    fn predicted(center: f64, half: i64, below: bool) -> Start {
        Start::Predicted {
            center,
            half,
            below,
        }
    }

    /// Starts that are right, off by a cell, just outside their window,
    /// far off, clamped at either grid end, or told the wrong side.
    fn starts_around(flip: i64, n: i64) -> Vec<Start> {
        let y = flip as f64 + 0.5;
        let mut starts = vec![
            Start::Cold,
            Start::Previous(flip),
            Start::Previous(flip + 300),
            Start::Previous(flip - 900),
            Start::Previous(-5),
            Start::Previous(n + 5),
        ];
        for below in [false, true] {
            for half in [1, 2, 5] {
                let h = half as f64;
                for err in [
                    0.0,
                    1.0,
                    -1.0,
                    h + 1.0,
                    -h - 1.5,
                    40.0,
                    -40.0,
                    3000.0,
                    -3000.0,
                ] {
                    starts.push(predicted(y + err, half, below));
                }
            }
            starts.push(predicted(-50.0, 1, below));
            starts.push(predicted(n as f64 + 50.0, 1, below));
            starts.push(predicted(f64::NEG_INFINITY, 3, below));
        }
        starts
    }

    #[test]
    fn every_start_finds_the_cold_flip_cell() {
        let g = grid();
        let n = g.n;
        for flip in [0, 1, 7, n / 2 - 3, n / 2, n - 2, n - 1] {
            for rising in [true, false] {
                // Monotone: the decision flips between `flip` and `flip + 1`.
                let d = |i: i64| (i > flip) == rising;
                let (cold, _) = drive(OffsetFsm::new(g, Start::Cold), d);
                let OffsetStep::Done { result, flip: f } = cold else {
                    panic!("cold search missed the flip: {cold:?}");
                };
                assert_eq!(
                    f,
                    Flip {
                        lo: flip,
                        below: !rising
                    }
                );
                assert_eq!(result, g.offset(flip, flip + 1));
                for start in starts_around(flip, n) {
                    let (step, probes) = drive(OffsetFsm::new(g, start), d);
                    assert_eq!(
                        step, cold,
                        "flip {flip} rising {rising} {start:?}: {probes:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_range_is_reported_from_every_start() {
        let g = grid();
        for stuck in [false, true] {
            for start in starts_around(g.n / 2, g.n) {
                let (step, probes) = drive(OffsetFsm::new(g, start), |_| stuck);
                assert_eq!(step, OffsetStep::OutOfRange, "{start:?}: {probes:?}");
                // Settled only once both grid ends were probed.
                assert!(probes.contains(&0) && probes.contains(&g.n), "{probes:?}");
            }
        }
    }

    #[test]
    fn previous_flip_window_probes_as_before() {
        let g = grid();
        let d = |i: i64| i > 3000;
        // Window ±256 around cell 1000 misses: both grid ends, then the
        // bracket above the window.
        let (_, probes) = drive(OffsetFsm::new(g, Start::Previous(1000)), d);
        assert_eq!(probes[..4], [744, 1257, 0, g.n]);
        assert_eq!(probes.len(), 4 + 12);
        // A window touching grid point 0 reuses its low probe as d(0).
        let (_, probes) = drive(OffsetFsm::new(g, Start::Previous(100)), d);
        assert_eq!(probes[..3], [0, 357, g.n]);
        // A hit bisects the window.
        let (_, probes) = drive(OffsetFsm::new(g, Start::Previous(2900)), d);
        assert_eq!(probes[..2], [2644, 3157]);
        assert_eq!(probes.len(), 2 + 9);
    }

    #[test]
    fn predicted_window_costs_track_the_prediction_error() {
        let g = grid();
        let d = |i: i64| i > 1234;
        let y = 1234.5;
        // Exact: the two window ends and one bisection.
        let (_, probes) = drive(OffsetFsm::new(g, predicted(y, 1, false)), d);
        assert_eq!(probes, [1234, 1236, 1235]);
        // Just outside: one widening probe, one bisection.
        let (_, probes) = drive(OffsetFsm::new(g, predicted(y + 2.0, 1, false)), d);
        assert_eq!(probes, [1236, 1238, 1234, 1235]);
        // Far outside: the window doubles its way back.
        let (_, probes) = drive(OffsetFsm::new(g, predicted(y + 1000.0, 1, false)), d);
        assert!(probes.len() <= 2 + 10 + 10, "{probes:?}");
    }

    fn instance(mdown_mv: f64, mup_mv: f64) -> SaInstance {
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        sa.set_delta_vth(SaDevice::Mdown, 1e-3 * mdown_mv);
        sa.set_delta_vth(SaDevice::Mup, 1e-3 * mup_mv);
        // A device with a constant shift and no spread.
        sa.set_delta_vth(SaDevice::Mtop, 0.02);
        sa
    }

    #[test]
    fn carrier_predicts_after_warm_up() {
        let opts = ProbeOptions::fast();
        let g = grid();
        let truth = |a: f64, b: f64| (2048.0 + 3.0 * a - 2.0 * b).floor() as i64;
        let mut search = OffsetSearch::default();
        let p = 1 + SaDevice::NSSA.len();
        for k in 0..p + MODEL_WARMUP {
            let (a, b) = ((k * 7 % 11) as f64, (k * 5 % 13) as f64 - 6.0);
            let sa = instance(a, b);
            let start = search.start(&sa, g, &opts);
            match k {
                0 => assert_eq!(start, Start::Cold),
                _ => assert!(matches!(start, Start::Previous(_)), "{k}: {start:?}"),
            }
            let lo = truth(a, b);
            search.record(&sa, Flip { lo, below: false });
        }
        // Exactly linear in two devices, constant in the others: the
        // model recovers the flip cell with a one-cell window.
        let sa = instance(4.0, -3.0);
        match search.start(&sa, g, &opts) {
            Start::Predicted {
                center,
                half,
                below,
            } => {
                assert!(
                    (center - (truth(4.0, -3.0) as f64 + 0.5)).abs() < 0.6,
                    "{center}"
                );
                assert_eq!(half, 1);
                assert!(!below);
            }
            other => panic!("expected a prediction, got {other:?}"),
        }
        // Reference mode never warm-starts.
        assert_eq!(search.start(&sa, g, &opts.reference()), Start::Cold);
    }
}
