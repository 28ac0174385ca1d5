//! Offset-voltage and sensing-delay measurements.
//!
//! Both measurements follow the paper's method:
//!
//! - **Offset voltage** (Section II-C): "the offset voltage of one
//!   specific sample is determined using a binary search on its inputs".
//!   Each binary-search probe is a regeneration transient: the bitlines
//!   hold a differential `vin`, the internal nodes start precharged to the
//!   bitline values, SAenable rises, and the latch resolves one way or the
//!   other. The offset is the `vin` at which the decision flips.
//!
//! - **Sensing delay** (Section IV-A): "the time between the activation of
//!   the SA (when SAenable rises to 50 % of Vdd) and when the result is
//!   produced at the output (when Out or Outbar rises to 50 % of Vdd)".
//!
//! # Sign convention
//!
//! `vin = V(BL) − V(BLBar)`; a positive input resolves internal state 1
//! (`S` high). The reported offset is **positive when the SA is biased
//! toward resolving 1** — the bias an all-zeros read history produces
//! (aged `Mdown`/`MupBar`), matching the positive μ the paper reports for
//! the `r0` workloads.

use crate::netlist::SaInstance;
use crate::search::{Flip, OffsetFsm, OffsetGrid, OffsetStep};
use crate::SaError;
use issa_circuit::netlist::Netlist;
use issa_circuit::recovery::RecoveryPolicy;
use issa_circuit::trace::{CrossDirection, Trace};
use issa_circuit::tran::{transient, StopWhen, TranContext, TranParams};
use issa_circuit::waveform::Waveform;
use issa_ptm45::Environment;

pub use crate::search::{OffsetSearch, SearchLease, SearchPool};

/// Resolved decision of one sense operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SenseOutcome {
    /// Internal state 0 (`S` low): the SA read a 0.
    Zero,
    /// Internal state 1 (`S` high): the SA read a 1.
    One,
}

/// Timing and search parameters of the measurement probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeOptions {
    /// Time at which SAenable rises \[s\].
    pub t_enable: f64,
    /// Simulated window after the enable edge \[s\].
    pub window: f64,
    /// Transient base step \[s\].
    pub dt: f64,
    /// Enable edge (rise/fall) time \[s\].
    pub edge: f64,
    /// Half-width of the offset binary-search bracket \[V\].
    pub vin_max: f64,
    /// Termination tolerance of the offset search \[V\].
    pub offset_tol: f64,
    /// Fraction of Vdd the internal differential must exceed for
    /// [`SaInstance::sense`] to call the operation resolved.
    pub resolve_fraction: f64,
    /// Bitline develop interval for delay probes \[s\].
    pub t_develop: f64,
    /// Settle interval between the end of bitline develop and the enable
    /// edge \[s\]: the pass transistors need a few RC constants to
    /// propagate the developed differential onto the internal nodes
    /// (~5 ps per τ at 125 °C).
    pub t_settle: f64,
    /// Developed bitline swing for delay probes \[V\].
    pub swing: f64,
    /// Warm-start the offset search from the previous sample's flip cell,
    /// or from the flip cell the carrier predicts from the sample's ΔVth
    /// draws (see [`OffsetSearch`]). Changes which grid points are
    /// probed but not the result: the search grid is fixed, and the
    /// returned offset is the unique cell where the decision flips.
    pub warm_start: bool,
    /// Stop probe transients as soon as the measurement is decided
    /// (regeneration past the resolve threshold, output crossing found)
    /// instead of integrating the full window. Decision-preserving: see
    /// [`StopWhen`].
    pub early_exit: bool,
    /// Solver recovery ladder applied to every probe transient (see
    /// [`RecoveryPolicy`]). Engages only after a Newton failure, so on a
    /// healthy run the results are bit-identical for any policy.
    pub recovery: RecoveryPolicy,
}

impl Default for ProbeOptions {
    fn default() -> Self {
        Self {
            t_enable: 5e-12,
            window: 45e-12,
            dt: 0.1e-12,
            edge: 1e-12,
            vin_max: 0.3,
            offset_tol: 5e-5,
            resolve_fraction: 0.6,
            t_develop: 10e-12,
            t_settle: 25e-12,
            swing: crate::calib::DELAY_PROBE_SWING,
            warm_start: true,
            early_exit: true,
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl ProbeOptions {
    /// A coarser, ~4× faster profile for tests and smoke runs: looser
    /// offset tolerance and a larger time step.
    pub fn fast() -> Self {
        Self {
            dt: 0.25e-12,
            window: 35e-12,
            offset_tol: 2e-4,
            ..Self::default()
        }
    }

    /// The same measurement with every hot-path shortcut disabled: cold
    /// offset searches and full-window transients. Results must be
    /// bit-identical to the optimized path — this profile exists so tests
    /// and benches can prove it.
    #[must_use]
    pub fn reference(self) -> Self {
        Self {
            warm_start: false,
            early_exit: false,
            ..self
        }
    }
}

/// Window multiplier for delay probes and `sense()`: heavily aged hot
/// instances sensing against their bias can be many times slower than a
/// fresh SA, and the measurement must not clip the output crossing.
const SLOW_WINDOW_SCALE: f64 = 8.0;

/// The source waveforms of one probe (crate-internal).
#[derive(Debug, Clone)]
pub(crate) struct DriveSpec {
    pub bl: Waveform,
    pub blbar: Waveform,
    pub t_enable: f64,
    pub edge: f64,
}

impl DriveSpec {
    /// Offset probe: both bitlines held at DC, the lower one dropped by
    /// |vin| below Vdd (matching how a real bitline differential looks —
    /// one line stays precharged, the other dips).
    pub(crate) fn offset_probe(vin: f64, env: &Environment, t_enable: f64, edge: f64) -> Self {
        let (v_bl, v_blbar) = offset_drive_levels(vin, env.vdd);
        Self {
            bl: Waveform::dc(v_bl),
            blbar: Waveform::dc(v_blbar),
            t_enable,
            edge,
        }
    }

    /// Delay probe: the losing bitline ramps down by `swing` during the
    /// develop interval before the enable edge.
    pub(crate) fn delay_probe(
        read_value: bool,
        swing: f64,
        env: &Environment,
        opts: &ProbeOptions,
    ) -> Self {
        let vdd = env.vdd;
        let t0 = 1e-12;
        let t1 = t0 + opts.t_develop;
        let ramp = Waveform::pwl(vec![(0.0, vdd), (t0, vdd), (t1, vdd - swing)]);
        let flat = Waveform::dc(vdd);
        let (bl, blbar) = if read_value {
            // Reading a 1: BLBar discharges.
            (flat, ramp)
        } else {
            (ramp, flat)
        };
        Self {
            bl,
            blbar,
            // Enable after the differential has developed on the bitlines
            // AND settled through the pass transistors onto S/SBar.
            t_enable: t1 + opts.t_settle.max(opts.t_enable),
            edge: opts.edge,
        }
    }
}

/// Reusable per-sample probe workspace: the instance's netlist (built
/// once per drive *shape*) plus a [`TranContext`] whose Newton workspace,
/// cached base Jacobian, and trace buffers survive across probes. Between
/// probes only the bitline source waveforms are swapped — a supported
/// mutation that leaves all cached constant structure valid.
pub(crate) struct ProbeContext {
    net: Netlist,
    tran: TranContext,
}

/// Branch indices of the bitline drivers in [`SaInstance::build_netlist`]
/// insertion order (0 is the Vdd rail). Shared with the batched lane
/// scheduler ([`crate::batch`]), which swaps the same two waveforms
/// between probes.
pub(crate) const BL_BRANCH: usize = 1;
pub(crate) const BLBAR_BRANCH: usize = 2;

/// Bitline DC levels of an offset probe at input differential `vin`: the
/// lower line dips below Vdd, the other stays precharged. One definition
/// for the scalar search, [`DriveSpec::offset_probe`], and the batched
/// scheduler.
pub(crate) fn offset_drive_levels(vin: f64, vdd: f64) -> (f64, f64) {
    (vdd + vin.min(0.0), vdd - vin.max(0.0))
}

/// Internal differential `V(S) − V(SBar)` \[V\] at the end of a
/// regeneration-probe trace (full window or early-exit point — the sign
/// is the same either way, regeneration being monotone past the
/// threshold). Shared by the scalar path and the batched scheduler.
pub(crate) fn regen_diff(trace: &Trace) -> f64 {
    let s = trace.final_value("s").expect("s recorded");
    let sbar = trace.final_value("sbar").expect("sbar recorded");
    s - sbar
}

/// Extracts the sensing delay from a delay-probe trace: SAenable's 50 %
/// rising crossing to the winning output's 50 % rising crossing. Shared
/// by [`SaInstance::sensing_delay`] and the batched scheduler.
pub(crate) fn delay_from_trace(trace: &Trace, out_signal: &str, vdd: f64) -> Result<f64, SaError> {
    let t_en = trace
        .crossing_time("saen", 0.5 * vdd, CrossDirection::Rising, 0.0)
        .ok_or_else(|| SaError::MissingCrossing {
            signal: "saen".into(),
        })?;
    let t_out = trace
        .crossing_time(out_signal, 0.5 * vdd, CrossDirection::Rising, t_en)
        .ok_or_else(|| SaError::MissingCrossing {
            signal: out_signal.into(),
        })?;
    Ok(t_out - t_en)
}

impl ProbeContext {
    pub(crate) fn new(sa: &SaInstance, drive: &DriveSpec) -> Self {
        let net = sa.build_netlist(drive);
        let tran = TranContext::new(&net);
        Self { net, tran }
    }

    fn set_bitlines(&mut self, bl: Waveform, blbar: Waveform) {
        self.net.set_vsource_waveform(BL_BRANCH, bl);
        self.net.set_vsource_waveform(BLBAR_BRANCH, blbar);
    }

    fn run(&mut self, params: &TranParams) -> Result<&Trace, SaError> {
        crate::perf::record_sense_call();
        Ok(self.tran.run(&self.net, params)?)
    }
}

impl SaInstance {
    /// Runs one sense transient with DC bitlines and returns the internal
    /// differential `V(S) − V(SBar)` \[V\] at the end of the run (the full
    /// window, or the early-exit point once the differential has passed
    /// the resolve threshold — regeneration is monotone past it, so the
    /// sign is the same either way).
    fn regenerate(
        &self,
        ctx: &mut ProbeContext,
        v_bl: f64,
        v_blbar: f64,
        t_enable: f64,
        opts: &ProbeOptions,
        window_scale: f64,
    ) -> Result<f64, SaError> {
        ctx.set_bitlines(Waveform::dc(v_bl), Waveform::dc(v_blbar));
        let params = self.regen_params(v_bl, v_blbar, t_enable, opts, window_scale);
        let trace = ctx.run(&params)?;
        Ok(regen_diff(trace))
    }

    /// Transient parameters of one regeneration probe — shared verbatim
    /// by the scalar path above and the batched lane scheduler
    /// ([`crate::batch`]), so the two cannot drift apart.
    pub(crate) fn regen_params(
        &self,
        v_bl: f64,
        v_blbar: f64,
        t_enable: f64,
        opts: &ProbeOptions,
        window_scale: f64,
    ) -> TranParams {
        let vdd = self.env.vdd;
        // With the ISSA's crossed pair active, the pass phase connects BL
        // to SBar and BLBar to S; the precharge ICs must match.
        let crossed = self.kind == crate::netlist::SaKind::Issa && self.switch_state;
        let (s_ic, sbar_ic) = if crossed {
            (v_blbar, v_bl)
        } else {
            (v_bl, v_blbar)
        };
        let mut params = TranParams::new(t_enable + window_scale * opts.window, opts.dt)
            .recovery(opts.recovery)
            .record_nodes(["s", "sbar"])
            .ic("vdd", vdd)
            .ic("bl", v_bl)
            .ic("blbar", v_blbar)
            .ic("s", s_ic)
            .ic("sbar", sbar_ic)
            .ic("ntop", vdd)
            .ic("nbot", vdd)
            .ic("saenbar", vdd);
        if opts.early_exit {
            params = params.stop_when(StopWhen::DiffExceeds {
                a: "s".into(),
                b: "sbar".into(),
                threshold: opts.resolve_fraction * vdd,
            });
        }
        params
    }

    /// Senses the differential input `vin = V(BL) − V(BLBar)` \[V\].
    ///
    /// # Errors
    ///
    /// [`SaError::Unresolved`] if the internal differential does not reach
    /// `resolve_fraction · Vdd` by the end of the window, or a circuit
    /// error if the simulation fails.
    pub fn sense(&self, vin: f64, opts: &ProbeOptions) -> Result<SenseOutcome, SaError> {
        let drive = DriveSpec::offset_probe(vin, &self.env, opts.t_enable, opts.edge);
        let mut ctx = ProbeContext::new(self, &drive);
        let v_bl = drive.bl.eval(0.0);
        let v_blbar = drive.blbar.eval(0.0);
        // Small-margin inputs regenerate slowly; give sense() the same
        // extended window as the delay probe so a legitimate read is not
        // reported metastable. (The offset binary search keeps the short
        // window — it only needs the sign of the differential.)
        let diff = self.regenerate(
            &mut ctx,
            v_bl,
            v_blbar,
            drive.t_enable,
            opts,
            SLOW_WINDOW_SCALE,
        )?;
        if diff.abs() < opts.resolve_fraction * self.env.vdd {
            return Err(SaError::Unresolved { differential: diff });
        }
        Ok(if diff > 0.0 {
            SenseOutcome::One
        } else {
            SenseOutcome::Zero
        })
    }

    /// Measures this instance's input-referred offset voltage \[V\] by
    /// binary search on the input differential (the paper's method).
    ///
    /// See the module docs for the sign convention.
    ///
    /// # Errors
    ///
    /// [`SaError::OffsetOutOfRange`] if the decision does not flip within
    /// `±vin_max`, or a circuit error if a probe fails.
    pub fn offset_voltage(&self, opts: &ProbeOptions) -> Result<f64, SaError> {
        self.offset_voltage_with(opts, &mut OffsetSearch::default())
    }

    /// [`SaInstance::offset_voltage`] with a warm-start carrier: the
    /// Monte Carlo loop threads one [`OffsetSearch`] through consecutive
    /// samples so each search starts near where this sample's decision
    /// is expected to flip. The result is independent of the carrier's
    /// state (see [`OffsetSearch`]).
    ///
    /// # Errors
    ///
    /// As [`SaInstance::offset_voltage`].
    ///
    /// # Panics
    ///
    /// Panics if `opts.offset_tol` or `opts.vin_max` is not positive.
    pub fn offset_voltage_with(
        &self,
        opts: &ProbeOptions,
        search: &mut OffsetSearch,
    ) -> Result<f64, SaError> {
        let grid = OffsetGrid::from_opts(opts);
        let fsm = OffsetFsm::new(grid, search.start(self, grid, opts));
        let (offset, flip) = self.run_offset_search(opts, fsm)?;
        search.record(self, flip);
        Ok(offset)
    }

    /// Drives `fsm` on this one instance: runs each probe it asks for,
    /// one after another, until the search finishes.
    pub(crate) fn run_offset_search(
        &self,
        opts: &ProbeOptions,
        mut fsm: OffsetFsm,
    ) -> Result<(f64, Flip), SaError> {
        let drive = DriveSpec::offset_probe(0.0, &self.env, opts.t_enable, opts.edge);
        let mut ctx = ProbeContext::new(self, &drive);
        loop {
            let (v_bl, v_blbar) = offset_drive_levels(fsm.current_vin(), self.env.vdd);
            // Near the metastable point resolution is slow, so classify
            // by the sign of the differential.
            let d = self.regenerate(&mut ctx, v_bl, v_blbar, opts.t_enable, opts, 1.0)? > 0.0;
            match fsm.on_decision(d) {
                OffsetStep::Continue => {}
                OffsetStep::Done { result, flip } => return Ok((result, flip)),
                OffsetStep::OutOfRange => {
                    return Err(SaError::OffsetOutOfRange {
                        vin_max: opts.vin_max,
                    })
                }
            }
        }
    }

    /// Measures the sensing delay for a read of `read_value` \[s\]: from
    /// SAenable's 50 % rising crossing to the rising 50 % crossing of the
    /// output that goes high (`Out` for a 1, `Outbar` for a 0).
    ///
    /// # Errors
    ///
    /// [`SaError::MissingCrossing`] if an expected transition never
    /// happens (e.g. the SA mis-senses the developed differential), or a
    /// circuit error.
    pub fn sensing_delay(&self, read_value: bool, opts: &ProbeOptions) -> Result<f64, SaError> {
        let drive = DriveSpec::delay_probe(read_value, opts.swing, &self.env, opts);
        let mut ctx = ProbeContext::new(self, &drive);
        let out_signal = self.delay_out_signal(read_value);
        let params = self.delay_params(&drive, out_signal, opts);
        let trace = ctx.run(&params)?;
        delay_from_trace(trace, out_signal, self.env.vdd)
    }

    /// Which output rises for a read of `read_value`: with the crossed
    /// pair active the SA resolves the complement, so the opposite output
    /// goes high (the control logic re-inverts the value downstream).
    pub(crate) fn delay_out_signal(&self, read_value: bool) -> &'static str {
        let crossed = self.kind == crate::netlist::SaKind::Issa && self.switch_state;
        if read_value ^ crossed {
            "out"
        } else {
            "outbar"
        }
    }

    /// Transient parameters of one delay probe — shared verbatim by
    /// [`SaInstance::sensing_delay`] and the batched lane scheduler.
    pub(crate) fn delay_params(
        &self,
        drive: &DriveSpec,
        out_signal: &str,
        opts: &ProbeOptions,
    ) -> TranParams {
        let vdd = self.env.vdd;
        // Heavily aged instances sensing against their bias can be several
        // times slower than a fresh SA; give the delay probe extra room so
        // the output crossing is not clipped by the window.
        let mut params = TranParams::new(drive.t_enable + SLOW_WINDOW_SCALE * opts.window, opts.dt)
            .recovery(opts.recovery)
            .record_nodes(["s", "sbar", "out", "outbar", "saen"])
            .ic("vdd", vdd)
            .ic("bl", vdd)
            .ic("blbar", vdd)
            .ic("s", vdd)
            .ic("sbar", vdd)
            .ic("ntop", vdd)
            .ic("nbot", vdd)
            .ic("saenbar", vdd);
        if opts.early_exit {
            // The run is over once the winning output's 50 % crossing is
            // bracketed; the outputs start low and rise monotonically
            // after the enable edge, so stopping there cannot skip the
            // crossing the measurement would have picked.
            params = params.stop_when(StopWhen::RisesThrough {
                node: out_signal.into(),
                level: 0.5 * vdd,
                after: drive.t_enable,
            });
        }
        params
    }

    /// Runs the delay-probe transient and returns the full waveform trace
    /// (`s`, `sbar`, `out`, `outbar`, `saen`, `bl`, `blbar`) — for
    /// plotting, debugging, and the waveform examples.
    ///
    /// # Errors
    ///
    /// Propagates circuit simulation errors.
    pub fn delay_waveforms(
        &self,
        read_value: bool,
        opts: &ProbeOptions,
    ) -> Result<issa_circuit::trace::Trace, SaError> {
        let drive = DriveSpec::delay_probe(read_value, opts.swing, &self.env, opts);
        let net = self.build_netlist(&drive);
        let vdd = self.env.vdd;
        let params = TranParams::new(drive.t_enable + SLOW_WINDOW_SCALE * opts.window, opts.dt)
            .recovery(opts.recovery)
            .record_nodes(["s", "sbar", "out", "outbar", "saen", "bl", "blbar"])
            .ic("vdd", vdd)
            .ic("bl", vdd)
            .ic("blbar", vdd)
            .ic("s", vdd)
            .ic("sbar", vdd)
            .ic("ntop", vdd)
            .ic("nbot", vdd)
            .ic("saenbar", vdd);
        Ok(transient(&net, &params)?)
    }

    /// Unweighted mean sensing delay over a read-0 and a read-1 \[s\].
    ///
    /// # Errors
    ///
    /// Propagates [`SaInstance::sensing_delay`] errors.
    pub fn sensing_delay_mean(&self, opts: &ProbeOptions) -> Result<f64, SaError> {
        self.sensing_delay_weighted(0.5, opts)
    }

    /// Workload-weighted mean sensing delay \[s\]:
    /// `zero_fraction · delay(read 0) + (1 − zero_fraction) · delay(read 1)`.
    ///
    /// This is the per-corner delay the paper's tables report: under the
    /// `80r0` workload the reads *are* zeros, so the delay that matters is
    /// the read-0 delay — the direction the aging fights. Pass the
    /// *internal* zero fraction of the compiled workload (0.5 for any
    /// ISSA workload).
    ///
    /// # Panics
    ///
    /// Panics if `zero_fraction` is outside `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates [`SaInstance::sensing_delay`] errors.
    pub fn sensing_delay_weighted(
        &self,
        zero_fraction: f64,
        opts: &ProbeOptions,
    ) -> Result<f64, SaError> {
        assert!(
            (0.0..=1.0).contains(&zero_fraction),
            "zero fraction must be in [0,1]"
        );
        let d0 = if zero_fraction > 0.0 {
            self.sensing_delay(false, opts)?
        } else {
            0.0
        };
        let d1 = if zero_fraction < 1.0 {
            self.sensing_delay(true, opts)?
        } else {
            0.0
        };
        Ok(zero_fraction * d0 + (1.0 - zero_fraction) * d1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{SaDevice, SaKind};

    fn opts() -> ProbeOptions {
        ProbeOptions::fast()
    }

    #[test]
    fn fresh_nssa_senses_both_directions() {
        let sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        assert_eq!(sa.sense(50e-3, &opts()).unwrap(), SenseOutcome::One);
        assert_eq!(sa.sense(-50e-3, &opts()).unwrap(), SenseOutcome::Zero);
    }

    #[test]
    fn fresh_issa_senses_both_directions() {
        let sa = SaInstance::fresh(SaKind::Issa, Environment::nominal());
        assert_eq!(sa.sense(50e-3, &opts()).unwrap(), SenseOutcome::One);
        assert_eq!(sa.sense(-50e-3, &opts()).unwrap(), SenseOutcome::Zero);
    }

    #[test]
    fn issa_switch_state_inverts_decision() {
        // With the crossed pair active, BL drives SBar: the same external
        // input resolves the opposite internal state — this is why the
        // control logic must invert the read value.
        let mut sa = SaInstance::fresh(SaKind::Issa, Environment::nominal());
        sa.switch_state = true;
        assert_eq!(sa.sense(50e-3, &opts()).unwrap(), SenseOutcome::Zero);
        assert_eq!(sa.sense(-50e-3, &opts()).unwrap(), SenseOutcome::One);
    }

    #[test]
    fn fresh_offset_is_sub_millivolt() {
        for kind in [SaKind::Nssa, SaKind::Issa] {
            let sa = SaInstance::fresh(kind, Environment::nominal());
            let off = sa.offset_voltage(&opts()).unwrap();
            assert!(off.abs() < 1e-3, "{kind:?} fresh offset {off}");
        }
    }

    #[test]
    fn weak_mdown_biases_toward_one() {
        // Aging Mdown (the r0 stress victim) must shift the offset
        // positive — the paper's Table II sign for 80r0.
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        sa.set_delta_vth(SaDevice::Mdown, 0.03);
        sa.set_delta_vth(SaDevice::MupBar, 0.03);
        let off = sa.offset_voltage(&opts()).unwrap();
        assert!(off > 5e-3, "offset {off} should be clearly positive");
    }

    #[test]
    fn weak_mdownbar_biases_toward_zero() {
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        sa.set_delta_vth(SaDevice::MdownBar, 0.03);
        sa.set_delta_vth(SaDevice::Mup, 0.03);
        let off = sa.offset_voltage(&opts()).unwrap();
        assert!(off < -5e-3, "offset {off} should be clearly negative");
    }

    #[test]
    fn symmetric_aging_cancels() {
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        for d in [
            SaDevice::Mdown,
            SaDevice::MdownBar,
            SaDevice::Mup,
            SaDevice::MupBar,
        ] {
            sa.set_delta_vth(d, 0.03);
        }
        let off = sa.offset_voltage(&opts()).unwrap();
        assert!(off.abs() < 1e-3, "balanced aging offset {off}");
    }

    #[test]
    fn sensing_delay_is_picoseconds() {
        let sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        let d = sa.sensing_delay_mean(&opts()).unwrap();
        assert!(d > 1e-12 && d < 60e-12, "delay {d:e}");
    }

    #[test]
    fn delay_grows_at_low_vdd() {
        let nom = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        let low = SaInstance::fresh(SaKind::Nssa, Environment::nominal().with_vdd_factor(0.9));
        let d_nom = nom.sensing_delay_mean(&opts()).unwrap();
        let d_low = low.sensing_delay_mean(&opts()).unwrap();
        assert!(
            d_low > d_nom,
            "low-Vdd delay {d_low:e} vs nominal {d_nom:e}"
        );
    }

    #[test]
    fn delay_grows_with_temperature() {
        let cold = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        let hot = SaInstance::fresh(SaKind::Nssa, Environment::nominal().with_temp_c(125.0));
        let d_cold = cold.sensing_delay_mean(&opts()).unwrap();
        let d_hot = hot.sensing_delay_mean(&opts()).unwrap();
        assert!(d_hot > d_cold, "hot delay {d_hot:e} vs cold {d_cold:e}");
    }

    #[test]
    fn issa_delay_overhead_is_small() {
        // Table II: NSSA 13.6 ps vs ISSA 13.9 ps at t=0 — the extra pass
        // pair costs only a little junction capacitance.
        let nssa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        let issa = SaInstance::fresh(SaKind::Issa, Environment::nominal());
        let d_n = nssa.sensing_delay_mean(&opts()).unwrap();
        let d_i = issa.sensing_delay_mean(&opts()).unwrap();
        assert!(d_i >= d_n * 0.98, "ISSA should not be faster fresh");
        assert!(
            d_i < d_n * 1.25,
            "ISSA overhead too large: {d_n:e} -> {d_i:e}"
        );
    }

    /// Offset searches of real fast-probe Monte Carlo samples from
    /// deliberately wrong predicted starts: exact, a cell off, just
    /// outside the window, far outside, clamped at either grid end, and
    /// told the wrong side. Each must reproduce the cold search bit for
    /// bit.
    #[test]
    fn wrong_predictions_reproduce_the_cold_search_on_mc_samples() {
        use crate::montecarlo::{build_sample, McConfig};
        use crate::search::Start;
        use crate::workload::{ReadSequence, Workload};
        for kind in [SaKind::Nssa, SaKind::Issa] {
            let cfg = McConfig::smoke(
                kind,
                Workload::new(0.8, ReadSequence::AllZeros),
                Environment::nominal(),
                1e8,
                2,
            );
            let grid = OffsetGrid::from_opts(&cfg.probe);
            for i in 0..cfg.samples {
                let sa = build_sample(&cfg, i);
                let search = |start| sa.run_offset_search(&cfg.probe, OffsetFsm::new(grid, start));
                let (cold, flip) = search(Start::Cold).unwrap();
                let y = flip.lo as f64 + 0.5;
                let n = grid.n as f64;
                for (center, below) in [
                    (y, flip.below),
                    (y + 1.0, flip.below),
                    (y - 1.0, flip.below),
                    (y + 2.5, flip.below),
                    (y - 2.5, !flip.below),
                    (y + 700.0, flip.below),
                    (y - 700.0, !flip.below),
                    (-100.0, flip.below),
                    (n + 100.0, flip.below),
                ] {
                    let start = Start::Predicted {
                        center,
                        half: 1,
                        below,
                    };
                    let (got, f) = search(start).unwrap();
                    assert_eq!(got.to_bits(), cold.to_bits(), "{kind:?} #{i} {start:?}");
                    assert_eq!(f, flip);
                }
            }
        }
    }

    #[test]
    fn out_of_range_instance_fails_from_every_start() {
        use crate::search::Start;
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        sa.set_delta_vth(SaDevice::Mdown, 1.5);
        sa.set_delta_vth(SaDevice::MupBar, 1.5);
        let mut o = opts();
        o.vin_max = 0.05;
        let grid = OffsetGrid::from_opts(&o);
        let n = grid.n as f64;
        for start in [
            Start::Cold,
            Start::Previous(grid.n / 2),
            Start::Predicted {
                center: n / 2.0,
                half: 1,
                below: false,
            },
            Start::Predicted {
                center: n / 2.0,
                half: 1,
                below: true,
            },
            Start::Predicted {
                center: -10.0,
                half: 2,
                below: false,
            },
        ] {
            match sa.run_offset_search(&o, OffsetFsm::new(grid, start)) {
                Err(SaError::OffsetOutOfRange { .. }) => {}
                other => panic!("{start:?}: expected OffsetOutOfRange, got {other:?}"),
            }
        }
    }

    #[test]
    fn gross_failure_reports_out_of_range() {
        let mut sa = SaInstance::fresh(SaKind::Nssa, Environment::nominal());
        // Kill one side completely.
        sa.set_delta_vth(SaDevice::Mdown, 1.5);
        sa.set_delta_vth(SaDevice::MupBar, 1.5);
        let mut o = opts();
        o.vin_max = 0.05;
        match sa.offset_voltage(&o) {
            Err(SaError::OffsetOutOfRange { .. }) => {}
            other => panic!("expected OffsetOutOfRange, got {other:?}"),
        }
    }
}
