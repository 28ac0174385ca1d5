//! Batched lockstep transient engine: K Monte Carlo samples of one corner
//! advance through the backward-Euler/Newton loop together, sharing one
//! structure-of-arrays Jacobian factor+solve per iteration.
//!
//! # Bit-identity contract
//!
//! Every lane performs *exactly* the scalar engine's floating-point
//! operation sequence ([`crate::tran::TranContext::run`] +
//! [`crate::newton`]): the same element stamping order, the same companion
//! forms, the same damping/convergence tests, and an LU that mirrors
//! [`issa_num::matrix::DMatrix::factor_into`] per lane (see
//! [`issa_num::smatrix`]). Lanes never exchange data, so a lane's trace is
//! bit-identical to a scalar run of the same netlist/params — this is
//! asserted by the unit tests here and by the workspace determinism suite.
//!
//! # Scope (what peels off to the scalar path)
//!
//! - Backward Euler only; trapezoidal requests are refused at
//!   [`BatchRunner::start_lane`].
//! - No solver recovery ladder: a lane whose Newton iteration fails is
//!   reported via [`LaneEvent`] and the *caller* reruns that sample through
//!   the scalar path, where [`crate::recovery`] applies as usual.
//! - No fault injection or cooperative-cancellation hooks: both are
//!   thread-local and scoped per scalar sample, so callers route
//!   fault-targeted samples and budget-armed configs to the scalar path and
//!   poll cancellation between [`BatchRunner::step_rounds`] slices.
//!
//! Perf accounting flows through the same counters as the scalar engine
//! (timesteps/newton/LU per lane transient), plus the batched round
//! counters ([`crate::perf::record_batch_rounds`]).

use crate::element::Element;
use crate::mosfet::MosParams;
use crate::netlist::{Netlist, NodeId};
use crate::newton::NewtonOpts;
use crate::perf::{self, LocalCounts};
use crate::trace::Trace;
use crate::tran::{volt, Integrator, RecordSpec, StopCheck, StopWhen, TranParams};
use crate::waveform::Waveform;
use crate::CircuitError;
use issa_num::smatrix::{BatchMatrix, BatchPerm, BatchVec};
use std::fmt;

/// Lane widths with a monomorphized engine.
pub const SUPPORTED_LANE_WIDTHS: [usize; 3] = [4, 8, 16];

/// System sizes (MNA unknown counts) with a monomorphized engine: the
/// SA latch test fixture (4), the NSSA cell (16), and the ISSA cell (20).
pub const SUPPORTED_SYSTEM_SIZES: [usize; 3] = [4, 16, 20];

/// Outcome of one lane's transient, reported by
/// [`BatchRunner::step_rounds`] when the lane finishes or fails.
#[derive(Debug)]
pub struct LaneEvent {
    /// Lane index in `0..lane_width()`.
    pub lane: usize,
    /// `Ok` when the transient ran to `t_stop` (or its early-exit
    /// criterion); the error mirrors what the scalar engine's *first*
    /// attempt at the failing step would produce.
    pub outcome: Result<(), CircuitError>,
}

/// Object-safe facade over the `(N, K)` monomorphizations.
trait EngineDyn: Send {
    fn lane_width(&self) -> usize;
    fn start_lane(
        &mut self,
        lane: usize,
        netlist: &Netlist,
        params: &TranParams,
    ) -> Result<(), CircuitError>;
    fn lane_active(&self, lane: usize) -> bool;
    fn any_active(&self) -> bool;
    fn step_rounds(&mut self, max_rounds: usize, events: &mut Vec<LaneEvent>);
    fn trace(&self, lane: usize) -> &Trace;
}

/// A batched lockstep transient runner for one netlist topology.
///
/// Built once per (template netlist, lane width); each lane is then
/// repeatedly started on a *value-compatible* netlist (same topology,
/// possibly different device parameters/waveforms — the Monte Carlo
/// per-sample variations) and advanced in lockstep with the others via
/// [`BatchRunner::step_rounds`].
pub struct BatchRunner {
    inner: Box<dyn EngineDyn>,
}

impl fmt::Debug for BatchRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchRunner")
            .field("lane_width", &self.inner.lane_width())
            .finish()
    }
}

impl BatchRunner {
    /// Builds a runner for `template`'s topology with the widest supported
    /// lane count ≤ `lanes` (minimum 4). Returns `None` when `lanes < 2`
    /// or the system size has no monomorphization — callers fall back to
    /// the scalar path.
    pub fn new(template: &Netlist, lanes: usize) -> Option<Self> {
        if lanes < 2 {
            return None;
        }
        let k = if lanes >= 16 {
            16
        } else if lanes >= 8 {
            8
        } else {
            4
        };
        let n = template.unknown_count();
        macro_rules! engine {
            ($n:literal, $k:literal) => {
                Box::new(Engine::<$n, $k>::new(template)) as Box<dyn EngineDyn>
            };
        }
        let inner = match (n, k) {
            (4, 4) => engine!(4, 4),
            (4, 8) => engine!(4, 8),
            (4, 16) => engine!(4, 16),
            (16, 4) => engine!(16, 4),
            (16, 8) => engine!(16, 8),
            (16, 16) => engine!(16, 16),
            (20, 4) => engine!(20, 4),
            (20, 8) => engine!(20, 8),
            (20, 16) => engine!(20, 16),
            _ => return None,
        };
        Some(Self { inner })
    }

    /// Number of lanes (K).
    pub fn lane_width(&self) -> usize {
        self.inner.lane_width()
    }

    /// Starts a transient on an idle lane. `netlist` must match the
    /// template's topology; its element *values* (device parameters,
    /// waveforms, capacitances) are read fresh, so callers mutate their
    /// netlist per sample exactly as they would for the scalar engine.
    ///
    /// # Errors
    ///
    /// The scalar engine's validation errors (bad `dt`/`t_stop`, unknown
    /// node names), plus refusals of batch-unsupported requests
    /// (trapezoidal integration, mismatched topology). On error the lane
    /// stays idle and the caller should run the sample through the scalar
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or already running.
    pub fn start_lane(
        &mut self,
        lane: usize,
        netlist: &Netlist,
        params: &TranParams,
    ) -> Result<(), CircuitError> {
        self.inner.start_lane(lane, netlist, params)
    }

    /// Whether `lane` has a transient in flight.
    pub fn lane_active(&self, lane: usize) -> bool {
        self.inner.lane_active(lane)
    }

    /// Whether any lane has a transient in flight.
    pub fn any_active(&self) -> bool {
        self.inner.any_active()
    }

    /// Advances every active lane by up to `max_rounds` lockstep Newton
    /// iterations (one shared batched factor+solve per round). Lanes that
    /// complete or fail are deactivated and reported through `events`;
    /// their traces remain readable until the lane is restarted. Returns
    /// early when no lanes remain active.
    pub fn step_rounds(&mut self, max_rounds: usize, events: &mut Vec<LaneEvent>) {
        self.inner.step_rounds(max_rounds, events);
    }

    /// The trace of `lane`'s most recent transient.
    pub fn trace(&self, lane: usize) -> &Trace {
        self.inner.trace(lane)
    }
}

/// Hoisted iterate-independent pieces of [`MosParams::ids_derivs`]: pure
/// functions of the model card, computed once per (device, lane) per
/// probe start instead of ~14× per Newton iteration. Every cached value is
/// produced by the *same expression* the scalar path evaluates, so
/// [`MosCacheLanes::ids_derivs_lanes`] is bit-identical to the scalar
/// routine (unit tested below).
#[derive(Debug, Clone, Copy)]
struct MosCache {
    s: f64,
    /// `vth0 + delta_vth` (the left-associated prefix of the scalar vth sum).
    vth_base: f64,
    gamma: f64,
    phi: f64,
    sqrt_phi: f64,
    n: f64,
    /// `1.0 / n` (the scalar `dvp_dvg`).
    inv_n: f64,
    two_vt: f64,
    /// `2.0 * n * beta * vt * vt`.
    is_c: f64,
    lambda: f64,
    theta: f64,
}

impl MosCache {
    fn new(p: &MosParams) -> Self {
        Self {
            s: p.polarity.sign(),
            vth_base: p.vth0 + p.delta_vth,
            gamma: p.gamma,
            phi: p.phi,
            sqrt_phi: p.phi.sqrt(),
            n: p.n,
            inv_n: 1.0 / p.n,
            two_vt: 2.0 * p.vt,
            is_c: 2.0 * p.n * p.beta * p.vt * p.vt,
            lambda: p.lambda,
            theta: p.theta,
        }
    }
}

/// [`MosCache`] transposed into structure-of-arrays across lanes, so the
/// lockstep device evaluation reads every cached field as one contiguous
/// `[f64; K]` load and the whole lane loop autovectorizes.
#[derive(Debug, Clone)]
struct MosCacheLanes<const K: usize> {
    s: [f64; K],
    vth_base: [f64; K],
    gamma: [f64; K],
    phi: [f64; K],
    sqrt_phi: [f64; K],
    n: [f64; K],
    inv_n: [f64; K],
    two_vt: [f64; K],
    is_c: [f64; K],
    lambda: [f64; K],
    theta: [f64; K],
}

impl<const K: usize> MosCacheLanes<K> {
    /// Broadcasts one card (the template netlist) to every lane.
    fn new(p: &MosParams) -> Self {
        let c = MosCache::new(p);
        Self {
            s: [c.s; K],
            vth_base: [c.vth_base; K],
            gamma: [c.gamma; K],
            phi: [c.phi; K],
            sqrt_phi: [c.sqrt_phi; K],
            n: [c.n; K],
            inv_n: [c.inv_n; K],
            two_vt: [c.two_vt; K],
            is_c: [c.is_c; K],
            lambda: [c.lambda; K],
            theta: [c.theta; K],
        }
    }

    /// Installs one lane's card (a fresh sample starting on the lane).
    fn set_lane(&mut self, lane: usize, p: &MosParams) {
        let c = MosCache::new(p);
        self.s[lane] = c.s;
        self.vth_base[lane] = c.vth_base;
        self.gamma[lane] = c.gamma;
        self.phi[lane] = c.phi;
        self.sqrt_phi[lane] = c.sqrt_phi;
        self.n[lane] = c.n;
        self.inv_n[lane] = c.inv_n;
        self.two_vt[lane] = c.two_vt;
        self.is_c[lane] = c.is_c;
        self.lambda[lane] = c.lambda;
        self.theta[lane] = c.theta;
    }

    /// Mirror of [`MosParams::ids_derivs`] over all `K` lanes at once,
    /// substituting the cached pure subexpressions. Each lane runs
    /// exactly the scalar operation sequence (identical inputs to
    /// correctly-rounded ops, selects where the scalar code branches on
    /// values), so all five outputs are bit-identical to the scalar
    /// routine per lane — idle lanes compute discarded garbage for free
    /// inside the SIMD width instead of breaking vectorization with a
    /// per-lane skip.
    #[allow(clippy::needless_range_loop, clippy::too_many_arguments)] // lanes-innermost indexed loops over parallel arrays
    fn ids_derivs_lanes(
        &self,
        vd_in: &[f64; K],
        vg_in: &[f64; K],
        vs_in: &[f64; K],
        vb_in: &[f64; K],
        out_id: &mut [f64; K],
        out_dd: &mut [f64; K],
        out_dg: &mut [f64; K],
        out_ds: &mut [f64; K],
        out_db: &mut [f64; K],
    ) {
        for l in 0..K {
            let s = self.s[l];
            let (vd, vg, vs, vb) = (s * vd_in[l], s * vg_in[l], s * vs_in[l], s * vb_in[l]);

            let vsb = vs - vb;
            let vdb = vd - vb;
            let vgb = vg - vb;

            const DELTA: f64 = 1e-8;
            let z = self.phi[l] + vsb;
            let root = (z * z + DELTA).sqrt();
            let ss = (0.5 * (z + root)).sqrt();
            let ss_d = 0.25 * (1.0 + z / root) / ss;
            let vth = self.vth_base[l] + self.gamma[l] * (ss - self.sqrt_phi[l]);
            let vp = (vgb - vth) / self.n[l];
            let dvth_dvs = self.gamma[l] * ss_d;
            let dvp_dvg = self.inv_n[l];
            let dvp_dvs = -dvth_dvs / self.n[l];
            let dvp_dvb = (dvth_dvs - 1.0) / self.n[l];

            let two_vt = self.two_vt[l];
            let (qf, sig_f) = MosParams::softplus_pair((vp - vsb) / two_vt);
            let (qr, sig_r) = MosParams::softplus_pair((vp - vdb) / two_vt);
            let dqf_dvd = 0.0;
            let dqf_dvg = sig_f * dvp_dvg / two_vt;
            let dqf_dvs = sig_f * (dvp_dvs - 1.0) / two_vt;
            let dqf_dvb = sig_f * (dvp_dvb + 1.0) / two_vt;
            let dqr_dvd = -sig_r / two_vt;
            let dqr_dvg = sig_r * dvp_dvg / two_vt;
            let dqr_dvs = sig_r * dvp_dvs / two_vt;
            let dqr_dvb = sig_r * (dvp_dvb + 1.0) / two_vt;

            let is = self.is_c[l];
            let vds = vd - vs;
            let clm = 1.0 + self.lambda[l] * vds.abs();
            let sgn_vds = if vds > 0.0 {
                1.0
            } else if vds < 0.0 {
                -1.0
            } else {
                0.0
            };
            let a = qf * qf - qr * qr;
            let fwd = qf >= qr;
            let qm = if fwd { qf } else { qr };
            let dqm_dvd = if fwd { dqf_dvd } else { dqr_dvd };
            let dqm_dvg = if fwd { dqf_dvg } else { dqr_dvg };
            let dqm_dvs = if fwd { dqf_dvs } else { dqr_dvs };
            let dqm_dvb = if fwd { dqf_dvb } else { dqr_dvb };
            let vov = two_vt * qm;
            let mobility = 1.0 / (1.0 + self.theta[l] * vov);
            let mob_fac = -mobility * mobility * self.theta[l] * two_vt;

            let id = is * a * clm * mobility;
            let deriv = |da: f64, dclm: f64, dqm: f64| {
                is * (da * clm * mobility + a * dclm * mobility + a * clm * mob_fac * dqm)
            };
            out_id[l] = s * id;
            out_dd[l] = deriv(
                2.0 * (qf * dqf_dvd - qr * dqr_dvd),
                self.lambda[l] * sgn_vds,
                dqm_dvd,
            );
            out_dg[l] = deriv(2.0 * (qf * dqf_dvg - qr * dqr_dvg), 0.0, dqm_dvg);
            out_ds[l] = deriv(
                2.0 * (qf * dqf_dvs - qr * dqr_dvs),
                -self.lambda[l] * sgn_vds,
                dqm_dvs,
            );
            out_db[l] = deriv(2.0 * (qf * dqf_dvb - qr * dqr_dvb), 0.0, dqm_dvb);
        }
    }
}

/// Compiled stamping program step, in netlist element order (capacitors
/// stamp nothing and are omitted — the engine owns reactive branches).
#[derive(Debug, Clone, Copy)]
enum Op {
    Resistor(usize),
    VSource(usize),
    ISource(usize),
    Mosfet(usize),
}

struct ResLanes<const K: usize> {
    a: Option<usize>,
    b: Option<usize>,
    /// `1.0 / ohms` per lane (the value both scalar stamps compute).
    g: [f64; K],
}

struct VsrcLanes<const K: usize> {
    p: Option<usize>,
    n: Option<usize>,
    /// Row of the branch-current unknown / branch equation.
    row: usize,
    waves: Vec<Waveform>,
    /// Waveform value at each lane's current step-end time.
    value: [f64; K],
}

struct IsrcLanes<const K: usize> {
    p: Option<usize>,
    n: Option<usize>,
    waves: Vec<Waveform>,
    value: [f64; K],
}

struct MosLanes<const K: usize> {
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
    b: Option<usize>,
    cache: MosCacheLanes<K>,
}

/// One reactive branch's per-lane companion state (backward Euler).
struct CapLanes<const K: usize> {
    a: Option<usize>,
    b: Option<usize>,
    c: [f64; K],
    /// `c / h` for the lane's current step size.
    geq: [f64; K],
    v_prev: [f64; K],
    i_prev: [f64; K],
}

/// Per-lane transient control state.
struct LaneCtl {
    active: bool,
    in_step: bool,
    t: f64,
    step: u64,
    n_steps: u64,
    dt: f64,
    t_stop: f64,
    t_target: f64,
    /// Step size the lane's base-matrix lane was built for (bit compare;
    /// NaN = dirty).
    base_h: f64,
    iter: usize,
    max_newton: usize,
    timesteps: u64,
    newton_iters: u64,
    stop: StopCheck,
    recorded: Vec<NodeId>,
    trace: Trace,
    sample: Vec<f64>,
}

impl LaneCtl {
    fn new() -> Self {
        Self {
            active: false,
            in_step: false,
            t: 0.0,
            step: 0,
            n_steps: 0,
            dt: 0.0,
            t_stop: 0.0,
            t_target: 0.0,
            base_h: f64::NAN,
            iter: 0,
            max_newton: 0,
            timesteps: 0,
            newton_iters: 0,
            stop: StopCheck::Never,
            recorded: Vec::new(),
            trace: Trace::new(Vec::new()),
            sample: Vec::new(),
        }
    }
}

struct Engine<const N: usize, const K: usize> {
    node_count: usize,
    /// Topology the runner was compiled for; lane starts are checked
    /// against it.
    template: Netlist,
    ops: Vec<Op>,
    res: Vec<ResLanes<K>>,
    vsrc: Vec<VsrcLanes<K>>,
    isrc: Vec<IsrcLanes<K>>,
    mos: Vec<MosLanes<K>>,
    caps: Vec<CapLanes<K>>,
    base: BatchMatrix<N, K>,
    jac: BatchMatrix<N, K>,
    residual: BatchVec<N, K>,
    delta: BatchVec<N, K>,
    x: BatchVec<N, K>,
    perm: BatchPerm<N, K>,
    lanes: Vec<LaneCtl>,
}

/// Topology equality: same unknown layout and the same element kinds on
/// the same nodes, element values free to differ per lane.
fn shape_matches(a: &Netlist, b: &Netlist) -> bool {
    if a.unknown_count() != b.unknown_count()
        || a.node_count() != b.node_count()
        || a.elements().len() != b.elements().len()
    {
        return false;
    }
    a.elements()
        .iter()
        .zip(b.elements())
        .all(|(ea, eb)| match (ea, eb) {
            (Element::Resistor(x), Element::Resistor(y)) => x.a == y.a && x.b == y.b,
            (Element::Capacitor(x), Element::Capacitor(y)) => x.a == y.a && x.b == y.b,
            (Element::VSource(x), Element::VSource(y)) => {
                x.p == y.p && x.n == y.n && x.branch == y.branch
            }
            (Element::ISource(x), Element::ISource(y)) => x.p == y.p && x.n == y.n,
            (Element::Mosfet(x), Element::Mosfet(y)) => {
                x.d == y.d && x.g == y.g && x.s == y.s && x.b == y.b
            }
            _ => false,
        })
}

fn add_cond_lane<const N: usize, const K: usize>(
    m: &mut BatchMatrix<N, K>,
    a: Option<usize>,
    b: Option<usize>,
    lane: usize,
    g: f64,
) {
    if let Some(i) = a {
        m.add(i, i, lane, g);
    }
    if let Some(j) = b {
        m.add(j, j, lane, g);
    }
    if let (Some(i), Some(j)) = (a, b) {
        m.add(i, j, lane, -g);
        m.add(j, i, lane, -g);
    }
}

impl<const N: usize, const K: usize> Engine<N, K> {
    fn new(template: &Netlist) -> Self {
        assert_eq!(template.unknown_count(), N, "template size mismatch");
        let node_count = template.node_count();
        let mut ops = Vec::new();
        let mut res = Vec::new();
        let mut vsrc = Vec::new();
        let mut isrc = Vec::new();
        let mut mos = Vec::new();
        for e in template.elements() {
            match e {
                Element::Resistor(r) => {
                    ops.push(Op::Resistor(res.len()));
                    res.push(ResLanes {
                        a: r.a.unknown_index(),
                        b: r.b.unknown_index(),
                        g: [1.0 / r.ohms; K],
                    });
                }
                Element::Capacitor(_) => {}
                Element::VSource(v) => {
                    ops.push(Op::VSource(vsrc.len()));
                    vsrc.push(VsrcLanes {
                        p: v.p.unknown_index(),
                        n: v.n.unknown_index(),
                        row: node_count + v.branch,
                        waves: vec![v.waveform.clone(); K],
                        value: [0.0; K],
                    });
                }
                Element::ISource(i) => {
                    ops.push(Op::ISource(isrc.len()));
                    isrc.push(IsrcLanes {
                        p: i.p.unknown_index(),
                        n: i.n.unknown_index(),
                        waves: vec![i.waveform.clone(); K],
                        value: [0.0; K],
                    });
                }
                Element::Mosfet(m) => {
                    ops.push(Op::Mosfet(mos.len()));
                    mos.push(MosLanes {
                        d: m.d.unknown_index(),
                        g: m.g.unknown_index(),
                        s: m.s.unknown_index(),
                        b: m.b.unknown_index(),
                        cache: MosCacheLanes::new(&m.params),
                    });
                }
            }
        }
        let caps = template
            .reactive_branches()
            .iter()
            .map(|br| CapLanes {
                a: br.a.unknown_index(),
                b: br.b.unknown_index(),
                c: [br.capacitance; K],
                geq: [0.0; K],
                v_prev: [0.0; K],
                i_prev: [0.0; K],
            })
            .collect();
        Self {
            node_count,
            template: template.clone(),
            ops,
            res,
            vsrc,
            isrc,
            mos,
            caps,
            base: BatchMatrix::zeros(),
            jac: BatchMatrix::zeros(),
            residual: BatchVec::new(),
            delta: BatchVec::new(),
            x: BatchVec::new(),
            perm: BatchPerm::new(),
            lanes: (0..K).map(|_| LaneCtl::new()).collect(),
        }
    }

    /// Rebuilds `lane`'s column of the base (constant) Jacobian for its
    /// current step size, mirroring the scalar base build: constant
    /// element stamps in element order, then the reactive companion
    /// conductances in branch order.
    fn rebuild_base_lane(&mut self, lane: usize) {
        let Engine {
            ref mut base,
            ref ops,
            ref res,
            ref vsrc,
            ref caps,
            ..
        } = *self;
        base.fill_lane_zero(lane);
        for op in ops {
            match *op {
                Op::Resistor(i) => {
                    let r = &res[i];
                    add_cond_lane(base, r.a, r.b, lane, r.g[lane]);
                }
                Op::VSource(i) => {
                    let v = &vsrc[i];
                    if let Some(ip) = v.p {
                        base.add(ip, v.row, lane, 1.0);
                        base.add(v.row, ip, lane, 1.0);
                    }
                    if let Some(in_) = v.n {
                        base.add(in_, v.row, lane, -1.0);
                        base.add(v.row, in_, lane, -1.0);
                    }
                }
                Op::ISource(_) | Op::Mosfet(_) => {}
            }
        }
        for cap in caps {
            add_cond_lane(base, cap.a, cap.b, lane, cap.geq[lane]);
        }
    }

    /// Begins the next base step on `lane` (assumed active, not in a
    /// step): advances the step counter past already-covered targets,
    /// finishes the lane when the run is complete, otherwise fixes
    /// `t_target`, rebuilds the base on step-size change (the clamped
    /// final step), and caches source waveform values at `t_target`.
    fn begin_step(&mut self, lane: usize, events: &mut Vec<LaneEvent>) {
        let mut done = false;
        let mut h = 0.0;
        let mut rebuild = false;
        {
            let lc = &mut self.lanes[lane];
            loop {
                lc.step += 1;
                if lc.step > lc.n_steps {
                    done = true;
                    break;
                }
                let t_target = (lc.step as f64 * lc.dt).min(lc.t_stop);
                if t_target <= lc.t {
                    continue;
                }
                lc.t_target = t_target;
                break;
            }
            if !done {
                h = lc.t_target - lc.t;
                lc.iter = 0;
                lc.in_step = true;
                if h.to_bits() != lc.base_h.to_bits() {
                    rebuild = true;
                    lc.base_h = h;
                }
            }
        }
        if done {
            self.finish_lane(lane, Ok(()), events);
            return;
        }
        if rebuild {
            for cap in &mut self.caps {
                // Same division the scalar engine performs per iteration.
                cap.geq[lane] = cap.c[lane] / h;
            }
            self.rebuild_base_lane(lane);
        }
        let t_target = self.lanes[lane].t_target;
        for v in &mut self.vsrc {
            v.value[lane] = v.waves[lane].eval(t_target);
        }
        for i in &mut self.isrc {
            i.value[lane] = i.waves[lane].eval(t_target);
        }
    }

    /// Stamps the per-iteration (varying) contributions for all lanes in
    /// scalar element order, then the reactive companion currents in
    /// branch order. Every stamp — including the MOSFET evaluation — runs
    /// for every lane so the lane loops stay branch-free and vectorize;
    /// idle lanes' garbage rows are never read back.
    #[allow(clippy::needless_range_loop)] // lanes-innermost indexed loops over parallel arrays
    fn stamp_varying(&mut self) {
        let Engine {
            ref x,
            ref mut jac,
            ref mut residual,
            ref ops,
            ref res,
            ref vsrc,
            ref isrc,
            ref mos,
            ref caps,
            ..
        } = *self;
        let zero = [0.0f64; K];
        let lane_of = |idx: Option<usize>| -> [f64; K] {
            match idx {
                Some(i) => x.at(i).0,
                None => zero,
            }
        };
        for op in ops {
            match *op {
                Op::Resistor(i) => {
                    let r = &res[i];
                    let va = lane_of(r.a);
                    let vb = lane_of(r.b);
                    let mut cur = [0.0f64; K];
                    for l in 0..K {
                        cur[l] = r.g[l] * (va[l] - vb[l]);
                    }
                    if let Some(ia) = r.a {
                        let rr = &mut residual.at_mut(ia).0;
                        for l in 0..K {
                            rr[l] += cur[l];
                        }
                    }
                    if let Some(ib) = r.b {
                        let rr = &mut residual.at_mut(ib).0;
                        for l in 0..K {
                            rr[l] -= cur[l];
                        }
                    }
                }
                Op::VSource(i) => {
                    let v = &vsrc[i];
                    let i_br = x.at(v.row).0;
                    if let Some(ip) = v.p {
                        let rr = &mut residual.at_mut(ip).0;
                        for l in 0..K {
                            rr[l] += i_br[l];
                        }
                    }
                    if let Some(in_) = v.n {
                        let rr = &mut residual.at_mut(in_).0;
                        for l in 0..K {
                            rr[l] -= i_br[l];
                        }
                    }
                    let vp = lane_of(v.p);
                    let vn = lane_of(v.n);
                    let rr = &mut residual.at_mut(v.row).0;
                    for l in 0..K {
                        rr[l] += vp[l] - vn[l] - v.value[l];
                    }
                }
                Op::ISource(i) => {
                    let is_ = &isrc[i];
                    if let Some(ip) = is_.p {
                        let rr = &mut residual.at_mut(ip).0;
                        for l in 0..K {
                            rr[l] += -is_.value[l];
                        }
                    }
                    if let Some(in_) = is_.n {
                        let rr = &mut residual.at_mut(in_).0;
                        for l in 0..K {
                            rr[l] -= -is_.value[l];
                        }
                    }
                }
                Op::Mosfet(i) => {
                    let m = &mos[i];
                    let vd = lane_of(m.d);
                    let vg = lane_of(m.g);
                    let vs = lane_of(m.s);
                    let vb = lane_of(m.b);
                    let mut id = [0.0f64; K];
                    let mut dd = [0.0f64; K];
                    let mut dg = [0.0f64; K];
                    let mut ds = [0.0f64; K];
                    let mut db = [0.0f64; K];
                    m.cache.ids_derivs_lanes(
                        &vd, &vg, &vs, &vb, &mut id, &mut dd, &mut dg, &mut ds, &mut db,
                    );
                    if let Some(ia) = m.d {
                        let rr = &mut residual.at_mut(ia).0;
                        for l in 0..K {
                            rr[l] += id[l];
                        }
                    }
                    if let Some(ib) = m.s {
                        let rr = &mut residual.at_mut(ib).0;
                        for l in 0..K {
                            rr[l] -= id[l];
                        }
                    }
                    for (wrt, didv) in [(m.d, &dd), (m.g, &dg), (m.s, &ds), (m.b, &db)] {
                        if let Some(col) = wrt {
                            if let Some(row) = m.d {
                                let jj = &mut jac.at_mut(row, col).0;
                                for l in 0..K {
                                    jj[l] += didv[l];
                                }
                            }
                            if let Some(row) = m.s {
                                let jj = &mut jac.at_mut(row, col).0;
                                for l in 0..K {
                                    jj[l] -= didv[l];
                                }
                            }
                        }
                    }
                }
            }
        }
        for cap in caps {
            let va = lane_of(cap.a);
            let vb = lane_of(cap.b);
            let mut cur = [0.0f64; K];
            for l in 0..K {
                let vab = va[l] - vb[l];
                cur[l] = cap.geq[l] * (vab - cap.v_prev[l]);
            }
            if let Some(ia) = cap.a {
                let rr = &mut residual.at_mut(ia).0;
                for l in 0..K {
                    rr[l] += cur[l];
                }
            }
            if let Some(ib) = cap.b {
                let rr = &mut residual.at_mut(ib).0;
                for l in 0..K {
                    rr[l] -= cur[l];
                }
            }
        }
    }

    /// Runs one lockstep Newton iteration across every in-step lane.
    /// Returns the number of lanes that participated.
    fn newton_round(&mut self, events: &mut Vec<LaneEvent>) -> u64 {
        let mut act = [false; K];
        let mut n_act = 0u64;
        for (l, lc) in self.lanes.iter().enumerate() {
            if lc.active && lc.in_step {
                act[l] = true;
                n_act += 1;
            }
        }
        if n_act == 0 {
            return 0;
        }

        self.jac.copy_from(&self.base);
        self.residual.fill_zero();
        self.stamp_varying();
        for (l, lc) in self.lanes.iter_mut().enumerate() {
            if act[l] {
                lc.newton_iters += 1;
            }
        }
        let errs = self.jac.factor_into(&mut self.perm);
        // Solve J·Δ = −F (negate every lane; idle-lane garbage is unused).
        for lane_vals in self.residual.lanes_mut() {
            for v in lane_vals.0.iter_mut() {
                *v = -*v;
            }
        }
        self.jac
            .solve_factored(&self.perm, &self.residual, &mut self.delta);

        let opts = NewtonOpts::default();
        for l in 0..K {
            if !act[l] {
                continue;
            }
            if let Some(e) = errs[l] {
                let (iter, time) = {
                    let lc = &self.lanes[l];
                    (lc.iter, lc.t_target)
                };
                self.finish_lane(
                    l,
                    Err(CircuitError::Singular {
                        context: format!("newton iteration {iter} at t={time:e}: {e}"),
                    }),
                    events,
                );
                continue;
            }
            // Damping: cap the largest voltage move (scalar order of ops).
            let mut max_dv = 0.0f64;
            for i in 0..self.node_count {
                max_dv = max_dv.max(self.delta.get(i, l).abs());
            }
            let scale = if max_dv > opts.max_step {
                opts.max_step / max_dv
            } else {
                1.0
            };
            let mut max_dx = 0.0f64;
            for i in 0..N {
                let step = scale * self.delta.get(i, l);
                self.x.set(i, l, self.x.get(i, l) + step);
                max_dx = max_dx.max(step.abs());
            }

            if !max_dx.is_finite() {
                let (iter, time) = {
                    let lc = &self.lanes[l];
                    (lc.iter, lc.t_target)
                };
                self.finish_lane(
                    l,
                    Err(CircuitError::NonConvergence {
                        time,
                        iterations: iter + 1,
                        residual: f64::INFINITY,
                    }),
                    events,
                );
                continue;
            }
            if max_dx < opts.dx_tol && scale == 1.0 {
                self.accept_step(l, events);
                continue;
            }
            let lc = &mut self.lanes[l];
            lc.iter += 1;
            if lc.iter >= lc.max_newton {
                // |−F| = |F|: the sign flip above doesn't change the norm.
                let mut res_norm = 0.0f64;
                for i in 0..N {
                    res_norm = res_norm.max(self.residual.get(i, l).abs());
                }
                let (time, max_newton) = {
                    let lc = &self.lanes[l];
                    (lc.t_target, lc.max_newton)
                };
                self.finish_lane(
                    l,
                    Err(CircuitError::NonConvergence {
                        time,
                        iterations: max_newton,
                        residual: res_norm,
                    }),
                    events,
                );
            }
        }
        n_act
    }

    /// Commits an accepted base step on `lane`: companion history, trace
    /// sample, and early-exit check, in the scalar engine's order.
    fn accept_step(&mut self, lane: usize, events: &mut Vec<LaneEvent>) {
        let mut xl = [0.0f64; N];
        self.x.store_lane(lane, &mut xl);
        for cap in &mut self.caps {
            let va = cap.a.map_or(0.0, |i| xl[i]);
            let vb = cap.b.map_or(0.0, |i| xl[i]);
            let vab = va - vb;
            let i = cap.geq[lane] * (vab - cap.v_prev[lane]);
            cap.v_prev[lane] = vab;
            cap.i_prev[lane] = i;
        }
        let lc = &mut self.lanes[lane];
        lc.timesteps += 1;
        lc.t = lc.t_target;
        lc.in_step = false;
        for (slot, id) in lc.sample.iter_mut().zip(&lc.recorded) {
            *slot = volt(&xl, *id);
        }
        lc.trace.push(lc.t, &lc.sample);
        if lc.stop.triggered(&xl, lc.t) {
            self.finish_lane(lane, Ok(()), events);
        }
    }

    /// Deactivates `lane`, flushes its perf counts (success adds one
    /// completed transient, mirroring the scalar engine), and reports the
    /// outcome.
    fn finish_lane(
        &mut self,
        lane: usize,
        outcome: Result<(), CircuitError>,
        events: &mut Vec<LaneEvent>,
    ) {
        let lc = &mut self.lanes[lane];
        lc.active = false;
        lc.in_step = false;
        LocalCounts {
            timesteps: lc.timesteps,
            newton_iterations: lc.newton_iters,
            lu_factorizations: lc.newton_iters,
            ..LocalCounts::default()
        }
        .flush(outcome.is_ok());
        events.push(LaneEvent { lane, outcome });
    }
}

impl<const N: usize, const K: usize> EngineDyn for Engine<N, K> {
    fn lane_width(&self) -> usize {
        K
    }

    fn start_lane(
        &mut self,
        lane: usize,
        netlist: &Netlist,
        params: &TranParams,
    ) -> Result<(), CircuitError> {
        assert!(lane < K, "lane {lane} out of range (K = {K})");
        assert!(!self.lanes[lane].active, "lane {lane} already running");

        // Scalar validation, same messages.
        if params.dt <= 0.0 || !params.dt.is_finite() {
            return Err(CircuitError::InvalidParameter {
                message: format!("time step must be positive, got {}", params.dt),
            });
        }
        if params.t_stop <= 0.0 || !params.t_stop.is_finite() {
            return Err(CircuitError::InvalidParameter {
                message: format!("stop time must be positive, got {}", params.t_stop),
            });
        }
        // Batch-mode refusals (caller falls back to the scalar path).
        if matches!(params.integrator, Integrator::Trapezoidal) {
            return Err(CircuitError::InvalidParameter {
                message: "batched transient supports backward Euler only".to_owned(),
            });
        }
        if !shape_matches(&self.template, netlist) {
            return Err(CircuitError::InvalidParameter {
                message: "netlist does not match the batch template topology".to_owned(),
            });
        }
        let branches = netlist.reactive_branches();
        if branches.len() != self.caps.len()
            || self
                .caps
                .iter()
                .zip(&branches)
                .any(|(cap, br)| cap.a != br.a.unknown_index() || cap.b != br.b.unknown_index())
        {
            return Err(CircuitError::InvalidParameter {
                message: "netlist reactive branches do not match the batch template".to_owned(),
            });
        }

        let find = |name: &str| -> Result<NodeId, CircuitError> {
            netlist
                .find_node(name)
                .ok_or_else(|| CircuitError::InvalidParameter {
                    message: format!("node '{name}' does not exist"),
                })
        };

        // Resolve recorded nodes.
        let recorded: Vec<(String, NodeId)> = match &params.record {
            RecordSpec::All => netlist
                .node_ids()
                .map(|id| (netlist.node_name(id).to_owned(), id))
                .collect(),
            RecordSpec::Nodes(names) => {
                let mut v = Vec::with_capacity(names.len());
                for name in names {
                    let id =
                        netlist
                            .find_node(name)
                            .ok_or_else(|| CircuitError::InvalidParameter {
                                message: format!("recorded node '{name}' does not exist"),
                            })?;
                    v.push((name.clone(), id));
                }
                v
            }
        };

        // Resolve ICs.
        let mut ics = Vec::with_capacity(params.ics.len());
        for (name, volts) in &params.ics {
            let id = netlist
                .find_node(name)
                .ok_or_else(|| CircuitError::InvalidParameter {
                    message: format!("IC node '{name}' does not exist"),
                })?;
            ics.push((id, *volts));
        }

        // Resolve the early-exit criterion's nodes.
        enum StopPre {
            Never,
            Diff(NodeId, NodeId, f64),
            Rise(NodeId, f64, f64),
        }
        let stop_pre = match &params.stop {
            StopWhen::AtStop => StopPre::Never,
            StopWhen::DiffExceeds { a, b, threshold } => {
                StopPre::Diff(find(a)?, find(b)?, *threshold)
            }
            StopWhen::RisesThrough { node, level, after } => {
                StopPre::Rise(find(node)?, *level, *after)
            }
        };

        // Validation complete — mutate the lane.
        for i in 0..N {
            self.x.set(i, lane, 0.0);
        }
        for (id, volts) in &ics {
            if let Some(i) = id.unknown_index() {
                self.x.set(i, lane, *volts);
            }
        }
        let mut xl = [0.0f64; N];
        self.x.store_lane(lane, &mut xl);

        // Per-lane element values, fresh from the caller's netlist.
        let (mut ri, mut vi, mut ii, mut mi) = (0usize, 0usize, 0usize, 0usize);
        for e in netlist.elements() {
            match e {
                Element::Resistor(r) => {
                    self.res[ri].g[lane] = 1.0 / r.ohms;
                    ri += 1;
                }
                Element::Capacitor(_) => {}
                Element::VSource(v) => {
                    self.vsrc[vi].waves[lane] = v.waveform.clone();
                    self.vsrc[vi].value[lane] = 0.0;
                    vi += 1;
                }
                Element::ISource(i) => {
                    self.isrc[ii].waves[lane] = i.waveform.clone();
                    self.isrc[ii].value[lane] = 0.0;
                    ii += 1;
                }
                Element::Mosfet(m) => {
                    self.mos[mi].cache.set_lane(lane, &m.params);
                    mi += 1;
                }
            }
        }
        for (cap, br) in self.caps.iter_mut().zip(&branches) {
            cap.c[lane] = br.capacitance;
            cap.geq[lane] = 0.0;
            cap.v_prev[lane] = volt(&xl, br.a) - volt(&xl, br.b);
            cap.i_prev[lane] = 0.0;
        }

        let lc = &mut self.lanes[lane];
        lc.stop = match stop_pre {
            StopPre::Never => StopCheck::Never,
            StopPre::Diff(a, b, threshold) => StopCheck::Diff { a, b, threshold },
            StopPre::Rise(node, level, after) => StopCheck::Rise {
                node,
                level,
                after,
                y_prev: volt(&xl, node),
                t_prev: 0.0,
            },
        };
        lc.recorded = recorded.iter().map(|(_, id)| *id).collect();
        lc.trace
            .reset(recorded.iter().map(|(name, _)| name.clone()).collect());
        lc.sample.clear();
        lc.sample.resize(recorded.len(), 0.0);
        for (slot, (_, id)) in lc.sample.iter_mut().zip(&recorded) {
            *slot = volt(&xl, *id);
        }
        lc.trace.push(0.0, &lc.sample);

        lc.active = true;
        lc.in_step = false;
        lc.t = 0.0;
        lc.step = 0;
        lc.n_steps = (params.t_stop / params.dt).ceil() as u64;
        lc.dt = params.dt;
        lc.t_stop = params.t_stop;
        lc.t_target = 0.0;
        lc.base_h = f64::NAN;
        lc.iter = 0;
        lc.max_newton = params.max_newton;
        lc.timesteps = 0;
        lc.newton_iters = 0;
        Ok(())
    }

    fn lane_active(&self, lane: usize) -> bool {
        self.lanes[lane].active
    }

    fn any_active(&self) -> bool {
        self.lanes.iter().any(|lc| lc.active)
    }

    fn step_rounds(&mut self, max_rounds: usize, events: &mut Vec<LaneEvent>) {
        let mut rounds = 0u64;
        let mut lane_steps = 0u64;
        for _ in 0..max_rounds {
            for l in 0..K {
                if self.lanes[l].active && !self.lanes[l].in_step {
                    self.begin_step(l, events);
                }
            }
            let n_act = self.newton_round(events);
            if n_act == 0 {
                break;
            }
            rounds += 1;
            lane_steps += n_act;
        }
        if rounds > 0 {
            perf::record_batch_rounds(rounds, lane_steps);
        }
    }

    fn trace(&self, lane: usize) -> &Trace {
        &self.lanes[lane].trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosPolarity;
    use crate::tran::TranContext;

    fn nmos(beta: f64) -> MosParams {
        MosParams {
            polarity: MosPolarity::Nmos,
            vth0: 0.45,
            beta,
            n: 1.3,
            vt: 0.02585,
            lambda: 0.1,
            theta: 0.2,
            gamma: 0.2,
            phi: 0.8,
            cgs: 1e-16,
            cgd: 1e-16,
            cdb: 1e-16,
            csb: 1e-16,
            delta_vth: 0.0,
        }
    }

    fn pmos(beta: f64) -> MosParams {
        MosParams {
            polarity: MosPolarity::Pmos,
            ..nmos(beta)
        }
    }

    /// The tran.rs cross-coupled latch: 4 MNA unknowns (vdd, s, sbar + one
    /// source branch), the smallest supported batch size.
    fn latch_netlist(delta_vth: f64) -> Netlist {
        let mut n = Netlist::new();
        let vdd = n.node("vdd");
        let s = n.node("s");
        let sbar = n.node("sbar");
        n.vsource(vdd, Netlist::GROUND, Waveform::dc(1.0));
        let mut mpa = pmos(2e-3);
        mpa.delta_vth = delta_vth;
        n.mosfet("MPA", sbar, s, vdd, vdd, mpa);
        n.mosfet("MNA", sbar, s, Netlist::GROUND, Netlist::GROUND, nmos(1e-3));
        n.mosfet("MPB", s, sbar, vdd, vdd, pmos(2e-3));
        n.mosfet("MNB", s, sbar, Netlist::GROUND, Netlist::GROUND, nmos(1e-3));
        n.capacitor(s, Netlist::GROUND, 1e-15);
        n.capacitor(sbar, Netlist::GROUND, 1e-15);
        n
    }

    fn latch_params(s_ic: f64, t_stop: f64) -> TranParams {
        TranParams::new(t_stop, 1e-12)
            .record_nodes(["s", "sbar"])
            .ic("vdd", 1.0)
            .ic("s", s_ic)
            .ic("sbar", 1.0 - s_ic)
    }

    fn run_to_completion(runner: &mut BatchRunner) -> Vec<LaneEvent> {
        let mut events = Vec::new();
        while runner.any_active() {
            runner.step_rounds(256, &mut events);
        }
        events
    }

    #[test]
    fn mos_lane_eval_is_bit_identical_to_ids_derivs() {
        // Four different cards spread across four lanes, each lane probed
        // at every bias: the SoA lane evaluation must reproduce the
        // scalar routine bit-for-bit per lane.
        let cards = [
            nmos(1e-3),
            pmos(2e-3),
            MosParams {
                delta_vth: 0.037,
                ..nmos(2.5e-3)
            },
            MosParams {
                delta_vth: -0.02,
                ..pmos(1.5e-3)
            },
        ];
        let mut lanes = MosCacheLanes::<4>::new(&cards[0]);
        for (l, p) in cards.iter().enumerate() {
            lanes.set_lane(l, p);
        }
        let biases = [
            (1.0, 1.0, 0.0, 0.0),
            (0.05, 1.0, 0.0, 0.0),
            (1.0, 0.2, 0.0, 0.0),
            (0.5, 0.8, 0.5, 0.0),
            (0.5001, 0.8, 0.5, 0.0),
            (0.4999, 0.8, 0.5, 0.0),
            (0.3, 1.0, 0.6, 0.0),
            (1.0, 0.7, 0.3, 0.0),
            (-0.2, 0.4, 0.9, 0.1),
        ];
        for &(vd, vg, vs, vb) in &biases {
            let mut id = [0.0; 4];
            let mut dd = [0.0; 4];
            let mut dg = [0.0; 4];
            let mut ds = [0.0; 4];
            let mut db = [0.0; 4];
            lanes.ids_derivs_lanes(
                &[vd; 4], &[vg; 4], &[vs; 4], &[vb; 4], &mut id, &mut dd, &mut dg, &mut ds, &mut db,
            );
            for (l, p) in cards.iter().enumerate() {
                let scalar = p.ids_derivs(vd, vg, vs, vb);
                for (i, (a, b)) in [
                    (scalar.0, id[l]),
                    (scalar.1, dd[l]),
                    (scalar.2, dg[l]),
                    (scalar.3, ds[l]),
                    (scalar.4, db[l]),
                ]
                .iter()
                .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "lane {l} output {i} at bias ({vd},{vg},{vs},{vb}): {a:e} vs {b:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_latch_traces_match_scalar_bitwise() {
        let template = latch_netlist(0.0);
        let mut runner = BatchRunner::new(&template, 4).expect("supported (N, K)");
        assert_eq!(runner.lane_width(), 4);
        // Four different samples: per-lane netlists differing in device
        // parameters (as Monte Carlo samples do) and per-lane ICs.
        let deltas = [0.0, 0.012, -0.008, 0.03];
        let s_ics = [0.52, 0.48, 0.505, 0.501];
        let mut nets = Vec::new();
        for lane in 0..4 {
            let n = latch_netlist(deltas[lane]);
            let p = latch_params(s_ics[lane], 1e-9);
            runner.start_lane(lane, &n, &p).unwrap();
            nets.push((n, p));
        }
        let events = run_to_completion(&mut runner);
        assert_eq!(events.len(), 4);
        for e in &events {
            assert!(e.outcome.is_ok(), "lane {}: {:?}", e.lane, e.outcome);
        }
        for (lane, (n, p)) in nets.iter().enumerate() {
            let mut ctx = TranContext::new(n);
            let scalar = ctx.run(n, p).unwrap();
            assert_eq!(scalar, runner.trace(lane), "lane {lane}");
        }
    }

    #[test]
    fn early_exit_lanes_peel_off_without_disturbing_others() {
        // Two lanes early-exit (DiffExceeds) at different times while two
        // run to t_stop: continuing lanes must stay bit-identical.
        let template = latch_netlist(0.0);
        let mut runner = BatchRunner::new(&template, 4).unwrap();
        let stop = StopWhen::DiffExceeds {
            a: "s".into(),
            b: "sbar".into(),
            threshold: 0.6,
        };
        let mut cases = Vec::new();
        for (lane, (s_ic, early)) in [(0.52, true), (0.48, false), (0.51, true), (0.505, false)]
            .into_iter()
            .enumerate()
        {
            let n = latch_netlist(0.0);
            let mut p = latch_params(s_ic, 2e-9);
            if early {
                p = p.stop_when(stop.clone());
            }
            runner.start_lane(lane, &n, &p).unwrap();
            cases.push((n, p));
        }
        let events = run_to_completion(&mut runner);
        assert!(events.iter().all(|e| e.outcome.is_ok()));
        let mut lens = Vec::new();
        for (lane, (n, p)) in cases.iter().enumerate() {
            let mut ctx = TranContext::new(n);
            let scalar = ctx.run(n, p).unwrap();
            assert_eq!(scalar, runner.trace(lane), "lane {lane}");
            lens.push(runner.trace(lane).len());
        }
        assert!(lens[0] < lens[1], "lane 0 should exit early");
        assert!(lens[2] < lens[3], "lane 2 should exit early");
    }

    #[test]
    fn clamped_final_step_matches_scalar() {
        // t_stop not a multiple of dt: the last step shrinks, forcing the
        // per-lane base rebuild mid-run.
        let template = latch_netlist(0.0);
        let mut runner = BatchRunner::new(&template, 4).unwrap();
        let mut cases = Vec::new();
        for (lane, s_ic) in [0.52, 0.48, 0.505, 0.501].into_iter().enumerate() {
            let n = latch_netlist(0.0);
            let p = latch_params(s_ic, 1.0005e-9);
            runner.start_lane(lane, &n, &p).unwrap();
            cases.push((n, p));
        }
        let events = run_to_completion(&mut runner);
        assert!(events.iter().all(|e| e.outcome.is_ok()));
        for (lane, (n, p)) in cases.iter().enumerate() {
            let mut ctx = TranContext::new(n);
            let scalar = ctx.run(n, p).unwrap();
            let tr = runner.trace(lane);
            assert_eq!(scalar, tr, "lane {lane}");
            assert_eq!(tr.time().last().copied(), Some(1.0005e-9));
        }
    }

    #[test]
    fn failing_lane_is_isolated() {
        // A NaN device parameter wrecks one lane's Newton solve; the other
        // lanes must complete bit-identically to scalar runs.
        let template = latch_netlist(0.0);
        let mut runner = BatchRunner::new(&template, 4).unwrap();
        let mut cases = Vec::new();
        for (lane, s_ic) in [0.52, 0.48, 0.505, 0.501].into_iter().enumerate() {
            let mut n = latch_netlist(0.0);
            if lane == 2 {
                let idx = n.find_mosfet("MPA").unwrap();
                n.mosfet_mut(idx).params.beta = f64::NAN;
            }
            let p = latch_params(s_ic, 1e-9);
            runner.start_lane(lane, &n, &p).unwrap();
            cases.push((n, p));
        }
        let events = run_to_completion(&mut runner);
        assert_eq!(events.len(), 4);
        for e in &events {
            if e.lane == 2 {
                assert!(e.outcome.is_err(), "poisoned lane must fail");
            } else {
                assert!(e.outcome.is_ok(), "lane {}: {:?}", e.lane, e.outcome);
            }
        }
        for (lane, (n, p)) in cases.iter().enumerate() {
            if lane == 2 {
                continue;
            }
            let mut ctx = TranContext::new(n);
            let scalar = ctx.run(n, p).unwrap();
            assert_eq!(scalar, runner.trace(lane), "lane {lane}");
        }
    }

    #[test]
    fn lane_reuse_and_partial_occupancy_match_scalar() {
        // K = 8 with only 3 lanes started, then a finished lane restarted
        // with a new sample — the refill path the core scheduler uses.
        let template = latch_netlist(0.0);
        let mut runner = BatchRunner::new(&template, 8).unwrap();
        assert_eq!(runner.lane_width(), 8);
        let first = [0.52, 0.48, 0.505];
        let mut cases = Vec::new();
        for (lane, s_ic) in first.into_iter().enumerate() {
            let n = latch_netlist(0.0);
            let p = latch_params(s_ic, 1e-9);
            runner.start_lane(lane, &n, &p).unwrap();
            cases.push((n, p));
        }
        let events = run_to_completion(&mut runner);
        assert_eq!(events.len(), 3);
        for (lane, (n, p)) in cases.iter().enumerate() {
            let mut ctx = TranContext::new(n);
            assert_eq!(ctx.run(n, p).unwrap(), runner.trace(lane), "lane {lane}");
        }
        // Refill lane 1 with a fresh sample.
        let n = latch_netlist(0.021);
        let p = latch_params(0.495, 1e-9);
        runner.start_lane(1, &n, &p).unwrap();
        let events = run_to_completion(&mut runner);
        assert_eq!(events.len(), 1);
        assert!(events[0].outcome.is_ok());
        let mut ctx = TranContext::new(&n);
        assert_eq!(ctx.run(&n, &p).unwrap(), runner.trace(1));
    }

    #[test]
    fn rises_through_crossing_is_bit_identical() {
        let template = latch_netlist(0.0);
        let mut runner = BatchRunner::new(&template, 4).unwrap();
        let n = latch_netlist(0.0);
        let p = latch_params(0.52, 2e-9).stop_when(StopWhen::RisesThrough {
            node: "s".into(),
            level: 0.9,
            after: 10e-12,
        });
        runner.start_lane(0, &n, &p).unwrap();
        let events = run_to_completion(&mut runner);
        assert!(events[0].outcome.is_ok());
        let mut ctx = TranContext::new(&n);
        assert_eq!(ctx.run(&n, &p).unwrap(), runner.trace(0));
    }

    #[test]
    fn start_lane_mirrors_scalar_validation_and_refuses_unsupported() {
        let template = latch_netlist(0.0);
        let mut runner = BatchRunner::new(&template, 4).unwrap();
        let n = latch_netlist(0.0);
        for p in [
            TranParams::new(1e-9, 0.0),
            TranParams::new(-1.0, 1e-12),
            TranParams::new(1e-9, 1e-12).ic("nope", 1.0),
            TranParams::new(1e-9, 1e-12).record_nodes(["nope"]),
            TranParams::new(1e-9, 1e-12).integrator(Integrator::Trapezoidal),
        ] {
            assert!(matches!(
                runner.start_lane(0, &n, &p),
                Err(CircuitError::InvalidParameter { .. })
            ));
            assert!(!runner.lane_active(0), "failed start must leave lane idle");
        }
        // Topology mismatch: an extra element.
        let mut other = latch_netlist(0.0);
        other.resistor(other.find_node("s").unwrap(), Netlist::GROUND, 1e6);
        assert!(matches!(
            runner.start_lane(0, &other, &TranParams::new(1e-9, 1e-12)),
            Err(CircuitError::InvalidParameter { .. })
        ));
        // Unsupported sizes/widths return None instead of a runner.
        assert!(BatchRunner::new(&template, 1).is_none());
        let mut tiny = Netlist::new();
        let a = tiny.node("a");
        tiny.resistor(a, Netlist::GROUND, 1.0);
        tiny.capacitor(a, Netlist::GROUND, 1e-12);
        assert!(BatchRunner::new(&tiny, 4).is_none(), "N=1 unsupported");
    }

    #[test]
    fn batch_perf_counters_are_recorded() {
        let template = latch_netlist(0.0);
        let mut runner = BatchRunner::new(&template, 4).unwrap();
        // The runner works on this thread, so this thread's counters are
        // exactly its own; the global ones also count sibling tests.
        let before = perf::thread_snapshot();
        for (lane, s_ic) in [0.52, 0.48].into_iter().enumerate() {
            let n = latch_netlist(0.0);
            runner
                .start_lane(lane, &n, &latch_params(s_ic, 1e-10))
                .unwrap();
        }
        let events = run_to_completion(&mut runner);
        assert!(events.iter().all(|e| e.outcome.is_ok()));
        let d = perf::thread_snapshot().delta_since(&before);
        assert_eq!(d.transients, 2, "{d:?}");
        assert!(d.batched_steps > 0, "{d:?}");
        assert!(d.batch_lane_steps >= d.batched_steps, "{d:?}");
        assert!(d.batch_lane_steps <= d.batched_steps * 4, "{d:?}");
        assert!(d.timesteps >= 200, "{d:?}");
        assert_eq!(d.newton_iterations, d.lu_factorizations, "{d:?}");
        assert_eq!(d.newton_iterations, d.batch_lane_steps, "{d:?}");
    }
}
