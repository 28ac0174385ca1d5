//! The coordinator: accepts workers, shards each corner's phases into
//! leased units, merges arriving records, streams them into the campaign
//! checkpoint, and assembles the final per-corner statistics.
//!
//! # Determinism argument
//!
//! The coordinator never computes statistics itself. It only *collects*
//! per-sample records — each a pure function of `(config, index)` — into
//! an [`McResume`], and the corner's final [`McResult`] is produced by
//! [`run_mc_controlled`] restoring that resume, exactly as a local
//! resumed run would. Worker count, unit size, lease churn, retries, and
//! record arrival order therefore cannot perturb the result: the merge
//! is a function of the *set* of records, and the set is fixed by the
//! configuration.
//!
//! What to serve comes from the corner's [`TailDriver`], the same state
//! machine [`issa_core::tail::run_tail_mc`] executes locally. A corner
//! without tail mode is one `Finish` step; a tail corner is a pilot
//! `Offsets` step, adaptive `Offsets` rounds, then `Finish`. For an
//! `Offsets` step the coordinator serves the missing offset indices
//! (round units carry the resolved proposal as exact `f64` bits) and
//! hands the driver a zero-solve re-assembly of the merged records, so
//! the stop rule sees exactly the statistics a local run sees at the
//! same block boundary. For `Finish` it serves any missing offsets,
//! derives the one corner-wide coupling, the delay phase's bitline
//! swing, from the spec of a zero-solve assembly, ships that swing to
//! workers as exact `f64` bits, serves the delays, and merges.
//!
//! # Liveness
//!
//! Three nested mechanisms keep a wedged fleet from wedging the
//! campaign, from fastest to slowest:
//!
//! 1. a dropped connection revokes the worker's leases immediately;
//! 2. a connected-but-silent worker hits the per-connection read
//!    deadline ([`ServeOptions::worker_timeout`]) and is treated as 1;
//! 3. a heartbeating-but-stuck worker loses each unit at its lease
//!    deadline ([`SchedulerConfig::lease_timeout`]).
//!
//! Revoked units retry with exponential backoff (preferring a different
//! worker) up to [`SchedulerConfig::max_unit_attempts`]; beyond that the
//! unit is quarantined as `TimedOut` [`SampleFailure`]s, so the corner's
//! ordinary `max_failure_frac` budget — not a special distributed code
//! path — decides whether the campaign survives.

use crate::frame::FrameStream;
use crate::proto::{campaign_fingerprint, Msg, UnitAssignment, WorkerPerf, PROTO_VERSION};
use crate::scheduler::{Applied, Decision, PhaseScheduler, SchedStats, SchedulerConfig};
use crate::worker::{run_worker, WorkerOptions, WorkerStats};
use crate::DistError;
use issa_circuit::cancel::{CancelCause, CancelToken};
use issa_core::campaign::{
    campaign_is_partial, interrupt, CampaignCorner, CampaignError, CampaignOptions, CampaignReport,
    CheckpointWriter, CornerOutcome, CornerReport,
};
use issa_core::checkpoint::{config_fingerprint, Checkpoint, CornerCheckpoint, SavePolicy};
use issa_core::montecarlo::{
    delay_swing_volts, run_mc_controlled, FailureKind, McConfig, McControl, McPhase, McResult,
    McResume, SampleFailure,
};
use issa_core::tail::{tail_log_weight, TailDriver, TailStep};
use issa_core::SaError;
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Coordinator behaviour knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unit sizing, lease deadlines, retry/quarantine policy.
    pub scheduler: SchedulerConfig,
    /// Per-connection read deadline: a worker silent for this long
    /// (no request, ping, or result) is declared dead and its leases
    /// are revoked. Must exceed the worker heartbeat interval plus the
    /// worst-case single-sample compute time.
    pub worker_timeout: Duration,
    /// Main-loop wake interval: bounds checkpoint lag and lease-expiry
    /// detection latency.
    pub poll: Duration,
    /// Campaign checkpoint file — same semantics as
    /// [`CampaignOptions::checkpoint`]: load-and-verify on start, stream
    /// records in, delete when the campaign completes fully.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Flush the checkpoint every this many fresh records.
    pub flush_every: usize,
    /// Print corner/phase progress to stderr.
    pub progress: bool,
    /// In-process workers to spawn, each connected to the listener over
    /// real TCP — full protocol coverage without separate processes.
    pub loopback: Vec<WorkerOptions>,
    /// Test hook: stop serving (checkpoint flushed, report partial)
    /// after this many units have completed — the distributed analogue
    /// of [`CampaignOptions::abort_after`].
    pub abort_after_units: Option<u64>,
    /// Retry policy for checkpoint flushes (same semantics as
    /// [`CampaignOptions::save_policy`], including injected I/O faults).
    pub save_policy: SavePolicy,
    /// Consecutive exhausted-retry flush failures before degrading to
    /// checkpoint-less serving (see [`CampaignOptions::max_save_failures`]).
    pub max_save_failures: u32,
    /// Cap on the shutdown linger: after the campaign completes, how
    /// long to keep connections open so every remote worker re-requests
    /// and receives its `done` frame. Connections close the moment their
    /// `done` is delivered, so the full deadline is only spent on
    /// workers that vanished without disconnecting.
    pub drain_deadline: Duration,
    /// Flakiness score at which a worker is quarantined: its next
    /// handshake is rejected (with its record in the reason) and its
    /// units rebalance to healthy workers. Each lease revocation
    /// (expiry or death) adds 1.0 to the worker's score, which decays
    /// exponentially with [`ServeOptions::flaky_halflife`]. Values
    /// `<= 0` disable quarantine. The default (8.0) tolerates the
    /// occasional crash or wire fault but stops a crash-looping host
    /// from burning every unit's retry budget.
    pub flaky_threshold: f64,
    /// Half-life of the exponential decay on flakiness scores: a worker
    /// that stops misbehaving is forgiven on this timescale.
    pub flaky_halflife: Duration,
    /// Install SIGINT/SIGTERM handlers
    /// ([`issa_core::campaign::interrupt`]) and drain gracefully when
    /// one fires: stop scheduling new units, flush the checkpoint, and
    /// report partial — the same path as [`ServeOptions::abort_after_units`],
    /// so a routine restart never needs the SIGKILL-resume discipline.
    pub handle_signals: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            scheduler: SchedulerConfig::default(),
            worker_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(25),
            checkpoint: None,
            flush_every: 16,
            progress: false,
            loopback: Vec::new(),
            abort_after_units: None,
            save_policy: SavePolicy::standard(),
            max_save_failures: 2,
            drain_deadline: Duration::from_secs(5),
            flaky_threshold: 8.0,
            flaky_halflife: Duration::from_secs(300),
            handle_signals: false,
        }
    }
}

/// One worker's aggregated contribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Coordinator-assigned id (one per handshake; a reconnecting worker
    /// gets a fresh id and a fresh summary row).
    pub worker_id: u64,
    /// The worker's self-reported display name.
    pub name: String,
    /// Units completed and merged (duplicates excluded).
    pub units: u64,
    /// Per-sample records merged from this worker.
    pub samples: u64,
    /// Aggregated hot-path counters (see [`WorkerPerf`] for the
    /// loopback-mode attribution caveat).
    pub perf: WorkerPerf,
}

/// What a distributed campaign accomplished.
#[derive(Debug)]
pub struct DistReport {
    /// The merged campaign outcome — same shape a local
    /// [`issa_core::campaign::run_campaign`] returns, bit-identical
    /// results included.
    pub campaign: CampaignReport,
    /// Per-handshake worker contributions, in id order.
    pub workers: Vec<WorkerSummary>,
    /// Aggregated scheduler counters across all corners and phases.
    pub sched: SchedStats,
    /// Worker names whose handshakes were rejected as flaky (one entry
    /// per name, in first-rejection order).
    pub flaky_rejected: Vec<String>,
}

struct WorkerInfo {
    name: String,
    units: u64,
    samples: u64,
    perf: WorkerPerf,
}

/// Per-worker-*name* flakiness record. Keyed by name, not handshake id:
/// a crash-looping host gets a fresh id every reconnect, and the whole
/// point is that its history follows it across reconnects.
#[derive(Debug, Clone, Copy)]
struct WorkerHealth {
    /// Decayed penalty score (1.0 per lease revocation).
    score: f64,
    /// Lifetime revocation count (for the rejection message).
    revocations: u64,
    /// When `score` was last brought current.
    updated: Instant,
}

impl WorkerHealth {
    /// Brings `score` current under exponential decay.
    fn decay_to(&mut self, now: Instant, halflife: Duration) {
        let dt = now.saturating_duration_since(self.updated).as_secs_f64();
        let hl = halflife.as_secs_f64();
        if hl > 0.0 && dt > 0.0 {
            self.score *= 0.5f64.powf(dt / hl);
        }
        self.updated = now;
    }
}

/// The phase currently being served, shared with connection handlers.
struct ActivePhase {
    corner: String,
    phase: McPhase,
    swing_bits: u64,
    /// Per-device tail shift bits for tail rounds (empty otherwise).
    tail_bits: Vec<u64>,
    scheduler: PhaseScheduler,
    /// Indices still wanted in this phase; records outside it (late
    /// duplicates, indices whose offset failed) are discarded on merge.
    wanted: std::collections::HashSet<usize>,
    /// Fresh records accepted from workers, drained by the main loop.
    collected: McResume,
    /// Units completed this phase (for the abort test hook).
    units_completed: u64,
}

struct ServeState {
    finished: bool,
    next_worker_id: u64,
    workers: HashMap<u64, WorkerInfo>,
    phase: Option<ActivePhase>,
    /// Flakiness scores by worker name (see [`WorkerHealth`]).
    health: HashMap<String, WorkerHealth>,
    /// Names rejected as flaky, once each, in rejection order.
    flaky_rejected: Vec<String>,
}

struct Shared {
    state: Mutex<ServeState>,
    cv: Condvar,
    campaign_fp: u64,
    worker_timeout: Duration,
    poll: Duration,
    flaky_threshold: f64,
    flaky_halflife: Duration,
    /// Live connection handlers; the shutdown path waits (bounded) for
    /// this to drain so every connected worker receives its `done`.
    conns: std::sync::atomic::AtomicUsize,
}

fn lock(shared: &Shared) -> MutexGuard<'_, ServeState> {
    // A poisoned lock means a handler panicked mid-update; the state is
    // still sound (every mutation is a single push/insert).
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Handles one worker message, returning the reply (or `None` to
    /// drop a connection that is not speaking the protocol).
    fn handle(&self, conn_worker: &mut Option<u64>, msg: Msg) -> Option<Msg> {
        let now = Instant::now();
        let mut s = lock(self);
        match msg {
            Msg::Hello {
                proto,
                campaign_fp,
                name,
            } => {
                // Every reject reason names the expected and the actual
                // value, so the operator reading one worker's log can
                // diagnose the mismatch without the coordinator's.
                if proto != PROTO_VERSION {
                    return Some(Msg::Reject {
                        reason: format!(
                            "protocol version mismatch: worker speaks {proto}, \
                             coordinator expects {PROTO_VERSION}"
                        ),
                    });
                }
                if campaign_fp != self.campaign_fp {
                    return Some(Msg::Reject {
                        reason: format!(
                            "campaign fingerprint mismatch: worker {campaign_fp:016x}, \
                             coordinator {:016x} (corner list or configuration differs)",
                            self.campaign_fp
                        ),
                    });
                }
                if self.flaky_threshold > 0.0 {
                    if let Some(health) = s.health.get_mut(&name) {
                        health.decay_to(now, self.flaky_halflife);
                        if health.score >= self.flaky_threshold {
                            let reason = format!(
                                "worker {name:?} quarantined as flaky: score {:.1} \
                                 exceeds threshold {:.1} ({} lease revocations so far)",
                                health.score, self.flaky_threshold, health.revocations
                            );
                            if !s.flaky_rejected.iter().any(|n| n == &name) {
                                s.flaky_rejected.push(name);
                            }
                            return Some(Msg::Reject { reason });
                        }
                    }
                }
                let id = s.next_worker_id;
                s.next_worker_id += 1;
                s.workers.insert(
                    id,
                    WorkerInfo {
                        name,
                        units: 0,
                        samples: 0,
                        perf: WorkerPerf::default(),
                    },
                );
                *conn_worker = Some(id);
                Some(Msg::Welcome { worker_id: id })
            }
            _ if conn_worker.is_none() => Some(Msg::Reject {
                reason: "handshake required before any other message".into(),
            }),
            Msg::Ping { .. } => Some(Msg::Ok),
            Msg::Request { worker_id } => {
                if s.finished {
                    return Some(Msg::Done);
                }
                let poll_ms = self.poll.as_millis().max(10) as u64;
                let Some(phase) = s.phase.as_mut() else {
                    // Between phases (or corners): work may still appear.
                    return Some(Msg::Wait { millis: poll_ms });
                };
                match phase.scheduler.next_assignment(worker_id, now) {
                    Decision::Assign(unit_id, start, end) => Some(Msg::Assign(UnitAssignment {
                        unit_id,
                        corner: phase.corner.clone(),
                        phase: phase.phase,
                        swing_bits: phase.swing_bits,
                        start,
                        end,
                        tail_bits: phase.tail_bits.clone(),
                    })),
                    Decision::Wait(d) => Some(Msg::Wait {
                        millis: (d.as_millis() as u64).clamp(10, 1_000),
                    }),
                    // The main loop is about to retire this phase; the
                    // campaign is only over when `finished` says so.
                    Decision::Complete => Some(Msg::Wait { millis: poll_ms }),
                }
            }
            Msg::Result(r) => {
                let unit_id = r.unit_id;
                if let Some(phase) = s.phase.as_mut() {
                    if phase.scheduler.apply_result(unit_id) == Applied::Fresh {
                        let mut merged_samples: u64 = 0;
                        for (i, v) in r.offsets {
                            if phase.phase == McPhase::Offset && phase.wanted.remove(&i) {
                                phase.collected.offsets.push((i, v));
                                merged_samples += 1;
                            }
                        }
                        for (i, v) in r.delays {
                            if phase.phase == McPhase::Delay && phase.wanted.remove(&i) {
                                phase.collected.delays.push((i, v));
                                merged_samples += 1;
                            }
                        }
                        for f in r.failures {
                            if f.phase == phase.phase && phase.wanted.remove(&f.index) {
                                phase.collected.failures.push(f);
                                merged_samples += 1;
                            }
                        }
                        phase.units_completed += 1;
                        if let Some(w) = s.workers.get_mut(&r.worker_id) {
                            w.units += 1;
                            w.samples += merged_samples;
                            w.perf = w.perf.saturating_add(&r.perf);
                        }
                        self.cv.notify_all();
                    }
                }
                // Stale results (no active phase / unknown unit) are
                // acknowledged too: the sender's work is simply already
                // covered, bit-identically, by whoever finished first.
                Some(Msg::Ack { unit_id })
            }
            Msg::Welcome { .. }
            | Msg::Reject { .. }
            | Msg::Assign(_)
            | Msg::Wait { .. }
            | Msg::Done
            | Msg::Ok
            | Msg::Ack { .. } => None,
        }
    }

    /// A connection died (EOF, read deadline, bad frame): revoke the
    /// worker's leases so its units retry elsewhere.
    fn worker_lost(&self, worker_id: u64) {
        let now = Instant::now();
        let mut s = lock(self);
        if let Some(phase) = s.phase.as_mut() {
            phase.scheduler.worker_dead(worker_id, now);
        }
        self.cv.notify_all();
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    if stream
        .set_read_timeout(Some(shared.worker_timeout))
        .is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    shared.conns.fetch_add(1, Ordering::SeqCst);
    let _open = Decrement(&shared.conns);
    let mut frames = FrameStream::new(stream);
    let mut conn_worker: Option<u64> = None;
    while let Ok(payload) = frames.recv() {
        let Ok(msg) = Msg::from_bytes(&payload) else {
            // A decodable frame with an undecodable message: the peer is
            // confused — drop the connection, let it re-handshake.
            break;
        };
        match shared.handle(&mut conn_worker, msg) {
            Some(reply) => {
                let done = matches!(reply, Msg::Done);
                if frames.send(&reply.to_bytes()).is_err() {
                    break;
                }
                if done {
                    // The worker has its `done`; closing now lets the
                    // shutdown drain finish as soon as the last one is
                    // delivered instead of waiting out the deadline.
                    break;
                }
            }
            None => break,
        }
    }
    if let Some(id) = conn_worker {
        shared.worker_lost(id);
    }
}

/// Drops decrement the wrapped counter — pairs every `handle_connection`
/// entry with an exit, panics included.
struct Decrement<'a>(&'a std::sync::atomic::AtomicUsize);

impl Drop for Decrement<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Serves a campaign to workers connecting on `listener` (bind it
/// yourself — `127.0.0.1:0` in tests — so the address is known before
/// serving starts). Returns when every corner is merged, or when the
/// abort hook fires.
///
/// # Errors
///
/// Startup problems only, mirroring the local engine: an untrusted or
/// mismatched checkpoint ([`DistError::Campaign`]), or listener
/// configuration failures ([`DistError::Io`]). Runtime trouble — worker
/// churn, quarantined units, failed corners — degrades into the
/// [`DistReport`].
pub fn serve_campaign(
    listener: TcpListener,
    corners: &[CampaignCorner],
    opts: &ServeOptions,
) -> Result<DistReport, DistError> {
    // Load and verify prior state before accepting anyone.
    let mut restored = Checkpoint::default();
    if let Some(path) = &opts.checkpoint {
        if path.exists() {
            restored = Checkpoint::load(path).map_err(CampaignError::Checkpoint)?;
        }
    }
    for corner in corners {
        if let Some(prev) = restored.corner(&corner.name) {
            let expected = config_fingerprint(&corner.name, &corner.cfg);
            if prev.fingerprint != expected {
                return Err(DistError::Campaign(CampaignError::FingerprintMismatch {
                    corner: corner.name.clone(),
                    stored: prev.fingerprint,
                    expected,
                }));
            }
        }
    }
    let resumed_records = restored.records();
    if opts.progress && resumed_records > 0 {
        eprintln!("serve: resuming with {resumed_records} checkpointed records");
    }

    if opts.handle_signals {
        // Clear any interrupt latched by a previous run in this process
        // before arming the handlers for this one.
        interrupt::reset();
        interrupt::install();
    }

    let shared = Arc::new(Shared {
        state: Mutex::new(ServeState {
            finished: false,
            next_worker_id: 1,
            workers: HashMap::new(),
            phase: None,
            health: HashMap::new(),
            flaky_rejected: Vec::new(),
        }),
        cv: Condvar::new(),
        campaign_fp: campaign_fingerprint(corners),
        worker_timeout: opts.worker_timeout,
        poll: opts.poll,
        flaky_threshold: opts.flaky_threshold,
        flaky_halflife: opts.flaky_halflife,
        conns: std::sync::atomic::AtomicUsize::new(0),
    });

    // Acceptor: nonblocking poll loop so shutdown is prompt and portable.
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let shared = Arc::clone(&shared);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let _ = stream.set_nonblocking(false);
                        let shared = Arc::clone(&shared);
                        // Handlers are detached: they exit on their read
                        // deadline or when their worker disconnects.
                        std::thread::spawn(move || handle_connection(stream, &shared));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        })
    };

    // Loopback workers: real TCP, real protocol, one process.
    let loopback: Vec<_> = opts
        .loopback
        .iter()
        .cloned()
        .map(|wopts| {
            let corners = corners.to_vec();
            std::thread::spawn(move || run_worker(local_addr, &corners, &wopts))
        })
        .collect();

    let mut writer = opts
        .checkpoint
        .clone()
        .map(|p| CheckpointWriter::new(p, opts.save_policy.clone(), opts.max_save_failures));
    let run = drive_campaign(
        corners,
        opts,
        &shared,
        &restored,
        resumed_records,
        &mut writer,
    );

    // Shut everything down before reporting: workers drain on `done`.
    {
        let mut s = lock(&shared);
        s.finished = true;
        s.phase = None;
    }
    shared.cv.notify_all();
    for handle in loopback {
        match handle.join() {
            Ok(Ok(stats)) => log_worker_exit(opts, &stats),
            Ok(Err(e)) => {
                if opts.progress {
                    eprintln!("serve: loopback worker error: {e}");
                }
            }
            Err(_) => {
                if opts.progress {
                    eprintln!("serve: loopback worker panicked");
                }
            }
        }
    }
    // Linger until every connected (remote) worker has re-requested and
    // received its `done` — connections close as soon as their `done` is
    // delivered, so this loop exits immediately when none are
    // outstanding and the configurable deadline only caps workers that
    // vanished without disconnecting.
    let drain_deadline = Instant::now() + opts.drain_deadline;
    while shared.conns.load(Ordering::SeqCst) > 0 && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    shutdown.store(true, Ordering::SeqCst);
    let _ = acceptor.join();

    let (mut campaign, sched) = run;
    campaign.checkpoint_degraded = writer.as_ref().and_then(|w| w.degraded().map(String::from));
    let (mut workers, flaky_rejected) = {
        let s = lock(&shared);
        let workers: Vec<WorkerSummary> = s
            .workers
            .iter()
            .map(|(&worker_id, info)| WorkerSummary {
                worker_id,
                name: info.name.clone(),
                units: info.units,
                samples: info.samples,
                perf: info.perf,
            })
            .collect();
        (workers, s.flaky_rejected.clone())
    };
    workers.sort_by_key(|w| w.worker_id);
    Ok(DistReport {
        campaign,
        workers,
        sched,
        flaky_rejected,
    })
}

fn log_worker_exit(opts: &ServeOptions, stats: &WorkerStats) {
    if opts.progress && stats.died {
        eprintln!(
            "serve: loopback worker died by script after {} units",
            stats.units_done
        );
    }
}

/// The main scheduling loop: corners in order, each served step by step
/// as its [`TailDriver`] asks, records merged and checkpointed as they
/// arrive, final statistics assembled by [`run_mc_controlled`] from the
/// merged resume.
fn drive_campaign(
    corners: &[CampaignCorner],
    opts: &ServeOptions,
    shared: &Shared,
    restored: &Checkpoint,
    resumed_records: usize,
    writer: &mut Option<CheckpointWriter>,
) -> (CampaignReport, SchedStats) {
    let mut reports: Vec<CornerReport> = Vec::with_capacity(corners.len());
    let mut sched_total = SchedStats::default();
    let mut done_corners: Vec<CornerCheckpoint> = Vec::new();
    let mut units_budget = opts.abort_after_units;
    let mut aborted = false;

    for corner in corners {
        if aborted {
            reports.push(CornerReport {
                name: corner.name.clone(),
                outcome: CornerOutcome::Skipped,
            });
            continue;
        }
        let cfg = &corner.cfg;
        let mut current = CornerCheckpoint {
            name: corner.name.clone(),
            fingerprint: config_fingerprint(&corner.name, cfg),
            resume: restored
                .corner(&corner.name)
                .map(|c| c.resume.clone())
                .unwrap_or_default(),
        };
        if opts.progress {
            eprintln!(
                "serve: corner {:?} ({} samples, {} restored)",
                corner.name,
                cfg.samples,
                current.resume.records()
            );
        }

        // The tail protocol decides what to serve (a corner without tail
        // mode is a single Finish step); the coordinator only serves it.
        let mut serve = |current: &mut CornerCheckpoint,
                         phase: McPhase,
                         swing: f64,
                         pending: &[usize],
                         phase_cfg: &McConfig| {
            serve_phase(
                corner,
                phase,
                swing.to_bits(),
                pending,
                phase_cfg,
                opts,
                shared,
                current,
                &done_corners,
                &mut sched_total,
                &mut units_budget,
                writer,
            )
        };
        let mut driver = TailDriver::new(cfg);
        let mut last = None;
        let merge_cfg = loop {
            let step = driver.next(&current.resume, last.as_ref());
            let (TailStep::Offsets(step_cfg) | TailStep::Finish(step_cfg)) = &step;
            if opts.progress && matches!(step, TailStep::Offsets(_)) && driver.rounds() > 0 {
                eprintln!(
                    "serve: corner {:?} tail round {} to {} samples",
                    corner.name,
                    driver.rounds(),
                    step_cfg.samples
                );
            }
            let pending = pending_offsets(&current.resume, step_cfg.samples);
            let aborted = serve(&mut current, McPhase::Offset, 0.0, &pending, step_cfg);
            match step {
                // The stop rule reads a zero-solve re-assembly of the
                // merged records: the statistics the local engine checks
                // at the same block boundary. A round cut short by the
                // abort hook has none, so the driver finishes.
                TailStep::Offsets(round_cfg) if !aborted => {
                    last = assemble(&round_cfg, &current.resume, None).ok();
                }
                TailStep::Offsets(_) => last = None,
                TailStep::Finish(final_cfg) => {
                    let delay_count = final_cfg.delay_samples.min(final_cfg.samples);
                    let pending = pending_delays(&current.resume, delay_count);
                    // The corner-wide swing comes from the spec of a
                    // zero-solve assembly without the delay phase. An
                    // assembly error (no offsets, failure budget overrun)
                    // leaves nothing to measure; the merge reports it.
                    if !aborted && !pending.is_empty() {
                        let offsets_only = McConfig {
                            delay_samples: 0,
                            ..final_cfg.clone()
                        };
                        if let Ok(r) = assemble(&offsets_only, &current.resume, None) {
                            let swing = delay_swing_volts(&final_cfg, r.spec);
                            serve(&mut current, McPhase::Delay, swing, &pending, &final_cfg);
                        }
                    }
                    break final_cfg;
                }
            }
        };

        aborted =
            units_budget.is_some_and(|n| n == 0) || (opts.handle_signals && interrupt::requested());

        // ---- Merge: the statistics a single-process run would build -----
        let token = CancelToken::new();
        if aborted {
            // Mirror a local campaign interrupted mid-corner: the merge
            // keeps completed work and reports the corner partial.
            token.cancel(CancelCause::Interrupt);
        }
        let outcome = match assemble(&merge_cfg, &current.resume, Some(&token)) {
            Ok(mut result) => {
                if let Some(t) = result.tail.as_mut() {
                    t.rounds = driver.rounds();
                }
                CornerOutcome::Completed(Box::new(result))
            }
            Err(e) => CornerOutcome::Failed(e),
        };
        if opts.progress {
            match &outcome {
                CornerOutcome::Completed(r) if r.partial => eprintln!(
                    "serve: corner {:?} PARTIAL ({}/{} offsets)",
                    corner.name,
                    r.offsets.len(),
                    r.requested
                ),
                CornerOutcome::Completed(_) => eprintln!("serve: corner {:?} done", corner.name),
                CornerOutcome::Failed(e) => {
                    eprintln!("serve: corner {:?} FAILED: {e}", corner.name);
                }
                CornerOutcome::Skipped => {}
            }
        }
        if current.resume.records() > 0 {
            done_corners.push(current);
        }
        flush_checkpoint(writer, &done_corners, None);
        reports.push(CornerReport {
            name: corner.name.clone(),
            outcome,
        });
    }

    let cancelled = aborted.then_some(CancelCause::Interrupt);
    let partial = campaign_is_partial(cancelled, &reports);
    if !partial {
        if let Some(path) = &opts.checkpoint {
            let _ = std::fs::remove_file(path);
        }
    }
    (
        CampaignReport {
            corners: reports,
            resumed_records,
            cancelled,
            partial,
            // Filled in by the caller from the writer's final state.
            checkpoint_degraded: None,
        },
        sched_total,
    )
}

/// Offset-phase indices in `[0, end)` the resume does not already cover
/// (completed or quarantined).
fn pending_offsets(resume: &McResume, end: usize) -> Vec<usize> {
    let mut done = vec![false; end];
    for &(i, _) in &resume.offsets {
        if i < end {
            done[i] = true;
        }
    }
    for f in &resume.failures {
        if f.phase == McPhase::Offset && f.index < end {
            done[f.index] = true;
        }
    }
    (0..end).filter(|&i| !done[i]).collect()
}

/// Delay-phase indices in `[0, delay_count)` still wanted: the sample's
/// offset must have completed and its delay must not be covered yet.
fn pending_delays(resume: &McResume, delay_count: usize) -> Vec<usize> {
    let mut offset_present = vec![false; delay_count];
    for &(i, _) in &resume.offsets {
        if i < delay_count {
            offset_present[i] = true;
        }
    }
    let mut done = vec![false; delay_count];
    for &(i, _) in &resume.delays {
        if i < delay_count {
            done[i] = true;
        }
    }
    for f in &resume.failures {
        if f.phase == McPhase::Delay && f.index < delay_count {
            done[f.index] = true;
        }
    }
    (0..delay_count)
        .filter(|&i| offset_present[i] && !done[i])
        .collect()
}

/// Runs [`run_mc_controlled`] over the merged records without an observer
/// or a search pool. Every caller has every offset in `[0, cfg.samples)`
/// merged, or cancels through `cancel`, so this only computes statistics.
fn assemble(
    cfg: &McConfig,
    resume: &McResume,
    cancel: Option<&CancelToken>,
) -> Result<McResult, SaError> {
    let ctl = McControl {
        resume: Some(resume),
        cancel,
        ..McControl::default()
    };
    run_mc_controlled(cfg, &ctl)
}

/// Serves one phase of one corner to the worker fleet: installs the
/// scheduler, waits for completion while ticking leases and draining
/// records, quarantines exhausted units, and streams the checkpoint.
/// `phase_cfg` is the config the step runs under: offset assignments
/// carry its resolved tail proposal as exact bits (none for classic and
/// pilot steps), and every drained offset record is annotated with its
/// importance log-weight under it — a pure seed-tree replay, no solves,
/// and nothing for weight-1 samples — so the checkpoint and the final
/// merge carry them. Returns `true` when the abort hook ended the phase
/// early.
#[allow(clippy::too_many_arguments)]
fn serve_phase(
    corner: &CampaignCorner,
    phase: McPhase,
    swing_bits: u64,
    pending: &[usize],
    phase_cfg: &McConfig,
    opts: &ServeOptions,
    shared: &Shared,
    current: &mut CornerCheckpoint,
    done_corners: &[CornerCheckpoint],
    sched_total: &mut SchedStats,
    units_budget: &mut Option<u64>,
    writer: &mut Option<CheckpointWriter>,
) -> bool {
    let drained =
        || units_budget.is_some_and(|n| n == 0) || (opts.handle_signals && interrupt::requested());
    if pending.is_empty() || drained() {
        return drained();
    }
    let ranges = PhaseScheduler::ranges_of(pending, opts.scheduler.unit_samples);
    // Unit ids are globally unique within the serve session so a stale
    // result from a previous phase can never be mistaken for a fresh one.
    static NEXT_UNIT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    let base_id = NEXT_UNIT_ID.fetch_add(ranges.len() as u64, Ordering::Relaxed);
    if opts.progress {
        eprintln!(
            "serve: corner {:?} {phase} phase: {} samples in {} units",
            corner.name,
            pending.len(),
            ranges.len()
        );
    }
    let tail_bits: Vec<u64> = match phase_cfg.tail.as_ref().and_then(|t| t.resolved.as_ref()) {
        Some(p) if phase == McPhase::Offset => {
            p.shift.iter().chain(&p.neg).map(|s| s.to_bits()).collect()
        }
        _ => Vec::new(),
    };
    {
        let mut s = lock(shared);
        s.phase = Some(ActivePhase {
            corner: corner.name.clone(),
            phase,
            swing_bits,
            tail_bits,
            scheduler: PhaseScheduler::new(&ranges, base_id, &opts.scheduler),
            wanted: pending.iter().copied().collect(),
            collected: McResume::default(),
            units_completed: 0,
        });
    }
    shared.cv.notify_all();

    let mut fresh_since_flush = 0usize;
    let mut aborted = false;
    loop {
        let mut s = lock(shared);
        let (guard, _) = shared
            .cv
            .wait_timeout(s, opts.poll)
            .unwrap_or_else(PoisonError::into_inner);
        s = guard;
        // Split borrows: the scheduler lives in `phase`, the flakiness
        // records in `health`/`workers` — all fields of one state.
        let st = &mut *s;
        let Some(active) = st.phase.as_mut() else {
            break;
        };
        let now = Instant::now();
        active.scheduler.tick(now);

        // Flakiness: every revocation (lease expiry or worker death)
        // charges the worker's *name*, so a crash-looping host keeps its
        // record across reconnects and is eventually refused at the
        // handshake instead of burning unit retry budgets.
        for wid in active.scheduler.drain_revoked() {
            let Some(name) = st.workers.get(&wid).map(|w| w.name.clone()) else {
                continue;
            };
            let health = st.health.entry(name).or_insert(WorkerHealth {
                score: 0.0,
                revocations: 0,
                updated: now,
            });
            health.decay_to(now, shared.flaky_halflife);
            health.score += 1.0;
            health.revocations += 1;
        }

        // Quarantine: exhausted units become ordinary TimedOut failures,
        // one per still-missing index, and flow through the same budget
        // machinery as any other quarantined sample.
        for (unit_id, start, end, attempts) in active.scheduler.drain_quarantined() {
            for index in start..end {
                if !active.wanted.remove(&index) {
                    continue;
                }
                active.collected.failures.push(SampleFailure {
                    index,
                    seed: corner.cfg.seed,
                    corner: corner.cfg.corner_label(),
                    phase,
                    kind: FailureKind::TimedOut,
                    error: format!(
                        "distributed unit {unit_id} quarantined after {attempts} lease \
                         attempts (worker loss or lease timeout)"
                    ),
                    recovery_attempts: 0,
                });
            }
        }

        // Drain fresh records into the corner's durable state.
        let drained = std::mem::take(&mut active.collected);
        let drained_count = drained.records();
        let new_units = active.units_completed;
        active.units_completed = 0;
        let complete = active.scheduler.is_complete();
        if complete {
            sched_total.stats_merge(&active.scheduler.stats);
            s.phase = None;
        }
        drop(s);

        for &(i, _) in &drained.offsets {
            let lw = tail_log_weight(phase_cfg, i);
            if lw != 0.0 {
                current.resume.log_weights.push((i, lw));
            }
        }
        current.resume.offsets.extend(drained.offsets);
        current.resume.delays.extend(drained.delays);
        current.resume.failures.extend(drained.failures);
        fresh_since_flush += drained_count;
        if let Some(budget) = units_budget.as_mut() {
            *budget = budget.saturating_sub(new_units);
            if *budget == 0 {
                aborted = true;
            }
        }
        if opts.handle_signals && interrupt::requested() {
            // SIGINT/SIGTERM: same graceful path as the abort hook —
            // stop scheduling, flush below, report the corner partial.
            aborted = true;
        }
        if opts.flush_every > 0 && fresh_since_flush >= opts.flush_every {
            fresh_since_flush = 0;
            flush_checkpoint(writer, done_corners, Some(current));
        }
        if complete || aborted {
            if aborted {
                let mut s = lock(shared);
                if let Some(active) = s.phase.take() {
                    sched_total.stats_merge(&active.scheduler.stats);
                }
            }
            break;
        }
    }
    // Phase boundary: always flush, so a killed coordinator restarts
    // from at worst one poll interval of lost records.
    flush_checkpoint(writer, done_corners, Some(current));
    aborted
}

trait StatsMerge {
    fn stats_merge(&mut self, other: &SchedStats);
}

impl StatsMerge for SchedStats {
    fn stats_merge(&mut self, other: &SchedStats) {
        *self = self.saturating_add(other);
    }
}

/// Writes the checkpoint (done corners plus the in-flight one) through
/// the degradation-aware writer: transient I/O trouble retries inside
/// [`CheckpointWriter::flush`], persistent trouble degrades the run to
/// checkpoint-less serving instead of failing it.
fn flush_checkpoint(
    writer: &mut Option<CheckpointWriter>,
    done_corners: &[CornerCheckpoint],
    current: Option<&CornerCheckpoint>,
) {
    let Some(writer) = writer.as_mut() else {
        return;
    };
    let mut corners = done_corners.to_vec();
    if let Some(c) = current {
        if c.resume.records() > 0 {
            corners.push(c.clone());
        }
    }
    writer.flush(&Checkpoint { corners });
}

/// Convenience for the bench binary: a [`CampaignOptions`]-shaped view
/// of the serve options (checkpoint path, flush cadence, progress).
#[must_use]
pub fn serve_options_from_campaign(opts: &CampaignOptions) -> ServeOptions {
    ServeOptions {
        checkpoint: opts.checkpoint.clone(),
        flush_every: opts.flush_every,
        progress: opts.progress,
        save_policy: opts.save_policy.clone(),
        max_save_failures: opts.max_save_failures,
        ..ServeOptions::default()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn test_shared(threshold: f64) -> Shared {
        Shared {
            state: Mutex::new(ServeState {
                finished: false,
                next_worker_id: 1,
                workers: HashMap::new(),
                phase: None,
                health: HashMap::new(),
                flaky_rejected: Vec::new(),
            }),
            cv: Condvar::new(),
            campaign_fp: 0xabcd_ef01_2345_6789,
            worker_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(25),
            flaky_threshold: threshold,
            flaky_halflife: Duration::from_secs(300),
            conns: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn reject_reason(reply: Option<Msg>) -> String {
        match reply {
            Some(Msg::Reject { reason }) => reason,
            other => panic!("expected Reject, got {other:?}"),
        }
    }

    #[test]
    fn proto_reject_names_expected_and_actual() {
        let shared = test_shared(8.0);
        let reason = reject_reason(shared.handle(
            &mut None,
            Msg::Hello {
                proto: 99,
                campaign_fp: shared.campaign_fp,
                name: "w".into(),
            },
        ));
        assert!(reason.contains("99"), "actual version missing: {reason}");
        assert!(
            reason.contains(&PROTO_VERSION.to_string()),
            "expected version missing: {reason}"
        );
    }

    #[test]
    fn fingerprint_reject_names_expected_and_actual() {
        let shared = test_shared(8.0);
        let reason = reject_reason(shared.handle(
            &mut None,
            Msg::Hello {
                proto: PROTO_VERSION,
                campaign_fp: 0x1111_2222_3333_4444,
                name: "w".into(),
            },
        ));
        assert!(
            reason.contains("1111222233334444"),
            "worker fingerprint missing: {reason}"
        );
        assert!(
            reason.contains("abcdef0123456789"),
            "coordinator fingerprint missing: {reason}"
        );
    }

    #[test]
    fn flaky_worker_is_rejected_at_rehandshake_with_its_record() {
        let shared = test_shared(2.0);
        let hello = Msg::Hello {
            proto: PROTO_VERSION,
            campaign_fp: shared.campaign_fp,
            name: "flapper".into(),
        };
        // First handshake succeeds — no record yet.
        let mut conn = None;
        assert!(matches!(
            shared.handle(&mut conn, hello.clone()),
            Some(Msg::Welcome { .. })
        ));
        // Charge the name past the threshold.
        {
            let mut s = lock(&shared);
            s.health.insert(
                "flapper".into(),
                WorkerHealth {
                    score: 3.0,
                    revocations: 3,
                    updated: Instant::now(),
                },
            );
        }
        let reason = reject_reason(shared.handle(&mut None, hello.clone()));
        assert!(reason.contains("flapper"), "name missing: {reason}");
        assert!(reason.contains("quarantined as flaky"), "{reason}");
        assert!(reason.contains("3 lease revocations"), "{reason}");
        // A differently-named (healthy) worker is still welcome.
        assert!(matches!(
            shared.handle(
                &mut None,
                Msg::Hello {
                    proto: PROTO_VERSION,
                    campaign_fp: shared.campaign_fp,
                    name: "healthy".into(),
                },
            ),
            Some(Msg::Welcome { .. })
        ));
        assert_eq!(lock(&shared).flaky_rejected, vec!["flapper".to_string()]);
    }

    #[test]
    fn flaky_scores_decay_toward_forgiveness() {
        let mut h = WorkerHealth {
            score: 8.0,
            revocations: 8,
            updated: Instant::now(),
        };
        let later = h.updated + Duration::from_secs(600);
        h.decay_to(later, Duration::from_secs(300));
        assert!((h.score - 2.0).abs() < 1e-9, "two half-lives: {}", h.score);
        // Zero half-life disables decay rather than dividing by zero.
        let before = h.score;
        h.decay_to(later + Duration::from_secs(60), Duration::ZERO);
        assert_eq!(h.score, before);
    }
}
