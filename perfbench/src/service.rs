//! `service`: an in-process campaign service (one concurrent campaign,
//! two campaign threads) driven by one client over one connection in a
//! closed loop: submit, poll `fetch` until the submission ends, submit
//! the next. The schedule — fresh submissions of distinct seeds (two
//! Table II corners × 8 samples each) interleaved with repeats of
//! fingerprints that already completed — is generated from the workload
//! seed; the service receives only the generated submissions.

use crate::measure::{median, secs, splitmix, tail_quantile, Digest};
use crate::tracer::Tracer;
use crate::{table2_config, table2_name, Opts, Outcome, Workload};
use issa_bench::{csv_row, paper, CornerSpec, CSV_HEADER};
use issa_core::campaign::{run_campaign, CampaignCorner, CampaignOptions, CampaignReport};
use issa_core::checkpoint::{Checkpoint, SavePolicy};
use issa_dist::cache::{CacheLookup, ResultCache};
use issa_dist::control::{parse, ControlRequest, Json};
use issa_dist::proto::campaign_fingerprint;
use issa_dist::service::{run_service, ServiceHost, ServiceOptions, SubmissionInfo};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SAMPLES: usize = 8;
const ARTIFACTS: [&str; 2] = ["table.csv", "digest.txt"];

#[derive(Default)]
pub struct Service {
    /// Reference artifacts by submission params, from a single-process
    /// `run_campaign`; computed once per process, so the jobs after the
    /// first spend the run's time measuring rather than checking.
    references: Mutex<HashMap<String, Option<[String; 2]>>>,
}

/// (fresh submissions, repeats).
fn size(o: &Opts) -> (usize, usize) {
    if o.reduced {
        (3, 6)
    } else {
        (20, 100)
    }
}

/// Rebuilds a submission's corners from its params — the service never
/// deserializes configurations.
struct Host {
    opts: Opts,
}

fn corners_for(o: &Opts, params: &Json) -> Result<Vec<(CornerSpec, CampaignCorner)>, String> {
    let seed = params
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("params needs an integer 'seed'")?;
    let samples = params
        .get("samples")
        .and_then(Json::as_usize)
        .filter(|&n| n > 0)
        .ok_or("params needs a positive 'samples'")?;
    let Some(Json::Arr(picks)) = params.get("corners") else {
        return Err("params needs a 'corners' array".into());
    };
    let specs = paper::table2();
    picks
        .iter()
        .map(|p| {
            let spec = p
                .as_usize()
                .and_then(|i| specs.get(i))
                .ok_or("corner index out of range")?;
            Ok((
                spec.clone(),
                CampaignCorner {
                    name: table2_name(spec),
                    cfg: table2_config(spec, samples, seed, o),
                },
            ))
        })
        .collect()
}

/// The submission's artifacts: the Table II rows of its corners and a
/// bit-exact digest of every result.
fn render(
    specs: &[CornerSpec],
    corners: &[CampaignCorner],
    report: &CampaignReport,
) -> [String; 2] {
    let mut csv = format!("{CSV_HEADER}\n");
    let mut digest = Digest::default();
    for (spec, c) in specs.iter().zip(corners) {
        if let Some(r) = report.result(&c.name) {
            csv.push_str(&csv_row(spec, "-", r));
            csv.push('\n');
            digest.result(r);
        }
    }
    [csv, format!("{:016x}\n", digest.0)]
}

impl ServiceHost for Host {
    fn corners(&self, params: &Json) -> Result<Vec<CampaignCorner>, String> {
        Ok(corners_for(&self.opts, params)?
            .into_iter()
            .map(|(_, c)| c)
            .collect())
    }

    fn completed(&self, info: &SubmissionInfo, report: &CampaignReport) -> Vec<String> {
        let Ok(pairs) = corners_for(&self.opts, &info.params) else {
            return Vec::new();
        };
        let (specs, corners): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let files = render(&specs, &corners, report);
        ARTIFACTS
            .iter()
            .zip(files)
            .filter(|(name, body)| std::fs::write(info.results_dir.join(name), body).is_ok())
            .map(|(name, _)| (*name).to_owned())
            .collect()
    }
}

/// One generated submission.
#[derive(Debug, Clone)]
struct Submission {
    params: Json,
    /// Index of the fresh submission this one is (or repeats).
    fresh: usize,
    repeat: bool,
}

/// The closed-loop schedule: the first submission is fresh, the other
/// fresh ones sit at seed-chosen positions, and every repeat names a
/// fresh submission issued before it.
fn schedule(seed: u64, fresh: usize, repeats: usize) -> Vec<Submission> {
    let mut x = splitmix(seed ^ 0x5e41_71ce);
    let mut next = |m: usize| {
        x = splitmix(x);
        (x % m as u64) as usize
    };
    let total = fresh + repeats;
    let mut slots: Vec<usize> = (1..total).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, next(i + 1));
    }
    let mut is_fresh = vec![false; total];
    is_fresh[0] = true;
    slots
        .iter()
        .take(fresh - 1)
        .for_each(|&s| is_fresh[s] = true);

    let mut out = Vec::with_capacity(total);
    let mut issued = Vec::new();
    for slot_fresh in is_fresh {
        if slot_fresh {
            let k = issued.len();
            let a = next(10);
            let b = (a + 1 + next(9)) % 10;
            let params = Json::Obj(vec![
                (
                    "seed".into(),
                    Json::num_u64(splitmix(seed ^ (k as u64 + 1)) >> 12),
                ),
                ("samples".into(), Json::num_usize(SAMPLES)),
                (
                    "corners".into(),
                    Json::Arr(vec![Json::num_usize(a), Json::num_usize(b)]),
                ),
            ]);
            issued.push(params.clone());
            out.push(Submission {
                params,
                fresh: k,
                repeat: false,
            });
        } else {
            let k = next(issued.len());
            out.push(Submission {
                params: issued[k].clone(),
                fresh: k,
                repeat: true,
            });
        }
    }
    out
}

/// A running service and the client's connection to it. Dropping it
/// drains the service and joins its thread.
pub struct Live {
    dir: PathBuf,
    stream: Option<TcpStream>,
    reader: Option<BufReader<TcpStream>>,
    thread: Option<JoinHandle<()>>,
}

impl Live {
    fn start(o: &Opts) -> Result<Live, String> {
        static INCARNATION: AtomicUsize = AtomicUsize::new(0);
        let dir = o.dir.join(format!(
            "service-{}",
            INCARNATION.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        // The client connects first; its connection waits in the listen
        // backlog until the service's acceptor starts.
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let opts = ServiceOptions {
            dir: dir.clone(),
            max_concurrent: 1,
            flush_every: 1,
            build_info: "issa-perfbench".into(),
            ..ServiceOptions::default()
        };
        let host = Arc::new(Host { opts: o.clone() });
        let thread = std::thread::spawn(move || {
            if let Err(e) = run_service(listener, host, &opts) {
                eprintln!("service failed: {e}");
            }
        });
        let mut live = Live {
            dir,
            stream: Some(stream),
            reader: Some(reader),
            thread: Some(thread),
        };
        live.request(&ControlRequest::Health)?;
        Ok(live)
    }

    /// One request/response round trip.
    fn request(&mut self, req: &ControlRequest) -> Result<Json, String> {
        let (Some(stream), Some(reader)) = (self.stream.as_mut(), self.reader.as_mut()) else {
            return Err("connection closed".into());
        };
        let mut line = req.to_line();
        line.push('\n');
        stream
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) => Err("service closed the connection".into()),
            Ok(_) => parse(reply.trim_end()),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl Live {
    /// Drains the service, joins its thread and removes its state.
    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let drained = self.request(&ControlRequest::Shutdown).map(|_| ());
        self.stream = None;
        self.reader = None;
        let joined = thread
            .join()
            .map_err(|_| "the service thread panicked".to_owned());
        let _ = std::fs::remove_dir_all(&self.dir);
        drained.and(joined)
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// What the client saw for one submission.
#[derive(Debug, Default)]
struct Seen {
    id: Option<String>,
    submit_ms: f64,
    status_ms: Option<f64>,
    done_s: f64,
    state: String,
    cache_hit: bool,
    results_dir: PathBuf,
    reason: String,
}

pub struct Out {
    live: Result<Live, String>,
    subs: Vec<Submission>,
    seen: Vec<Seen>,
}

fn run_one(live: &mut Live, sub: &Submission, traced: bool) -> Result<Seen, String> {
    let mut seen = Seen::default();
    let t0 = Instant::now();
    let ack = live.request(&ControlRequest::Submit {
        tenant: "bench".into(),
        params: sub.params.clone(),
        crash_after: None,
        crash_attempts: 0,
    })?;
    seen.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let Some(id) = ack.get("id").and_then(Json::as_str).map(str::to_owned) else {
        seen.state = "rejected".into();
        seen.reason = ack.render();
        return Ok(seen);
    };
    if traced {
        let t = Instant::now();
        live.request(&ControlRequest::Status {
            id: Some(id.clone()),
        })?;
        seen.status_ms = Some(t.elapsed().as_secs_f64() * 1e3);
    }
    loop {
        let f = live.request(&ControlRequest::Fetch { id: id.clone() })?;
        if f.get("done").and_then(Json::as_bool) == Some(true) {
            seen.done_s = t0.elapsed().as_secs_f64();
            seen.state = f.get("state").and_then(Json::as_str).unwrap_or("").into();
            seen.cache_hit = f.get("cache_hit").and_then(Json::as_bool) == Some(true);
            seen.results_dir = f
                .get("results_dir")
                .and_then(Json::as_str)
                .map(PathBuf::from)
                .unwrap_or_default();
            seen.reason = f.get("reason").and_then(Json::as_str).unwrap_or("").into();
            seen.id = Some(id);
            return Ok(seen);
        }
        let waited = t0.elapsed();
        std::thread::sleep(if waited < Duration::from_millis(20) {
            Duration::from_micros(500)
        } else {
            Duration::from_millis(2)
        });
    }
}

impl Workload for Service {
    type Prep = Result<Live, String>;
    type Out = Out;

    fn default_lanes(&self) -> usize {
        0
    }

    fn setup(&self, o: &Opts) -> Self::Prep {
        let _ = std::fs::create_dir_all(&o.dir);
        Live::start(o)
    }

    fn run(&self, o: &Opts, prep: Self::Prep, t: &Tracer) -> Out {
        let (fresh, repeats) = size(o);
        let subs = schedule(o.seed, fresh, repeats);
        let mut live = prep;
        let mut seen = Vec::with_capacity(subs.len());
        if let Ok(live) = live.as_mut() {
            for sub in &subs {
                match t.span("service.submission", || run_one(live, sub, t.enabled())) {
                    Ok(s) => seen.push(s),
                    Err(e) => {
                        seen.push(Seen {
                            state: "lost".into(),
                            reason: e,
                            ..Seen::default()
                        });
                        break;
                    }
                }
            }
        }
        Out { live, subs, seen }
    }

    #[allow(clippy::too_many_lines)]
    fn check(&self, o: &Opts, out: Out, t: &Tracer, res: &mut Outcome) {
        let Out { live, subs, seen } = out;
        let mut live = match live {
            Ok(l) => l,
            Err(e) => {
                res.errors.push(format!("service did not start: {e}"));
                return;
            }
        };
        res.attempted = subs.len() as u64;
        res.failed = (subs.len() - seen.len()) as u64;
        res.require(seen.len() == subs.len(), || {
            format!("only {} of {} submissions ran", seen.len(), subs.len())
        });

        // Reference: each fresh submission's params through a
        // single-process `run_campaign`.
        let references: Vec<Option<[String; 2]>> = {
            let mut known = self
                .references
                .lock()
                .expect("a reference computation panicked");
            subs.iter()
                .filter(|s| !s.repeat)
                .map(|sub| {
                    let reference = known.entry(sub.params.render()).or_insert_with(|| {
                        corners_for(o, &sub.params).ok().and_then(|pairs| {
                            let (specs, corners): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
                            run_campaign(&corners, &CampaignOptions::default())
                                .ok()
                                .map(|report| render(&specs, &corners, &report))
                        })
                    });
                    reference.clone()
                })
                .collect()
        };

        let mut digest_text = String::new();
        for (sub, s) in subs.iter().zip(&seen) {
            let label = s.id.clone().unwrap_or_else(|| "?".into());
            if s.state != "completed" {
                res.failed += 1;
                res.errors.push(format!(
                    "submission {label} ended {}: {}",
                    s.state, s.reason
                ));
                continue;
            }
            res.require(s.cache_hit == sub.repeat, || {
                format!(
                    "submission {label}: cache_hit {} on a {} submission",
                    s.cache_hit,
                    if sub.repeat { "repeated" } else { "fresh" }
                )
            });
            let Some(Some(reference)) = references.get(sub.fresh) else {
                res.errors
                    .push(format!("submission {label}: no reference result"));
                continue;
            };
            for (name, want) in ARTIFACTS.iter().zip(reference) {
                let got = std::fs::read_to_string(s.results_dir.join(name)).unwrap_or_default();
                res.require(&got == want, || {
                    format!("submission {label}: {name} differs from the single-process run")
                });
                digest_text.push_str(&got);
            }
        }
        res.digest.str(&digest_text);

        // Client-side latencies.
        let submit: Vec<f64> = seen.iter().map(|s| s.submit_ms).collect();
        let pick = |repeat: bool, scale: f64| -> Vec<f64> {
            subs.iter()
                .zip(&seen)
                .filter(|(sub, s)| sub.repeat == repeat && s.state == "completed")
                .map(|(_, s)| s.done_s * scale)
                .collect()
        };
        let (fresh_s, hit_ms) = (pick(false, 1.0), pick(true, 1e3));
        let status: Vec<f64> = seen.iter().filter_map(|s| s.status_ms).collect();
        // Fresh runs flush once per sample (`flush_every` 1) and once per
        // corner; repeats replay without flushing.
        let flushes: usize = subs
            .iter()
            .filter(|s| !s.repeat)
            .filter_map(|s| corners_for(o, &s.params).ok())
            .flatten()
            .map(|(_, c)| c.cfg.samples + c.cfg.delay_samples + 1)
            .sum();
        let l = &mut res.layers;
        l.set("checkpoint.flushes_computed", flushes as f64);
        l.set("service.submissions", seen.len() as f64);
        l.set("service.submit_ms_p50", median(&submit));
        l.set(
            "service.submit_ms_p90",
            tail_quantile(&submit, 0.9).unwrap_or(0.0),
        );
        l.set("service.fresh_s_p50", median(&fresh_s));
        l.set("service.hit_ms_p50", median(&hit_ms));
        l.set(
            "service.hit_ms_p90",
            tail_quantile(&hit_ms, 0.9).unwrap_or(0.0),
        );
        if !status.is_empty() {
            l.set("control.status_ms_p50", median(&status));
            l.set("journal.ack_ms_p50", median(&submit) - median(&status));
        }
        l.set(
            "cache.hits",
            seen.iter().filter(|s| s.cache_hit).count() as f64,
        );
        l.set(
            "cache.misses",
            seen.iter()
                .filter(|s| s.state == "completed" && !s.cache_hit)
                .count() as f64,
        );

        if t.enabled() {
            measure_cache(o, &mut live, &subs, res);
        }
        if let Err(e) = live.shutdown() {
            res.errors.push(format!("service shutdown: {e}"));
        }
    }
}

/// Traced runs: the `health` verb's cache figures, `ResultCache::lookup`
/// on the service's own cache, and a save/load of one cache entry (the
/// workload's final checkpoint image).
fn measure_cache(o: &Opts, live: &mut Live, subs: &[Submission], res: &mut Outcome) {
    if let Ok(h) = live.request(&ControlRequest::Health) {
        let cache = h.get("cache");
        let num = |k: &str| {
            cache
                .and_then(|c| c.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        res.layers.set("cache.entries", num("entries"));
        res.layers.set("cache.bytes", num("bytes"));
    }
    let Ok(cache) = ResultCache::open(&live.dir.join("cache")) else {
        res.errors
            .push("cannot open the service's result cache".into());
        return;
    };
    let mut lookups = Vec::new();
    let mut entry: Option<PathBuf> = None;
    for sub in subs.iter().filter(|s| !s.repeat) {
        let Ok(pairs) = corners_for(o, &sub.params) else {
            continue;
        };
        let corners: Vec<CampaignCorner> = pairs.into_iter().map(|(_, c)| c).collect();
        let fp = campaign_fingerprint(&corners);
        let (found, s) = secs(|| cache.lookup(fp, &corners));
        res.require(matches!(found, CacheLookup::Hit), || {
            format!("cache lookup of {fp:016x} missed")
        });
        lookups.push(s * 1e3);
        entry.get_or_insert_with(|| cache.entry_path(fp));
    }
    res.layers.set("cache.lookup_ms", median(&lookups));
    if let Some(path) = entry {
        time_checkpoint(&path, res);
    }
}

fn time_checkpoint(path: &Path, res: &mut Outcome) {
    let (loaded, load_s) = secs(|| Checkpoint::load(path));
    let Ok(ckpt) = loaded else {
        res.errors
            .push(format!("cache entry {} does not load", path.display()));
        return;
    };
    let copy = path.with_extension("resave.tmp");
    let (saved, save_s) = secs(|| ckpt.save_with(&copy, &SavePolicy::standard()));
    res.require(saved.is_ok(), || {
        format!("checkpoint re-save failed: {saved:?}")
    });
    let _ = std::fs::remove_file(&copy);
    res.layers.set(
        "checkpoint.bytes",
        std::fs::metadata(path).map_or(0.0, |m| m.len() as f64),
    );
    res.layers.set("checkpoint.load_ms", load_s * 1e3);
    res.layers.set("checkpoint.save_ms", save_s * 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_repeats_only_issued_fingerprints() {
        let a = schedule(7, 20, 100);
        assert_eq!(a.len(), 120);
        assert_eq!(a.iter().filter(|s| !s.repeat).count(), 20);
        assert!(!a[0].repeat);
        let mut issued = 0;
        for s in &a {
            if s.repeat {
                assert!(s.fresh < issued);
            } else {
                assert_eq!(s.fresh, issued);
                issued += 1;
            }
        }
        let b = schedule(7, 20, 100);
        assert!(a.iter().zip(&b).all(|(x, y)| x.params == y.params));
        assert!(schedule(8, 20, 100)[0].params != a[0].params);
    }
}
