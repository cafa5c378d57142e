//! `serve` and `monitor`: the streaming daemon started in process with
//! `Daemon::start` and the default exact backend, as `darkvec serve`
//! runs it (with one trainer thread, see [`crate::batch::TRAIN_THREADS`]),
//! under the open-loop load of [`crate::loadgen`].

use crate::batch::TRAIN_THREADS;
use crate::loadgen::{one_shots, Answer, Burst, OneShot, Phase, Query, Reply, Status, Stream, K};
use crate::spans::{layer_table, Tracer};
use crate::{host, median, quantile, Args, Outcome};
use darkvec::cache::hash_packets;
use darkvec::config::SlidingWindow;
use darkvec::corpus::build_day_corpus;
use darkvec::lineage::{ClusterObservation, LineageConfig, LineageTracker};
use darkvec::pipeline::resolve_services;
use darkvec::protocol::{
    decode_request, decode_response, encode_request, encode_response, Response,
};
use darkvec::serve::{ServingModel, SwapRecord};
use darkvec::shard::merge_window;
use darkvec::unsupervised::{cluster_embedding, ClusterConfig};
use darkvec::{Daemon, DarkVecConfig, ServeConfig};
use darkvec_gen::{pump, simulate, PacketStream, SimOutput};
use darkvec_ml::knn::knn_batch;
use darkvec_obs::metrics;
use darkvec_types::{Ipv4, Packet, Protocol, Timestamp, Trace, DAY};
use darkvec_w2v::train_prepared;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Days per training window.
const WINDOW_DAYS: u64 = 5;
/// Epochs of the first (cold) model; retrains warm-start with the
/// daemon's default two epochs.
const COLD_EPOCHS: usize = 4;
/// Capture-generation repetitions in set-up; their median is used.
const SETUP_REPS: usize = 3;
/// Requests in the mix pool.
const POOL: usize = 4096;
/// Ports each request carries at most: the first distinct ones its
/// sender probed on the day the request is drawn from.
const QUERY_PORTS: usize = 2;
/// Every n-th persistent-connection reply is checked against in-process
/// classification.
const SAMPLE_EVERY: usize = 25;
/// One-shot clients per second, on both daemon workloads. Not a measured
/// operator rate: a trickle slow enough to leave the persistent
/// connection's load unchanged, that still gives hundreds of samples.
const ONESHOT_RATE: f64 = 20.0;
/// Nominal request rate on the persistent connection, requests/s.
const NOMINAL_QPS: f64 = 4000.0;
/// Ladder rungs above the nominal rate, requests/s.
const LADDER_QPS: [f64; 3] = [8000.0, 16000.0, 32000.0];
/// A rung is met when its p99 (median over 1-s windows) stays within
/// this limit...
const P99_LIMIT_US: f64 = 2000.0;
/// ...and its last quarter's median latency is no more than this many
/// times its first quarter's (no growing backlog).
const BACKLOG_GROWTH: f64 = 2.0;
/// Request rate during `monitor`, requests/s.
const MONITOR_QPS: f64 = 1000.0;
/// Seconds between capture days handed to the `monitor` daemon.
const MONITOR_PERIOD: f64 = 4.0;
/// Saturation bursts before the `serve` open-loop schedule, and again
/// after it. A fixed count, so that every run serves the same requests.
const SERVE_BURSTS: usize = 40;
/// Share of the `serve` run's length given to the open-loop schedule;
/// the bursts take most of the rest.
const OPEN_SHARE: f64 = 0.75;
/// The `serve` result is this quantile of the bursts' cost per request.
/// The host's interference comes in episodes of seconds that slow every
/// burst inside them by up to half; a low quantile over tens of bursts
/// reads the path's own cost, where the median moved with the episodes.
const BURST_QUANTILE: f64 = 0.1;
/// Delays from a seal to the `monitor` bursts, so that they land inside
/// the retrain they measure.
const BURST_DELAYS: [f64; 3] = [0.5, 1.1, 1.7];
/// Requests replayed in process for the per-layer breakdown.
const REPLAY: usize = 2000;

fn config(args: &Args) -> DarkVecConfig {
    let mut cfg = DarkVecConfig {
        window: SlidingWindow {
            days: WINDOW_DAYS,
            stride: 1,
        },
        ..DarkVecConfig::default()
    };
    cfg.w2v.epochs = COLD_EPOCHS;
    if args.smoke {
        cfg.w2v.dim = 16;
        cfg.w2v.window = 5;
        cfg.w2v.epochs = 2;
        cfg.window.days = 2;
    }
    cfg
}

/// A daemon with its first model live, plus what set-up produced.
struct Session {
    daemon: Daemon,
    tx: Option<SyncSender<Vec<Packet>>>,
    sim: SimOutput,
    cfg: DarkVecConfig,
    pool: Arc<Vec<Query>>,
    first: Arc<ServingModel>,
    setup_s: f64,
    cache_dir: Option<PathBuf>,
}

impl Drop for Session {
    fn drop(&mut self) {
        self.tx = None;
        self.daemon.shutdown();
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::remove_dir_all(dir);
            if let Some(parent) = dir.parent() {
                let _ = std::fs::remove_dir(parent);
            }
        }
    }
}

/// Set-up: generate the capture, start the daemon, ingest the first
/// window and wait for its model. `keep_open` leaves the ingest channel
/// open (and feeds the day after the window so that the window's last
/// day is sealed); otherwise the stream ends after the window.
fn setup(args: &Args, out: &mut Outcome, cache: bool, keep_open: bool) -> Result<Session, String> {
    let cfg = config(args);
    // Only the last capture is kept, so the peak memory is the program's.
    let mut gen = Vec::new();
    let mut digests = Vec::new();
    let mut sim: Option<SimOutput> = None;
    for _ in 0..SETUP_REPS {
        drop(sim.take());
        let started = Instant::now();
        let s = simulate(&args.sim());
        gen.push(started.elapsed().as_secs_f64());
        digests.push(hash_packets(s.trace.packets()));
        sim = Some(s);
    }
    out.check(
        digests.iter().all(|&d| d == digests[0]),
        "the same seed generated two different captures",
    );
    let sim = sim.expect("at least one set-up");
    let started = Instant::now();
    let cache_dir = cache.then(|| {
        PathBuf::from(".perfbench_tmp").join(format!("cache-{}-{}", std::process::id(), args.seed))
    });
    if let Some(dir) = &cache_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut serve_cfg = ServeConfig::new(cfg.clone());
    serve_cfg.cache_dir = cache_dir.clone();
    serve_cfg.threads = TRAIN_THREADS;
    let (daemon, tx) = Daemon::start(serve_cfg).map_err(|e| format!("daemon start: {e}"))?;
    let w = cfg.window.days;
    let warm_days = if keep_open { w + 1 } else { w };
    let warmup = sim
        .trace
        .slice_time(Timestamp(0), Timestamp(warm_days * DAY));
    let sent = pump(PacketStream::from_trace(warmup), &tx, 0);
    let tx = if keep_open {
        Some(tx)
    } else {
        drop(tx);
        None
    };
    if !daemon.wait_version(1, Duration::from_secs(120))
        || !daemon.wait_idle(Duration::from_secs(120))
    {
        return Err("no first model within 120 s".to_string());
    }
    let first = daemon.current_model().ok_or("no model")?;
    let pool = request_pool(&sim.trace, &first, args.seed);
    if pool.is_empty() {
        return Err("no packets on the day after the first window".to_string());
    }
    let pool = Arc::new(pool);
    let setup_s = median(&gen) + started.elapsed().as_secs_f64();
    out.notes.push(format!(
        "set-up: capture {} packets ({} senders, {} days) generated in {gen:?} s; \
         {sent} packets ingested; model v{} over days {:?} with {} senders; set-up {setup_s:.3} s",
        sim.trace.len(),
        sim.trace.senders().len(),
        sim.trace.days(),
        first.version,
        first.window,
        first.normed.rows(),
    ));
    Ok(Session {
        daemon,
        tx,
        sim,
        cfg,
        pool,
        first,
        setup_s,
        cache_dir,
    })
}

/// The request mix, drawn from the capture: senders active on the day
/// after the first model's window, weighted by their packets that day,
/// each asking with the first [`QUERY_PORTS`] distinct ports it probed.
/// A sender the model has not embedded takes the centroid-fallback path,
/// or is refused when none of its ports maps to a known service; the
/// shares of both are whatever the capture gives.
fn request_pool(trace: &Trace, model: &ServingModel, seed: u64) -> Vec<Query> {
    let day = trace.day_slice(model.window.1 + 1);
    let mut ports: HashMap<Ipv4, Vec<(u16, Protocol)>> = HashMap::new();
    for p in day {
        let seen = ports.entry(p.src).or_default();
        if seen.len() < QUERY_PORTS && !seen.contains(&(p.dst_port, p.proto)) {
            seen.push((p.dst_port, p.proto));
        }
    }
    if day.is_empty() {
        return Vec::new();
    }
    let mut rng = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
    (0..POOL)
        .map(|_| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let ip = day[(rng % day.len() as u64) as usize].src;
            Query {
                ip,
                ports: ports[&ip].clone(),
                fallback: model.model.embedding.get(&ip).is_none(),
            }
        })
        .collect()
}

/// p99 latency of the requests scheduled in `[start, end)`, taken per
/// `window` seconds and reported as the median over the windows: a
/// single stalled second moves one window's p99, not the run's.
fn windowed_p99(replies: &[Reply], start: f64, end: f64, window: f64) -> f64 {
    let n = ((end - start) / window).floor().max(1.0) as usize;
    let p99s: Vec<f64> = (0..n)
        .map(|w| {
            let (lo, hi) = (start + w as f64 * window, start + (w + 1) as f64 * window);
            let lat: Vec<f64> = replies
                .iter()
                .filter(|r| r.due >= lo && r.due < hi)
                .map(Reply::latency_us)
                .collect();
            quantile(&lat, 0.99)
        })
        .collect();
    median(&p99s)
}

/// Output checks shared by both daemon workloads, over every answer of
/// the run: an answer must come from a model in the swap history, and a
/// refusal must be one that a model live during the run gives in process
/// for a sender it did not embed; an embedded sender is never refused.
/// Sets the mix's shares of centroid-fallback answers and of refusals.
fn check_answers(
    out: &mut Outcome,
    history: &[SwapRecord],
    pool: &[Query],
    models: &HashMap<u64, Arc<ServingModel>>,
    answers: impl Iterator<Item = (usize, Status, u64, u64)>,
) {
    let swapped: HashSet<(u64, u64)> = history.iter().map(|s| (s.version, s.checksum)).collect();
    let mut refusable: Vec<Option<bool>> = vec![None; pool.len()];
    let (mut attempted, mut failed, mut refused, mut fallback) = (0u64, 0u64, 0u64, 0u64);
    for (query, status, version, checksum) in answers {
        let ok = match status {
            Status::Ok => {
                fallback += u64::from(pool[query].fallback);
                swapped.contains(&(version, checksum))
            }
            Status::Refused => {
                refused += 1;
                *refusable[query].get_or_insert_with(|| {
                    let q = &pool[query];
                    models.values().any(|m| {
                        m.model.embedding.get(&q.ip).is_none()
                            && m.classify(q.ip, &q.ports, K as usize).is_err()
                    })
                })
            }
            Status::Failed => false,
        };
        attempted += 1;
        failed += u64::from(!ok);
    }
    out.attempted += attempted;
    out.failed += failed;
    out.check(
        failed == 0,
        format!("{failed} requests failed, were wrongly refused or came from an unknown model"),
    );
    let share = |n: u64| n as f64 / attempted.max(1) as f64;
    out.set("serve.fallback_ratio", share(fallback));
    out.set("serve.refused_ratio", share(refused));
    out.notes.push(format!(
        "request mix: {attempted} answers, {:.2}% through the centroid fallback, {:.2}% refused",
        100.0 * share(fallback),
        100.0 * share(refused)
    ));
}

/// Every answer of a daemon run, as `(query, status, version, checksum)`.
fn all_answers<'a>(
    replies: &'a [Reply],
    shots: &'a [OneShot],
    bursts: &'a Bursts,
) -> impl Iterator<Item = (usize, Status, u64, u64)> + 'a {
    let replies = replies
        .iter()
        .map(|r| (r.query, r.status, r.version, r.checksum));
    let shots = shots
        .iter()
        .map(|s| (s.query, s.status, s.version, s.checksum));
    let bursts = bursts.answers.iter().map(|a| match a.model {
        Some((v, c)) => (a.query, Status::Ok, v, c),
        None => (a.query, Status::Refused, 0, 0),
    });
    replies.chain(shots).chain(bursts)
}

/// Sampled persistent-connection replies must equal in-process
/// `ServingModel::classify` on the model of the same version.
fn check_sampled(
    out: &mut Outcome,
    pool: &[Query],
    replies: &[Reply],
    models: &HashMap<u64, Arc<ServingModel>>,
) {
    let mut compared = 0;
    for r in replies {
        let (Some((label, ips)), Some(model)) = (&r.answer, models.get(&r.version)) else {
            continue;
        };
        let q = &pool[r.query];
        let same = match model.classify(q.ip, &q.ports, K as usize) {
            Ok(local) => {
                local.label == *label && local.neighbors.iter().map(|n| n.0).eq(ips.iter().copied())
            }
            Err(_) => false,
        };
        out.check(
            same,
            format!("TCP reply for {} differs from in-process classify", q.ip),
        );
        compared += 1;
    }
    out.check(compared > 0, "no sampled reply could be compared");
}

/// Per-call timings of the request path, replayed in process on `model`
/// with the pool's requests: codec (encode and decode of request and
/// response), `ServingModel::classify`, and the exact kNN scan alone.
struct Replay {
    codec_us: Vec<f64>,
    classify_us: Vec<f64>,
    knn_us: Vec<f64>,
    wall_s: f64,
}

fn replay(t: &Tracer, model: &ServingModel, pool: &[Query]) -> Replay {
    let started = Instant::now();
    let mut r = Replay {
        codec_us: Vec::new(),
        classify_us: Vec::new(),
        knn_us: Vec::new(),
        wall_s: 0.0,
    };
    let us = |from: Instant| from.elapsed().as_secs_f64() * 1e6;
    for q in pool.iter().take(REPLAY) {
        let begun = Instant::now();
        let req = t.span("protocol.codec", || {
            decode_request(&encode_request(&q.request()))
        });
        let mut codec = us(begun);
        let Ok(darkvec::protocol::Request::Classify { ip, ports, k }) = req else {
            continue;
        };
        let begun = Instant::now();
        let answer = t.span("serve.classify", || model.classify(ip, &ports, k as usize));
        r.classify_us.push(us(begun));
        let resp = match answer {
            Ok(reply) => Response::Classify(reply),
            Err(e) => Response::Error(e),
        };
        let begun = Instant::now();
        let _ = t.span("protocol.codec", || {
            decode_response(&encode_response(&resp))
        });
        codec += us(begun);
        r.codec_us.push(codec);
        if let Some(row) = model.model.embedding.get(&q.ip) {
            let begun = Instant::now();
            t.span("ml.knn.query", || {
                std::hint::black_box(knn_batch(&model.normed, row, K as usize, 1))
            });
            r.knn_us.push(us(begun));
        }
    }
    r.wall_s = started.elapsed().as_secs_f64();
    r
}

/// Histogram reading between two points of a run.
struct HistDelta {
    name: &'static str,
    count: u64,
    sum: u64,
}

impl HistDelta {
    fn start(name: &'static str) -> Self {
        let h = metrics::histogram(name);
        HistDelta {
            name,
            count: h.count(),
            sum: h.sum(),
        }
    }

    /// Mean of the values recorded since `start`, and their count.
    fn mean(&self) -> (f64, u64) {
        let h = metrics::histogram(self.name);
        let n = h.count() - self.count;
        ((h.sum() - self.sum) as f64 / n.max(1) as f64, n)
    }
}

/// Folds the traced run's spans into the per-layer metrics and table.
fn finish_trace(out: &mut Outcome, t: &Tracer) {
    let spans = t.spans();
    let wall = spans
        .iter()
        .find(|s| s.parent.is_none())
        .map_or(0.0, |s| s.end - s.start);
    for (name, self_s) in layer_table(&spans) {
        match name {
            "serve" => out.set("serve.unattributed_s", self_s),
            "monitor" => out.set("monitor.unattributed_s", self_s),
            "loadgen.run" => out.set("loadgen.run_s", self_s),
            "corpus.day_build" => out.set("corpus.day_build_s", self_s),
            "shard.merge" => out.set("shard.merge_s", self_s),
            "w2v.warm_train" => out.set("w2v.warm_train_s", self_s),
            "unsupervised.cluster" => out.set("unsupervised.cluster_s", self_s),
            "lineage.observe" => out.set("lineage.observe_s", self_s),
            _ => {}
        }
    }
    out.set("trace.wall_s", wall);
    out.notes.push(crate::layer_report(&spans, wall));
}

pub fn run_serve(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.notes
        .push(host::stamp("serve", args.seed, &config(args)));
    let session = match setup(args, &mut out, false, false) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    out.set("setup_s", session.setup_s);
    let t = Tracer::new(args.trace);
    let conns0 = metrics::counter("serve.connections").get();
    let (ran, traced) = t.span("serve", || {
        let ran = t.span("loadgen.run", || ladder(args, &session));
        let traced = t
            .enabled()
            .then(|| replay(&t, &session.first, &session.pool));
        (ran, traced)
    });
    let Ladder {
        replies,
        shots,
        phases,
        bursts,
    } = match ran {
        Ok(r) => r,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    if let Some(traced) = traced {
        // The same replay untraced: the wall-time gap is the overhead.
        let plain = replay(&Tracer::new(false), &session.first, &session.pool);
        out.set("serve.classify_us", median(&traced.classify_us));
        out.set("ml.knn.query_us", median(&traced.knn_us));
        out.set("protocol.codec_us", median(&traced.codec_us));
        out.set("trace.overhead_s", traced.wall_s - plain.wall_s);
    }
    let history = session.daemon.swap_history();
    let models: HashMap<u64, Arc<ServingModel>> =
        [(session.first.version, Arc::clone(&session.first))]
            .into_iter()
            .collect();
    let answers = all_answers(&replies, &shots, &bursts);
    check_answers(&mut out, &history, &session.pool, &models, answers);
    check_sampled(&mut out, &session.pool, &replies, &models);
    out.check(!bursts.cost_us.is_empty(), "no saturation burst ran");
    out.set("query.cost_us", median(&bursts.cost_us));
    out.check(
        history.len() == 1,
        format!("{} swaps while no packets were ingested", history.len()),
    );
    out.check(
        session.daemon.stats().errors == 0,
        "the daemon counted errors",
    );

    // Latency at the nominal rate, then the ladder.
    let mut start = 0.0;
    let mut max_qps = 0.0;
    let mut met = true;
    let mut rows = Vec::new();
    for (i, phase) in phases.iter().enumerate() {
        let end = start + phase.secs;
        let lat: Vec<f64> = replies
            .iter()
            .filter(|r| r.due >= start && r.due < end)
            .map(Reply::latency_us)
            .collect();
        let quarter = lat.len() / 4;
        let first_q = median(&lat[..quarter.max(1).min(lat.len())]);
        let last_q = median(&lat[lat.len() - quarter.max(1).min(lat.len())..]);
        let p99 = windowed_p99(&replies, start, end, 1.0);
        let ok =
            !lat.is_empty() && p99 <= P99_LIMIT_US && last_q <= BACKLOG_GROWTH * first_q.max(50.0);
        if i == 0 {
            out.set("query.p50_us", quantile(&lat, 0.5));
            out.set("query.p99_us", windowed_p99(&replies, start, end, 1.0));
        }
        met &= ok;
        if met {
            max_qps = phase.rate;
        }
        rows.push(format!(
            "{:.0}/s: {} replies, p50/p90/p99 {:.1}/{:.1}/{:.1} us, {}",
            phase.rate,
            lat.len(),
            quantile(&lat, 0.5),
            quantile(&lat, 0.9),
            p99,
            if ok { "met" } else { "missed" }
        ));
        start = end;
    }
    // The per-request cost at saturation, in seconds.
    out.set("result_s", quantile(&bursts.cost_us, BURST_QUANTILE) / 1e6);
    let shot_s: Vec<f64> = shots.iter().map(|s| s.done - s.due).collect();
    out.set("serve.oneshot_p50_us", median(&shot_s) * 1e6);
    out.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.notes.push(format!(
        "serve ladder (limit p99 <= {P99_LIMIT_US} us): {}; one-shot: {} clients, p50 {:.3} ms; \
         {} bursts of {POOL}, cost per request p10/p50/p90 {:.2}/{:.2}/{:.2} us",
        rows.join("; "),
        shots.len(),
        median(&shot_s) * 1e3,
        bursts.cost_us.len(),
        quantile(&bursts.cost_us, 0.1),
        quantile(&bursts.cost_us, 0.5),
        quantile(&bursts.cost_us, 0.9),
    ));
    if args.trace {
        let server = metrics::histogram("serve.query_ns");
        out.set("serve.server_p50_us", server.quantile(0.5) as f64 / 1e3);
        out.set("serve.server_p99_us", server.quantile(0.99) as f64 / 1e3);
        out.set(
            "serve.connections",
            (metrics::counter("serve.connections").get() - conns0) as f64,
        );
        out.set("serve.max_qps", max_qps);
        let late: Vec<f64> = replies.iter().map(|r| r.late_us).collect();
        out.set("loadgen.late_p99_us", quantile(&late, 0.99));
        finish_trace(&mut out, &t);
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    out
}

/// The `serve` schedule: saturation bursts on the second connection,
/// then the open-loop share of the run, three quarters of it at the
/// nominal rate and the rest on the ladder's rungs, with the one-shot
/// trickle throughout; then the bursts again.
fn ladder(args: &Args, s: &Session) -> Result<Ladder, String> {
    let secs = args.seconds;
    let open = secs * OPEN_SHARE;
    let bursts_each = if args.smoke { 2 } else { SERVE_BURSTS };
    let mut phases = vec![Phase {
        rate: NOMINAL_QPS,
        secs: open * 0.75,
    }];
    for rate in LADDER_QPS {
        phases.push(Phase {
            rate,
            secs: open * 0.25 / LADDER_QPS.len() as f64,
        });
    }
    let addr = s.daemon.addr();
    // Bursts run before the open-loop schedule and after it, so that the
    // saturation cost samples the host at two times.
    let mut bursts = Bursts::default();
    let mut burst = Burst::connect(addr, &s.pool)?;
    bursts.run_n(&mut burst, bursts_each)?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let stream = Stream::start(addr, Arc::clone(&s.pool), phases.clone(), t0, SAMPLE_EVERY)?;
    let shots = one_shots(addr, Arc::clone(&s.pool), ONESHOT_RATE, open, t0, args.seed);
    let replies = stream.join()?;
    let shots = shots
        .join()
        .map_err(|_| "one-shot client panicked".to_string())?;
    bursts.run_n(&mut burst, bursts_each)?;
    Ok(Ladder {
        replies,
        shots,
        phases,
        bursts,
    })
}

/// What the `serve` schedule produced.
struct Ladder {
    replies: Vec<Reply>,
    shots: Vec<OneShot>,
    phases: Vec<Phase>,
    bursts: Bursts,
}

/// Saturation bursts of one run: wall time per request of each burst,
/// and every answer.
#[derive(Default)]
struct Bursts {
    cost_us: Vec<f64>,
    answers: Vec<Answer>,
}

impl Bursts {
    /// One burst over the whole query pool.
    fn run(&mut self, burst: &mut Burst) -> Result<(), String> {
        let (cost, answers) = burst.run(POOL)?;
        self.cost_us.push(cost);
        self.answers.extend(answers);
        Ok(())
    }

    /// `n` bursts back to back.
    fn run_n(&mut self, burst: &mut Burst, n: usize) -> Result<(), String> {
        (0..n).try_for_each(|_| self.run(burst))
    }
}

pub fn run_monitor(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.notes
        .push(host::stamp("monitor", args.seed, &config(args)));
    let mut session = match setup(args, &mut out, true, true) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    out.set("setup_s", session.setup_s);
    let t = Tracer::new(args.trace);
    let retrain = HistDelta::start("serve.retrain_ns");
    let store = HistDelta::start("cache.store_ns");
    let ingest = HistDelta::start("serve.ingest_ns");
    let lineage = HistDelta::start("lineage.match_ns");
    let stores0 = metrics::counter("cache.store").get();
    let requests0 = metrics::counter("serve.retrain_requests").get();
    let retrains0 = metrics::counter("serve.retrains").get();
    let swaps0 = session.daemon.stats().swaps;

    let (ran, (traced_s, warm_pairs)) = t.span("monitor", || {
        let ran = t.span("loadgen.run", || feed(args, &mut session));
        let traced = match (&ran, t.enabled()) {
            (Ok(run), true) => monitor_replay(&t, &session, run),
            _ => (0.0, 0),
        };
        (ran, traced)
    });
    let run = match ran {
        Ok(r) => r,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    if t.enabled() {
        // The same replay untraced: the wall-time gap is the overhead.
        let (plain, _) = monitor_replay(&Tracer::new(false), &session, &run);
        out.set("trace.overhead_s", traced_s - plain);
        out.set("w2v.warm_pairs", warm_pairs as f64);
    }
    let history = session.daemon.swap_history();
    let answers = all_answers(&run.replies, &run.shots, &run.bursts);
    check_answers(&mut out, &history, &session.pool, &run.models, answers);
    check_sampled(&mut out, &session.pool, &run.replies, &run.models);
    out.check(!run.bursts.cost_us.is_empty(), "no saturation burst ran");
    out.set("query.cost_us", median(&run.bursts.cost_us));
    let stats = session.daemon.stats();
    let requests = metrics::counter("serve.retrain_requests").get() - requests0;
    let retrains = metrics::counter("serve.retrains").get() - retrains0;
    let swaps = stats.swaps - swaps0;
    out.check(
        swaps == run.seals.len() as u64
            || (swaps >= 1 && swaps + (requests - retrains) == run.seals.len() as u64),
        format!(
            "{swaps} swaps for {} sealed windows ({requests} retrain requests)",
            run.seals.len()
        ),
    );
    out.check(
        stats.errors == 0,
        format!("the daemon counted {} errors", stats.errors),
    );

    // Model lag: seal to the first reply from a model whose window
    // includes the sealed day.
    let window_end: HashMap<u64, u64> = history.iter().map(|s| (s.version, s.window.1)).collect();
    let mut lags = Vec::new();
    for seal in &run.seals {
        let first = run
            .replies
            .iter()
            .filter(|r| {
                r.done >= seal.at && window_end.get(&r.version).is_some_and(|&d| d >= seal.day)
            })
            .map(|r| r.done)
            .fold(f64::INFINITY, f64::min);
        if first.is_finite() {
            lags.push(first - seal.at);
        } else {
            out.failed += 1;
            out.problems.push(format!(
                "no reply from the model after the seal at {:.3} s",
                seal.at
            ));
        }
    }
    out.attempted += run.seals.len() as u64;
    let during: Vec<f64> = run
        .replies
        .iter()
        .filter(|r| run.seals.iter().any(|s| r.due >= s.at && r.due < s.idle))
        .map(Reply::latency_us)
        .collect();
    let all: Vec<f64> = run.replies.iter().map(Reply::latency_us).collect();
    out.set("result_s", median(&lags));
    let per_retrain: Vec<f64> = run
        .seals
        .iter()
        .map(|s| windowed_p99(&run.replies, s.at, s.idle, s.idle - s.at))
        .collect();
    out.set("query.p50_us", quantile(&during, 0.5));
    out.set("query.p99_us", median(&per_retrain));
    out.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.notes.push(format!(
        "monitor: {} rollovers, model lag {lags:?} s, retrain windows {:?} s, {} replies ({} during retrains); during retrains p50/p90/p99 {:.1}/{:.1}/{:.1} us, p99 per retrain {per_retrain:.1?} us; all p50/p99 {:.1}/{:.1} us",
        run.seals.len(),
        run.seals.iter().map(|s| s.idle - s.at).collect::<Vec<_>>(),
        all.len(),
        during.len(),
        quantile(&during, 0.5),
        quantile(&during, 0.9),
        quantile(&during, 0.99),
        quantile(&all, 0.5),
        quantile(&all, 0.99),
    ));
    if args.trace {
        out.set("serve.retrain_s", retrain.mean().0 / 1e9);
        let (store_ns, stores) = store.mean();
        out.set("cache.store_s", store_ns * stores as f64 / 1e9);
        out.set(
            "cache.stores",
            (metrics::counter("cache.store").get() - stores0) as f64,
        );
        out.set("serve.ingest_us", ingest.mean().0 / 1e3);
        out.set(
            "serve.coalesced_ratio",
            1.0 - retrains as f64 / requests.max(1) as f64,
        );
        out.set("lineage.step_s", lineage.mean().0 / 1e9);
        out.set("monitor.rollovers", run.seals.len() as f64);
        let server = metrics::histogram("serve.query_ns");
        out.set("serve.server_p50_us", server.quantile(0.5) as f64 / 1e3);
        out.set("serve.server_p99_us", server.quantile(0.99) as f64 / 1e3);
        let late: Vec<f64> = run.replies.iter().map(|r| r.late_us).collect();
        out.set("loadgen.late_p99_us", quantile(&late, 0.99));
        finish_trace(&mut out, &t);
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    out
}

/// One sealed day: when the first packet of the next day was handed to
/// the daemon, the model version live then, and when the daemon was
/// next seen idle (retrain, swap and lineage step done).
struct Seal {
    day: u64,
    at: f64,
    version: u64,
    idle: f64,
}

struct MonitorRun {
    replies: Vec<Reply>,
    shots: Vec<OneShot>,
    seals: Vec<Seal>,
    /// Every model seen live during the run, by version.
    models: HashMap<u64, Arc<ServingModel>>,
    /// Saturation bursts, three inside each retrain.
    bursts: Bursts,
}

/// The `monitor` schedule: one capture day handed to the daemon every
/// period, open loop, while the request stream runs at one fixed rate.
fn feed(args: &Args, s: &mut Session) -> Result<MonitorRun, String> {
    let period = if args.smoke { 1.0 } else { MONITOR_PERIOD };
    let rollovers = ((args.seconds / period) as usize).max(2);
    // The stream runs one extra period so the last retrain is answered.
    let total = period * (rollovers + 1) as f64;
    let addr = s.daemon.addr();
    let t0 = Instant::now() + Duration::from_millis(20);
    let phases = vec![Phase {
        rate: MONITOR_QPS,
        secs: total,
    }];
    let stream = Stream::start(addr, Arc::clone(&s.pool), phases, t0, SAMPLE_EVERY)?;
    let shots = one_shots(
        addr,
        Arc::clone(&s.pool),
        ONESHOT_RATE,
        total,
        t0,
        args.seed,
    );
    let mut models: HashMap<u64, Arc<ServingModel>> = HashMap::new();
    models.insert(s.first.version, Arc::clone(&s.first));
    let mut seals: Vec<Seal> = Vec::new();
    let first_day = s.cfg.window.days + 1;
    let tx = s.tx.clone().ok_or("ingest channel closed")?;
    let mut pending: Option<usize> = None;
    let mut burst = Burst::connect(addr, &s.pool)?;
    let mut bursts = Bursts::default();
    let mut burst_due: Vec<f64> = Vec::new();
    let mut r = 0usize;
    loop {
        let now = t0.elapsed().as_secs_f64();
        if burst_due.first().is_some_and(|&due| now >= due) {
            burst_due.remove(0);
            bursts.run(&mut burst)?;
        }
        if let Some(m) = s.daemon.current_model() {
            models.entry(m.version).or_insert(m);
        }
        if let Some(i) = pending {
            let newest = models.keys().max().copied().unwrap_or(0);
            if newest > seals[i].version && s.daemon.wait_idle(Duration::ZERO) {
                seals[i].idle = now;
                pending = None;
            }
        }
        if r < rollovers && now >= r as f64 * period {
            let day = first_day + r as u64;
            let packets = s.sim.trace.day_slice(day).to_vec();
            if packets.is_empty() {
                return Err(format!("capture day {day} is empty"));
            }
            let version = s.daemon.current_model().map_or(0, |m| m.version);
            let mut batches = packets.chunks(darkvec_gen::stream::DEFAULT_BATCH);
            let first = batches.next().expect("non-empty day").to_vec();
            tx.send(first).map_err(|_| "daemon hung up")?;
            let at = t0.elapsed().as_secs_f64();
            for b in batches {
                tx.send(b.to_vec()).map_err(|_| "daemon hung up")?;
            }
            if let Some(i) = pending {
                // Sealed again before the last retrain finished.
                seals[i].idle = at;
            }
            seals.push(Seal {
                day: day - 1,
                at,
                version,
                idle: f64::INFINITY,
            });
            pending = Some(seals.len() - 1);
            burst_due = BURST_DELAYS.iter().map(|d| at + d).collect();
            r += 1;
        }
        if r == rollovers && pending.is_none() && burst_due.is_empty() {
            break;
        }
        if now > total + 60.0 {
            return Err("a retrain did not finish within 60 s of the run's end".to_string());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let replies = stream.join()?;
    let shots = shots
        .join()
        .map_err(|_| "one-shot client panicked".to_string())?;
    Ok(MonitorRun {
        replies,
        shots,
        seals,
        models,
        bursts,
    })
}

/// The daemon's write side replayed on the run's windows, in process,
/// with the daemon's thread count: the sealed days' corpus shards, the
/// window merges, one warm retrain from the first model, and one lineage
/// step. Returns its wall time and the warm retrain's pairs trained.
fn monitor_replay(t: &Tracer, s: &Session, run: &MonitorRun) -> (f64, u64) {
    let started = Instant::now();
    let cfg = &s.cfg;
    let services = resolve_services(&Trace::default(), &cfg.service);
    let w = cfg.window.days;
    let last = run.seals.last().map_or(w, |seal| seal.day);
    let mut days: HashMap<u64, Vec<Vec<Ipv4>>> = HashMap::new();
    for day in 0..=last {
        let trace = Trace::new(s.sim.trace.day_slice(day).to_vec());
        // Only the days sealed during the run are timed; the rest are
        // built to complete the windows.
        let corpus = if run.seals.iter().any(|seal| seal.day == day) {
            t.span("corpus.day_build", || {
                build_day_corpus(&trace, day, &services, cfg.dt)
            })
        } else {
            build_day_corpus(&trace, day, &services, cfg.dt)
        };
        days.insert(day, corpus);
    }
    let mut first_window = None;
    for seal in &run.seals {
        let window: Vec<&[Vec<Ipv4>]> = (seal.day + 1 - w..=seal.day)
            .map(|d| days[&d].as_slice())
            .collect();
        let merged = t.span("shard.merge", || merge_window(&window, 0));
        first_window.get_or_insert(merged);
    }
    let Some(merged) = first_window else {
        return (started.elapsed().as_secs_f64(), 0);
    };
    let mut warm = cfg.w2v.clone();
    warm.epochs = ServeConfig::new(cfg.clone()).warm_epochs;
    warm.min_count = cfg.min_packets.max(cfg.w2v.min_count);
    warm.threads = TRAIN_THREADS;
    let vocab = merged.vocab(warm.min_count);
    let (embedding, stats) = t.span("w2v.warm_train", || {
        train_prepared(&merged.corpus, &warm, vocab, Some(&s.first.model.embedding))
    });
    let mut tracker = LineageTracker::new(LineageConfig::default());
    for (i, emb) in [&s.first.model.embedding, &embedding]
        .into_iter()
        .enumerate()
    {
        let clustering = t.span("unsupervised.cluster", || {
            cluster_embedding(
                emb,
                &ClusterConfig {
                    k: 3,
                    seed: cfg.w2v.seed,
                    threads: TRAIN_THREADS,
                    ..ClusterConfig::default()
                },
            )
        });
        let observations: Vec<ClusterObservation> = clustering
            .members(emb)
            .into_iter()
            .enumerate()
            .map(|(c, members)| ClusterObservation {
                cluster: c as u32,
                members,
                centroid: Vec::new(),
                label: None,
                top_ports: Vec::new(),
                regularity: "daily".to_string(),
            })
            .collect();
        let present: Vec<Ipv4> = emb.vocab().words().to_vec();
        t.span("lineage.observe", || {
            tracker.observe_with_presence((i as u64, i as u64 + w - 1), &observations, &present)
        });
    }
    (started.elapsed().as_secs_f64(), stats.pairs_trained)
}
