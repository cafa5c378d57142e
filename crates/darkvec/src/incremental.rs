//! Incremental sliding-window pipeline (§8 deployment cadence): instead of
//! retraining one monolithic model per month, the trace is sharded per
//! capture day, each sliding window trains **warm-started** from the
//! previous window's model, and every expensive artifact (per-day corpus,
//! trained model, kNN neighbour lists) is served from a content-addressed
//! [`ArtifactCache`] when its inputs have not changed.
//!
//! ## One window step
//!
//! [`WindowStep`] is the only copy of the step: [`run_sliding`] and the
//! serve daemon's trainer ([`crate::serve`]) both run it, so they key,
//! cache and train alike and share artifacts both ways. It has a
//! [`train`](WindowStep::train) half and a
//! [`cluster`](WindowStep::cluster) half because the daemon swaps the new
//! model in between the two.
//!
//! ## Equivalence with the one-shot pipeline
//!
//! Per-day corpora are built *unfiltered* and activity filtering moves to
//! the trainer's `min_count` (set to `max(cfg.min_packets,
//! cfg.w2v.min_count)`). Because ΔT windows are aligned to the absolute dt
//! grid and `dt` divides a day, concatenated day shards reproduce the
//! one-shot corpus sentence-for-sentence; the vocabulary (word, count)
//! multiset — and therefore token ids, the seeded init, and the whole
//! single-threaded training trajectory — is identical to
//! `filter_active(min_packets)` + `min_count = 1`. A window covering the
//! whole trace yields an embedding bit-identical to
//! [`crate::pipeline::run`] (the regression tests assert this against the
//! golden numbers).
//!
//! The one intentional difference: `corpus`/`skipgrams` statistics of an
//! incremental step count the unfiltered window corpus (a shard cannot
//! know window-global activity).

use crate::cache::{fnv1a64, hash_packets, load_or_build, ArtifactCache, KeyHasher};
use crate::config::DarkVecConfig;
use crate::corpus::corpus_stats;
use crate::pipeline::{resolve_services, TrainedModel};
use crate::services::ServiceMap;
use crate::shard::{build_shards, merge_shards, MergedCorpus};
use crate::unsupervised::{cluster_embedding_with, knn_lists, ClusterConfig, Clustering};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use darkvec_ml::ann::NeighborBackend;
use darkvec_ml::knn::Neighbor;
use darkvec_types::{Packet, Trace, DAY};
use darkvec_w2v::{count_skipgrams, train_prepared, TrainConfig};
use std::time::Instant;

/// Knobs of the incremental runner that are not part of the model
/// configuration (warm epochs *are* folded into warm model cache keys).
#[derive(Clone, Copy, Debug)]
pub struct IncrementalOptions {
    /// Epochs for warm-started steps; `0` disables warm starting (every
    /// step cold-retrains with the full `cfg.w2v.epochs`). The first step
    /// always trains cold — there is no prior to resume from.
    pub warm_epochs: usize,
    /// `Some(k)` clusters each step's embedding with a k′-NN graph +
    /// Louvain (seeded by `cfg.w2v.seed`), caching the neighbour lists.
    pub cluster_k: Option<usize>,
}

impl Default for IncrementalOptions {
    fn default() -> Self {
        IncrementalOptions {
            warm_epochs: 2,
            cluster_k: None,
        }
    }
}

/// One step of the sliding window.
#[derive(Clone, Debug)]
pub struct DayOutcome {
    /// First capture day (zero-based, inclusive) of this window.
    pub start_day: u64,
    /// Last capture day (inclusive) of this window — the "current day".
    pub end_day: u64,
    /// Whether this step warm-started from the previous step's model.
    pub warm: bool,
    /// Whether the model was served from the artifact cache.
    pub from_cache: bool,
    /// The step's trained model.
    pub model: TrainedModel,
    /// Clustering of the step's embedding, when requested and non-empty.
    pub clustering: Option<Clustering>,
    /// The model's cache key (chains the full provenance of the run).
    pub model_key: u64,
    /// Seconds spent training (0 when served from cache).
    pub train_secs: f64,
    /// Seconds for the whole step, including cache traffic and clustering.
    pub step_secs: f64,
    /// Seconds this step spent in artifact-cache I/O (loads + stores),
    /// derived from the `cache.*_ns` latency histograms.
    pub cache_secs: f64,
}

/// Cache key of one capture day's corpus shard: the configuration
/// fingerprint, the service map's hash, the day and its packets.
pub fn day_key(fingerprint: &str, services_hash: u64, day: u64, packets: &[Packet]) -> u64 {
    KeyHasher::new()
        .write_str("corpus")
        .write_str(fingerprint)
        .write_u64(services_hash)
        .write_u64(day)
        .write_u64(hash_packets(packets))
        .finish()
}

/// The sliding-window step (see the module docs).
pub struct WindowStep<'a> {
    fingerprint: String,
    config_hash: u64,
    train_cfg: TrainConfig,
    warm_epochs: usize,
    cache: Option<&'a ArtifactCache>,
}

impl<'a> WindowStep<'a> {
    /// A step for `cfg`, warm-starting with `warm_epochs` epochs (`0` =
    /// always cold) and training on `threads` threads (`0` = all cores).
    pub fn new(
        cfg: &DarkVecConfig,
        warm_epochs: usize,
        threads: usize,
        cache: Option<&'a ArtifactCache>,
    ) -> Self {
        // The trainer owns activity filtering (see module docs).
        let mut train_cfg = cfg.w2v.clone();
        train_cfg.min_count = cfg.min_packets.max(cfg.w2v.min_count);
        train_cfg.threads = threads;
        WindowStep {
            fingerprint: cfg.fingerprint(),
            config_hash: cfg.fingerprint_hash(),
            train_cfg,
            warm_epochs,
            cache,
        }
    }

    /// The train half: the model of the window `start_day..=end_day` out
    /// of its merged day shards (`day_keys` in day order), from the cache
    /// when present, else trained — warm from `prior = Some((prior_key,
    /// prior_model))` when warm epochs are set, cold otherwise. The
    /// outcome has no clustering and no step timings yet.
    pub fn train(
        &self,
        (start_day, end_day): (u64, u64),
        services: &ServiceMap,
        services_hash: u64,
        day_keys: &[u64],
        merged: &MergedCorpus,
        prior: Option<(u64, &TrainedModel)>,
    ) -> DayOutcome {
        let prior = prior.filter(|_| self.warm_epochs > 0);
        // The model key chains the window's day keys and, for a warm
        // model, the prior's key: it depends on everything the prior did.
        let mut h = KeyHasher::new();
        h.write_str("model")
            .write_str(&self.fingerprint)
            .write_u64(services_hash);
        for &k in day_keys {
            h.write_u64(k);
        }
        match prior {
            Some((prior_key, _)) => h
                .write_str("warm")
                .write_u64(self.warm_epochs as u64)
                .write_u64(prior_key),
            None => h.write_str("cold"),
        };
        let model_key = h.finish();
        let mut train_secs = 0.0;
        let (model, from_cache) = load_or_build(
            self.cache,
            "model",
            model_key,
            |raw| TrainedModel::from_bytes(raw),
            TrainedModel::to_bytes,
            || {
                let corpus = &merged.corpus;
                let stats = corpus_stats(corpus);
                let skipgrams = count_skipgrams(corpus, self.train_cfg.window);
                let t0 = Instant::now();
                let (embedding, train_stats) = {
                    let _s = darkvec_obs::span!("incremental.train");
                    // The shard merge already summed per-day counts; feed
                    // the induced vocabulary straight to the trainer
                    // instead of re-scanning the window corpus.
                    let vocab = merged.vocab(self.train_cfg.min_count);
                    let mut train_cfg = self.train_cfg.clone();
                    if prior.is_some() {
                        train_cfg.epochs = self.warm_epochs;
                    }
                    train_prepared(corpus, &train_cfg, vocab, prior.map(|(_, m)| &m.embedding))
                };
                train_secs = t0.elapsed().as_secs_f64();
                TrainedModel {
                    embedding,
                    services: services.clone(),
                    corpus: stats,
                    skipgrams,
                    train: train_stats,
                    config_hash: self.config_hash,
                }
            },
        );
        DayOutcome {
            start_day,
            end_day,
            warm: prior.is_some(),
            from_cache,
            model,
            clustering: None,
            model_key,
            train_secs,
            step_secs: 0.0,
            cache_secs: 0.0,
        }
    }

    /// The cluster half: [`cluster_embedding_with`] over `model`, the
    /// kNN lists cached under `model_key` and `cfg.k`. Only exact lists
    /// are cached: the key names no backend.
    ///
    /// # Panics
    /// Panics if the embedding is empty.
    pub fn cluster(&self, model: &TrainedModel, model_key: u64, cfg: &ClusterConfig) -> Clustering {
        let _s = darkvec_obs::span!("incremental.cluster");
        let cache = self
            .cache
            .filter(|_| matches!(cfg.backend, NeighborBackend::Exact));
        let knn_key = KeyHasher::new()
            .write_str("knn")
            .write_u64(model_key)
            .write_u64(cfg.k as u64)
            .finish();
        cluster_embedding_with(&model.embedding, cfg, |normed| {
            load_or_build(
                cache,
                "knn",
                knn_key,
                |raw| neighbors_from_bytes(raw),
                |lists| neighbors_to_bytes(lists),
                || knn_lists(normed, cfg),
            )
            .0
        })
    }
}

/// Runs the sliding-window pipeline over a trace.
///
/// For each window position the runner assembles the window corpus from
/// per-day shards and runs the [`WindowStep`]: trains (or warm-starts, or
/// loads from cache) a model, and optionally clusters the embedding. With
/// `cache: Some(..)`, every artifact is keyed by configuration
/// fingerprint + input content + code salt, so a second identical run is
/// served entirely from disk.
///
/// # Panics
/// Panics if `cfg.dt` is zero or does not divide a day (the shard
/// equivalence argument needs day-aligned ΔT windows), or if
/// `cfg.window.days`/`stride` is zero.
pub fn run_sliding(
    trace: &Trace,
    cfg: &DarkVecConfig,
    opts: &IncrementalOptions,
    cache: Option<&ArtifactCache>,
) -> Vec<DayOutcome> {
    assert!(cfg.dt > 0, "dt must be positive");
    assert!(
        DAY.is_multiple_of(cfg.dt),
        "incremental sharding needs dt ({}) to divide a day",
        cfg.dt
    );
    assert!(cfg.window.days > 0, "window.days must be positive");
    assert!(cfg.window.stride > 0, "window.stride must be positive");
    let _span = darkvec_obs::span!("incremental");

    let total_days = trace.days();
    if total_days == 0 {
        return Vec::new();
    }

    // Services are resolved ONCE, over the activity-filtered full trace —
    // per-window Auto maps would give every shard a different sentence
    // structure and defeat both caching and warm starting. Single and
    // DomainKnowledge are static; only Auto needs the traffic.
    let services = {
        let _s = darkvec_obs::span!("incremental.services");
        match &cfg.service {
            crate::config::ServiceDef::Auto(_) => {
                resolve_services(&trace.filter_active(cfg.min_packets), &cfg.service)
            }
            def => resolve_services(trace, def),
        }
    };
    let services_hash = fnv1a64(&services.to_bytes());
    let fingerprint = cfg.fingerprint();
    let step = WindowStep::new(cfg, opts.warm_epochs, cfg.w2v.threads, cache);

    // Window ends: the first window ends as soon as `days` days exist (or
    // the trace ends), then advances by `stride`. When the stride does not
    // land exactly on the last capture day, a final clamped window ending at
    // `total_days - 1` picks up the trailing days — otherwise they would
    // never be trained, clustered, or cached.
    let mut ends = Vec::new();
    let mut e = cfg.window.days.min(total_days) - 1;
    loop {
        ends.push(e);
        if e + cfg.window.stride >= total_days {
            break;
        }
        e += cfg.window.stride;
    }
    if ends.last() != Some(&(total_days - 1)) {
        ends.push(total_days - 1);
    }

    let day_keys: Vec<u64> = (0..total_days)
        .map(|day| day_key(&fingerprint, services_hash, day, trace.day_slice(day)))
        .collect();

    let mut outcomes: Vec<DayOutcome> = Vec::with_capacity(ends.len());

    let step_latency = darkvec_obs::metrics::histogram("incremental.step_ns");
    let cache_io_ns = || {
        darkvec_obs::metrics::histogram("cache.hit_ns").sum()
            + darkvec_obs::metrics::histogram("cache.miss_ns").sum()
            + darkvec_obs::metrics::histogram("cache.store_ns").sum()
    };

    for &end_day in &ends {
        let step_start = Instant::now();
        let cache_ns_before = cache_io_ns();
        let _step = darkvec_obs::span!("incremental.step");
        let start_day = (end_day + 1).saturating_sub(cfg.window.days);

        // Window corpus out of per-day shards, built on every core and
        // merged deterministically (see `crate::shard`).
        let window_keys = &day_keys[start_day as usize..=end_day as usize];
        let merged = merge_shards(build_shards(
            trace,
            start_day,
            end_day,
            window_keys,
            &services,
            cfg.dt,
            cache,
            0,
        ));
        let prior = outcomes.last().map(|o| (o.model_key, &o.model));
        let window = (start_day, end_day);
        let mut outcome = step.train(
            window,
            &services,
            services_hash,
            window_keys,
            &merged,
            prior,
        );
        drop(merged);
        darkvec_obs::metrics::counter(if outcome.warm {
            "incremental.warm_steps"
        } else {
            "incremental.cold_steps"
        })
        .add(1);

        outcome.clustering = opts
            .cluster_k
            .filter(|_| !outcome.model.embedding.is_empty())
            .map(|k| {
                let cluster_cfg = ClusterConfig {
                    k,
                    seed: cfg.w2v.seed,
                    threads: cfg.w2v.threads,
                    backend: NeighborBackend::Exact,
                };
                step.cluster(&outcome.model, outcome.model_key, &cluster_cfg)
            });

        outcome.step_secs = step_start.elapsed().as_secs_f64();
        outcome.cache_secs = cache_io_ns().saturating_sub(cache_ns_before) as f64 / 1e9;
        step_latency.record_duration(step_start.elapsed());
        darkvec_obs::metrics::record_sample();
        darkvec_obs::debug!(
            "step days {start_day}..={end_day}: vocab {}, {} ({:.2}s)",
            outcome.model.embedding.len(),
            if outcome.from_cache {
                "cached"
            } else if outcome.warm {
                "warm-trained"
            } else {
                "cold-trained"
            },
            outcome.step_secs
        );
        outcomes.push(outcome);
    }
    darkvec_obs::metrics::gauge("incremental.steps").set(outcomes.len() as f64);
    outcomes
}

/// Serialises kNN neighbour lists for the artifact cache.
fn neighbors_to_bytes(neighbors: &[Vec<Neighbor>]) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_u32_le(neighbors.len() as u32);
    for row in neighbors {
        buf.put_u32_le(row.len() as u32);
        for nb in row {
            buf.put_u32_le(nb.index as u32);
            buf.put_f32_le(nb.similarity);
        }
    }
    buf.freeze()
}

/// Inverse of [`neighbors_to_bytes`]; fails cleanly on truncated input.
fn neighbors_from_bytes(mut buf: impl Buf) -> Result<Vec<Vec<Neighbor>>, String> {
    if buf.remaining() < 4 {
        return Err("truncated neighbour lists: missing header".to_string());
    }
    let rows = buf.get_u32_le() as usize;
    if buf.remaining() < rows * 4 {
        return Err("truncated neighbour lists: header promises more rows".to_string());
    }
    let mut out = Vec::with_capacity(rows);
    for _ in 0..rows {
        if buf.remaining() < 4 {
            return Err("truncated neighbour lists: missing row length".to_string());
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len * 8 {
            return Err("truncated neighbour lists: row overruns buffer".to_string());
        }
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            let index = buf.get_u32_le() as usize;
            let similarity = buf.get_f32_le();
            row.push(Neighbor { index, similarity });
        }
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_bytes_round_trip_and_truncate() {
        let lists = vec![
            vec![
                Neighbor {
                    index: 3,
                    similarity: 0.5,
                },
                Neighbor {
                    index: 1,
                    similarity: -0.25,
                },
            ],
            vec![],
            vec![Neighbor {
                index: 0,
                similarity: 1.0,
            }],
        ];
        let bytes = neighbors_to_bytes(&lists);
        let back = neighbors_from_bytes(&bytes[..]).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[0][0].index, 3);
        assert_eq!(back[0][1].similarity, -0.25);
        assert!(back[1].is_empty());
        for cut in 0..bytes.len() {
            assert!(
                neighbors_from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    #[should_panic(expected = "divide a day")]
    fn rejects_dt_not_dividing_a_day() {
        let mut cfg = DarkVecConfig::test_size(1);
        cfg.dt = 7 * 60 * 60; // 7h does not divide 24h
        let _ = run_sliding(
            &Trace::default(),
            &cfg,
            &IncrementalOptions::default(),
            None,
        );
    }

    #[test]
    fn empty_trace_yields_no_steps() {
        let cfg = DarkVecConfig::test_size(1);
        assert!(run_sliding(
            &Trace::default(),
            &cfg,
            &IncrementalOptions::default(),
            None
        )
        .is_empty());
    }
}
