//! Parallel shard-merge corpus build.
//!
//! The sliding-window step ([`crate::incremental::WindowStep`]) trains on
//! a window corpus assembled out of per-day shards, each from
//! [`day_corpus`] (the [`ArtifactCache`], else [`build_day_corpus`]). At
//! paper scale the serial day loop dominates every cold step, so the
//! shards are built on worker threads and merged **deterministically**:
//!
//! * each worker builds (or loads) whole day shards and counts its tokens
//!   locally — no shared mutable state;
//! * the merged corpus is the day-order concatenation of the shard
//!   corpora, which is sentence-for-sentence what the serial loop
//!   produces (ΔT divides a day, so no window straddles a boundary);
//! * per-shard token counts are summed and word-sorted; fed through
//!   [`Vocab::from_counts`] they assign exactly the ids
//!   `Vocab::build` derives from the concatenated corpus, because both
//!   rank by `(count desc, word asc)`.
//!
//! Every window is merged by [`merge_shards`]; the serve daemon, which
//! keeps its day shards across windows, copies them in through
//! [`merge_window`]. The result is bit-identical to the serial path for
//! **any** thread count (asserted by the tests below and gated in CI by
//! `xp scale`), so the window step uses every core and the thread count
//! never enters cache keys.

use crate::cache::{load_or_build, ArtifactCache};
use crate::corpus::{build_day_corpus, corpus_from_bytes, corpus_to_bytes};
use crate::services::ServiceMap;
use darkvec_ml::par::for_each_chunk;
use darkvec_types::{Ipv4, Trace};
use darkvec_w2v::Vocab;
use std::collections::{BTreeMap, HashMap};

/// One day's corpus plus its locally-counted vocabulary.
#[derive(Clone, Debug)]
pub struct CorpusShard {
    /// The day's sentences, in [`build_day_corpus`] order.
    pub corpus: Vec<Vec<Ipv4>>,
    /// Token occurrences within this shard.
    pub counts: HashMap<Ipv4, u64>,
}

/// A window corpus merged from shards, with the summed vocabulary counts.
#[derive(Clone, Debug)]
pub struct MergedCorpus {
    /// Day-order concatenation of the shard corpora.
    pub corpus: Vec<Vec<Ipv4>>,
    /// Summed `(word, count)` pairs, sorted by word — deterministic
    /// regardless of shard or thread scheduling.
    pub counts: Vec<(Ipv4, u64)>,
}

impl MergedCorpus {
    /// The vocabulary the merged counts induce, identical to
    /// `Vocab::build(corpus, min_count)` over the concatenated corpus
    /// (both rank words by `(count desc, word asc)`).
    pub fn vocab(&self, min_count: u64) -> Vocab<Ipv4> {
        let kept: Vec<(Ipv4, u64)> = self
            .counts
            .iter() // MergedCorpus::counts is a word-sorted Vec
            .filter(|&&(_, c)| c >= min_count.max(1))
            .copied()
            .collect();
        Vocab::from_counts(kept).expect("merged counts are deduplicated and positive")
    }
}

/// Counts token occurrences of one corpus.
pub fn count_tokens(corpus: &[Vec<Ipv4>]) -> HashMap<Ipv4, u64> {
    let mut counts = HashMap::new();
    for sentence in corpus {
        for &ip in sentence {
            *counts.entry(ip).or_insert(0) += 1;
        }
    }
    counts
}

/// One day's corpus shard under its cache key `key`
/// ([`crate::incremental::day_key`]): loaded from `cache` when present and
/// sound, else built from `trace` and stored.
pub fn day_corpus(
    trace: &Trace,
    day: u64,
    services: &ServiceMap,
    dt: u64,
    key: u64,
    cache: Option<&ArtifactCache>,
) -> Vec<Vec<Ipv4>> {
    load_or_build(
        cache,
        "corpus",
        key,
        |raw| corpus_from_bytes(raw),
        |corpus| corpus_to_bytes(corpus),
        || build_day_corpus(trace, day, services, dt),
    )
    .0
}

/// Builds the day shards `first_day..=last_day` in parallel.
///
/// `keys[i]` is the cache key of day `first_day + i`; each worker gets
/// its days through [`day_corpus`]. Results come back in day order,
/// independent of `threads` (`0` = one per core).
///
/// # Panics
/// Panics if `keys.len()` does not cover the day range, or as
/// [`build_day_corpus`] does.
#[allow(clippy::too_many_arguments)]
pub fn build_shards(
    trace: &Trace,
    first_day: u64,
    last_day: u64,
    keys: &[u64],
    services: &ServiceMap,
    dt: u64,
    cache: Option<&ArtifactCache>,
    threads: usize,
) -> Vec<CorpusShard> {
    let n_days = (last_day - first_day + 1) as usize;
    assert_eq!(keys.len(), n_days, "one cache key per day");
    let _span = darkvec_obs::span!("shard.build");
    let mut shards: Vec<Option<CorpusShard>> = vec![None; n_days];
    for_each_chunk(&mut shards, threads, "shard.build.worker", |base, out| {
        for (off, slot) in out.iter_mut().enumerate() {
            let day = first_day + (base + off) as u64;
            let corpus = day_corpus(trace, day, services, dt, keys[base + off], cache);
            let counts = count_tokens(&corpus);
            *slot = Some(CorpusShard { corpus, counts });
        }
    });
    darkvec_obs::metrics::counter("shard.built").add(n_days as u64);
    shards
        .into_iter()
        .map(|s| s.expect("every day slot is filled"))
        .collect()
}

/// Merges built shards: corpora are concatenated in the order given
/// (callers pass day order), counts are summed and word-sorted.
pub fn merge_shards(shards: Vec<CorpusShard>) -> MergedCorpus {
    let _span = darkvec_obs::span!("shard.merge");
    let mut corpus = Vec::with_capacity(shards.iter().map(|s| s.corpus.len()).sum::<usize>());
    let mut summed: BTreeMap<Ipv4, u64> = BTreeMap::new();
    for shard in shards {
        corpus.extend(shard.corpus);
        // lint: nondeterministic-ok(integer sums into a BTreeMap are commutative, and the BTreeMap re-sorts by word)
        for (ip, c) in shard.counts {
            *summed.entry(ip).or_insert(0) += c;
        }
    }
    MergedCorpus {
        corpus,
        counts: summed.into_iter().collect(),
    }
}

/// Merges borrowed shard corpora (the serve daemon's window, whose day
/// shards outlive any one window): sentences are cloned and counted in
/// parallel per shard (`threads`, `0` = one per core), then handed to
/// [`merge_shards`].
pub fn merge_window(shard_corpora: &[&[Vec<Ipv4>]], threads: usize) -> MergedCorpus {
    let _span = darkvec_obs::span!("shard.merge_window");
    let mut built: Vec<Option<CorpusShard>> = vec![None; shard_corpora.len()];
    for_each_chunk(
        &mut built,
        threads,
        "shard.merge_window.worker",
        |base, out| {
            for (off, slot) in out.iter_mut().enumerate() {
                let corpus = shard_corpora[base + off].to_vec();
                let counts = count_tokens(&corpus);
                *slot = Some(CorpusShard { corpus, counts });
            }
        },
    );
    merge_shards(
        built
            .into_iter()
            .map(|s| s.expect("every shard slot is filled"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::build_corpus;
    use darkvec_types::{Packet, Protocol, Timestamp, DAY, HOUR};

    fn ip(d: u8) -> Ipv4 {
        Ipv4::new(10, 0, 0, d)
    }

    fn multi_day_trace() -> Trace {
        Trace::new(
            (0..800u64)
                .map(|i| {
                    Packet::new(
                        Timestamp(i * 997 % (4 * DAY)),
                        ip((i % 17) as u8),
                        23 + (i % 5) as u16,
                        Protocol::Tcp,
                    )
                })
                .collect(),
        )
    }

    fn serial_shards(trace: &Trace, services: &ServiceMap) -> Vec<CorpusShard> {
        (0..trace.days())
            .map(|day| {
                let corpus = build_day_corpus(trace, day, services, HOUR);
                let counts = count_tokens(&corpus);
                CorpusShard { corpus, counts }
            })
            .collect()
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial_for_any_thread_count() {
        let trace = multi_day_trace();
        let services = ServiceMap::domain_knowledge();
        let keys: Vec<u64> = (0..trace.days()).collect();
        let serial = merge_shards(serial_shards(&trace, &services));
        for threads in [1, 2, 3, 8, 0] {
            let shards = build_shards(
                &trace,
                0,
                trace.days() - 1,
                &keys,
                &services,
                HOUR,
                None,
                threads,
            );
            let merged = merge_shards(shards);
            assert_eq!(merged.corpus, serial.corpus, "threads={threads}");
            assert_eq!(merged.counts, serial.counts, "threads={threads}");
        }
    }

    #[test]
    fn merged_corpus_equals_one_shot_build() {
        let trace = multi_day_trace();
        let services = ServiceMap::domain_knowledge();
        let keys: Vec<u64> = (0..trace.days()).collect();
        let shards = build_shards(&trace, 0, trace.days() - 1, &keys, &services, HOUR, None, 4);
        let merged = merge_shards(shards);
        assert_eq!(merged.corpus, build_corpus(&trace, &services, HOUR));
    }

    #[test]
    fn merged_vocab_matches_vocab_build_exactly() {
        let trace = multi_day_trace();
        let services = ServiceMap::domain_knowledge();
        let keys: Vec<u64> = (0..trace.days()).collect();
        let merged = merge_shards(build_shards(
            &trace,
            0,
            trace.days() - 1,
            &keys,
            &services,
            HOUR,
            None,
            0,
        ));
        for min_count in [1, 2, 10] {
            let from_merge = merged.vocab(min_count);
            let from_build = Vocab::build(merged.corpus.iter().map(|s| s.iter()), min_count);
            assert_eq!(from_merge.len(), from_build.len(), "min_count={min_count}");
            assert_eq!(from_merge.words(), from_build.words());
            assert_eq!(from_merge.counts(), from_build.counts());
        }
    }

    #[test]
    fn merge_window_matches_owned_merge() {
        let trace = multi_day_trace();
        let services = ServiceMap::domain_knowledge();
        let shards = serial_shards(&trace, &services);
        let borrowed: Vec<&[Vec<Ipv4>]> = shards.iter().map(|s| s.corpus.as_slice()).collect();
        let via_window = merge_window(&borrowed, 3);
        let via_owned = merge_shards(shards);
        assert_eq!(via_window.corpus, via_owned.corpus);
        assert_eq!(via_window.counts, via_owned.counts);
    }

    #[test]
    fn shards_round_trip_through_the_cache() {
        let dir = std::env::temp_dir().join(format!("darkvec-shard-test-{}", std::process::id()));
        let cache = ArtifactCache::new(&dir).unwrap();
        let trace = multi_day_trace();
        let services = ServiceMap::single();
        let keys: Vec<u64> = (100..100 + trace.days()).collect();
        let cold = build_shards(
            &trace,
            0,
            trace.days() - 1,
            &keys,
            &services,
            HOUR,
            Some(&cache),
            4,
        );
        let warm = build_shards(
            &trace,
            0,
            trace.days() - 1,
            &keys,
            &services,
            HOUR,
            Some(&cache),
            2,
        );
        assert_eq!(
            merge_shards(cold).corpus,
            merge_shards(warm).corpus,
            "cache round trip must not change the corpus"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_ranges_and_empty_days() {
        // A trace with one day of traffic queried over that single day.
        let trace = Trace::new(vec![Packet::new(Timestamp(10), ip(1), 23, Protocol::Tcp)]);
        let shards = build_shards(&trace, 0, 0, &[7], &ServiceMap::single(), HOUR, None, 8);
        assert_eq!(shards.len(), 1);
        let merged = merge_shards(shards);
        assert_eq!(merged.corpus, vec![vec![ip(1)]]);
        assert_eq!(merged.counts, vec![(ip(1), 1)]);
    }
}
