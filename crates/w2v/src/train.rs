//! The Word2Vec training loop.
//!
//! This follows the reference `word2vec.c` schedule that Gensim reimplements
//! (the paper trains with Gensim, §5.3), covering the full architecture
//! matrix:
//!
//! * **architecture** — [`Arch::SkipGram`] (the paper's choice) or
//!   [`Arch::Cbow`] (described in Appendix A.1 alongside it);
//! * **output layer** — [`Loss::NegativeSampling`] against the
//!   unigram^0.75 table, or [`Loss::HierarchicalSoftmax`] over a Huffman
//!   tree of the vocabulary;
//! * per-occurrence subsampling of frequent words;
//! * dynamic window: the effective context radius at each position is
//!   uniform in `1..=window`;
//! * learning rate decayed linearly over all epochs.
//!
//! Every update runs through one fused kernel call
//! ([`darkvec_kernels::sgns_pair_on`]). One thread trains the weight
//! matrices in place; more threads work Hogwild-style on contiguous
//! sentence chunks of the encoded corpus, through the relaxed-atomic view
//! of the same matrices (see [`crate::matrix`] for why this is safe Rust).

// lint: relaxed-ok(the progress and pair counters are metrics; no ordering between workers is needed)

use crate::embedding::Embedding;
use crate::huffman::HuffmanTree;
use crate::matrix::{Matrix, RowStore};
use crate::observer::{EpochStats, TrainObserver};
use crate::sampling::{SubSampler, UnigramTable};
use crate::sigmoid::SigmoidTable;
use crate::vocab::{TokenId, Vocab};
use darkvec_kernels::{sgns_pair_on, Path, Target};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model architecture (Appendix A.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Arch {
    /// Predict context words from the centre word.
    #[default]
    SkipGram,
    /// Continuous bag of words: predict the centre word from the averaged
    /// context.
    Cbow,
}

/// Output layer / objective.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Loss {
    /// `negative` noise samples from the unigram^0.75 distribution per
    /// positive pair (Mikolov et al. 2013b).
    #[default]
    NegativeSampling,
    /// One sigmoid decision per Huffman-tree node on the target's path.
    HierarchicalSoftmax,
}

/// Hyper-parameters of the trainer.
///
/// Defaults mirror the paper's DarkVec configuration: skip-gram with
/// negative sampling, `V = 50` dimensions, context window `c = 25`,
/// `min_count = 10` (the active-sender filter) — with Gensim's defaults
/// for the knobs the paper leaves unstated.
#[derive(Clone)]
pub struct TrainConfig {
    /// Model architecture.
    pub arch: Arch,
    /// Output layer.
    pub loss: Loss,
    /// Embedding dimension (the paper's `V`).
    pub dim: usize,
    /// Maximum context window radius (the paper's `c`).
    pub window: usize,
    /// Negative samples per positive pair (negative-sampling loss only).
    pub negative: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate.
    pub alpha: f32,
    /// Floor for the decayed learning rate.
    pub min_alpha: f32,
    /// Subsampling threshold (`0.0` disables).
    pub subsample: f64,
    /// Minimum corpus frequency for a word to be embedded.
    pub min_count: u64,
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// RNG seed (initialisation and sampling).
    pub seed: u64,
    /// Optional per-epoch progress callback (see [`crate::observer`]).
    /// `None` adds no overhead to training; an attached observer is
    /// called at epoch granularity only. Ignored by `PartialEq`-style
    /// comparisons of configs and omitted from `Debug`.
    pub observer: Option<Arc<dyn TrainObserver>>,
}

impl std::fmt::Debug for TrainConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainConfig")
            .field("arch", &self.arch)
            .field("loss", &self.loss)
            .field("dim", &self.dim)
            .field("window", &self.window)
            .field("negative", &self.negative)
            .field("epochs", &self.epochs)
            .field("alpha", &self.alpha)
            .field("min_alpha", &self.min_alpha)
            .field("subsample", &self.subsample)
            .field("min_count", &self.min_count)
            .field("threads", &self.threads)
            .field("seed", &self.seed)
            .field(
                "observer",
                &self.observer.as_ref().map(|_| "<dyn TrainObserver>"),
            )
            .finish()
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            arch: Arch::SkipGram,
            loss: Loss::NegativeSampling,
            dim: 50,
            window: 25,
            negative: 5,
            epochs: 10,
            alpha: 0.025,
            min_alpha: 1e-4,
            subsample: 1e-3,
            min_count: 10,
            threads: 0,
            seed: 1,
            observer: None,
        }
    }
}

impl TrainConfig {
    /// Resolved worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// What happened during training — the numbers behind Table 3's
/// skip-grams / ETA columns.
#[derive(Clone, Debug)]
pub struct TrainStats {
    /// Retained vocabulary size.
    pub vocab_size: usize,
    /// Corpus tokens after OOV removal, single epoch.
    pub corpus_tokens: u64,
    /// Training interactions performed, summed over epochs (after
    /// subsampling and window shrinking): (input, output) pairs for
    /// skip-gram, one per centre word for CBOW.
    pub pairs_trained: u64,
    /// Wall-clock training time.
    pub elapsed: std::time::Duration,
}

/// Counts the skip-grams a corpus yields with a *full* (non-shrunk) window —
/// the corpus-size metric the paper reports in Table 3.
///
/// A sentence of length `L` contributes `Σ_i min(c, i) + min(c, L-1-i)`
/// pairs.
pub fn count_skipgrams<T>(corpus: &[Vec<T>], window: usize) -> u64 {
    let c = window as u64;
    corpus
        .iter()
        .map(|s| {
            let l = s.len() as u64;
            (0..l).map(|i| c.min(i) + c.min(l - 1 - i)).sum::<u64>()
        })
        .sum()
}

/// Trains an embedding over a corpus of sentences.
///
/// Words below `min_count` are dropped; remaining sentences train a single
/// shared model (DarkVec's "single embedding" design, §5.2). Returns the
/// input-layer embedding and training statistics.
///
/// # Panics
/// Panics if `dim == 0`, `window == 0` or `epochs == 0`.
pub fn train<W>(corpus: &[Vec<W>], cfg: &TrainConfig) -> (Embedding<W>, TrainStats)
where
    W: Eq + Hash + Clone + Ord + Send + Sync,
{
    train_impl(corpus, cfg, None, None)
}

/// Warm-start training: like [`train`], but input rows of words already
/// present in `prior` start from the prior's vectors instead of the seeded
/// uniform init. Words new to this corpus get the usual deterministic init;
/// words of the prior absent from this corpus are evicted (the vocabulary
/// is rebuilt from `corpus` alone). This is the incremental sliding-window
/// path: day *d+1* resumes from day *d*'s model and needs a fraction of the
/// epochs a cold model does.
///
/// # Panics
/// Panics if `prior.dim() != cfg.dim`, or as [`train`] does.
pub fn train_from<W>(
    corpus: &[Vec<W>],
    cfg: &TrainConfig,
    prior: &Embedding<W>,
) -> (Embedding<W>, TrainStats)
where
    W: Eq + Hash + Clone + Ord + Send + Sync,
{
    assert_eq!(
        prior.dim(),
        cfg.dim,
        "prior embedding dimension {} does not match cfg.dim {}",
        prior.dim(),
        cfg.dim
    );
    train_impl(corpus, cfg, Some(prior), None)
}

/// [`train`] / [`train_from`] with a vocabulary built elsewhere — the
/// entry point of the parallel shard-merge corpus build, which counts
/// words per shard and merges the counts instead of re-scanning the
/// concatenated corpus. `vocab` must equal what
/// `Vocab::build(corpus, cfg.min_count)` would produce (same words,
/// counts and therefore ids): ids drive the seeded init, the subsampler
/// and the negative table, so an equal vocabulary makes the whole
/// training trajectory bit-identical to the serial path.
///
/// # Panics
/// Panics as [`train`] does, and if a `prior`'s dimension mismatches.
pub fn train_prepared<W>(
    corpus: &[Vec<W>],
    cfg: &TrainConfig,
    vocab: Vocab<W>,
    prior: Option<&Embedding<W>>,
) -> (Embedding<W>, TrainStats)
where
    W: Eq + Hash + Clone + Ord + Send + Sync,
{
    if let Some(prior) = prior {
        assert_eq!(
            prior.dim(),
            cfg.dim,
            "prior embedding dimension {} does not match cfg.dim {}",
            prior.dim(),
            cfg.dim
        );
    }
    train_impl(corpus, cfg, prior, Some(vocab))
}

fn train_impl<W>(
    corpus: &[Vec<W>],
    cfg: &TrainConfig,
    prior: Option<&Embedding<W>>,
    vocab: Option<Vocab<W>>,
) -> (Embedding<W>, TrainStats)
where
    W: Eq + Hash + Clone + Ord + Send + Sync,
{
    train_on(
        corpus,
        cfg,
        prior,
        vocab,
        darkvec_kernels::active_path(),
        None,
    )
}

/// How the workers reach the rows of the weight matrices.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Store {
    /// One worker, rows borrowed in place.
    InPlace,
    /// Hogwild workers, row snapshots over the relaxed-atomic view.
    AtomicView,
}

/// The training run on kernel path `path`. `store` is the store the
/// thread count implies unless given: the unit tests pin both to compare
/// the stores on every path.
fn train_on<W>(
    corpus: &[Vec<W>],
    cfg: &TrainConfig,
    prior: Option<&Embedding<W>>,
    vocab: Option<Vocab<W>>,
    path: Path,
    store: Option<Store>,
) -> (Embedding<W>, TrainStats)
where
    W: Eq + Hash + Clone + Ord + Send + Sync,
{
    assert!(cfg.dim > 0, "dim must be positive");
    assert!(cfg.window > 0, "window must be positive");
    assert!(cfg.epochs > 0, "epochs must be positive");
    let start = Instant::now();

    let vocab = vocab.unwrap_or_else(|| {
        let _s = darkvec_obs::span!("w2v.vocab");
        Vocab::build(corpus.iter().map(|s| s.iter()), cfg.min_count)
    });
    if vocab.is_empty() {
        let stats = TrainStats {
            vocab_size: 0,
            corpus_tokens: 0,
            pairs_trained: 0,
            elapsed: start.elapsed(),
        };
        return (Embedding::from_parts(vocab, Vec::new(), cfg.dim), stats);
    }

    let encoded: Vec<Vec<TokenId>> = {
        let _s = darkvec_obs::span!("w2v.encode");
        vocab
            .encode_corpus(corpus)
            .into_iter()
            .filter(|s| s.len() >= 2)
            .collect()
    };
    let corpus_tokens: u64 = encoded.iter().map(|s| s.len() as u64).sum();

    let init_span = darkvec_obs::span!("w2v.init");
    let output = match cfg.loss {
        Loss::NegativeSampling => {
            OutputLayer::Negatives(UnigramTable::with_defaults(vocab.counts()))
        }
        Loss::HierarchicalSoftmax => OutputLayer::Huffman(HuffmanTree::new(vocab.counts())),
    };
    let subsampler = SubSampler::new(vocab.counts(), vocab.total_count(), cfg.subsample);
    let sig = SigmoidTable::new();

    let mut syn0 = Matrix::uniform_init(vocab.len(), cfg.dim, cfg.seed);
    if let Some(prior) = prior {
        // Warm start: carry over the input rows of words the prior already
        // embeds. Rows the prior lacks keep the seeded init above, and
        // prior words missing from this vocabulary are dropped outright —
        // both deterministic given (corpus, cfg, prior).
        let mut seeded = 0u64;
        for id in 0..vocab.len() as TokenId {
            if let Some(row) = prior.get(vocab.word(id)) {
                syn0.row_mut(id as usize).copy_from_slice(row);
                seeded += 1;
            }
        }
        darkvec_obs::metrics::counter("w2v.warm_rows_seeded").add(seeded);
        darkvec_obs::metrics::counter("w2v.warm_rows_fresh").add(vocab.len() as u64 - seeded);
        darkvec_obs::debug!(
            "warm start: {seeded}/{} rows seeded from prior",
            vocab.len()
        );
    }
    // Output matrix: one row per word (negative sampling) or per internal
    // Huffman node (hierarchical softmax); vocab.len() rows cover both.
    let mut syn1 = Matrix::zeros(vocab.len(), cfg.dim);
    drop(init_span);

    let words_done = AtomicU64::new(0);
    let pairs_trained = AtomicU64::new(0);
    let run = Run {
        cfg,
        path,
        sig: &sig,
        subsampler: &subsampler,
        output: &output,
        start,
        total_words: (corpus_tokens * cfg.epochs as u64).max(1),
        words_done: &words_done,
        pairs_trained: &pairs_trained,
    };

    let threads = cfg.effective_threads().min(encoded.len().max(1));
    let store = store.unwrap_or(if threads == 1 {
        Store::InPlace
    } else {
        Store::AtomicView
    });

    let hogwild_span = darkvec_obs::span!("w2v.hogwild");
    match store {
        Store::InPlace => {
            let _worker_span = darkvec_obs::span!("w2v.hogwild.worker");
            run_worker(0, &encoded, &run, syn0.in_place(), syn1.in_place());
        }
        Store::AtomicView => {
            let hogwild_ctx = darkvec_obs::span::context();
            let (view0, view1) = (syn0.atomic_view(), syn1.atomic_view());
            let chunk = encoded.len().div_ceil(threads);
            crossbeam::scope(|scope| {
                for (tid, sentences) in encoded.chunks(chunk).enumerate() {
                    let run = &run;
                    scope.spawn(move |_| {
                        let _worker_span = darkvec_obs::span!("w2v.hogwild.worker", hogwild_ctx);
                        run_worker(tid, sentences, run, view0.snapshots(), view1.snapshots());
                    });
                }
            })
            .expect("training thread panicked");
        }
    }
    drop(hogwild_span);

    let stats = TrainStats {
        vocab_size: vocab.len(),
        corpus_tokens,
        pairs_trained: pairs_trained.into_inner(),
        elapsed: start.elapsed(),
    };
    darkvec_obs::metrics::counter("w2v.pairs_trained").add(stats.pairs_trained);
    darkvec_obs::metrics::counter("w2v.corpus_tokens").add(stats.corpus_tokens);
    darkvec_obs::metrics::gauge("w2v.vocab_size").set(stats.vocab_size as f64);
    darkvec_obs::metrics::gauge("w2v.pairs_per_sec")
        .set(stats.pairs_trained as f64 / stats.elapsed.as_secs_f64().max(1e-9));
    darkvec_obs::debug!(
        "trained {} pairs over {} tokens (vocab {}) in {:.2?}",
        stats.pairs_trained,
        stats.corpus_tokens,
        stats.vocab_size,
        stats.elapsed
    );
    (
        Embedding::from_parts(vocab, syn0.into_vec(), cfg.dim),
        stats,
    )
}

/// The output layer a run trains against.
enum OutputLayer {
    /// Negative sampling: noise words from the unigram^0.75 table.
    Negatives(UnigramTable),
    /// Hierarchical softmax: the Huffman tree of the vocabulary.
    Huffman(HuffmanTree),
}

/// What every worker of one training run shares, read-only apart from
/// the progress counters.
struct Run<'a> {
    cfg: &'a TrainConfig,
    path: Path,
    sig: &'a SigmoidTable,
    subsampler: &'a SubSampler,
    output: &'a OutputLayer,
    start: Instant,
    total_words: u64,
    words_done: &'a AtomicU64,
    pairs_trained: &'a AtomicU64,
}

/// One worker's share of the corpus, all epochs, through its row stores.
fn run_worker<S: RowStore>(
    tid: usize,
    sentences: &[Vec<TokenId>],
    run: &Run<'_>,
    mut syn0: S,
    mut syn1: S,
) {
    let cfg = run.cfg;
    let mut worker = Worker {
        rng: SmallRng::seed_from_u64(
            cfg.seed ^ (tid as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F),
        ),
        sen: Vec::new(),
        neu1: vec![0.0f32; cfg.dim],
        neu1e: vec![0.0f32; cfg.dim],
        targets: Vec::with_capacity(cfg.negative + 1),
        local_pairs: 0,
    };
    let worker_start = Instant::now();
    // Pairs already flushed into the shared counter, so the per-epoch
    // flush adds only this epoch's delta.
    let mut flushed = 0u64;
    let epoch_latency = darkvec_obs::metrics::histogram("w2v.epoch_ns");
    for epoch in 0..cfg.epochs {
        let epoch_started = Instant::now();
        for sentence in sentences {
            // Alpha from global progress, as in word2vec.c.
            let done = run
                .words_done
                .fetch_add(sentence.len() as u64, Ordering::Relaxed);
            let progress = done as f32 / run.total_words as f32;
            let alpha = (cfg.alpha * (1.0 - progress)).max(cfg.min_alpha);
            worker.train_sentence(sentence, run, alpha, &mut syn0, &mut syn1);
        }
        run.pairs_trained
            .fetch_add(worker.local_pairs - flushed, Ordering::Relaxed);
        flushed = worker.local_pairs;
        // One worker reports progress and samples counters for the
        // trace; the others just train.
        if tid == 0 {
            epoch_latency.record_duration(epoch_started.elapsed());
            report_epoch(epoch + 1, run);
            darkvec_obs::metrics::record_sample();
        }
    }
    // Per-worker throughput over the whole run; epochs-scale cost,
    // invisible to the inner loop.
    let secs = worker_start.elapsed().as_secs_f64().max(1e-9);
    let worker_words = sentences.iter().map(|s| s.len() as u64).sum::<u64>() * cfg.epochs as u64;
    darkvec_obs::metrics::gauge(&format!("w2v.worker{tid}.words_per_sec"))
        .set(worker_words as f64 / secs);
    darkvec_obs::metrics::gauge(&format!("w2v.worker{tid}.pairs_per_sec"))
        .set(worker.local_pairs as f64 / secs);
}

/// Publishes one epoch boundary: gauges for alpha/progress/ETA, a debug
/// log line, and the optional [`TrainObserver`] callback. Runs on the
/// reporting worker only, once per epoch.
fn report_epoch(epoch: usize, run: &Run<'_>) {
    let cfg = run.cfg;
    let words = run.words_done.load(Ordering::Relaxed);
    let progress = (words as f32 / run.total_words as f32).min(1.0);
    let alpha = (cfg.alpha * (1.0 - progress)).max(cfg.min_alpha);
    let elapsed = run.start.elapsed();
    let eta = if progress > 0.0 {
        elapsed.mul_f64(f64::from((1.0 - progress) / progress))
    } else {
        Duration::ZERO
    };
    darkvec_obs::metrics::gauge("w2v.alpha").set(f64::from(alpha));
    darkvec_obs::metrics::gauge("w2v.progress").set(f64::from(progress));
    darkvec_obs::metrics::gauge("w2v.eta_secs").set(eta.as_secs_f64());
    darkvec_obs::debug!(
        "epoch {epoch}/{}: progress {:.1}%, alpha {alpha:.5}, eta {eta:.1?}",
        cfg.epochs,
        progress * 100.0
    );
    if let Some(observer) = &cfg.observer {
        observer.on_epoch(&EpochStats {
            epoch,
            epochs: cfg.epochs,
            alpha,
            progress,
            words_done: words,
            pairs_trained: run.pairs_trained.load(Ordering::Relaxed),
            elapsed,
            eta,
        });
    }
}

/// Thread-local training state.
struct Worker {
    rng: SmallRng,
    sen: Vec<TokenId>,
    /// CBOW context average.
    neu1: Vec<f32>,
    /// Gradient accumulator for the input side.
    neu1e: Vec<f32>,
    /// Output targets of the update in progress.
    targets: Vec<Target>,
    local_pairs: u64,
}

impl Worker {
    /// Trains one sentence. Every update — a skip-gram (context, centre)
    /// pair or a CBOW centre — is one fused [`sgns_pair_on`] call: the
    /// input vector (the context word's `syn0` row, or the averaged
    /// context) against the centre word's output targets.
    fn train_sentence<S: RowStore>(
        &mut self,
        sentence: &[TokenId],
        run: &Run<'_>,
        alpha: f32,
        syn0: &mut S,
        syn1: &mut S,
    ) {
        let cfg = run.cfg;
        self.sen.clear();
        let rng = &mut self.rng;
        self.sen.extend(
            sentence
                .iter()
                .copied()
                .filter(|&w| run.subsampler.keep(w, rng)),
        );
        if self.sen.len() < 2 {
            return;
        }
        let sig = run.sig;
        let gain = |f: f32, label: f32| (label - sig.get(f)) * alpha;
        for i in 0..self.sen.len() {
            let center = self.sen[i];
            let radius = self.rng.random_range(1..=cfg.window);
            let lo = i.saturating_sub(radius);
            let hi = (i + radius + 1).min(self.sen.len());
            match cfg.arch {
                Arch::SkipGram => {
                    for j in lo..hi {
                        if j == i {
                            continue;
                        }
                        // Input = context word, output = centre word
                        // (the word2vec.c orientation).
                        let input = self.sen[j] as usize;
                        self.fill_targets(run, center);
                        sgns_pair_on(
                            run.path,
                            syn0.row(input),
                            &mut self.neu1e,
                            &self.targets,
                            syn1,
                            gain,
                        );
                        syn0.publish(input);
                        self.local_pairs += 1;
                    }
                }
                Arch::Cbow => {
                    // Average the context window into neu1.
                    let count = (hi - lo).saturating_sub(1);
                    if count == 0 {
                        continue;
                    }
                    self.neu1.fill(0.0);
                    for j in lo..hi {
                        if j != i {
                            syn0.add_row_into(run.path, self.sen[j] as usize, &mut self.neu1);
                        }
                    }
                    let inv = 1.0 / count as f32;
                    for x in &mut self.neu1 {
                        *x *= inv;
                    }
                    self.fill_targets(run, center);
                    // The kernel's closing `input += neu1e` lands on the
                    // context average, which is not used again.
                    sgns_pair_on(
                        run.path,
                        &mut self.neu1,
                        &mut self.neu1e,
                        &self.targets,
                        syn1,
                        gain,
                    );
                    // Backpropagate the input gradient to every context
                    // word (word2vec.c distributes neu1e undivided).
                    for j in lo..hi {
                        if j != i {
                            syn0.add_to_row(run.path, self.sen[j] as usize, &self.neu1e);
                        }
                    }
                    self.local_pairs += 1;
                }
            }
        }
    }

    /// The output targets of one update towards `output`: the word itself
    /// and `negative` draws from the unigram table (a draw of `output`
    /// itself is skipped), or the Huffman nodes on `output`'s path with
    /// word2vec.c's label convention `1 − code bit`.
    fn fill_targets(&mut self, run: &Run<'_>, output: TokenId) {
        self.targets.clear();
        match run.output {
            OutputLayer::Negatives(table) => {
                self.targets.push(Target {
                    row: output as usize,
                    label: 1.0,
                });
                for _ in 0..run.cfg.negative {
                    let t = table.sample(&mut self.rng);
                    if t != output {
                        self.targets.push(Target {
                            row: t as usize,
                            label: 0.0,
                        });
                    }
                }
            }
            OutputLayer::Huffman(tree) => {
                let code = tree.code(output);
                self.targets
                    .extend(
                        code.points
                            .iter()
                            .zip(&code.bits)
                            .map(|(&point, &bit)| Target {
                                row: point as usize,
                                label: 1.0 - bit as f32,
                            }),
                    );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two disjoint "campaigns": words of the same group always co-occur,
    /// words of different groups never do — a miniature of DarkVec's
    /// coordinated-sender structure.
    fn two_group_corpus() -> Vec<Vec<String>> {
        let group = |prefix: &str, n: usize| -> Vec<String> {
            (0..n).map(|i| format!("{prefix}{i}")).collect()
        };
        let a = group("a", 6);
        let b = group("b", 6);
        let mut corpus = Vec::new();
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for i in 0..400 {
            let src = if i % 2 == 0 { &a } else { &b };
            let mut sentence: Vec<String> =
                (0..8).map(|_| src[next() % src.len()].clone()).collect();
            // Ensure variety within the sentence.
            sentence.dedup();
            corpus.push(sentence);
        }
        corpus
    }

    fn small_cfg() -> TrainConfig {
        TrainConfig {
            dim: 16,
            window: 4,
            negative: 5,
            epochs: 12,
            min_count: 1,
            subsample: 0.0,
            threads: 1,
            seed: 7,
            ..TrainConfig::default()
        }
    }

    /// Mean intra-group minus inter-group cosine for the "a" group.
    fn separation(emb: &Embedding<String>) -> f32 {
        let a0 = "a0".to_string();
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 1..6 {
            intra.push(emb.cosine(&a0, &format!("a{i}")).unwrap());
            inter.push(emb.cosine(&a0, &format!("b{i}")).unwrap());
        }
        intra.iter().sum::<f32>() / intra.len() as f32
            - inter.iter().sum::<f32>() / inter.len() as f32
    }

    #[test]
    fn embeds_cooccurring_words_nearby() {
        let corpus = two_group_corpus();
        let (emb, stats) = train(&corpus, &small_cfg());
        assert_eq!(stats.vocab_size, 12);
        assert!(stats.pairs_trained > 0);
        assert!(separation(&emb) > 0.3, "separation {}", separation(&emb));
    }

    #[test]
    fn cbow_also_learns_group_structure() {
        let corpus = two_group_corpus();
        let cfg = TrainConfig {
            arch: Arch::Cbow,
            epochs: 25,
            ..small_cfg()
        };
        let (emb, stats) = train(&corpus, &cfg);
        assert!(stats.pairs_trained > 0);
        assert!(
            separation(&emb) > 0.3,
            "CBOW separation {}",
            separation(&emb)
        );
    }

    #[test]
    fn hierarchical_softmax_also_learns_group_structure() {
        let corpus = two_group_corpus();
        let cfg = TrainConfig {
            loss: Loss::HierarchicalSoftmax,
            ..small_cfg()
        };
        let (emb, stats) = train(&corpus, &cfg);
        assert!(stats.pairs_trained > 0);
        assert!(separation(&emb) > 0.3, "HS separation {}", separation(&emb));
    }

    #[test]
    fn cbow_hs_combination_works() {
        let corpus = two_group_corpus();
        let cfg = TrainConfig {
            arch: Arch::Cbow,
            loss: Loss::HierarchicalSoftmax,
            epochs: 25,
            ..small_cfg()
        };
        let (emb, _) = train(&corpus, &cfg);
        assert!(
            separation(&emb) > 0.25,
            "CBOW+HS separation {}",
            separation(&emb)
        );
    }

    #[test]
    fn most_similar_prefers_own_group() {
        let corpus = two_group_corpus();
        let (emb, _) = train(&corpus, &small_cfg());
        let sims = emb.most_similar(&"b2".to_string(), 3);
        assert_eq!(sims.len(), 3);
        for (w, _) in &sims {
            assert!(w.starts_with('b'), "neighbour {w} should be a b-word");
        }
    }

    #[test]
    fn single_thread_training_is_deterministic() {
        let corpus = two_group_corpus();
        let cfg = small_cfg();
        let (e1, _) = train(&corpus, &cfg);
        let (e2, _) = train(&corpus, &cfg);
        assert_eq!(e1.vectors(), e2.vectors());
    }

    #[test]
    fn hs_single_thread_is_deterministic() {
        let corpus = two_group_corpus();
        let cfg = TrainConfig {
            loss: Loss::HierarchicalSoftmax,
            ..small_cfg()
        };
        let (e1, _) = train(&corpus, &cfg);
        let (e2, _) = train(&corpus, &cfg);
        assert_eq!(e1.vectors(), e2.vectors());
    }

    #[test]
    fn different_seeds_differ() {
        let corpus = two_group_corpus();
        let cfg = small_cfg();
        let cfg2 = TrainConfig {
            seed: 8,
            ..cfg.clone()
        };
        let (e1, _) = train(&corpus, &cfg);
        let (e2, _) = train(&corpus, &cfg2);
        assert_ne!(e1.vectors(), e2.vectors());
    }

    #[test]
    fn multithreaded_training_produces_comparable_geometry() {
        let corpus = two_group_corpus();
        let cfg = TrainConfig {
            threads: 4,
            ..small_cfg()
        };
        let (emb, _) = train(&corpus, &cfg);
        assert!(separation(&emb) > 0.0, "hogwild run lost group structure");
    }

    #[test]
    fn min_count_drops_rare_words() {
        let mut corpus = two_group_corpus();
        corpus.push(vec!["rare".to_string(), "a0".to_string()]);
        let cfg = TrainConfig {
            min_count: 2,
            ..small_cfg()
        };
        let (emb, _) = train(&corpus, &cfg);
        assert!(emb.get(&"rare".to_string()).is_none());
        assert!(emb.get(&"a0".to_string()).is_some());
    }

    #[test]
    fn empty_corpus_yields_empty_embedding() {
        let corpus: Vec<Vec<String>> = vec![];
        let (emb, stats) = train(&corpus, &small_cfg());
        assert_eq!(emb.len(), 0);
        assert_eq!(stats.pairs_trained, 0);
    }

    #[test]
    fn all_oov_yields_empty_embedding() {
        let corpus = vec![vec!["x".to_string()]];
        let cfg = TrainConfig {
            min_count: 5,
            ..small_cfg()
        };
        let (emb, _) = train(&corpus, &cfg);
        assert_eq!(emb.len(), 0);
    }

    #[test]
    fn count_skipgrams_matches_bruteforce() {
        let corpus: Vec<Vec<u32>> =
            vec![(0..7).collect(), (0..1).collect(), (0..2).collect(), vec![]];
        for window in [1usize, 2, 3, 10] {
            let mut expect = 0u64;
            for s in &corpus {
                for i in 0..s.len() {
                    let lo = i.saturating_sub(window);
                    let hi = (i + window + 1).min(s.len());
                    expect += (hi - lo - 1) as u64;
                }
            }
            assert_eq!(count_skipgrams(&corpus, window), expect, "window {window}");
        }
    }

    #[test]
    fn stats_report_corpus_size() {
        let corpus = two_group_corpus();
        let (_, stats) = train(&corpus, &small_cfg());
        let expect: u64 = corpus.iter().map(|s| s.len() as u64).sum();
        // Sentences shorter than 2 tokens are dropped; the test corpus has none.
        assert_eq!(stats.corpus_tokens, expect);
    }

    #[test]
    fn observer_receives_every_epoch() {
        let corpus = two_group_corpus();
        let collector = Arc::new(crate::observer::CollectingObserver::new());
        let cfg = TrainConfig {
            observer: Some(collector.clone()),
            ..small_cfg()
        };
        let (_, stats) = train(&corpus, &cfg);
        let seen = collector.epochs();
        assert_eq!(seen.len(), cfg.epochs);
        assert_eq!(seen.last().unwrap().epoch, cfg.epochs);
        for w in seen.windows(2) {
            assert!(w[0].words_done <= w[1].words_done, "progress is monotone");
            assert!(w[0].alpha >= w[1].alpha, "alpha decays");
        }
        // Single-threaded: the final flush lands before the last callback.
        assert_eq!(seen.last().unwrap().pairs_trained, stats.pairs_trained);
        assert!(seen.last().unwrap().progress > 0.99);
    }

    #[test]
    fn observer_does_not_change_results() {
        let corpus = two_group_corpus();
        let plain = small_cfg();
        let observed = TrainConfig {
            observer: Some(Arc::new(crate::observer::CollectingObserver::new())),
            ..small_cfg()
        };
        let (e1, _) = train(&corpus, &plain);
        let (e2, _) = train(&corpus, &observed);
        assert_eq!(e1.vectors(), e2.vectors());
    }

    #[test]
    fn warm_start_with_disjoint_prior_equals_cold() {
        // A prior that shares no word with the corpus seeds nothing, so the
        // warm run must be bit-identical to the cold run.
        let corpus = two_group_corpus();
        let cfg = small_cfg();
        let prior_corpus = vec![vec!["x".to_string(), "y".to_string()]; 4];
        let (prior, _) = train(&prior_corpus, &cfg);
        let (cold, _) = train(&corpus, &cfg);
        let (warm, _) = train_from(&corpus, &cfg, &prior);
        assert_eq!(cold.vectors(), warm.vectors());
    }

    #[test]
    fn warm_start_is_deterministic_and_differs_from_cold() {
        let corpus = two_group_corpus();
        let cfg = small_cfg();
        let (prior, _) = train(&corpus, &cfg);
        let (w1, _) = train_from(&corpus, &cfg, &prior);
        let (w2, _) = train_from(&corpus, &cfg, &prior);
        assert_eq!(w1.vectors(), w2.vectors());
        // Seeding from a trained prior changes the init, hence the result.
        let (cold, _) = train(&corpus, &cfg);
        assert_ne!(w1.vectors(), cold.vectors());
        // Geometry survives the warm restart.
        assert!(separation(&w1) > 0.3, "warm separation {}", separation(&w1));
    }

    #[test]
    fn warm_start_evicts_words_absent_from_corpus() {
        let mut prior_corpus = two_group_corpus();
        prior_corpus.push(vec![
            "gone".to_string(),
            "a0".to_string(),
            "gone".to_string(),
        ]);
        let cfg = small_cfg();
        let (prior, _) = train(&prior_corpus, &cfg);
        assert!(prior.get(&"gone".to_string()).is_some());
        let (warm, _) = train_from(&two_group_corpus(), &cfg, &prior);
        assert!(warm.get(&"gone".to_string()).is_none());
        assert_eq!(warm.len(), 12);
    }

    #[test]
    #[should_panic(expected = "does not match cfg.dim")]
    fn warm_start_rejects_dim_mismatch() {
        let corpus = two_group_corpus();
        let (prior, _) = train(&corpus, &small_cfg());
        let cfg = TrainConfig {
            dim: 8,
            ..small_cfg()
        };
        let _ = train_from(&corpus, &cfg, &prior);
    }

    /// One thread trains the same bits through the owned rows as through
    /// the Hogwild snapshot store over the atomic view, for every
    /// architecture × output layer, cold and warm, on every kernel path.
    #[test]
    fn in_place_and_atomic_view_stores_train_identical_vectors() {
        let bits =
            |e: &Embedding<String>| e.vectors().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let corpus = two_group_corpus();
        for path in darkvec_kernels::available_paths() {
            for arch in [Arch::SkipGram, Arch::Cbow] {
                for loss in [Loss::NegativeSampling, Loss::HierarchicalSoftmax] {
                    let cfg = TrainConfig {
                        arch,
                        loss,
                        epochs: 2,
                        ..small_cfg()
                    };
                    let what = format!("{arch:?}/{loss:?} on {}", path.name());
                    let (cold, _) = train_on(&corpus, &cfg, None, None, path, None);
                    let (cold_view, _) =
                        train_on(&corpus, &cfg, None, None, path, Some(Store::AtomicView));
                    assert_eq!(bits(&cold), bits(&cold_view), "cold {what}");
                    let (warm, _) = train_on(&corpus, &cfg, Some(&cold), None, path, None);
                    let (warm_view, _) = train_on(
                        &corpus,
                        &cfg,
                        Some(&cold),
                        None,
                        path,
                        Some(Store::AtomicView),
                    );
                    assert_eq!(bits(&warm), bits(&warm_view), "warm {what}");
                    assert_ne!(bits(&cold), bits(&warm), "warm start changes {what}");
                }
            }
        }
    }

    #[test]
    fn cbow_counts_one_interaction_per_center() {
        let corpus = vec![vec!["a".to_string(), "b".to_string(), "c".to_string()]];
        let cfg = TrainConfig {
            arch: Arch::Cbow,
            epochs: 1,
            min_count: 1,
            subsample: 0.0,
            threads: 1,
            window: 2,
            dim: 4,
            ..TrainConfig::default()
        };
        let (_, stats) = train(&corpus, &cfg);
        assert_eq!(stats.pairs_trained, 3);
    }
}
