//! # darkvec-w2v
//!
//! A from-scratch Word2Vec implementation: **skip-gram with negative
//! sampling** (SGNS), the model DarkVec trains over sequences of sender IP
//! addresses (§5.3, Appendix A.1 of the paper).
//!
//! The design follows the original `word2vec.c` / Gensim training loop:
//!
//! * a [`vocab::Vocab`] built with a minimum-count filter;
//! * frequent-word **subsampling** ([`sampling::SubSampler`]) so that
//!   dominant words (for DarkVec: Mirai-scale senders) do not swamp the
//!   corpus;
//! * negative samples drawn from the **unigram distribution raised to
//!   0.75** ([`sampling::UnigramTable`]);
//! * a precomputed **sigmoid table** ([`sigmoid`]);
//! * per-position **dynamic window shrinking** (the effective window for a
//!   position is uniform in `1..=window`);
//! * linear **learning-rate decay** from `alpha` to `min_alpha` across all
//!   epochs;
//! * weights in plain row-major `f32` [`matrix::Matrix`]es, trained in
//!   place on one thread; with more, **Hogwild** workers ([`train()`]) update
//!   them without locks through a relaxed-atomic view of the same buffer,
//!   which compiles to plain loads/stores on x86-64 — the lock-free SGD of
//!   the original C tool, but without undefined behaviour;
//! * one fused kernel call per training pair
//!   ([`darkvec_kernels::sgns_pair_on`]).
//!
//! The crate is generic over the word type `W`: DarkVec uses IPv4 addresses,
//! DANTE uses port numbers, and the unit tests use plain strings.

pub mod embedding;
pub mod huffman;
pub mod matrix;
pub mod observer;
pub mod sampling;
pub mod sigmoid;
pub mod train;
pub mod vocab;

pub use embedding::Embedding;
pub use observer::{CollectingObserver, EpochStats, TrainObserver};
pub use train::{
    count_skipgrams, train, train_from, train_prepared, Arch, Loss, TrainConfig, TrainStats,
};
pub use vocab::Vocab;
