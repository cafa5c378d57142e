//! `knn_batch` at one thread scans on the calling thread, on every
//! neighbour backend. The serve daemon classifies every request through
//! `NeighborIndex::knn_batch(.., 1)` on whichever backend it is configured
//! with; a worker spawn per call would cost an OS thread and leave one
//! more entry in the span registry's thread table per request.
//!
//! Its own test binary: the thread table is process-global, and tests
//! running beside this one would register their threads in it.

use darkvec_ml::knn::{knn_batch, Neighbor};
use darkvec_ml::vectors::Matrix;
use darkvec_ml::{HnswConfig, NeighborBackend};

fn rows() -> Vec<f32> {
    (0..40)
        .flat_map(|i| {
            let a = i as f32 * 0.37;
            [a.cos(), a.sin(), (a * 0.5).cos()]
        })
        .collect()
}

fn queries() -> Vec<f32> {
    (0..9)
        .flat_map(|i| [1.0 - 0.2 * i as f32, 0.3, -0.1 * i as f32])
        .collect()
}

/// Calls `search(threads)` once to register the calling thread, then
/// twenty more times at one thread: each must match the first and none
/// may register a thread. Two threads must give the same lists.
fn assert_inline(label: &str, search: impl Fn(usize) -> Vec<Vec<Neighbor>>) {
    let one = search(1);
    assert_eq!(one.len(), 9, "{label}: one list per query");
    let before = darkvec_obs::span::thread_names().len();
    for _ in 0..20 {
        assert_eq!(search(1), one, "{label}: repeat differs");
    }
    assert_eq!(
        darkvec_obs::span::thread_names().len(),
        before,
        "{label}: one-thread batch registered a thread"
    );
    assert_eq!(search(2), one, "{label}: two threads differ from one");
}

#[test]
fn one_thread_batch_matches_two_and_spawns_nothing() {
    let data = rows();
    let normed = Matrix::new(&data, 40, 3).normalized();
    let q = queries();

    assert_inline("knn::knn_batch", |t| knn_batch(&normed, &q, 5, t));
    let hnsw = HnswConfig {
        m: 4,
        ef_construction: 16,
        ef_search: 16,
        ..HnswConfig::default()
    };
    for backend in [
        NeighborBackend::Exact,
        NeighborBackend::ExactInt8,
        NeighborBackend::Hnsw(hnsw.clone()),
        NeighborBackend::HnswInt8(hnsw),
    ] {
        let index = backend.index(&normed, 1);
        assert_inline(backend.name(), |t| index.knn_batch(&q, 5, t));
    }
}
