//! One-thread embeddings pinned to recorded bit patterns.
//!
//! The hashes below were recorded from the trainer as it stood before its
//! weights moved from relaxed-atomic cells to plain in-place `f32` rows
//! and its per-pair `dot`/`axpy` calls were fused into one kernel. They
//! cover every architecture × output layer, cold and warm start, on the
//! scalar, portable and AVX2+FMA kernel paths. A change to any path's
//! reduction order, label or gain convention, negative-draw order or
//! update order moves them. (No NEON hashes were recorded; that path is
//! held to the scalar reference only by the kernel parity suite.)
//!
//! A single test function: `force_path` is process-global.

use darkvec_kernels::{available_paths, force_path};
use darkvec_w2v::{train, train_from, Arch, Loss, TrainConfig};

/// FNV-1a over the little-endian bits of every vector component.
fn fnv(v: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// 1500 sentences over 1200 tokens: ten 40-token groups that each
/// sentence mostly draws from, plus a uniform background.
fn corpus() -> Vec<Vec<u32>> {
    let mut s = 42u64;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as u32
    };
    (0..1500)
        .map(|_| {
            let len = 5 + next() % 40;
            let group = next() % 10;
            (0..len)
                .map(|_| {
                    if next() % 100 < 70 {
                        group * 40 + next() % 40
                    } else {
                        next() % 400 + (next() % 3) * 400
                    }
                })
                .collect()
        })
        .collect()
}

type Golden = (
    &'static str,
    Arch,
    Loss,
    usize,
    usize,
    usize,
    u64,
    u64,
    u64,
    u64,
);

/// (path, arch, loss, dim, window, epochs, cold hash, cold pairs, warm
/// hash, warm pairs).
#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("scalar", Arch::SkipGram, Loss::NegativeSampling, 50, 25, 1, 0x17b99a549260589f, 636373, 0x7d4f4d43231d36cc, 639739),
    ("scalar", Arch::SkipGram, Loss::NegativeSampling, 16, 5, 2, 0x60959316f06ba3c1, 403327, 0xe7d82b7ee889a0a4, 402384),
    ("scalar", Arch::SkipGram, Loss::HierarchicalSoftmax, 50, 25, 1, 0xd7c09d56eacd9c47, 640696, 0xf51e837219688ea8, 640188),
    ("scalar", Arch::SkipGram, Loss::HierarchicalSoftmax, 16, 5, 2, 0xcea7c73c9f36cb9e, 404144, 0x308a0140da1166ee, 404080),
    ("scalar", Arch::Cbow, Loss::NegativeSampling, 50, 25, 1, 0x4a1cce6925757d11, 37148, 0x29436f111905f535, 37150),
    ("scalar", Arch::Cbow, Loss::NegativeSampling, 16, 5, 2, 0xbaffb7397ef16880, 74299, 0x30badc7baed7e39d, 74292),
    ("scalar", Arch::Cbow, Loss::HierarchicalSoftmax, 50, 25, 1, 0x6e58a923cc56a51c, 37154, 0x5dabd339cb0ed07f, 37155),
    ("scalar", Arch::Cbow, Loss::HierarchicalSoftmax, 16, 5, 2, 0x2590e91fa776e835, 74295, 0x55158dd437f67a7f, 74302),
    ("portable", Arch::SkipGram, Loss::NegativeSampling, 50, 25, 1, 0xa56b4b643e580684, 636373, 0xf5b89433b736a058, 639739),
    ("portable", Arch::SkipGram, Loss::NegativeSampling, 16, 5, 2, 0x13757f3e142885c0, 403327, 0xb226de84994f9466, 402384),
    ("portable", Arch::SkipGram, Loss::HierarchicalSoftmax, 50, 25, 1, 0x63cb5d6930d38903, 640696, 0xe29f757bbc4210a0, 640188),
    ("portable", Arch::SkipGram, Loss::HierarchicalSoftmax, 16, 5, 2, 0xd7f8d0f4e56dfef2, 404144, 0xb834da14e06410c4, 404080),
    ("portable", Arch::Cbow, Loss::NegativeSampling, 50, 25, 1, 0x4a1cce6925757d11, 37148, 0xd29de4664a095136, 37150),
    ("portable", Arch::Cbow, Loss::NegativeSampling, 16, 5, 2, 0xbaffb7397ef16880, 74299, 0x30badc7baed7e39d, 74292),
    ("portable", Arch::Cbow, Loss::HierarchicalSoftmax, 50, 25, 1, 0xead82e72cbf85309, 37154, 0x0b9d34fa4dbd96a8, 37155),
    ("portable", Arch::Cbow, Loss::HierarchicalSoftmax, 16, 5, 2, 0x2590e91fa776e835, 74295, 0x55158dd437f67a7f, 74302),
    ("avx2+fma", Arch::SkipGram, Loss::NegativeSampling, 50, 25, 1, 0x1347a3458ec97899, 636373, 0x6d681f3e4ad36d17, 639739),
    ("avx2+fma", Arch::SkipGram, Loss::NegativeSampling, 16, 5, 2, 0xf30d9f62d4c0d419, 403327, 0x24480b61dc6c004d, 402384),
    ("avx2+fma", Arch::SkipGram, Loss::HierarchicalSoftmax, 50, 25, 1, 0x390ea8897429ec9a, 640696, 0xa357f29acfd26e02, 640188),
    ("avx2+fma", Arch::SkipGram, Loss::HierarchicalSoftmax, 16, 5, 2, 0xd783724369ec80b1, 404144, 0xd42bf49f952ebe13, 404080),
    ("avx2+fma", Arch::Cbow, Loss::NegativeSampling, 50, 25, 1, 0x3e1c4596c01f3445, 37148, 0x03a3b4b493dd38f9, 37150),
    ("avx2+fma", Arch::Cbow, Loss::NegativeSampling, 16, 5, 2, 0x407e5b110c185c0f, 74299, 0x4a568c1b5d012651, 74292),
    ("avx2+fma", Arch::Cbow, Loss::HierarchicalSoftmax, 50, 25, 1, 0xab4a16061c396b40, 37154, 0xfd88e179b8e690c7, 37155),
    ("avx2+fma", Arch::Cbow, Loss::HierarchicalSoftmax, 16, 5, 2, 0xb1defafad39b4351, 74295, 0x132f1fe9d19ea3ca, 74302),
];

#[test]
fn one_thread_embeddings_match_recorded_hashes() {
    let corpus = corpus();
    let mut checked = Vec::new();
    for path in available_paths() {
        let rows: Vec<&Golden> = GOLDEN.iter().filter(|g| g.0 == path.name()).collect();
        if rows.is_empty() {
            continue;
        }
        force_path(Some(path));
        for &&(
            name,
            arch,
            loss,
            dim,
            window,
            epochs,
            cold_hash,
            cold_pairs,
            warm_hash,
            warm_pairs,
        ) in &rows
        {
            let cfg = TrainConfig {
                arch,
                loss,
                dim,
                window,
                epochs,
                min_count: 2,
                threads: 1,
                seed: 9,
                ..TrainConfig::default()
            };
            let what = format!("{name} {arch:?}/{loss:?} dim {dim} window {window}");
            let (cold, stats) = train(&corpus, &cfg);
            assert_eq!(stats.pairs_trained, cold_pairs, "cold pairs, {what}");
            assert_eq!(fnv(cold.vectors()), cold_hash, "cold vectors, {what}");
            let warm_cfg = TrainConfig { seed: 10, ..cfg };
            let (warm, stats) = train_from(&corpus, &warm_cfg, &cold);
            assert_eq!(stats.pairs_trained, warm_pairs, "warm pairs, {what}");
            assert_eq!(fnv(warm.vectors()), warm_hash, "warm vectors, {what}");
        }
        checked.push(path.name());
    }
    force_path(None);
    // Scalar and portable exist on every target.
    assert!(checked.contains(&"scalar") && checked.contains(&"portable"));
}
