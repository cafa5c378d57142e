//! Cache I/O lands in the `cache.*_ns` latency histograms. Its own test
//! binary: the histograms are process-global, and the library's unit
//! tests record into them concurrently.

use darkvec::cache::ArtifactCache;
use std::fs;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("darkvec-cache-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn latency_histograms_record_cache_io() {
    let dir = tmpdir("latency");
    let cache = ArtifactCache::new(&dir).unwrap();
    let hit = darkvec_obs::metrics::histogram("cache.hit_ns");
    let miss = darkvec_obs::metrics::histogram("cache.miss_ns");
    let store = darkvec_obs::metrics::histogram("cache.store_ns");
    let (h0, m0, s0) = (hit.count(), miss.count(), store.count());
    assert!(cache.load("model", 1).is_none());
    cache.store("model", 1, b"payload").unwrap();
    assert!(cache.load("model", 1).is_some());
    assert_eq!(hit.count() - h0, 1);
    assert_eq!(miss.count() - m0, 1);
    assert_eq!(store.count() - s0, 1);
    assert!(store.quantile(0.99) > 0, "store latency is non-zero");
    let _ = fs::remove_dir_all(&dir);
}
