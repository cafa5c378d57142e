//! Stamps the binary with the compiler version, the git commit and a
//! hash of the sources it was built from, so every benchmark output
//! names the build that produced it, with or without git metadata.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Sources that decide what the benchmark measures: the workspace crates,
/// their lock file, and this package.
const SOURCES: [&str; 7] = [
    "../crates",
    "../Cargo.toml",
    "../Cargo.lock",
    "Cargo.toml",
    "build.rs",
    "src",
    "tests",
];

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// FNV-1a over every source file's path and contents, in path order.
fn source_hash() -> u64 {
    let mut files = Vec::new();
    for src in SOURCES {
        collect(Path::new(src), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_string()).filter(|s| !s.is_empty())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // A source checkout without git metadata has no commit to name.
    let commit =
        run("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE={:016x}", source_hash());
    for src in SOURCES {
        println!("cargo:rerun-if-changed={src}");
    }
    // A path that does not exist would re-run this script on every build.
    if std::path::Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
