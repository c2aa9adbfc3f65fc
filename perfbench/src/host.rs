//! Facts about the host and the process, and the run's working
//! directories (always inside the benchmark's own `out/` directory).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::report::Outcome;

/// Root of everything a run writes: `out/` next to the manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Record what every result carries: seed, host, toolchain and revision.
pub fn record_provenance(out: &mut Outcome, workload: &str, seed: u64, trace: bool) {
    out.provenance("workload", workload);
    out.provenance("seed", seed);
    out.provenance("trace", trace);
    out.provenance("nproc", nproc());
    out.provenance("rustc", env!("PERFBENCH_RUSTC"));
    out.provenance("git_sha", env!("PERFBENCH_GIT_SHA"));
}

/// A directory under `out/tmp/` that is removed when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the counter only makes names unique within the process.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        if meta.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Entries of the reference loop's table: 8 MiB of `u64`, more than a
/// core's private caches, so that the loop meets the same cache and
/// memory contention from other tenants as the engine's hash tables.
const REFERENCE_ENTRIES: usize = 1 << 20;
/// Random reads per reference measurement (about 3 ms).
const REFERENCE_STEPS: usize = 400_000;

/// The reference loop's time on the host the bounds in `BENCHMARK.json`
/// were set on (two vCPUs of a shared Intel Xeon): a host-scaled time is
/// in that host's seconds.
pub const REFERENCE_NOMINAL_S: f64 = 3.0e-3;

/// Time one pass of a fixed loop of xorshift-indexed reads over an 8 MiB
/// table. The engine plays no part in it, so its time follows how fast
/// the host runs this thread at the moment, not the engine's speed.
pub fn reference_seconds() -> f64 {
    static TABLE: std::sync::OnceLock<Vec<u64>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| (0..REFERENCE_ENTRIES as u64).map(mix).collect());
    let started = std::time::Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for _ in 0..REFERENCE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(table[(x as usize) & (REFERENCE_ENTRIES - 1)]);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// The host's speed around a measurement, from the reference loop timed
/// before ([`HostScale::start`]) and after ([`HostScale::finish`]) it.
///
/// On a shared host the speed at which the same code runs drifts by
/// ±20% over seconds to minutes with the neighbours' load. A wall time
/// multiplied by [`HostScale::finish`]'s factor is host-scaled: what it
/// would have been on a host running the reference loop in
/// [`REFERENCE_NOMINAL_S`]. A change in the engine moves it; a change
/// in the host's speed largely does not.
pub struct HostScale {
    before: f64,
}

impl HostScale {
    pub fn start() -> HostScale {
        HostScale {
            before: reference_seconds(),
        }
    }

    /// The factor to multiply the measured wall time by.
    pub fn finish(self) -> f64 {
        REFERENCE_NOMINAL_S / ((self.before + reference_seconds()) / 2.0)
    }
}

/// SplitMix64: a stateless mixer for values that must be recomputable
/// from a key (row payloads, answer fingerprints).
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
