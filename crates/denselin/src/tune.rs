//! Persistent per-host GEMM autotuning.
//!
//! The `tune` bench bin (crates/bench) sweeps the microkernel variant
//! table ([`crate::gemm::microkernels`]) against a `(mc, kc, nc)` blocking
//! grid and thread counts through the measurement harness here
//! ([`sweep`]: warmup runs, repeated timed runs, median), then persists
//! the winning `(kernel, blocking)` pair to a per-host tuning file —
//! `$DENSELIN_TUNING_FILE`, else `$XDG_CACHE_HOME/denselin/tuning.toml`,
//! else `~/.cache/denselin/tuning.toml`. Records are keyed by a
//! [`HostKey`] (detected ISA + core count + cache geometry), so one cache
//! file can serve heterogeneous machines sharing a home directory.
//!
//! At startup, [`crate::gemm::GemmBlocking::tuned`] and
//! [`crate::gemm::selected_kernel`] consult [`persisted`] — the record for
//! this host, loaded once per process — and fall back to the built-in
//! defaults ([`GemmBlocking::default`], the fastest supported ISA kernel)
//! when the file is absent, corrupt, keyed to another host, or names a
//! kernel this host cannot run. Nothing is timed at startup. A bad tuning file can therefore
//! cost performance but never correctness and never a panic; every
//! corruption path is pinned by `tests/tuning_file.rs`.
//!
//! The file format is a deliberately tiny TOML subset (comments, a
//! `version` header, `[[gemm]]` record sections of `key = value` pairs)
//! written and parsed by hand — the workspace takes no serde/toml
//! dependency. Unknown keys and unknown sections are tolerated so newer
//! writers stay readable by older parsers; malformed lines and incomplete
//! records are hard errors so truncation is detected, reported, and
//! ignored rather than half-applied.

use std::path::PathBuf;
use std::sync::OnceLock;

use crate::gemm::{gemm_with, microkernels, GemmBlocking, Microkernel};
use crate::matrix::Matrix;

/// Where a blocking or kernel decision came from, in consultation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TuneSource {
    /// A live [`crate::gemm::force_kernel`] guard (kernel selection only).
    Forced,
    /// A valid `DENSELIN_GEMM_BLOCK` / `DENSELIN_GEMM_KERNEL` override.
    EnvOverride,
    /// The per-host record in the persisted tuning file.
    Persisted,
    /// The built-in fallback: [`GemmBlocking::default`] or the fastest
    /// supported ISA default kernel.
    Heuristic,
}

impl TuneSource {
    /// Stable lowercase token for logs and bench JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            TuneSource::Forced => "forced",
            TuneSource::EnvOverride => "env",
            TuneSource::Persisted => "persisted",
            TuneSource::Heuristic => "heuristic",
        }
    }
}

/// The identity a tuning record is keyed by: a tuned decision transfers
/// only between hosts whose ISA tier, core count, and cache geometry all
/// match, which is exactly what the blocking parameters are sensitive to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostKey {
    /// ISA tier token (`avx512`, `avx2`, `x86_64`, `aarch64`, ...).
    pub isa: String,
    /// Available parallelism when detected.
    pub cores: usize,
    /// L1 data cache size in bytes (0 when undetectable).
    pub l1d: u64,
    /// L2 cache size in bytes (0 when undetectable).
    pub l2: u64,
    /// L3 cache size in bytes (0 when undetectable).
    pub l3: u64,
}

impl HostKey {
    /// Detect this host's key. Cache sizes come from
    /// `/sys/devices/system/cpu/cpu0/cache`; on platforms without that
    /// tree they read as 0, which still yields a stable (if coarser) key.
    pub fn detect() -> HostKey {
        HostKey {
            isa: isa_token().to_string(),
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
            l1d: sysfs_cache_size(1),
            l2: sysfs_cache_size(2),
            l3: sysfs_cache_size(3),
        }
    }

    /// Render the key as the stable string stored in `host = "..."`.
    pub fn render(&self) -> String {
        format!(
            "{}-c{}-l1d{}-l2{}-l3{}",
            self.isa, self.cores, self.l1d, self.l2, self.l3
        )
    }
}

/// This process's detected host key, rendered once.
pub fn host_key() -> &'static str {
    static KEY: OnceLock<String> = OnceLock::new();
    KEY.get_or_init(|| HostKey::detect().render())
}

#[cfg(target_arch = "x86_64")]
fn isa_token() -> &'static str {
    if std::arch::is_x86_feature_detected!("avx512f") {
        "avx512"
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        "avx2"
    } else {
        "x86_64"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn isa_token() -> &'static str {
    std::env::consts::ARCH
}

/// Size in bytes of the first level-`level` data or unified cache of cpu0,
/// or 0 when the sysfs tree is absent or unparsable.
fn sysfs_cache_size(level: u32) -> u64 {
    for idx in 0..10 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(lv) = std::fs::read_to_string(format!("{base}/level")) else {
            break;
        };
        if lv.trim().parse::<u32>() != Ok(level) {
            continue;
        }
        let Ok(ty) = std::fs::read_to_string(format!("{base}/type")) else {
            continue;
        };
        let ty = ty.trim();
        if ty != "Data" && ty != "Unified" {
            continue;
        }
        if let Ok(sz) = std::fs::read_to_string(format!("{base}/size")) {
            if let Some(bytes) = parse_cache_size(sz.trim()) {
                return bytes;
            }
        }
    }
    0
}

/// Parse a sysfs cache size (`32K`, `16M`, or a bare byte count).
fn parse_cache_size(s: &str) -> Option<u64> {
    if let Some(k) = s.strip_suffix('K') {
        return k.trim().parse::<u64>().ok().map(|v| v * 1024);
    }
    if let Some(m) = s.strip_suffix('M') {
        return m.trim().parse::<u64>().ok().map(|v| v * 1024 * 1024);
    }
    s.parse().ok()
}

/// One persisted tuning decision: the winning microkernel and blocking
/// for a host, with the measurement that chose it.
#[derive(Clone, Debug, PartialEq)]
pub struct TuningRecord {
    /// The rendered [`HostKey`] this record applies to.
    pub host: String,
    /// Winning microkernel variant name.
    pub kernel: String,
    /// Winning cache-blocking parameters.
    pub blocking: GemmBlocking,
    /// Thread count of the winning measurement (informational; the record
    /// is consulted by serial and parallel paths alike).
    pub threads: usize,
    /// Measured throughput of the winning point, for the `>= default
    /// blocking` gate and for humans reading the file.
    pub gflops: f64,
}

/// The parsed tuning file: a version header plus `[[gemm]]` records.
#[derive(Clone, Debug, PartialEq)]
pub struct TuningFile {
    /// Format version (currently 1). Unknown versions still parse; the
    /// reader only relies on fields it knows.
    pub version: u32,
    /// All records, at most one per host key once [`Self::upsert`] is used.
    pub records: Vec<TuningRecord>,
}

impl Default for TuningFile {
    fn default() -> Self {
        TuningFile {
            version: 1,
            records: Vec::new(),
        }
    }
}

/// Partially parsed `[[gemm]]` record.
#[derive(Default)]
struct PartialRecord {
    host: Option<String>,
    kernel: Option<String>,
    mc: Option<usize>,
    kc: Option<usize>,
    nc: Option<usize>,
    threads: Option<usize>,
    gflops: Option<f64>,
}

impl PartialRecord {
    fn finish(self) -> Result<TuningRecord, String> {
        let host = self.host.ok_or("[[gemm]] record missing `host`")?;
        let kernel = self.kernel.ok_or("[[gemm]] record missing `kernel`")?;
        let mc = self.mc.ok_or("[[gemm]] record missing `mc`")?;
        let kc = self.kc.ok_or("[[gemm]] record missing `kc`")?;
        let nc = self.nc.ok_or("[[gemm]] record missing `nc`")?;
        if mc == 0 || kc == 0 || nc == 0 {
            return Err("blocking fields must be positive".into());
        }
        Ok(TuningRecord {
            host,
            kernel,
            blocking: GemmBlocking { mc, kc, nc },
            threads: self.threads.unwrap_or(1),
            gflops: self.gflops.unwrap_or(0.0),
        })
    }
}

fn parse_quoted(value: &str, key: &str, ln: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| format!("line {ln}: `{key}` must be a double-quoted string"))?;
    if inner.contains('"') {
        return Err(format!("line {ln}: `{key}` contains an embedded quote"));
    }
    Ok(inner.to_string())
}

fn parse_num<T: std::str::FromStr>(value: &str, key: &str, ln: usize) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("line {ln}: `{key}` has non-numeric value `{value}`"))
}

impl TuningFile {
    /// Parse the TOML-subset text. Unknown keys and unknown sections are
    /// tolerated (skipped); malformed lines, unterminated strings, and
    /// incomplete `[[gemm]]` records are errors, so a truncated or
    /// corrupted file is rejected whole instead of half-applied.
    pub fn parse(text: &str) -> Result<TuningFile, String> {
        let mut file = TuningFile::default();
        let mut cur: Option<PartialRecord> = None;
        let mut skipping_unknown_section = false;
        for (idx, raw) in text.lines().enumerate() {
            let ln = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line == "[[gemm]]" {
                if let Some(p) = cur.take() {
                    file.records.push(p.finish()?);
                }
                cur = Some(PartialRecord::default());
                skipping_unknown_section = false;
                continue;
            }
            if line.starts_with('[') {
                // Unknown section: close any open record, skip its body.
                if let Some(p) = cur.take() {
                    file.records.push(p.finish()?);
                }
                skipping_unknown_section = true;
                continue;
            }
            if skipping_unknown_section {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {ln}: expected `key = value`, got `{line}`"));
            };
            let (key, value) = (key.trim(), value.trim());
            if key.is_empty() || value.is_empty() {
                return Err(format!("line {ln}: expected `key = value`, got `{line}`"));
            }
            match cur.as_mut() {
                None => {
                    // Header area before the first section.
                    if key == "version" {
                        file.version = parse_num(value, key, ln)?;
                    }
                    // Unknown header keys tolerated.
                }
                Some(p) => match key {
                    "host" => p.host = Some(parse_quoted(value, key, ln)?),
                    "kernel" => p.kernel = Some(parse_quoted(value, key, ln)?),
                    "mc" => p.mc = Some(parse_num(value, key, ln)?),
                    "kc" => p.kc = Some(parse_num(value, key, ln)?),
                    "nc" => p.nc = Some(parse_num(value, key, ln)?),
                    "threads" => p.threads = Some(parse_num(value, key, ln)?),
                    "gflops" => p.gflops = Some(parse_num(value, key, ln)?),
                    _ => {} // Unknown record fields tolerated.
                },
            }
        }
        if let Some(p) = cur.take() {
            file.records.push(p.finish()?);
        }
        Ok(file)
    }

    /// Render to the textual format [`Self::parse`] reads back losslessly.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("# denselin per-host GEMM tuning cache (written by the `tune` bench bin).\n");
        s.push_str("# Records are keyed by ISA + cores + cache geometry; delete to re-tune.\n");
        s.push_str(&format!("version = {}\n", self.version));
        for r in &self.records {
            s.push_str(&format!(
                "\n[[gemm]]\nhost = \"{}\"\nkernel = \"{}\"\nmc = {}\nkc = {}\nnc = {}\nthreads = {}\ngflops = {:?}\n",
                r.host, r.kernel, r.blocking.mc, r.blocking.kc, r.blocking.nc, r.threads, r.gflops
            ));
        }
        s
    }

    /// The record for `host`, if any.
    pub fn lookup(&self, host: &str) -> Option<&TuningRecord> {
        self.records.iter().find(|r| r.host == host)
    }

    /// Insert `rec`, replacing any existing record with the same host key.
    pub fn upsert(&mut self, rec: TuningRecord) {
        match self.records.iter_mut().find(|r| r.host == rec.host) {
            Some(slot) => *slot = rec,
            None => self.records.push(rec),
        }
    }

    /// Read and parse `path`.
    pub fn load(path: &std::path::Path) -> Result<TuningFile, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Render and write to `path`, creating parent directories.
    pub fn store(&self, path: &std::path::Path) -> Result<(), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("mkdir {}: {e}", parent.display()))?;
            }
        }
        std::fs::write(path, self.render()).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Resolve the tuning file location: `$DENSELIN_TUNING_FILE` >
/// `$XDG_CACHE_HOME/denselin/tuning.toml` > `~/.cache/denselin/tuning.toml`.
/// `None` when no location is derivable (no env at all).
pub fn tuning_file_path() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("DENSELIN_TUNING_FILE") {
        if !p.is_empty() {
            return Some(PathBuf::from(p));
        }
    }
    if let Ok(x) = std::env::var("XDG_CACHE_HOME") {
        if !x.is_empty() {
            return Some(PathBuf::from(x).join("denselin").join("tuning.toml"));
        }
    }
    std::env::var("HOME")
        .ok()
        .filter(|h| !h.is_empty())
        .map(|h| {
            PathBuf::from(h)
                .join(".cache")
                .join("denselin")
                .join("tuning.toml")
        })
}

/// The persisted tuning record for this host, loaded once per process.
/// `None` — and a one-line stderr note where that is surprising — when the
/// file is absent, unreadable, corrupt, keyed to other hosts only, or
/// names a kernel this host cannot run. Consulted by
/// [`GemmBlocking::tuned`] and [`crate::gemm::selected_kernel`]; every
/// failure mode degrades to the defaults, never to a panic or a wrong
/// kernel.
pub fn persisted() -> Option<&'static TuningRecord> {
    static REC: OnceLock<Option<TuningRecord>> = OnceLock::new();
    REC.get_or_init(load_persisted).as_ref()
}

fn load_persisted() -> Option<TuningRecord> {
    let path = tuning_file_path()?;
    let text = std::fs::read_to_string(&path).ok()?;
    let file = match TuningFile::parse(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "denselin: ignoring corrupt tuning file {} ({e}); using defaults",
                path.display()
            );
            return None;
        }
    };
    let rec = file.lookup(host_key())?.clone();
    match Microkernel::by_name(&rec.kernel) {
        Some(k) if k.supported() => Some(rec),
        _ => {
            eprintln!(
                "denselin: tuning file {} names kernel `{}` this host cannot run; using defaults",
                path.display(),
                rec.kernel
            );
            None
        }
    }
}

/// One measured point of the tuning search surface.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Microkernel variant measured.
    pub kernel: &'static str,
    /// Blocking measured.
    pub blocking: GemmBlocking,
    /// Worker threads used.
    pub threads: usize,
    /// Median throughput over the repeat runs.
    pub gflops: f64,
}

/// Sweep shape: problem size, measurement discipline, and the grid.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Square problem size (`n x n x n`).
    pub n: usize,
    /// Untimed runs before measuring, to warm caches and the thread pool.
    pub warmup: usize,
    /// Timed runs per point; the median is kept.
    pub reps: usize,
    /// Blocking candidates.
    pub blockings: Vec<GemmBlocking>,
    /// Thread counts to measure each (kernel, blocking) under.
    pub threads: Vec<usize>,
}

/// The default blocking grid: the former first-use probe candidates plus
/// L1-lean and wide-panel corners, 8 points total.
fn default_grid() -> Vec<GemmBlocking> {
    [
        (64, 128, 256),
        (96, 192, 384),
        (128, 256, 512),
        (192, 256, 512),
        (256, 256, 512),
        (128, 128, 256),
        (64, 64, 512),
        (96, 96, 192),
    ]
    .into_iter()
    .map(|(mc, kc, nc)| GemmBlocking { mc, kc, nc })
    .collect()
}

impl SweepConfig {
    /// CI-friendly reduced sweep (seconds, not minutes).
    pub fn quick() -> Self {
        SweepConfig {
            n: 192,
            warmup: 1,
            reps: 3,
            blockings: default_grid(),
            threads: vec![1, 2],
        }
    }

    /// Fuller sweep for real tuning runs.
    pub fn full() -> Self {
        let mut blockings = default_grid();
        blockings.extend(
            [
                (192, 384, 768),
                (256, 384, 768),
                (320, 256, 640),
                (160, 320, 480),
            ]
            .into_iter()
            .map(|(mc, kc, nc)| GemmBlocking { mc, kc, nc }),
        );
        SweepConfig {
            n: 384,
            warmup: 2,
            reps: 5,
            blockings,
            threads: vec![1, 2, 4],
        }
    }
}

/// Median-of-`reps` throughput of one `(blocking, kernel, threads)` point
/// on a deterministic `n^3` problem, after `warmup` untimed runs.
pub fn measure_gflops(
    n: usize,
    warmup: usize,
    reps: usize,
    blk: GemmBlocking,
    krn: &Microkernel,
    threads: usize,
) -> f64 {
    let a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 23) as f64 * 0.0625 - 0.6);
    let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.0625 - 0.5);
    let mut c = Matrix::zeros(n, n);
    for _ in 0..warmup {
        gemm_with(&mut c, 1.0, &a, &b, 0.0, threads, blk, krn);
    }
    let mut times = Vec::with_capacity(reps.max(1));
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        gemm_with(&mut c, 1.0, &a, &b, 0.0, threads, blk, krn);
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    2.0 * (n as f64).powi(3) / median / 1e9
}

/// Run the full search surface: every *supported* variant in the table x
/// every blocking x every thread count. The caller (the `tune` bench bin)
/// picks the winner and persists it.
pub fn sweep(cfg: &SweepConfig) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for krn in microkernels().iter().filter(|k| k.supported()) {
        for &blk in &cfg.blockings {
            for &threads in &cfg.threads {
                let gflops = measure_gflops(cfg.n, cfg.warmup, cfg.reps, blk, krn, threads);
                points.push(SweepPoint {
                    kernel: krn.name,
                    blocking: blk,
                    threads,
                    gflops,
                });
            }
        }
    }
    points
}

/// The highest-throughput point of a sweep.
pub fn best_point(points: &[SweepPoint]) -> Option<&SweepPoint> {
    points.iter().max_by(|a, b| a.gflops.total_cmp(&b.gflops))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> TuningFile {
        TuningFile {
            version: 1,
            records: vec![
                TuningRecord {
                    host: "avx2-c8-l1d32768-l2262144-l38388608".into(),
                    kernel: "avx2_8x4".into(),
                    blocking: GemmBlocking {
                        mc: 128,
                        kc: 256,
                        nc: 512,
                    },
                    threads: 1,
                    gflops: 23.456,
                },
                TuningRecord {
                    host: "aarch64-c4-l1d65536-l2524288-l30".into(),
                    kernel: "portable_8x8".into(),
                    blocking: GemmBlocking {
                        mc: 96,
                        kc: 192,
                        nc: 384,
                    },
                    threads: 2,
                    gflops: 11.0,
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let f = sample_file();
        let parsed = TuningFile::parse(&f.render()).unwrap();
        assert_eq!(parsed, f);
    }

    #[test]
    fn unknown_fields_and_sections_are_tolerated() {
        let text = "\
# comment\nversion = 1\nfuture_header = 7\n\n[[gemm]]\nhost = \"h1\"\nkernel = \"portable_4x4\"\nmc = 64\nkc = 64\nnc = 128\nthreads = 1\ngflops = 2.5\nfuture_field = \"ignored\"\n\n[future_section]\nanything goes here = ok\n\n[[gemm]]\nhost = \"h2\"\nkernel = \"portable_8x4\"\nmc = 32\nkc = 32\nnc = 64\n";
        let f = TuningFile::parse(text).unwrap();
        assert_eq!(f.records.len(), 2);
        assert_eq!(f.lookup("h1").unwrap().kernel, "portable_4x4");
        // Optional fields default.
        let h2 = f.lookup("h2").unwrap();
        assert_eq!((h2.threads, h2.gflops), (1, 0.0));
    }

    #[test]
    fn corruption_is_an_error_never_a_panic() {
        // Truncation mid-record: required fields missing.
        assert!(TuningFile::parse("[[gemm]]\nhost = \"h\"\nkernel = \"k\"\nmc = 64\n").is_err());
        // Truncation mid-string: unterminated quote.
        assert!(TuningFile::parse("[[gemm]]\nhost = \"h\nkernel = \"k\"\n").is_err());
        // Garbage line.
        assert!(TuningFile::parse("version = 1\nnot a key value line\n").is_err());
        // Non-numeric blocking.
        assert!(TuningFile::parse(
            "[[gemm]]\nhost = \"h\"\nkernel = \"k\"\nmc = abc\nkc = 1\nnc = 1\n"
        )
        .is_err());
        // Zero blocking.
        assert!(TuningFile::parse(
            "[[gemm]]\nhost = \"h\"\nkernel = \"k\"\nmc = 0\nkc = 1\nnc = 1\n"
        )
        .is_err());
        // Every render of a truncated prefix either parses or errors — no
        // panic at any cut point.
        let full = sample_file().render();
        for cut in 0..full.len() {
            let _ = TuningFile::parse(&full[..cut]);
        }
    }

    #[test]
    fn lookup_misses_wrong_host() {
        let f = sample_file();
        assert!(f.lookup("some-other-host").is_none());
    }

    #[test]
    fn upsert_replaces_same_host() {
        let mut f = sample_file();
        let mut rec = f.records[0].clone();
        rec.kernel = "avx512_8x16".into();
        rec.gflops = 99.0;
        f.upsert(rec.clone());
        assert_eq!(f.records.len(), 2);
        assert_eq!(f.lookup(&rec.host).unwrap(), &rec);
    }

    #[test]
    fn cache_size_units_parse() {
        assert_eq!(parse_cache_size("32K"), Some(32 * 1024));
        assert_eq!(parse_cache_size("16M"), Some(16 * 1024 * 1024));
        assert_eq!(parse_cache_size("4096"), Some(4096));
        assert_eq!(parse_cache_size("lots"), None);
    }

    #[test]
    fn host_key_renders_stably() {
        let key = HostKey {
            isa: "avx2".into(),
            cores: 8,
            l1d: 32768,
            l2: 262144,
            l3: 0,
        };
        assert_eq!(key.render(), "avx2-c8-l1d32768-l2262144-l30");
        // Detection never panics and yields a non-empty ISA token.
        assert!(!HostKey::detect().isa.is_empty());
    }

    #[test]
    fn best_point_picks_max() {
        let mk = |g: f64| SweepPoint {
            kernel: "portable_8x4",
            blocking: GemmBlocking::default(),
            threads: 1,
            gflops: g,
        };
        let pts = vec![mk(1.0), mk(3.0), mk(2.0)];
        assert_eq!(best_point(&pts).unwrap().gflops, 3.0);
        assert!(best_point(&[]).is_none());
    }
}
