//! The sweep engine: sharded, resumable experiment grids (DESIGN.md §12).
//!
//! Every experiment harness in this crate used to hand-roll the same
//! machinery — enumerate a parameter grid, fan it out, serialise rows,
//! assert cross-point claims. This module is that machinery, once:
//!
//! * **[`Sweep`]** — the declarative spec: a deterministic, *ordered*
//!   enumeration of grid points, each with a stable string **point key**
//!   derived only from its parameters (never from enumeration order),
//!   plus the per-point runner, the cross-point verifier, and the
//!   artifact renderer.
//! * **One store** — every completed point's row is one object in a
//!   content-addressed [`cas::CasStore`] (DESIGN.md §17), addressed by
//!   [`canon::point_cache_key`] over (sweep name, spec, point params,
//!   code version). The store is `--cache-dir` when it is given and the
//!   sweep is cacheable, otherwise a store private to the output
//!   directory ([`SweepConfig::store_dir`]). It is the engine's only
//!   persistence.
//! * **Executors** — [`Executor::InProcess`] runs the whole grid in one
//!   process (rayon fan-out, or serial for wall-clock-timed sweeps);
//!   [`Executor::Shard`] runs only the points whose key hashes to
//!   `k mod N` ([`shard::stable_key_hash`]). Shards of one grid publish
//!   into the same store, so a split needs no fragment files.
//! * **Reuse** — under [`SweepConfig::resume`], or under `--cache-dir`
//!   for a cacheable sweep, a point already in the store is served from
//!   it instead of recomputed: a killed run resumes where it died, a
//!   rerun is all hits, and concurrent shards or hosts dedupe work
//!   through claim files. Any other run first removes its points' old
//!   objects and republishes each as it completes, so a run killed
//!   part-way leaves gaps for [`merge`] to report, never an earlier
//!   run's rows.
//! * **[`merge`]** — reads every point of the spec from the store in
//!   enumeration order (a missing or quarantined object is
//!   [`SweepError::MissingKeys`]), re-runs the sweep's cross-point
//!   assertions, and writes the artifact. Because every row is a pure
//!   function of its key and f64s round-trip through JSON exactly, the
//!   merged artifact is byte-for-byte identical whether the grid ran as
//!   one process, N shards, a killed-and-resumed run, or from a warm
//!   cache.

pub mod canon;
pub mod cas;
pub mod shard;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use rayon::prelude::*;
use rsp_obs::{ProgressSnapshot, SweepProgress};
use serde::{Deserialize, Serialize};

use cas::{CacheOutcome, ObjectMeta};
pub use cas::{CacheSnapshot, CasStore};
pub use shard::Shard;

/// Everything that can go wrong running or merging a sweep. Rendered by
/// the CLI bins, which exit non-zero — artifact-write failures included.
#[derive(Debug)]
pub enum SweepError {
    /// Filesystem failure on `path`.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// A row failed to serialise.
    Encode {
        /// The point key.
        key: String,
        /// Serialiser error.
        msg: String,
    },
    /// A stored row failed to deserialise.
    Decode {
        /// The point key.
        key: String,
        /// Deserialiser error.
        msg: String,
    },
    /// A `K/N` shard argument was malformed.
    BadShard(String),
    /// The spec enumerates the same key more than once.
    DuplicateKey {
        /// The duplicated key.
        key: String,
    },
    /// Keys the spec enumerates but the store does not hold.
    MissingKeys {
        /// The absent keys, in spec order (first few).
        sample: Vec<String>,
        /// How many are missing in total.
        count: usize,
    },
    /// The sweep's cross-point assertions failed on the merged rows.
    Verify(String),
}

impl SweepError {
    fn io(path: &Path, err: std::io::Error) -> SweepError {
        SweepError::Io {
            path: path.to_path_buf(),
            err,
        }
    }
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io { path, err } => write!(f, "{}: {err}", path.display()),
            SweepError::Encode { key, msg } => write!(f, "point {key}: cannot encode row: {msg}"),
            SweepError::Decode { key, msg } => write!(f, "point {key}: cannot decode row: {msg}"),
            SweepError::BadShard(s) => {
                write!(f, "bad shard {s:?} (expected K/N with K < N, N > 0)")
            }
            SweepError::DuplicateKey { key } => {
                write!(f, "the sweep spec enumerates key {key:?} more than once")
            }
            SweepError::MissingKeys { sample, count } => {
                write!(
                    f,
                    "{count} point(s) missing from the store, e.g. {sample:?}"
                )
            }
            SweepError::Verify(msg) => write!(f, "cross-point verification failed: {msg}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A declarative sweep: the ordered grid, the stable per-point key, the
/// per-point runner, and the cross-point contract.
pub trait Sweep: Sync {
    /// One grid point's parameters.
    type Point: Clone + Send + Sync;
    /// One grid point's result row.
    type Row: Serialize + Deserialize + Send;

    /// The sweep's name, baked into every point's store address.
    fn name(&self) -> &'static str;

    /// The full grid, in canonical (artifact) order. Must be
    /// deterministic: merging relies on every process enumerating the
    /// same points in the same order.
    fn points(&self) -> Vec<Self::Point>;

    /// The point's stable key. **Derive it only from the point's
    /// parameters** — never from enumeration order or ambient state —
    /// so shard assignment and resume survive grid re-orderings, and a
    /// stored row can be matched back to its point across processes.
    fn key(&self, point: &Self::Point) -> String;

    /// Run one point. Must be a pure function of the point (plus the
    /// spec's own immutable configuration): the merge step assumes a
    /// row is the same whichever process computed it.
    fn run_point(&self, point: &Self::Point) -> Self::Row;

    /// False for sweeps that time wall-clock per point (run them
    /// serially so points don't contend for the host CPU).
    fn parallel(&self) -> bool {
        true
    }

    /// The sweep's immutable configuration as a structured JSON value —
    /// everything (besides the point's own parameters and the code
    /// version) that `run_point` depends on. Baked into every point's
    /// cache key, so a grid or knob change invalidates the whole sweep.
    /// The default (`null`) is acceptable only for sweeps whose rows
    /// depend on nothing but the point and the code version.
    fn spec(&self) -> serde_json::Value {
        serde_json::Value::Null
    }

    /// One point's parameters as a structured JSON value — the
    /// cache-key analogue of [`Sweep::key`]. The default reuses the
    /// stable string key, which is correct exactly because keys are
    /// already required to be pure functions of the parameters.
    fn point_params(&self, point: &Self::Point) -> serde_json::Value {
        serde_json::Value::Str(self.key(point))
    }

    /// False for sweeps whose rows are *not* pure functions of their
    /// keys — wall-clock timing sweeps — so measurements are never
    /// served stale from a shared store. Such sweeps keep their rows in
    /// the output directory's private store even under `--cache-dir`,
    /// and reuse them only under `--resume` (see `ThroughputSweep` for
    /// the exemplar).
    fn cacheable(&self) -> bool {
        true
    }

    /// Cross-point assertions, re-run on every merged set.
    fn verify(&self, _rows: &[Self::Row]) -> Result<(), String> {
        Ok(())
    }

    /// File name of the merged artifact (e.g. `BENCH_fault_sweep.json`),
    /// if the sweep writes one.
    fn artifact(&self) -> Option<&'static str> {
        None
    }

    /// Render the merged rows into the artifact's contents. The default
    /// is the pretty-printed row array every `BENCH_*.json` used before.
    fn render_artifact(&self, rows: &[Self::Row]) -> Result<String, SweepError> {
        serde_json::to_string_pretty(rows).map_err(|e| SweepError::Encode {
            key: "<artifact>".into(),
            msg: e.to_string(),
        })
    }

    /// Render the human-readable report printed after a merge.
    fn report(&self, rows: &[Self::Row]) -> String;
}

/// How to execute a sweep run.
#[derive(Debug, Clone)]
pub enum Executor {
    /// The whole grid in this process (rayon fan-out unless the sweep
    /// asks for serial execution).
    InProcess,
    /// Only the points of one shard, in this process.
    Shard(Shard),
}

impl Executor {
    fn shard(&self) -> Shard {
        match self {
            Executor::InProcess => Shard::WHOLE,
            Executor::Shard(s) => *s,
        }
    }
}

/// Where and how a sweep runs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// How to execute.
    pub executor: Executor,
    /// Directory for the merged artifact, and for the sweep's private
    /// store when no shared one applies ([`SweepConfig::store_dir`]).
    pub out_dir: PathBuf,
    /// Serve points already in the store instead of recomputing them.
    pub resume: bool,
    /// Echo per-point progress lines to stderr.
    pub verbose: bool,
    /// Root of the shared content-addressed store. Cacheable sweeps
    /// publish into it and are served from it; `None` keeps every row
    /// in the output directory's private store.
    pub cache_dir: Option<PathBuf>,
    /// Code version baked into every cache key. Defaults to the crate
    /// version, so a release bump invalidates the whole store;
    /// `--code-version` overrides it (CI uses this to pin invalidation
    /// behavior).
    pub code_version: String,
}

/// The default cache-key code version: this crate's version.
pub fn default_code_version() -> String {
    env!("CARGO_PKG_VERSION").to_string()
}

/// Name of the store private to an output directory.
const OUT_DIR_STORE: &str = ".sweep-store";

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            executor: Executor::InProcess,
            out_dir: PathBuf::from("."),
            resume: false,
            verbose: false,
            cache_dir: None,
            code_version: default_code_version(),
        }
    }
}

impl SweepConfig {
    /// The store a sweep's rows live in: `cache_dir` when it is set and
    /// the sweep is cacheable, otherwise `<out_dir>/.sweep-store`.
    pub fn store_dir(&self, cacheable: bool) -> PathBuf {
        match &self.cache_dir {
            Some(dir) if cacheable => dir.clone(),
            _ => self.out_dir.join(OUT_DIR_STORE),
        }
    }

    /// Whether a run serves points already in the store: under
    /// `--resume`, or under `--cache-dir` for a cacheable sweep.
    fn reuses(&self, cacheable: bool) -> bool {
        self.resume || (cacheable && self.cache_dir.is_some())
    }
}

/// What a run executed (one shard's view).
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Which shard ran.
    pub shard: Shard,
    /// Final progress counters (total = points in this shard; skipped =
    /// points served from the store).
    pub progress: ProgressSnapshot,
    /// The store the run published into.
    pub store: PathBuf,
    /// Cache counters, when the run reused stored rows (under
    /// `--resume`, or `--cache-dir` for a cacheable sweep).
    pub cache: Option<CacheSnapshot>,
}

/// What a merge produced.
#[derive(Debug, Clone)]
pub struct MergeSummary {
    /// Points merged (always the full grid).
    pub points: usize,
    /// Path of the written artifact, if the sweep defines one.
    pub artifact: Option<PathBuf>,
    /// The sweep's rendered report.
    pub report: String,
}

/// Object-safe driver facade over [`Sweep`] (the `experiments` bin holds
/// sweeps as `Box<dyn SweepRunner>`). Blanket-implemented for every
/// `Sweep`.
pub trait SweepRunner: Sync {
    /// The sweep's name.
    fn name(&self) -> &'static str;
    /// Total points in the grid.
    fn total_points(&self) -> usize;
    /// Whether rows are pure functions of their keys (cache-eligible).
    fn cacheable(&self) -> bool;
    /// Execute per the config, publishing every point into the store.
    fn run(&self, cfg: &SweepConfig) -> Result<RunSummary, SweepError>;
    /// Read the grid back from the store: validate, verify, write the
    /// artifact, render the report.
    fn merge(&self, cfg: &SweepConfig) -> Result<MergeSummary, SweepError>;
    /// Every point's store address, in grid order — computable without
    /// running anything (the `experiments gc` live set).
    fn point_hashes(&self, cfg: &SweepConfig) -> Result<Vec<String>, SweepError>;
}

impl<S: Sweep> SweepRunner for S {
    fn name(&self) -> &'static str {
        Sweep::name(self)
    }

    fn total_points(&self) -> usize {
        self.points().len()
    }

    fn cacheable(&self) -> bool {
        Sweep::cacheable(self)
    }

    fn run(&self, cfg: &SweepConfig) -> Result<RunSummary, SweepError> {
        run_shard(self, cfg)
    }

    fn merge(&self, cfg: &SweepConfig) -> Result<MergeSummary, SweepError> {
        merge(self, cfg)
    }

    fn point_hashes(&self, cfg: &SweepConfig) -> Result<Vec<String>, SweepError> {
        Ok(grid(self, cfg)?.into_iter().map(|(_, m)| m.hash).collect())
    }
}

/// The full grid in canonical order, each point with its store address.
/// Rejects a spec that enumerates a key twice.
fn grid<S: Sweep>(sweep: &S, cfg: &SweepConfig) -> Result<Vec<(S::Point, ObjectMeta)>, SweepError> {
    let name = Sweep::name(sweep);
    let spec = sweep.spec();
    let mut seen = BTreeSet::new();
    sweep
        .points()
        .into_iter()
        .map(|point| {
            let key = sweep.key(&point);
            if !seen.insert(key.clone()) {
                return Err(SweepError::DuplicateKey { key });
            }
            let meta = ObjectMeta {
                hash: canon::point_cache_key(
                    name,
                    &spec,
                    &sweep.point_params(&point),
                    &cfg.code_version,
                ),
                kind: "point",
                name: name.to_string(),
                key,
                code_version: cfg.code_version.clone(),
                inputs: Vec::new(),
            };
            Ok((point, meta))
        })
        .collect()
}

/// Run one shard of the sweep in-process, publishing each completed
/// point into the store.
fn run_shard<S: Sweep>(sweep: &S, cfg: &SweepConfig) -> Result<RunSummary, SweepError> {
    let shard = cfg.executor.shard();
    let cacheable = Sweep::cacheable(sweep);
    let reuse = cfg.reuses(cacheable);
    let store = CasStore::open(cfg.store_dir(cacheable))?;
    let owned: Vec<(S::Point, ObjectMeta)> = grid(sweep, cfg)?
        .into_iter()
        .filter(|(_, meta)| shard.owns(&meta.key))
        .collect();
    if !reuse {
        // A run that does not reuse owns its points outright: clear
        // their old objects first, so that if it dies part-way a later
        // merge reports the gap instead of an earlier run's rows.
        for (_, meta) in &owned {
            store.remove(&meta.hash)?;
        }
    }

    let progress = SweepProgress::with_total(owned.len() as u64);
    let complete_one = |(point, meta): &(S::Point, ObjectMeta)| -> Result<(), SweepError> {
        let compute = || {
            serde_json::to_value(&sweep.run_point(point)).map_err(|e| SweepError::Encode {
                key: meta.key.clone(),
                msg: e.to_string(),
            })
        };
        let snap = if reuse {
            match store.fetch_or_compute(meta, compute)?.1 {
                CacheOutcome::Computed => progress.point_completed(),
                CacheOutcome::Hit | CacheOutcome::WaitHit => {
                    progress.points_skipped(1);
                    progress.snapshot()
                }
            }
        } else {
            store.store(meta, &compute()?)?;
            progress.point_completed()
        };
        if cfg.verbose {
            eprintln!("{} {shard} {snap} {}", Sweep::name(sweep), meta.key);
        }
        Ok(())
    };
    let result: Result<Vec<()>, SweepError> = if sweep.parallel() {
        owned.par_iter().map(complete_one).collect()
    } else {
        owned.iter().map(complete_one).collect()
    };
    if result.is_err() {
        progress.point_failed();
    }
    result?;

    Ok(RunSummary {
        shard,
        progress: progress.snapshot(),
        store: store.root().to_path_buf(),
        cache: reuse.then(|| store.stats()),
    })
}

/// Read every point of the spec from the store in enumeration order —
/// the order that makes the artifact byte-identical to a single-process
/// run's — re-run the sweep's cross-point assertions, and write the
/// artifact. A point the store does not hold (or holds corrupt, and so
/// quarantines) is a gap: [`SweepError::MissingKeys`].
pub fn merge<S: Sweep>(sweep: &S, cfg: &SweepConfig) -> Result<MergeSummary, SweepError> {
    let store = CasStore::open(cfg.store_dir(Sweep::cacheable(sweep)))?;
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (_, meta) in grid(sweep, cfg)? {
        match store.load(&meta.hash, Some(&meta.key))? {
            Some(obj) => {
                rows.push(
                    serde_json::from_value(obj.row).map_err(|e| SweepError::Decode {
                        key: meta.key,
                        msg: e.to_string(),
                    })?,
                )
            }
            None => missing.push(meta.key),
        }
    }
    if !missing.is_empty() {
        return Err(SweepError::MissingKeys {
            count: missing.len(),
            sample: missing.into_iter().take(4).collect(),
        });
    }

    sweep.verify(&rows).map_err(SweepError::Verify)?;
    let artifact = match sweep.artifact() {
        Some(name) => {
            let contents = sweep.render_artifact(&rows)?;
            Some(write_artifact(&cfg.out_dir, name, &contents)?)
        }
        None => None,
    };
    Ok(MergeSummary {
        points: rows.len(),
        artifact,
        report: sweep.report(&rows),
    })
}

/// The one `--out-dir`-aware artifact writer every bench output goes
/// through. Creates the directory, writes the file, and *returns* the
/// error — callers (the CLI bins) exit non-zero instead of printing and
/// carrying on.
pub fn write_artifact(out_dir: &Path, name: &str, contents: &str) -> Result<PathBuf, SweepError> {
    if !out_dir.as_os_str().is_empty() {
        fs::create_dir_all(out_dir).map_err(|e| SweepError::io(out_dir, e))?;
    }
    let path = out_dir.join(name);
    fs::write(&path, contents).map_err(|e| SweepError::io(&path, e))?;
    Ok(path)
}

/// Convenience driver: run the whole grid in-process (with optional
/// resume) and merge, returning the merge summary. This is what a plain
/// `experiments <sweep-id>` invocation does.
pub fn run_and_merge<S: Sweep>(sweep: &S, cfg: &SweepConfig) -> Result<MergeSummary, SweepError> {
    SweepRunner::run(sweep, cfg)?;
    merge(sweep, cfg)
}

/// The light in-process path for experiments that want the fan-out and
/// progress accounting but no store/artifact plumbing: run every point
/// (rayon), preserving point order in the returned rows.
pub fn run_grid<P, R>(name: &str, points: &[P], run: impl Fn(&P) -> R + Sync) -> Vec<R>
where
    P: Sync,
    R: Send,
{
    let progress = SweepProgress::with_total(points.len() as u64);
    let rows: Vec<R> = points
        .par_iter()
        .map(|p| {
            let row = run(p);
            progress.point_completed();
            row
        })
        .collect();
    debug_assert!(progress.snapshot().is_complete(), "{name}: grid incomplete");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cheap synthetic sweep: rows are pure functions of the key.
    struct TestSweep {
        n: u32,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct TestRow {
        key: String,
        value: f64,
    }

    impl Sweep for TestSweep {
        type Point = u32;
        type Row = TestRow;

        fn name(&self) -> &'static str {
            "test_sweep"
        }

        fn points(&self) -> Vec<u32> {
            (0..self.n).collect()
        }

        fn key(&self, p: &u32) -> String {
            format!("p{p:03}")
        }

        fn run_point(&self, p: &u32) -> TestRow {
            TestRow {
                key: format!("p{p:03}"),
                value: *p as f64 / 3.0,
            }
        }

        fn verify(&self, rows: &[TestRow]) -> Result<(), String> {
            if rows.len() == self.n as usize {
                Ok(())
            } else {
                Err(format!("expected {} rows, got {}", self.n, rows.len()))
            }
        }

        fn artifact(&self) -> Option<&'static str> {
            Some("BENCH_test_sweep.json")
        }

        fn report(&self, rows: &[TestRow]) -> String {
            format!("{} rows", rows.len())
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("rsp-sweep-{}", std::process::id()))
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg_in(dir: &Path) -> SweepConfig {
        SweepConfig {
            out_dir: dir.to_path_buf(),
            ..SweepConfig::default()
        }
    }

    /// The out-dir store of `dir` and the grid's store addresses.
    fn store_and_hashes<S: Sweep>(sweep: &S, dir: &Path) -> (CasStore, Vec<String>) {
        let cfg = cfg_in(dir);
        let store = CasStore::open(cfg.store_dir(Sweep::cacheable(sweep))).unwrap();
        (store, sweep.point_hashes(&cfg).unwrap())
    }

    fn artifact_bytes(summary: MergeSummary) -> Vec<u8> {
        fs::read(summary.artifact.unwrap()).unwrap()
    }

    #[test]
    fn single_process_run_and_merge_produces_ordered_artifact() {
        let sweep = TestSweep { n: 7 };
        let dir = fresh_dir("single");
        let summary = run_and_merge(&sweep, &cfg_in(&dir)).unwrap();
        assert_eq!(summary.points, 7);
        assert!(dir.join(OUT_DIR_STORE).join("objects").is_dir());
        let artifact = fs::read_to_string(summary.artifact.unwrap()).unwrap();
        let rows: Vec<TestRow> = serde_json::from_str(&artifact).unwrap();
        assert_eq!(
            rows,
            sweep
                .points()
                .iter()
                .map(|p| sweep.run_point(p))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sharded_runs_merge_byte_identically_to_single() {
        let sweep = TestSweep { n: 11 };
        let single = fresh_dir("shard-single");
        let want = artifact_bytes(run_and_merge(&sweep, &cfg_in(&single)).unwrap());

        let dir = fresh_dir("shard-split");
        for index in 0..3 {
            let cfg = SweepConfig {
                executor: Executor::Shard(Shard::new(index, 3).unwrap()),
                ..cfg_in(&dir)
            };
            let run = SweepRunner::run(&sweep, &cfg).unwrap();
            assert_eq!(run.progress.completed, run.progress.total);
            assert_eq!(run.store, dir.join(OUT_DIR_STORE));
        }
        assert_eq!(artifact_bytes(merge(&sweep, &cfg_in(&dir)).unwrap()), want);
    }

    #[test]
    fn merge_reports_gaps_and_quarantined_objects_as_missing() {
        let sweep = TestSweep { n: 5 };
        let dir = fresh_dir("gaps");
        let cfg = SweepConfig {
            executor: Executor::Shard(Shard::new(0, 2).unwrap()),
            ..cfg_in(&dir)
        };
        SweepRunner::run(&sweep, &cfg).unwrap();
        // Shard 1 never ran → gaps.
        assert!(matches!(
            merge(&sweep, &cfg_in(&dir)),
            Err(SweepError::MissingKeys { .. })
        ));

        // A full run, then one object damaged on disk: the merge
        // quarantines it and reports exactly that point missing.
        run_and_merge(&sweep, &cfg_in(&dir)).unwrap();
        let (store, hashes) = store_and_hashes(&sweep, &dir);
        let victim = &hashes[2];
        let path = store
            .root()
            .join("objects")
            .join(&victim[..2])
            .join(format!("{}.json", &victim[2..]));
        fs::write(&path, "{\"schema\":").unwrap();
        match merge(&sweep, &cfg_in(&dir)) {
            Err(SweepError::MissingKeys { sample, count }) => {
                assert_eq!((sample, count), (vec!["p002".to_string()], 1));
            }
            other => panic!("expected MissingKeys, got {other:?}"),
        }
        assert!(store
            .root()
            .join("quarantine")
            .join(format!("{victim}.json"))
            .exists());

        // A narrower spec merges from a store that holds a wider grid.
        assert_eq!(merge(&TestSweep { n: 2 }, &cfg_in(&dir)).unwrap().points, 2);
    }

    #[test]
    fn duplicate_spec_keys_are_rejected_up_front() {
        struct Dup;
        impl Sweep for Dup {
            type Point = u32;
            type Row = u32;
            fn name(&self) -> &'static str {
                "dup_sweep"
            }
            fn points(&self) -> Vec<u32> {
                vec![1, 2, 1]
            }
            fn key(&self, p: &u32) -> String {
                format!("d{p}")
            }
            fn run_point(&self, p: &u32) -> u32 {
                *p
            }
            fn report(&self, _rows: &[u32]) -> String {
                String::new()
            }
        }
        let dir = fresh_dir("dup");
        let err = SweepRunner::run(&Dup, &cfg_in(&dir)).unwrap_err();
        assert!(
            matches!(err, SweepError::DuplicateKey { ref key } if key == "d1"),
            "{err}"
        );
    }

    #[test]
    fn resume_serves_stored_points_and_computes_the_rest() {
        let sweep = TestSweep { n: 9 };
        let dir = fresh_dir("resume");
        let want = artifact_bytes(run_and_merge(&sweep, &cfg_in(&dir)).unwrap());

        // Simulate a kill after 4 points: the other 5 objects are gone.
        let (store, hashes) = store_and_hashes(&sweep, &dir);
        for hash in &hashes[4..] {
            store.remove(hash).unwrap();
        }
        let cfg = SweepConfig {
            resume: true,
            ..cfg_in(&dir)
        };
        let run = SweepRunner::run(&sweep, &cfg).unwrap();
        assert_eq!(run.progress.skipped, 4);
        assert_eq!(run.progress.completed, 5);
        let cache = run.cache.expect("a resumed run reports its reuse");
        assert_eq!((cache.hits, cache.misses), (4, 5));
        assert_eq!(artifact_bytes(merge(&sweep, &cfg_in(&dir)).unwrap()), want);
    }

    /// A sweep whose row `Serialize` impl fails at one point: the run
    /// stops there, as a killed process would, with the earlier points
    /// published.
    struct PoisonSweep {
        poison: Option<u32>,
    }

    struct PoisonRow {
        id: u32,
        poisoned: bool,
    }

    impl Serialize for PoisonRow {
        fn to_value(&self) -> serde_json::Value {
            serde_json::Value::Int(self.id as i128)
        }
        fn try_to_value(&self) -> Result<serde_json::Value, serde_json::Error> {
            if self.poisoned {
                Err(serde_json::Error::msg(format!(
                    "row {} refuses to serialise",
                    self.id
                )))
            } else {
                Ok(self.to_value())
            }
        }
    }

    impl Deserialize for PoisonRow {
        fn from_value(v: &serde_json::Value) -> Result<PoisonRow, serde_json::Error> {
            u32::from_value(v).map(|id| PoisonRow {
                id,
                poisoned: false,
            })
        }
    }

    impl Sweep for PoisonSweep {
        type Point = u32;
        type Row = PoisonRow;
        fn name(&self) -> &'static str {
            "poison_sweep"
        }
        fn points(&self) -> Vec<u32> {
            (0..6).collect()
        }
        fn key(&self, p: &u32) -> String {
            format!("p{p}")
        }
        fn run_point(&self, p: &u32) -> PoisonRow {
            PoisonRow {
                id: *p,
                poisoned: self.poison == Some(*p),
            }
        }
        fn parallel(&self) -> bool {
            false // deterministic store contents up to the failure
        }
        fn report(&self, rows: &[PoisonRow]) -> String {
            format!("{} rows", rows.len())
        }
    }

    /// A row whose `Serialize` impl fails mid-grid surfaces from the
    /// full sweep run as [`SweepError::Encode`] naming the point rather
    /// than panicking the shard. Rows published before the failure
    /// survive in the store, so a fixed serialiser can resume.
    #[test]
    fn failing_serialize_row_fails_the_run_with_encode_error() {
        let sweep = PoisonSweep { poison: Some(3) };
        let dir = fresh_dir("poison");
        match run_and_merge(&sweep, &cfg_in(&dir)).unwrap_err() {
            SweepError::Encode { key, msg } => {
                assert_eq!(key, "p3");
                assert!(msg.contains("refuses to serialise"), "{msg}");
            }
            other => panic!("expected Encode error, got {other}"),
        }
        let (store, hashes) = store_and_hashes(&sweep, &dir);
        let present: Vec<bool> = hashes.iter().map(|h| store.contains(h)).collect();
        assert_eq!(present, [true, true, true, false, false, false]);
    }

    /// A run that does not reuse clears its points before computing,
    /// so when it dies part-way the merge fails instead of mixing in
    /// the previous run's rows.
    #[test]
    fn killed_fresh_run_fails_merge_with_missing_keys() {
        let dir = fresh_dir("killed");
        run_and_merge(&PoisonSweep { poison: None }, &cfg_in(&dir)).unwrap();
        let killed = PoisonSweep { poison: Some(3) };
        assert!(SweepRunner::run(&killed, &cfg_in(&dir)).is_err());
        match merge(&killed, &cfg_in(&dir)) {
            Err(SweepError::MissingKeys { sample, count }) => {
                assert_eq!(count, 3);
                assert_eq!(sample, ["p3", "p4", "p5"]);
            }
            other => panic!("expected MissingKeys, got {:?}", other.map(|m| m.points)),
        }
    }

    #[test]
    fn cache_dir_applies_only_to_cacheable_sweeps() {
        let cfg = SweepConfig {
            cache_dir: Some(PathBuf::from("cas")),
            ..cfg_in(Path::new("out"))
        };
        assert_eq!(cfg.store_dir(true), PathBuf::from("cas"));
        assert_eq!(cfg.store_dir(false), Path::new("out").join(OUT_DIR_STORE));
        assert!(cfg.reuses(true));
        assert!(!cfg.reuses(false));
        assert!(SweepConfig {
            resume: true,
            ..cfg
        }
        .reuses(false));
    }

    #[test]
    fn run_grid_preserves_point_order() {
        let points: Vec<u32> = (0..20).collect();
        let rows = run_grid("order", &points, |p| p * 2);
        assert_eq!(rows, points.iter().map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn write_artifact_reports_failure() {
        let dir = fresh_dir("write-fail");
        // A directory where the file should be → write fails, surfaced
        // as an error rather than printed-and-ignored.
        fs::create_dir_all(dir.join("BENCH_x.json")).unwrap();
        assert!(matches!(
            write_artifact(&dir, "BENCH_x.json", "{}"),
            Err(SweepError::Io { .. })
        ));
        assert!(write_artifact(&dir, "ok.json", "{}").is_ok());
    }
}
