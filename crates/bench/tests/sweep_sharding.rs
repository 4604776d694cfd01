//! Property tests for the sweep engine's store invariants, on the real
//! (reduced) fault sweep:
//!
//! * any split of the grid into K shards, run in any order and all
//!   publishing into one store, merges into a `BENCH_*.json`
//!   byte-identical to the single-process run's;
//! * a run stopped after an arbitrary subset of points completes under
//!   `--resume`, recomputing exactly the missing points, and merges
//!   byte-identically;
//! * a run without `--resume` killed at an arbitrary point fails the
//!   merge with `MissingKeys` naming exactly the unfinished points,
//!   even though an earlier complete run had filled the same store.
//!
//! The canonical single-process run happens once (`OnceLock`); its
//! store seeds the resume cases, so they simulate only the missing
//! points.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use rsp_bench::experiments::faults::{FaultPoint, FaultRow, FaultSweep};
use rsp_bench::sweep::cas::ObjectMeta;
use rsp_bench::sweep::{
    self, CasStore, Executor, Shard, Sweep, SweepConfig, SweepError, SweepRunner,
};

/// The canonical single-process run of the reduced fault sweep: its
/// output directory and its artifact bytes.
struct Canonical {
    dir: PathBuf,
    artifact: Vec<u8>,
}

fn canonical() -> &'static Canonical {
    static CANON: OnceLock<Canonical> = OnceLock::new();
    CANON.get_or_init(|| {
        let dir = fresh_dir("canonical");
        let sweep = FaultSweep::reduced();
        let summary = sweep::run_and_merge(&sweep, &cfg_in(&dir)).expect("canonical run");
        assert_eq!(summary.points, 8, "reduced grid is 2 workloads x 2 x 2");
        let artifact = fs::read(summary.artifact.expect("fault sweep writes an artifact"))
            .expect("read canonical artifact");
        Canonical { dir, artifact }
    })
}

fn fresh_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir()
        .join(format!("rsp-sweep-props-{}", std::process::id()))
        .join(format!("{name}-{}", SEQ.fetch_add(1, Ordering::Relaxed)));
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

fn store_of(dir: &Path) -> CasStore {
    CasStore::open(cfg_in(dir).store_dir(true)).expect("open store")
}

fn merged_bytes(dir: &Path) -> Vec<u8> {
    let sweep = FaultSweep::reduced();
    let summary = sweep::merge(&sweep, &cfg_in(dir)).expect("merge succeeds");
    fs::read(summary.artifact.expect("artifact written")).expect("read artifact")
}

/// The reduced fault sweep, but the process "dies" (panics) when it
/// reaches grid point `kill_at`. Same name, spec and keys, so it
/// addresses the same store objects as the real sweep.
struct KilledSweep {
    inner: FaultSweep,
    kill_at: String,
}

impl Sweep for KilledSweep {
    type Point = FaultPoint;
    type Row = FaultRow;
    fn name(&self) -> &'static str {
        Sweep::name(&self.inner)
    }
    fn points(&self) -> Vec<FaultPoint> {
        self.inner.points()
    }
    fn key(&self, p: &FaultPoint) -> String {
        self.inner.key(p)
    }
    fn spec(&self) -> serde_json::Value {
        self.inner.spec()
    }
    fn point_params(&self, p: &FaultPoint) -> serde_json::Value {
        self.inner.point_params(p)
    }
    fn run_point(&self, p: &FaultPoint) -> FaultRow {
        if self.inner.key(p) == self.kill_at {
            panic!("killed at {}", self.kill_at);
        }
        self.inner.run_point(p)
    }
    fn parallel(&self) -> bool {
        false // points complete in grid order up to the kill
    }
    fn report(&self, rows: &[FaultRow]) -> String {
        self.inner.report(rows)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any number of shards, run in any order into one output
    /// directory's store, merges byte-identically to the single-process
    /// artifact.
    #[test]
    fn any_shard_split_merges_identically(
        n in 1u32..=5,
        prio in proptest::collection::vec(0u64..1_000_000, 5),
    ) {
        let canon = canonical();
        let dir = fresh_dir("split");
        let sweep = FaultSweep::reduced();
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|&k| (prio[k as usize], k));
        let mut computed = 0;
        for index in order {
            let cfg = SweepConfig {
                executor: Executor::Shard(Shard::new(index, n).unwrap()),
                ..cfg_in(&dir)
            };
            let run = SweepRunner::run(&sweep, &cfg).expect("shard run");
            prop_assert_eq!(run.progress.completed, run.progress.total);
            computed += run.progress.completed;
        }
        prop_assert_eq!(computed, 8);
        prop_assert_eq!(&merged_bytes(&dir), &canon.artifact);
    }

    /// A run stopped after an arbitrary subset of its points (the
    /// store holds exactly those) completes under `--resume`,
    /// recomputing exactly the missing points, and merges identically.
    #[test]
    fn resume_after_arbitrary_subset_completes_identically(done in 0u8..=255) {
        let canon = canonical();
        let dir = fresh_dir("resume");
        let sweep = FaultSweep::reduced();
        let hashes = sweep.point_hashes(&cfg_in(&dir)).unwrap();
        let (from, to) = (store_of(&canon.dir), store_of(&dir));
        for (i, hash) in hashes.iter().enumerate() {
            if done & (1 << i) != 0 {
                let obj = from.load(hash, None).unwrap().expect("canonical object");
                let meta = ObjectMeta {
                    hash: hash.clone(),
                    kind: "point",
                    name: obj.name,
                    key: obj.key,
                    code_version: obj.code_version,
                    inputs: obj.inputs,
                };
                to.store(&meta, &obj.row).unwrap();
            }
        }

        let cfg = SweepConfig { resume: true, ..cfg_in(&dir) };
        let run = SweepRunner::run(&sweep, &cfg).expect("resume run");
        let kept = done.count_ones() as u64;
        prop_assert_eq!(run.progress.skipped, kept);
        prop_assert_eq!(run.progress.completed, 8 - kept);
        prop_assert_eq!(&merged_bytes(&dir), &canon.artifact);
    }

    /// A run without `--resume` killed at an arbitrary point leaves
    /// gaps, not the earlier run's rows: the merge names exactly the
    /// points it did not finish.
    #[test]
    fn killed_fresh_run_fails_merge_with_missing_keys(kill_at in 0usize..8) {
        let dir = fresh_dir("killed");
        let sweep = FaultSweep::reduced();
        sweep::run_and_merge(&sweep, &cfg_in(&dir)).expect("first, complete run");
        let keys: Vec<String> = sweep.points().iter().map(|p| sweep.key(p)).collect();
        let killed = KilledSweep { inner: FaultSweep::reduced(), kill_at: keys[kill_at].clone() };
        let died = catch_unwind(AssertUnwindSafe(|| SweepRunner::run(&killed, &cfg_in(&dir))));
        prop_assert!(died.is_err(), "the run must die at {}", keys[kill_at]);
        match sweep::merge(&sweep, &cfg_in(&dir)) {
            Err(SweepError::MissingKeys { sample, count }) => {
                prop_assert_eq!(count, 8 - kill_at);
                let want: Vec<String> = keys[kill_at..].iter().take(4).cloned().collect();
                prop_assert_eq!(sample, want);
            }
            other => prop_assert!(false, "expected MissingKeys, got {:?}", other.map(|m| m.points)),
        }
    }
}
