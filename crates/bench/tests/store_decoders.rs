//! Property tests for the decoders of the sweep store, the engine's only
//! on-disk format: hostile bytes in an object file or a claim file, and
//! hostile `--shard` strings, yield a miss or a typed `SweepError`,
//! never a panic.
//!
//! * An object file holding arbitrary bytes (random, or a valid object
//!   truncated, bit-flipped or spliced) is quarantined and reported as
//!   a miss by `CasStore::load` — invalid UTF-8 included, which is
//!   corruption, not an I/O failure; `fetch_or_compute` then recomputes
//!   and republishes. Only bytes that still decode to a well-formed
//!   object for the requested key are served as a hit.
//! * A claim file holding arbitrary bytes is only ever a lock: once it
//!   goes stale the waiter steals it and computes.
//! * `Shard::parse` returns a valid shard (which prints back to itself)
//!   or `BadShard` carrying the input.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use proptest::prelude::*;
use rsp_bench::sweep::canon::sha256_hex;
use rsp_bench::sweep::cas::{CacheOutcome, CasObject, ObjectMeta};
use rsp_bench::sweep::{CasStore, Shard, SweepError};
use serde_json::Value;

const KEY: &str = "w/u20000/s16";

fn fresh_store() -> CasStore {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir()
        .join(format!("rsp-store-decoders-{}", std::process::id()))
        .join(format!("s{}", SEQ.fetch_add(1, Ordering::Relaxed)));
    let _ = fs::remove_dir_all(&dir);
    CasStore::open(dir).unwrap().with_claim_timing(
        Duration::from_millis(200),
        Duration::from_millis(1),
        Duration::ZERO,
    )
}

fn meta() -> ObjectMeta {
    ObjectMeta {
        hash: sha256_hex(KEY.as_bytes()),
        kind: "point",
        name: "decoder_sweep".into(),
        key: KEY.into(),
        code_version: "0".into(),
        inputs: Vec::new(),
    }
}

/// The row `compute` produces in these tests.
fn computed_row() -> Value {
    Value::Object(vec![
        ("ipc".into(), Value::Float(1.25)),
        ("cycles".into(), Value::Int(4096)),
    ])
}

/// The on-disk text of a valid object for [`KEY`].
fn valid_object_text() -> String {
    let store = fresh_store();
    store.store(&meta(), &computed_row()).unwrap();
    fs::read_to_string(object_path(&store, &meta().hash)).unwrap()
}

/// The documented object layout: `objects/ab/cdef….json`.
fn object_path(store: &CasStore, hash: &str) -> PathBuf {
    store
        .root()
        .join("objects")
        .join(&hash[..2])
        .join(format!("{}.json", &hash[2..]))
}

fn claim_path(store: &CasStore, hash: &str) -> PathBuf {
    store.root().join("claims").join(format!("{hash}.claim"))
}

/// Whether `bytes` decode to an object `load` must accept for [`KEY`].
fn decodes_for_key(bytes: &[u8]) -> bool {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| serde_json::from_str::<CasObject>(text).ok())
        .is_some_and(|obj| obj.schema == CasStore::SCHEMA && obj.key == KEY)
}

/// Arbitrary bytes, and damaged copies of a valid object.
fn hostile_bytes() -> BoxedStrategy<Vec<u8>> {
    let valid = valid_object_text().into_bytes();
    let (v1, v2, v3) = (valid.clone(), valid.clone(), valid);
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..300),
        (0usize..4096).prop_map(move |cut| v1[..cut % v1.len()].to_vec()),
        (0usize..4096, any::<u8>()).prop_map(move |(at, bits)| {
            let mut b = v2.clone();
            let i = at % b.len();
            b[i] ^= bits | 1;
            b
        }),
        (0usize..4096, proptest::collection::vec(any::<u8>(), 1..16)).prop_map(
            move |(at, junk)| {
                let mut b = v3.clone();
                let i = at % b.len();
                b.splice(i..i, junk);
                b
            }
        ),
    ]
    .boxed()
}

/// Printable shard-ish strings: digits, slashes, signs, spaces, and
/// arbitrary characters.
fn shard_strings() -> BoxedStrategy<String> {
    let alphabet: Vec<char> = "0123456789//-+ ".chars().collect();
    let pick = (0usize..64).prop_map(move |i| alphabet[i % alphabet.len()]);
    proptest::collection::vec(prop_oneof![pick, any::<char>()], 0..24)
        .prop_map(String::from_iter)
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hostile_object_file_is_quarantined_and_recomputed(bytes in hostile_bytes()) {
        let store = fresh_store();
        let m = meta();
        let path = object_path(&store, &m.hash);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let accepted = decodes_for_key(&bytes);

        fs::write(&path, &bytes).unwrap();
        match store.load(&m.hash, Some(KEY)).unwrap() {
            Some(obj) => prop_assert!(accepted, "served a corrupt object: {obj:?}"),
            None => {
                prop_assert!(!accepted, "quarantined a well-formed object");
                prop_assert_eq!(store.stats().quarantined, 1);
                prop_assert!(!path.exists(), "quarantine must move the object away");
            }
        }

        fs::write(&path, &bytes).unwrap();
        let (row, outcome) = store.fetch_or_compute(&m, || Ok(computed_row())).unwrap();
        if accepted {
            prop_assert_eq!(outcome, CacheOutcome::Hit);
        } else {
            prop_assert_eq!(outcome, CacheOutcome::Computed);
            prop_assert_eq!(row, computed_row());
            // The recomputed object replaced the corrupt one.
            let back = store.load(&m.hash, Some(KEY)).unwrap().expect("republished");
            prop_assert_eq!(back.row, computed_row());
        }
    }

    #[test]
    fn hostile_claim_file_is_stolen_and_computed(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let store = fresh_store();
        let m = meta();
        fs::write(claim_path(&store, &m.hash), &bytes).unwrap();
        let (row, outcome) = store.fetch_or_compute(&m, || Ok(computed_row())).unwrap();
        prop_assert_eq!(outcome, CacheOutcome::Computed);
        prop_assert_eq!(row, computed_row());
        prop_assert!(store.contains(&m.hash));
    }

    #[test]
    fn shard_parse_is_valid_or_bad_shard(s in shard_strings()) {
        match Shard::parse(&s) {
            Ok(shard) => {
                prop_assert!(shard.count > 0 && shard.index < shard.count, "{shard:?}");
                prop_assert_eq!(Shard::parse(&shard.to_string()).unwrap(), shard);
            }
            Err(SweepError::BadShard(got)) => prop_assert_eq!(got, s),
            Err(other) => prop_assert!(false, "{s:?}: unexpected error {other}"),
        }
    }
}
