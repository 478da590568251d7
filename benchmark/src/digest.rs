//! Output digests: the benchmark's correctness check.
//!
//! Every checked output — each simulated `RunResult` (keyed by its
//! `RunKeyId`), each wire bundle and scoreboard, the executed/reused counts
//! of each served plan — is reduced to a 64-bit FNV-1a hash of its
//! canonical JSON. For seed 42 the expected digests are committed in
//! `expected/seed42.json`; a run of that seed fails every operation whose
//! digest differs. `SHIFT_BLESS=1` re-records them, the convention the
//! repository's golden tests use. Other seeds only print their digests, for
//! comparing a parent commit against a change.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

use serde::{json, Serialize, Value};

/// The seed whose digests are committed.
pub const BLESSED_SEED: u64 = 42;

/// The committed digests, compiled in so a copied binary still checks.
const EXPECTED: &str = include_str!("../expected/seed42.json");

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Digest of raw bytes as 16 hex digits.
pub fn of_bytes(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// Digest of a value's canonical (compact, field-ordered) JSON.
pub fn of_json<T: Serialize + ?Sized>(value: &T) -> String {
    of_bytes(json::to_string(value).as_bytes())
}

/// The digests one workload produced, keyed by output name.
pub type Digests = BTreeMap<String, String>;

/// Whether `SHIFT_BLESS` asks for the committed digests to be re-recorded.
pub fn bless_requested() -> bool {
    std::env::var("SHIFT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn expected_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join("seed42.json")
}

fn parse(text: &str) -> BTreeMap<String, Digests> {
    let mut out = BTreeMap::new();
    if let Ok(Value::Map(workloads)) = json::parse(text) {
        for (workload, entries) in workloads {
            let Value::Map(entries) = entries else {
                continue;
            };
            let digests = entries
                .into_iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k, s.to_owned())))
                .collect();
            out.insert(workload, digests);
        }
    }
    out
}

/// The committed digests of `workload`, if any were recorded.
pub fn expected(workload: &str) -> Option<Digests> {
    parse(EXPECTED).remove(workload)
}

/// Every key whose digest differs between `expected` and `actual`,
/// including keys present on one side only.
pub fn mismatches(expected: &Digests, actual: &Digests) -> Vec<String> {
    let mut keys: Vec<&String> = expected.keys().chain(actual.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| expected.get(*k) != actual.get(*k))
        .cloned()
        .collect()
}

/// Replaces `workload`'s entry in the committed digest file (read from
/// disk, so concurrent workloads blessing one after another keep each
/// other's entries).
///
/// # Errors
///
/// Propagates filesystem errors writing the file.
pub fn bless(workload: &str, digests: &Digests) -> io::Result<PathBuf> {
    let path = expected_path();
    let mut all = parse(&std::fs::read_to_string(&path).unwrap_or_default());
    all.insert(workload.to_owned(), digests.clone());
    let value = Value::Map(
        all.into_iter()
            .map(|(w, d)| {
                let entries = d.into_iter().map(|(k, v)| (k, Value::Str(v))).collect();
                (w, Value::Map(entries))
            })
            .collect(),
    );
    std::fs::write(&path, json::to_string_pretty(&value))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of_bytes(b"foobar"), "85944171f73967e8");
    }

    #[test]
    fn mismatches_name_changed_and_one_sided_keys() {
        let a: Digests = [("x", "1"), ("y", "2")]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .collect();
        let mut b = a.clone();
        assert!(mismatches(&a, &b).is_empty());
        b.insert("y".to_owned(), "3".to_owned());
        b.insert("z".to_owned(), "4".to_owned());
        assert_eq!(mismatches(&a, &b), vec!["y".to_owned(), "z".to_owned()]);
    }

    #[test]
    fn the_committed_file_parses() {
        assert!(json::parse(EXPECTED).is_ok());
    }
}
