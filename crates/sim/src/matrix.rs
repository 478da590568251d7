//! The **plan** stage of the sweep pipeline: deduplicated run matrices with
//! content-addressed keys and a canonical ordering.
//!
//! The paper's evaluation is a large matrix of (workload × prefetcher ×
//! scale × seed) simulations, and several figures share runs — most notably
//! the no-prefetch baseline, which every speedup is normalized against. This
//! module gives all experiment drivers one way to declare such a sweep:
//!
//! 1. **Plan** — add runs to a [`RunMatrix`]. Each call returns a cheap
//!    [`RunHandle`]; adding a run whose full configuration (CMP config,
//!    options, and workload assignment) matches an already-planned run
//!    returns the *existing* handle, so shared runs — e.g. a baseline used
//!    by five prefetcher comparisons — are simulated exactly once.
//! 2. **Execute** — [`RunMatrix::execute`] runs all planned simulations on a
//!    pool of worker threads (one per available core by default, overridable
//!    with the `SHIFT_THREADS` environment variable) and returns
//!    [`RunOutcomes`] indexed by the handles. For sweeps too large for one
//!    host, the [`Execution`](crate::Execution) builder's shard mode
//!    executes a deterministic *slice* of the matrix instead, persisting
//!    each completed run as a keyed outcome file — or its queue mode lets
//!    any number of heterogeneous workers *elastically* claim runs one at a
//!    time from a shared outcome directory.
//! 3. **Merge / consume** — look up each run's [`RunResult`] by handle and
//!    derive the figure's rows. Outcomes can come from in-process execution,
//!    from a [`RunStore`](crate::store::RunStore) merge of one or more
//!    shard/queue directories (all bit-identical), or partially from a
//!    *cache* of an earlier sweep
//!    ([`RunStore::load_partial`](crate::store::RunStore::load_partial) +
//!    [`Execution::reuse`](crate::Execution::reuse)) when the plan has
//!    changed since the outcomes were executed.
//!
//! Every simulation is fully deterministic in its key (the only randomness
//! comes from generators seeded by [`SimOptions::seed`]), so the parallel
//! execution is bit-identical to a serial one
//! ([`Execution::serial`](crate::Execution::serial)) — a property locked in
//! by the `runner` and `shard` integration tests.
//!
//! # Identity across process boundaries
//!
//! In-process, a [`RunHandle`] is pinned to its planning matrix by a
//! process-local id. Across processes (a shard executing on another
//! machine), identity is *content-addressed* instead: every [`RunKey`] has a
//! [`RunKeyId`] — a hash of its canonical JSON form — and the whole matrix
//! has a [`MatrixFingerprint`] over its sorted key ids. Two processes that
//! plan the same sweep compute the same ids, which is what lets outcome
//! files written by one host be merged and verified by another.
//!
//! Wherever runs are *enumerated* — shard slices, outcome stores, manifest
//! listings — the canonical ordering ([`RunMatrix::canonical_order`], sorted
//! by key) is used rather than plan order, so slices are stable even when
//! drivers plan figures in a different sequence.
//!
//! # Example
//!
//! ```
//! use shift_sim::{PrefetcherConfig, RunMatrix};
//! use shift_trace::{presets, Scale};
//!
//! let mut matrix = RunMatrix::new();
//! let workload = presets::tiny();
//! let baseline = matrix.standalone(&workload, PrefetcherConfig::None, 4, Scale::Test, 42);
//! let shift = matrix.standalone(&workload, PrefetcherConfig::shift_virtualized(), 4, Scale::Test, 42);
//! // Re-planning an identical run is free: it returns the same handle.
//! assert_eq!(baseline, matrix.standalone(&workload, PrefetcherConfig::None, 4, Scale::Test, 42));
//! assert_eq!(matrix.len(), 2);
//!
//! let outcomes = matrix.execute();
//! assert!(outcomes[shift].speedup_over(&outcomes[baseline]) > 1.0);
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

use serde::de::Error as DeError;
use serde::{json, Deserialize, Serialize, Value};
use shift_trace::{ConsolidationSpec, Scale, WorkloadSpec};

use crate::config::{CmpConfig, PrefetcherConfig, SimOptions};
use crate::engine::Engine;
use crate::results::RunResult;
use crate::store::RunOutcomes;

/// Process-wide matrix id source, so a handle can prove which matrix planned
/// it (see [`RunHandle`]).
static NEXT_MATRIX_ID: AtomicU64 = AtomicU64::new(0);

/// Handle to one planned run in a [`RunMatrix`]; index into the matrix's
/// [`RunOutcomes`] to get its [`RunResult`].
///
/// # Invariant
///
/// A handle is only valid against [`RunOutcomes`] executed from the *same*
/// matrix that planned it. Handles carry the id of their planning matrix, so
/// resolving one against a different matrix's outcomes panics with a
/// diagnostic instead of silently reading another plan's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunHandle {
    pub(crate) matrix: u64,
    pub(crate) slot: usize,
}

/// One simulation run: everything that determines its result, and the way
/// to build and run it.
///
/// Two runs with equal keys produce bit-identical
/// [`RunResult`]s, so the planner simulates only
/// one of them. The key covers the full CMP configuration (including the
/// prefetcher), the simulation options (scale, seed, prediction-only and
/// miss-elimination modes), and the complete workload-to-core assignment —
/// equality is plain structural equality over all of them. Keys serialize
/// and deserialize (shard outcome files embed the key of the run they
/// record), and [`RunKey::id`] gives the content-addressed identity used
/// across process boundaries.
///
/// [`RunKey::run`] simulates the key: per-core trace generators, private L1
/// caches, the shared banked LLC, the mesh interconnect, the analytical core
/// timing model and the configured instruction prefetcher, with every core
/// consuming one instruction-block fetch per round. Cache warm-up runs
/// first; statistics are reset before the measured interval, mirroring the
/// paper's warmed-checkpoint methodology.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunKey {
    config: CmpConfig,
    options: SimOptions,
    consolidation: ConsolidationSpec,
}

/// The name single-run callers use for a [`RunKey`]:
/// `Simulation::standalone(config, workload, options).run()`.
///
/// A run's description and its plan key hold the same
/// `(config, options, consolidation)` triple, so they are one type; this
/// alias keeps the run-centred name for code that builds and runs one
/// simulation without planning a [`RunMatrix`].
pub type Simulation = RunKey;

impl RunKey {
    /// A run of a single workload on every core.
    pub fn standalone(config: CmpConfig, workload: WorkloadSpec, options: SimOptions) -> Self {
        let consolidation = ConsolidationSpec::standalone(workload, config.cores);
        RunKey {
            config,
            options,
            consolidation,
        }
    }

    /// A run of several consolidated workloads.
    ///
    /// # Panics
    ///
    /// Panics if the consolidation spec's core count differs from the CMP's.
    pub fn consolidated(
        config: CmpConfig,
        consolidation: ConsolidationSpec,
        options: SimOptions,
    ) -> Self {
        assert_eq!(
            consolidation.total_cores(),
            config.cores,
            "consolidation cores must match the CMP"
        );
        RunKey {
            config,
            options,
            consolidation,
        }
    }

    /// The CMP configuration of the planned run (cores, caches, prefetcher).
    pub fn config(&self) -> &CmpConfig {
        &self.config
    }

    /// The simulation options of the planned run (scale, seed, modes).
    pub fn options(&self) -> &SimOptions {
        &self.options
    }

    /// The workload-to-core assignment of the planned run.
    pub fn consolidation(&self) -> &ConsolidationSpec {
        &self.consolidation
    }

    /// Assembles the simulation [`Engine`] without running it, for callers
    /// that drive stepping themselves (e.g. the perf harness, which measures
    /// steady-state throughput over [`Engine::step_rounds`] batches).
    pub fn engine(&self) -> Engine {
        Engine::new(&self.config, self.options, &self.consolidation)
    }

    /// Runs the simulation and returns aggregate results.
    ///
    /// Each run is fully deterministic in its key: the only randomness is
    /// drawn from generators seeded by [`SimOptions::seed`], which is what
    /// lets [`RunMatrix`] execute runs on worker threads and still return
    /// bit-identical results to a serial sweep.
    pub fn run(&self) -> RunResult {
        self.engine().run()
    }

    /// The key's canonical serialized form: compact JSON of all fields.
    ///
    /// Equal keys render identically (struct field order is fixed, floats
    /// use shortest round-trip formatting), so this string *is* the key's
    /// cross-process identity; [`RunKey::id`] is its hash.
    pub fn canonical_json(&self) -> String {
        json::to_string(self)
    }

    /// The key's content-addressed id: a 64-bit FNV-1a hash of
    /// [`RunKey::canonical_json`].
    pub fn id(&self) -> RunKeyId {
        RunKeyId::of_canonical_json(&self.canonical_json())
    }
}

/// 64-bit FNV-1a: tiny, dependency-free, and stable across platforms — all
/// this needs to be. Collisions are guarded against downstream: the outcome
/// store compares the full embedded key JSON, not just the id.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

macro_rules! hex_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(u64);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:016x}", self.0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:016x})"), self.0)
            }
        }

        impl FromStr for $name {
            type Err = String;

            fn from_str(s: &str) -> Result<Self, String> {
                if s.len() != 16 {
                    return Err(format!(
                        concat!(stringify!($name), " must be 16 hex digits, got `{}`"),
                        s
                    ));
                }
                u64::from_str_radix(s, 16)
                    .map($name)
                    .map_err(|e| format!(concat!("bad ", stringify!($name), " `{}`: {}"), s, e))
            }
        }

        impl Serialize for $name {
            fn to_value(&self) -> Value {
                Value::Str(self.to_string())
            }
        }

        impl Deserialize for $name {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Str(s) => s.parse().map_err(DeError::custom),
                    other => Err(DeError::unexpected(
                        stringify!($name),
                        "a 16-hex-digit string",
                        other,
                    )),
                }
            }
        }
    };
}

hex_id! {
    /// Content-addressed identity of one [`RunKey`]: the hash of its
    /// canonical JSON, rendered as 16 hex digits. Two processes planning the
    /// same run compute the same id, which names the run's outcome file.
    RunKeyId
}

impl RunKeyId {
    /// The id of the key whose [`RunKey::canonical_json`] is `json`, for
    /// callers that already hold the rendered key and need not render it
    /// again.
    pub(crate) fn of_canonical_json(json: &str) -> Self {
        RunKeyId(fnv1a(json.as_bytes()))
    }
}

hex_id! {
    /// Content-addressed identity of a whole planned [`RunMatrix`]: a hash
    /// over its sorted [`RunKeyId`]s. Outcome files record the fingerprint of
    /// the matrix they were executed for, so a merge rejects outcomes from a
    /// different sweep (different scale, workload set, core count, …).
    MatrixFingerprint
}

/// A deduplicated plan of simulation runs, executed in parallel.
///
/// See the [module documentation](self) for the plan / execute / merge
/// workflow. The full single-process pipeline — plan a sweep, execute it
/// once, write the derived figure as a machine-readable artifact — looks
/// like this:
///
/// ```
/// use shift_report::{Artifact, Check, Reference, Table};
/// use shift_sim::{PrefetcherConfig, RunMatrix};
/// use shift_trace::{presets, Scale};
///
/// // Plan: identical keys deduplicate, so the baseline is simulated once
/// // no matter how many comparisons reference it.
/// let mut matrix = RunMatrix::new();
/// let workload = presets::tiny();
/// let baseline = matrix.standalone(&workload, PrefetcherConfig::None, 2, Scale::Test, 7);
/// let shift = matrix.standalone(
///     &workload,
///     PrefetcherConfig::shift_virtualized(),
///     2,
///     Scale::Test,
///     7,
/// );
///
/// // Execute: one parallel sweep over all planned runs.
/// let outcomes = matrix.execute();
/// let speedup = outcomes[shift].speedup_over(&outcomes[baseline]);
///
/// // Artifact-write: JSON (full result tree), CSV, and markdown, plus a
/// // reference check against the paper's value.
/// let mut table = Table::new(["workload", "speedup"]);
/// table.push_row([workload.name.as_str(), &format!("{speedup:.3}")]);
/// let artifact = Artifact::new("quick", "SHIFT speedup", &outcomes[shift], table)
///     .with_reference(Reference::new("speedup", speedup, Check::at_least(1.0)));
/// let dir = std::env::temp_dir().join("shift-runner-doctest");
/// let paths = artifact.write_to(&dir).unwrap();
/// assert_eq!(paths.len(), 3);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct RunMatrix {
    id: u64,
    keys: Vec<RunKey>,
    key_ids: Vec<RunKeyId>,
    /// The slot every [`RunMatrix::plan`] call returned, in call order.
    planned: Vec<usize>,
}

impl Default for RunMatrix {
    fn default() -> Self {
        RunMatrix::new()
    }
}

impl RunMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        RunMatrix {
            id: NEXT_MATRIX_ID.fetch_add(1, Ordering::Relaxed),
            keys: Vec::new(),
            key_ids: Vec::new(),
            planned: Vec::new(),
        }
    }

    /// Plans a standalone-workload run on the paper's CMP
    /// ([`CmpConfig::micro13`]) with the given prefetcher.
    pub fn standalone(
        &mut self,
        workload: &WorkloadSpec,
        prefetcher: PrefetcherConfig,
        cores: u16,
        scale: Scale,
        seed: u64,
    ) -> RunHandle {
        self.standalone_with(
            CmpConfig::micro13(cores, prefetcher),
            workload,
            SimOptions::new(scale, seed),
        )
    }

    /// Plans a standalone-workload run with an explicit CMP configuration and
    /// options (core-kind overrides, prediction-only mode, …).
    pub fn standalone_with(
        &mut self,
        config: CmpConfig,
        workload: &WorkloadSpec,
        options: SimOptions,
    ) -> RunHandle {
        self.plan(RunKey::standalone(config, workload.clone(), options))
    }

    /// Plans a consolidated run of several workloads sharing the CMP.
    ///
    /// # Panics
    ///
    /// Panics if the consolidation spec's core count differs from the CMP's.
    pub fn consolidated(
        &mut self,
        config: CmpConfig,
        consolidation: &ConsolidationSpec,
        options: SimOptions,
    ) -> RunHandle {
        self.plan(RunKey::consolidated(config, consolidation.clone(), options))
    }

    /// Plans an arbitrary run.
    ///
    /// Deduplication is a linear scan over the planned keys: matrices hold at
    /// most a few hundred runs, and each key comparison is far cheaper than
    /// the seconds-to-minutes simulation it saves.
    pub fn plan(&mut self, key: RunKey) -> RunHandle {
        let slot = match self.keys.iter().position(|k| *k == key) {
            Some(existing) => existing,
            None => {
                self.key_ids.push(key.id());
                self.keys.push(key);
                self.keys.len() - 1
            }
        };
        self.planned.push(slot);
        RunHandle {
            matrix: self.id,
            slot,
        }
    }

    /// Number of [`RunMatrix::plan`] calls so far, duplicates included: a
    /// mark to pass to [`RunMatrix::distinct_runs_since`].
    pub fn plan_calls(&self) -> usize {
        self.planned.len()
    }

    /// Number of distinct runs the plan calls since `mark` asked for: the
    /// size a fresh matrix would have had if those calls alone had been
    /// planned into it. Deduplication is key equality, so distinct slots
    /// are distinct keys, whichever runs earlier calls already planned.
    ///
    /// # Panics
    ///
    /// Panics if `mark` exceeds [`RunMatrix::plan_calls`].
    pub fn distinct_runs_since(&self, mark: usize) -> usize {
        let mut seen = vec![false; self.keys.len()];
        self.planned[mark..]
            .iter()
            .filter(|&&slot| !std::mem::replace(&mut seen[slot], true))
            .count()
    }

    /// The deduplicated keys of every planned run, in plan order. Use
    /// [`RunMatrix::canonical_order`] when enumeration order must be stable
    /// across planning-order changes.
    pub fn keys(&self) -> &[RunKey] {
        &self.keys
    }

    /// The content-addressed id of every planned run, in plan order
    /// (parallel to [`RunMatrix::keys`]).
    pub fn key_ids(&self) -> &[RunKeyId] {
        &self.key_ids
    }

    /// Plan-order slot indices in *canonical order*: sorted by the key's
    /// canonical JSON. This is the enumeration order every cross-process
    /// consumer uses — shard slices, outcome stores, manifests — so slices
    /// stay stable no matter which figure planned a shared run first.
    pub fn canonical_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_by_cached_key(|&slot| self.keys[slot].canonical_json());
        order
    }

    /// The fingerprint identifying this *plan* (not this process): a hash
    /// over the sorted key ids. Matrices planned independently from the same
    /// settings agree on it; any difference in run set changes it.
    pub fn fingerprint(&self) -> MatrixFingerprint {
        let mut sorted = self.key_ids.clone();
        sorted.sort_unstable();
        let mut text = String::with_capacity(17 * sorted.len());
        for id in &sorted {
            text.push_str(&id.to_string());
            text.push('\n');
        }
        MatrixFingerprint(fnv1a(text.as_bytes()))
    }

    /// The process-local matrix id handles are branded with.
    pub(crate) fn local_id(&self) -> u64 {
        self.id
    }

    /// Number of distinct runs planned (after deduplication).
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if no runs are planned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Executes every planned run across the default worker-thread count:
    /// the `SHIFT_THREADS` environment variable if set, otherwise one thread
    /// per available hardware core. Shorthand for
    /// [`Execution::new(&matrix).run()`](crate::execution::Execution); use
    /// the builder directly for explicit thread counts, durable modes, or
    /// scheduling policies.
    ///
    /// Results are keyed by plan position, so the outcome is independent of
    /// which worker runs which simulation: for the same matrix, any thread
    /// count yields bit-identical [`RunOutcomes`].
    pub fn execute(&self) -> RunOutcomes {
        crate::Execution::new(self)
            .run()
            .expect("an in-memory execution performs no I/O")
            .into_outcomes()
    }
}

/// Default worker-thread count: `SHIFT_THREADS` if set to a positive integer,
/// otherwise the number of available hardware threads.
///
/// The variable is read on every call, so a host may set it before its
/// pools start; an invalid value warns once per process.
pub fn default_threads() -> usize {
    static WARNED: Once = Once::new();
    if let Ok(value) = std::env::var("SHIFT_THREADS") {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
        WARNED.call_once(|| eprintln!("ignoring invalid SHIFT_THREADS `{value}`"));
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on the default worker-thread pool, returning the
/// outputs in item order.
///
/// This is the same executor every [`Execution`](crate::Execution) pass
/// runs on, exposed for sweeps that are not plain `RunKey::run` calls (the
/// commonality opportunity study, the storage-table arithmetic).
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_with_threads(items, default_threads(), f)
}

pub(crate) fn parallel_map_with_threads<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }

    // Work-stealing by atomic counter: each worker claims the next unclaimed
    // item and writes its result into that item's dedicated slot, so the
    // output order (and therefore determinism) never depends on scheduling.
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let output = f(&items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(output);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use shift_trace::presets;
    use shift_types::AccessClass;

    #[test]
    fn identical_plans_deduplicate_to_one_run() {
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        let a = matrix.standalone(&w, PrefetcherConfig::None, 4, Scale::Test, 7);
        let b = matrix.standalone(&w, PrefetcherConfig::None, 4, Scale::Test, 7);
        assert_eq!(a, b);
        assert_eq!(matrix.len(), 1);

        // Any differing component of the key is a distinct run.
        let c = matrix.standalone(&w, PrefetcherConfig::None, 4, Scale::Test, 8);
        let d = matrix.standalone(&w, PrefetcherConfig::next_line(), 4, Scale::Test, 7);
        let e = matrix.standalone(&w, PrefetcherConfig::None, 8, Scale::Test, 7);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e);
        assert_eq!(matrix.len(), 4);
    }

    #[test]
    fn options_and_workload_identity_are_part_of_the_key() {
        let mut matrix = RunMatrix::new();
        let w = presets::tiny();
        let config = CmpConfig::micro13(4, PrefetcherConfig::pif_32k());
        let plain = matrix.standalone_with(config, &w, SimOptions::new(Scale::Test, 3));
        let predict = matrix.standalone_with(
            config,
            &w,
            SimOptions::new(Scale::Test, 3).prediction_only(),
        );
        let scaled = matrix.standalone_with(
            config,
            &w.clone().scaled_footprint(0.5),
            SimOptions::new(Scale::Test, 3),
        );
        assert_ne!(plain, predict);
        assert_ne!(plain, scaled);
        assert_eq!(matrix.len(), 3);
    }

    #[test]
    fn distinct_runs_since_counts_what_a_fresh_matrix_would_hold() {
        let w = presets::tiny();
        let mut matrix = RunMatrix::new();
        matrix.standalone(&w, PrefetcherConfig::None, 4, Scale::Test, 7);
        let mark = matrix.plan_calls();
        // One run already planned before the mark, one new run, and a
        // repeat of each: two distinct runs, as a fresh matrix would count.
        let mut fresh = RunMatrix::new();
        for m in [&mut matrix, &mut fresh] {
            for p in [PrefetcherConfig::None, PrefetcherConfig::next_line()] {
                m.standalone(&w, p, 4, Scale::Test, 7);
                m.standalone(&w, p, 4, Scale::Test, 7);
            }
        }
        assert_eq!(matrix.plan_calls(), mark + 4);
        assert_eq!(matrix.distinct_runs_since(mark), fresh.len());
        assert_eq!(matrix.distinct_runs_since(mark), 2);
        assert_eq!(matrix.distinct_runs_since(0), matrix.len());
        assert_eq!(matrix.distinct_runs_since(matrix.plan_calls()), 0);
    }

    #[test]
    fn key_ids_are_content_addressed() {
        let w = presets::tiny();
        let mut a = RunMatrix::new();
        let mut b = RunMatrix::new();
        // Plan the same two runs in opposite orders from separate matrices.
        a.standalone(&w, PrefetcherConfig::None, 4, Scale::Test, 7);
        a.standalone(&w, PrefetcherConfig::next_line(), 4, Scale::Test, 7);
        b.standalone(&w, PrefetcherConfig::next_line(), 4, Scale::Test, 7);
        b.standalone(&w, PrefetcherConfig::None, 4, Scale::Test, 7);

        // Content-addressing: ids match per key even across processes (here,
        // matrices), and the fingerprint is plan-order independent.
        assert_eq!(a.key_ids()[0], b.key_ids()[1]);
        assert_eq!(a.key_ids()[1], b.key_ids()[0]);
        assert_ne!(a.key_ids()[0], a.key_ids()[1]);
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Different sweeps get different fingerprints.
        let mut c = RunMatrix::new();
        c.standalone(&w, PrefetcherConfig::None, 4, Scale::Test, 7);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn canonical_order_is_planning_order_independent() {
        let w = presets::tiny();
        let mut a = RunMatrix::new();
        let mut b = RunMatrix::new();
        let prefetchers = [
            PrefetcherConfig::None,
            PrefetcherConfig::next_line(),
            PrefetcherConfig::pif_2k(),
        ];
        for p in prefetchers {
            a.standalone(&w, p, 4, Scale::Test, 7);
        }
        for p in prefetchers.iter().rev() {
            b.standalone(&w, *p, 4, Scale::Test, 7);
        }
        let canonical_a: Vec<RunKeyId> = a
            .canonical_order()
            .into_iter()
            .map(|slot| a.key_ids()[slot])
            .collect();
        let canonical_b: Vec<RunKeyId> = b
            .canonical_order()
            .into_iter()
            .map(|slot| b.key_ids()[slot])
            .collect();
        assert_eq!(canonical_a, canonical_b);
    }

    #[test]
    fn hex_ids_round_trip_through_strings_and_serde() {
        let w = presets::tiny();
        let mut matrix = RunMatrix::new();
        matrix.standalone(&w, PrefetcherConfig::None, 2, Scale::Test, 1);
        let id = matrix.key_ids()[0];
        assert_eq!(id.to_string().len(), 16);
        assert_eq!(id.to_string().parse::<RunKeyId>(), Ok(id));
        assert_eq!(RunKeyId::from_value(&id.to_value()), Ok(id));
        assert!("xyz".parse::<RunKeyId>().is_err());
        assert!("0123".parse::<RunKeyId>().is_err());

        let fp = matrix.fingerprint();
        assert_eq!(fp.to_string().parse::<MatrixFingerprint>(), Ok(fp));
    }

    #[test]
    fn keys_serialize_for_the_reproduce_manifest() {
        let w = presets::tiny();
        let mut matrix = RunMatrix::new();
        let _ = matrix.standalone(&w, PrefetcherConfig::shift_virtualized(), 2, Scale::Test, 5);
        assert_eq!(matrix.keys().len(), 1);
        let json = serde::json::to_string(&matrix.keys()[0]);
        assert!(json.contains("\"config\""), "got {json}");
        assert!(json.contains("\"Shift\""), "got {json}");
    }

    #[test]
    fn keys_round_trip_through_json() {
        let w = presets::tiny();
        let mut matrix = RunMatrix::new();
        let _ = matrix.standalone(&w, PrefetcherConfig::shift_virtualized(), 2, Scale::Test, 5);
        let key = &matrix.keys()[0];
        let back: RunKey = json::from_str(&key.canonical_json()).expect("round trip");
        assert_eq!(&back, key);
        assert_eq!(back.id(), key.id());
        assert_eq!(RunKeyId::of_canonical_json(&key.canonical_json()), key.id());
    }

    #[test]
    fn empty_matrix_executes_to_empty_outcomes() {
        let matrix = RunMatrix::new();
        assert!(matrix.is_empty());
        let outcomes = matrix.execute();
        assert!(outcomes.is_empty());
        assert_eq!(outcomes.len(), 0);
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..103).collect();
        let doubled = parallel_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        let singleton = parallel_map(&[42u64], |&x| x + 1);
        assert_eq!(singleton, vec![43]);
        let empty: Vec<u64> = parallel_map(&[] as &[u64], |&x| x);
        assert!(empty.is_empty());
    }

    fn run(prefetcher: PrefetcherConfig) -> RunResult {
        let config = CmpConfig::micro13(4, prefetcher);
        let options = SimOptions::new(Scale::Test, 7);
        Simulation::standalone(config, presets::tiny(), options).run()
    }

    #[test]
    fn baseline_run_produces_misses_and_cycles() {
        let result = run(PrefetcherConfig::None);
        assert_eq!(result.per_core.len(), 4);
        assert!(result.coverage.uncovered > 0);
        assert_eq!(result.coverage.covered, 0);
        assert!(result.throughput() > 0.0);
        assert!(result.l1i_mpki() > 0.0);
        assert!(result.llc_traffic.count(AccessClass::Demand) > 0);
    }

    #[test]
    fn next_line_covers_some_misses_and_speeds_up() {
        let baseline = run(PrefetcherConfig::None);
        let nl = run(PrefetcherConfig::next_line());
        assert!(nl.coverage.covered > 0);
        let coverage = nl.coverage.coverage();
        assert!(
            coverage > 0.05 && coverage < 0.9,
            "next-line coverage {coverage}"
        );
        assert!(nl.speedup_over(&baseline) > 1.0);
    }

    #[test]
    fn shift_covers_more_than_next_line() {
        let nl = run(PrefetcherConfig::next_line());
        let shift = run(PrefetcherConfig::shift_virtualized());
        assert!(
            shift.coverage.coverage() > nl.coverage.coverage(),
            "SHIFT {} vs next-line {}",
            shift.coverage.coverage(),
            nl.coverage.coverage()
        );
        assert!(shift.llc_traffic.count(AccessClass::HistoryRead) > 0);
        assert!(shift.llc_traffic.count(AccessClass::IndexUpdate) > 0);
    }

    #[test]
    fn miss_elimination_full_probability_removes_all_stalls() {
        let config = CmpConfig::micro13(2, PrefetcherConfig::None);
        let options = SimOptions::new(Scale::Test, 3).with_miss_elimination(1.0);
        let result = Simulation::standalone(config, presets::tiny(), options).run();
        assert_eq!(result.coverage.uncovered, 0);
        assert!(result.coverage.covered > 0);
    }

    #[test]
    fn prediction_only_mode_does_not_fill_prefetches() {
        let config = CmpConfig::micro13(2, PrefetcherConfig::pif_32k());
        let options = SimOptions::new(Scale::Test, 3).prediction_only();
        let result = Simulation::standalone(config, presets::tiny(), options).run();
        // Nothing is ever covered (no prefetch fills), but predictions happen.
        assert_eq!(result.coverage.covered, 0);
        assert!(result.coverage.predicted > 0);
    }

    #[test]
    #[should_panic(expected = "consolidation cores must match")]
    fn consolidation_core_mismatch_rejected() {
        let config = CmpConfig::micro13(4, PrefetcherConfig::None);
        let spec = shift_trace::ConsolidationSpec::standalone(presets::tiny(), 8);
        let _ = Simulation::consolidated(config, spec, SimOptions::new(Scale::Test, 1));
    }
}
