//! Code layout synthesis: address regions, functions, and fragments.
//!
//! A workload's instruction footprint is modelled as a set of *functions* laid
//! out back to back in a dedicated [`AddressRegion`]. Each function is a
//! sequence of *fragments*: short runs of consecutive cache blocks separated
//! by control-flow discontinuities (taken branches, calls). A fragment may be
//! skipped with a small probability when the function executes, modelling
//! data-dependent branches — the source of the minor control-flow differences
//! between request instances that the paper discusses.
//!
//! Every non-entry fragment of an application function shares one skip
//! probability (`LayoutParams::fragment_skip_probability`), every non-entry
//! fragment of an OS handler half of it, and the entry fragment is never
//! skipped. So the layout holds the two probabilities once, one per kind of
//! function, and a fragment is only its offset and length: 8 bytes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use shift_types::BlockAddr;

/// A half-open range of cache-block addresses `[start, start + len_blocks)`.
///
/// Regions keep the instruction footprints, data footprints, and OS code of
/// different (possibly consolidated) workloads disjoint.
///
/// # Examples
///
/// ```
/// use shift_trace::AddressRegion;
/// use shift_types::BlockAddr;
///
/// let region = AddressRegion::new(BlockAddr::new(0x1000), 64);
/// assert!(region.contains(BlockAddr::new(0x103f)));
/// assert!(!region.contains(BlockAddr::new(0x1040)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddressRegion {
    start: BlockAddr,
    len_blocks: u64,
}

impl AddressRegion {
    /// Creates a region starting at `start` and spanning `len_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `len_blocks` is zero.
    pub fn new(start: BlockAddr, len_blocks: u64) -> Self {
        assert!(len_blocks > 0, "address region must not be empty");
        AddressRegion { start, len_blocks }
    }

    /// First block of the region.
    pub fn start(&self) -> BlockAddr {
        self.start
    }

    /// Number of blocks in the region.
    pub fn len_blocks(&self) -> u64 {
        self.len_blocks
    }

    /// One-past-the-end block of the region.
    pub fn end(&self) -> BlockAddr {
        self.start.offset(self.len_blocks)
    }

    /// Returns `true` if `block` falls inside the region.
    pub fn contains(&self, block: BlockAddr) -> bool {
        block >= self.start && block < self.end()
    }

    /// Returns `true` if the two regions share any block.
    pub fn overlaps(&self, other: &AddressRegion) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Returns the `i`-th block of the region.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len_blocks`.
    pub fn block(&self, i: u64) -> BlockAddr {
        assert!(i < self.len_blocks, "block index out of region bounds");
        self.start.offset(i)
    }

    /// Footprint of the region in bytes.
    pub fn bytes(&self) -> u64 {
        self.len_blocks * shift_types::BLOCK_BYTES as u64
    }
}

/// A run of consecutive instruction blocks within a function, bounded by a
/// control-flow discontinuity. Whether an execution skips it is decided by
/// its function's kind (see [`Function::execute`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Fragment {
    /// Offset (in blocks) of the fragment's first block from the function entry.
    pub offset: u32,
    /// Number of consecutive blocks in the fragment.
    pub len: u32,
}

impl Fragment {
    /// Creates a fragment.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(offset: u32, len: u32) -> Self {
        assert!(len > 0, "fragment must contain at least one block");
        Fragment { offset, len }
    }
}

/// A function of a [`CodeLayout`]: a contiguous range of blocks subdivided
/// into fragments.
///
/// Fragments are laid out back to back in the address space, but *execute* in
/// a fixed, per-function order that generally differs from address order —
/// modelling taken branches and basic-block reordering. The execution order
/// is part of the function's static identity, so every execution of the
/// function produces the same block sequence (up to skipped fragments), which
/// is what makes temporal streams recur.
///
/// The layout stores every function's fragments in one array, each
/// function's in its execution order, so a `Function` is a borrowed view of
/// one slice of that array, carrying its kind's skip probability.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Function<'a> {
    entry: BlockAddr,
    len_blocks: u32,
    /// Probability that an execution skips each non-entry fragment.
    skip_probability: f64,
    fragments: &'a [Fragment],
}

impl Function<'_> {
    /// First block of the function (its entry point).
    pub fn entry(&self) -> BlockAddr {
        self.entry
    }

    /// Total extent of the function in blocks, including padding.
    pub fn len_blocks(&self) -> u32 {
        self.len_blocks
    }

    /// The function's fragments in execution order; the first is the entry
    /// fragment (offset 0).
    pub fn fragments(&self) -> &[Fragment] {
        self.fragments
    }

    /// Expected number of blocks fetched by one execution (each fragment
    /// weighted by its execution probability).
    pub fn expected_blocks_per_execution(&self) -> f64 {
        self.fragments
            .iter()
            .map(|f| {
                let skip = if f.offset == 0 {
                    0.0
                } else {
                    self.skip_probability
                };
                f.len as f64 * (1.0 - skip)
            })
            .sum()
    }

    /// Upper bound on the blocks one execution can emit: every fragment
    /// taken (no skips). Used to pre-size trace-generation buffers so the
    /// hot path never reallocates.
    pub fn max_blocks_per_execution(&self) -> u32 {
        self.fragments.iter().map(|f| f.len).sum()
    }

    /// Emits the block addresses touched by one execution of the function,
    /// using `rng` to decide which fragments are skipped, appending them to
    /// `out`. Fragments are emitted in the function's execution order; the
    /// entry fragment is never skipped so that every execution touches the
    /// function entry block, and each other fragment is skipped with the
    /// kind's probability (one draw per fragment, none when it is zero).
    pub fn execute<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<BlockAddr>) {
        let p = self.skip_probability;
        for frag in self.fragments {
            let always = frag.offset == 0;
            if !always && p > 0.0 && rng.gen_bool(p) {
                continue;
            }
            for i in 0..frag.len {
                out.push(self.entry.offset((frag.offset + i) as u64));
            }
        }
    }
}

/// Where one function sits in the address space and in its layout's
/// fragment array.
#[derive(Clone, Debug)]
struct FunctionRecord {
    entry: BlockAddr,
    len_blocks: u32,
    /// The function's fragments are `fragments[first_fragment..end_fragment]`
    /// of the layout, in execution order.
    first_fragment: usize,
    end_fragment: usize,
}

impl FunctionRecord {
    fn view<'a>(&self, fragments: &'a [Fragment], skip_probability: f64) -> Function<'a> {
        Function {
            entry: self.entry,
            len_blocks: self.len_blocks,
            skip_probability,
            fragments: &fragments[self.first_fragment..self.end_fragment],
        }
    }
}

/// Appends one function's fragments to `fragments` in execution order and
/// returns its record. `by_address` holds the fragments in address order and
/// `order` the indices into it in the order they execute.
///
/// # Panics
///
/// Panics if any fragment extends past `len_blocks`, or if `order` is not a
/// permutation of `0..by_address.len()` or does not start with fragment `0`
/// (the entry fragment must execute first).
fn push_function(
    fragments: &mut Vec<Fragment>,
    entry: BlockAddr,
    len_blocks: u32,
    by_address: &[Fragment],
    order: &[u32],
    seen: &mut Vec<bool>,
) -> FunctionRecord {
    for frag in by_address {
        assert!(
            frag.offset + frag.len <= len_blocks,
            "fragment extends past end of function"
        );
    }
    assert_eq!(
        order.len(),
        by_address.len(),
        "order must cover all fragments"
    );
    seen.clear();
    seen.resize(by_address.len(), false);
    for &i in order {
        let idx = i as usize;
        assert!(idx < by_address.len(), "order references unknown fragment");
        assert!(!seen[idx], "order repeats a fragment");
        seen[idx] = true;
    }
    assert_eq!(order.first(), Some(&0), "entry fragment must execute first");
    let first_fragment = fragments.len();
    fragments.extend(order.iter().map(|&i| by_address[i as usize]));
    FunctionRecord {
        entry,
        len_blocks,
        first_fragment,
        end_fragment: fragments.len(),
    }
}

/// Buffers for synthesizing one function, reused across all functions of a
/// layout.
#[derive(Default)]
struct FunctionScratch {
    by_address: Vec<Fragment>,
    remaining: Vec<u32>,
    order: Vec<u32>,
    seen: Vec<bool>,
}

/// The complete code layout of one workload.
///
/// Application functions live in the workload's code region; operating-system
/// handler functions (scheduler, TLB-miss handler, interrupt handlers) live in
/// a separate OS region shared by all request types. All fragments of all
/// functions sit in one array, each function's in its execution order, beside
/// one small record per function and one skip probability per kind.
#[derive(Clone, Debug)]
pub struct CodeLayout {
    code_region: AddressRegion,
    os_region: AddressRegion,
    fragments: Vec<Fragment>,
    functions: Vec<FunctionRecord>,
    os_functions: Vec<FunctionRecord>,
    /// Skip probability of every non-entry application fragment.
    skip_probability: f64,
    /// Skip probability of every non-entry OS handler fragment.
    os_skip_probability: f64,
}

/// Parameters controlling random layout synthesis.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayoutParams {
    /// Number of application functions.
    pub functions: usize,
    /// Mean function length in blocks.
    pub mean_function_blocks: f64,
    /// Mean fragment length in blocks (controls next-line prefetcher efficacy).
    pub mean_fragment_blocks: f64,
    /// Probability that a non-entry fragment is skipped by an execution.
    pub fragment_skip_probability: f64,
    /// Probability that control flow *branches* at a fragment boundary instead
    /// of falling through to the next fragment in address order. Higher values
    /// mean more discontinuities, which next-line prefetching cannot cover.
    pub taken_branch_probability: f64,
    /// Number of OS handler functions.
    pub os_functions: usize,
    /// Mean OS handler length in blocks.
    pub mean_os_function_blocks: f64,
}

impl CodeLayout {
    /// Synthesizes a layout from `params`, placing application code at
    /// `code_base` and OS code at `os_base`.
    ///
    /// # Panics
    ///
    /// Panics if `params.functions` is zero or
    /// `params.fragment_skip_probability` is outside `[0, 1)`.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        params: &LayoutParams,
        code_base: BlockAddr,
        os_base: BlockAddr,
    ) -> Self {
        assert!(params.functions > 0, "layout needs at least one function");
        let skip_probability = params.fragment_skip_probability;
        assert!(
            (0.0..1.0).contains(&skip_probability),
            "skip probability must be in [0, 1)"
        );
        let mut fragments = Vec::new();
        let mut scratch = FunctionScratch::default();
        let functions = Self::generate_functions(
            rng,
            &mut fragments,
            &mut scratch,
            code_base,
            params.functions,
            params.mean_function_blocks,
            params.mean_fragment_blocks,
            params.taken_branch_probability,
        );
        // OS handlers have straighter control flow: fewer taken branches
        // here, and half the skip probability (`os_skip_probability`).
        let os_functions = Self::generate_functions(
            rng,
            &mut fragments,
            &mut scratch,
            os_base,
            params.os_functions.max(1),
            params.mean_os_function_blocks,
            params.mean_fragment_blocks,
            params.taken_branch_probability * 0.7,
        );
        let region_len = |records: &[FunctionRecord], base: BlockAddr| {
            records
                .last()
                .map(|f| f.entry.offset(f.len_blocks as u64) - base)
                .unwrap_or(1)
                .max(1)
        };
        CodeLayout {
            code_region: AddressRegion::new(code_base, region_len(&functions, code_base)),
            os_region: AddressRegion::new(os_base, region_len(&os_functions, os_base)),
            fragments,
            functions,
            os_functions,
            skip_probability,
            os_skip_probability: skip_probability * 0.5,
        }
    }

    /// Synthesizes `count` functions laid out back to back from `base`,
    /// appends their fragments to `fragments` and returns their records.
    #[allow(clippy::too_many_arguments)]
    fn generate_functions<R: Rng + ?Sized>(
        rng: &mut R,
        fragments: &mut Vec<Fragment>,
        scratch: &mut FunctionScratch,
        base: BlockAddr,
        count: usize,
        mean_blocks: f64,
        mean_fragment_blocks: f64,
        taken_branch_probability: f64,
    ) -> Vec<FunctionRecord> {
        let mut functions = Vec::with_capacity(count);
        let mut cursor = base;
        for _ in 0..count {
            // Function length: uniform in [mean/2, 3*mean/2], at least 1 block.
            let lo = (mean_blocks * 0.5).max(1.0);
            let hi = (mean_blocks * 1.5).max(lo + 1.0);
            let len = rng.gen_range(lo..hi).round().max(1.0) as u32;
            Self::fragment(rng, len, mean_fragment_blocks, &mut scratch.by_address);
            Self::execution_order(
                rng,
                scratch.by_address.len(),
                taken_branch_probability,
                &mut scratch.remaining,
                &mut scratch.order,
            );
            functions.push(push_function(
                fragments,
                cursor,
                len,
                &scratch.by_address,
                &scratch.order,
                &mut scratch.seen,
            ));
            cursor = cursor.offset(len as u64);
        }
        functions
    }

    /// Writes a function's fragment execution order to `order`: starting
    /// from address order, each fragment boundary becomes a taken branch (a
    /// jump to a random not-yet-executed fragment) with the given
    /// probability.
    fn execution_order<R: Rng + ?Sized>(
        rng: &mut R,
        fragment_count: usize,
        taken_branch_probability: f64,
        remaining: &mut Vec<u32>,
        order: &mut Vec<u32>,
    ) {
        remaining.clear();
        remaining.extend(1..fragment_count as u32);
        order.clear();
        order.push(0u32);
        let mut last = 0u32;
        while !remaining.is_empty() {
            let fallthrough_pos = remaining.iter().position(|&f| f == last + 1);
            let pick = match fallthrough_pos {
                Some(pos) if !rng.gen_bool(taken_branch_probability.clamp(0.0, 1.0)) => pos,
                _ => rng.gen_range(0..remaining.len()),
            };
            last = remaining.swap_remove(pick);
            order.push(last);
        }
    }

    /// Writes the fragments of a `len_blocks`-block function to `out`, in
    /// address order.
    fn fragment<R: Rng + ?Sized>(
        rng: &mut R,
        len_blocks: u32,
        mean_fragment_blocks: f64,
        out: &mut Vec<Fragment>,
    ) {
        out.clear();
        let mut offset = 0u32;
        while offset < len_blocks {
            let remaining = len_blocks - offset;
            let lo = 1.0f64;
            let hi = (mean_fragment_blocks * 2.0).max(lo + 0.5);
            let frag_len = rng.gen_range(lo..hi).round().max(1.0) as u32;
            let frag_len = frag_len.min(remaining);
            out.push(Fragment::new(offset, frag_len));
            offset += frag_len;
        }
    }

    /// The application code region.
    pub fn code_region(&self) -> AddressRegion {
        self.code_region
    }

    /// The OS code region.
    pub fn os_region(&self) -> AddressRegion {
        self.os_region
    }

    /// Application function `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the number of application functions.
    pub fn function(&self, index: usize) -> Function<'_> {
        self.functions[index].view(&self.fragments, self.skip_probability)
    }

    /// OS handler function `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the number of OS handler functions.
    pub fn os_function(&self, index: usize) -> Function<'_> {
        self.os_functions[index].view(&self.fragments, self.os_skip_probability)
    }

    /// Application functions, in address order.
    pub fn functions(&self) -> impl ExactSizeIterator<Item = Function<'_>> + '_ {
        self.functions
            .iter()
            .map(|f| f.view(&self.fragments, self.skip_probability))
    }

    /// OS handler functions, in address order.
    pub fn os_functions(&self) -> impl ExactSizeIterator<Item = Function<'_>> + '_ {
        self.os_functions
            .iter()
            .map(|f| f.view(&self.fragments, self.os_skip_probability))
    }

    /// Total instruction footprint (application + OS) in blocks.
    pub fn footprint_blocks(&self) -> u64 {
        self.functions
            .iter()
            .chain(&self.os_functions)
            .map(|f| f.len_blocks as u64)
            .sum()
    }

    /// Total instruction footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint_blocks() * shift_types::BLOCK_BYTES as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_params() -> LayoutParams {
        LayoutParams {
            functions: 50,
            mean_function_blocks: 12.0,
            mean_fragment_blocks: 2.5,
            fragment_skip_probability: 0.1,
            taken_branch_probability: 0.55,
            os_functions: 5,
            mean_os_function_blocks: 8.0,
        }
    }

    #[test]
    fn region_containment_and_overlap() {
        let a = AddressRegion::new(BlockAddr::new(0), 10);
        let b = AddressRegion::new(BlockAddr::new(10), 10);
        let c = AddressRegion::new(BlockAddr::new(5), 3);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(a.contains(BlockAddr::new(9)));
        assert!(!a.contains(BlockAddr::new(10)));
        assert_eq!(a.bytes(), 640);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_region_rejected() {
        let _ = AddressRegion::new(BlockAddr::new(0), 0);
    }

    #[test]
    fn functions_are_laid_out_contiguously_without_overlap() {
        let mut rng = SmallRng::seed_from_u64(1);
        let layout = CodeLayout::generate(
            &mut rng,
            &small_params(),
            BlockAddr::new(0x10000),
            BlockAddr::new(0x80000),
        );
        let fns: Vec<Function<'_>> = layout.functions().collect();
        assert_eq!(fns.len(), 50);
        for pair in fns.windows(2) {
            let end = pair[0].entry().offset(pair[0].len_blocks() as u64);
            assert_eq!(end, pair[1].entry(), "functions must be contiguous");
        }
        assert!(layout.code_region().contains(fns[0].entry()));
        assert!(!layout.code_region().overlaps(&layout.os_region()));
        // One array holds every function's fragments, back to back in
        // function order (application, then OS)...
        let mut next = 0;
        for record in layout.functions.iter().chain(&layout.os_functions) {
            assert_eq!(record.first_fragment, next, "fragment ranges must abut");
            next = record.end_fragment;
        }
        assert_eq!(next, layout.fragments.len());
        // ...each function's in an execution order that starts at the entry
        // and visits every fragment of the function once.
        for f in layout.functions().chain(layout.os_functions()) {
            assert_eq!(f.fragments()[0].offset, 0, "entry fragment must run first");
            let mut by_address: Vec<(u32, u32)> =
                f.fragments().iter().map(|fr| (fr.offset, fr.len)).collect();
            by_address.sort_unstable();
            let mut offset = 0;
            for (start, len) in by_address {
                assert_eq!(start, offset, "fragments must tile the function");
                offset += len;
            }
            assert_eq!(offset, f.len_blocks());
        }
    }

    #[test]
    fn execution_emits_blocks_within_function_extent() {
        let mut rng = SmallRng::seed_from_u64(2);
        let layout = CodeLayout::generate(
            &mut rng,
            &small_params(),
            BlockAddr::new(0),
            BlockAddr::new(0x80000),
        );
        let f = layout.function(7);
        let mut blocks = Vec::new();
        f.execute(&mut rng, &mut blocks);
        assert!(!blocks.is_empty());
        for b in &blocks {
            let off = b.offset_from(f.entry()).expect("block before entry");
            assert!(off < f.len_blocks() as u64);
        }
        // Entry block is always fetched.
        assert_eq!(blocks[0], f.entry());
    }

    #[test]
    fn expected_blocks_reflects_skip_probability() {
        let mut fragments = Vec::new();
        let record = push_function(
            &mut fragments,
            BlockAddr::new(0),
            4,
            &[Fragment::new(0, 2), Fragment::new(2, 2)],
            &[0, 1],
            &mut Vec::new(),
        );
        let expected = record.view(&fragments, 0.5).expected_blocks_per_execution();
        assert!((expected - 3.0).abs() < 1e-9);
    }

    #[test]
    fn footprint_counts_app_and_os_blocks() {
        let mut rng = SmallRng::seed_from_u64(3);
        let layout = CodeLayout::generate(
            &mut rng,
            &small_params(),
            BlockAddr::new(0),
            BlockAddr::new(0x80000),
        );
        let sum: u64 = layout
            .functions()
            .chain(layout.os_functions())
            .map(|f| f.len_blocks() as u64)
            .sum();
        assert_eq!(layout.footprint_blocks(), sum);
        assert_eq!(layout.footprint_bytes(), sum * 64);
    }

    #[test]
    fn a_fragment_is_an_offset_and_a_length() {
        assert_eq!(std::mem::size_of::<Fragment>(), 8);
    }

    #[test]
    #[should_panic(expected = "skip probability must be in [0, 1)")]
    fn certain_skip_probability_rejected() {
        let params = LayoutParams {
            fragment_skip_probability: 1.0,
            ..small_params()
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = CodeLayout::generate(
            &mut rng,
            &params,
            BlockAddr::new(0),
            BlockAddr::new(0x80000),
        );
    }

    #[test]
    #[should_panic(expected = "extends past end")]
    fn fragment_past_function_end_rejected() {
        let _ = push_function(
            &mut Vec::new(),
            BlockAddr::new(0),
            2,
            &[Fragment::new(1, 4)],
            &[0],
            &mut Vec::new(),
        );
    }
}
