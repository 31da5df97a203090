//! The per-event paths of the stochastic backends allocate nothing.
//!
//! A counting global allocator (delegating to [`System`]) tallies the heap
//! allocations the test thread makes while it drives 10⁴ consecutive
//! `advance` calls of the batched engine (USD and pairwise Voter), and of
//! the hybrid engine held at stochastic fidelity, where every call also
//! evaluates the fidelity detector.  Every tally must be zero.
//!
//! Debug builds cross-check a sample of row tables against enumeration
//! inside `advance`, which may allocate, so the zero assertions hold for
//! optimized builds only: run `cargo test --release --test hot_path_alloc`.
//!
//! This file is its own test binary because a `#[global_allocator]` needs
//! `unsafe impl GlobalAlloc`, which the library crates forbid.

use consensus_dynamics::PairwiseVoter;
use pp_core::engine::{Advance, StepEngine};
use pp_core::{BatchedEngine, Configuration, FidelityConfig, SimSeed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use usd_core::{HybridEngine, UndecidedStateDynamics};

struct CountingAllocator;

thread_local! {
    /// This thread's allocations so far.  Per thread, so tests running in
    /// parallel and the harness do not count against each other.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocated
// memory and never allocates itself (a const-initialized `Cell` thread
// local without a destructor).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, and the caller's guarantees for `new_size` carry
        // over.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The heap allocations the current thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const CALLS: usize = 10_000;

fn assert_allocation_free(path: &str, allocations: u64) {
    if cfg!(debug_assertions) {
        // The sampled row cross-check may allocate; see the module docs.
        return;
    }
    assert_eq!(allocations, 0, "{path}: {CALLS} advance calls allocated");
}

#[test]
fn the_counter_sees_this_thread_allocate() {
    let allocations = allocations_in(|| {
        std::hint::black_box(vec![0u8; 64]);
    });
    assert!(allocations >= 1);
}

#[test]
fn batched_advance_does_not_allocate() {
    // The consensus-k8 regime: event-dense, every call draws and patches.
    let config = Configuration::uniform(100_000, 8).unwrap();
    let mut engine =
        BatchedEngine::new(UndecidedStateDynamics::new(8), config, SimSeed::from_u64(1));
    // The first call derives the running sums from the counts.
    assert_eq!(engine.advance(u64::MAX), Advance::Event);
    let allocations = allocations_in(|| {
        for _ in 0..CALLS {
            assert_eq!(engine.advance(u64::MAX), Advance::Event);
        }
    });
    assert_allocation_free("batched", allocations);
}

#[test]
fn batched_voter_advance_does_not_allocate() {
    // The pairwise Voter's decided rows depend on the initiator, so every
    // draw resolves one and asks the protocol for the new state.
    let config = Configuration::from_counts(vec![30_000, 30_000, 20_000, 20_000], 0).unwrap();
    let mut engine = BatchedEngine::new(PairwiseVoter::new(4), config, SimSeed::from_u64(3));
    assert_eq!(engine.advance(u64::MAX), Advance::Event);
    let allocations = allocations_in(|| {
        for _ in 0..CALLS {
            assert_eq!(engine.advance(u64::MAX), Advance::Event);
        }
    });
    assert_allocation_free("batched voter", allocations);
}

#[test]
fn stochastic_hybrid_advance_does_not_allocate() {
    // Thresholds no realizable signal clears: the run stays stochastic, and
    // every call evaluates the detector before it steps.
    let fidelity = FidelityConfig {
        promote_ratio: 1e18,
        demote_ratio: 1e17,
        ..FidelityConfig::default()
    };
    let config = Configuration::uniform(100_000, 8).unwrap();
    let mut engine = HybridEngine::new(config, SimSeed::from_u64(2), fidelity);
    assert_eq!(engine.advance(u64::MAX), Advance::Event);
    let allocations = allocations_in(|| {
        for _ in 0..CALLS {
            assert_eq!(engine.advance(u64::MAX), Advance::Event);
        }
    });
    assert_eq!(engine.switches(), 0, "the run left stochastic fidelity");
    assert_allocation_free("hybrid", allocations);
}
