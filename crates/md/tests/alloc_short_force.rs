//! Zero-allocation guarantee for the full short-force path.
//!
//! The streaming nonbonded kernel against a warm `NonbondedWorkspace`, plus
//! the excluded-pair and 1–4 corrections, must not touch the allocator in
//! steady state: the cell-sorted stream, the baked neighbor list, and the
//! force accumulators are all owned by the workspace and reused across
//! steps. A sibling of `alloc_steady_state.rs` (which covers k-space); each
//! binary holds exactly one test so the counting allocator sees no
//! concurrent noise. The serial path is measured — the rayon shim's thread
//! scope allocates by design, which is why the engine's determinism
//! contract never depends on the parallel path being allocation-free.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use anton2_md::builders::water_box;
use anton2_md::pairkernel::{excluded_corrections, scaled14_corrections};
use anton2_md::stream::{nonbonded_forces_streamed_profiled, NonbondedWorkspace};
use anton2_md::telemetry::Telemetry;
use anton2_md::vec3::Vec3;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator plus a relaxed atomic
// increment; every GlobalAlloc contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract for `layout`; the
    // counter increment is safe code and System does the rest.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `ptr` was produced by `System.alloc` above with the same
    // `layout`, per the caller's GlobalAlloc contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: delegated verbatim; the caller's contract on `ptr`, `layout`,
    // and `new_size` is exactly System's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn short_force_path_allocates_nothing_after_warmup() {
    // 31 Å box → the cell-grid stream path, with real water exclusions.
    let s = water_box(10, 10, 10, 1);
    let table = s.pair_table();
    let mut ws = NonbondedWorkspace::new();
    let mut forces = vec![Vec3::ZERO; s.n_atoms()];

    // Warm-up: builds the stream and sizes every buffer. Running through
    // the *instrumented* entry point with a disabled sink proves that the
    // telemetry layer at `TelemetryLevel::Off` adds no allocations (the
    // sink itself is constructed allocation-free, too).
    let run = |ws: &mut NonbondedWorkspace, forces: &mut Vec<Vec3>| {
        let mut tel = Telemetry::off();
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        let e = nonbonded_forces_streamed_profiled(&s, &table, ws, forces, false, &mut tel);
        let (e_excl, _) = excluded_corrections(&s, table.coulomb(), forces);
        let (lj14, coul14, _, _) = scaled14_corrections(&s, forces);
        assert_eq!(tel.profile().total_ns(), 0);
        assert_eq!(tel.profile().counters.pairs_evaluated, 0);
        e.total() + e_excl + lj14 + coul14
    };
    let reference = run(&mut ws, &mut forces);

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut energy = 0.0;
    for _ in 0..3 {
        energy = run(&mut ws, &mut forces);
    }
    let after = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "short-force path allocated {} times in steady state",
        after - before
    );
    assert_eq!(
        energy.to_bits(),
        reference.to_bits(),
        "reuse changed the result"
    );
}
