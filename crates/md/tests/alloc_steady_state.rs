//! Zero-allocation guarantees in steady state: the k-space pipeline alone,
//! and a whole `Engine::step()`.
//!
//! `Gse::energy_forces_with` against a warm `GseWorkspace` must not touch
//! the allocator at all: the density/potential grids, the FFT scratch, and
//! the interpolation chunk buffers are all owned by the workspace and
//! reused across steps. The same holds for an entire engine step between
//! list refreshes — integrator buffers, constraints, thermostat and force
//! pipeline all run out of `StepWorkspace`. The matching guarantee for the
//! short-force path alone lives in `alloc_short_force.rs`.
//!
//! Allocations are counted **per thread**, so the tests of this binary
//! (and the harness thread printing their results) cannot see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use anton2_md::builders::water_box;
use anton2_md::gse::{Gse, GseParams, GseWorkspace};
use anton2_md::prelude::*;

struct CountingAlloc;

thread_local! {
    /// (allocation calls, bytes requested) made by this thread. `const`
    /// initialised and without a destructor, so touching it from inside
    /// the allocator neither allocates nor registers a TLS destructor.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: a thread being torn down may free/allocate after its TLS
    // is gone; those calls belong to no test.
    let _ = COUNT.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// (allocation calls, bytes requested) by the calling thread so far.
fn allocated() -> (u64, u64) {
    COUNT.with(Cell::get)
}

// SAFETY: pure pass-through to the `System` allocator plus a thread-local
// counter update; every GlobalAlloc contract obligation is delegated
// unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds GlobalAlloc's contract for `layout`; the
    // counter update is safe code and System does the rest.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
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
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn kspace_pipeline_allocates_nothing_after_warmup() {
    let s = water_box(6, 6, 6, 1);
    let gse = Gse::new(
        s.nb.ewald_alpha,
        s.pbc,
        GseParams::for_box(s.nb.ewald_alpha, &s.pbc),
    );
    let mut ws = GseWorkspace::for_gse(&gse);
    let mut forces = vec![Vec3::ZERO; s.n_atoms()];

    // Warm-up: first calls size the interpolation chunk buffers.
    let reference = gse.energy_forces_with(
        &s.positions,
        &s.topology.charges,
        &mut forces,
        &mut ws,
        false,
    );

    let (before, _) = allocated();
    let mut energy = 0.0;
    for _ in 0..3 {
        forces.iter_mut().for_each(|f| *f = Vec3::ZERO);
        energy = gse.energy_forces_with(
            &s.positions,
            &s.topology.charges,
            &mut forces,
            &mut ws,
            false,
        );
    }
    let (after, _) = allocated();

    assert_eq!(
        after - before,
        0,
        "k-space pipeline allocated {} times in steady state",
        after - before
    );
    assert_eq!(
        energy.to_bits(),
        reference.to_bits(),
        "reuse changed the result"
    );
}

/// A rigid-water box under the production integrator: SETTLE + Langevin
/// (so the velocity projection runs twice per step), RESPA 2. 3,000 atoms:
/// one position buffer is 72 KB.
fn water_engine(parallelism: Parallelism) -> Engine {
    let mut system = water_box(10, 10, 10, 5);
    system.thermalize(300.0, 6);
    Engine::builder()
        .system(system)
        .dt_fs(1.0)
        .respa(RespaSchedule { kspace_interval: 2 })
        .thermostat(Thermostat::Langevin {
            t_kelvin: 300.0,
            gamma_per_ps: 20.0,
        })
        .use_settle(true)
        .parallelism(parallelism)
        .telemetry(TelemetryLevel::Counters)
        .build()
        .expect("valid configuration")
}

/// Step `engine` until `window` consecutive steps ran without a list
/// refresh; return this thread's (allocation calls, bytes) over exactly
/// those steps.
fn steady_window(engine: &mut Engine, window: u64) -> (u64, u64) {
    // Warm-up: every lazily sized buffer has seen both RESPA step kinds.
    engine.run(4);
    for _ in 0..20 {
        let rebuilds = engine.profile().counters.neighbor_rebuilds;
        let before = allocated();
        for _ in 0..window {
            engine.step();
        }
        let after = allocated();
        if engine.profile().counters.neighbor_rebuilds == rebuilds {
            return (after.0 - before.0, after.1 - before.1);
        }
    }
    panic!("no {window}-step window without a list refresh");
}

#[test]
fn engine_step_allocates_nothing_between_list_refreshes() {
    let mut engine = water_engine(Parallelism::Serial);
    let (calls, bytes) = steady_window(&mut engine, 4);
    assert_eq!(
        (calls, bytes),
        (0, 0),
        "serial Engine::step allocated {calls} times ({bytes} B) over 4 refresh-free steps"
    );

    // The parallel kernels go through the rayon stand-in, whose fork/join
    // bookkeeping allocates by design (a part list and a result list per
    // parallel loop, a thread handle per worker) — O(threads), tens of
    // bytes each. What the step itself must never do is allocate anything
    // that scales with the atom count, so the driver thread's bytes per
    // step have to stay far below one position buffer.
    let mut engine = water_engine(Parallelism::Parallel);
    let n_atoms = engine.system.n_atoms() as u64;
    let (calls, bytes) = steady_window(&mut engine, 4);
    let per_step = bytes / 4;
    assert!(
        per_step < n_atoms * 24 / 4,
        "parallel Engine::step allocated {per_step} B per step ({calls} calls over 4 steps); \
         a position buffer is {} B",
        n_atoms * 24
    );
}
