//! Good fixture: the entry-point function only writes into pre-sized
//! buffers (`resize`/`clear` on warm buffers are no-ops and not flagged);
//! allocation in a non-manifest function is fine, and so is allocation in
//! an alloc-exempt entry point (`NonbondedWorkspace::rebuild_at_epoch`
//! rebuilds plan buffers).

pub fn nonbonded_forces_streamed(rows: &[u32], out: &mut Vec<u32>) -> usize {
    out.clear();
    out.resize(rows.len(), 0);
    for (slot, &r) in out.iter_mut().zip(rows) {
        *slot = r * 2;
    }
    out.len()
}

pub struct NonbondedWorkspace;

impl NonbondedWorkspace {
    pub fn rebuild_at_epoch(rows: &[u32]) -> Vec<u32> {
        // Alloc-exempt entry point (`NonbondedWorkspace::rebuild_at_epoch`):
        // the rebuild path may allocate.
        rows.iter().map(|r| r * 2).collect()
    }
}

pub fn build_stream(rows: &[u32]) -> Vec<u32> {
    // Not on the manifest at all: may allocate.
    rows.iter().map(|r| r * 2).collect()
}
