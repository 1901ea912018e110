//! Per-step import-region exchange between shards.
//!
//! On Anton 2 every node begins a step by importing the positions of the
//! half-shell of atoms surrounding its home box; the corresponding export
//! traffic is what the torus fabric was sized for. The decomposed engine
//! performs the same motion in memory: each step,
//! [`ShardSet::exchange`] refreshes every shard's local position mirror —
//! its *owned* slots plus its planned *import region* — from the driver's
//! wrapped stream positions, leaving all other slots NaN-poisoned. The
//! copy volume is the exact import/export traffic a message-passing
//! implementation would put on the wire, and is recorded as such:
//! `atoms_imported` / `atoms_exported` / `exchange_bytes` counters (global
//! and per shard) plus the [`Phase::Exchange`] wall-clock.
//!
//! The exchange is bookkeeping, not physics: it copies bits, so it cannot
//! perturb the bitwise identity between the decomposed and single-image
//! engines. The import *plan* (who needs which slots) is built once per
//! stream rebuild in `shard.rs`; this module only moves positions along it.

use crate::shard::ShardSet;
use crate::stream::NonbondedStream;
use crate::telemetry::{Phase, Telemetry};

/// Wire size of one imported position (three f64 coordinates).
pub(crate) const BYTES_PER_POSITION: u64 = 24;

impl ShardSet {
    /// Refresh every shard's local position mirror from the stream: owned
    /// slots (the shard's own atoms after the driver's integration) plus
    /// the import region (halo positions owned by other shards). Timed as
    /// [`Phase::Exchange`] and counted on both the global sink and each
    /// shard's own telemetry.
    pub(crate) fn exchange(&mut self, stream: &NonbondedStream, tel: &mut Telemetry) {
        let t0 = tel.start();
        let mut imported = 0u64;
        for shard in &mut self.shards {
            let ts = shard.tel.start();
            for &s in &shard.owned {
                let s = s as usize;
                shard.local_pos[s] = stream.pos[s];
            }
            for &t in &shard.imports {
                let t = t as usize;
                shard.local_pos[t] = stream.pos[t];
            }
            let im = shard.imports.len() as u64;
            shard
                .tel
                .count_exchange(im, shard.exported, im * BYTES_PER_POSITION);
            shard.tel.stop(Phase::Exchange, ts);
            imported += im;
        }
        // Every import is another shard's export, so the global traffic is
        // symmetric by construction.
        tel.count_exchange(imported, imported, imported * BYTES_PER_POSITION);
        tel.stop(Phase::Exchange, t0);
    }
}

#[cfg(test)]
mod tests {
    use crate::builders::water_box;
    use crate::shard::{ShardGrid, ShardSet};
    use crate::stream::NonbondedWorkspace;
    use crate::telemetry::{Telemetry, TelemetryLevel};

    #[test]
    fn exchange_counts_are_symmetric_and_deterministic() {
        let mut s = water_box(6, 6, 6, 7);
        s.nb.cutoff = 5.0;
        s.nb.skin = 1.0;
        s.nb.ewald_alpha = 3.0 / 5.0;
        let mut ws = NonbondedWorkspace::new();
        ws.stream.ensure(&s);
        let mut set = ShardSet::new(ShardGrid::new(2, 2, 1), TelemetryLevel::Counters);
        set.sync(ws.stream());
        let mut tel = Telemetry::new(TelemetryLevel::Counters);
        set.exchange(ws.stream(), &mut tel);
        set.exchange(ws.stream(), &mut tel);
        let c = tel.profile().counters;
        assert!(c.atoms_imported > 0, "2x2x1 shards must import");
        assert_eq!(c.atoms_imported, c.atoms_exported);
        assert_eq!(c.exchange_bytes, 24 * c.atoms_imported);
        assert_eq!(c.atoms_imported % 2, 0, "two identical passes");
        // Per-shard counters cover the global traffic exactly.
        let mut per_shard_imports = 0;
        let mut per_shard_exports = 0;
        for p in set.profiles() {
            per_shard_imports += p.counters.atoms_imported;
            per_shard_exports += p.counters.atoms_exported;
        }
        assert_eq!(per_shard_imports, c.atoms_imported);
        assert_eq!(per_shard_exports, c.atoms_exported);
    }
}
