//! The whole-machine timing simulator.
//!
//! Executes a [`StepPlan`] on a configured machine,
//! producing per-step wall time and a phase breakdown. Two execution
//! policies implement the paper's central comparison:
//!
//! * **Event-driven** (Anton 2): every task launches when its inputs
//!   arrive — HTIS consumes import batches as individual messages land,
//!   k-space stages fire per-rank off message counters, and no global
//!   barrier exists anywhere in the step. Computation overlaps
//!   communication naturally.
//! * **Bulk-synchronous** (Anton 1 style): the same physical work, but
//!   phases are separated by global barriers and compute within a phase
//!   starts only after *all* communication of the previous phase has
//!   completed everywhere.

// Indexed loops below walk several parallel per-node arrays in lockstep;
// iterator zips would obscure which node each access refers to.
#![allow(clippy::needless_range_loop)]

use crate::config::{ExecPolicy, MachineConfig};
use crate::plan::StepPlan;
use anton2_asic::{htis_batch_time, parallel_time, Node, WorkKind};
use anton2_des::SimTime;
use anton2_net::{Delivery, Network, NodeId};

/// Wall-clock breakdown of one step (maxima over nodes, so components can
/// overlap and need not sum to the step time — the gap *is* the overlap).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Import (position) communication span.
    pub import_comm: SimTime,
    /// HTIS busy time (max over nodes).
    pub htis: SimTime,
    /// Bonded-force busy time (max over nodes).
    pub bonded: SimTime,
    /// Full k-space pipeline span (spread → FFTs → interpolation).
    pub kspace: SimTime,
    /// Integration + constraints busy time (max over nodes).
    pub integrate: SimTime,
    /// Total barrier cost (bulk-synchronous mode only).
    pub barriers: SimTime,
}

/// Result of simulating one step.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Wall time of the step: `max(next_ready) − min(ready)`.
    pub step_time: SimTime,
    pub breakdown: PhaseBreakdown,
    /// Mean over nodes of (busy time / step time): how well compute hides
    /// communication. The paper's "overlap" improvement shows up here.
    pub compute_utilization: f64,
    /// When each node can begin the next step.
    pub next_ready: Vec<SimTime>,
}

/// How the machine reacts to unrecoverable network faults (exhausted
/// retry budgets, dead endpoint nodes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultPolicy {
    /// Panic on an unrecoverable fault — the pre-recovery behavior, right
    /// for experiments that assume a healthy fabric (any panic is a bug in
    /// the experiment, not a timing result).
    #[default]
    Strict,
    /// Degrade gracefully: an abandoned message counts as a
    /// `msg_drops` fault, its consumer proceeds at the injection-time
    /// fallback, and the run continues so recovery can replan. Multicast
    /// trees that fail as a whole are salvaged per destination.
    Degrade,
}

/// The assembled machine.
pub struct Machine {
    pub cfg: MachineConfig,
    pub nodes: Vec<Node>,
    pub net: Network,
    /// Reaction to unrecoverable network faults (default [`FaultPolicy::Strict`]).
    pub fault_policy: FaultPolicy,
    /// The unicast batch of the phase being simulated, `(inject time, src,
    /// dst, bytes)` per message, and — after [`Machine::deliver_batch`] —
    /// its tail-arrival times in the same order. One pair of buffers serves
    /// every phase of every step.
    batch: Vec<(SimTime, NodeId, NodeId, u32)>,
    arrivals: Vec<SimTime>,
}

impl Machine {
    pub fn new(cfg: MachineConfig) -> Self {
        let nodes = (0..cfg.n_nodes()).map(|i| Node::new(i, cfg.node)).collect();
        let net = Network::new(cfg.torus, cfg.link).with_policy(cfg.routing);
        Machine {
            cfg,
            nodes,
            net,
            fault_policy: FaultPolicy::Strict,
            batch: Vec::new(),
            arrivals: Vec::new(),
        }
    }

    /// Same machine with a different [`FaultPolicy`].
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Run `self.batch` under the machine's fault policy, leaving the
    /// arrival times in `self.arrivals`. In `Strict` mode unrecoverable
    /// faults panic; in `Degrade` mode the message is abandoned (counted as
    /// a drop) and its consumer proceeds at the injection-time fallback, so
    /// the step — and the run — completes.
    fn deliver_batch(&mut self) {
        let inj = SimTime::from_ns_f64(self.cfg.link.injection_ns);
        let results = self.net.try_run_batch(&self.batch);
        self.arrivals.clear();
        for (&(at, _, _, _), r) in self.batch.iter().zip(results) {
            self.arrivals.push(match (r, self.fault_policy) {
                (Ok(t), _) => t,
                (Err(_), FaultPolicy::Degrade) => {
                    self.net.faults.msg_drops += 1;
                    at + inj
                }
                (Err(e), FaultPolicy::Strict) => {
                    panic!("unrecoverable network fault under FaultPolicy::Strict: {e}")
                }
            });
        }
    }

    /// The delivered batch: each message's destination and arrival time.
    fn delivered(&self) -> impl Iterator<Item = (NodeId, SimTime)> + '_ {
        self.batch
            .iter()
            .zip(&self.arrivals)
            .map(|(&(_, _, dst, _), &at)| (dst, at))
    }

    /// [`Network::multicast`] under the machine's fault policy. A tree
    /// that fails as a whole in `Degrade` mode is salvaged per
    /// destination; unreachable destinations are dropped (and counted).
    fn deliver_multicast(
        &mut self,
        now: SimTime,
        src: NodeId,
        dsts: &[NodeId],
        bytes: u32,
    ) -> Vec<Delivery> {
        match self.fault_policy {
            FaultPolicy::Strict => self.net.multicast(now, src, dsts, bytes),
            FaultPolicy::Degrade => match self.net.try_multicast(now, src, dsts, bytes) {
                Ok(d) => d,
                Err(_) => {
                    let mut out = Vec::with_capacity(dsts.len());
                    for &dst in dsts {
                        match self.net.try_transmit(now, src, dst, bytes) {
                            Ok(at) => out.push(Delivery { node: dst, at }),
                            Err(_) => self.net.faults.msg_drops += 1,
                        }
                    }
                    out
                }
            },
        }
    }

    /// Simulate one timestep from per-node ready times. `kspace` selects
    /// whether this is an outer (long-range) step under RESPA.
    pub fn simulate_step(
        &mut self,
        plan: &StepPlan,
        kspace: bool,
        ready: &[SimTime],
    ) -> StepResult {
        match self.cfg.exec {
            ExecPolicy::EventDriven => self.step_event_driven(plan, kspace, ready),
            ExecPolicy::BulkSynchronous => self.step_bulk_synchronous(plan, kspace, ready),
        }
    }

    fn dispatch(&self) -> SimTime {
        SimTime::from_ns_f64(self.cfg.node.dispatch_latency_ns)
    }

    /// Cost of one global barrier on this machine's sync network: a
    /// round trip across the torus diameter (both Anton generations have
    /// hardware-assisted global synchronization; what differs is how often
    /// the execution model *needs* it).
    fn barrier_cost(&self) -> SimTime {
        SimTime::from_ns_f64(
            2.0 * (self.cfg.torus.diameter() as f64 * self.cfg.link.hop_latency_ns
                + self.cfg.link.injection_ns),
        )
    }

    // ------------------------------------------------------------------
    // Event-driven (Anton 2)
    // ------------------------------------------------------------------
    fn step_event_driven(
        &mut self,
        plan: &StepPlan,
        kspace: bool,
        ready: &[SimTime],
    ) -> StepResult {
        let n = self.nodes.len();
        assert_eq!(ready.len(), n);
        let disp = self.dispatch();
        let t_begin = ready.iter().copied().min().unwrap_or(SimTime::ZERO);
        let mut busy = vec![SimTime::ZERO; n];
        let track = |busy: &mut Vec<SimTime>, i: usize, dur: SimTime| {
            busy[i] += dur;
        };

        // --- Position exports ---
        let mut import_arrivals: Vec<Vec<SimTime>> = vec![Vec::new(); n];
        if plan.comm.import_multicast {
            // Hardware multicast trees (causal order by ready time).
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| (ready[i], i));
            for &i in &order {
                let dsts = &plan.comm.import_dsts[i];
                if dsts.is_empty() {
                    continue;
                }
                for d in
                    self.deliver_multicast(ready[i], i as NodeId, dsts, plan.comm.import_bytes[i])
                {
                    import_arrivals[d.node as usize].push(d.at);
                }
            }
        } else {
            self.batch.clear();
            for i in 0..n {
                for &dst in &plan.comm.import_dsts[i] {
                    self.batch
                        .push((ready[i], i as NodeId, dst, plan.comm.import_bytes[i]));
                }
            }
            self.deliver_batch();
            for (dst, at) in self.delivered() {
                import_arrivals[dst as usize].push(at);
            }
        }
        let import_comm = import_arrivals
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(t_begin)
            .saturating_sub(t_begin);

        // --- HTIS: one batch per arriving message, plus the local batch ---
        let mut htis_done = vec![SimTime::ZERO; n];
        for i in 0..n {
            let w = &plan.work[i];
            let arrivals = &mut import_arrivals[i];
            arrivals.sort_unstable();
            let total_atoms = w.owned_atoms + w.imported_atoms;
            let own_pairs = (w.pair_interactions * w.owned_atoms)
                .checked_div(total_atoms)
                .unwrap_or(0);
            let import_pairs = w.pair_interactions - own_pairs;
            let per_msg_pairs = if arrivals.is_empty() {
                0
            } else {
                import_pairs / arrivals.len() as u64
            };
            let per_msg_atoms = if arrivals.is_empty() {
                0
            } else {
                w.imported_atoms / arrivals.len() as u64
            };
            let mut free = ready[i];
            // Local batch first (pays pipeline fill); import batches stream
            // through already-primed pipelines.
            let start = (ready[i] + disp).max(free);
            let dur = htis_batch_time(&self.cfg.node, w.owned_atoms, own_pairs);
            track(&mut busy, i, dur);
            free = start + dur;
            for (k, &at) in arrivals.iter().enumerate() {
                let pairs = if k + 1 == arrivals.len() {
                    import_pairs - per_msg_pairs * k as u64
                } else {
                    per_msg_pairs
                };
                let start = (at + disp).max(free);
                let dur = anton2_asic::htis::htis_steady_time(&self.cfg.node, per_msg_atoms, pairs);
                track(&mut busy, i, dur);
                free = start + dur;
            }
            htis_done[i] = free;
        }
        let htis_busy_max = busy.iter().copied().max().unwrap_or(SimTime::ZERO);

        // --- Flexible subsystem pipeline ---
        let mut flex_free = ready.to_vec();
        let mut bonded_done = vec![SimTime::ZERO; n];
        let mut bonded_max = SimTime::ZERO;
        for i in 0..n {
            let dur = parallel_time(&self.cfg.node, WorkKind::Bonded, plan.work[i].bonded_terms);
            let start = (ready[i] + disp).max(flex_free[i]);
            flex_free[i] = start + dur;
            bonded_done[i] = flex_free[i];
            track(&mut busy, i, dur);
            if dur > bonded_max {
                bonded_max = dur;
            }
        }

        let (interp_done, kspace_span) = if kspace {
            self.kspace_pipeline(plan, ready, &mut flex_free, &mut busy, disp, false)
        } else {
            (ready.to_vec(), SimTime::ZERO)
        };

        // --- Force returns (sent when HTIS finishes) ---
        let mut force_arrivals: Vec<SimTime> = vec![t_begin; n];
        self.batch.clear();
        for i in 0..n {
            for &(dst, bytes) in &plan.comm.force_returns[i] {
                self.batch.push((htis_done[i], i as NodeId, dst, bytes));
            }
        }
        self.deliver_batch();
        for (dst, at) in self.delivered() {
            if at > force_arrivals[dst as usize] {
                force_arrivals[dst as usize] = at;
            }
        }

        // --- Integration + constraints ---
        let mut next_ready = vec![SimTime::ZERO; n];
        let mut integrate_max = SimTime::ZERO;
        for i in 0..n {
            let deps = htis_done[i]
                .max(bonded_done[i])
                .max(force_arrivals[i])
                .max(if kspace {
                    interp_done[i]
                } else {
                    SimTime::ZERO
                });
            let start = (deps + disp).max(flex_free[i]);
            let d1 = parallel_time(
                &self.cfg.node,
                WorkKind::Integration,
                plan.work[i].integrate_atoms,
            );
            let d2 = parallel_time(
                &self.cfg.node,
                WorkKind::Constraints,
                plan.work[i].constraints,
            );
            track(&mut busy, i, d1 + d2);
            if d1 + d2 > integrate_max {
                integrate_max = d1 + d2;
            }
            flex_free[i] = start + d1 + d2;
            next_ready[i] = flex_free[i] + disp;
        }

        // Atom handoff to face neighbors after integration; the receiving
        // node cannot start its next step until migrants arrive.
        self.batch.clear();
        for i in 0..n {
            for &(dst, bytes) in &plan.comm.migrations[i] {
                self.batch.push((next_ready[i], i as NodeId, dst, bytes));
            }
        }
        self.deliver_batch();
        for (dst, at) in self.delivered() {
            if at > next_ready[dst as usize] {
                next_ready[dst as usize] = at;
            }
        }

        let t_end = next_ready.iter().copied().max().unwrap_or(t_begin);
        let step_time = t_end.saturating_sub(t_begin);
        // Fraction of engine capacity busy: each node has two engines
        // (HTIS + flexible subsystem) that can run concurrently.
        let util = if step_time.as_ps() == 0 {
            0.0
        } else {
            busy.iter().map(|b| b.as_ps() as f64).sum::<f64>()
                / (2.0 * n as f64 * step_time.as_ps() as f64)
        };
        StepResult {
            step_time,
            breakdown: PhaseBreakdown {
                import_comm,
                htis: htis_busy_max,
                bonded: bonded_max,
                kspace: kspace_span,
                integrate: integrate_max,
                barriers: SimTime::ZERO,
            },
            compute_utilization: util,
            next_ready,
        }
    }

    /// The k-space pipeline (spread → fwd FFT ×3 with transposes →
    /// influence → inverse FFT ×3 → grid return → interpolation). Returns
    /// per-node interpolation completion and the pipeline's wall span.
    ///
    /// In `bsp` mode, every stage is preceded by a global barrier over the
    /// participating nodes.
    #[allow(clippy::too_many_arguments)]
    fn kspace_pipeline(
        &mut self,
        plan: &StepPlan,
        ready: &[SimTime],
        flex_free: &mut [SimTime],
        busy: &mut Vec<SimTime>,
        disp: SimTime,
        bsp: bool,
    ) -> (Vec<SimTime>, SimTime) {
        let n = self.nodes.len();
        let ranks = plan.pencil.ranks() as usize;
        let span_start = ready.iter().copied().min().unwrap_or(SimTime::ZERO);

        // Spread on every node, then ship contributions to rank hosts.
        let mut spread_done = vec![SimTime::ZERO; n];
        for i in 0..n {
            let dur = parallel_time(
                &self.cfg.node,
                WorkKind::GridPoints,
                plan.work[i].spread_points,
            );
            let start = (ready[i] + disp).max(flex_free[i]);
            flex_free[i] = start + dur;
            spread_done[i] = flex_free[i];
            busy[i] += dur;
        }
        let bar = self.barrier_cost();
        let sync = |times: &mut Vec<SimTime>, on: bool| {
            if on {
                let t = times.iter().copied().max().unwrap_or(SimTime::ZERO) + bar;
                for v in times.iter_mut() {
                    *v = t;
                }
            }
        };
        sync(&mut spread_done, bsp);

        let mut rank_ready = vec![SimTime::ZERO; ranks];
        self.batch.clear();
        for i in 0..n {
            for &(dst, bytes) in &plan.comm.spread_msgs[i] {
                self.batch.push((spread_done[i], i as NodeId, dst, bytes));
            }
            // A rank host's own contribution is ready locally.
            if let Some(r) = plan.pencil.rank_of(i as u32) {
                rank_ready[r as usize] = rank_ready[r as usize].max(spread_done[i]);
            }
        }
        self.deliver_batch();
        for (dst, at) in self.delivered() {
            let r = plan
                .pencil
                .rank_of(dst)
                .expect("spread target hosts a rank") as usize;
            rank_ready[r] = rank_ready[r].max(at);
        }

        // Six 1D FFT stages with four transpose phases + influence multiply.
        let mut stage_done = rank_ready;
        let fft_stage = |mach: &mut Machine,
                         flex_free: &mut [SimTime],
                         busy: &mut Vec<SimTime>,
                         stage_done: &mut Vec<SimTime>| {
            for (r, t) in stage_done.iter_mut().enumerate() {
                let host = plan.pencil.node_of(r as u32) as usize;
                let dur = parallel_time(
                    &mach.cfg.node,
                    WorkKind::FftButterflies,
                    plan.butterflies_per_rank,
                );
                let start = (*t + disp).max(flex_free[host]);
                flex_free[host] = start + dur;
                busy[host] += dur;
                *t = flex_free[host];
            }
        };
        let transpose = |mach: &mut Machine, phase: usize, stage_done: &mut Vec<SimTime>| {
            // Every send time is read before any arrival is folded in.
            mach.batch.clear();
            for &(src, dst, bytes) in &plan.comm.fft_transposes[phase] {
                let sr = plan.pencil.rank_of(src).unwrap() as usize;
                mach.batch.push((stage_done[sr], src, dst, bytes));
            }
            mach.deliver_batch();
            for (dst, at) in mach.delivered() {
                let dr = plan.pencil.rank_of(dst).unwrap() as usize;
                stage_done[dr] = stage_done[dr].max(at);
            }
        };

        // Forward: z-stage, transpose, y-stage, transpose, x-stage.
        // In BSP mode, barriers surround the *communication* phases (real
        // coarse-grained codes do not barrier inside local FFT stages).
        sync(&mut stage_done, bsp);
        fft_stage(self, flex_free, busy, &mut stage_done);
        transpose(self, 0, &mut stage_done);
        sync(&mut stage_done, bsp);
        fft_stage(self, flex_free, busy, &mut stage_done);
        transpose(self, 1, &mut stage_done);
        sync(&mut stage_done, bsp);
        fft_stage(self, flex_free, busy, &mut stage_done);

        // Influence multiply on each rank.
        for (r, t) in stage_done.iter_mut().enumerate() {
            let host = plan.pencil.node_of(r as u32) as usize;
            let dur = parallel_time(
                &self.cfg.node,
                WorkKind::GridPoints,
                plan.influence_points_per_rank,
            );
            let start = (*t + disp).max(flex_free[host]);
            flex_free[host] = start + dur;
            busy[host] += dur;
            *t = flex_free[host];
        }

        // Inverse: x-stage, transpose, y-stage, transpose, z-stage.
        fft_stage(self, flex_free, busy, &mut stage_done);
        transpose(self, 2, &mut stage_done);
        sync(&mut stage_done, bsp);
        fft_stage(self, flex_free, busy, &mut stage_done);
        transpose(self, 3, &mut stage_done);
        sync(&mut stage_done, bsp);
        fft_stage(self, flex_free, busy, &mut stage_done);

        // Grid returns to contributing nodes.
        let mut grid_back = vec![SimTime::ZERO; n];
        self.batch.clear();
        for (r, msgs) in plan.comm.grid_returns.iter().enumerate() {
            let host = plan.pencil.node_of(r as u32);
            for &(dst, bytes) in msgs {
                self.batch.push((stage_done[r], host, dst, bytes));
            }
            // Host keeps its own part.
            grid_back[host as usize] = grid_back[host as usize].max(stage_done[r]);
        }
        self.deliver_batch();
        for (dst, at) in self.delivered() {
            grid_back[dst as usize] = grid_back[dst as usize].max(at);
        }
        sync(&mut grid_back, bsp);

        // Interpolation on every node.
        let mut interp_done = vec![SimTime::ZERO; n];
        for i in 0..n {
            let dur = parallel_time(
                &self.cfg.node,
                WorkKind::GridPoints,
                plan.work[i].interp_points,
            );
            let start = (grid_back[i] + disp).max(flex_free[i]);
            flex_free[i] = start + dur;
            interp_done[i] = flex_free[i];
            busy[i] += dur;
        }
        let span_end = interp_done.iter().copied().max().unwrap_or(span_start);
        (interp_done, span_end.saturating_sub(span_start))
    }

    // ------------------------------------------------------------------
    // Bulk-synchronous (Anton 1 style)
    // ------------------------------------------------------------------
    fn step_bulk_synchronous(
        &mut self,
        plan: &StepPlan,
        kspace: bool,
        ready: &[SimTime],
    ) -> StepResult {
        let n = self.nodes.len();
        let disp = self.dispatch();
        let t_begin = ready.iter().copied().min().unwrap_or(SimTime::ZERO);
        let mut busy = vec![SimTime::ZERO; n];
        let mut barrier_total = SimTime::ZERO;
        let bar = self.barrier_cost();
        let mut global_sync = |t: SimTime| -> SimTime {
            barrier_total += bar;
            t + bar
        };

        // Phase 1: everyone starts together; positions exchanged; barrier.
        let t0 = global_sync(ready.iter().copied().max().unwrap_or(t_begin));
        let mut last_arrival = t0;
        for i in 0..n {
            let dsts = &plan.comm.import_dsts[i];
            if dsts.is_empty() {
                continue;
            }
            if plan.comm.import_multicast {
                for d in self.deliver_multicast(t0, i as NodeId, dsts, plan.comm.import_bytes[i]) {
                    last_arrival = last_arrival.max(d.at);
                }
            } else {
                self.batch.clear();
                self.batch.extend(
                    dsts.iter()
                        .map(|&dst| (t0, i as NodeId, dst, plan.comm.import_bytes[i])),
                );
                self.deliver_batch();
                for &at in &self.arrivals {
                    last_arrival = last_arrival.max(at);
                }
            }
        }
        let t1 = global_sync(last_arrival);
        let import_comm = last_arrival.saturating_sub(t0);

        // Phase 2: HTIS (single batch) + bonded, both from t1.
        let mut phase_end = t1;
        let mut htis_done = vec![SimTime::ZERO; n];
        let mut htis_max = SimTime::ZERO;
        let mut bonded_max = SimTime::ZERO;
        for i in 0..n {
            let w = &plan.work[i];
            let htis_dur = htis_batch_time(
                &self.cfg.node,
                w.owned_atoms + w.imported_atoms,
                w.pair_interactions,
            );
            let bonded_dur = parallel_time(&self.cfg.node, WorkKind::Bonded, w.bonded_terms);
            busy[i] += htis_dur + bonded_dur;
            htis_done[i] = t1 + disp + htis_dur;
            htis_max = htis_max.max(htis_dur);
            bonded_max = bonded_max.max(bonded_dur);
            phase_end = phase_end.max(htis_done[i]).max(t1 + disp + bonded_dur);
        }
        let t2 = global_sync(phase_end);

        // Phase 3 (outer steps): the k-space pipeline with barriers between
        // every stage.
        let (interp_done, kspace_span, t3) = if kspace {
            let start = vec![t2; n];
            let mut flex_free = vec![t2; n];
            let (done, span) =
                self.kspace_pipeline(plan, &start, &mut flex_free, &mut busy, disp, true);
            let m = done.iter().copied().max().unwrap_or(t2);
            // Barrier costs inside the pipeline are not separately tracked
            // by `global_sync`; approximate their contribution as already
            // included in the span.
            let t3 = global_sync(m);
            (done, span, t3)
        } else {
            (vec![t2; n], SimTime::ZERO, t2)
        };
        let _ = interp_done;

        // Phase 4: force returns; barrier.
        let mut last_force = t3;
        self.batch.clear();
        for i in 0..n {
            for &(dst, bytes) in &plan.comm.force_returns[i] {
                self.batch.push((t3, i as NodeId, dst, bytes));
            }
        }
        self.deliver_batch();
        for &at in &self.arrivals {
            last_force = last_force.max(at);
        }
        let t4 = global_sync(last_force);

        // Phase 5: integrate + constraints; barrier ends the step.
        let mut integrate_max = SimTime::ZERO;
        let mut phase_end = t4;
        for i in 0..n {
            let d1 = parallel_time(
                &self.cfg.node,
                WorkKind::Integration,
                plan.work[i].integrate_atoms,
            );
            let d2 = parallel_time(
                &self.cfg.node,
                WorkKind::Constraints,
                plan.work[i].constraints,
            );
            busy[i] += d1 + d2;
            integrate_max = integrate_max.max(d1 + d2);
            phase_end = phase_end.max(t4 + disp + d1 + d2);
        }
        self.batch.clear();
        for i in 0..n {
            for &(dst, bytes) in &plan.comm.migrations[i] {
                self.batch.push((phase_end, i as NodeId, dst, bytes));
            }
        }
        self.deliver_batch();
        for &at in &self.arrivals {
            phase_end = phase_end.max(at);
        }
        let t5 = global_sync(phase_end);

        let step_time = t5.saturating_sub(t_begin);
        // Fraction of engine capacity busy: each node has two engines
        // (HTIS + flexible subsystem) that can run concurrently.
        let util = if step_time.as_ps() == 0 {
            0.0
        } else {
            busy.iter().map(|b| b.as_ps() as f64).sum::<f64>()
                / (2.0 * n as f64 * step_time.as_ps() as f64)
        };
        StepResult {
            step_time,
            breakdown: PhaseBreakdown {
                import_comm,
                htis: htis_max,
                bonded: bonded_max,
                kspace: kspace_span,
                integrate: integrate_max,
                barriers: barrier_total,
            },
            compute_utilization: util,
            next_ready: vec![t5; n],
        }
    }

    /// Simulate a RESPA cycle of `interval` steps (the first carries the
    /// k-space work) and return the average per-step time plus the outer
    /// step's result for breakdown reporting.
    pub fn simulate_respa_cycle(
        &mut self,
        plan: &StepPlan,
        interval: u32,
    ) -> (SimTime, StepResult) {
        assert!(interval >= 1);
        if self.cfg.exec == ExecPolicy::EventDriven && interval > 1 {
            return self.simulate_respa_cycle_overlapped(plan, interval);
        }
        let n = self.nodes.len();
        let mut ready = vec![SimTime::ZERO; n];
        let outer = self.simulate_step(plan, true, &ready);
        ready = outer.next_ready.clone();
        let mut total = outer.step_time;
        for _ in 1..interval {
            let inner = self.simulate_step(plan, false, &ready);
            ready = inner.next_ready.clone();
            total += inner.step_time;
        }
        (SimTime::from_ps(total.as_ps() / interval as u64), outer)
    }

    /// Event-driven RESPA cycle with Anton's signature software
    /// optimization: the k-space pipeline for the *next* outer boundary is
    /// launched at the start of the cycle and runs concurrently with the
    /// inner (range-limited-only) steps — the impulse is only needed
    /// `interval` steps later, so its latency hides behind inner-step work.
    /// Only the fine-grained event-driven machine can express this; the
    /// bulk-synchronous machine serializes the pipeline into its outer step.
    ///
    /// Flexible-subsystem contention between the pipeline and the inner
    /// steps is neglected (the per-node k-space compute is a few hundred
    /// ns against multi-µs communication spans); the pipeline's busy time
    /// is still charged to node utilization.
    fn simulate_respa_cycle_overlapped(
        &mut self,
        plan: &StepPlan,
        interval: u32,
    ) -> (SimTime, StepResult) {
        let n = self.nodes.len();
        let disp = self.dispatch();
        let ready0 = vec![SimTime::ZERO; n];
        let mut flex_free = ready0.clone();
        let mut kspace_busy = vec![SimTime::ZERO; n];
        let (interp_done, span) =
            self.kspace_pipeline(plan, &ready0, &mut flex_free, &mut kspace_busy, disp, false);

        let mut ready = ready0;
        let mut first_inner: Option<StepResult> = None;
        for _ in 0..interval {
            let r = self.step_event_driven(plan, false, &ready);
            ready = r.next_ready.clone();
            if first_inner.is_none() {
                first_inner = Some(r);
            }
        }
        // The next cycle begins once both the inner steps and the k-space
        // impulse are in hand.
        for (r, k) in ready.iter_mut().zip(&interp_done) {
            *r = (*r).max(*k);
        }
        let cycle_end = ready.iter().copied().max().unwrap_or(SimTime::ZERO);
        let avg = SimTime::from_ps(cycle_end.as_ps() / interval as u64);

        let inner = first_inner.expect("interval >= 1");
        let total_kspace_busy: u64 = kspace_busy.iter().map(|b| b.as_ps()).sum();
        let util = if cycle_end.as_ps() == 0 {
            0.0
        } else {
            // Inner-step utilization plus the overlapped pipeline's busy
            // time spread over the cycle (two engines per node).
            inner.compute_utilization
                + total_kspace_busy as f64 / (2.0 * n as f64 * cycle_end.as_ps() as f64)
        };
        let outer = StepResult {
            step_time: cycle_end,
            breakdown: PhaseBreakdown {
                kspace: span,
                ..inner.breakdown
            },
            compute_utilization: util.min(1.0),
            next_ready: ready,
        };
        (avg, outer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StepPlan;
    use anton2_md::builders::water_box;

    fn setup(nodes: u32) -> (Machine, StepPlan) {
        let s = water_box(8, 8, 8, 1);
        let cfg = MachineConfig::anton2(nodes);
        let plan = StepPlan::build(&s, &cfg);
        (Machine::new(cfg), plan)
    }

    #[test]
    fn step_completes_with_positive_time() {
        let (mut m, plan) = setup(8);
        let ready = vec![SimTime::ZERO; 8];
        let r = m.simulate_step(&plan, true, &ready);
        assert!(r.step_time > SimTime::ZERO);
        assert_eq!(r.next_ready.len(), 8);
        assert!(r.compute_utilization > 0.0 && r.compute_utilization <= 1.0);
    }

    #[test]
    fn kspace_steps_cost_more_than_inner_steps() {
        let (mut m, plan) = setup(8);
        let ready = vec![SimTime::ZERO; 8];
        let outer = m.simulate_step(&plan, true, &ready);
        let mut m2 = Machine::new(MachineConfig::anton2(8));
        let inner = m2.simulate_step(&plan, false, &ready);
        assert!(outer.step_time > inner.step_time);
        assert!(outer.breakdown.kspace > SimTime::ZERO);
        assert_eq!(inner.breakdown.kspace, SimTime::ZERO);
    }

    #[test]
    fn event_driven_beats_bulk_synchronous() {
        let s = water_box(8, 8, 8, 1);
        let cfg_ed = MachineConfig::anton2(64);
        let cfg_bsp = MachineConfig::anton2(64).with_exec(ExecPolicy::BulkSynchronous);
        let plan_ed = StepPlan::build(&s, &cfg_ed);
        let plan_bsp = StepPlan::build(&s, &cfg_bsp);
        let ready = vec![SimTime::ZERO; 64];
        let ed = Machine::new(cfg_ed).simulate_step(&plan_ed, true, &ready);
        let bsp = Machine::new(cfg_bsp).simulate_step(&plan_bsp, true, &ready);
        assert!(
            bsp.step_time > ed.step_time,
            "BSP {} should exceed ED {}",
            bsp.step_time,
            ed.step_time
        );
        assert!(bsp.breakdown.barriers > SimTime::ZERO);
        assert!(ed.compute_utilization > bsp.compute_utilization);
    }

    #[test]
    fn respa_cycle_average_below_outer_step() {
        let (mut m, plan) = setup(8);
        let (avg, outer) = m.simulate_respa_cycle(&plan, 3);
        assert!(avg < outer.step_time);
        assert!(avg > SimTime::ZERO);
    }

    #[test]
    fn single_node_machine_works() {
        let (mut m, plan) = setup(1);
        let r = m.simulate_step(&plan, true, &[SimTime::ZERO]);
        assert!(r.step_time > SimTime::ZERO);
        // No import communication on one node.
        assert_eq!(r.breakdown.import_comm, SimTime::ZERO);
    }

    #[test]
    fn more_nodes_faster_steps_at_fixed_system() {
        let s = water_box(10, 10, 10, 2);
        let t = |nodes: u32| {
            let cfg = MachineConfig::anton2(nodes);
            let plan = StepPlan::build(&s, &cfg);
            let mut m = Machine::new(cfg);
            let (avg, _) = m.simulate_respa_cycle(&plan, 2);
            avg
        };
        let t8 = t(8);
        let t64 = t(64);
        assert!(t64 < t8, "64 nodes {t64} should beat 8 nodes {t8}");
    }

    #[test]
    fn deterministic_timing() {
        let run = || {
            let (mut m, plan) = setup(8);
            let (avg, _) = m.simulate_respa_cycle(&plan, 2);
            avg.as_ps()
        };
        assert_eq!(run(), run());
    }

    /// Simulated times are a contract: the event queue, the batch loop and
    /// the route storage may change, the picoseconds may not. Values captured
    /// at commit e5b3197 (heap-driven queue, per-message route vectors).
    #[test]
    fn step_times_are_pinned_to_the_picosecond() {
        use anton2_net::FaultPlan;
        let s = water_box(8, 8, 8, 1);
        let ed = MachineConfig::anton2(64);
        let bsp = MachineConfig::anton2(64).with_exec(ExecPolicy::BulkSynchronous);
        let lossy = || {
            FaultPlan::new(1)
                .with_crc_rate(0.05)
                .with_stall_rate(0.02, SimTime::from_ns(60))
        };
        // (config, fault plan, outer step, RESPA-2 average, RESPA-2 cycle,
        //  retransmissions, stalls)
        let golden = [
            (ed, None, 2_298_645, 1_623_788, 3_247_577, 0, 0),
            (bsp, None, 8_707_291, 5_997_305, 8_707_291, 0, 0),
            (ed, Some(lossy()), 4_073_195, 2_993_578, 5_987_157, 898, 337),
        ];
        for (cfg, fault, step_ps, avg_ps, cycle_ps, retransmits, stalls) in golden {
            let plan = StepPlan::build(&s, &cfg);
            let mut m = Machine::new(cfg);
            m.net.fault = fault.clone();
            let outer = m.simulate_step(&plan, true, &[SimTime::ZERO; 64]);
            assert_eq!(outer.step_time.as_ps(), step_ps, "{:?} step", cfg.exec);
            let mut m = Machine::new(cfg);
            m.net.fault = fault;
            let (avg, cycle) = m.simulate_respa_cycle(&plan, 2);
            assert_eq!(avg.as_ps(), avg_ps, "{:?} RESPA average", cfg.exec);
            assert_eq!(cycle.step_time.as_ps(), cycle_ps, "{:?} cycle", cfg.exec);
            assert_eq!(m.net.faults.link_retransmits, retransmits);
            assert_eq!(m.net.faults.link_stalls, stalls);
        }
    }

    #[test]
    fn degrade_policy_survives_a_dead_node() {
        let (mut m, plan) = setup(8);
        m.fault_policy = FaultPolicy::Degrade;
        m.net.fault = Some(anton2_net::FaultPlan::new(11).kill_node(5));
        let ready = vec![SimTime::ZERO; 8];
        let r = m.simulate_step(&plan, true, &ready);
        assert!(r.step_time > SimTime::ZERO, "the step completes");
        assert!(
            m.net.faults.msg_drops > 0 || m.net.faults.node_drops > 0,
            "traffic into the dead node must register somewhere"
        );
        // The dead node is now in the observed health map, ready to drive
        // a replan.
        assert!(m.net.health.node_dead(5));
    }

    #[test]
    fn degrade_policy_is_invisible_on_a_healthy_fabric() {
        let (mut strict, plan) = setup(8);
        let (mut degrade, _) = setup(8);
        degrade.fault_policy = FaultPolicy::Degrade;
        let ready = vec![SimTime::ZERO; 8];
        let a = strict.simulate_step(&plan, true, &ready);
        let b = degrade.simulate_step(&plan, true, &ready);
        assert_eq!(a.step_time, b.step_time, "policy must not change timing");
        assert_eq!(degrade.net.faults.msg_drops, 0);
    }
}
