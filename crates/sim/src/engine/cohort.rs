//! Path-cohort evaluation: up to 64 *sibling paths* in the lane dimension.
//!
//! PR 2's batched kernel packs 64 gates of one path into a [`Lanes`] word;
//! this module re-purposes the same two-plane algebra in the other
//! direction — one net, 64 paths. Children forked from one snapshot share
//! every bit of state except the handful of forced control signals, so a
//! [`PathCohort`] broadcasts the fork snapshot into per-net planes, forces
//! each member's branch combo into its own lane, and settles all members
//! with one levelized sweep over a flat op tape ([`LaneTape`]). Per-lane
//! live masks gate every writeback, so a lane that halts (`$monitor_x`),
//! finishes, spills, or exhausts the segment budget freezes exactly at its
//! halt state while its siblings keep running — [`Lanes::merge_masked`] is
//! the invariant that makes the frozen state unpackable bit-exactly later.
//!
//! # Exactness contract
//!
//! A cohort run must be indistinguishable from running each member lane
//! through the scalar segment protocol (`force* → settle → step_cycle →
//! release_all → run(budget)`):
//!
//! - A settle sweeps the tape level-ascending, so each node is evaluated
//!   at most once with final inputs — no glitches, and the plane gate
//!   functions agree with the scalar `ops` lane-for-lane on `Logic` values
//!   (the `plane_props` differential tests). Re-evaluating a node whose
//!   inputs did not move reproduces its output, so sweeping whole levels
//!   where the scalar engine evaluates single events changes no value.
//! - Memory reads and write commits are resolved *per lane* against the
//!   lane's own copy-on-write [`MemArray`]s with the same conservative
//!   address-enumeration semantics as the scalar engine.
//! - Toggle marking is change-driven in both engines (the write-back only
//!   acts on `diff_mask & live`), so the union of the member lanes' marks
//!   equals the union of the equivalent scalar runs, whatever order the
//!   nodes of one level are visited in.
//!
//! To keep the contract simple the planes must stay *exact*, which rules
//! out values they fold ([`Value::Z`], tagged symbols): [`Simulator::
//! cohort_pack`] refuses a base state containing them and requires the
//! [`PropagationPolicy::Anonymous`] policy. Under that gate no `Z`/symbol
//! can appear mid-run either — gates never produce them from `Logic`
//! inputs, forces are concrete, and memory merges of `Logic` values stay
//! `Logic` — so the fold in [`Lanes::set`] is the identity throughout.
//!
//! # Gating
//!
//! A sweep starts at the lowest level read by a net that changed since the
//! last one ([`PathCohort::pending_level`]) and runs to the top; with
//! nothing pending a settle returns at once. A memory read port is
//! re-resolved only for the lanes whose address nets or own memory changed
//! ([`PathCohort::read_pending`]).
//!
//! # Divergence and spilling
//!
//! A memory read whose address is unknown beyond `max_addr_enum_bits`
//! (`AddrSet::All`) is the one event whose scalar cost the cohort cannot
//! amortize: the scalar engine serves it from a per-memory all-words-merge
//! cache, while a cohort would rescan the lane's array on every such
//! event. The lane's read is served exactly (one O(depth) merge), the lane
//! is flagged, and at the *end of the cycle* — a quiescent region boundary
//! — it is masked out with [`CohortLaneEnd::Spilled`]. The explorer
//! unpacks it into an ordinary scalar segment carrying the remaining cycle
//! budget, so the spilled path's trajectory (and even its budget horizon)
//! is still bit-identical to event mode.

use std::sync::Arc;

use symsim_logic::{plane, plane::Lanes, PropagationPolicy, Value, Word};
use symsim_netlist::{CellKind, CombNode, NetId};

use super::{enumerate_addresses, AddrSet, Simulator};
use crate::state::{plane_inexact, MemArray, SimState};

/// [`LaneTape::net_level`] of a net no comb node reads, and
/// [`PathCohort::pending_level`] when nothing is pending.
const NO_LEVEL: u32 = u32::MAX;

/// One gate of the tape: everything an evaluation needs in 20 contiguous
/// bytes, so a sweep never touches the netlist. Unused pins are 0.
#[derive(Debug, Clone, Copy)]
struct TapeOp {
    kind: CellKind,
    /// `out` is an address net of some read port (rare): a change must
    /// wake that port, the one thing a mid-sweep write has to schedule.
    wakes_read: bool,
    out: u32,
    in0: u32,
    in1: u32,
    in2: u32,
}

/// One memory read port of the tape.
#[derive(Debug, Clone, Copy)]
struct TapeRead {
    mem: u32,
    port: u32,
}

/// The levelized netlist as a flat program, compiled once per
/// [`Simulator`] at its first [`Simulator::cohort_pack`]: gates level-major
/// (kind-sorted within a level, so the dispatch branch predicts), read
/// ports level-major beside them, and the gating index.
#[derive(Debug)]
pub(super) struct LaneTape {
    ops: Vec<TapeOp>,
    /// Level `l`'s gates are `ops[level_ops[l]..level_ops[l + 1]]`.
    level_ops: Vec<u32>,
    reads: Vec<TapeRead>,
    /// Level `l`'s read ports are `reads[level_reads[l]..level_reads[l + 1]]`.
    level_reads: Vec<u32>,
    /// Net -> lowest level of any node reading it ([`NO_LEVEL`] if none):
    /// where a sweep must start once the net has changed.
    net_level: Vec<u32>,
    /// Comb-node index -> index into `reads` (the `memread_fanout_*` and
    /// `mem_readers` tables speak node indices); `u32::MAX` for gates.
    read_of_node: Vec<u32>,
}

impl LaneTape {
    fn compile(sim: &Simulator<'_>) -> LaneTape {
        let levels = sim.max_level as usize + 1;
        let mut gates: Vec<(u32, TapeOp)> = Vec::new();
        let mut reads: Vec<(u32, u32, TapeRead)> = Vec::new();
        let mut net_level = vec![NO_LEVEL; sim.values.len()];
        let mut feed = |net: NetId, lvl: u32| {
            let l = &mut net_level[net.0 as usize];
            *l = (*l).min(lvl);
        };
        for (i, &node) in sim.nodes.iter().enumerate() {
            let lvl = sim.level[i];
            match node {
                CombNode::Gate(g) => {
                    let gate = sim.netlist.gate(g);
                    gate.inputs.iter().for_each(|&n| feed(n, lvl));
                    let pin = |k: usize| gate.inputs.get(k).map_or(0, |n| n.0);
                    gates.push((
                        lvl,
                        TapeOp {
                            kind: gate.kind,
                            wakes_read: sim.memread_fanout_start[gate.output.0 as usize]
                                != sim.memread_fanout_start[gate.output.0 as usize + 1],
                            out: gate.output.0,
                            in0: pin(0),
                            in1: pin(1),
                            in2: pin(2),
                        },
                    ));
                }
                CombNode::MemRead { mem, port } => {
                    let rp = &sim.netlist.memories()[mem.0 as usize].read_ports[port];
                    rp.addr.iter().for_each(|&n| feed(n, lvl));
                    let port = port as u32;
                    reads.push((lvl, i as u32, TapeRead { mem: mem.0, port }));
                }
            }
        }
        gates.sort_by_key(|&(lvl, op)| (lvl, op.kind));
        reads.sort_by_key(|&(lvl, node, _)| (lvl, node));
        let mut read_of_node = vec![u32::MAX; sim.nodes.len()];
        for (r, &(_, node, _)) in reads.iter().enumerate() {
            read_of_node[node as usize] = r as u32;
        }
        LaneTape {
            level_ops: level_starts(levels, gates.iter().map(|g| g.0)),
            ops: gates.into_iter().map(|g| g.1).collect(),
            level_reads: level_starts(levels, reads.iter().map(|r| r.0)),
            reads: reads.into_iter().map(|r| r.2).collect(),
            net_level,
            read_of_node,
        }
    }
}

/// CSR offsets over a level-sorted list: level `l`'s entries are
/// `start[l]..start[l + 1]`.
fn level_starts(levels: usize, sorted: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut start = vec![0u32; levels + 1];
    for lvl in sorted {
        start[lvl as usize + 1] += 1;
    }
    for l in 0..levels {
        start[l + 1] += start[l];
    }
    start
}

/// How one member lane of a finished cohort run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CohortLaneEnd {
    /// Still live (only observable before [`Simulator::cohort_run`]
    /// returns).
    Running,
    /// A monitored control-flow signal went unknown: the lane's unpacked
    /// state awaits a CSM observation, exactly like a scalar
    /// [`HaltReason::MonitorX`].
    MonitorX,
    /// The finish net asserted: the application completed on this lane.
    Finished,
    /// The segment cycle budget ran out with the lane still live.
    Budget,
    /// The lane diverged on a fully-unknown memory address and was masked
    /// out at the end of that cycle; its unpacked state must continue as a
    /// scalar segment with the remaining budget.
    Spilled,
}

/// Per-write-port plane sample (the cohort analogue of the scalar
/// `WritePortSample`), refilled in place every clock edge.
#[derive(Debug)]
struct WpPlanes {
    addr: Vec<Lanes>,
    data: Vec<Lanes>,
    we: Lanes,
}

/// Up to 64 sibling paths packed lane-wise over per-net [`Lanes`] planes.
///
/// Created by [`Simulator::cohort_pack`], steered with
/// [`Simulator::cohort_force`], run by [`Simulator::cohort_run`], and read
/// back per lane with [`Simulator::cohort_unpack`]. The cohort owns *all*
/// of its mutable state — the simulator's own scalar state is never
/// touched, and the toggle marks (change-driven, therefore union-exact)
/// reach the shared profile when the run ends — so the same simulator
/// keeps serving scalar segments between cohort runs.
#[derive(Debug)]
pub struct PathCohort {
    /// Member lane count (2..=64).
    n: usize,
    /// Live-lane mask; bit `i` clear means lane `i` is frozen.
    live: u64,
    /// Shared cycle counter (all live lanes advance in lock-step).
    cycle: u64,
    /// The snapshot cycle the cohort was packed at.
    start_cycle: u64,
    /// One plane per net, broadcast from the fork snapshot.
    planes: Vec<Lanes>,
    /// Nets some live lane changed; folded into the simulator's toggle
    /// profile when the run ends (marking is a union, so late is exact).
    toggled: Vec<bool>,
    /// Cohort-local force bitmap (per net) and force planes.
    forced: Vec<bool>,
    force_planes: std::collections::HashMap<u32, Lanes>,
    /// Per-lane copy-on-write memories (`[lane][mem]`).
    lane_mems: Vec<Vec<MemArray>>,
    outcomes: Vec<CohortLaneEnd>,
    halt_cycle: Vec<u64>,
    /// The simulator's compiled tape (shared, never mutated).
    tape: Arc<LaneTape>,
    /// Lowest level read by a net changed since the last sweep
    /// ([`NO_LEVEL`] = quiescent).
    pending_level: u32,
    /// Per read port of the tape: lanes whose address or memory changed
    /// since the port was last resolved.
    read_pending: Vec<u64>,
    /// Per-cycle scratch, allocated once per cohort.
    dff_scratch: Vec<Lanes>,
    wp_scratch: Vec<WpPlanes>,
    mem_scratch: Vec<Lanes>,
    /// Masks computed in the Symbolic region, committed at the lane-end
    /// boundary (after `release` for the forced first step).
    pending_finish: u64,
    pending_halt: u64,
    spill_pending: u64,
    /// First-exercise attribution state (see `SimConfig::attribution`);
    /// `None` when attribution is off, so the write hot path pays nothing.
    attr: Option<CohortAttr>,
}

/// Per-cohort first-toggle recording: which lanes of each net have already
/// been attributed, plus the `(net, new_lanes, cycle)` log in toggle order.
/// The cohort records into its own log — never the simulator's scalar
/// buffer, whose cycle counter is unrelated mid-cohort — and the explorer
/// demuxes lane bits back to path ids after the run.
#[derive(Debug)]
struct CohortAttr {
    seen: Vec<u64>,
    log: Vec<(u32, u64, u64)>,
}

impl CohortAttr {
    /// Logs the lanes of `changed` toggling `net` for the first time.
    #[inline]
    fn first_toggles(&mut self, net: u32, changed: u64, cycle: u64) {
        let new = changed & !self.seen[net as usize];
        if new != 0 {
            self.seen[net as usize] |= new;
            self.log.push((net, new, cycle));
        }
    }
}

impl PathCohort {
    /// Member lane count.
    pub fn lanes(&self) -> usize {
        self.n
    }

    /// Mask of lanes still live (zero after [`Simulator::cohort_run`]).
    pub fn live_mask(&self) -> u64 {
        self.live
    }

    /// The shared cycle counter.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// How lane `lane` ended ([`CohortLaneEnd::Running`] before the run
    /// completes).
    pub fn outcome(&self, lane: usize) -> CohortLaneEnd {
        self.outcomes[lane]
    }

    /// The cycle lane `lane` was masked out at (its unpacked snapshot's
    /// cycle counter).
    pub fn halt_cycle(&self, lane: usize) -> u64 {
        self.halt_cycle[lane]
    }

    /// Cycles lane `lane` consumed inside the cohort.
    pub fn lane_cycles(&self, lane: usize) -> u64 {
        self.halt_cycle[lane] - self.start_cycle
    }

    /// Drains the first-exercise log recorded during
    /// [`Simulator::cohort_run`]: `(net, lane_mask, cycle)` entries, each
    /// marking the first toggle of `net` on the lanes of `lane_mask`, in
    /// toggle order. Empty when [`super::SimConfig::attribution`] is off.
    pub fn take_first_toggles(&mut self) -> Vec<(u32, u64, u64)> {
        self.attr
            .as_mut()
            .map(|a| std::mem::take(&mut a.log))
            .unwrap_or_default()
    }

    /// Freezes every lane in `ends` with the given end, recording the halt
    /// cycle. Precedence among simultaneous ends is the caller's order.
    fn freeze(&mut self, mask: u64, end: CohortLaneEnd) {
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            self.outcomes[lane] = end;
            self.halt_cycle[lane] = self.cycle;
        }
        self.live &= !mask;
    }

    /// Makes the next sweep re-evaluate comb node `node` of level `level`:
    /// a gate by reaching its level, a read port by also re-resolving
    /// `lanes`.
    fn wake_node(&mut self, node: u32, level: u32, lanes: u64) {
        self.pending_level = self.pending_level.min(level);
        let read = self.tape.read_of_node[node as usize] as usize;
        if let Some(pending) = self.read_pending.get_mut(read) {
            *pending |= lanes;
        }
    }

    /// Applies the pending Symbolic-region verdicts: finish beats halt
    /// beats spill, all restricted to still-live lanes.
    fn commit_lane_ends(&mut self) {
        let fin = self.pending_finish & self.live;
        let halt = self.pending_halt & self.live & !fin;
        let spill = self.spill_pending & self.live & !fin & !halt;
        self.freeze(fin, CohortLaneEnd::Finished);
        self.freeze(halt, CohortLaneEnd::MonitorX);
        self.freeze(spill, CohortLaneEnd::Spilled);
        self.pending_finish = 0;
        self.pending_halt = 0;
        self.spill_pending = 0;
    }
}

impl<'n> Simulator<'n> {
    /// Packs `base` into an `n`-lane cohort: every net's plane broadcasts
    /// the snapshot value, every lane gets its own copy-on-write clone of
    /// the snapshot memories (O(page refs) each).
    ///
    /// Returns `None` when cohort evaluation cannot be exact: fewer than 2
    /// or more than 64 lanes, a non-[`Anonymous`](PropagationPolicy::
    /// Anonymous) policy, a base state whose nets or memories carry
    /// `Z`/symbol values (the planes fold those; memories answer from
    /// [`MemArray::may_hold_inexact`]), an attached activity observer
    /// (whose per-cycle weighting is per-path, not union-shaped), or
    /// per-event tracing. The caller falls back to scalar segments in that
    /// case.
    pub fn cohort_pack(&self, base: &SimState, n: usize) -> Option<PathCohort> {
        if !(2..=64).contains(&n)
            || self.config.policy != PropagationPolicy::Anonymous
            || self.activity.is_some()
            || self.config.trace_events
        {
            return None;
        }
        if base.values.iter().any(|&v| plane_inexact(v))
            || base.mems.iter().any(MemArray::may_hold_inexact)
        {
            return None;
        }
        let tape = Arc::clone(
            self.lane_tape
                .get_or_init(|| Arc::new(LaneTape::compile(self))),
        );
        let planes: Vec<Lanes> = base.values.iter().map(|&v| Lanes::broadcast(v)).collect();
        let wp_scratch = self
            .write_ports
            .iter()
            .map(|d| WpPlanes {
                addr: vec![Lanes::ZEROS; d.addr.len()],
                data: vec![Lanes::ZEROS; d.data.len()],
                we: Lanes::ZEROS,
            })
            .collect();
        Some(PathCohort {
            n,
            live: if n == 64 { !0 } else { (1u64 << n) - 1 },
            cycle: base.cycle,
            start_cycle: base.cycle,
            planes,
            toggled: vec![false; base.values.len()],
            forced: vec![false; base.values.len()],
            force_planes: std::collections::HashMap::new(),
            lane_mems: vec![base.mems.clone(); n],
            outcomes: vec![CohortLaneEnd::Running; n],
            halt_cycle: vec![base.cycle; n],
            // a quiescent snapshot: nothing to sweep until something moves
            pending_level: NO_LEVEL,
            read_pending: vec![0; tape.reads.len()],
            tape,
            dff_scratch: vec![Lanes::ZEROS; self.dff_pairs.len()],
            wp_scratch,
            mem_scratch: Vec::new(),
            pending_finish: 0,
            pending_halt: 0,
            spill_pending: 0,
            attr: self.attr.as_ref().map(|_| CohortAttr {
                seen: vec![0; base.values.len()],
                log: Vec::new(),
            }),
        })
    }

    /// Forces `net` to a per-lane value pattern (lane `i` takes
    /// `lanes.get(i)`), the cohort analogue of [`Simulator::force`] applied
    /// to every member at once. The override holds until the first cycle
    /// completes (cohort_run releases it, like the scalar segment
    /// protocol).
    pub fn cohort_force(&mut self, c: &mut PathCohort, net: NetId, lanes: Lanes) {
        c.forced[net.0 as usize] = true;
        c.force_planes.insert(net.0, lanes);
        self.cohort_write(c, net.0, lanes);
    }

    /// Runs the cohort through one forced cycle (mirroring `settle →
    /// step_cycle → release_all`) and then up to `max_cycles` further
    /// cycles, freezing lanes as they finish, halt, or spill; any lane
    /// still live afterwards ends as [`CohortLaneEnd::Budget`]. On return
    /// every lane has a final [`CohortLaneEnd`] and
    /// [`Simulator::cohort_unpack`] yields its quiescent snapshot.
    pub fn cohort_run(&mut self, c: &mut PathCohort, max_cycles: u64) {
        let t0 = self.config.profile_phases.then(std::time::Instant::now);
        self.cohort_settle(c);
        self.cohort_step(c);
        self.cohort_release(c);
        c.commit_lane_ends();
        let mut steps = 0u64;
        while c.live != 0 && steps < max_cycles {
            self.cohort_step(c);
            c.commit_lane_ends();
            steps += 1;
        }
        let budget = c.live;
        c.freeze(budget, CohortLaneEnd::Budget);
        if let Some(p) = &mut self.profile {
            p.mark_all(&c.toggled);
        }
        if let Some(t) = t0 {
            self.settle_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Unpacks lane `lane` into an ordinary quiescent [`SimState`]: each
    /// net's value from the lane's plane bits, the lane's own memories
    /// (copy-on-write, O(page refs)), and the cycle the lane froze at.
    pub fn cohort_unpack(&self, c: &PathCohort, lane: usize) -> SimState {
        assert!(lane < c.n, "lane out of range");
        SimState {
            values: c.planes.iter().map(|p| p.get(lane as u32)).collect(),
            mems: c.lane_mems[lane].clone(),
            cycle: c.halt_cycle[lane],
        }
    }

    /// One clock cycle over all live lanes, mirroring
    /// [`Simulator::step_cycle`]'s region order: NBA (settle, sample DFF
    /// d-planes and write ports pre-edge, commit), Active (settle), then
    /// the Symbolic-region checks, whose verdicts land in the pending
    /// masks (committed by the caller at the lane-end boundary).
    fn cohort_step(&mut self, c: &mut PathCohort) {
        // Nba: settle pending propagation, sample pre-edge, then commit
        self.cohort_settle(c);
        for i in 0..self.dff_pairs.len() {
            let d = self.dff_pairs[i].1;
            c.dff_scratch[i] = c.planes[d.0 as usize];
        }
        for pi in 0..self.write_ports.len() {
            for bi in 0..self.write_ports[pi].addr.len() {
                let net = self.write_ports[pi].addr[bi].0 as usize;
                c.wp_scratch[pi].addr[bi] = c.planes[net];
            }
            for bi in 0..self.write_ports[pi].data.len() {
                let net = self.write_ports[pi].data[bi].0 as usize;
                c.wp_scratch[pi].data[bi] = c.planes[net];
            }
            let we = self.write_ports[pi].we.0 as usize;
            c.wp_scratch[pi].we = c.planes[we];
        }
        for i in 0..self.dff_pairs.len() {
            let q = self.dff_pairs[i].0;
            let v = c.dff_scratch[i];
            // like the scalar `set_value(q, v, false)`: DFF commits bypass
            // force overrides
            self.cohort_write(c, q.0, v);
        }
        for pi in 0..self.write_ports.len() {
            let mem_index = self.write_ports[pi].mem as usize;
            let max_bits = self.config.max_addr_enum_bits;
            let mut wrote = 0u64;
            let mut m = c.live;
            while m != 0 {
                let lane = m.trailing_zeros();
                m &= m - 1;
                let we = c.wp_scratch[pi].we.get(lane);
                if we == Value::ZERO {
                    continue;
                }
                let addr: Word = c.wp_scratch[pi].addr.iter().map(|l| l.get(lane)).collect();
                let data: Word = c.wp_scratch[pi].data.iter().map(|l| l.get(lane)).collect();
                commit_lane_mem_write(
                    &mut c.lane_mems[lane as usize][mem_index],
                    &addr,
                    &data,
                    we,
                    max_bits,
                );
                wrote |= 1 << lane;
            }
            if wrote != 0 {
                // only the writing lanes' memories moved: their reads of
                // this memory re-resolve in the Active sweep below
                for &node in &self.mem_readers[mem_index] {
                    c.wake_node(node, self.level[node as usize], wrote);
                }
            }
        }
        // Active
        self.cohort_settle(c);
        // Inactive and Monitor are empty/inline, as in the scalar engine.
        // Symbolic: advance the shared counter, then the per-lane checks
        c.cycle += 1;
        self.cohort_check_symbolic(c);
    }

    /// The per-lane Symbolic-region verdicts of [`Simulator::
    /// check_symbolic_region`], as plane reductions: finish lanes are the
    /// finish net's known-ones; a monitor halts a lane when its qualifier
    /// is unknown, or known-1 (or absent) with any watched signal unknown.
    fn cohort_check_symbolic(&self, c: &mut PathCohort) {
        let live = c.live;
        let mut finished = 0u64;
        if let Some(f) = self.finish_net {
            finished = c.planes[f.0 as usize].known_ones() & live;
        }
        let mut halt = 0u64;
        for spec in &self.monitors {
            let mut sig_unk = 0u64;
            for &s in &spec.signals {
                sig_unk |= c.planes[s.0 as usize].unknown_mask();
            }
            halt |= match spec.qualifier {
                None => sig_unk,
                Some(q) => {
                    let ql = c.planes[q.0 as usize];
                    ql.unknown_mask() | (ql.known_ones() & sig_unk)
                }
            };
        }
        c.pending_finish |= finished;
        c.pending_halt |= halt & live & !finished;
    }

    /// Releases all cohort forces and re-evaluates the affected drivers
    /// (the cohort analogue of [`Simulator::release_all`]).
    fn cohort_release(&mut self, c: &mut PathCohort) {
        let nets: Vec<u32> = c.force_planes.keys().copied().collect();
        c.force_planes.clear();
        for n in nets {
            c.forced[n as usize] = false;
            if let Some(node) = self.driver_node[n as usize] {
                c.wake_node(node, self.level[node as usize], c.live);
            }
        }
        self.cohort_settle(c);
    }

    /// Sweeps the tape from the lowest pending level to the top: every
    /// gate of a swept level is evaluated once over all 64 lanes, then the
    /// level's read ports with pending lanes are re-resolved. Nodes only
    /// feed strictly higher levels, so one ascending pass reaches
    /// quiescence; with nothing pending this is a single compare.
    fn cohort_settle(&mut self, c: &mut PathCohort) {
        if c.pending_level == NO_LEVEL {
            return;
        }
        // forces only exist during the first cycle, attribution only when
        // asked for: the common sweep is compiled without either test
        if c.force_planes.is_empty() && c.attr.is_none() {
            self.cohort_sweep::<false>(c);
        } else {
            self.cohort_sweep::<true>(c);
        }
    }

    /// The sweep proper; `HOOKS` compiles in the force override and the
    /// first-toggle log.
    fn cohort_sweep<const HOOKS: bool>(&mut self, c: &mut PathCohort) {
        let tape = Arc::clone(&c.tape);
        let live = c.live;
        for lvl in c.pending_level as usize..tape.level_ops.len() - 1 {
            let ops = &tape.ops[tape.level_ops[lvl] as usize..tape.level_ops[lvl + 1] as usize];
            for op in ops {
                let p = |net: u32| c.planes[net as usize];
                let mut y = match op.kind {
                    CellKind::Const0 => Lanes::ZEROS,
                    CellKind::Const1 => Lanes::ONES,
                    CellKind::Buf => plane::buf(p(op.in0)),
                    CellKind::Not => plane::not(p(op.in0)),
                    CellKind::And2 => plane::and2(p(op.in0), p(op.in1)),
                    CellKind::Or2 => plane::or2(p(op.in0), p(op.in1)),
                    CellKind::Nand2 => plane::nand2(p(op.in0), p(op.in1)),
                    CellKind::Nor2 => plane::nor2(p(op.in0), p(op.in1)),
                    CellKind::Xor2 => plane::xor2(p(op.in0), p(op.in1)),
                    CellKind::Xnor2 => plane::xnor2(p(op.in0), p(op.in1)),
                    CellKind::Mux2 => plane::mux2(p(op.in0), p(op.in1), p(op.in2)),
                };
                let out = op.out as usize;
                if HOOKS && c.forced[out] {
                    self.forced_writes += 1;
                    y = c.force_planes[&op.out];
                }
                // the change test of `cohort_write`, kept free of the
                // data-dependent branch: an unchanged net stores back its
                // own bits, and every level above is swept anyway, so the
                // write has nothing to wake but a read port
                let old = c.planes[out];
                let changed = old.diff_mask(y) & live;
                c.planes[out] = old.merge_masked(y, changed);
                c.toggled[out] |= changed != 0;
                if HOOKS {
                    if let Some(a) = &mut c.attr {
                        a.first_toggles(op.out, changed, c.cycle);
                    }
                }
                if op.wakes_read && changed != 0 {
                    self.cohort_wake_reads(c, op.out, changed);
                }
            }
            for r in tape.level_reads[lvl] as usize..tape.level_reads[lvl + 1] as usize {
                let lanes = std::mem::take(&mut c.read_pending[r]) & live;
                if lanes != 0 {
                    self.cohort_resolve_read(c, tape.reads[r], lanes);
                }
            }
            self.batched_level_evals += 1;
        }
        // writes during the sweep only woke levels it went on to visit
        c.pending_level = NO_LEVEL;
    }

    /// Marks `lanes` of every read port `net` addresses for re-resolution.
    fn cohort_wake_reads(&self, c: &mut PathCohort, net: u32, lanes: u64) {
        let s = self.memread_fanout_start[net as usize] as usize;
        let e = self.memread_fanout_start[net as usize + 1] as usize;
        for &node in &self.memread_fanout_list[s..e] {
            c.read_pending[c.tape.read_of_node[node as usize] as usize] |= lanes;
        }
    }

    /// Lane-masked writeback of `y` to `net`: only live lanes whose value
    /// actually changed are patched ([`Lanes::merge_masked`]), dead lanes
    /// are untouched by construction, and any change marks the net toggled
    /// and wakes the levels and read ports it feeds — the cohort mirror of
    /// [`Simulator::set_value`]. Force overrides are the evaluating
    /// caller's business.
    fn cohort_write(&mut self, c: &mut PathCohort, net: u32, y: Lanes) {
        let old = c.planes[net as usize];
        let changed = old.diff_mask(y) & c.live;
        if changed == 0 {
            return;
        }
        c.planes[net as usize] = old.merge_masked(y, changed);
        // the scalar `mark_toggled` minus the parts a cohort cannot have:
        // activity observers are refused at pack time, and first-exercise
        // attribution goes to the cohort's own per-lane log (the scalar
        // buffer's cycle counter is unrelated mid-cohort)
        c.toggled[net as usize] = true;
        if let Some(a) = &mut c.attr {
            a.first_toggles(net, changed, c.cycle);
        }
        c.pending_level = c.pending_level.min(c.tape.net_level[net as usize]);
        self.cohort_wake_reads(c, net, changed);
    }

    /// Re-resolves one read port for `lanes`, each against its own
    /// memories; the other lanes' data planes already hold their words.
    /// Siblings mostly agree on the address and share every page of the
    /// memory, so each distinct (address, contents) class resolves once.
    fn cohort_resolve_read(&mut self, c: &mut PathCohort, read: TapeRead, lanes: u64) {
        self.event_evals += 1;
        let nl = self.netlist;
        let mem_index = read.mem as usize;
        let rp = &nl.memories()[mem_index].read_ports[read.port as usize];
        let max_bits = self.config.max_addr_enum_bits;
        let mut out = std::mem::take(&mut c.mem_scratch);
        out.clear();
        out.extend(rp.data.iter().map(|&n| c.planes[n.0 as usize]));
        let mut todo = lanes;
        while todo != 0 {
            let lane = todo.trailing_zeros();
            // the pending lanes reading what `lane` reads: equal address
            // bits on every address net, and physically shared contents
            let mut class = todo;
            for &a in &rp.addr {
                let p = c.planes[a.0 as usize];
                let like = |plane: u64| {
                    if plane >> lane & 1 == 1 {
                        plane
                    } else {
                        !plane
                    }
                };
                class &= like(p.val) & like(p.unk);
            }
            let mem = &c.lane_mems[lane as usize][mem_index];
            let mut others = class & (class - 1);
            while others != 0 {
                let l = others.trailing_zeros();
                others &= others - 1;
                if !c.lane_mems[l as usize][mem_index].shares_pages_with(mem) {
                    class &= !(1 << l);
                }
            }
            todo &= !class;
            let addr: Word = rp
                .addr
                .iter()
                .map(|&a| c.planes[a.0 as usize].get(lane))
                .collect();
            let (word, was_all) = resolve_lane_read(mem, &addr, max_bits);
            if was_all {
                // exact this cycle, unamortizable from here on: spill the
                // lanes at the next region boundary
                c.spill_pending |= class;
            }
            debug_assert!(
                !word.iter().any(|&v| plane_inexact(v)),
                "cohort memories must stay Z/symbol-free"
            );
            for (i, l) in out.iter_mut().enumerate() {
                *l = l.merge_masked(Lanes::broadcast(word.bit(i)), class);
            }
        }
        for (i, &nid) in rp.data.iter().enumerate() {
            let mut y = out[i];
            if c.forced[nid.0 as usize] {
                self.forced_writes += 1;
                y = c.force_planes[&nid.0];
            }
            self.cohort_write(c, nid.0, y);
        }
        c.mem_scratch = out;
    }
}

/// One lane's memory read: the conservative merge of every word the
/// address could select, with the same enumeration semantics as
/// [`Simulator::mem_read_resolve`] but no all-words cache — the second
/// return flags the `AddrSet::All` case so the caller can spill the lane.
fn resolve_lane_read(mem: &MemArray, addr: &Word, max_enum_bits: u32) -> (Word, bool) {
    let (word, all) = match enumerate_addresses(addr, mem.depth(), max_enum_bits) {
        AddrSet::None => (None, false),
        AddrSet::Some(addrs) => (mem.merge_words(addrs), false),
        AddrSet::All => (mem.merge_words(0..mem.depth()), true),
    };
    (word.unwrap_or_else(|| Word::xs(mem.width())), all)
}

/// One lane's write commit, mirroring [`Simulator::commit_mem_write`]
/// (minus the all-words-merge cache, which cohorts do not maintain). The
/// caller has already filtered `we == 0`.
fn commit_lane_mem_write(mem: &mut MemArray, addr: &Word, data: &Word, we: Value, max_bits: u32) {
    let certain = we == Value::ONE;
    let depth = mem.depth();
    match enumerate_addresses(addr, depth, max_bits) {
        AddrSet::None => {}
        AddrSet::Some(addrs) => {
            let exact = certain && !addr.has_unknown();
            for a in addrs {
                if exact {
                    mem.set_word(a, data);
                } else {
                    mem.merge_word(a, data);
                }
            }
        }
        AddrSet::All => {
            for a in 0..depth {
                mem.merge_word(a, data);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{HaltReason, MonitorSpec, SimConfig};
    use super::*;
    use symsim_logic::plane;
    use symsim_netlist::{Netlist, RtlBuilder};

    /// A branchy mini-CPU shape: 3-bit PC, a conditional jump at PC==2 on
    /// an X input, a memory written along the way, finish at PC==6 (so the
    /// fall-through lane finishes one cycle after the taken lane re-halts
    /// at the branch).
    fn branchy() -> (Netlist, NetId, NetId, NetId) {
        let mut b = RtlBuilder::new("cohort_branchy");
        let cond_in = b.input("cond_in", 1);
        let pc = b.reg("pc", 3, 0);
        let pcq = pc.q.clone();
        let one3 = b.const_word(1, 3);
        let next_seq = b.add(&pcq, &one3);
        let two = b.const_word(2, 3);
        let at_branch_raw = b.eq(&pcq, &two);
        let at_branch = b.name_net("is_branch", at_branch_raw);
        let target = b.const_word(0, 3);
        let taken_raw = b.and1(at_branch, cond_in.bit(0));
        let taken = b.name_net("taken", taken_raw);
        let next = b.mux(taken, &next_seq, &target);
        b.drive_reg(pc, &next);
        let m = b.memory("scratch", 8, 3);
        let one = b.one();
        b.mem_write(m, &pcq, &pcq, one);
        let rd = b.mem_read(m, &pcq);
        b.output("rd", &rd);
        let six = b.const_word(6, 3);
        let done_raw = b.eq(&pcq, &six);
        let done = b.name_net("done", done_raw);
        b.output("done_out", &symsim_netlist::Bus::from_nets(vec![done]));
        let nl = b.finish().unwrap();
        let map = nl.net_name_map();
        let (qual, sig, fin) = (map["is_branch"], map["taken"], map["done"]);
        (nl, qual, sig, fin)
    }

    fn prepared(nl: &Netlist) -> Simulator<'_> {
        let mut sim = Simulator::new(nl, SimConfig::default());
        let cond = nl.find_net("cond_in").unwrap();
        sim.poke(cond, Value::X);
        sim.settle();
        sim
    }

    /// Lanes settled by the tape sweep must retrace the scalar segment
    /// protocol bit-exactly: run the fork's children scalar (force → settle
    /// → step → release → run) and compare every lane's unpacked snapshot.
    /// `tests/cohort_props.rs` repeats this on random netlists.
    #[test]
    fn cohort_lanes_match_scalar_segments() {
        let (nl, qual, sig, fin) = branchy();
        let mut sim = prepared(&nl);
        sim.monitor_x(MonitorSpec {
            qualifier: Some(qual),
            signals: vec![sig],
        });
        sim.set_finish_net(fin);
        // run to the branch halt to get a fork snapshot
        let reason = sim.run(100);
        assert!(matches!(reason, HaltReason::MonitorX { .. }), "{reason:?}");
        let cons = sim.save_state();

        // scalar reference: child `i` forces taken = bit 0 of i
        let mut scalar_states = Vec::new();
        for combo in 0..2u64 {
            sim.load_state(&cons);
            sim.force(sig, Value::from_bool(combo & 1 == 1));
            sim.settle();
            let pending = sim.step_cycle();
            sim.release_all();
            let reason = match pending {
                Some(r) => r,
                None => sim.run(100),
            };
            scalar_states.push((reason, sim.save_state()));
        }

        // cohort: both children in one pass
        let mut c = sim.cohort_pack(&cons, 2).expect("cohort eligible");
        let mut lanes = Lanes::ZEROS;
        lanes.set(1, Value::ONE);
        sim.cohort_force(&mut c, sig, lanes);
        sim.cohort_run(&mut c, 100);
        for (lane, (reason, want)) in scalar_states.iter().enumerate() {
            let got = sim.cohort_unpack(&c, lane);
            let end = c.outcome(lane);
            match reason {
                HaltReason::Finished => assert_eq!(end, CohortLaneEnd::Finished),
                HaltReason::MaxCycles => assert_eq!(end, CohortLaneEnd::Budget),
                HaltReason::MonitorX { .. } => assert_eq!(end, CohortLaneEnd::MonitorX),
            }
            assert_eq!(got.cycle, want.cycle, "lane {lane} halt cycle");
            assert_eq!(got, *want, "lane {lane} diverged from its scalar run");
        }
    }

    #[test]
    fn pack_refuses_inexact_bases() {
        let (nl, _, _, _) = branchy();
        let sim = prepared(&nl);
        let mut base = SimState {
            values: vec![Value::ZERO; nl.net_count()],
            mems: vec![MemArray::xs(8, 3)],
            cycle: 0,
        };
        assert!(sim.cohort_pack(&base, 1).is_none(), "n < 2");
        assert!(sim.cohort_pack(&base, 65).is_none(), "n > 64");
        assert!(sim.cohort_pack(&base, 2).is_some());
        base.values[0] = Value::symbol(3);
        assert!(sim.cohort_pack(&base, 2).is_none(), "symbol in base");
        base.values[0] = Value::Z;
        assert!(sim.cohort_pack(&base, 2).is_none(), "Z in base");
        // a symbol that only lives in a memory word must refuse too — in
        // release builds as well (this used to be a debug assertion)
        base.values[0] = Value::ZERO;
        assert!(sim.cohort_pack(&base, 2).is_some());
        let mut word = Word::zeros(3);
        word.set_bit(1, Value::symbol(9));
        base.mems[0].set_word(5, &word);
        assert!(sim.cohort_pack(&base, 2).is_none(), "symbol in base memory");
    }

    #[test]
    fn masked_lanes_stay_frozen_after_halt() {
        let (nl, qual, sig, fin) = branchy();
        let mut sim = prepared(&nl);
        sim.monitor_x(MonitorSpec {
            qualifier: Some(qual),
            signals: vec![sig],
        });
        sim.set_finish_net(fin);
        let reason = sim.run(100);
        assert!(matches!(reason, HaltReason::MonitorX { .. }));
        let cons = sim.save_state();
        let mut c = sim.cohort_pack(&cons, 2).expect("cohort eligible");
        let mut lanes = Lanes::ZEROS;
        lanes.set(1, Value::ONE);
        sim.cohort_force(&mut c, sig, lanes);
        sim.cohort_run(&mut c, 100);
        // the taken lane loops back to the branch and halts again; the
        // not-taken lane runs to finish later — at different cycles
        assert_eq!(c.live_mask(), 0, "all lanes must end");
        let a = sim.cohort_unpack(&c, 0);
        let b = sim.cohort_unpack(&c, 1);
        assert_ne!(a.cycle, b.cycle, "lanes halt at different cycles");
        // a frozen lane's planes must be internally consistent: re-packing
        // its unpacked state round-trips every net
        for (i, &v) in a.values.iter().enumerate() {
            assert_eq!(plane::pack(&[v]).get(0), v, "net {i}");
        }
    }
}
