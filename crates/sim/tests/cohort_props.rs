//! Differential property test for the cohort tape sweep: on random valid
//! netlists (with a memory grafted on), every lane of a packed cohort must
//! end exactly where the scalar segment protocol (`force* → settle →
//! step_cycle → release_all → run`) ends on that lane's branch combination
//! — same halt reason, same cycle, same value on every net and memory word
//! — and the two runs must mark the same nets toggled.
//!
//! The cases cover a forced first cycle (every case), lanes frozen
//! mid-run while their siblings keep sweeping (the monitor and finish nets
//! halt lanes at different cycles), and memory reads at unknown addresses,
//! both enumerated and — with a small `max_addr_enum_bits` — fully unknown,
//! which spills the lane back to a scalar continuation.

use proptest::prelude::*;
use symsim_logic::{plane::Lanes, Value};
use symsim_netlist::generator::arb_netlist;
use symsim_netlist::{CellKind, NetId, Netlist};
use symsim_sim::{
    CohortLaneEnd, EvalMode, HaltReason, MonitorSpec, SimConfig, SimState, Simulator, ToggleProfile,
};

fn arb_input_value() -> impl Strategy<Value = Value> {
    prop_oneof![Just(Value::ZERO), Just(Value::ONE), Just(Value::X)]
}

/// Grafts a 4 x 2 memory onto `nl`: read and write addresses, write data
/// and enable picked from the existing nets by `sel`, and two gates
/// consuming the read data so it reaches the rest of the state.
fn with_memory(mut nl: Netlist, sel: &[u32]) -> Netlist {
    let pool = nl.net_count() as u32;
    let pick = |i: usize| NetId(sel[i % sel.len()].wrapping_add(i as u32) % pool);
    let mem = nl.add_memory("ram", 4, 2);
    let rd = vec![nl.add_net("rd0"), nl.add_net("rd1")];
    nl.add_read_port(mem, vec![pick(0), pick(1)], rd.clone());
    nl.add_write_port(mem, vec![pick(2), pick(3)], vec![pick(4), pick(5)], pick(6));
    let x0 = nl.add_net("x0");
    nl.add_gate(CellKind::Xor2, &[rd[0], pick(7)], x0);
    nl.add_output(x0);
    let x1 = nl.add_net("x1");
    nl.add_gate(CellKind::And2, &[rd[1], rd[0]], x1);
    nl.add_output(x1);
    nl
}

/// A simulator brought to a quiescent fork point: inputs poked, a few
/// cycles run, watches registered, toggle observer armed on the snapshot.
fn at_fork<'n>(
    nl: &'n Netlist,
    config: SimConfig,
    stim: &[Value],
    monitor: NetId,
    finish: NetId,
) -> (Simulator<'n>, SimState) {
    let mut sim = Simulator::new(nl, config);
    for (i, &net) in nl.inputs().iter().enumerate() {
        sim.poke(net, stim[i % stim.len()]);
    }
    sim.settle();
    sim.step_cycle();
    sim.step_cycle();
    let base = sim.save_state();
    sim.monitor_x(MonitorSpec {
        qualifier: None,
        signals: vec![monitor],
    });
    sim.set_finish_net(finish);
    sim.arm_toggle_observer();
    (sim, base)
}

/// The scalar segment protocol for one child.
fn scalar_child(
    sim: &mut Simulator<'_>,
    base: &SimState,
    forces: &[NetId],
    combo: usize,
    budget: u64,
) -> (HaltReason, SimState) {
    sim.load_state(base);
    for (j, &net) in forces.iter().enumerate() {
        sim.force(net, Value::from_bool(combo >> j & 1 == 1));
    }
    sim.settle();
    let pending = sim.step_cycle();
    sim.release_all();
    let reason = pending.unwrap_or_else(|| sim.run(budget));
    (reason, sim.save_state())
}

fn profile_of(mut sim: Simulator<'_>) -> ToggleProfile {
    sim.take_toggle_profile().expect("observer was armed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tape_sweep_matches_scalar_settle(
        nl in arb_netlist(48),
        sel in prop::collection::vec(any::<u32>(), 8),
        stim in prop::collection::vec(arb_input_value(), 1..6),
        picks in prop::collection::vec(any::<u32>(), 5),
        signals in 1usize..4,
        budget in 1u64..6,
        enum_bits in 0u32..3,
        batched in any::<bool>(),
    ) {
        let nl = with_memory(nl, &sel);
        let net = |i: usize| NetId(picks[i] % nl.net_count() as u32);
        let forces: Vec<NetId> = {
            let mut f: Vec<NetId> = (0..signals).map(net).collect();
            f.sort_unstable();
            f.dedup();
            f
        };
        let n = 1usize << forces.len();
        let config = SimConfig {
            // the tape is the same whatever dispatches the scalar settles
            eval_mode: if batched { EvalMode::Batch } else { EvalMode::Event },
            max_addr_enum_bits: enum_bits,
            ..SimConfig::default()
        };

        // scalar reference, one child at a time
        let (mut scalar, base) = at_fork(&nl, config, &stim, net(3), net(4));
        let want: Vec<(HaltReason, SimState)> = (0..n)
            .map(|combo| scalar_child(&mut scalar, &base, &forces, combo, budget))
            .collect();

        // all children in one cohort (a single forced signal still packs:
        // two lanes)
        let (mut packed, base2) = at_fork(&nl, config, &stim, net(3), net(4));
        prop_assert_eq!(&base, &base2);
        let Some(mut c) = packed.cohort_pack(&base, n) else {
            // an inexact base (the random netlist left a Z somewhere) is a
            // legitimate refusal, not a divergence
            return;
        };
        for (j, &f) in forces.iter().enumerate() {
            let mut lanes = Lanes::ZEROS;
            for l in 0..n {
                lanes.set(l as u32, Value::from_bool(l >> j & 1 == 1));
            }
            packed.cohort_force(&mut c, f, lanes);
        }
        packed.cohort_run(&mut c, budget);
        prop_assert_eq!(c.live_mask(), 0, "every lane must end");

        let ends: Vec<CohortLaneEnd> = (0..n).map(|l| c.outcome(l)).collect();
        let states: Vec<SimState> = (0..n).map(|l| packed.cohort_unpack(&c, l)).collect();
        for (lane, (reason, state)) in want.iter().enumerate() {
            let mut got = states[lane].clone();
            let end = match ends[lane] {
                CohortLaneEnd::Spilled => {
                    // exact up to the spill; the scalar continuation takes
                    // what is left of the budget, as the explorer does
                    let spent = c.lane_cycles(lane);
                    packed.load_state(&got);
                    let end = packed.run((1 + budget).saturating_sub(spent));
                    got = packed.save_state();
                    end
                }
                CohortLaneEnd::Finished => HaltReason::Finished,
                CohortLaneEnd::Budget => HaltReason::MaxCycles,
                CohortLaneEnd::MonitorX => {
                    prop_assert!(
                        matches!(reason, HaltReason::MonitorX { .. }),
                        "lane {}: cohort halted on the monitor, scalar {:?}", lane, reason
                    );
                    reason.clone()
                }
                CohortLaneEnd::Running => unreachable!("live mask is empty"),
            };
            prop_assert_eq!(&end, reason, "lane {} halt reason", lane);
            prop_assert_eq!(got.cycle, state.cycle, "lane {} halt cycle", lane);
            prop_assert_eq!(&got, state, "lane {} diverged from its scalar run", lane);
        }
        prop_assert_eq!(profile_of(packed), profile_of(scalar), "toggle marks differ");
    }

    /// The sweep-level face of `plane_props::masked_writeback_never_leaks`:
    /// a lane frozen by the segment budget of a short run holds exactly the
    /// state a longer run of its siblings leaves it in — later sweeps over
    /// the live lanes never disturb a dead one.
    #[test]
    fn frozen_lanes_are_never_disturbed_by_later_sweeps(
        nl in arb_netlist(48),
        sel in prop::collection::vec(any::<u32>(), 8),
        stim in prop::collection::vec(arb_input_value(), 1..6),
        picks in prop::collection::vec(any::<u32>(), 3),
    ) {
        let nl = with_memory(nl, &sel);
        let net = |i: usize| NetId(picks[i] % nl.net_count() as u32);
        // two lanes, one forced bit apart; the monitor and finish nets end
        // them whenever the random logic says so
        let (mut sim, base) = at_fork(&nl, SimConfig::default(), &stim, net(0), net(1));
        let force = net(2);
        let run = |sim: &mut Simulator<'_>, budget: u64| {
            let mut c = sim.cohort_pack(&base, 2)?;
            let mut lanes = Lanes::ZEROS;
            lanes.set(1, Value::ONE);
            sim.cohort_force(&mut c, force, lanes);
            sim.cohort_run(&mut c, budget);
            Some((0..2).map(|l| (c.outcome(l), sim.cohort_unpack(&c, l))).collect::<Vec<_>>())
        };
        let (Some(short), Some(long)) = (run(&mut sim, 1), run(&mut sim, 6)) else {
            return;
        };
        for lane in 0..2 {
            // a lane that ended for its own reasons within the short budget
            // ended the same way, in the same state, under the long one
            if short[lane].0 != CohortLaneEnd::Budget {
                prop_assert_eq!(&short[lane], &long[lane], "lane {} moved after it froze", lane);
            }
        }
    }
}
