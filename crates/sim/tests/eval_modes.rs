//! Regression tests for the batched evaluation kernel: every [`EvalMode`]
//! must produce identical values, snapshots, traces, and observer results —
//! the modes may only differ in *how* they evaluate, never in *what*.

use symsim_logic::{PropagationPolicy, Value, Word};
use symsim_netlist::{Netlist, RtlBuilder};
use symsim_sim::{EvalMode, SimConfig, SimState, Simulator};

/// A small datapath with some depth: an accumulator updated through an
/// add/xor mux, a memory written from the accumulator and read back at a
/// counter address, and a comparator — enough gate variety to fill
/// kind-sorted batches at several levels.
fn datapath() -> Netlist {
    let mut b = RtlBuilder::new("dp");
    let a_in = b.input("a", 8);
    let sel = b.input("sel", 1);
    let acc = b.reg("acc", 8, 1);
    let accq = acc.q.clone();
    let cnt = b.reg("cnt", 4, 0);
    let cntq = cnt.q.clone();
    let one4 = b.const_word(1, 4);
    let cnext = b.add(&cntq, &one4);
    b.drive_reg(cnt, &cnext);
    let sum = b.add(&accq, &a_in);
    let xored = b.xor(&accq, &a_in);
    let next = b.mux(sel.bit(0), &sum, &xored);
    b.drive_reg(acc, &next);
    let m = b.memory("ram", 16, 8);
    let one = b.one();
    b.mem_write(m, &cntq, &accq, one);
    let rdata = b.mem_read(m, &cntq);
    let hit = b.eq(&rdata, &accq);
    let hit_bus = symsim_netlist::Bus::from_nets(vec![hit]);
    b.output("hit", &hit_bus);
    b.output("acc_o", &accq);
    b.output("rdata_o", &rdata);
    b.finish().unwrap()
}

fn config(mode: EvalMode, trace: bool) -> SimConfig {
    SimConfig {
        eval_mode: mode,
        trace_events: trace,
        ..SimConfig::default()
    }
}

/// Drives the same stimulus (including `X` injections mid-run) in the given
/// mode and returns the final quiescent snapshot plus the event trace.
fn run_datapath(nl: &Netlist, mode: EvalMode, trace: bool) -> (SimState, Vec<(u64, u32)>) {
    let mut sim = Simulator::new(nl, config(mode, trace));
    let a = sim.find_bus("a", 8).unwrap();
    let sel = nl.find_net("sel").unwrap();
    sim.poke_bus(&a, &Word::from_u64(0x5a, 8));
    sim.poke(sel, Value::ZERO);
    sim.settle();
    for cycle in 0..12u64 {
        if cycle == 4 {
            // unknown operand: X waves must propagate identically
            sim.poke(a[3], Value::X);
        }
        if cycle == 7 {
            sim.poke(sel, Value::X);
        }
        if cycle == 9 {
            sim.poke(a[3], Value::ONE);
            sim.poke(sel, Value::ONE);
        }
        sim.step_cycle();
    }
    let snap = sim.save_state();
    (snap, sim.take_event_trace())
}

#[test]
fn all_modes_reach_identical_states() {
    let nl = datapath();
    let (event, _) = run_datapath(&nl, EvalMode::Event, false);
    let (batch, _) = run_datapath(&nl, EvalMode::Batch, false);
    let (hybrid, _) = run_datapath(&nl, EvalMode::Hybrid, false);
    assert_eq!(event, batch, "batch mode diverged from event mode");
    assert_eq!(event, hybrid, "hybrid mode diverged from event mode");
}

#[test]
fn event_traces_identical_across_modes() {
    let nl = datapath();
    let (_, mut ev) = run_datapath(&nl, EvalMode::Event, true);
    let (_, mut ba) = run_datapath(&nl, EvalMode::Batch, true);
    assert!(!ev.is_empty(), "stimulus must produce events");
    // within a cycle the evaluation *order* is a scheduling artifact (LIFO
    // drain vs tape order); the set of changed nodes per cycle must match
    ev.sort_unstable();
    ba.sort_unstable();
    assert_eq!(ev, ba, "changed-node sets differ between modes");
}

#[test]
fn no_trace_pushes_when_tracing_off() {
    let nl = datapath();
    let (_, ev) = run_datapath(&nl, EvalMode::Event, false);
    let (_, ba) = run_datapath(&nl, EvalMode::Batch, false);
    assert!(ev.is_empty());
    assert!(ba.is_empty());
}

#[test]
fn batch_mode_actually_batches() {
    let nl = datapath();
    let mut sim = Simulator::new(&nl, config(EvalMode::Batch, false));
    sim.settle();
    let (batched, _) = sim.eval_stats();
    assert!(batched > 0, "batch mode never ran a level tape");

    let mut sim = Simulator::new(&nl, config(EvalMode::Event, false));
    sim.settle();
    let (batched, scalar) = sim.eval_stats();
    assert_eq!(batched, 0, "event mode must not run tapes");
    assert!(scalar > 0);
}

#[test]
fn tagged_symbols_fall_back_to_scalar_lanes() {
    // s XOR s = 0 only holds when symbol identity survives — the planes
    // cannot represent symbols, so those lanes must use scalar evaluation
    let mut b = RtlBuilder::new("sym");
    let a = b.input("a", 1);
    let y = b.xor1(a.bit(0), a.bit(0));
    let n = b.not1(a.bit(0));
    let z = b.and1(y, n);
    b.output("y", &symsim_netlist::Bus::from_nets(vec![y]));
    b.output("z", &symsim_netlist::Bus::from_nets(vec![z]));
    let nl = b.finish().unwrap();
    for mode in [EvalMode::Event, EvalMode::Batch, EvalMode::Hybrid] {
        let mut sim = Simulator::new(
            &nl,
            SimConfig {
                policy: PropagationPolicy::Tagged,
                eval_mode: mode,
                ..SimConfig::default()
            },
        );
        sim.poke(nl.find_net("a").unwrap(), Value::symbol(5));
        sim.settle();
        assert_eq!(
            sim.read_net_by_name("y"),
            Some(Value::ZERO),
            "{}: s^s must simplify to 0 under the Tagged policy",
            mode.name()
        );
        assert_eq!(
            sim.read_net_by_name("z"),
            Some(Value::ZERO),
            "{}: 0 & !s must be 0",
            mode.name()
        );
    }
}

#[test]
fn snapshot_round_trip_preserves_batch_state() {
    // load_state must rebuild the packed planes: otherwise a batched settle
    // after a restore would read stale bits
    let nl = datapath();
    let mut sim = Simulator::new(&nl, config(EvalMode::Batch, false));
    let a = sim.find_bus("a", 8).unwrap();
    sim.poke_bus(&a, &Word::from_u64(0x33, 8));
    sim.poke(nl.find_net("sel").unwrap(), Value::ZERO);
    sim.settle();
    for _ in 0..3 {
        sim.step_cycle();
    }
    let snap = sim.save_state();
    for _ in 0..4 {
        sim.step_cycle();
    }
    sim.load_state(&snap);
    for _ in 0..4 {
        sim.step_cycle();
    }
    let replay = sim.save_state();

    let mut fresh = Simulator::new(&nl, config(EvalMode::Batch, false));
    let a = fresh.find_bus("a", 8).unwrap();
    fresh.poke_bus(&a, &Word::from_u64(0x33, 8));
    fresh.poke(nl.find_net("sel").unwrap(), Value::ZERO);
    fresh.settle();
    for _ in 0..7 {
        fresh.step_cycle();
    }
    assert_eq!(replay, fresh.save_state());
}
