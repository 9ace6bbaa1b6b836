//! Regression for the lane-packing fallback: `cohort_pack` used to check
//! the base *memories* for `Z`/symbols only in a `debug_assert!`, so a
//! release build packed such a state and the planes silently folded the
//! symbol. With packing the default, a symbol planted in data memory under
//! the anonymous policy must fall back to scalar segments and reproduce
//! event mode exactly.

use symsim_core::{CoAnalysis, CoAnalysisConfig, CoAnalysisReport, DesignInterface};
use symsim_logic::{Value, Word};
use symsim_netlist::{Bus, Netlist, RtlBuilder};
use symsim_sim::{EvalMode, MonitorSpec, SimConfig};

/// A miniature "processor": 3-bit PC counting up, a branch on an X input
/// at PC==2 that either jumps back to 0 or continues, an 8 x 3 data memory
/// written and read at the PC every cycle, finish at PC==5.
fn branchy_with_memory() -> (Netlist, DesignInterface) {
    let mut b = RtlBuilder::new("branchy_mem");
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
    let m = b.memory("dmem", 8, 3);
    let one = b.one();
    b.mem_write(m, &pcq, &pcq, one);
    let rd = b.mem_read(m, &pcq);
    b.output("rd", &rd);
    let five = b.const_word(5, 3);
    let done_raw = b.eq(&pcq, &five);
    let done = b.name_net("done", done_raw);
    b.output("done_out", &Bus::from_nets(vec![done]));
    let nl = b.finish().unwrap();
    let map = nl.net_name_map();
    let iface = DesignInterface {
        pc: (0..3).map(|i| map[format!("pc[{i}]").as_str()]).collect(),
        monitor: MonitorSpec {
            qualifier: Some(map["is_branch"]),
            signals: vec![map["taken"]],
        },
        split_signals: None,
        finish: map["done"],
    };
    (nl, iface)
}

fn run(nl: &Netlist, iface: &DesignInterface, mode: EvalMode, plant: bool) -> CoAnalysisReport {
    let config = CoAnalysisConfig {
        sim: SimConfig {
            eval_mode: mode,
            ..SimConfig::default()
        },
        ..CoAnalysisConfig::default()
    };
    let cond = nl.find_net("cond_in").unwrap();
    CoAnalysis::new(nl, iface.clone(), config)
        .unwrap()
        .run(|sim| {
            sim.poke(cond, Value::X);
            if plant {
                // read on the fall-through path, after the fork
                sim.write_mem_word(0, 4, &Word::symbols(7, 3));
            }
        })
}

#[test]
fn symbol_in_data_memory_falls_back_to_scalar_segments() {
    let (nl, iface) = branchy_with_memory();
    let event = run(&nl, &iface, EvalMode::Event, true);
    let packed = run(&nl, &iface, EvalMode::default(), true);
    assert_eq!(event.paths_created, packed.paths_created);
    assert_eq!(event.paths_skipped, packed.paths_skipped);
    assert_eq!(event.paths_finished, packed.paths_finished);
    assert_eq!(event.simulated_cycles, packed.simulated_cycles);
    assert_eq!(event.exercisable_gates, packed.exercisable_gates);
    assert_eq!(event.verdict_digest, packed.verdict_digest);
    assert_eq!(event.profile, packed.profile);
    assert_eq!(
        packed.metrics.counter("cohorts_formed"),
        0,
        "a symbol-carrying memory must not be packed"
    );
    // the fallback is what kept it scalar: without the symbol it packs
    let clean = run(&nl, &iface, EvalMode::default(), false);
    assert!(clean.metrics.counter("cohorts_formed") > 0);
}
