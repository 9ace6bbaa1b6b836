//! Path-cohort lane kernel: the levelized tape sweep settling up to 64
//! sibling paths vs. the scalar segment loop it replaces, plus the fixed
//! pack/unpack overhead a cohort pays before any cycles run (the first
//! pack of a simulator also compiles its tape; criterion's warm-up
//! absorbs that).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symsim_logic::{plane::Lanes, Value, Word};
use symsim_netlist::{Netlist, RtlBuilder};
use symsim_sim::{SimConfig, SimState, Simulator};

const CYCLES: u64 = 64;

/// A registered datapath whose per-lane state stays divergent after the
/// one forced cycle: the accumulator folds the forced stimulus in and
/// keeps amplifying it (`acc' = (acc + acc) ^ d`), while a counter-addressed
/// memory write/read pair exercises the per-lane memory path.
fn lanes_dp() -> Netlist {
    let mut b = RtlBuilder::new("cohort_dp");
    let d = b.input("d", 8);
    let acc = b.reg("acc", 8, 1);
    let accq = acc.q.clone();
    let cnt = b.reg("cnt", 4, 0);
    let cntq = cnt.q.clone();
    let one4 = b.const_word(1, 4);
    let cnext = b.add(&cntq, &one4);
    b.drive_reg(cnt, &cnext);
    let doubled = b.add(&accq, &accq);
    let next = b.xor(&doubled, &d);
    b.drive_reg(acc, &next);
    let m = b.memory("ram", 16, 8);
    let one = b.one();
    b.mem_write(m, &cntq, &accq, one);
    let rd = b.mem_read(m, &cntq);
    b.output("rd", &rd);
    b.output("acc_o", &accq);
    b.finish().unwrap()
}

/// A fully-known quiescent snapshot to fork from (cohort packing demands
/// an exact base: no symbols, no Z).
fn fork_base(sim: &mut Simulator<'_>, d: &[symsim_netlist::NetId]) -> SimState {
    sim.poke_bus(d, &Word::from_u64(0, 8));
    sim.settle();
    for _ in 0..4 {
        sim.step_cycle();
    }
    sim.save_state()
}

fn cohort_vs_scalar(c: &mut Criterion) {
    let nl = lanes_dp();
    let mut group = c.benchmark_group("plane_cohort");
    for &n in &[4usize, 16, 64] {
        let k = n.trailing_zeros() as usize;

        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |bch, &n| {
            let mut sim = Simulator::new(&nl, SimConfig::default());
            let d = sim.find_bus("d", 8).unwrap();
            let base = fork_base(&mut sim, &d);
            bch.iter(|| {
                let mut acc = 0u64;
                for combo in 0..n as u64 {
                    sim.load_state(&base);
                    for (j, &net) in d.iter().take(k).enumerate() {
                        sim.force(net, Value::from_bool((combo >> j) & 1 == 1));
                    }
                    sim.settle();
                    let pending = sim.step_cycle();
                    sim.release_all();
                    if pending.is_none() {
                        sim.run(CYCLES);
                    }
                    acc += sim.save_state().cycle;
                }
                acc
            });
        });

        group.bench_with_input(BenchmarkId::new("cohort", n), &n, |bch, &n| {
            let mut sim = Simulator::new(&nl, SimConfig::default());
            let d = sim.find_bus("d", 8).unwrap();
            let base = fork_base(&mut sim, &d);
            bch.iter(|| {
                let mut c = sim.cohort_pack(&base, n).expect("eligible base");
                for (j, &net) in d.iter().take(k).enumerate() {
                    let mut plane = Lanes::ZEROS;
                    for l in 0..n {
                        if (l >> j) & 1 == 1 {
                            plane.set(l as u32, Value::ONE);
                        }
                    }
                    sim.cohort_force(&mut c, net, plane);
                }
                sim.cohort_run(&mut c, CYCLES);
                (0..n).map(|l| c.lane_cycles(l)).sum::<u64>()
            });
        });
    }
    group.finish();
}

fn pack_unpack_overhead(c: &mut Criterion) {
    let nl = lanes_dp();
    let mut sim = Simulator::new(&nl, SimConfig::default());
    let d = sim.find_bus("d", 8).unwrap();
    let base = fork_base(&mut sim, &d);

    let mut group = c.benchmark_group("cohort_pack_unpack");
    group.bench_function("pack64", |bch| {
        bch.iter(|| sim.cohort_pack(&base, 64).expect("eligible base"));
    });
    let cohort = sim.cohort_pack(&base, 64).expect("eligible base");
    group.bench_function("unpack64", |bch| {
        bch.iter(|| {
            (0..64usize)
                .map(|l| sim.cohort_unpack(&cohort, l).values.len())
                .sum::<usize>()
        });
    });
    group.finish();
}

criterion_group!(benches, cohort_vs_scalar, pack_unpack_overhead);
criterion_main!(benches);
