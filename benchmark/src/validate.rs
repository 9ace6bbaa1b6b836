//! The concrete side of `bespoke_validate` (paper section 5.0.1): one
//! seeded input vector run on the original netlist, on the bespoke netlist
//! after a trip through Verilog text, and on the golden ISS.

use symsim_cpu::{bm32, dr5, omsp16, Benchmark, Cpu};
use symsim_netlist::{NetId, Netlist};
use symsim_sim::{HaltReason, SimConfig, Simulator, ToggleProfile};

use crate::pairs::PairSpec;
use crate::rng::Rng;
use crate::spec::CPUS;
use crate::trace::Tracer;

/// Concrete vectors per pair and pass.
pub const VECTORS_PER_PAIR: usize = 4;

/// `count` input vectors for `bench`: each input word drawn from
/// `1..=max(example, 1)`, so loop counts stay near the shipped example's
/// and no divisor is zero.
pub fn vectors(bench: &Benchmark, rng: &mut Rng, count: usize) -> Vec<Vec<u64>> {
    (0..count)
        .map(|_| {
            bench
                .example_inputs
                .iter()
                .map(|&example| rng.in_1_to(example.max(1)))
                .collect()
        })
        .collect()
}

/// Architectural state after a finished run: registers, then data memory.
#[derive(Debug, PartialEq, Eq)]
pub struct ArchState {
    pub regs: Vec<u64>,
    pub mem: Vec<u64>,
}

/// What one gate-level run leaves behind.
pub struct Concrete {
    pub arch: ArchState,
    pub profile: ToggleProfile,
    pub cycles: u64,
    pub event_evals: u64,
    pub batched_level_evals: u64,
}

/// Runs `inputs` on `cpu`'s netlist to the finish net.
pub fn run_gates(
    cpu: &Cpu,
    program: &[u32],
    bench: &Benchmark,
    inputs: &[u64],
    t: &mut Tracer,
) -> Result<Concrete, String> {
    let mut sim = t.span("sim.new", |_| {
        Simulator::new(&cpu.netlist, SimConfig::default())
    });
    t.span("sim.prepare", |_| {
        cpu.prepare_concrete(&mut sim, program, &bench.data, inputs);
        sim.set_finish_net(cpu.finish);
        sim.arm_toggle_observer();
    });
    let halt = t.span("sim.run", |_| sim.run(bench.max_cycles));
    if halt != HaltReason::Finished {
        return Err(format!("{}: stopped with {halt:?}", cpu.netlist.name));
    }
    let known = |what: &str, word: symsim_logic::Word| {
        word.to_u64()
            .ok_or_else(|| format!("{}: {what} holds an unknown", cpu.netlist.name))
    };
    let regs = (0..cpu.reg_nets.len())
        .map(|r| known("a register", cpu.read_reg(&sim, r)))
        .collect::<Result<_, _>>()?;
    let depth = cpu.netlist.memories()[cpu.dmem].depth;
    let mem = (0..depth)
        .map(|a| known("data memory", cpu.read_data(&sim, a)))
        .collect::<Result<_, _>>()?;
    let (batched_level_evals, event_evals) = sim.eval_stats();
    Ok(Concrete {
        arch: ArchState { regs, mem },
        cycles: sim.cycle(),
        profile: sim.take_toggle_profile().expect("armed above"),
        event_evals,
        batched_level_evals,
    })
}

/// Runs `inputs` on the golden instruction-set simulator of `spec`'s CPU.
pub fn run_iss(
    spec: PairSpec,
    program: &[u32],
    bench: &Benchmark,
    inputs: &[u64],
) -> Result<ArchState, String> {
    // the three models share no trait; the macro is the shared body
    macro_rules! run {
        ($iss:ty, $word:ty) => {{
            let mut iss = <$iss>::new(program);
            for &(addr, value) in &bench.data.concrete {
                iss.write_mem(addr, value as $word);
            }
            for (&addr, &value) in bench.data.inputs.iter().zip(inputs) {
                iss.write_mem(addr, value as $word);
            }
            if !iss.run(bench.max_cycles) {
                return Err(format!("{}: ISS did not halt", spec.label()));
            }
            ArchState {
                regs: iss.regs.iter().map(|&r| u64::from(r)).collect(),
                mem: iss.mem.iter().map(|&w| u64::from(w)).collect(),
            }
        }};
    }
    Ok(match CPUS[spec.cpu] {
        "bm32" => run!(bm32::Iss, u32),
        "omsp16" => run!(omsp16::Iss, u16),
        _ => run!(dr5::Iss, u32),
    })
}

/// The harness view of `original` on a netlist that was written to Verilog
/// and parsed back: same design facts, net and memory ids looked up by
/// name in the reparsed netlist's own numbering.
pub fn rebind(original: &Cpu, reparsed: Netlist) -> Result<Cpu, String> {
    let names = reparsed.net_name_map();
    let net = |id: NetId| -> Result<NetId, String> {
        let name = original.netlist.net_name(id);
        names
            .get(name)
            .copied()
            .ok_or_else(|| format!("{}: net {name} is gone", reparsed.name))
    };
    let nets = |ids: &[NetId]| ids.iter().map(|&id| net(id)).collect::<Result<Vec<_>, _>>();
    let memory = |index: usize| -> Result<usize, String> {
        let name = &original.netlist.memories()[index].name;
        reparsed
            .memories()
            .iter()
            .position(|m| &m.name == name)
            .ok_or_else(|| format!("{}: memory {name} is gone", reparsed.name))
    };
    let mut cpu = Cpu {
        name: original.name,
        pc: nets(&original.pc)?,
        monitor_qualifier: net(original.monitor_qualifier)?,
        monitor_signals: nets(&original.monitor_signals)?,
        split_signals: original.split_signals.as_deref().map(nets).transpose()?,
        finish: net(original.finish)?,
        pmem: memory(original.pmem)?,
        dmem: memory(original.dmem)?,
        data_width: original.data_width,
        reg_nets: original
            .reg_nets
            .iter()
            .map(|r| nets(r))
            .collect::<Result<_, _>>()?,
        // placeholder until the name map's borrow of `reparsed` ends
        netlist: Netlist::new(original.name),
    };
    drop(names);
    cpu.netlist = reparsed;
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::{all_pairs, benchmark};

    #[test]
    fn vectors_follow_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            all_pairs()
                .iter()
                .map(|p| vectors(&benchmark(p.cpu, p.bench), &mut rng, VECTORS_PER_PAIR))
                .collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        for (pair, vs) in all_pairs().iter().zip(&a) {
            let bench = benchmark(pair.cpu, pair.bench);
            assert_eq!(vs.len(), VECTORS_PER_PAIR);
            for v in vs {
                assert_eq!(v.len(), bench.data.inputs.len());
                for (&x, &example) in v.iter().zip(&bench.example_inputs) {
                    assert!((1..=example.max(1)).contains(&x), "{}", pair.label());
                }
            }
        }
    }
}
