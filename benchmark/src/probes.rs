//! Layer probes: fixed micro-scenarios that time one public function of one
//! layer from outside, on states captured from real analyses. They are the
//! same on every workload, run only in the traced run, and use fixed
//! repetition counts, so a probe's number means the same thing wherever it
//! is read. Each value is a median over the repetitions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use symsim_core::sched::{TaskWeight, WorkQueue};
use symsim_core::{
    fingerprint, CoAnalysis, CoAnalysisConfig, ConservativeStateManager, Observation,
};
use symsim_cpu::{Cpu, DataImage};
use symsim_logic::Value;
use symsim_netlist::NetId;
use symsim_sim::{HaltReason, SimConfig, SimState, Simulator};

use crate::pairs::{
    all_pairs, assemble, benchmark, build_cpu, build_cpus, build_pairs, config, pairs_of, Pair,
};
use crate::spec::{BRANCHY, CPUS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::validate::run_iss;

/// Metric name to value.
pub type Metrics = BTreeMap<String, f64>;

/// Median time of `reps` calls of `f`, in seconds.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Like [`time`], with an untimed `before` ahead of every call; both work
/// on the same `ctx` (usually the simulator under test).
fn time_after<C, S, T>(
    reps: usize,
    ctx: &mut C,
    mut before: impl FnMut(&mut C) -> S,
    mut f: impl FnMut(&mut C, S) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = before(ctx);
            let start = Instant::now();
            black_box(f(ctx, input));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A simulator armed the way the explorer arms its workers' simulators.
fn armed<'c>(cpu: &'c Cpu) -> Simulator<'c> {
    let mut sim = Simulator::new(&cpu.netlist, SimConfig::default());
    sim.monitor_x(cpu.interface().monitor);
    sim.set_finish_net(cpu.finish);
    sim.arm_toggle_observer();
    sim
}

/// A real fork site: the first `$monitor_x` halt of a pair, the signals
/// that were unknown there, and a later state of one of its children.
struct ForkSite<'p, 'c> {
    pair: &'p Pair<'c>,
    halted: SimState,
    signals: Vec<NetId>,
    later: SimState,
}

impl<'p, 'c> ForkSite<'p, 'c> {
    fn capture(pair: &'p Pair<'c>) -> ForkSite<'p, 'c> {
        let mut sim = armed(pair.cpu);
        sim.load_state(&pair.root);
        let HaltReason::MonitorX { signals } = sim.run(pair.bench.max_cycles) else {
            panic!("{}: no input-dependent branch to probe", pair.spec.label());
        };
        let halted = sim.save_state();
        // like the explorer, steer with the design's split signals when it
        // names some, and only with those that are unknown here
        let signals = pair.cpu.split_signals.clone().unwrap_or(signals);
        let unknown = |net: &NetId| halted.values[net.0 as usize].is_unknown();
        let mut site = ForkSite {
            pair,
            signals: signals.into_iter().filter(unknown).collect(),
            later: pair.root.clone(),
            halted,
        };
        site.fork_child(&mut sim, 0);
        sim.run(pair.bench.max_cycles);
        let later = sim.save_state();
        // the widen probe needs a state the halted one does not cover; the
        // root snapshot (cycle 0) always is one
        if !site.halted.covers(&later) {
            site.later = later;
        }
        site
    }

    /// What the explorer does to start child `combo` of this fork.
    fn fork_child(&self, sim: &mut Simulator<'_>, combo: usize) {
        sim.load_state(&self.halted);
        for (bit, &net) in self.signals.iter().enumerate() {
            sim.force(net, Value::from_bool(combo >> bit & 1 == 1));
        }
        sim.settle();
        sim.step_cycle();
        sim.release_all();
    }

    /// Moves `sim` a few cycles down a child, so the next restore finds a
    /// realistically different state (restores patch only what differs).
    fn wander(&self, sim: &mut Simulator<'_>, combo: usize) {
        self.fork_child(sim, combo);
        for _ in 0..8 {
            if sim.step_cycle().is_some() {
                break;
            }
        }
    }
}

struct Unit;
impl TaskWeight for Unit {}

/// Runs every probe and returns its metrics. Writes one scratch file, the
/// probe ledger, under `out_dir`.
pub fn run_all(out_dir: &Path, t: &mut Tracer) -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let specs = all_pairs();

    // ---- cpu ----
    t.span("probe.cpu", |_| {
        let build_s = time(5, || (0..CPUS.len()).map(build_cpu).collect::<Vec<_>>());
        m.insert("cpu.build_ms".into(), build_s * 1e3);
        let assemble_s = time(10, || {
            for p in &specs {
                let bench = benchmark(p.cpu, p.bench);
                black_box(assemble(p.cpu, bench.source));
            }
        });
        m.insert("cpu.assemble_ms".into(), assemble_s * 1e3);
    });

    let mut quiet = Tracer::new(false);
    let cpus = build_cpus(&specs, &mut quiet);
    let pairs = build_pairs(&cpus, &specs, 1, &mut quiet);
    let pair = |cpu: &str, bench: &str| {
        pairs
            .iter()
            .find(|p| CPUS[p.spec.cpu] == cpu && p.spec.bench == bench)
            .expect("one of the 18 pairs")
    };

    t.span("probe.cpu.iss", |_| -> Result<(), String> {
        let mut failure = None;
        let iss_s = time(5, || {
            for p in &pairs {
                let ran = run_iss(p.spec, &p.program, &p.bench, &p.bench.example_inputs);
                if let Err(why) = black_box(ran) {
                    failure = Some(why);
                }
            }
        });
        m.insert("cpu.iss_ms".into(), iss_s * 1e3);
        failure.map_or(Ok(()), Err)
    })?;

    // ---- verilog ----
    t.span("probe.verilog", |_| -> Result<(), String> {
        let built: Vec<&Cpu> = cpus.iter().flatten().collect();
        let mut texts = Vec::new();
        let write_s = time(3, || {
            texts = built
                .iter()
                .map(|c| symsim_verilog::write_netlist(&c.netlist))
                .collect();
        });
        let mut failure = None;
        let parse_s = time(3, || {
            for text in &texts {
                if let Err(e) = symsim_verilog::parse_netlist(text) {
                    failure = Some(format!("a shipped CPU does not parse back: {e}"));
                }
            }
        });
        m.insert("verilog.write_ms".into(), write_s * 1e3);
        m.insert("verilog.parse_ms".into(), parse_s * 1e3);
        let bytes: usize = texts.iter().map(String::len).sum();
        m.insert("verilog.bytes".into(), bytes as f64);
        failure.map_or(Ok(()), Err)
    })?;

    // ---- bespoke, on the three straight-line profiles ----
    t.span("probe.bespoke", |_| {
        let reports: Vec<_> = CPUS.iter().map(|cpu| pair(cpu, "tea8").run()).collect();
        let mut gates_out = 0;
        let generate_s = time(3, || {
            gates_out = CPUS
                .iter()
                .zip(&reports)
                .map(|(cpu, r)| {
                    let netlist = &pair(cpu, "tea8").cpu.netlist;
                    symsim_bespoke::generate(netlist, &r.profile)
                        .report
                        .bespoke_gates
                })
                .sum();
        });
        m.insert("bespoke.generate_ms".into(), generate_s * 1e3);
        m.insert("bespoke.gates_out".into(), gates_out as f64);
    });

    // ---- sim: construction, preparation, cycle rates ----
    t.span("probe.sim.rates", |_| {
        let tea8: Vec<&Pair> = CPUS.iter().map(|cpu| pair(cpu, "tea8")).collect();
        let new_s = time(5, || {
            tea8.iter()
                .map(|p| Simulator::new(&p.cpu.netlist, SimConfig::default()))
                .collect::<Vec<_>>()
        });
        m.insert("sim.new_ms".into(), new_s * 1e3);
        let prepare_s = time_after(
            5,
            &mut (),
            |()| {
                tea8.iter()
                    .map(|p| Simulator::new(&p.cpu.netlist, SimConfig::default()))
                    .collect::<Vec<_>>()
            },
            |(), mut sims| {
                for (sim, p) in sims.iter_mut().zip(&tea8) {
                    p.cpu.prepare_symbolic(sim, &p.program, &p.bench.data);
                    sim.settle();
                }
                sims
            },
        );
        m.insert("sim.prepare_ms".into(), prepare_s * 1e3);

        for p in &tea8 {
            let cpu = CPUS[p.spec.cpu];
            // symbolic: inputs X, from the root snapshot to the finish net
            let mut sim = armed(p.cpu);
            let mut cycles = 0;
            let sym_s = time_after(
                10,
                &mut sim,
                |sim| sim.load_state(&p.root),
                |sim, ()| {
                    sim.run(p.bench.max_cycles);
                    cycles = sim.cycle() - p.root.cycle;
                },
            );
            m.insert(format!("sim.sym_cycles_per_s.{cpu}"), cycles as f64 / sym_s);
            // concrete: the shipped example inputs, all values known
            let mut cycles = 0;
            let conc_s = time_after(
                10,
                &mut (),
                |()| {
                    let mut sim = Simulator::new(&p.cpu.netlist, SimConfig::default());
                    p.cpu.prepare_concrete(
                        &mut sim,
                        &p.program,
                        &p.bench.data,
                        &p.bench.example_inputs,
                    );
                    sim.set_finish_net(p.cpu.finish);
                    sim.arm_toggle_observer();
                    sim
                },
                |(), mut sim| {
                    sim.run(p.bench.max_cycles);
                    cycles = sim.cycle();
                },
            );
            m.insert(
                format!("sim.conc_cycles_per_s.{cpu}"),
                cycles as f64 / conc_s,
            );
        }
    });

    // ---- sim + core.csm: the per-path work, at real fork sites ----
    t.span("probe.fork", |_| {
        let mut by_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for cpu in CPUS {
            let site = &ForkSite::capture(pair(cpu, "binsearch"));
            // the simulator under test and a counter that walks the
            // fork's children, so successive restores differ
            let combos = 1usize << site.signals.len();
            let mut ctx = (armed(site.pair.cpu), 0usize);
            let wander = |(sim, rep): &mut (Simulator<'_>, usize)| {
                *rep += 1;
                site.wander(sim, *rep % combos);
                *rep % combos
            };
            // cycle rate along forked paths: each child of the fork, from
            // its first clock edge to its next halt
            let (mut cycles, mut seconds) = (0, 0.0);
            for combo in (0..combos).cycle().take(40) {
                site.fork_child(&mut ctx.0, combo);
                let (from, start) = (ctx.0.cycle(), Instant::now());
                ctx.0.run(site.pair.bench.max_cycles);
                seconds += start.elapsed().as_secs_f64();
                cycles += ctx.0.cycle() - from;
            }
            m.insert(
                format!("sim.path_cycles_per_s.{cpu}"),
                cycles as f64 / seconds,
            );
            if cpu == "omsp16" {
                // the per-path costs are read where paths storm: bm32, dr5
                continue;
            }
            let mut sample = |name: &'static str, seconds: f64| {
                by_metric.entry(name).or_default().push(seconds * 1e6);
            };
            let save = time_after(200, &mut ctx, wander, |(sim, _), _| sim.save_state());
            sample("sim.save_state_us", save);
            let load = time_after(200, &mut ctx, wander, |(sim, _), _| {
                sim.load_state(&site.halted)
            });
            sample("sim.load_state_us", load);
            // the clock edge the explorer takes between settle and release
            // is left out: it is a simulated cycle, counted as simulation
            let fork = time_after(200, &mut ctx, wander, |(sim, _), combo| {
                sim.load_state(&site.halted);
                for (bit, &net) in site.signals.iter().enumerate() {
                    sim.force(net, Value::from_bool(combo >> bit & 1 == 1));
                }
                sim.settle();
                sim.release_all();
            });
            sample("sim.fork_child_us", fork);
            sample(
                "sim.state_covers_us",
                time(200, || site.halted.covers(black_box(&site.halted))),
            );
            sample(
                "sim.state_merge_us",
                time(200, || site.halted.merge(black_box(&site.later))),
            );

            // the CSM with the shipped policy, holding this site's state
            let policy = CoAnalysisConfig::default().policy;
            let seeded = || {
                let mut csm = ConservativeStateManager::new(policy);
                csm.observe(0, &site.halted);
                csm
            };
            let widen = time_after(
                100,
                &mut (),
                |()| seeded(),
                |(), mut csm| {
                    let widened =
                        matches!(csm.observe(0, &site.later), Observation::NewConservative(_));
                    assert!(widened, "the later state must not be covered");
                    csm
                },
            );
            sample("csm.observe_widen_us", widen);
            let mut csm = seeded();
            let covered = time(200, || {
                let covered = csm.observe(0, &site.halted) == Observation::Covered;
                assert!(covered, "a stored state covers itself");
            });
            sample("csm.observe_covered_us", covered);

            let bytes = site.halted.owned_bytes()
                + site
                    .halted
                    .mems
                    .iter()
                    .map(|a| a.content_bytes())
                    .sum::<usize>();
            by_metric
                .entry("sim.state_bytes")
                .or_default()
                .push(bytes as f64);
        }
        for (name, per_site) in by_metric {
            m.insert(name.into(), mean(&per_site));
        }
    });

    // ---- core.sched ----
    t.span("probe.sched", |_| {
        const ROUNDS: usize = 20_000;
        let queue: WorkQueue<Unit> = WorkQueue::new(1);
        let block_s = time(9, || {
            for _ in 0..ROUNDS {
                queue.inject(Unit);
                let task = queue.next_task(0);
                queue.task_done(task.map_or(1, |u| u.weight()));
            }
        });
        m.insert("sched.roundtrip_ns".into(), block_s * 1e9 / ROUNDS as f64);
    });

    // ---- core.explore / core.report / obs: the fixed cost of one run ----
    t.span("probe.fixed", |_| -> Result<(), String> {
        // a program that halts at once: one path, one cycle, so the run is
        // all fixed cost (two simulators, root snapshot, report assembly)
        let data = DataImage::default();
        let mut last = None;
        for (i, name) in CPUS.iter().enumerate() {
            let cpu = cpus[i].as_ref().expect("all three are built");
            let halt = assemble(i, "halt");
            let analysis = CoAnalysis::new(&cpu.netlist, cpu.interface(), config(1, 100))?;
            let run = || analysis.run(|sim| cpu.prepare_symbolic(sim, &halt, &data));
            let mut report = run();
            let fixed_s = time(10, || report = run());
            m.insert(format!("explore.fixed_ms.{name}"), fixed_s * 1e3);
            let design = fingerprint::design_fingerprint(&cpu.netlist);
            last = Some((report, design, fingerprint::program_fingerprint(&halt)));
        }
        // report and ledger assembly, on the last of those runs
        let (report, design, program) = last.expect("three CPUs");
        m.insert(
            "report.to_json_ms".into(),
            time(20, || report.to_json()) * 1e3,
        );
        let cfg = fingerprint::config_string(&config(1, 100));
        let record = || report.ledger_record("bench", "dr5/halt", design, program, &cfg);
        m.insert("report.ledger_record_ms".into(), time(20, record) * 1e3);
        let ledger = out_dir.join("probe-ledger.ndjson");
        // a fresh file each run keeps the scratch ledger from growing
        let _ = std::fs::remove_file(&ledger);
        let record = record();
        let mut failure = None;
        let append_s = time(20, || {
            if let Err(why) = symsim_obs::ledger::append(&ledger, &record) {
                failure = Some(why);
            }
        });
        m.insert("obs.ledger_append_ms".into(), append_s * 1e3);
        failure.map_or(Ok(()), Err)
    })?;

    // ---- core.explore: every pair at one worker, and the two-worker ratio ----
    t.span("probe.sweep", |_| {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); pairs.len()];
        for _ in 0..3 {
            for (p, own) in pairs.iter().zip(&mut samples) {
                own.push(time(1, || p.run()));
            }
        }
        let mut storm_w1_s = 0.0;
        for (p, own) in pairs.iter().zip(&samples) {
            let cpu = CPUS[p.spec.cpu];
            let pair_s = median(own);
            m.insert(
                format!("explore.pair_ms.{cpu}.{}", p.spec.bench),
                pair_s * 1e3,
            );
            if cpu != "omsp16" && BRANCHY.contains(&p.spec.bench) {
                storm_w1_s += pair_s;
            }
        }
        let storm = build_pairs(&cpus, &pairs_of("pathstorm_w2"), 2, &mut quiet);
        let storm_w2_s = time(3, || storm.iter().map(Pair::run).collect::<Vec<_>>());
        m.insert("sched.speedup_w2".into(), storm_w1_s / storm_w2_s);
    });

    Ok(m)
}
