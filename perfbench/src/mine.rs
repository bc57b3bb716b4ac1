//! The `mine` workload: the simulator as the figure binaries run it.
//!
//! Single process, offline, no service. One *pass* runs, on each graph:
//!
//! 1. the set-centric suite (`tc`, `kcc-4`, `mc`) on the paper-default
//!    `SisaConfig` (serial issue);
//! 2. the same suite on `SisaConfig::renamed(16)` (rename + out-of-order);
//! 3. one unbudgeted triangle count as a single `ShardedEngine::execute`
//!    batch over 4 shards.
//!
//! Every pass starts from freshly loaded engines, so its simulated counts
//! repeat exactly; the run checks that they do, that the serial and renamed
//! parts conserve work, and that every answer equals the `FunctionalEngine`
//! oracle.

use crate::inputs::relabel;
use crate::report::{median, percentile, ratio, Metrics, Outcome};
use crate::timed::{CallTimes, Timed, FAMILY_NAMES};
use crate::{Args, Size};
use sisa_algorithms::setcentric::{k_clique_count, maximal_cliques, triangle_count};
use sisa_algorithms::SearchLimits;
use sisa_core::{
    BatchOp, ExecStats, FunctionalEngine, PartitionStrategy, SetEngine, SetGraph, SetGraphConfig,
    ShardedEngine, SisaConfig, SisaRuntime,
};
use sisa_graph::orientation::{degeneracy_order, DegeneracyOrdering};
use sisa_graph::{datasets, CsrGraph};
use std::time::{Duration, Instant};

/// Graphs of the workload: dense clusters (PUM and bitvectors dominate) and
/// a sparse skewed social graph (PNM and galloping dominate).
const GRAPHS: [&str; 2] = ["bn-mouse", "soc-fbMsg"];
/// Structure seed of the dataset stand-ins; `--seed` relabels them.
const STRUCTURE_SEED: u64 = 1;
/// Shards of the batched part.
const SHARDS: usize = 4;
/// Reorder window of the renamed part (`SisaConfig::renamed`).
const RENAME_WINDOW: usize = 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest measured passes per run (rounded up to whole rounds of
/// relabellings).
const MIN_PASSES: usize = 8;
/// Percentile reported as `algorithms.task_p99_ms`.
const TAIL_PERCENTILE: f64 = 99.0;

/// Pattern budgets `(tc, kcc-4, mc)` per graph, sized so that the serial,
/// renamed and batched parts each take a visible share of a pass.
fn budgets(graph: &str, size: Size) -> [u64; 3] {
    let full = match graph {
        "bn-mouse" => [400_000, 150_000, 3_000],
        _ => [60_000, 30_000, 6_000],
    };
    match size {
        Size::Full => full,
        Size::Tiny => full.map(|b| b / 10),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pattern {
    Tc,
    Kcc4,
    Mc,
}

const PATTERNS: [Pattern; 3] = [Pattern::Tc, Pattern::Kcc4, Pattern::Mc];

/// A generated graph with its degeneracy orientation.
struct Prepared {
    name: &'static str,
    csr: CsrGraph,
    ordering: DegeneracyOrdering,
    oriented: CsrGraph,
    limits: [SearchLimits; 3],
}

/// An engine with both graph layouts loaded (oriented for cliques, plain
/// for Bron–Kerbosch).
struct Loaded<E> {
    engine: E,
    oriented: SetGraph,
    plain: SetGraph,
}

fn load<E: SetEngine>(mut engine: E, g: &Prepared) -> Loaded<E> {
    let cfg = SetGraphConfig::default();
    let oriented = SetGraph::load(&mut engine, &g.oriented, &cfg);
    let plain = SetGraph::load(&mut engine, &g.csr, &cfg);
    engine.reset_stats();
    Loaded {
        engine,
        oriented,
        plain,
    }
}

/// The sharded engine with the oriented graph loaded, plus the batch: one
/// counting intersection per oriented edge, whose counts sum to the
/// triangle count.
fn load_sharded(g: &Prepared) -> (ShardedEngine<SisaRuntime>, Vec<BatchOp>) {
    let mut engine = ShardedEngine::sisa(SHARDS, PartitionStrategy::Modulo, SisaConfig::default());
    let oriented = SetGraph::load(&mut engine, &g.oriented, &SetGraphConfig::default());
    engine.reset_stats();
    let mut ops = Vec::with_capacity(oriented.num_edges());
    for v in oriented.vertices() {
        for &w in oriented.neighbors(v) {
            ops.push(BatchOp::IntersectCount(
                oriented.neighborhood(v),
                oriented.neighborhood(w),
            ));
        }
    }
    (engine, ops)
}

/// One pattern run: its answer, host time and simulated statistics.
struct RunRecord {
    result: u64,
    started: Instant,
    wall: Duration,
    stats: ExecStats,
}

fn run_pattern<E: SetEngine>(l: &mut Loaded<E>, g: &Prepared, p: Pattern) -> RunRecord {
    l.engine.reset_stats();
    let limits = &g.limits[p as usize];
    let started = Instant::now();
    let result = match p {
        Pattern::Tc => triangle_count(&mut l.engine, &l.oriented, limits).result,
        Pattern::Kcc4 => k_clique_count(&mut l.engine, &l.oriented, 4, limits).result,
        Pattern::Mc => {
            maximal_cliques(&mut l.engine, &l.plain, &g.ordering, limits, false)
                .result
                .count
        }
    };
    RunRecord {
        result,
        started,
        wall: started.elapsed(),
        stats: l.engine.stats().clone(),
    }
}

/// Everything one pass measured.
#[derive(Default)]
struct Pass {
    /// Host seconds of the whole pass (all parts, both graphs), and the CPU
    /// seconds the process spent on it.
    wall: Duration,
    cpu: Duration,
    /// When the pass started, and when each pattern run (suite runs and
    /// batches) started and how many host seconds it took.
    started: Option<Instant>,
    run_starts: Vec<Instant>,
    run_walls: Vec<f64>,
    /// Host milliseconds of every mining task of the suite runs; reduced to
    /// the count, median and tail once the pass is checked.
    task_ms: Vec<f64>,
    tasks: usize,
    task_p50: f64,
    task_tail: f64,
    /// Answers in a fixed order: per graph, serial suite, renamed suite,
    /// batch count.
    answers: Vec<u64>,
    /// Simulated statistics in the same order as `answers`.
    stats: Vec<ExecStats>,
    /// Timed engine calls of the serial and renamed parts.
    serial_calls: CallTimes,
    renamed_calls: CallTimes,
    /// Host time of the serial and renamed suite runs (algorithm + engine)
    /// and of the batches.
    serial_wall: Duration,
    renamed_wall: Duration,
    batch_wall: Duration,
}

fn run_pass(graphs: &[Prepared], traced: bool) -> Pass {
    let mut pass = Pass::default();
    // Fresh engines per pass, loaded before the clock starts; the load's
    // own engine calls are not part of the pass.
    let mut engines: Vec<_> = graphs
        .iter()
        .map(|g| {
            let mut serial = load(
                Timed::new(SisaRuntime::new(SisaConfig::default()), traced),
                g,
            );
            let mut renamed = load(
                Timed::new(SisaRuntime::new(SisaConfig::renamed(RENAME_WINDOW)), traced),
                g,
            );
            serial.engine.times = CallTimes::default();
            renamed.engine.times = CallTimes::default();
            (serial, renamed, load_sharded(g))
        })
        .collect();

    let started = Instant::now();
    let cpu = crate::cpu::process();
    pass.started = Some(started);
    for (g, (serial, renamed, (sharded, ops))) in graphs.iter().zip(engines.iter_mut()) {
        for (part, loaded) in [(0, &mut *serial), (1, &mut *renamed)] {
            for p in PATTERNS {
                let run = run_pattern(loaded, g, p);
                pass.run_starts.push(run.started);
                pass.run_walls.push(run.wall.as_secs_f64());
                if part == 0 {
                    pass.serial_wall += run.wall;
                } else {
                    pass.renamed_wall += run.wall;
                }
                pass.answers.push(run.result);
                pass.stats.push(run.stats);
            }
        }
        let batch_started = Instant::now();
        let counts = sharded.execute(ops);
        let batch_wall = batch_started.elapsed();
        pass.batch_wall += batch_wall;
        pass.run_starts.push(batch_started);
        pass.run_walls.push(batch_wall.as_secs_f64());
        pass.answers
            .push(counts.iter().map(|c| c.count() as u64).sum());
        pass.stats.push(sharded.stats().clone());
    }
    pass.wall = started.elapsed();
    pass.cpu = crate::cpu::process() - cpu;
    for (serial, renamed, _) in &engines {
        pass.serial_calls.add(&serial.engine.times);
        pass.renamed_calls.add(&renamed.engine.times);
        pass.task_ms.extend(&serial.engine.task_ms);
        pass.task_ms.extend(&renamed.engine.task_ms);
    }
    pass
}

/// The oracle answers, in `Pass::answers` order, from `FunctionalEngine`:
/// the budgeted suite twice (serial and renamed parts) and the unbudgeted
/// triangle count for the batch. Also returns the functional engine's
/// timed calls for the two suite copies.
fn oracle(graphs: &[Prepared], traced: bool) -> (Vec<u64>, CallTimes) {
    let mut answers = Vec::new();
    let mut calls = CallTimes::default();
    for g in graphs {
        let mut functional = load(Timed::new(FunctionalEngine::new(), traced), g);
        functional.engine.times = CallTimes::default();
        for _part in 0..2 {
            for p in PATTERNS {
                answers.push(run_pattern(&mut functional, g, p).result);
            }
        }
        calls.add(&functional.engine.times);
        let full = triangle_count(
            &mut functional.engine,
            &functional.oriented,
            &SearchLimits::unlimited(),
        );
        answers.push(full.result);
    }
    (answers, calls)
}

/// Strips the scheduling view off a statistics record, leaving the serial
/// work counters every issue configuration must conserve.
fn work_only(stats: &ExecStats) -> ExecStats {
    let mut work = stats.clone();
    work.makespan_cycles = 0;
    work.dep_stall_cycles = 0;
    work.dep_stall_by_opcode.clear();
    work.false_dep_stalls_removed = 0;
    work.false_dep_removed_by_opcode.clear();
    work.bypassed_instructions = 0;
    work.bypass_by_opcode.clear();
    work
}

/// Generates the workload's inputs: `VARIANTS` relabellings of each graph,
/// oriented and loaded once into every engine a pass uses. Returns the
/// variants and the host time of generation, orientation and loading.
fn prepare(seed: u64, size: Size) -> (Vec<Vec<Prepared>>, [Duration; 3]) {
    let mut generate = Duration::ZERO;
    let mut orient = Duration::ZERO;
    let mut load_time = Duration::ZERO;
    let started = Instant::now();
    let structures: Vec<CsrGraph> = GRAPHS
        .iter()
        .map(|&name| {
            datasets::by_name(name)
                .expect("registered stand-in")
                .generate(STRUCTURE_SEED)
        })
        .collect();
    generate += started.elapsed();
    let variants = (0..variants(size))
        .map(|v| {
            GRAPHS
                .iter()
                .zip(&structures)
                .enumerate()
                .map(|(i, (&name, structure))| {
                    let started = Instant::now();
                    let key = seed
                        .wrapping_mul(131)
                        .wrapping_add((v * GRAPHS.len() + i) as u64);
                    let csr = relabel(structure, key);
                    generate += started.elapsed();
                    let started = Instant::now();
                    let ordering = degeneracy_order(&csr);
                    let oriented = ordering.orient(&csr);
                    orient += started.elapsed();
                    let g = Prepared {
                        name,
                        csr,
                        ordering,
                        oriented,
                        limits: budgets(name, size).map(SearchLimits::patterns),
                    };
                    let started = Instant::now();
                    drop(load(SisaRuntime::new(SisaConfig::default()), &g));
                    drop(load(
                        SisaRuntime::new(SisaConfig::renamed(RENAME_WINDOW)),
                        &g,
                    ));
                    drop(load_sharded(&g));
                    load_time += started.elapsed();
                    g
                })
                .collect()
        })
        .collect();
    (variants, [generate, orient, load_time])
}

/// The pattern runs of one graph in a pass, in `Pass::answers` order.
const CELLS: [&str; 7] = [
    "serial tc",
    "serial kcc-4",
    "serial mc",
    "renamed tc",
    "renamed kcc-4",
    "renamed mc",
    "batch tc",
];

/// Relabellings of each graph per run. Passes cycle through them, so a
/// run's medians cover several vertex orders and budget cut-offs instead
/// of one.
fn variants(size: Size) -> usize {
    match size {
        Size::Full => 4,
        Size::Tiny => 2,
    }
}

/// Per-pass correctness bookkeeping.
#[derive(Default)]
struct Check {
    errors: Vec<String>,
    failed: u64,
    passes: usize,
}

impl Check {
    /// Checks a pass's answers against the oracle and its simulated counts
    /// against the first pass of the same relabelling (`first`), then
    /// reduces it to its summary (a first pass keeps its statistics).
    fn pass(
        &mut self,
        mut pass: Pass,
        expected: &[u64],
        first: Option<&Pass>,
    ) -> Result<Pass, String> {
        let i = self.passes;
        self.passes += 1;
        for (j, (got, want)) in pass.answers.iter().zip(expected).enumerate() {
            if got != want {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors
                        .push(format!("pass {i} answer {j}: got {got}, oracle {want}"));
                }
            }
        }
        if let Some(first) = first {
            if pass.stats != first.stats {
                self.errors.push(format!(
                    "pass {i}: simulated counts differ from the relabelling's first pass"
                ));
            }
            pass.stats = Vec::new();
        }
        pass.tasks = pass.task_ms.len();
        pass.task_p50 = percentile(&pass.task_ms, 50.0)?;
        pass.task_tail = percentile(&pass.task_ms, TAIL_PERCENTILE)?;
        pass.task_ms = Vec::new();
        Ok(pass)
    }
}

/// The mean over the `k` relabellings of the median of `f` over each
/// relabelling's passes (pass `i` ran relabelling `i % k`). A relabelling
/// moves budget cut-offs and so a pass's cost; weighting every relabelling
/// equally keeps the figure from jumping between them.
fn per_relabelling(passes: &[Pass], k: usize, f: impl Fn(&Pass) -> f64) -> f64 {
    let medians: f64 = (0..k)
        .map(|v| median(&passes.iter().skip(v).step_by(k).map(&f).collect::<Vec<_>>()))
        .sum();
    medians / k as f64
}

/// A traced pass with the `FunctionalEngine` time of the same suites.
struct TracedPass {
    pass: Pass,
    kernel: CallTimes,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut variants = Vec::new();
    // `setup_s` is CPU time, like `cpu_s`; the layers are wall time.
    for _ in 0..SETUP_REPS {
        let cpu = crate::cpu::process();
        let (prepared, layers) = prepare(args.seed, args.size);
        setups.push((crate::cpu::process() - cpu, layers));
        variants = prepared;
    }
    let k = variants.len();
    for g in &variants[0] {
        println!(
            "# graph {}: {} vertices, {} edges, degeneracy {}, budgets tc/kcc-4/mc {:?}, {k} relabellings",
            g.name,
            g.csr.num_vertices(),
            g.csr.num_edges(),
            g.ordering.degeneracy,
            budgets(g.name, args.size)
        );
    }

    let mut expected: Vec<Vec<u64>> = variants.iter().map(|g| oracle(g, false).0).collect();
    if args.corrupt_oracle {
        expected[0][0] += 1;
    }

    // Measured passes, cycling through the relabellings; every relabelling
    // gets the same number of passes. A traced run alternates untraced and
    // traced passes, so the tracing overhead is measured on the same inputs
    // and the same machine state. Each pass is checked as it completes and
    // then reduced to its summary, so memory does not grow with the number
    // of passes.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let mut check = Check::default();
    let min_passes = if args.trace {
        k
    } else {
        MIN_PASSES.next_multiple_of(k)
    };
    while untraced.len() < min_passes
        || !untraced.len().is_multiple_of(k)
        || Instant::now() < deadline
    {
        let v = untraced.len() % k;
        let pass = run_pass(&variants[v], false);
        let pass = check.pass(pass, &expected[v], untraced.get(v))?;
        untraced.push(pass);
        if args.trace {
            let pass = run_pass(&variants[v], true);
            let pass = check.pass(pass, &expected[v], untraced.get(v))?;
            let (_, kernel) = oracle(&variants[v], true);
            traced.push(TracedPass { pass, kernel });
        }
    }
    let Check {
        mut errors,
        failed,
        passes,
    } = check;

    // Work conservation: the serial and renamed parts of a pass differ in
    // their schedule only.
    let per_graph = 2 * PATTERNS.len() + 1;
    for (v, graphs) in variants.iter().enumerate() {
        for (gi, g) in graphs.iter().enumerate() {
            for pi in 0..PATTERNS.len() {
                let serial = &untraced[v].stats[gi * per_graph + pi];
                let renamed = &untraced[v].stats[gi * per_graph + PATTERNS.len() + pi];
                if work_only(serial) != work_only(renamed)
                    || serial.energy_nj.to_bits() != renamed.energy_nj.to_bits()
                {
                    errors.push(format!("{}: renamed run does not conserve work", g.name));
                }
            }
        }
    }
    let attempted = (passes * untraced[0].answers.len()) as u64;
    let mut correct = errors.is_empty();

    for (gi, g) in variants[0].iter().enumerate() {
        for (ci, cell) in CELLS.iter().enumerate() {
            let i = gi * per_graph + ci;
            let times: Vec<f64> = untraced.iter().map(|p| p.run_walls[i] * 1e3).collect();
            println!(
                "# {} {cell}: answer {}, median {:.3} ms, {} instructions (first relabelling)",
                g.name,
                untraced[0].answers[i],
                median(&times),
                untraced[0].stats[i].total_instructions()
            );
        }
    }

    let secs = |d: Duration| d.as_secs_f64();
    let mut m = Metrics::default();
    let setup_total: Vec<f64> = setups.iter().map(|(t, _)| t.as_secs_f64()).collect();
    if !args.trace {
        let tasks: usize = untraced.iter().map(|p| p.tasks).sum();
        let spread = |f: fn(&Pass) -> Duration| {
            crate::report::spread(&untraced.iter().map(|p| secs(f(p))).collect::<Vec<_>>())
        };
        println!(
            "# {} passes, {tasks} mining tasks; wall {}; cpu {}",
            untraced.len(),
            spread(|p| p.wall),
            spread(|p| p.cpu)
        );
        m.set("setup_s", median(&setup_total), "s");
        m.set("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        m.set("cpu_s", per_relabelling(&untraced, k, |p| secs(p.cpu)), "s");
        for e in &errors {
            println!("# FAIL {e}");
        }
        return Ok(Outcome {
            correct,
            attempted,
            failed,
            metrics: m,
        });
    }

    // Per-layer numbers: per traced pass, then the median over passes.
    let med = |f: &dyn Fn(usize, &TracedPass) -> f64| {
        median(
            &traced
                .iter()
                .enumerate()
                .map(|(i, t)| f(i % k, t))
                .collect::<Vec<_>>(),
        )
    };
    let engine =
        |t: &TracedPass| t.pass.serial_calls.total_time() + t.pass.renamed_calls.total_time();
    let suite_instr = |v: usize| -> u64 {
        (0..GRAPHS.len())
            .flat_map(|gi| (0..2 * PATTERNS.len()).map(move |c| gi * per_graph + c))
            .map(|i| untraced[v].stats[i].total_instructions())
            .sum()
    };
    let layer = |i: usize| median(&setups.iter().map(|(_, l)| secs(l[i])).collect::<Vec<_>>());
    m.set("graph.generate_s", layer(0), "s");
    m.set("graph.orient_s", layer(1), "s");
    m.set("core.load_s", layer(2), "s");
    let engine_s = med(&|_, t| secs(engine(t)));
    let kernel_s = med(&|_, t| secs(t.kernel.total_time()));
    let calls = med(&|_, t| {
        (t.pass.serial_calls.total_calls() + t.pass.renamed_calls.total_calls()) as f64
    });
    m.set(
        "algorithms.self_s",
        med(&|_, t| secs(t.pass.serial_wall + t.pass.renamed_wall) - secs(engine(t))),
        "s",
    );
    m.set("core.engine_s", engine_s, "s");
    m.set("core.calls", calls, "count");
    m.set(
        "wall_s",
        per_relabelling(&untraced, k, |p| secs(p.wall)),
        "s",
    );
    m.set(
        "algorithms.task_p50_ms",
        per_relabelling(&untraced, k, |p| p.task_p50),
        "ms",
    );
    m.set(
        "algorithms.task_p99_ms",
        per_relabelling(&untraced, k, |p| p.task_tail),
        "ms",
    );
    m.set(
        "core.ns_per_call",
        med(&|_, t| {
            ratio(
                secs(engine(t)) * 1e9,
                t.pass.serial_calls.total_calls() as f64
                    + t.pass.renamed_calls.total_calls() as f64,
            )
        }),
        "ns",
    );
    for (f, name) in FAMILY_NAMES.iter().enumerate() {
        let time = med(&|_, t| secs(t.pass.serial_calls.time[f] + t.pass.renamed_calls.time[f]));
        m.set(&format!("core.{name}_s"), time, "s");
    }
    m.set("sets.kernel_s", kernel_s, "s");
    m.set(
        "core.pricing_s",
        med(&|_, t| secs(engine(t)) - secs(t.kernel.total_time())),
        "s",
    );
    m.set(
        "core.pricing_ns_per_instr",
        med(&|v, t| {
            ratio(
                (secs(engine(t)) - secs(t.kernel.total_time())) * 1e9,
                suite_instr(v) as f64,
            )
        }),
        "ns",
    );
    m.set(
        "core.ooo_s",
        med(&|_, t| {
            secs(t.pass.renamed_calls.total_time()) - secs(t.pass.serial_calls.total_time())
        }),
        "s",
    );
    let batch_priced = med(&|_, t| secs(t.pass.batch_wall));
    m.set("core.batch_priced_s", batch_priced, "s");

    // The raw host-kernel layer beneath the batch: `host_count_batch` on
    // the same loaded shards and ops, for every relabelling.
    let mut raw = Vec::new();
    for (v, graphs) in variants.iter().enumerate() {
        let mut pass_raw = 0.0;
        for (gi, g) in graphs.iter().enumerate() {
            let (sharded, ops) = load_sharded(g);
            let started = Instant::now();
            let counts = sharded.host_count_batch(&ops);
            pass_raw += started.elapsed().as_secs_f64();
            let total: u64 = counts.iter().map(|&c| c as u64).sum();
            if total != expected[v][gi * per_graph + per_graph - 1] {
                errors.push(format!(
                    "{}: host_count_batch disagrees with the oracle",
                    g.name
                ));
            }
        }
        raw.push(pass_raw);
    }
    let batch_raw = median(&raw);
    m.set("core.batch_raw_s", batch_raw, "s");
    m.set(
        "core.batch_priced_over_raw",
        ratio(batch_priced, batch_raw),
        "ratio",
    );

    // Exact simulated counts: one pass of every relabelling.
    let fold =
        untraced[..k]
            .iter()
            .flat_map(|p| &p.stats)
            .fold(ExecStats::default(), |mut acc, s| {
                acc.merge(s);
                acc
            });
    let makespan: u64 = untraced[..k]
        .iter()
        .flat_map(|p| &p.stats)
        .map(|s| s.makespan_cycles)
        .sum();
    m.set(
        "sim.instructions",
        fold.total_instructions() as f64,
        "count",
    );
    m.set("sim.total_cycles", fold.total_cycles() as f64, "cycles");
    m.set("sim.makespan_cycles", makespan as f64, "cycles");
    m.set(
        "sim.dep_stall_cycles",
        fold.dep_stall_cycles as f64,
        "cycles",
    );
    m.set(
        "sim.false_dep_stalls_removed",
        fold.false_dep_stalls_removed as f64,
        "count",
    );
    m.set("sim.pum_ops", fold.pum_ops as f64, "count");
    m.set("sim.pnm_ops", fold.pnm_ops as f64, "count");
    m.set(
        "sim.gallop_share",
        ratio(
            fold.gallop_selected as f64,
            (fold.gallop_selected + fold.merge_selected) as f64,
        ),
        "ratio",
    );
    m.set("sim.smb_hit_ratio", fold.smb_hit_ratio(), "ratio");
    m.set("sim.link_bytes", fold.link_bytes as f64, "bytes");
    m.set(
        "sim.instr_per_s",
        med(&|v, t| {
            let instr: u64 = untraced[v]
                .stats
                .iter()
                .map(ExecStats::total_instructions)
                .sum();
            ratio(instr as f64, secs(t.pass.wall))
        }),
        "1/s",
    );

    // Layer-sum identity: every traced pass is covered by algorithm self
    // time, engine calls and the batches, up to the glue between runs.
    let unaccounted: Vec<f64> = traced
        .iter()
        .map(|t| {
            secs(t.pass.wall) - secs(t.pass.serial_wall + t.pass.renamed_wall + t.pass.batch_wall)
        })
        .collect();
    let violations = traced
        .iter()
        .zip(&unaccounted)
        .filter(|(t, u)| {
            u.abs() > (0.002f64).max(0.005 * secs(t.pass.wall))
                || t.pass.serial_wall + t.pass.renamed_wall < engine(t)
        })
        .count();
    let traced_wall = med(&|_, t| secs(t.pass.wall));
    let untraced_wall = median(&untraced.iter().map(|p| secs(p.wall)).collect::<Vec<_>>());
    m.set("trace.wall_s", traced_wall, "s");
    m.set("trace.unaccounted_s", median(&unaccounted), "s");
    m.set("trace.identity_violations", violations as f64, "count");
    m.set(
        "trace.overhead_ratio",
        ratio(traced_wall - untraced_wall, untraced_wall),
        "ratio",
    );
    if violations > 0 {
        errors.push(format!(
            "layer-sum identity broken in {violations} traced passes"
        ));
    }

    // Spans of the traced passes: one per pass, one per pattern run inside.
    let epoch = traced[0].pass.started.expect("a measured pass started");
    let mut spans = crate::spans::Spans::new(epoch);
    for t in &traced {
        let p = &t.pass;
        let start = p.started.expect("a measured pass started");
        let engine_ms = secs(engine(t)) * 1e3;
        spans.span(
            "pass",
            1,
            start,
            p.wall.as_nanos() as u64,
            &[("engine_ms", engine_ms)],
        );
        for (i, (&at, &wall)) in p.run_starts.iter().zip(&p.run_walls).enumerate() {
            let name = format!("{} {}", GRAPHS[i / per_graph], CELLS[i % per_graph]);
            spans.span(&name, 1, at, (wall * 1e9) as u64, &[]);
        }
    }
    let file = format!("trace-mine-seed{}.json", args.seed);
    let path = spans
        .write(&file)
        .map_err(|e| format!("write {file}: {e}"))?;
    println!("# spans written to {}", path.display());
    for e in &errors {
        println!("# FAIL {e}");
    }
    correct &= errors.is_empty();
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    })
}
