//! The repository's benchmark: one command, three workloads, every answer
//! checked against an oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mine|serve-miss|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer metrics of a traced run of the
//! same workload (see `perfbench/README.md`). The exit code is 0 only when
//! every answer matched its oracle.

mod cpu;
mod inputs;
mod mine;
mod report;
mod serve;
mod spans;
mod timed;

use report::Outcome;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["mine", "serve-miss", "serve-hot"];

/// End-to-end metrics (`--trace 0`), reported by every workload.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("cpu_s", "s")];

/// Which workloads measure a per-layer metric.
#[derive(Clone, Copy, PartialEq, Eq)]
enum On {
    All,
    Mine,
    Serve,
}

/// Per-layer metrics (`--trace 1`). A workload that does not exercise a
/// layer reports 0 for it.
const PER_LAYER: &[(&str, &str, On)] = &[
    ("wall_s", "s", On::All),
    ("graph.generate_s", "s", On::All),
    ("graph.orient_s", "s", On::Mine),
    ("core.load_s", "s", On::Mine),
    ("algorithms.self_s", "s", On::Mine),
    ("core.engine_s", "s", On::Mine),
    ("core.calls", "count", On::Mine),
    ("algorithms.task_p50_ms", "ms", On::Mine),
    ("algorithms.task_p99_ms", "ms", On::Mine),
    ("core.ns_per_call", "ns", On::Mine),
    ("core.lifecycle_s", "s", On::Mine),
    ("core.query_s", "s", On::Mine),
    ("core.update_s", "s", On::Mine),
    ("core.binary_s", "s", On::Mine),
    ("core.host_s", "s", On::Mine),
    ("sets.kernel_s", "s", On::Mine),
    ("core.pricing_s", "s", On::Mine),
    ("core.pricing_ns_per_instr", "ns", On::Mine),
    ("core.ooo_s", "s", On::Mine),
    ("core.batch_priced_s", "s", On::Mine),
    ("core.batch_raw_s", "s", On::Mine),
    ("core.batch_priced_over_raw", "ratio", On::Mine),
    ("sim.instructions", "count", On::Mine),
    ("sim.total_cycles", "cycles", On::Mine),
    ("sim.makespan_cycles", "cycles", On::Mine),
    ("sim.dep_stall_cycles", "cycles", On::Mine),
    ("sim.false_dep_stalls_removed", "count", On::Mine),
    ("sim.pum_ops", "count", On::Mine),
    ("sim.pnm_ops", "count", On::Mine),
    ("sim.gallop_share", "ratio", On::Mine),
    ("sim.smb_hit_ratio", "ratio", On::Mine),
    ("sim.link_bytes", "bytes", On::Mine),
    ("sim.instr_per_s", "1/s", On::Mine),
    ("trace.wall_s", "s", On::Mine),
    ("service.start_s", "s", On::Serve),
    ("service.warmup_s", "s", On::Serve),
    ("p50_ms.low", "ms", On::Serve),
    ("p99_ms.low", "ms", On::Serve),
    ("samples.low", "count", On::Serve),
    ("p50_ms.high", "ms", On::Serve),
    ("p99_ms.high", "ms", On::Serve),
    ("samples.high", "count", On::Serve),
    ("goodput_qps", "1/s", On::Serve),
    ("goodput_is_lower_bound", "flag", On::Serve),
    ("fail_ratio", "ratio", On::Serve),
    ("write_p50_ms", "ms", On::Serve),
    ("write_p90_ms", "ms", On::Serve),
    ("client.lag_p99_ms", "ms", On::Serve),
    ("service.protocol.encode_ns", "ns", On::Serve),
    ("service.protocol.decode_ns", "ns", On::Serve),
    ("service.protocol.frame_decode_ns", "ns", On::Serve),
    ("service.tcp.transport_ms", "ms", On::Serve),
    ("service.dispatch.self_ms", "ms", On::Serve),
    ("service.wfq.queue_ms", "ms", On::Serve),
    ("service.admission.rejected", "count", On::Serve),
    ("service.worker.execute_ms", "ms", On::Serve),
    ("service.worker.busy_ratio", "ratio", On::Serve),
    ("service.cache.hit_ratio", "ratio", On::Serve),
    ("service.cache.evictions", "count", On::Serve),
    ("service.coalesced_share", "ratio", On::Serve),
    ("service.stream.serves", "count", On::Serve),
    ("service.shared_share", "ratio", On::Serve),
    ("service.dispatch.jobs_per_batch", "count", On::Serve),
    ("service.mutate.execute_ms", "ms", On::Serve),
    ("graph.registry.loads", "count", On::Serve),
    ("graph.registry.mutations", "count", On::Serve),
    ("sim.cycles_per_query", "cycles", On::Serve),
    ("trace.overhead_ratio", "ratio", On::All),
    ("trace.unaccounted_s", "s", On::All),
    ("trace.identity_violations", "count", On::All),
];

/// Checks a workload's metrics against the tables: every metric it must
/// measure is there with its unit, nothing else is; per-layer metrics of
/// layers the workload does not exercise read 0.
fn complete(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let on = if args.workload == "mine" {
        On::Mine
    } else {
        On::Serve
    };
    let expected: Vec<(&str, &str, bool)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, w)| (name, unit, w == On::All || w == on))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, true))
            .collect()
    };
    for (name, _, unit) in outcome.metrics.iter() {
        match expected.iter().find(|(n, _, _)| n == name) {
            Some((_, u, _)) if u == unit => {}
            _ => return Err(format!("metric {name} [{unit}] is not in the metric table")),
        }
    }
    let mut idle = Vec::new();
    for &(name, unit, measured) in &expected {
        if outcome.metrics.get(name).is_some() {
            continue;
        }
        if measured {
            return Err(format!("metric {name} was not measured"));
        }
        idle.push(name);
        outcome.metrics.set(name, 0.0, unit);
    }
    if !idle.is_empty() {
        println!(
            "# layers not exercised by {} (reported as 0): {}",
            args.workload,
            idle.join(" ")
        );
    }
    Ok(())
}

/// A seed that tuning never used: a gain claimed on other seeds must also
/// hold on this one.
const HELD_BACK_SEED: u64 = 20_211_018;

/// Input scale: `Tiny` is for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Test hook: perturb one oracle value so the run must fail.
    pub corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        corrupt_oracle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--tiny" => args.size = Size::Tiny,
            "--corrupt-oracle" => args.corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Runs `cmd args…` and returns its trimmed stdout, or `"unknown"`.
fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Provenance of the numbers: what was measured, built how, on what.
fn print_provenance(args: &Args) {
    println!(
        "# workload {} seed {} seconds {} trace {} size {:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.size
    );
    println!("# held-back seed for gain claims: {HELD_BACK_SEED}");
    println!("# commit {}", command_output("git", &["rev-parse", "HEAD"]));
    println!("# rustc {}", env!("PERFBENCH_RUSTC"));
    println!(
        "# target {} profile {}",
        env!("PERFBENCH_TARGET"),
        env!("PERFBENCH_PROFILE")
    );
    println!("# RUSTFLAGS {:?}", env!("PERFBENCH_RUSTFLAGS"));
    println!(
        "# nproc {}",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    );
}

/// `(steal, total)` CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    print_provenance(&args);
    let ticks_before = cpu_ticks();
    let result = match args.workload.as_str() {
        "mine" => mine::run(&args),
        "serve-miss" => serve::run(&args, serve::Mode::Miss),
        _ => serve::run(&args, serve::Mode::Hot),
    };
    let outcome: Outcome = match result.and_then(|mut outcome| {
        complete(&args, &mut outcome)?;
        Ok(outcome)
    }) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    // CPU time the hypervisor took from this machine during the run: a
    // high share means the timings are noisier than usual.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("# cpu steal during the run: {:.1}%", share * 100.0);
    }
    outcome.print();
    if !outcome.correct {
        std::process::exit(1);
    }
}
