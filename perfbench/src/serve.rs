//! The `serve-miss` and `serve-hot` workloads: reads over loopback TCP
//! against an in-process `SisaService` with `ServiceConfig::default()`.
//!
//! The client is one process with two threads (this one sends, a reader
//! thread parses frames) over one pipelined connection, spread across 8
//! tenants. An untraced run measures capacity: closed-loop passes over a
//! fixed list of reads, 8 outstanding, until `--seconds` are up. A traced
//! run also sends reads open-loop on a Poisson schedule at fixed rates and
//! climbs the goodput ladder. Open-loop reads are timed from when they
//! were due to be sent to their terminal frame, so a stalled generator
//! shows up as latency; how late the generator ran is reported as
//! `client.lag_p99_ms`.
//!
//! * `serve-miss`: every read carries a unique budget that never truncates,
//!   so neither the result cache nor coalescing can share a result — worker
//!   execution, WFQ queueing and admission set the latency.
//! * `serve-hot`: Zipf-skewed reads over a small set of unbudgeted specs,
//!   plus `mutate` batches to one graph beside them — the cache, coalescing
//!   and the stream counters answer most reads, so the dispatcher, protocol,
//!   TCP and registry generations dominate, and the writes show what a
//!   read-side gain costs the write path.
//!
//! Every answer is checked: reads against a `FunctionalEngine` recount of
//! the graph version the read could legally observe, writes against the
//! number of edge changes they carry.

use crate::inputs::{relabel, Rng};
use crate::report::{median, percentile, ratio, windowed_percentile, Metrics, Outcome};
use crate::{Args, Size};
use sisa_algorithms::setcentric::{
    k_clique_count, orient_by_degeneracy, star_pattern, subgraph_isomorphism_count, triangle_count,
};
use sisa_algorithms::SearchLimits;
use sisa_core::{FunctionalEngine, SetGraph, SetGraphConfig};
use sisa_graph::{generators, CsrGraph, GraphDelta};
use sisa_service::{
    Frame, MetricsSnapshot, QueryKind, QuerySpec, Request, ServiceConfig, SisaService, TcpServer,
};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Miss,
    Hot,
}

/// Tenants the reads are spread across.
const TENANTS: usize = 8;
/// Outstanding reads of the closed-loop pass (one per tenant).
const CLOSED_WINDOW: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest closed-loop passes of an untraced run, which passes until
/// `--seconds` are up; a traced run makes twice as many, half of them
/// traced.
const CLOSED_PASSES: usize = 5;
/// `serve-hot` closed-loop passes send a write after every this many reads.
const CLOSED_WRITE_EVERY: usize = 500;
/// Share of `--seconds` a traced run gives to the open-loop phase at the
/// high rate.
const HIGH_SHARE: f64 = 0.85;
/// Reads per latency window, goodput-ladder rung and low-rate phase: p99
/// needs 1000 samples.
const WINDOW: usize = 1000;
/// Tail percentile of read latency (`p99_ms.*`), taken per
/// window of `WINDOW` reads; the median window is reported.
const TAIL: f64 = 99.0;
/// Reads per window of the median (`p50_ms.*`): the median of
/// the windows' medians is reported, so a burst of host noise that hits a
/// minority of windows does not move it.
const MEDIAN_WINDOW: usize = 100;
/// Tail percentile of write latency: writes are fewer than 1000 per run, so
/// p90 is the highest percentile with ten samples beyond it.
const WRITE_TAIL: f64 = 90.0;
/// Budget base of `serve-miss` reads: far above any count on its graphs.
const UNIQUE_BUDGET_BASE: u64 = 1_000_000_000_000;

/// Per-workload traffic shape.
struct Shape {
    /// Registered graphs: name and generator.
    graphs: Vec<(&'static str, CsrGraph)>,
    /// The two fixed latency rates (reads per second).
    low_qps: f64,
    high_qps: f64,
    /// Reads per closed-loop pass.
    closed_reads: usize,
    /// The goodput ladder (reads per second, ascending) and its limit.
    ladder: Vec<f64>,
    limit_ms: f64,
    /// `mutate` batches per second beside the reads (`serve-hot` only).
    mutate_qps: f64,
}

/// Structure seed of the serving graphs; `--seed` relabels them.
const STRUCTURE_SEED: u64 = 1;

fn shape(mode: Mode, seed: u64, size: Size) -> Shape {
    let tiny = size == Size::Tiny;
    // Tiny inputs execute faster, so the tests run them at higher rates.
    let speed = if tiny { 4.0 } else { 1.0 };
    let graph = |g: CsrGraph, i: u64| relabel(&g, seed.wrapping_mul(31).wrapping_add(i));
    let (mut shape, ladder): (Shape, [f64; 6]) = match mode {
        Mode::Miss => (
            Shape {
                graphs: vec![
                    (
                        "miss-er",
                        graph(
                            generators::erdos_renyi(
                                if tiny { 60 } else { 150 },
                                0.06,
                                STRUCTURE_SEED,
                            ),
                            0,
                        ),
                    ),
                    ("miss-rmat", graph(rmat(if tiny { 6 } else { 7 }, 5), 1)),
                ],
                low_qps: 60.0,
                high_qps: 120.0,
                closed_reads: 320,
                ladder: Vec::new(),
                limit_ms: 50.0,
                mutate_qps: 0.0,
            },
            [120.0, 180.0, 240.0, 300.0, 360.0, 420.0],
        ),
        Mode::Hot => (
            Shape {
                graphs: vec![
                    (
                        "hot-er",
                        graph(
                            generators::erdos_renyi(
                                if tiny { 60 } else { 200 },
                                0.06,
                                STRUCTURE_SEED,
                            ),
                            0,
                        ),
                    ),
                    ("hot-rmat", graph(rmat(if tiny { 6 } else { 8 }, 5), 1)),
                    (
                        "hot-ws",
                        graph(
                            generators::watts_strogatz(
                                if tiny { 60 } else { 300 },
                                6,
                                0.1,
                                STRUCTURE_SEED,
                            ),
                            2,
                        ),
                    ),
                ],
                low_qps: 250.0,
                high_qps: 500.0,
                closed_reads: 6000,
                ladder: Vec::new(),
                limit_ms: 50.0,
                mutate_qps: 10.0,
            },
            [250.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0],
        ),
    };
    shape.low_qps *= speed;
    shape.high_qps *= speed;
    shape.ladder = ladder.iter().map(|r| r * speed).collect();
    shape
}

/// A skewed R-MAT graph with `2^scale` vertices. (Barabási–Albert would
/// fit too, but its generator is not deterministic per seed.)
fn rmat(scale: u32, edge_factor: usize) -> CsrGraph {
    let cfg = generators::RmatConfig {
        edge_factor,
        ..generators::RmatConfig::default_scale(scale)
    };
    generators::kronecker(&cfg, STRUCTURE_SEED)
}

/// The read kinds of both mixes.
fn kinds() -> [QueryKind; 4] {
    [
        QueryKind::TriangleCount,
        QueryKind::KCliqueCount { k: 3 },
        QueryKind::KCliqueCount { k: 4 },
        QueryKind::StarCount { k: 2 },
    ]
}

/// The graph mutated by `serve-hot` writes.
const MUTATED: usize = 0;

/// Oracle answers of one graph version, in `kinds()` order, from
/// `FunctionalEngine` runs of the same set-centric kernels.
fn recount(g: &CsrGraph) -> [u64; 4] {
    let mut e = FunctionalEngine::new();
    let cfg = SetGraphConfig::default();
    let (oriented, _) = orient_by_degeneracy(&mut e, g, &cfg);
    let plain = SetGraph::load(&mut e, g, &cfg);
    let all = SearchLimits::unlimited();
    [
        triangle_count(&mut e, &oriented, &all).result,
        k_clique_count(&mut e, &oriented, 3, &all).result,
        k_clique_count(&mut e, &oriented, 4, &all).result,
        subgraph_isomorphism_count(&mut e, &plain, &star_pattern(2), &all).result,
    ]
}

/// One request on the wire.
#[derive(Clone)]
enum Op {
    /// A read of `kinds()[kind]` on graph `graph`.
    Read {
        graph: usize,
        kind: usize,
        budget: Option<u64>,
    },
    /// The `seq`-th `mutate` of the run (1-based, in send order).
    Write { delta: GraphDelta, seq: usize },
}

/// What the client recorded about a sent request.
struct Sent {
    id: u64,
    op: Op,
    due: Instant,
    sent: Instant,
    /// The writes bracketing what a read may legally observe: the last
    /// write acknowledged before the read was sent and the last write sent
    /// before its answer arrived.
    writes: (usize, usize),
    encode_ns: u64,
    decode_ns: u64,
}

/// The fields of a terminal frame the benchmark uses, and when it arrived.
struct Done {
    id: u64,
    recv: Instant,
    decode_ns: u64,
    /// `None` for a `result` frame; the frame kind and error otherwise.
    failure: Option<String>,
    value: Option<u64>,
    span_ns: u64,
    queue_ns: u64,
    execute_ns: u64,
    cache_hit: bool,
    coalesced: bool,
    cycles: u64,
}

impl Done {
    fn new(frame: Frame, recv: Instant, decode_ns: u64) -> Done {
        let failure =
            (frame.frame != "result").then(|| format!("{} {:?}", frame.frame, frame.error));
        Done {
            id: frame.id,
            recv,
            decode_ns,
            failure,
            value: frame.value,
            span_ns: frame.span_ns.unwrap_or(0),
            queue_ns: frame.queue_ns.unwrap_or(0),
            execute_ns: frame.execute_ns.unwrap_or(0),
            cache_hit: frame.cache_hit == Some(true),
            coalesced: frame.coalesced == Some(true),
            cycles: frame.simulated_cycles.unwrap_or(0),
        }
    }

    fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// One pipelined connection: this thread writes, a reader thread parses.
struct Client {
    writer: TcpStream,
    frames: Receiver<Done>,
    reader: Option<JoinHandle<()>>,
    next_id: u64,
    traced: bool,
}

impl Client {
    fn connect(server: &TcpServer, traced: bool) -> Result<Client, String> {
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let (tx, frames) = channel();
        let reader = std::thread::Builder::new()
            .name("perfbench-reader".into())
            .spawn(move || {
                for line in BufReader::new(read_half).lines() {
                    let Ok(line) = line else { break };
                    let started = Instant::now();
                    let Ok(frame) = serde_json::from_str::<Frame>(&line) else {
                        break;
                    };
                    let decode_ns = started.elapsed().as_nanos() as u64;
                    if frame.is_terminal() {
                        let recv = Instant::now();
                        if tx.send(Done::new(frame, recv, decode_ns)).is_err() {
                            break;
                        }
                    }
                }
            })
            .map_err(|e| format!("spawn reader: {e}"))?;
        Ok(Client {
            writer: stream,
            frames,
            reader: Some(reader),
            next_id: 0,
            traced,
        })
    }

    fn send(
        &mut self,
        shape: &Shape,
        op: Op,
        due: Instant,
        writes: (usize, usize),
    ) -> Result<Sent, String> {
        let id = self.next_id;
        self.next_id += 1;
        let spec = match &op {
            Op::Read {
                graph,
                kind,
                budget,
            } => {
                let spec = QuerySpec::new(shape.graphs[*graph].0, kinds()[*kind].clone());
                match budget {
                    Some(b) => spec.with_budget(*b),
                    None => spec,
                }
            }
            Op::Write { delta, .. } => {
                QuerySpec::new(shape.graphs[MUTATED].0, QueryKind::Mutate(delta.clone()))
            }
        };
        let tenant = match op {
            Op::Read { .. } => format!("tenant-{}", id as usize % TENANTS),
            Op::Write { .. } => "writer".to_string(),
        };
        let started = Instant::now();
        let request = Request::from_spec(id, &tenant, &spec);
        let mut line = serde_json::to_string(&request).map_err(|e| format!("encode: {e:?}"))?;
        let encode_ns = started.elapsed().as_nanos() as u64;
        // The server's parse of the same line, timed on the client side.
        let decode_ns = if self.traced {
            let started = Instant::now();
            let parsed = Request::parse(&line).and_then(|r| r.spec());
            let ns = started.elapsed().as_nanos() as u64;
            if parsed.as_ref() != Ok(&spec) {
                return Err(format!("request {id} does not round-trip the protocol"));
            }
            ns
        } else {
            0
        };
        line.push('\n');
        let sent = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        Ok(Sent {
            id,
            op,
            due,
            sent,
            writes,
            encode_ns,
            decode_ns,
        })
    }

    fn close(mut self) -> Result<(), String> {
        let _ = self.writer.shutdown(Shutdown::Write);
        if let Some(reader) = self.reader.take() {
            reader
                .join()
                .map_err(|_| "reader thread panicked".to_string())?;
        }
        Ok(())
    }
}

/// The service under test, its TCP front end, the client and the
/// workload's traffic shape.
struct Rig {
    mode: Mode,
    shape: Shape,
    /// `serve-hot`'s read popularity (see [`zipf_specs`]).
    zipf: Vec<(usize, usize, f64)>,
    service: SisaService,
    server: TcpServer,
    client: Client,
    /// The mutated graph as the writes generated so far would leave it
    /// (`serve-hot`); new writes are drawn against it.
    predicted: CsrGraph,
    /// Writes generated, sent and acknowledged (highest `seq`) so far.
    writes_made: usize,
    writes_sent: usize,
    writes_acked: usize,
    rng: Rng,
    /// The requests not yet checked, with their answers: request id
    /// `log_base + i` sits at index `i`.
    log: Vec<(Sent, Option<Done>)>,
    log_base: u64,
    outstanding: usize,
    budgets_issued: u64,
}

/// Builds a write: a few inserts of absent edges and one delete of a present
/// edge, so every intent changes the graph.
fn next_delta(g: &CsrGraph, rng: &mut Rng) -> GraphDelta {
    let n = g.num_vertices();
    let mut delta = GraphDelta::new();
    let mut changed = Vec::new();
    while changed.len() < 3 {
        let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
        let e = (u.min(v), u.max(v));
        if u != v && !g.has_edge(u, v) && !changed.contains(&e) {
            changed.push(e);
            delta = delta.insert(u, v);
        }
    }
    loop {
        let u = rng.below(n) as u32;
        let neigh = g.neighbors(u);
        if !neigh.is_empty() {
            let v = neigh[rng.below(neigh.len())];
            return delta.delete(u, v);
        }
    }
}

impl Rig {
    fn start(mode: Mode, shape: Shape, seed: u64, traced: bool) -> Result<(Rig, [f64; 2]), String> {
        let started = Instant::now();
        let service = SisaService::start(ServiceConfig::default());
        for (name, g) in &shape.graphs {
            service.register_graph(name, g.clone());
        }
        let server =
            TcpServer::serve(service.client(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let client = Client::connect(&server, traced)?;
        let mut rig = Rig {
            mode,
            zipf: zipf_specs(&shape),
            predicted: shape.graphs[MUTATED].1.clone(),
            shape,
            service,
            server,
            client,
            writes_made: 0,
            writes_sent: 0,
            writes_acked: 0,
            rng: Rng(seed ^ 0x0005_e7e5_eed5),
            log: Vec::new(),
            log_base: 0,
            outstanding: 0,
            budgets_issued: 0,
        };
        let register_s = started.elapsed().as_secs_f64();

        // Warm-up: one write (builds the stream state), then every read the
        // workload can send, so graphs are resident and caches filled.
        let started = Instant::now();
        let mut warm = Vec::new();
        if mode == Mode::Hot {
            warm.push(rig.next_write());
        }
        for graph in 0..rig.shape.graphs.len() {
            for kind in 0..kinds().len() {
                let budget = (mode == Mode::Miss).then(|| rig.unique_budget());
                warm.push(Op::Read {
                    graph,
                    kind,
                    budget,
                });
            }
        }
        // As many outstanding as in a pass: sent one at a time, a read's
        // result frame waits on the client's delayed ACK (see `README.md`),
        // and set-up time would follow that timer.
        rig.closed_loop(warm, CLOSED_WINDOW)?;
        Ok((rig, [register_s, started.elapsed().as_secs_f64()]))
    }

    /// A never-truncating budget no other read of the run carries.
    fn unique_budget(&mut self) -> u64 {
        self.budgets_issued += 1;
        UNIQUE_BUDGET_BASE + self.budgets_issued
    }

    fn send(&mut self, op: Op, due: Instant) -> Result<usize, String> {
        self.drain(Duration::ZERO)?;
        if let Op::Write { seq, .. } = op {
            self.writes_sent = seq;
        }
        let writes = (self.writes_acked, self.writes_sent);
        let sent = self.client.send(&self.shape, op, due, writes)?;
        debug_assert_eq!(
            sent.id,
            self.log_base + self.log.len() as u64,
            "ids follow the log"
        );
        self.log.push((sent, None));
        self.outstanding += 1;
        Ok(self.log.len() - 1)
    }

    /// Collects terminal frames: waits up to `wait` for the first, then
    /// takes whatever else has arrived. Returns how many were collected.
    fn drain(&mut self, wait: Duration) -> Result<usize, String> {
        let mut got = 0;
        let mut first = true;
        loop {
            let done = if first && wait > Duration::ZERO {
                match self.client.frames.recv_timeout(wait) {
                    Ok(done) => done,
                    Err(RecvTimeoutError::Timeout) => return Ok(got),
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err("connection closed with requests outstanding".into())
                    }
                }
            } else {
                match self.client.frames.try_recv() {
                    Ok(done) => done,
                    Err(_) => return Ok(got),
                }
            };
            first = false;
            let slot = done.id.wrapping_sub(self.log_base) as usize;
            if slot >= self.log.len() {
                return Err(format!("frame for unknown request {}", done.id));
            }
            match self.log[slot].0.op {
                Op::Write { seq, .. } if done.ok() => {
                    self.writes_acked = self.writes_acked.max(seq);
                }
                // The service may reorder a read behind writes of another
                // tenant sent after it, up to when its answer arrives.
                Op::Read { .. } => self.log[slot].0.writes.1 = self.writes_sent,
                Op::Write { .. } => {}
            }
            self.log[slot].1 = Some(done);
            self.outstanding -= 1;
            got += 1;
        }
    }

    fn wait_all(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        while self.outstanding > 0 {
            if Instant::now() > deadline {
                return Err(format!("{} requests never answered", self.outstanding));
            }
            self.drain(Duration::from_millis(100))?;
        }
        Ok(())
    }

    /// Sends `ops` keeping `window` outstanding; returns the log slots and
    /// the wall time from the first send to the last answer.
    fn closed_loop(&mut self, ops: Vec<Op>, window: usize) -> Result<(Vec<usize>, f64), String> {
        let started = Instant::now();
        let mut slots = Vec::with_capacity(ops.len());
        for op in ops {
            while self.outstanding >= window {
                self.drain(Duration::from_secs(60))?;
            }
            slots.push(self.send(op, Instant::now())?);
        }
        self.wait_all()?;
        let last = slots
            .iter()
            .filter_map(|&s| self.log[s].1.as_ref().map(|d| d.recv))
            .max()
            .unwrap_or(started);
        Ok((slots, last.duration_since(started).as_secs_f64()))
    }

    /// One closed-loop pass over the run's fixed read list, `CLOSED_WINDOW`
    /// reads outstanding. Every pass sends the same reads; `serve-miss`
    /// reads get unique budgets, so passes share nothing either. In
    /// `serve-hot` a write follows every `CLOSED_WRITE_EVERY` reads. The
    /// answers are checked and dropped once the pass is over, so memory
    /// does not grow with the number of passes. Returns the pass's wall
    /// seconds and the CPU seconds the process (service and client) spent
    /// on it.
    fn closed_pass(&mut self, reads: &[Op], checker: &mut Checker) -> Result<(f64, f64), String> {
        let writes = self.shape.mutate_qps > 0.0;
        let mut ops = Vec::with_capacity(reads.len() + reads.len() / CLOSED_WRITE_EVERY);
        for (i, read) in reads.iter().enumerate() {
            let mut read = read.clone();
            if let Op::Read { budget, .. } = &mut read {
                *budget = (self.mode == Mode::Miss).then(|| self.unique_budget());
            }
            ops.push(read);
            if writes && (i + 1) % CLOSED_WRITE_EVERY == 0 {
                ops.push(self.next_write());
            }
        }
        let cpu = crate::cpu::process();
        let (_, wall) = self.closed_loop(ops, CLOSED_WINDOW)?;
        let cpu = (crate::cpu::process() - cpu).as_secs_f64();
        checker.check(&self.log, true, Some(self.writes_acked));
        self.log_base += self.log.len() as u64;
        self.log.clear();
        Ok((wall, cpu))
    }

    /// Sends `schedule` (offsets from the phase start) open-loop.
    fn open_loop(&mut self, schedule: Vec<(f64, Op)>) -> Result<Vec<usize>, String> {
        let start = Instant::now() + Duration::from_millis(5);
        let mut slots = Vec::with_capacity(schedule.len());
        for (offset, op) in schedule {
            let due = start + Duration::from_secs_f64(offset);
            // Sleep in slices, collecting answers while waiting.
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if self.outstanding > 0 {
                    self.drain((due - now).min(Duration::from_millis(2)))?;
                } else {
                    std::thread::sleep(due - now);
                }
            }
            slots.push(self.send(op, due)?);
        }
        self.wait_all()?;
        Ok(slots)
    }

    /// The next write, drawn against the predicted graph.
    fn next_write(&mut self) -> Op {
        let delta = next_delta(&self.predicted, &mut self.rng);
        self.predicted = delta.apply_to(&self.predicted);
        self.writes_made += 1;
        Op::Write {
            delta,
            seq: self.writes_made,
        }
    }

    /// The next read of the workload's mix.
    fn next_read(&mut self) -> Op {
        match self.mode {
            Mode::Miss => Op::Read {
                graph: self.rng.below(self.shape.graphs.len()),
                kind: self.rng.below(kinds().len()),
                budget: Some(self.unique_budget()),
            },
            Mode::Hot => {
                let u = self.rng.unit();
                let &(graph, kind, _) = self
                    .zipf
                    .iter()
                    .find(|(_, _, cum)| u < *cum)
                    .unwrap_or(self.zipf.last().expect("non-empty spec set"));
                Op::Read {
                    graph,
                    kind,
                    budget: None,
                }
            }
        }
    }

    /// The fixed read list of the closed-loop passes: every spec of the mix
    /// in its share of `shape.closed_reads` (equal shares in
    /// `serve-miss`, Zipf shares in `serve-hot`), in an order drawn from
    /// the seed. Drawing the specs one by one would let the seed change
    /// how much work a pass holds. Budgets are set per pass.
    fn closed_read_list(&mut self) -> Vec<Op> {
        let specs: Vec<(usize, usize, f64)> = match self.mode {
            Mode::Miss => {
                let n = self.shape.graphs.len() * kinds().len();
                (0..n)
                    .map(|i| (i / kinds().len(), i % kinds().len(), 1.0 / n as f64))
                    .collect()
            }
            Mode::Hot => {
                let mut below = 0.0;
                self.zipf
                    .iter()
                    .map(|&(graph, kind, cum)| {
                        let share = cum - below;
                        below = cum;
                        (graph, kind, share)
                    })
                    .collect()
            }
        };
        // Shares are rounded down; the most popular spec takes the rest.
        let total = self.shape.closed_reads;
        let copies: Vec<usize> = specs
            .iter()
            .map(|&(_, _, share)| (share * total as f64) as usize)
            .collect();
        let rest = total - copies.iter().sum::<usize>();
        let mut reads = Vec::with_capacity(total);
        for (i, &(graph, kind, _)) in specs.iter().enumerate() {
            let n = copies[i] + if i == 0 { rest } else { 0 };
            reads.extend((0..n).map(|_| Op::Read {
                graph,
                kind,
                budget: None,
            }));
        }
        for i in (1..reads.len()).rev() {
            reads.swap(i, self.rng.below(i + 1));
        }
        reads
    }

    /// A Poisson schedule of `reads` reads at `qps`, with writes at
    /// `shape.mutate_qps` beside them.
    fn schedule(&mut self, qps: f64, reads: usize) -> Vec<(f64, Op)> {
        let writes_qps = self.shape.mutate_qps;
        let mut out = Vec::new();
        let mut t = 0.0;
        let mut next_write = if writes_qps > 0.0 {
            self.rng.gap(writes_qps)
        } else {
            f64::INFINITY
        };
        for _ in 0..reads {
            t += self.rng.gap(qps);
            while next_write < t {
                out.push((next_write, self.next_write()));
                next_write += self.rng.gap(writes_qps);
            }
            let read = self.next_read();
            out.push((t, read));
        }
        out
    }

    /// One open-loop phase: `reads` Poisson reads at `qps` (and writes
    /// beside them), with the service's counters before and after.
    fn phase(&mut self, qps: f64, reads: usize) -> Result<Phase, String> {
        let schedule = self.schedule(qps, reads);
        let before = self.service.metrics_snapshot();
        let slots = self.open_loop(schedule)?;
        Ok(phase_of(self, slots, before))
    }

    fn close(self) -> Result<(), String> {
        self.client.close()?;
        self.server.stop();
        self.service.close();
        Ok(())
    }
}

/// The cumulative Zipf(1.1) distribution over a fixed ranking of the
/// (graph, kind) specs of `serve-hot`. The ranking does not depend on the
/// seed, so every seed offers the same popularity profile.
fn zipf_specs(shape: &Shape) -> Vec<(usize, usize, f64)> {
    let rng = &mut Rng(0x2197);
    let mut specs: Vec<(usize, usize)> = (0..shape.graphs.len())
        .flat_map(|g| (0..kinds().len()).map(move |k| (g, k)))
        .collect();
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.below(i + 1));
    }
    let weights: Vec<f64> = (1..=specs.len())
        .map(|r| 1.0 / (r as f64).powf(1.1))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cum = 0.0;
    specs
        .into_iter()
        .zip(weights)
        .map(|((g, k), w)| {
            cum += w / total;
            (g, k, cum)
        })
        .collect()
}

/// Latency and layer numbers of one phase.
struct Phase {
    slots: Vec<usize>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    reads: Vec<f64>,
    writes: Vec<f64>,
    lag: Vec<f64>,
    sent: usize,
    failed: usize,
    duration: f64,
    /// Wall time from the first due time to the last answer.
    span: f64,
}

fn phase_of(rig: &Rig, slots: Vec<usize>, before: MetricsSnapshot) -> Phase {
    let mut p = Phase {
        slots: Vec::new(),
        before,
        after: rig.service.metrics_snapshot(),
        reads: Vec::new(),
        writes: Vec::new(),
        lag: Vec::new(),
        sent: slots.len(),
        failed: 0,
        duration: 0.0,
        span: 0.0,
    };
    let first_due = slots.iter().map(|&s| rig.log[s].0.due).min();
    let mut last = first_due;
    for &s in &slots {
        let (sent, done) = &rig.log[s];
        p.lag
            .push(sent.sent.duration_since(sent.due).as_secs_f64() * 1e3);
        let Some(done) = done else { continue };
        if let Some(failure) = &done.failure {
            p.failed += 1;
            if p.failed <= 5 {
                let what = if matches!(sent.op, Op::Write { .. }) {
                    "write"
                } else {
                    "read"
                };
                println!("# {what} {} failed: {failure}", sent.id);
            }
            continue;
        }
        let ms = done.recv.duration_since(sent.due).as_secs_f64() * 1e3;
        match sent.op {
            Op::Read { .. } => p.reads.push(ms),
            Op::Write { .. } => p.writes.push(ms),
        }
        last = last.max(Some(done.recv));
    }
    if let (Some(a), Some(b)) = (first_due, last) {
        p.span = b.duration_since(a).as_secs_f64();
    }
    let last_due = slots.iter().map(|&s| rig.log[s].0.due).max();
    if let (Some(a), Some(b)) = (first_due, last_due) {
        p.duration = b.duration_since(a).as_secs_f64();
    }
    p.slots = slots;
    p
}

/// The edge intents of `delta` that change `g` (deletes of present edges,
/// then inserts of edges absent after the deletes).
fn effective_changes(g: &CsrGraph, delta: &GraphDelta) -> u64 {
    let deletes = delta.normalized_deletes();
    let present = |u, v| g.has_edge(u, v) && !deletes.contains(&(u.min(v), u.max(v)));
    let removed = deletes.iter().filter(|&&(u, v)| g.has_edge(u, v)).count();
    let added = delta
        .normalized_inserts()
        .iter()
        .filter(|&&(u, v)| !present(u, v))
        .count();
    (removed + added) as u64
}

/// Checks answered requests against their oracles, one stretch of the log
/// at a time and in send order. Writes are replayed in send order (the
/// writer is one tenant, so the service applies them in that order),
/// skipping any that failed, which gives the mutated graph's real versions;
/// a read of it must match one it could legally observe. Each write must
/// report the number of edge changes it made.
struct Checker {
    /// Oracle answers of the unmutated graphs, in `kinds()` order.
    oracle: Vec<[u64; 4]>,
    /// Test hook: perturb one oracle value so the run must fail.
    corrupt: bool,
    /// The mutated graph's versions that a read not yet checked may still
    /// observe, by version index (0 is the registered graph).
    versions: BTreeMap<usize, CsrGraph>,
    latest: usize,
    /// `version_after[seq]`: the version index once write `seq` is applied.
    version_after: Vec<usize>,
    /// Oracle answers of the versions in `versions`, computed on first use.
    memo: HashMap<usize, [u64; 4]>,
    /// Requests counted in the result line, and how many of them failed.
    attempted: u64,
    unanswered: u64,
    wrong: u64,
    errors: Vec<String>,
}

impl Checker {
    fn new(rig: &Rig, corrupt: bool) -> Checker {
        Checker {
            oracle: rig.shape.graphs.iter().map(|(_, g)| recount(g)).collect(),
            corrupt,
            versions: BTreeMap::from([(0, rig.shape.graphs[MUTATED].1.clone())]),
            latest: 0,
            version_after: vec![0],
            memo: HashMap::new(),
            attempted: 0,
            unanswered: 0,
            wrong: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.wrong += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    /// Checks `log`, the requests that follow every request checked so far.
    /// `counted` adds them to the result line's `attempted` and `failed`.
    /// With `acked`, every write up to `acked` was acknowledged before any
    /// later read was sent, so older versions are dropped.
    fn check(&mut self, log: &[(Sent, Option<Done>)], counted: bool, acked: Option<usize>) {
        for (sent, done) in log {
            let ok = done.as_ref().is_some_and(Done::ok);
            if counted {
                self.attempted += 1;
                self.unanswered += u64::from(!ok);
            }
            let Op::Write { delta, .. } = &sent.op else {
                continue;
            };
            if ok {
                let prev = &self.versions[&self.latest];
                let want = effective_changes(prev, delta);
                let next = delta.apply_to(prev);
                let got = done.as_ref().and_then(|d| d.value);
                if got != Some(want) {
                    self.fail(format!(
                        "write {}: {got:?} edges changed, expected {want}",
                        sent.id
                    ));
                }
                self.latest += 1;
                self.versions.insert(self.latest, next);
            }
            self.version_after.push(self.latest);
        }
        for (sent, done) in log {
            let (Op::Read { graph, kind, .. }, Some(done)) = (&sent.op, done) else {
                continue;
            };
            if !done.ok() {
                continue;
            }
            let got = done.value.unwrap_or(u64::MAX);
            let legal: Vec<Option<usize>> = if *graph == MUTATED && self.version_after.len() > 1 {
                (self.version_after[sent.writes.0]..=self.version_after[sent.writes.1])
                    .map(Some)
                    .collect()
            } else {
                vec![None]
            };
            let ok = legal.iter().any(|version| {
                let mut counts = match version {
                    Some(v) => *self
                        .memo
                        .entry(*v)
                        .or_insert_with(|| recount(&self.versions[v])),
                    None => self.oracle[*graph],
                };
                if self.corrupt && *graph == 0 {
                    counts[0] += 1;
                }
                counts[*kind] == got
            });
            if !ok {
                self.fail(format!(
                    "read {} of graph {graph} kind {kind}: answer {got} matches no version it could observe",
                    sent.id
                ));
            }
        }
        if let Some(acked) = acked {
            let floor = self.version_after[acked];
            self.versions = self.versions.split_off(&floor);
            self.memo.retain(|v, _| *v >= floor);
        }
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

pub fn run(args: &Args, mode: Mode) -> Result<Outcome, String> {
    let epoch = Instant::now();
    // Set-up, several times: generate, start, register, warm up. Keep the
    // last rig. `setup_s` is CPU time, like `cpu_s`; the layers are wall
    // time.
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            Rig::close(old)?;
        }
        let started = Instant::now();
        let cpu = crate::cpu::process();
        let generated = shape(mode, args.seed, args.size);
        let generate_s = started.elapsed().as_secs_f64();
        let (r, [register_s, warm_s]) = Rig::start(mode, generated, args.seed, args.trace)?;
        setups.push([
            (crate::cpu::process() - cpu).as_secs_f64(),
            generate_s,
            register_s,
            warm_s,
        ]);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");
    let shape = &rig.shape;
    for (name, g) in &shape.graphs {
        println!(
            "# graph {name}: {} vertices, {} edges",
            g.num_vertices(),
            g.num_edges()
        );
    }
    println!(
        "# rates: low {} / high {} reads/s, writes {} /s, ladder {:?} at p99 <= {} ms",
        shape.low_qps, shape.high_qps, shape.mutate_qps, shape.ladder, shape.limit_ms
    );
    let mut checker = Checker::new(&rig, args.corrupt_oracle);
    let (low_qps, high_qps) = (shape.low_qps, shape.high_qps);
    let (ladder, limit_ms) = (shape.ladder.clone(), shape.limit_ms);
    let reads = rig.closed_read_list();
    let closed_reads = reads.len();

    let mut m = Metrics::default();
    let mut errors = Vec::new();
    if !args.trace {
        // Closed-loop passes (capacity) until `--seconds` are up.
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let mut walls = Vec::new();
        let mut cpus = Vec::new();
        while walls.len() < CLOSED_PASSES || Instant::now() < deadline {
            let (wall, cpu) = rig.closed_pass(&reads, &mut checker)?;
            walls.push(wall);
            cpus.push(cpu);
        }
        let writes = if mode == Mode::Hot {
            format!(" and {} writes", closed_reads / CLOSED_WRITE_EVERY)
        } else {
            String::new()
        };
        println!(
            "# {} closed-loop passes of {closed_reads} reads{writes}; wall {}; cpu {}",
            walls.len(),
            crate::report::spread(&walls),
            crate::report::spread(&cpus)
        );
        m.set(
            "setup_s",
            median(&setups.iter().map(|s| s[0]).collect::<Vec<_>>()),
            "s",
        );
        m.set("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
        m.set("cpu_s", median(&cpus), "s");
    } else {
        // Closed-loop passes, alternately untraced and traced, to measure
        // the tracing cost; then the open-loop phase at the high rate for
        // most of `--seconds`, the low rate and the goodput ladder.
        let mut closed: Vec<(bool, f64)> = Vec::new();
        while closed.len() < 2 * CLOSED_PASSES {
            rig.client.traced = closed.len() % 2 == 1;
            let (wall, _) = rig.closed_pass(&reads, &mut checker)?;
            closed.push((rig.client.traced, wall));
        }
        rig.client.traced = true;
        let walls = |traced: bool| -> Vec<f64> {
            closed
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, w)| *w)
                .collect()
        };
        let high_reads = ((HIGH_SHARE * args.seconds * high_qps) as usize).max(WINDOW);
        let high = rig.phase(high_qps, high_reads)?;
        println!(
            "# {} closed-loop passes of {closed_reads} reads; high phase {} reads, {} writes, {} failed",
            closed.len(),
            high.reads.len(),
            high.writes.len(),
            high.failed,
        );
        let layer = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());
        m.set("graph.generate_s", layer(1), "s");
        m.set("service.start_s", layer(2), "s");
        m.set("service.warmup_s", layer(3), "s");
        let untraced = median(&walls(false));
        m.set("wall_s", untraced, "s");
        m.set(
            "trace.overhead_ratio",
            ratio(median(&walls(true)) - untraced, untraced),
            "ratio",
        );
        high.layers(&rig, &mut m, &mut errors)?;
        let low = rig.phase(low_qps, WINDOW)?;
        m.set(
            "p50_ms.low",
            windowed_percentile(&low.reads, MEDIAN_WINDOW, 50.0)?,
            "ms",
        );
        m.set(
            "p99_ms.low",
            windowed_percentile(&low.reads, WINDOW, TAIL)?,
            "ms",
        );
        m.set("samples.low", low.reads.len() as f64, "count");
        // Requests from here on belong to the goodput ladder.
        let ladder_from = rig.log.len();

        // The goodput ladder, climbed until a rung misses: the highest rate
        // whose p99 meets the limit with >= 99% of reads answered and no
        // growing backlog (answers keep pace with the offered rate). Its
        // top rungs overload the service on purpose, so refusals there are
        // the ladder's finding, not failed operations of the run.
        let mut goodput = 0.0;
        let mut met_all = true;
        for &qps in &ladder {
            let rung = rig.phase(qps, WINDOW)?;
            let p99 = if rung.reads.len() >= WINDOW {
                percentile(&rung.reads, TAIL)?
            } else {
                f64::INFINITY
            };
            let answered = 1.0 - ratio(rung.failed as f64, rung.sent as f64);
            let keeps_pace = rung.span <= rung.duration + limit_ms / 1e3;
            let met = p99 <= limit_ms && answered >= 0.99 && keeps_pace;
            println!(
                "# ladder {qps} reads/s: p99 {p99:.3} ms, answered {:.4}, span {:.3} s over {:.3} s scheduled: {}",
                answered,
                rung.span,
                rung.duration,
                if met { "met" } else { "missed" }
            );
            if !met {
                met_all = false;
                break;
            }
            goodput = qps;
        }
        m.set("goodput_qps", goodput, "1/s");
        m.set(
            "goodput_is_lower_bound",
            f64::from(u8::from(met_all)),
            "flag",
        );
        if met_all {
            println!("# every ladder rate met the limit: goodput_qps is a lower bound");
        }
        let mut spans = crate::spans::Spans::new(epoch);
        for (sent, done) in &rig.log {
            let Some(done) = done else { continue };
            let wire = done.recv.duration_since(sent.sent).as_nanos() as u64;
            let (span, queue, execute) = (done.span_ns, done.queue_ns, done.execute_ns);
            // The server span sits inside the wire interval; its transport
            // share is split evenly between the two directions.
            let server = sent.sent + Duration::from_nanos(wire.saturating_sub(span) / 2);
            spans.span("request", 1, sent.sent, wire, &[("id", sent.id as f64)]);
            spans.span("service", 1, server, span, &[]);
            spans.span("queue", 1, server, queue, &[]);
            spans.span(
                "execute",
                1,
                server + Duration::from_nanos(queue),
                execute,
                &[],
            );
        }
        let file = format!("trace-{}-seed{}.json", args.workload, args.seed);
        let path = spans
            .write(&file)
            .map_err(|e| format!("write {file}: {e}"))?;
        println!("# spans written to {}", path.display());
        checker.check(&rig.log[..ladder_from], true, None);
        checker.check(&rig.log[ladder_from..], false, None);
        rig.log.clear();
    }
    checker.check(&rig.log, true, None);
    errors.extend(checker.errors);
    rig.close()?;
    for e in &errors {
        println!("# FAIL {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: checker.attempted,
        failed: checker.wrong + checker.unanswered,
        metrics: m,
    })
}

impl Phase {
    /// Per-layer numbers of a traced high-rate phase.
    fn layers(&self, rig: &Rig, m: &mut Metrics, errors: &mut Vec<String>) -> Result<(), String> {
        let delta = |name: &str| counter(&self.after, name) - counter(&self.before, name);
        let mut encode = Vec::new();
        let mut decode = Vec::new();
        let mut frame_decode = Vec::new();
        let mut transport = Vec::new();
        let mut dispatch = Vec::new();
        let mut queue = Vec::new();
        let mut execute = Vec::new();
        let mut mutate = Vec::new();
        let (mut reads, mut hits, mut coalesced, mut busy_ns, mut cycles) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut violations = 0u64;
        let mut negative_ns = 0u64;
        for &slot in &self.slots {
            let (sent, Some(done)) = &rig.log[slot] else {
                continue;
            };
            if !done.ok() {
                continue;
            }
            let wire = done.recv.duration_since(sent.sent).as_nanos() as u64;
            let (span, q, x) = (done.span_ns, done.queue_ns, done.execute_ns);
            // Layer-sum identity: wire = transport + (dispatch self) +
            // queue + execute, with every self time non-negative.
            if span > wire || q + x > span {
                violations += 1;
                negative_ns += (span.saturating_sub(wire)).max((q + x).saturating_sub(span));
            }
            let shared = done.cache_hit || done.coalesced;
            if !shared {
                busy_ns += x;
            }
            match sent.op {
                Op::Write { .. } => mutate.push(x as f64 / 1e6),
                Op::Read { .. } => {
                    reads += 1;
                    encode.push(sent.encode_ns as f64);
                    decode.push(sent.decode_ns as f64);
                    frame_decode.push(done.decode_ns as f64);
                    transport.push(wire.saturating_sub(span) as f64 / 1e6);
                    dispatch.push(span.saturating_sub(q + x) as f64 / 1e6);
                    queue.push(q as f64 / 1e6);
                    hits += u64::from(done.cache_hit);
                    coalesced += u64::from(done.coalesced);
                    if !shared {
                        execute.push(x as f64 / 1e6);
                        cycles += done.cycles;
                    }
                }
            }
        }
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        m.set(
            "p50_ms.high",
            windowed_percentile(&self.reads, MEDIAN_WINDOW, 50.0)?,
            "ms",
        );
        m.set(
            "p99_ms.high",
            windowed_percentile(&self.reads, WINDOW, TAIL)?,
            "ms",
        );
        m.set("samples.high", self.reads.len() as f64, "count");
        m.set(
            "fail_ratio",
            ratio(self.failed as f64, self.sent as f64),
            "ratio",
        );
        // Reported as 0 when the phase had no writes (`serve-miss`) or too
        // few for the percentile (tiny test runs).
        let (write_p50, write_tail) = match (
            percentile(&self.writes, 50.0),
            percentile(&self.writes, WRITE_TAIL),
        ) {
            (Ok(p50), Ok(tail)) => (p50, tail),
            (_, Err(e)) => {
                if !self.writes.is_empty() {
                    println!("# write latency not reported: {e}");
                }
                (0.0, 0.0)
            }
            (Err(e), _) => return Err(e),
        };
        m.set("write_p50_ms", write_p50, "ms");
        m.set("write_p90_ms", write_tail, "ms");
        m.set("client.lag_p99_ms", percentile(&self.lag, TAIL)?, "ms");
        m.set("service.protocol.encode_ns", med(&encode), "ns");
        m.set("service.protocol.decode_ns", med(&decode), "ns");
        m.set("service.protocol.frame_decode_ns", med(&frame_decode), "ns");
        m.set("service.tcp.transport_ms", med(&transport), "ms");
        m.set("service.dispatch.self_ms", med(&dispatch), "ms");
        m.set("service.wfq.queue_ms", med(&queue), "ms");
        m.set(
            "service.admission.rejected",
            delta("sisa_admission_rejected_total"),
            "count",
        );
        m.set("service.worker.execute_ms", med(&execute), "ms");
        let workers = rig.service.config().workers as f64;
        m.set(
            "service.worker.busy_ratio",
            ratio(busy_ns as f64 / 1e9, workers * self.span),
            "ratio",
        );
        m.set(
            "service.cache.hit_ratio",
            ratio(hits as f64, reads as f64),
            "ratio",
        );
        m.set(
            "service.cache.evictions",
            delta("sisa_cache_evictions_total"),
            "count",
        );
        m.set(
            "service.coalesced_share",
            ratio(coalesced as f64, reads as f64),
            "ratio",
        );
        let serves = delta("sisa_stream_serves_total");
        m.set("service.stream.serves", serves, "count");
        m.set(
            "service.shared_share",
            ratio(hits as f64 + coalesced as f64 + serves, reads as f64),
            "ratio",
        );
        m.set(
            "service.dispatch.jobs_per_batch",
            ratio(
                delta("sisa_dispatch_jobs_total"),
                delta("sisa_dispatch_batches_total"),
            ),
            "count",
        );
        m.set("service.mutate.execute_ms", med(&mutate), "ms");
        m.set(
            "graph.registry.loads",
            delta("sisa_graph_loads_total"),
            "count",
        );
        m.set(
            "graph.registry.mutations",
            delta("sisa_mutations_total"),
            "count",
        );
        m.set(
            "sim.cycles_per_query",
            ratio(cycles as f64, execute.len() as f64),
            "cycles",
        );
        m.set("trace.identity_violations", violations as f64, "count");
        m.set("trace.unaccounted_s", negative_ns as f64 / 1e9, "s");
        if violations > 0 {
            errors.push(format!(
                "layer-sum identity: {violations} reads with server spans outside their wire interval"
            ));
        }
        Ok(())
    }
}
