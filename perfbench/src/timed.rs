//! A forwarding [`SetEngine`] that times every call by op family.
//!
//! The benchmark measures layers from the outside: the algorithms crate
//! calls this wrapper exactly as it would call the inner engine, and the
//! wrapper adds up the host time spent inside the inner engine. Run time
//! outside those calls is the algorithm's own time.

use sisa_core::{ExecStats, SetEngine, SetId, TaskRecord, Vertex};
use sisa_sets::SetRepr;
use std::time::{Duration, Instant};

/// The op families the wrapper keeps apart.
#[derive(Clone, Copy)]
enum Family {
    /// create / clone / delete.
    Lifecycle,
    /// cardinality / contains / members.
    Query,
    /// insert / remove.
    Update,
    /// The binary set operations and their counting and in-place forms.
    Binary,
    /// host_ops, task boundaries, lane absorption, universe changes.
    Host,
}

const FAMILIES: usize = 5;

/// Metric-name stems of the families, in `Family` order.
pub const FAMILY_NAMES: [&str; FAMILIES] = ["lifecycle", "query", "update", "binary", "host"];

/// Host time and call count per op family.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTimes {
    pub time: [Duration; FAMILIES],
    pub calls: [u64; FAMILIES],
}

impl CallTimes {
    pub fn total_time(&self) -> Duration {
        self.time.iter().sum()
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    pub fn add(&mut self, other: &CallTimes) {
        for f in 0..FAMILIES {
            self.time[f] += other.time[f];
            self.calls[f] += other.calls[f];
        }
    }
}

/// The forwarding wrapper. With `enabled == false` it forwards every call
/// without reading the clock, so the untraced and traced runs share one
/// code path. Either way it records the host latency of every mining task
/// (`task_begin` to `task_end`), the unit of work the algorithms hand to
/// the parallel scheduler.
pub struct Timed<E> {
    pub inner: E,
    enabled: bool,
    pub times: CallTimes,
    task_started: Option<Instant>,
    /// Host milliseconds of each finished task.
    pub task_ms: Vec<f64>,
}

impl<E: SetEngine> Timed<E> {
    pub fn new(inner: E, enabled: bool) -> Self {
        Timed {
            inner,
            enabled,
            times: CallTimes::default(),
            task_started: None,
            task_ms: Vec::new(),
        }
    }

    #[inline]
    fn timed<R>(&mut self, family: Family, f: impl FnOnce(&mut E) -> R) -> R {
        if !self.enabled {
            return f(&mut self.inner);
        }
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.times.time[family as usize] += started.elapsed();
        self.times.calls[family as usize] += 1;
        out
    }
}

impl<E: SetEngine> SetEngine for Timed<E> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn set_universe(&mut self, n: usize) {
        self.timed(Family::Host, |e| e.set_universe(n));
    }

    fn universe(&self) -> usize {
        self.inner.universe()
    }

    fn stats(&self) -> &ExecStats {
        self.inner.stats()
    }

    // Not timed: the benchmark resets statistics between runs, outside the
    // algorithm.
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn live_sets(&self) -> usize {
        self.inner.live_sets()
    }

    fn create(&mut self, repr: SetRepr) -> SetId {
        self.timed(Family::Lifecycle, |e| e.create(repr))
    }

    fn clone_set(&mut self, id: SetId) -> SetId {
        self.timed(Family::Lifecycle, |e| e.clone_set(id))
    }

    fn delete(&mut self, id: SetId) {
        self.timed(Family::Lifecycle, |e| e.delete(id));
    }

    fn cardinality(&mut self, id: SetId) -> usize {
        self.timed(Family::Query, |e| e.cardinality(id))
    }

    fn contains(&mut self, id: SetId, v: Vertex) -> bool {
        self.timed(Family::Query, |e| e.contains(id, v))
    }

    fn members(&mut self, id: SetId) -> Vec<Vertex> {
        self.timed(Family::Query, |e| e.members(id))
    }

    fn repr(&self, id: SetId) -> &SetRepr {
        self.inner.repr(id)
    }

    fn insert(&mut self, id: SetId, v: Vertex) -> bool {
        self.timed(Family::Update, |e| e.insert(id, v))
    }

    fn remove(&mut self, id: SetId, v: Vertex) -> bool {
        self.timed(Family::Update, |e| e.remove(id, v))
    }

    fn intersect(&mut self, a: SetId, b: SetId) -> SetId {
        self.timed(Family::Binary, |e| e.intersect(a, b))
    }

    fn union(&mut self, a: SetId, b: SetId) -> SetId {
        self.timed(Family::Binary, |e| e.union(a, b))
    }

    fn difference(&mut self, a: SetId, b: SetId) -> SetId {
        self.timed(Family::Binary, |e| e.difference(a, b))
    }

    fn intersect_count(&mut self, a: SetId, b: SetId) -> usize {
        self.timed(Family::Binary, |e| e.intersect_count(a, b))
    }

    fn union_count(&mut self, a: SetId, b: SetId) -> usize {
        self.timed(Family::Binary, |e| e.union_count(a, b))
    }

    fn difference_count(&mut self, a: SetId, b: SetId) -> usize {
        self.timed(Family::Binary, |e| e.difference_count(a, b))
    }

    fn intersect_assign(&mut self, a: SetId, b: SetId) {
        self.timed(Family::Binary, |e| e.intersect_assign(a, b));
    }

    fn union_assign(&mut self, a: SetId, b: SetId) {
        self.timed(Family::Binary, |e| e.union_assign(a, b));
    }

    fn difference_assign(&mut self, a: SetId, b: SetId) {
        self.timed(Family::Binary, |e| e.difference_assign(a, b));
    }

    fn host_ops(&mut self, n: u64) {
        self.timed(Family::Host, |e| e.host_ops(n));
    }

    fn absorb_lane_work(&mut self, cycles: u64, writes: &[SetId]) {
        self.timed(Family::Host, |e| e.absorb_lane_work(cycles, writes));
    }

    fn task_begin(&mut self) {
        self.timed(Family::Host, SetEngine::task_begin);
        self.task_started = Some(Instant::now());
    }

    fn task_end(&mut self) -> TaskRecord {
        if let Some(started) = self.task_started.take() {
            self.task_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        self.timed(Family::Host, SetEngine::task_end)
    }
}
