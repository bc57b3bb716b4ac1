//! Golden pins of the priced simulator: the complete [`ExecStats`] of small
//! mining runs, compared against values recorded from an earlier build.
//!
//! The property tests elsewhere compare configurations with each other
//! (serial vs pipelined vs renamed, flat vs sharded). None of them would
//! notice a change that shifts every configuration the same way, such as a
//! rewrite of the scoreboard, rename, metadata or SMB tables that changed an
//! LRU victim or a hazard time. These tests pin absolute values instead:
//! every work counter, the makespan, dependence and false-dependence stalls,
//! bypasses, SMB hits and misses, the per-opcode maps and the exact bits of
//! the f64 energy sum.
//!
//! The workloads are self-contained set-centric kernels (`tc`, `kcc-4` and
//! Bron–Kerbosch `mc`) over the engine API, run on a built-in dataset
//! stand-in, so the pins move only when pricing in this crate moves. If a
//! change is meant to alter pricing, re-record the pins and say why in the
//! change description.

use sisa_core::{
    BatchOp, ExecStats, PartitionStrategy, SetEngine, SetGraph, SetGraphConfig, ShardedEngine,
    SisaConfig, SisaRuntime,
};
use sisa_graph::datasets;
use sisa_graph::orientation::degeneracy_order;
use sisa_graph::CsrGraph;
use sisa_isa::SisaOpcode;
use sisa_sets::Vertex;
use std::collections::BTreeMap;
use std::fmt::Write;

/// The dataset stand-in the pins run on, and its generator seed.
const DATASET: &str = "bn-flyMedulla";
const SEED: u64 = 7;

/// Pattern budgets: each kernel stops once it has found this many.
const TC_BUDGET: u64 = 2_000;
const KCC4_BUDGET: u64 = 2_000;
const MC_BUDGET: u64 = 300;

/// The plain graph and its degeneracy orientation (same vertex IDs).
fn graphs() -> (CsrGraph, CsrGraph) {
    let csr = datasets::by_name(DATASET)
        .expect("dataset stand-in exists")
        .generate(SEED);
    let oriented = degeneracy_order(&csr).orient(&csr);
    (csr, oriented)
}

/// `tc = Σ_v Σ_{w ∈ N⁺(v)} |N⁺(v) ∩ N⁺(w)|`, counting intersections.
fn tc<E: SetEngine>(e: &mut E, g: &SetGraph) -> u64 {
    let mut total = 0;
    for v in g.vertices() {
        let nv = g.neighborhood(v);
        for &w in g.neighbors(v) {
            e.host_ops(2);
            total += e.intersect_count(nv, g.neighborhood(w)) as u64;
            if total >= TC_BUDGET {
                return total;
            }
        }
    }
    total
}

/// 4-clique counting: materialise `C3 = N⁺(u) ∩ N⁺(v)`, read it out, count
/// `|C3 ∩ N⁺(x)|` for each member, delete the temporary (its ID recycles).
fn kcc4<E: SetEngine>(e: &mut E, g: &SetGraph) -> u64 {
    let mut total = 0;
    for u in g.vertices() {
        let c2 = g.neighborhood(u);
        for &v in g.neighbors(u) {
            e.host_ops(1);
            let c3 = e.intersect(c2, g.neighborhood(v));
            if e.cardinality(c3) > 0 {
                for x in e.members(c3) {
                    total += e.intersect_count(c3, g.neighborhood(x)) as u64;
                }
            }
            e.delete(c3);
            if total >= KCC4_BUDGET {
                return total;
            }
        }
    }
    total
}

/// Bron–Kerbosch with the first candidate as pivot. `p` and `x` are owned
/// temporaries; the recursion clones, diffs, intersects and updates them in
/// place, so every lifecycle and element opcode is priced.
fn bk<E: SetEngine>(e: &mut E, plain: &SetGraph, p: sisa_isa::SetId, x: sisa_isa::SetId) -> u64 {
    if e.cardinality(p) == 0 {
        return u64::from(e.cardinality(x) == 0);
    }
    let pivot = e.members(p)[0];
    let branch = e.difference(p, plain.neighborhood(pivot));
    let mut found = 0;
    for v in e.members(branch) {
        let nv = plain.neighborhood(v);
        let p2 = e.intersect(p, nv);
        let x2 = e.intersect(x, nv);
        found += bk(e, plain, p2, x2);
        e.delete(p2);
        e.delete(x2);
        e.remove(p, v);
        e.insert(x, v);
    }
    e.delete(branch);
    found
}

fn mc<E: SetEngine>(e: &mut E, plain: &SetGraph, oriented: &SetGraph) -> u64 {
    let mut total = 0;
    for v in oriented.vertices() {
        let later = oriented.neighborhood(v);
        let p = e.clone_set(later);
        let x = e.difference(plain.neighborhood(v), later);
        total += bk(e, plain, p, x);
        e.delete(p);
        e.delete(x);
        if total >= MC_BUDGET {
            break;
        }
    }
    total
}

/// Every field of `s`, the energy sum as its exact bit pattern.
fn fingerprint(s: &ExecStats) -> String {
    fn map(m: &BTreeMap<SisaOpcode, u64>) -> String {
        let mut out = String::new();
        for (op, n) in m {
            write!(out, "{op:?}={n},").unwrap();
        }
        out
    }
    format!(
        "scu={} pum={} pnm={} host={} link={}/{}B makespan={} dep_stall={} false_dep={} \
         bypassed={} pum_ops={} pnm_ops={} merge={} gallop={} smb={}/{} energy={:#018x} sizes={} \
         | instr: {} | stall: {} | false: {} | bypass: {}",
        s.scu_cycles,
        s.pum_cycles,
        s.pnm_cycles,
        s.host_cycles,
        s.link_cycles,
        s.link_bytes,
        s.makespan_cycles,
        s.dep_stall_cycles,
        s.false_dep_stalls_removed,
        s.bypassed_instructions,
        s.pum_ops,
        s.pnm_ops,
        s.merge_selected,
        s.gallop_selected,
        s.smb_hits,
        s.smb_misses,
        s.energy_nj.to_bits(),
        s.processed_set_sizes.len(),
        map(&s.instructions),
        map(&s.dep_stall_by_opcode),
        map(&s.false_dep_removed_by_opcode),
        map(&s.bypass_by_opcode),
    )
}

/// Runs the three kernels on a fresh runtime under `config`, one measured
/// region each, and returns `(answer, fingerprint)` per kernel.
fn suite(config: SisaConfig) -> Vec<(u64, String)> {
    let (csr, oriented_csr) = graphs();
    let mut rt = SisaRuntime::new(config);
    let cfg = SetGraphConfig::default();
    let oriented = SetGraph::load(&mut rt, &oriented_csr, &cfg);
    let plain = SetGraph::load(&mut rt, &csr, &cfg);
    let mut out = Vec::new();
    rt.reset_stats();
    let n = tc(&mut rt, &oriented);
    out.push((n, fingerprint(rt.stats())));
    rt.reset_stats();
    let n = kcc4(&mut rt, &oriented);
    out.push((n, fingerprint(rt.stats())));
    rt.reset_stats();
    let n = mc(&mut rt, &plain, &oriented);
    out.push((n, fingerprint(rt.stats())));
    out
}

fn assert_pins(got: &[(u64, String)], want: &[(u64, &str)]) {
    assert_eq!(got.len(), want.len());
    for (i, ((n, fp), (want_n, want_fp))) in got.iter().zip(want).enumerate() {
        assert_eq!(n, want_n, "kernel {i}: answer moved");
        assert_eq!(fp, want_fp, "kernel {i}: priced statistics moved");
    }
}

#[test]
fn serial_default_config_pricing_is_pinned() {
    assert_pins(
        &suite(SisaConfig::default()),
        &[
            (
                1296,
                "scu=212280 pum=21608 pnm=591387 host=8985 link=0/0B makespan=834260 \
                dep_stall=0 false_dep=0 bypassed=0 pum_ops=74 pnm_ops=8911 \
                merge=7375 gallop=92 smb=16170/1800 energy=0x40dba1347ae14143 \
                sizes=0 | instr: IntersectCountAuto=8985, | stall:  | false:  | \
                bypass: ",
            ),
            (
                138,
                "scu=190068 pum=35300 pnm=743251 host=5140 link=0/0B makespan=973759 \
                dep_stall=0 false_dep=0 bypassed=0 pum_ops=129 pnm_ops=10152 \
                merge=7851 gallop=184 smb=38532/0 energy=0x40e97923d70a4541 sizes=0 \
                | instr: \
                IntersectAuto=8985,IntersectCountAuto=1296,Cardinality=8985,DeleteSet=8985, \
                | stall:  | false:  | bypass: ",
            ),
            (
                302,
                "scu=57732 pum=222060 pnm=335359 host=780 link=0/0B makespan=615931 \
                dep_stall=0 false_dep=0 bypassed=0 pum_ops=751 pnm_ops=1007 merge=54 \
                gallop=17 smb=7842/216 energy=0x40fe4c77ae147833 sizes=0 | instr: \
                IntersectAuto=1298,InsertElement=649,RemoveElement=649,DifferenceAuto=460,Cardinality=1162,DeleteSet=1866,CloneSet=108, \
                | stall:  | false:  | bypass: ",
            ),
        ],
    );
}

#[test]
fn renamed_out_of_order_pricing_is_pinned() {
    assert_pins(
        &suite(SisaConfig::renamed(16)),
        &[
            (
                1296,
                "scu=212280 pum=21608 pnm=591387 host=8985 link=0/0B makespan=141568 \
                dep_stall=0 false_dep=0 bypassed=3894 pum_ops=74 pnm_ops=8911 \
                merge=7375 gallop=92 smb=16170/1800 energy=0x40dba1347ae14143 \
                sizes=0 | instr: IntersectCountAuto=8985, | stall:  | false:  | \
                bypass: IntersectCountAuto=3894,",
            ),
            (
                138,
                "scu=190068 pum=35300 pnm=743251 host=5140 link=0/0B makespan=195618 \
                dep_stall=7882607 false_dep=3269810 bypassed=15837 pum_ops=129 \
                pnm_ops=10152 merge=7851 gallop=184 smb=38532/0 \
                energy=0x40e97923d70a4541 sizes=0 | instr: \
                IntersectAuto=8985,IntersectCountAuto=1296,Cardinality=8985,DeleteSet=8985, \
                | stall: \
                IntersectCountAuto=479825,Cardinality=3737917,DeleteSet=3203431, | \
                false: IntersectAuto=3131055,DeleteSet=138755, | bypass: \
                IntersectAuto=8689,IntersectCountAuto=163,Cardinality=930,DeleteSet=901,",
            ),
            (
                302,
                "scu=57732 pum=222060 pnm=335359 host=780 link=0/0B makespan=182467 \
                dep_stall=1576710 false_dep=235224 bypassed=5042 pum_ops=751 \
                pnm_ops=1007 merge=54 gallop=17 smb=7842/216 \
                energy=0x40fe4c77ae147833 sizes=0 | instr: \
                IntersectAuto=1298,InsertElement=649,RemoveElement=649,DifferenceAuto=460,Cardinality=1162,DeleteSet=1866,CloneSet=108, \
                | stall: \
                IntersectAuto=275934,InsertElement=43733,RemoveElement=30198,DifferenceAuto=98623,Cardinality=388644,DeleteSet=414177, \
                | false: \
                IntersectAuto=33323,InsertElement=73426,RemoveElement=72515,DifferenceAuto=15976,DeleteSet=15731,CloneSet=24253, \
                | bypass: \
                IntersectAuto=992,InsertElement=601,RemoveElement=609,DifferenceAuto=277,Cardinality=595,DeleteSet=1153,CloneSet=94,",
            ),
        ],
    );
}

#[test]
fn sharded_execute_batch_pricing_is_pinned() {
    let (_, oriented_csr) = graphs();
    let mut engine = ShardedEngine::sisa(4, PartitionStrategy::Modulo, SisaConfig::default());
    let oriented = SetGraph::load(&mut engine, &oriented_csr, &SetGraphConfig::default());
    engine.reset_stats();
    let ops: Vec<BatchOp> = oriented
        .vertices()
        .flat_map(|v| {
            oriented
                .neighbors(v)
                .iter()
                .map(move |&w: &Vertex| (v, w))
                .collect::<Vec<_>>()
        })
        .map(|(v, w)| BatchOp::IntersectCount(oriented.neighborhood(v), oriented.neighborhood(w)))
        .collect();
    let tc: u64 = engine
        .execute(&ops)
        .into_iter()
        .map(|r| r.count() as u64)
        .sum();
    let traffic = engine.traffic();
    let got = format!(
        "tc={tc} ops={} | {} | shards: {} | traffic: {:?}",
        ops.len(),
        fingerprint(engine.stats()),
        (0..engine.shard_count())
            .map(|s| engine.shard_stats(s).makespan_cycles.to_string())
            .collect::<Vec<_>>()
            .join(","),
        traffic,
    );
    assert_eq!(
        got,
        "tc=1296 ops=8985 | scu=673800 pum=21608 pnm=591387 host=0 \
        link=124047/141948B makespan=376932 dep_stall=0 false_dep=0 \
        bypassed=0 pum_ops=74 pnm_ops=8911 merge=7375 gallop=92 \
        smb=24658/6688 energy=0x40f1210fae147a8c sizes=0 | instr: \
        IntersectCountAuto=8985,CreateSet=6688,DeleteSet=6688, | stall:  | \
        false:  | bypass:  | shards: 376932,342306,314733,376871 | traffic: \
        LinkTraffic { cross_ops: 6688, bytes: 141948, cycles: 124047, \
        energy_nj: 28759.680000000888, sent_by_shard: [35212, 35984, 34436, \
        36316], cycles_by_shard: [37842, 25723, 23776, 36706] }"
    );
}
