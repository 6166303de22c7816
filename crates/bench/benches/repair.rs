//! Storage-plane repair benches: the CPU-bound inner loops of the
//! self-healing pipeline (`s8_*`) and the end-to-end costs a client or a
//! background scanner pays on a live network (`c19_*`). The repair-storm
//! *scenario* itself lives in the `report` binary (C19 table) and the
//! `smoke repair` scenario; these benches isolate the per-operation costs so a
//! regression in any one layer shows up as a stable number.

use criterion::{criterion_group, criterion_main, Criterion};
use gloss_sim::{GeoPoint, NodeIndex, SimDuration};
use gloss_store::{
    plan_quota_targets, Document, ErasureCode, NodeCapacity, NodeSite, StoreConfig, StoreNetwork,
};
use std::collections::BTreeMap;

/// S8: quota- and diversity-aware target selection over a 256-node
/// directory — the planning step every repair put and insert pays.
fn s8_placement(c: &mut Criterion) {
    let regions = ["scotland", "england", "europe", "us-east", "us-west", "australia"];
    let directory: Vec<NodeSite> = (0..256u32)
        .map(|i| {
            NodeSite::new(
                NodeIndex(i),
                GeoPoint::new(0.0, 0.0),
                regions[i as usize % regions.len()],
            )
            .with_capacity(NodeCapacity {
                max_bytes: 8 * 1024 * 1024 + (i as u64) * 64 * 1024,
                ..NodeCapacity::default()
            })
        })
        .collect();
    let candidates: Vec<NodeIndex> = (0..256).map(NodeIndex).collect();
    let used: BTreeMap<NodeIndex, u64> =
        (0..256u32).map(|i| (NodeIndex(i), (i as u64) * 16 * 1024)).collect();
    c.bench_function("s8_placement_plan_256_candidates", |b| {
        b.iter(|| plan_quota_targets(64 * 1024, 4, &["us-east"], &candidates, &directory, &used))
    });
}

/// S8: the erasure repair inner loop — decode the object from `m`
/// survivors, then re-encode to recover the lost shards, 64 KiB 4-of-8
/// (what a fragment-audit coordinator does after a crash).
fn s8_reencode(c: &mut Criterion) {
    let code = ErasureCode::new(4, 8).unwrap();
    let data: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
    let shards = code.encode(&data);
    // Survivors: the four parity shards — the worst case for decode.
    let kept: Vec<(usize, Vec<u8>)> = (4..8).map(|i| (i, shards[i].clone())).collect();
    c.bench_function("s8_reencode_missing_shards_64k_4of8", |b| {
        b.iter(|| {
            let rebuilt = code.decode(&kept, data.len()).unwrap();
            code.encode(&rebuilt)
        })
    });
}

/// C19: a foreground lookup through the retry plane on a healthy
/// network — issue, route, conclude. The baseline the repair-storm p50
/// is judged against.
fn c19_lookup_retrying(c: &mut Criterion) {
    let mut net = StoreNetwork::build(12, StoreConfig::default(), 19);
    net.settle();
    let doc = Document::new("repair-bench-doc", vec![7u8; 256]);
    net.insert(NodeIndex(0), doc.clone());
    net.run_for(SimDuration::from_secs(30));
    let mut reader = 1u32;
    c.bench_function("c19_lookup_retrying_and_settle", |b| {
        b.iter(|| {
            reader = (reader + 1) % 12;
            let id = net.lookup_retrying(NodeIndex(reader), doc.guid);
            net.run_for(SimDuration::from_secs(2));
            id
        })
    });
}

/// C19: steady-state cost of the background repair scanner — ten
/// simulated seconds of a settled, fully-replicated network where every
/// scan concludes "nothing to do". This is the overhead the pipeline
/// adds when there is no crash to repair.
fn c19_repair_scan(c: &mut Criterion) {
    let cfg = StoreConfig { heal_interval: SimDuration::from_secs(10), ..StoreConfig::default() };
    let mut net = StoreNetwork::build(16, cfg, 19);
    net.settle();
    for i in 0..8u64 {
        let d = Document::new(format!("scan-doc-{i}"), vec![i as u8; 512]);
        net.insert(NodeIndex((i % 16) as u32), d);
    }
    net.insert_erasure(NodeIndex(0), "scan-obj", &vec![9u8; 1200], 3, 6).unwrap();
    net.run_for(SimDuration::from_secs(120));
    c.bench_function("c19_repair_scan_steady_10s", |b| {
        b.iter(|| net.run_for(SimDuration::from_secs(10)))
    });
}

criterion_group! {
    name = repair;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = s8_placement, s8_reencode, c19_lookup_retrying, c19_repair_scan
}
criterion_main!(repair);
