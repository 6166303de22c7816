//! Repair determinism: a re-encoded shard must be byte-identical to the
//! lost original (systematic Reed–Solomon plus the lowest-`m`-indices
//! surplus rule makes decode a pure function of *which* shards survive,
//! not of arrival order), and a full crash → repair-storm → re-converge
//! scenario must be reproducible — same seed, same final state, with the
//! default region sharding or in one queue.

use gloss_sim::{NodeIndex, SimDuration};
use gloss_store::{Document, ErasureCode, Priority, StoreConfig, StoreNetwork};
use proptest::prelude::*;

/// Deterministic xorshift byte stream for content generation.
fn fill(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s & 0xff) as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Losing any subset of shards (leaving at least m) and repairing
    // from the survivors reproduces every lost shard byte-for-byte.
    #[test]
    fn repaired_shards_are_byte_identical_to_originals(
        len in 1usize..2048,
        seed in 1u64..1_000_000,
        m in 1usize..8,
        extra in 1usize..6,
    ) {
        let n = m + extra;
        let content = fill(seed, len);
        let code = ErasureCode::new(m, n).unwrap();
        let shards = code.encode(&content);
        // Drop a seed-derived subset, keeping at least m survivors.
        let mut s = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1;
        let mut survivors: Vec<(usize, Vec<u8>)> =
            (0..n).map(|i| (i, shards[i].clone())).collect();
        while survivors.len() > m {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s & 3 == 0 {
                break;
            }
            let k = ((s >> 2) as usize) % survivors.len();
            survivors.remove(k);
        }
        let data = code.decode(&survivors, len).unwrap();
        prop_assert_eq!(&data, &content, "decoded object differs");
        // Re-encoding the decoded object reproduces every original
        // shard — what the repair pipeline re-inserts after a crash is
        // exactly what was lost.
        let reencoded = code.encode(&data);
        for (i, (orig, repaired)) in shards.iter().zip(reencoded.iter()).enumerate() {
            prop_assert_eq!(orig, repaired, "shard {} not byte-identical after repair", i);
        }
    }
}

/// Runs a fixed crash-and-repair storm and digests the final state:
/// repair/lookup counters, per-document redundancy, and shard survival.
/// The world keeps its default sharding, or runs in one region when
/// `one_queue` is set.
fn storm_digest(one_queue: bool) -> String {
    let cfg = StoreConfig {
        replicas: 2,
        heal_interval: SimDuration::from_secs(10),
        repair_interval: SimDuration::from_secs(10),
        ..Default::default()
    };
    let mut net = StoreNetwork::build(24, cfg, 4242);
    if one_queue {
        net.world_mut().set_region_count(1);
    }
    assert_eq!(net.world().region_count() == 1, one_queue, "the default world shards");
    net.settle();
    let docs: Vec<Document> = (0..6)
        .map(|i| {
            Document::new(format!("doc-{i}"), fill(100 + i, 256)).with_priority(match i % 3 {
                0 => Priority::High,
                1 => Priority::Normal,
                _ => Priority::Low,
            })
        })
        .collect();
    for (i, d) in docs.iter().enumerate() {
        net.insert(NodeIndex(i as u32), d.clone());
    }
    net.insert_erasure(NodeIndex(0), "storm-obj", &fill(777, 900), 3, 6).unwrap();
    net.run_for(SimDuration::from_secs(60));
    net.crash_region("us-east");
    net.crash_region("australia");
    net.run_for(SimDuration::from_secs(300));
    let mut out = String::new();
    for d in &docs {
        out.push_str(&format!("{}={}\n", d.name, net.replica_count(d.guid)));
    }
    out.push_str(&format!("shards={}\n", net.shards_alive("storm-obj", 6)));
    for c in [
        "store.repair_puts",
        "store.repair_shards",
        "store.repair_bytes",
        "store.locations_purged",
        "store.lookups_retried",
        "store.lookups_timeout",
        "store.evictions",
        "sim.messages_sent",
    ] {
        out.push_str(&format!("{c}={}\n", net.counter(c)));
    }
    out
}

#[test]
fn repair_storm_is_reproducible() {
    let a = storm_digest(false);
    let b = storm_digest(false);
    assert_eq!(a, b, "same seed, same storm, different outcome");
}

#[test]
fn repair_storm_is_region_count_invariant() {
    assert_eq!(storm_digest(true), storm_digest(false), "the sharded world diverged");
}
