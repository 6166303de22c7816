//! Byte-identity with the governor active: two worlds built from one seed
//! in one process, each running a governed overlay under the full
//! robustness plane — regional partition + heal, a byzantine
//! ack-then-drop peer, crash/recover casualties, routed traffic — must
//! produce an identical trace, identical route outcomes, and identical
//! governor counters. The suspicion clock, circuit transitions, admission
//! verdicts, and re-route decisions are functions of the seed; state that
//! leaked from the first world into the second (a process-global counter
//! or cache) would show here.

use gloss_overlay::{ByzBehavior, GovernorConfig, Key, OverlayNetwork};
use gloss_sim::{NodeIndex, SimDuration};

/// Trace, route outcomes, and counters.
type Outcome = (String, Vec<(u64, u32, u64)>, Vec<(String, u64)>);

/// Runs the scenario in a fresh world.
fn run(seed: u64) -> Outcome {
    const N: usize = 32;
    let mut net = OverlayNetwork::build_with(N, seed, Some(GovernorConfig::default()));
    net.world_mut().enable_tracing(1 << 20);
    net.settle();
    assert!(net.joined_fraction() > 0.99, "governed overlay failed to settle");
    net.set_byzantine(NodeIndex((seed % N as u64) as u32), ByzBehavior::AckThenDrop);
    let t0 = net.now() + SimDuration::from_secs(1);
    let heal = t0 + SimDuration::from_secs(20);
    net.world_mut().partition_regions_at(t0, Some(heal), &["us-west", "australia"]);
    // Casualties stay down past the heal: ~24 s of silence is enough for
    // the phi-accrual detector to suspect and quarantine them (traced),
    // short enough that none is evicted.
    for k in 0..3u32 {
        let victim = NodeIndex(1 + (5 * k) % (N as u32 - 1));
        net.world_mut().crash_at(t0 + SimDuration::from_secs(2), victim);
        net.world_mut().recover_at(t0 + SimDuration::from_secs(26), victim);
    }
    // Route perturbed node keys throughout the cut, the heal, and the
    // recovery (random hashes cluster under FNV; perturbed node keys
    // exercise the whole ring, including forwards through suspects).
    for round in 0..8u64 {
        for j in (0..N as u32).step_by(3) {
            let target = Key(net.id_of(NodeIndex(j)).key.0 ^ (round as u128 * 97 + j as u128 + 1));
            let from = net.random_node();
            net.route_from(from, target);
        }
        net.run_for(SimDuration::from_secs(5));
    }
    net.run_for(SimDuration::from_secs(30));
    let routes: Vec<(u64, u32, u64)> =
        net.outcomes().iter().map(|(id, o)| (*id, o.delivered_at.0, o.hops as u64)).collect();
    let m = net.world().metrics();
    let counters: Vec<(String, u64)> = [
        "sim.messages_sent",
        "sim.messages_delivered",
        "sim.messages_partitioned",
        "overlay.suspected",
        "overlay.evictions",
        "overlay.reroutes",
        "overlay.refutations",
        "overlay.join_backoff",
        "overlay.byz_dropped",
        "overlay.delivered",
    ]
    .iter()
    .map(|name| (name.to_string(), m.counter(name) as u64))
    .collect();
    (net.world().tracer().render(), routes, counters)
}

#[test]
fn governed_faults_replay_byte_identical() {
    for seed in [11u64, 4242] {
        let first = run(seed);
        assert!(!first.0.is_empty(), "trace recorded nothing at seed {seed}");
        let second = run(seed);
        assert_eq!(first.0, second.0, "trace diverged on replay (seed {seed})");
        assert_eq!(first.1, second.1, "route outcomes diverged on replay (seed {seed})");
        assert_eq!(first.2, second.2, "governor counters diverged on replay (seed {seed})");
    }
}
