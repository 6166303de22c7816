//! Wheel-geometry byte-identity with the governor active: a governed
//! overlay under the full robustness plane — regional partition + heal,
//! a byzantine ack-then-drop peer, crash/recover casualties, routed
//! traffic — must produce an identical trace, identical route outcomes,
//! and identical governor counters at the default calendar-queue geometry
//! and at 1 µs × 2 buckets, whose 2 µs horizon sends every message and
//! timer through the overflow heap. The suspicion clock, circuit
//! transitions, admission verdicts, and re-route decisions are functions
//! of the seed, not of the scheduler.

use gloss_overlay::{GovernorConfig, Key, OverlayNetwork};
use gloss_sim::{ByzBehavior, NodeIndex, SimDuration};

/// Trace, route outcomes, and counters.
type Outcome = (String, Vec<(u64, u32, u64)>, Vec<(String, u64)>);

/// Runs the scenario at the default wheel geometry, or at the narrow one
/// when `narrow` is set.
fn run(seed: u64, narrow: bool) -> Outcome {
    const N: usize = 32;
    let mut net = OverlayNetwork::build_with(N, seed, Some(GovernorConfig::default()));
    if narrow {
        net.world_mut().set_wheel_geometry(1, 2);
    }
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
fn governed_faults_identical_at_any_wheel_geometry() {
    for seed in [11u64, 4242] {
        let default = run(seed, false);
        assert!(!default.0.is_empty(), "trace recorded nothing at seed {seed}");
        let narrow = run(seed, true);
        assert_eq!(default.0, narrow.0, "trace diverged on the narrow wheel (seed {seed})");
        assert_eq!(
            default.1, narrow.1,
            "route outcomes diverged on the narrow wheel (seed {seed})"
        );
        assert_eq!(
            default.2, narrow.2,
            "governor counters diverged on the narrow wheel (seed {seed})"
        );
    }
}
