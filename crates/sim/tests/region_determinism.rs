//! Cross-region determinism: a world over a 4-region topology produces
//! byte-identical traces, identical per-node schedules, identical engine
//! counters, and an identical settle time at region counts 1, 2, and 4 —
//! at any wheel geometry. The schedule is a function of the seed, not of
//! how the event plane is sharded or bucketed.

use gloss_sim::testkit::Chatter;
use gloss_sim::{NodeIndex, SimDuration, SimRng, SimTime, Topology, World};
use proptest::prelude::*;

type Outcome = (String, Vec<String>, f64, u64, u64, SimTime);

/// Runs the same seeded scenario (a 4-region topology with churn) at the
/// given region count and wheel geometry.
fn run(regions: usize, width: u64, buckets: usize) -> Outcome {
    const N: usize = 24;
    const SEED: u64 = 9107;
    let topology = Topology::random(N, &["scotland", "us-east", "brazil", "asia"], SEED);
    let nodes: Vec<Chatter> =
        (0..N).map(|i| Chatter::new(i as u32, N as u32, 0xc0ffee ^ (i as u64) << 9, 6)).collect();
    let mut w = World::new(topology, SEED, nodes);
    w.set_region_count(regions);
    w.set_wheel_geometry(width, buckets);
    w.enable_tracing(1 << 20);
    w.set_loss(0.15);
    // Churn across the run, including nodes in different shards.
    let mut rng = SimRng::new(SEED).fork("churn-script");
    for k in 0..5u64 {
        let victim = NodeIndex(rng.index(N) as u32);
        let at = SimTime::from_millis(10 + 17 * k);
        w.crash_at(at, victim);
        w.recover_at(at + SimDuration::from_millis(25), victim);
    }
    // Mid-run harness injections (the window must retreat correctly).
    w.run_until(SimTime::from_millis(30));
    for _ in 0..6 {
        let a = NodeIndex(rng.index(N) as u32);
        let b = NodeIndex(rng.index(N) as u32);
        w.inject(a, b, 8);
    }
    let settle = w.run_to_quiescence(SimTime::from_secs(30));
    let logs: Vec<String> = w.nodes().map(|n| n.log.join("\n")).collect();
    let m = w.metrics();
    (
        w.tracer().render(),
        logs,
        m.counter("chatter.msgs"),
        m.counter("sim.messages_sent") as u64,
        m.counter("sim.messages_lost") as u64,
        settle,
    )
}

#[test]
fn region_counts_1_2_4_yield_byte_identical_traces() {
    let baseline = run(1, 1024, 256);
    let two = run(2, 1024, 256);
    let four = run(4, 1024, 256);
    assert_eq!(baseline.0, two.0, "trace differs at 2 regions");
    assert_eq!(baseline.0, four.0, "trace differs at 4 regions");
    assert_eq!(baseline, two, "outcome differs at 2 regions");
    assert_eq!(baseline, four, "outcome differs at 4 regions");
    assert!(!baseline.0.is_empty(), "trace actually recorded something");
}

#[test]
fn wheel_geometry_does_not_change_the_schedule() {
    let baseline = run(4, 1024, 256);
    for (width, buckets) in [(64, 32), (256, 64), (8192, 8), (1 << 20, 4)] {
        let other = run(4, width, buckets);
        assert_eq!(baseline, other, "outcome differs at width={width} buckets={buckets}");
    }
}

// ---------------------------------------------------------------------------
// Sharded parity as a property (same harness style as engine_equivalence):
// random topologies, loss rates, crash/recover schedules, and mid-run
// injections must produce byte-identical traces, per-node schedules,
// counters, and settle times with one shard per region name and with a
// single queue.
// ---------------------------------------------------------------------------

const REGION_POOL: &[&str] =
    &["scotland", "england", "europe", "us-east", "us-west", "brazil", "australia", "asia"];

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    nodes: usize,
    region_names: usize,
    loss_pct: u64,
    injects: u64,
    crashes: u64,
    rounds: u32,
}

/// Runs the scenario with the default sharding, or in one region when
/// `one_queue` is set.
fn scripted_run(s: &Scenario, one_queue: bool) -> Outcome {
    let regions: Vec<&str> = REGION_POOL[..s.region_names].to_vec();
    let topology = Topology::random(s.nodes, &regions, s.seed);
    let nodes: Vec<Chatter> = (0..s.nodes)
        .map(|i| Chatter::new(i as u32, s.nodes as u32, s.seed ^ (i as u64) << 13, s.rounds))
        .collect();
    let mut w = World::new(topology, s.seed, nodes);
    if one_queue {
        w.set_region_count(1);
    }
    w.enable_tracing(1 << 20);
    w.set_loss(s.loss_pct as f64 / 100.0);
    let mut rng = SimRng::new(s.seed).fork("parity-script");
    for _ in 0..s.crashes {
        let victim = NodeIndex(rng.index(s.nodes) as u32);
        let at = SimTime::from_millis(5 + rng.range(0, 120));
        w.crash_at(at, victim);
        w.recover_at(at + SimDuration::from_millis(10 + rng.range(0, 60)), victim);
    }
    for _ in 0..s.injects {
        let a = NodeIndex(rng.index(s.nodes) as u32);
        let b = NodeIndex(rng.index(s.nodes) as u32);
        w.inject(a, b, rng.range(0, 80) * 8);
    }
    // Run in phases with mid-run harness activity: segments must resume
    // correctly after the lockstep window retreats.
    w.run_until(SimTime::from_millis(40));
    for _ in 0..s.injects / 2 {
        let a = NodeIndex(rng.index(s.nodes) as u32);
        let b = NodeIndex(rng.index(s.nodes) as u32);
        w.inject(a, b, rng.range(0, 60) * 8);
    }
    w.run_until(SimTime::from_millis(400));
    let settle = w.run_to_quiescence(SimTime::from_secs(30));
    let logs: Vec<String> = w.nodes().map(|n| n.log.join("\n")).collect();
    let m = w.metrics();
    (
        w.tracer().render(),
        logs,
        m.counter("chatter.msgs"),
        m.counter("sim.messages_sent") as u64,
        m.counter("sim.messages_lost") as u64,
        settle,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_runs_match_one_queue(
        seed in 0u64..1_000_000,
        nodes in 4usize..28,
        region_names in 2usize..7,
        loss_pct in 0u64..3, // scaled below to 0%, 35%, 70%
        injects in 0u64..10,
        crashes in 0u64..5,
        rounds in 1u32..8,
    ) {
        let s = Scenario {
            seed,
            nodes,
            region_names,
            loss_pct: loss_pct * 35,
            injects,
            crashes,
            rounds,
        };
        let one = scripted_run(&s, true);
        let sharded = scripted_run(&s, false);
        prop_assert_eq!(&one.0, &sharded.0, "trace diverged when sharded: {:?}", &s);
        prop_assert_eq!(&one.1, &sharded.1, "per-node schedules diverged when sharded: {:?}", &s);
        prop_assert_eq!(&one, &sharded, "outcome diverged when sharded: {:?}", &s);
    }
}

#[test]
fn worlds_actually_shard() {
    let topology = Topology::random(8, &["scotland", "us-east", "brazil", "asia"], 3);
    let nodes = (0..8).map(|i| Chatter::new(i, 8, i as u64, 0)).collect();
    let w: World<Chatter> = World::new(topology, 3, nodes);
    // Defaults to one region per distinct topology region name.
    assert_eq!(w.region_count(), 4);
    assert!(w.slice_micros() > 0);
}
