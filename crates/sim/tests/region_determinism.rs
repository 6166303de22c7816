//! Wheel-geometry determinism: a world over a multi-region topology with
//! loss and churn produces byte-identical traces, identical per-node
//! schedules, identical engine counters, and an identical settle time at
//! the default calendar-queue geometry and at geometries that route
//! nearly every entry through the queue's slow paths. The schedule is a
//! function of the seed, not of how the event queue is bucketed.
//!
//! Two geometries do the stressing. `NARROW` (1 µs × 2 buckets) has a
//! 2 µs horizon, so every message and timer enters the overflow heap and
//! is refilled into the wheel as it advances. `WIDE` (~16.8 s × 2
//! buckets) puts nearly every send into the bucket being drained, after
//! it was loaded: each lands on the sorted vec's end or in the straggler
//! heap.

use gloss_sim::testkit::Chatter;
use gloss_sim::{NodeIndex, SimDuration, SimRng, SimTime, Topology, World};
use proptest::prelude::*;

type Outcome = (String, Vec<String>, f64, u64, u64, SimTime);

const DEFAULT: (u64, usize) = (1024, 256);
const NARROW: (u64, usize) = (1, 2);
const WIDE: (u64, usize) = (1 << 24, 2);

/// Runs the same seeded scenario (a 4-region topology with churn) at the
/// given wheel geometry.
fn run((width, buckets): (u64, usize)) -> Outcome {
    const N: usize = 24;
    const SEED: u64 = 9107;
    let topology = Topology::random(N, &["scotland", "us-east", "brazil", "asia"], SEED);
    let nodes: Vec<Chatter> =
        (0..N).map(|i| Chatter::new(i as u32, N as u32, 0xc0ffee ^ (i as u64) << 9, 6)).collect();
    let mut w = World::new(topology, SEED, nodes);
    w.set_wheel_geometry(width, buckets);
    w.enable_tracing(1 << 20);
    w.set_loss(0.15);
    // Churn across the run.
    let mut rng = SimRng::new(SEED).fork("churn-script");
    for k in 0..5u64 {
        let victim = NodeIndex(rng.index(N) as u32);
        let at = SimTime::from_millis(10 + 17 * k);
        w.crash_at(at, victim);
        w.recover_at(at + SimDuration::from_millis(25), victim);
    }
    // Mid-run harness injections land behind a wheel that a stopped run
    // may have advanced past `now`.
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
fn narrow_and_wide_wheels_yield_byte_identical_traces() {
    let baseline = run(DEFAULT);
    assert!(!baseline.0.is_empty(), "trace actually recorded something");
    for geometry in [NARROW, WIDE] {
        let other = run(geometry);
        assert_eq!(baseline.0, other.0, "trace differs at {geometry:?}");
        assert_eq!(baseline, other, "outcome differs at {geometry:?}");
    }
}

#[test]
fn wheel_geometry_does_not_change_the_schedule() {
    let baseline = run(DEFAULT);
    for (width, buckets) in [(64, 32), (256, 64), (8192, 8), (1 << 20, 4)] {
        let other = run((width, buckets));
        assert_eq!(baseline, other, "outcome differs at width={width} buckets={buckets}");
    }
}

// ---------------------------------------------------------------------------
// The same parity as a property (same harness style as engine_equivalence):
// random topologies, loss rates, crash/recover schedules, and mid-run
// injections must produce byte-identical traces, per-node schedules,
// counters, and settle times at the default geometry and at a stressing
// one.
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

/// Runs the scenario at the given wheel geometry.
fn scripted_run(s: &Scenario, (width, buckets): (u64, usize)) -> Outcome {
    let regions: Vec<&str> = REGION_POOL[..s.region_names].to_vec();
    let topology = Topology::random(s.nodes, &regions, s.seed);
    let nodes: Vec<Chatter> = (0..s.nodes)
        .map(|i| Chatter::new(i as u32, s.nodes as u32, s.seed ^ (i as u64) << 13, s.rounds))
        .collect();
    let mut w = World::new(topology, s.seed, nodes);
    w.set_wheel_geometry(width, buckets);
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
    // Run in phases with mid-run harness activity: injections must order
    // correctly behind a wheel a stopped run left ahead of `now`.
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
    fn stressing_wheels_match_the_default_geometry(
        seed in 0u64..1_000_000,
        nodes in 4usize..28,
        region_names in 2usize..7,
        loss_pct in 0u64..3, // scaled below to 0%, 35%, 70%
        injects in 0u64..10,
        crashes in 0u64..5,
        rounds in 1u32..8,
        wide in 0u8..2,
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
        let geometry = if wide == 1 { WIDE } else { NARROW };
        let default = scripted_run(&s, DEFAULT);
        let other = scripted_run(&s, geometry);
        prop_assert_eq!(&default.0, &other.0, "trace diverged at {:?}: {:?}", geometry, &s);
        prop_assert_eq!(&default.1, &other.1, "schedules diverged at {:?}: {:?}", geometry, &s);
        prop_assert_eq!(&default, &other, "outcome diverged at {:?}: {:?}", geometry, &s);
    }
}
