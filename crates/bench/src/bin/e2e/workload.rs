//! The four workloads, as seeded input plans.
//!
//! A [`Plan`] is everything the program will be handed, generated from
//! `--seed` before the architecture exists: the knowledge to seed, the
//! service to deploy, the UI subscriptions, every sensor event with its
//! creation time, the knowledge churn and the fault schedule. The runner
//! (`drive.rs`) feeds a plan to `ActiveArchitecture` through its public
//! API; the oracle (`oracle.rs`) computes the expected deliveries from
//! the same plan without the architecture.
//!
//! Why these four (the one-line versions live in `BENCHMARK.json`):
//!
//! * `city_steady` is the canonical sensor → broker → matchlet →
//!   knowledge → UI path at steady state. The broker index and the
//!   matchlet alpha/beta memos do the work; store, overlay, xml and
//!   knowledge are idle apart from their own probes, so their
//!   optimisations must show no change here.
//! * `context_churn` is its write side: a quarter of the event rate plus
//!   ten times the fact churn, so store lookups, overlay routing, XML,
//!   delta reconcile and memo invalidation do the work and the broker
//!   index little. A read-path win that taxes fact churn shows here.
//! * `subscriber_fanout` has no matching service at all: thousands of
//!   constrained UI subscriptions receive the sensor events directly, so
//!   `FilterIndex` probes, covering maintenance and raw dispatch through
//!   the broker star do the work; matchlet, knowledge and store idle.
//! * `degraded_recovery` runs both traffic kinds at quarter rate over
//!   lossy worker links and through a regional crash, so redeploy,
//!   re-replication and lookup retry do the work. It is the workload
//!   that catches a speed-up bought by weakening a recovery path.

use gloss_event::{Event, Filter, Op};
use gloss_knowledge::{Fact, FactSource, InMemoryFacts, Term};
use gloss_sim::{NodeIndex, SimRng};

/// Simulated microseconds per slice of the timed section.
pub const SLICE_US: u64 = 1_000_000;

/// The join window of the `meetup` rule, in seconds.
pub const WINDOW_S: u64 = 30;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CitySteady,
    ContextChurn,
    SubscriberFanout,
    DegradedRecovery,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CitySteady,
        Workload::ContextChurn,
        Workload::SubscriberFanout,
        Workload::DegradedRecovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CitySteady => "city_steady",
            Workload::ContextChurn => "context_churn",
            Workload::SubscriberFanout => "subscriber_fanout",
            Workload::DegradedRecovery => "degraded_recovery",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CitySteady => {
                "canonical sensor-broker-matchlet-UI path at steady state: matchlet joins and the broker index do the work; store, overlay, xml and knowledge are idle, so must show no change"
            }
            Workload::ContextChurn => {
                "write side of city_steady: 10x fact churn at a quarter of the events, so store, overlay, xml, delta reconcile and memo repair work and the broker index little"
            }
            Workload::SubscriberFanout => {
                "no service: thousands of constrained UI subscriptions take sensor events directly, so FilterIndex, covering and raw dispatch work; matchlet and store idle"
            }
            Workload::DegradedRecovery => {
                "quarter-rate traffic over lossy worker links through a regional crash: redeploy, re-replication and lookup retry work; catches speed bought by weaker recovery"
            }
        }
    }
}

/// How much of the full-size workload to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// What `BENCHMARK.json` records.
    Full,
    /// About 1/20 of the events (`--smoke`).
    Smoke,
    /// About 1/40 of the events on half the nodes (the in-process
    /// `#[test]`, which must stay fast in a debug build; any smaller and
    /// the six weather readings left would join with nothing).
    Tiny,
}

impl Size {
    /// Divisors for (event rate, timed slices, population).
    fn divisors(self) -> (u64, u64, usize) {
        match self {
            Size::Full => (1, 1, 1),
            Size::Smoke => (4, 5, 4),
            Size::Tiny => (10, 4, 10),
        }
    }
}

/// A sensor event due `at_us` after the start of the timed section. The
/// event carries the same offset as its `t0` attribute.
#[derive(Debug, Clone)]
pub struct Sensor {
    pub at_us: u64,
    pub node: NodeIndex,
    pub event: Event,
}

/// What a knowledge mutation changes.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// The user starts (`true`) or stops liking ice cream — joined on by
    /// the rule, so it invalidates memos and changes firings.
    Likes(bool),
    /// The user moves to another street — not joined on: pure churn.
    At(u32),
}

/// One authority-side mutation, applied at the start of slice `slice`.
#[derive(Debug, Clone)]
pub struct Mutation {
    pub slice: usize,
    pub user: usize,
    pub writer: NodeIndex,
    pub change: Change,
}

impl Mutation {
    /// Applies the mutation to a fact store — the authority's in the
    /// runner, the reference's in the oracle — and returns the fact it
    /// inserted (whose arrival at a follower shows the update landed).
    pub fn apply(&self, kb: &mut InMemoryFacts) -> Fact {
        let name = Plan::user_name(self.user);
        let fact = match &self.change {
            Change::Likes(likes) => {
                let (old, new) = if *likes { ("tea", "ice cream") } else { ("ice cream", "tea") };
                kb.retract(&name, "likes", &Term::str(old));
                Fact::new(&name, "likes", Term::str(new))
            }
            Change::At(to) => {
                let old: Vec<Term> =
                    kb.query(Some(&name), Some("at")).map(|f| f.object.clone()).collect();
                for o in old {
                    kb.retract(&name, "at", &o);
                }
                Fact::new(&name, "at", Term::str(Plan::street_name(*to)))
            }
        };
        kb.add(fact.clone());
        fact
    }
}

/// A UI subscription installed at the start of slice `slice`.
#[derive(Debug, Clone)]
pub struct LateSub {
    pub slice: usize,
    pub node: NodeIndex,
    pub filter: Filter,
}

/// The fault schedule of `degraded_recovery`.
#[derive(Debug, Clone)]
pub struct Faults {
    /// Loss probability on every directed link between two workers.
    /// Links touching the coordinator stay clean: the broker star and
    /// bundle shipment have no retransmission, so loss there is not a
    /// degradation the system can recover from but a lost operation.
    pub worker_link_loss: f64,
    /// The region that crashes.
    pub region: &'static str,
    /// Slice at whose start the region crashes / recovers.
    pub crash_slice: usize,
    pub recover_slice: usize,
}

/// The generated inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub nodes: usize,
    /// Initial facts per user `u<i>`.
    pub profiles: Vec<Vec<Fact>>,
    /// `(user, host slot)`: the user's profile is *not* prefetched at the
    /// `slot`-th matchlet host, so that host's first delta for the user
    /// takes the snapshot-fallback path.
    pub unprefetched: Vec<(usize, usize)>,
    /// Service instances to deploy (0 = no service).
    pub instances: usize,
    /// Nodes running a UI client. Fixed per workload, not seeded: where
    /// the observers sit is part of the system's layout.
    pub ui_nodes: Vec<NodeIndex>,
    /// UI subscriptions installed during setup.
    pub ui_filters: Vec<(NodeIndex, Filter)>,
    pub late_subs: Vec<LateSub>,
    /// Nodes allowed to host sensors and knowledge writers.
    pub sensor_nodes: Vec<NodeIndex>,
    /// Event kinds in use (for warm-up).
    pub kinds: Vec<&'static str>,
    /// Timed slices with traffic, then drain slices without.
    pub slices: usize,
    pub drain_slices: usize,
    /// Sorted by `at_us`.
    pub sensors: Vec<Sensor>,
    /// Sorted by `slice`.
    pub churn: Vec<Mutation>,
    pub faults: Option<Faults>,
}

impl Plan {
    pub fn user_name(i: usize) -> String {
        format!("u{i}")
    }

    pub fn street_name(i: u32) -> String {
        format!("s{i}")
    }

    pub fn total_slices(&self) -> usize {
        self.slices + self.drain_slices
    }

    /// The `(user, node)` pairs left unprefetched, given the matchlet
    /// hosts in `hosts_of` order.
    pub fn holes(&self, hosts: &[NodeIndex]) -> std::collections::BTreeSet<(usize, NodeIndex)> {
        self.unprefetched
            .iter()
            .filter_map(|&(user, slot)| hosts.get(slot).map(|&h| (user, h)))
            .collect()
    }

    /// One fact store holding every profile (what the reference and the
    /// replays match against).
    pub fn profile_kb(&self) -> InMemoryFacts {
        let mut kb = InMemoryFacts::new();
        for facts in &self.profiles {
            kb.extend(facts.iter().cloned());
        }
        kb
    }
}

/// The rule every service-bearing workload deploys. Each contributing
/// event's creation time is copied into the notification so latency can
/// be taken from the *last* contributor (the first would mostly measure
/// how long the window stayed open).
pub fn meetup_rules(window_s: u64) -> String {
    format!(
        r#"rule meetup {{
    on w: event weather.reading(street: ?s, celsius: ?c, t0: ?tw)
    on l: event user.location(user: ?u, street: ?s, t0: ?tl)
    where fact(?u, likes, "ice cream") and fact(?u, nationality, ?n)
    where ?c >= hot_threshold(?n)
    within {window_s} s
    emit meetup(user: ?u, street: ?s, tw: ?tw, tl: ?tl)
}}"#
    )
}

const NATIONALITIES: [&str; 4] = ["scottish", "australian", "brazilian", "german"];
const ALERT_KINDS: [&str; 8] = [
    "alert.fire",
    "alert.flood",
    "alert.smog",
    "alert.ice",
    "alert.wind",
    "alert.heat",
    "alert.crowd",
    "alert.power",
];
const ZONES: usize = 16;

struct Shape {
    nodes: usize,
    users: usize,
    streets: u32,
    /// Sensor events per simulated second.
    rate: u64,
    slices: usize,
    /// Per-mille shares of location / weather events (rest is noise).
    location_pm: u64,
    weather_pm: u64,
    churn_per_slice: usize,
    /// Per-mille share of churn that rewrites `likes` (rest moves `at`).
    likes_pm: u64,
    unprefetched_pm: u64,
    instances: usize,
}

/// Generates the plan of `workload` at `size` from `seed`.
pub fn plan(workload: Workload, size: Size, seed: u64) -> Plan {
    let (rate_div, slice_div, pop_div) = size.divisors();
    let nodes = if size == Size::Tiny { 16 } else { 32 };
    let rng = SimRng::new(seed).fork(workload.name());
    // UI clients in Scotland, England (two) and Europe (node i sits in
    // region i % 4): none on the coordinator, and none in Australia —
    // `degraded_recovery` crashes it, and with a quarter of the observers
    // a long haul away the median latency sat on the edge between the
    // near and the far mode and jumped between them from seed to seed.
    let ui_nodes: Vec<NodeIndex> = [12u32, 5, 10, 9].into_iter().map(NodeIndex).collect();
    match workload {
        Workload::CitySteady => city(
            workload,
            seed,
            &rng,
            ui_nodes,
            Shape {
                nodes,
                users: 500 / pop_div,
                streets: (60 / pop_div as u32).max(6),
                rate: 400 / rate_div,
                slices: (60 / slice_div as usize).max(8),
                location_pm: 590,
                weather_pm: 10,
                churn_per_slice: 0,
                likes_pm: 500,
                unprefetched_pm: 0,
                instances: 3,
            },
            None,
        ),
        Workload::ContextChurn => city(
            workload,
            seed,
            &rng,
            ui_nodes,
            Shape {
                nodes,
                users: 500 / pop_div,
                streets: (60 / pop_div as u32).max(6),
                rate: (100 / rate_div).max(40),
                slices: (60 / slice_div as usize).max(8),
                location_pm: 590,
                weather_pm: 10,
                churn_per_slice: (20 / rate_div as usize).max(2),
                likes_pm: 500,
                unprefetched_pm: 100,
                instances: 3,
            },
            None,
        ),
        Workload::DegradedRecovery => {
            // The fault schedule is fixed in simulated seconds (failure
            // detection and repair run on the architecture's own
            // clocks), so smaller sizes thin the traffic instead.
            let (crash_slice, recover_slice, slices) =
                if size == Size::Full { (60, 180, 240) } else { (20, 110, 150) };
            city(
                workload,
                seed,
                &rng,
                ui_nodes,
                Shape {
                    nodes,
                    users: 500 / pop_div,
                    streets: (60 / pop_div as u32).max(6),
                    rate: (125 / (rate_div * slice_div)).max(10),
                    slices,
                    location_pm: 590,
                    weather_pm: 10,
                    churn_per_slice: if size == Size::Full { 5 } else { 1 },
                    // Only `at` churns here. Delta batches of a subject
                    // overwrite each other under one storage key, so a
                    // follower whose pull dies with the crashed region
                    // has a permanent epoch gap and stays stale; were
                    // the stale fact one the rule joins on, hosts would
                    // disagree with the reference for the rest of the
                    // run. The staleness itself is reported
                    // (`knowledge.unapplied_pulls`), not hidden.
                    likes_pm: 0,
                    unprefetched_pm: 0,
                    instances: 3,
                },
                Some(Faults {
                    worker_link_loss: 0.01,
                    region: "australia",
                    crash_slice,
                    recover_slice,
                }),
            )
        }
        Workload::SubscriberFanout => fanout(
            seed,
            &rng,
            nodes,
            5000 / (pop_div * pop_div),
            200 / rate_div,
            (20 / slice_div as usize).max(6),
            (20 / rate_div as usize).max(2),
        ),
    }
}

/// A multiset dealt in seeded order, reshuffled every time it runs out:
/// each pass hands out every card exactly once. The generators draw from
/// decks instead of rolling dice so that the *amount* of work a plan
/// holds — how many readings are hot, how many subscriptions an alert
/// matches — is the same for every seed and only its arrangement moves.
/// (With independent draws, ten seeds of `city_steady` differed by 25 %
/// in messages per event; no bound tighter than that could have held.)
struct Deck<T> {
    cards: Vec<T>,
    next: usize,
    rng: SimRng,
}

impl<T: Clone> Deck<T> {
    fn new(cards: Vec<T>, rng: SimRng) -> Self {
        assert!(!cards.is_empty(), "a deck needs cards");
        let next = cards.len();
        Deck { cards, next, rng }
    }

    fn deal(&mut self) -> T {
        if self.next == self.cards.len() {
            self.rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1].clone()
    }
}

/// `n` cards spread over `weights` by largest remainder.
fn apportion(weights: &[f64], n: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = n - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// The `meetup` workloads: location × weather joins over a population
/// with profiles, plus knowledge churn.
///
/// Sensors behave like sensors: every user reports in turn from their
/// own access node while walking a route of streets, every street's
/// thermometer reports in turn, and the temperatures of one round of
/// readings cover 10–35 °C evenly. The seed decides who is who, who
/// walks where, and in what order things happen.
fn city(
    workload: Workload,
    seed: u64,
    rng: &SimRng,
    ui_nodes: Vec<NodeIndex>,
    shape: Shape,
    faults: Option<Faults>,
) -> Plan {
    // Sensors, writers and UI clients sit outside the region that will
    // crash (node i is in region i % 4; "australia" is region 3), so that
    // every loss the run sees is the architecture's, not the generator's.
    let sensor_nodes: Vec<NodeIndex> =
        (0..shape.nodes as u32).filter(|i| faults.is_none() || i % 4 != 3).map(NodeIndex).collect();
    let streets: Vec<u32> = (0..shape.streets).collect();

    // Profiles: the twelve (nationality, taste) classes in equal numbers.
    let mut classes = Deck::new((0..12usize).collect(), rng.fork("classes"));
    let mut homes = Deck::new(streets.clone(), rng.fork("homes"));
    let mut access = Deck::new(sensor_nodes.clone(), rng.fork("access"));
    let mut likes = Vec::with_capacity(shape.users);
    let mut at = Vec::with_capacity(shape.users);
    let mut user_node = Vec::with_capacity(shape.users);
    let profiles: Vec<Vec<Fact>> = (0..shape.users)
        .map(|u| {
            let name = Plan::user_name(u);
            let class = classes.deal();
            likes.push(class / 4 == 0);
            at.push(homes.deal());
            user_node.push(access.deal());
            vec![
                Fact::new(&name, "nationality", Term::str(NATIONALITIES[class % 4])),
                Fact::new(&name, "likes", Term::str(if likes[u] { "ice cream" } else { "tea" })),
                Fact::new(&name, "at", Term::str(Plan::street_name(at[u]))),
            ]
        })
        .collect();

    let holes = (shape.users as u64 * shape.unprefetched_pm / 1000) as usize;
    let mut hole_users = Deck::new((0..shape.users).collect(), rng.fork("unprefetched"));
    let unprefetched: Vec<(usize, usize)> =
        (0..holes).map(|k| (hole_users.deal(), k % shape.instances)).collect();

    // Sensor events at a fixed simulated rate (open loop: the schedule
    // never waits for the system), kinds interleaved in exact shares.
    #[derive(Clone, Copy)]
    enum Kind {
        Location,
        Weather,
        Noise,
    }
    let mut block = vec![Kind::Noise; 1000];
    block[..shape.location_pm as usize].fill(Kind::Location);
    block[shape.location_pm as usize..(shape.location_pm + shape.weather_pm) as usize]
        .fill(Kind::Weather);
    let mut kinds = Deck::new(block, rng.fork("kinds"));
    let mut reporters = Deck::new((0..shape.users).collect(), rng.fork("reporters"));
    let mut thermometers = Deck::new(streets.clone(), rng.fork("thermometers"));
    let mut thermometer_node = Deck::new(sensor_nodes.clone(), rng.fork("thermometer-nodes"));
    let street_node: Vec<NodeIndex> = streets.iter().map(|_| thermometer_node.deal()).collect();
    let ladder: Vec<f64> =
        (0..shape.streets).map(|i| 10.0 + 25.0 * (i as f64 + 0.5) / shape.streets as f64).collect();
    let mut temperatures = Deck::new(ladder, rng.fork("temperatures"));
    let mut noise_nodes = Deck::new(sensor_nodes.clone(), rng.fork("noise-nodes"));
    let mut visits = vec![0u32; shape.users];
    let mut noise_rng = rng.fork("noise");
    let total = shape.rate * shape.slices as u64;
    let spacing = SLICE_US / shape.rate;
    let sensors: Vec<Sensor> = (0..total)
        .map(|k| {
            let at_us = k * spacing + spacing / 2;
            let t0 = at_us as i64;
            let (node, event) = match kinds.deal() {
                Kind::Location => {
                    let user = reporters.deal();
                    visits[user] += 1;
                    let street = (at[user] + visits[user]) % shape.streets;
                    let event = Event::new("user.location")
                        .with_attr("user", Plan::user_name(user))
                        .with_attr("street", Plan::street_name(street))
                        .with_attr("t0", t0);
                    (user_node[user], event)
                }
                Kind::Weather => {
                    let street = thermometers.deal();
                    let event = Event::new("weather.reading")
                        .with_attr("street", Plan::street_name(street))
                        .with_attr("celsius", temperatures.deal())
                        .with_attr("t0", t0);
                    (street_node[street as usize], event)
                }
                Kind::Noise => {
                    let event = Event::new("telemetry.noise")
                        .with_attr("v", noise_rng.range(0, 1000) as i64)
                        .with_attr("t0", t0);
                    (noise_nodes.deal(), event)
                }
            };
            Sensor { at_us, node, event }
        })
        .collect();

    // Churn walks the users round and round in ONE seeded order (not a
    // reshuffled deck), so one subject is rewritten exactly every
    // users / churn_per_slice seconds: a follower that
    // pulls each batch a second after it ships never misses one (batches
    // of a subject share one storage key, so a missed batch is a
    // permanent epoch gap).
    let mut order: Vec<usize> = (0..shape.users).collect();
    rng.fork("churned").shuffle(&mut order);
    let mut churned = order.iter().cycle();
    let mut rewrites = vec![false; 1000];
    rewrites[..shape.likes_pm as usize].fill(true);
    let mut rewrites_likes = Deck::new(rewrites, rng.fork("churn-kinds"));
    let mut writers = Deck::new(sensor_nodes.clone(), rng.fork("writers"));
    let mut moves = rng.fork("moves");
    let mut churn = Vec::new();
    for slice in 0..shape.slices {
        for _ in 0..shape.churn_per_slice {
            let user = *churned.next().expect("a cycle never ends");
            let change = if rewrites_likes.deal() {
                likes[user] = !likes[user];
                Change::Likes(likes[user])
            } else {
                at[user] = (at[user] + 1 + moves.range(0, shape.streets as u64 - 1) as u32)
                    % shape.streets;
                Change::At(at[user])
            };
            churn.push(Mutation { slice, user, writer: writers.deal(), change });
        }
    }

    let ui_filters = ui_nodes.iter().map(|&n| (n, Filter::for_kind("meetup"))).collect();
    Plan {
        workload,
        seed,
        nodes: shape.nodes,
        profiles,
        unprefetched,
        instances: shape.instances,
        ui_nodes,
        ui_filters,
        late_subs: Vec::new(),
        sensor_nodes,
        kinds: vec!["user.location", "weather.reading", "telemetry.noise"],
        slices: shape.slices,
        drain_slices: 4,
        sensors,
        churn,
        faults,
    }
}

/// What an alert subscription constrains and an alert event carries:
/// kind and zone Zipf-distributed (popular pairs recur, so covering
/// prunes and merging collapses many subscriptions on their way to the
/// coordinator), the level spread evenly.
struct AlertDecks {
    pairs: Deck<(usize, usize)>,
    levels: Deck<i64>,
    nodes: Deck<NodeIndex>,
}

impl AlertDecks {
    fn new(rng: &SimRng, nodes: &[NodeIndex]) -> Self {
        let zipf = |n: usize| -> Vec<f64> { (1..=n).map(|k| 1.0 / k as f64).collect() };
        let (kinds, zones) = (zipf(ALERT_KINDS.len()), zipf(ZONES));
        let weights: Vec<f64> =
            kinds.iter().flat_map(|k| zones.iter().map(move |z| k * z)).collect();
        let pairs: Vec<(usize, usize)> = apportion(&weights, 1000)
            .into_iter()
            .enumerate()
            .flat_map(|(i, n)| std::iter::repeat_n((i / ZONES, i % ZONES), n))
            .collect();
        AlertDecks {
            pairs: Deck::new(pairs, rng.fork("pairs")),
            levels: Deck::new((0..100).collect(), rng.fork("levels")),
            nodes: Deck::new(nodes.to_vec(), rng.fork("nodes")),
        }
    }

    fn filter(&mut self) -> (NodeIndex, Filter) {
        let (kind, zone) = self.pairs.deal();
        let filter = Filter::for_kind(ALERT_KINDS[kind])
            .with_constraint("zone", Op::Eq, zone as i64)
            .with_constraint("level", Op::Ge, self.levels.deal());
        (self.nodes.deal(), filter)
    }

    fn event(&mut self, at_us: u64) -> Sensor {
        let (kind, zone) = self.pairs.deal();
        let event = Event::new(ALERT_KINDS[kind])
            .with_attr("zone", zone as i64)
            .with_attr("level", self.levels.deal())
            .with_attr("t0", at_us as i64);
        Sensor { at_us, node: self.nodes.deal(), event }
    }
}

fn fanout(
    seed: u64,
    rng: &SimRng,
    nodes: usize,
    subs: usize,
    rate: u64,
    slices: usize,
    new_subs_per_slice: usize,
) -> Plan {
    let all_nodes: Vec<NodeIndex> = (0..nodes as u32).map(NodeIndex).collect();
    let mut installed = AlertDecks::new(&rng.fork("subs"), &all_nodes);
    let ui_filters: Vec<(NodeIndex, Filter)> = (0..subs).map(|_| installed.filter()).collect();
    let mut late = AlertDecks::new(&rng.fork("late-subs"), &all_nodes);
    let late_subs: Vec<LateSub> = (0..slices)
        .flat_map(|slice| (0..new_subs_per_slice).map(move |_| slice))
        .map(|slice| {
            let (node, filter) = late.filter();
            LateSub { slice, node, filter }
        })
        .collect();
    let mut alerts = AlertDecks::new(&rng.fork("sensors"), &all_nodes);
    let spacing = SLICE_US / rate;
    let sensors: Vec<Sensor> =
        (0..rate * slices as u64).map(|k| alerts.event(k * spacing + spacing / 2)).collect();

    Plan {
        workload: Workload::SubscriberFanout,
        seed,
        nodes,
        profiles: Vec::new(),
        unprefetched: Vec::new(),
        instances: 0,
        ui_nodes: all_nodes.clone(),
        ui_filters,
        late_subs,
        sensor_nodes: all_nodes,
        kinds: ALERT_KINDS.to_vec(),
        slices,
        drain_slices: 3,
        sensors,
        churn: Vec::new(),
        faults: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in Workload::ALL {
            let a = plan(w, Size::Tiny, 7);
            let b = plan(w, Size::Tiny, 7);
            let c = plan(w, Size::Tiny, 8);
            let sig = |p: &Plan| -> Vec<String> {
                p.sensors.iter().map(|s| format!("{} {} {}", s.at_us, s.node, s.event)).collect()
            };
            assert_eq!(sig(&a), sig(&b), "{}", w.name());
            assert_ne!(sig(&a), sig(&c), "{}", w.name());
            assert!(a.sensors.windows(2).all(|p| p[0].at_us < p[1].at_us), "sorted, distinct");
            assert!(a.churn.windows(2).all(|p| p[0].slice <= p[1].slice));
            assert!(a.sensors.iter().all(|s| s.at_us < a.slices as u64 * SLICE_US));
        }
    }

    #[test]
    fn workload_names_round_trip_and_whys_fit_the_manifest() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.why().len());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn degraded_traffic_avoids_the_crashing_region() {
        let p = plan(Workload::DegradedRecovery, Size::Tiny, 1);
        assert!(p.sensors.iter().all(|s| s.node.0 % 4 != 3));
        assert!(p.churn.iter().all(|m| m.writer.0 % 4 != 3));
        assert!(p.ui_nodes.iter().all(|n| n.0 % 4 != 3 && n.0 != 0));
        let f = p.faults.unwrap();
        assert!(f.crash_slice < f.recover_slice && f.recover_slice < p.slices);
    }
}
