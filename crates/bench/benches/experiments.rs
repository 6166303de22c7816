//! Criterion benches: the per-operation costs behind each experiment in
//! EXPERIMENTS.md's matrix (one group per table/figure; the `report`
//! binary produces the full tables).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use gloss_bench::{GeneratedEvent, LocationProjection};
use gloss_event::{Architecture, Event, Filter, Op, PubSubConfig, PubSubNetwork};
use gloss_knowledge::{
    reconcile, BatchReader, DeltaBatch, DistributedKnowledge, Fact, FactDelta, InMemoryFacts,
    LexicalMatcher, Ontology, ServiceDescription, Term, TextMatcher,
};
use gloss_matchlet::MatchletEngine;
use gloss_overlay::{Key, OverlayNetwork};
use gloss_sim::{NodeIndex, SimDuration, SimRng, SimTime, Zipf};
use gloss_store::{Document, ErasureCode, StoreConfig, StoreNetwork};
use gloss_xml::parse;

/// E1: the matchlet engine's per-event cost (the inner loop of the global
/// matching service).
fn e1_matching(c: &mut Criterion) {
    let mut kb = InMemoryFacts::new();
    for i in 0..100 {
        kb.add(Fact::new(format!("user{i}"), "likes", Term::str("ice cream")));
        kb.add(Fact::new(format!("user{i}"), "nationality", Term::str("scottish")));
    }
    let mut engine = MatchletEngine::compile(
        r#"
        rule hot {
            on w: event weather.reading(celsius: ?c)
            where ?c >= 18.0
            within 1 m
            emit alert(celsius: ?c)
        }
        "#,
    )
    .unwrap();
    let ev = Event::new("weather.reading").with_attr("celsius", 20.0);
    let mut t = 0u64;
    c.bench_function("e1_matchlet_on_event", |b| {
        b.iter(|| {
            t += 1;
            engine.on_event(SimTime::from_micros(t), &ev, &kb)
        })
    });
}

/// E4: the delta-driven matching core under steady fact-join load.
///
/// A rule whose goals enumerate an *unbound* subject over a 200-user
/// knowledge base: every firing must either re-solve the join over all
/// 200 `likes` facts (a from-scratch engine) or replay memoised
/// solutions (the incremental engine). `steady` never mutates facts;
/// `churn` removes and re-adds one (non-matching) user's facts every 16
/// events, exercising delta repair and memo invalidation. Written
/// against APIs that exist in earlier engines too, so the same file
/// benches a before/after pair of builds.
fn e4_delta_matching(c: &mut Criterion) {
    const RULE: &str = r#"
        rule rare_flavor {
            on t: event tick(seq: ?s)
            where fact(?u, likes, "haggis ripple") and fact(?u, nationality, ?nat)
            within 1 m
            emit fan(user: ?u, nat: ?nat)
        }
    "#;
    let build_kb = || {
        let mut kb = InMemoryFacts::new();
        for i in 0..200 {
            let flavor = if i % 100 == 3 { "haggis ripple" } else { "vanilla" };
            kb.add(Fact::new(format!("user{i}"), "likes", Term::str(flavor)));
            kb.add(Fact::new(format!("user{i}"), "nationality", Term::str("scottish")));
        }
        kb
    };
    {
        let kb = build_kb();
        let mut engine = MatchletEngine::compile(RULE).unwrap();
        let ev = Event::new("tick").with_attr("seq", 1i64);
        let mut t = 0u64;
        c.bench_function("e4_fact_join_steady_200", |b| {
            b.iter(|| {
                t += 1;
                engine.on_event(SimTime::from_micros(t), &ev, &kb)
            })
        });
    }
    {
        let mut kb = build_kb();
        let mut engine = MatchletEngine::compile(RULE).unwrap();
        let ev = Event::new("tick").with_attr("seq", 1i64);
        let mut t = 0u64;
        c.bench_function("e4_fact_join_churn_200", |b| {
            b.iter(|| {
                t += 1;
                if t.is_multiple_of(16) {
                    // Churn an even-indexed user (the matching users are
                    // 3 and 103), so the solution set stays stationary.
                    let u = format!("user{}", ((t / 16) * 2) % 200);
                    kb.remove_subject(&u);
                    kb.add(Fact::new(u.clone(), "likes", Term::str("vanilla")));
                    kb.add(Fact::new(u, "nationality", Term::str("scottish")));
                }
                engine.on_event(SimTime::from_micros(t), &ev, &kb)
            })
        });
    }
}

/// K1: one knowledge-store write on a node holding 500 profiles × 3
/// facts — a user's location moves (retract the old `at`, insert the
/// new one), or a profile is re-ingested whole (`remove_subject` +
/// `extend`, what a snapshot does). Both should cost what they change,
/// not what the store holds. The location move is also timed rotating
/// over 32 such stores, one per write, so that each write finds its
/// store out of cache, as a node's store is between the batches of an
/// end-to-end run.
fn k1_fact_store_writes(c: &mut Criterion) {
    const USERS: usize = 500;
    let subjects: Vec<String> = (0..USERS).map(|u| format!("user{u}")).collect();
    let profile = |u: usize, at: i64| {
        let s = &subjects[u];
        [
            Fact::new(s.clone(), "likes", Term::str("ice cream")),
            Fact::new(s.clone(), "nationality", Term::str("scottish")),
            Fact::new(s.clone(), "at", Term::Int(at)),
        ]
    };
    let build = || {
        let mut kb = InMemoryFacts::new();
        for u in 0..USERS {
            kb.extend(profile(u, 0));
        }
        kb
    };
    {
        let mut kb = build();
        let mut at = vec![0i64; USERS];
        let mut n = 0;
        c.bench_function("k1_retract_insert_1500_facts", |b| {
            b.iter(|| {
                n += 1;
                let u = (n * 7) % USERS;
                kb.retract(&subjects[u], "at", &Term::Int(at[u]));
                at[u] += 1;
                kb.add(Fact::new(subjects[u].clone(), "at", Term::Int(at[u])));
            })
        });
    }
    {
        const STORES: usize = 32;
        let mut stores: Vec<InMemoryFacts> = (0..STORES).map(|_| build()).collect();
        let mut at = vec![[0i64; USERS]; STORES];
        let mut n = 0;
        c.bench_function("k1_retract_insert_32_stores", |b| {
            b.iter(|| {
                n += 1;
                let (kb, at) = (&mut stores[n % STORES], &mut at[n % STORES]);
                let u = (n / STORES * 7) % USERS;
                kb.retract(&subjects[u], "at", &Term::Int(at[u]));
                at[u] += 1;
                kb.add(Fact::new(subjects[u].clone(), "at", Term::Int(at[u])));
            })
        });
    }
    {
        let mut kb = build();
        let mut n = 0;
        c.bench_function("k1_reingest_subject_1500_facts", |b| {
            b.iter(|| {
                n += 1;
                let u = (n * 7) % USERS;
                kb.remove_subject(&subjects[u]);
                kb.extend(profile(u, n as i64));
            })
        });
    }
}

/// K2: landing one `kbdelta` batch of the `context_churn` shape — a
/// user's `likes` flipped, one retract and one insert, ≈190 bytes: decoded
/// from its bytes by the batch reader into a kept buffer, with names from
/// a store holding the user (what a receiving node does), through a tree
/// (`parse` + `from_xml`), or read only as far as its envelope and
/// reconciled, which is all a stale or gapped batch costs a receiver.
/// The writing side too: the batch streamed into a buffer the authority
/// keeps (what it ships), or built as a tree and serialised.
fn k2_kbdelta_decode(c: &mut Criterion) {
    let likes = |object: &str| Fact::new("u123", "likes", Term::str(object));
    let batch = DeltaBatch {
        subject: "u123".into(),
        source: 1234,
        from: 12,
        to: 14,
        deltas: vec![FactDelta::Retract(likes("tea")), FactDelta::Insert(likes("ice cream"))],
    };
    let text = batch.to_xml().to_xml();
    let mut held = InMemoryFacts::new();
    held.add(likes("tea"));
    let mut deltas = Vec::new();
    c.bench_function("k2_kbdelta_decode", |b| {
        b.iter(|| {
            let batch = BatchReader::open(black_box(&text)).unwrap();
            batch.decode_into(&held, &mut deltas).unwrap()
        })
    });
    c.bench_function("k2_kbdelta_decode_dom", |b| {
        b.iter(|| DeltaBatch::from_xml(&parse(black_box(&text)).unwrap()).unwrap())
    });
    c.bench_function("k2_kbdelta_envelope", |b| {
        b.iter(|| reconcile(Some((1234, 20)), BatchReader::open(black_box(&text)).unwrap().span()))
    });
    let mut out = String::new();
    c.bench_function("k2_kbdelta_write", |b| {
        b.iter(|| {
            out.clear();
            black_box(&batch).write_xml(&mut out);
            out.len()
        })
    });
    c.bench_function("k2_kbdelta_write_dom", |b| b.iter(|| black_box(&batch).to_xml().to_xml()));
}

/// X1: building the element tree of one `context_churn` profile snapshot
/// (three facts, versioned) — the tree builder over the XML reader.
fn x1_xml_parse(c: &mut Criterion) {
    let profile = [
        Fact::new("u123", "nationality", Term::str("scottish")),
        Fact::new("u123", "likes", Term::str("ice cream")),
        Fact::new("u123", "at", Term::str("s17")),
    ];
    let refs: Vec<&Fact> = profile.iter().collect();
    let text = DistributedKnowledge::facts_to_xml_versioned("u123", &refs, 1234, 3).to_xml();
    c.bench_function("x1_parse_profile_snapshot", |b| b.iter(|| parse(black_box(&text)).unwrap()));
}

/// C13: adversarial subscription churn — rules added/removed at a high
/// rate while events stream, the worst case for rule add/remove
/// invalidation (kind-index rebuilds, index coverage, memo lifecycle).
fn c13_rule_churn(c: &mut Criterion) {
    let mut kb = InMemoryFacts::new();
    for i in 0..100 {
        let flavor = if i % 10 == 0 { "ice cream" } else { "tea" };
        kb.add(Fact::new(format!("user{i}"), "likes", Term::str(flavor)));
    }
    let rule_src = |gen: u64| {
        format!(
            "rule churn{gen} {{ on t: event tick(seq: ?s) where fact(?u, likes, \"ice cream\") within 1 m emit hit{gen}(user: ?u) }}"
        )
    };
    // A resident population of 8 rules; each iteration retires the
    // oldest, installs a fresh one, and fires 4 events.
    let mut engine = MatchletEngine::new();
    let mut gen = 0u64;
    for _ in 0..8 {
        engine.add_rules(&rule_src(gen)).unwrap();
        gen += 1;
    }
    let ev = Event::new("tick").with_attr("seq", 1i64);
    let mut t = 0u64;
    c.bench_function("c13_rule_churn_8_resident", |b| {
        b.iter(|| {
            engine.remove_rule(&format!("churn{}", gen - 8));
            engine.add_rules(&rule_src(gen)).unwrap();
            gen += 1;
            let mut fired = 0usize;
            for _ in 0..4 {
                t += 1;
                fired += engine.on_event(SimTime::from_micros(t), &ev, &kb).len();
            }
            fired
        })
    });
}

/// E2: pushing one event through an assembled pipeline graph.
fn e2_pipeline_push(c: &mut Criterion) {
    use gloss_pipeline::standard::{Counter, KindFilter, MovementThreshold};
    use gloss_pipeline::PipelineGraph;
    let mut g = PipelineGraph::new();
    let a = g.add(Box::new(KindFilter::new("f", Filter::for_kind("user.location"))));
    let b2 = g.add(Box::new(MovementThreshold::new("m", 0.0)));
    let d = g.add(Box::new(Counter::new("c")));
    g.connect(a, b2);
    g.connect(b2, d);
    g.mark_entry(a);
    let ev = Event::new("user.location")
        .with_attr("user", "bob")
        .with_attr("lat", 56.34)
        .with_attr("lon", -2.8);
    c.bench_function("e2_pipeline_push_3_components", |b| {
        b.iter(|| g.push(SimTime::ZERO, ev.clone()))
    });
}

/// E3: sealing and verifying a code bundle (the deployment hot path).
fn e3_bundle_roundtrip(c: &mut Criterion) {
    use gloss_bundle::{AuthKey, Bundle};
    let key = AuthKey::new("ops", b"secret");
    let bundle =
        Bundle::matchlet("bench", r#"rule r { on a: event k(x: ?x) where ?x > 1 emit o(x: ?x) }"#)
            .issued_by("ops");
    c.bench_function("e3_bundle_seal", |b| b.iter(|| bundle.to_packet(&key)));
    let packet = bundle.to_packet(&key);
    c.bench_function("e3_bundle_verify", |b| {
        b.iter(|| Bundle::from_packet(&packet, &key).unwrap())
    });
}

/// C1: filter matching and covering (the broker's per-message work).
fn c1_filter_ops(c: &mut Criterion) {
    let filter = Filter::for_kind("user.location")
        .with_constraint("lat", Op::Gt, 56.0)
        .with_eq("user", "bob");
    let ev = Event::new("user.location").with_attr("user", "bob").with_attr("lat", 56.34);
    c.bench_function("c1_filter_match", |b| b.iter(|| filter.matches(&ev)));
    let broad = Filter::for_kind("user.location").with_constraint("lat", Op::Gt, 50.0);
    c.bench_function("c1_filter_covers", |b| b.iter(|| broad.covers(&filter)));
}

/// C1 (system): one publish through a settled acyclic-peer network.
fn c1_publish_through_network(c: &mut Criterion) {
    let mut net = PubSubNetwork::build(PubSubConfig {
        architecture: Architecture::AcyclicPeer,
        brokers: 4,
        clients_per_broker: 2,
        seed: 7,
        ..PubSubConfig::default()
    });
    let clients = net.clients().to_vec();
    for &cl in &clients {
        net.subscribe(cl, Filter::for_kind("k"));
    }
    net.run_for(SimDuration::from_secs(5));
    c.bench_function("c1_publish_and_settle", |b| {
        b.iter(|| {
            net.publish(clients[0], Event::new("k"));
            net.run_for(SimDuration::from_secs(2));
        })
    });
}

/// C2: one route through a settled 64-node overlay.
fn c2_overlay_route(c: &mut Criterion) {
    let mut net = OverlayNetwork::build(64, 5);
    net.run_for(SimDuration::from_secs(120));
    let mut i = 0u64;
    c.bench_function("c2_route_and_settle", |b| {
        b.iter(|| {
            i += 1;
            let from = net.random_node();
            net.route_from(from, Key::hash_of(format!("bench-{i}").as_bytes()));
            net.run_for(SimDuration::from_secs(2));
        })
    });
}

/// C3: cache insert/get at the storage layer.
fn c3_cache_ops(c: &mut Criterion) {
    use gloss_store::LruCache;
    let docs: Vec<Document> =
        (0..64).map(|i| Document::new(format!("d{i}"), vec![0u8; 512])).collect();
    c.bench_function("c3_cache_insert_get", |b| {
        b.iter_batched(
            || LruCache::new(16 * 1024),
            |mut cache| {
                for d in &docs {
                    cache.insert(d.clone());
                }
                for d in &docs {
                    let _ = cache.get(d.guid);
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

/// C3 (churn): eviction-heavy insert stream — 4096 inserts through a
/// cache holding ~32 entries, so nearly every insert evicts. The
/// intrusive-list LRU makes each eviction O(1); the seed cache's
/// `min_by_key` scan made this workload quadratic.
fn c3_cache_churn(c: &mut Criterion) {
    use gloss_store::LruCache;
    let docs: Vec<Document> =
        (0..4096).map(|i| Document::new(format!("churn{i}"), vec![0u8; 512])).collect();
    c.bench_function("c3_cache_churn_4096", |b| {
        b.iter_batched(
            || LruCache::new(16 * 1024),
            |mut cache| {
                for d in &docs {
                    cache.insert(d.clone());
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
}

/// M1: summary polling over a large histogram — the per-slice pattern of
/// measurement harnesses. The cached sorted view makes repeated polls
/// O(1); the seed version cloned and re-sorted all samples per call.
fn m1_histogram_polling(c: &mut Criterion) {
    use gloss_sim::Histogram;
    let mut h = Histogram::new();
    let mut x = 1u64;
    for _ in 0..65_536 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        h.record((x >> 11) as f64 / (1u64 << 53) as f64);
    }
    c.bench_function("m1_histogram_summary_poll_64k", |b| b.iter(|| h.summary()));
    // Steady-state invalidation cost: the clone resets the histogram per
    // batch so the sample count never drifts with iteration count.
    c.bench_function("m1_histogram_record_then_poll", |b| {
        b.iter_batched(
            || h.clone(),
            |mut fresh| {
                fresh.record(0.5);
                fresh.summary()
            },
            BatchSize::SmallInput,
        )
    });
}

/// C4/C5: the placement solver on a mid-sized violation.
fn c4_solver(c: &mut Criterion) {
    use gloss_deploy::{solver::plan_repairs, Constraint, Deployment, NodeResources};
    use std::collections::BTreeMap;
    let resources: BTreeMap<NodeIndex, NodeResources> = (0..50u32)
        .map(|i| {
            (
                NodeIndex(i),
                NodeResources {
                    node: NodeIndex(i),
                    region: ["scotland", "england", "europe"][i as usize % 3].into(),
                    geo: gloss_sim::GeoPoint::new(50.0 + i as f64 / 10.0, 0.0),
                    cpu: 1.0,
                    storage: 0,
                },
            )
        })
        .collect();
    let constraints = vec![
        Constraint::count("matcher", Some("scotland"), 8),
        Constraint::count("replicator", None, 12),
        Constraint::Capacity { max: 2 },
    ];
    let deployment = Deployment::new();
    c.bench_function("c4_plan_repairs_50_nodes", |b| {
        b.iter(|| plan_repairs(&constraints, &deployment, &resources))
    });
}

/// C6: binding one document by projection, by the generated binder, and
/// the parse both start from.
fn c6_binding(c: &mut Criterion) {
    let evolved = parse(
        r#"<event seq="9"><user id="bob"/><pos lat="56.34" lon="-2.80"/><extra><x/></extra></event>"#,
    )
    .unwrap();
    let projection = LocationProjection::default();
    c.bench_function("c6_project", |b| b.iter(|| projection.bind(&evolved).unwrap()));
    let plain =
        parse(r#"<event seq="9"><user id="bob"/><pos lat="56.34" lon="-2.80"/></event>"#).unwrap();
    c.bench_function("c6_generated_bind", |b| b.iter(|| GeneratedEvent::bind(&plain).unwrap()));
    c.bench_function("c6_xml_parse", |b| {
        b.iter(|| {
            parse(r#"<event seq="9"><user id="bob"/><pos lat="56.34" lon="-2.80"/></event>"#)
                .unwrap()
        })
    });
}

/// C7: the multi-pattern join (two buffered streams + facts).
///
/// Time advances `window / DEPTH` per iteration, so after the pre-fill
/// each pattern's buffer holds a constant ~`DEPTH` partial matches and
/// every iteration does the same amount of join work. (The seed version
/// let the buffers grow with the iteration count, which made the mean
/// depend on how many iterations the harness happened to run.)
fn c7_join(c: &mut Criterion) {
    const DEPTH: u64 = 64;
    const WINDOW_MS: u64 = 5 * 60 * 1000;
    let mut kb = InMemoryFacts::new();
    kb.add(Fact::new("bob", "likes", Term::str("ice cream")));
    kb.add(Fact::new("bob", "nationality", Term::str("scottish")));
    let mut engine = MatchletEngine::compile(
        r#"
        rule pairup {
            on w: event weather.reading(celsius: ?t)
            on l: event user.location(user: ?u)
            where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
            where ?t >= hot_threshold(?nat)
            within 5 m
            emit suggestion(user: ?u)
        }
        "#,
    )
    .unwrap();
    let weather = Event::new("weather.reading").with_attr("celsius", 20.0);
    let loc = Event::new("user.location").with_attr("user", "bob");
    let step = WINDOW_MS / DEPTH;
    let mut t = 0u64;
    let tick = |engine: &mut MatchletEngine, t: &mut u64| {
        *t += step;
        engine.on_event(SimTime::from_millis(*t), &weather, &kb);
        engine.on_event(SimTime::from_millis(*t + 1), &loc, &kb)
    };
    for _ in 0..DEPTH {
        tick(&mut engine, &mut t);
    }
    c.bench_function("c7_two_pattern_join", |b| b.iter(|| tick(&mut engine, &mut t)));
}

/// S1: per-event cost as *unrelated* rules pile up. The kind index keeps
/// the engine from touching rules that cannot match, so 10× more rules
/// must cost roughly the same per event.
fn s1_rule_scaling(c: &mut Criterion) {
    let kb = InMemoryFacts::new();
    for &rules in &[20usize, 200] {
        let mut src = String::new();
        for i in 0..rules {
            src += &format!(
                "rule r{i} {{ on a: event kind{i}(x: ?x) where ?x > 1 emit out{i}(x: ?x) }}\n"
            );
        }
        let mut engine = MatchletEngine::compile(&src).unwrap();
        let ev = Event::new("kind7").with_attr("x", 5i64);
        let mut t = 0u64;
        c.bench_function(&format!("s1_on_event_{rules}_rules"), |b| {
            b.iter(|| {
                t += 1;
                engine.on_event(SimTime::from_micros(t), &ev, &kb)
            })
        });
    }
}

/// S2: a selective two-pattern join over a deep buffer (512 buffered
/// events across 128 users): the index probe visits only the ~4
/// compatible entries instead of scanning all 512.
fn s2_join_deep_buffer(c: &mut Criterion) {
    let kb = InMemoryFacts::new();
    let mut engine = MatchletEngine::compile(
        r#"
        rule same_user {
            on a: event enter(user: ?u, n: ?n)
            on b: event exit(user: ?u)
            within 1 h
            emit visit(user: ?u, n: ?n)
        }
        "#,
    )
    .unwrap();
    for i in 0..512u64 {
        let ev = Event::new("enter")
            .with_attr("user", format!("user{}", i % 128))
            .with_attr("n", i as i64);
        engine.on_event(SimTime::from_millis(i), &ev, &kb);
    }
    let exits: Vec<Event> =
        (0..128).map(|i| Event::new("exit").with_attr("user", format!("user{i}"))).collect();
    let mut i = 0usize;
    let mut t = 600u64;
    c.bench_function("s2_join_512_deep_buffer", |b| {
        b.iter(|| {
            i += 1;
            t += 1;
            engine.on_event(SimTime::from_millis(t), &exits[i % 128], &kb)
        })
    });
}

/// S2, steady window: the `e2e` benchmark's `city_steady` join at one
/// matchlet host — 240 events per simulated second into a 30 s window,
/// 59 location reports (500 users over 60 streets) to one weather
/// reading, so 7 080 locations and 120 readings stay buffered. An
/// iteration is one arrival with its window already full: one eviction,
/// one probe of the other pattern's buffer (2 compatible readings per
/// location; ≈118 locations per reading, every 60th iteration), one push.
/// The filter rejects every pair, so the join and the window upkeep are
/// what is timed, not event synthesis.
fn s2_join_window_steady(c: &mut Criterion) {
    const STEP_US: u64 = 1_000_000 / 240;
    let kb = InMemoryFacts::new();
    let mut engine = MatchletEngine::compile(
        r#"
        rule meetup {
            on w: event weather.reading(street: ?s, celsius: ?c)
            on l: event user.location(user: ?u, street: ?s)
            where ?c > 100
            within 30 s
            emit meetup(user: ?u, street: ?s)
        }
        "#,
    )
    .unwrap();
    let street = |i: u64| format!("street{}", i % 60);
    let readings: Vec<Event> = (0..60)
        .map(|i| {
            Event::new("weather.reading")
                .with_attr("street", street(i))
                .with_attr("celsius", (i % 40) as i64)
        })
        .collect();
    let locations: Vec<Event> = (0..500)
        .map(|i| {
            Event::new("user.location")
                .with_attr("user", format!("user{i}"))
                .with_attr("street", street(i * 7))
        })
        .collect();
    let mut i = 0u64;
    let mut arrive = move |engine: &mut MatchletEngine| {
        i += 1;
        let ev = if i.is_multiple_of(60) {
            &readings[(i / 60) as usize % 60]
        } else {
            &locations[i as usize % 500]
        };
        engine.on_event(SimTime::from_micros(i * STEP_US), ev, &kb)
    };
    // Fill the window (30 s of arrivals) before timing.
    for _ in 0..30 * 240 {
        arrive(&mut engine);
    }
    assert_eq!(engine.rules()[0].buffered(), 7_200);
    c.bench_function("s2_join_window_steady", |b| b.iter(|| arrive(&mut engine)));
}

/// S3: the event plane at scale — wall time for a full overlay
/// build + settle (staggered joins, announce storm, probe steady state).
/// `GLOSS_SCALE_MAX=2048` adds a 2048-node row.
fn s3_overlay_scaling(c: &mut Criterion) {
    let smoke = std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let mut sizes: Vec<usize> = if smoke { vec![512] } else { vec![256, 1024] };
    if let Ok(v) = std::env::var("GLOSS_SCALE_MAX") {
        if let Ok(extra) = v.parse::<usize>() {
            if !smoke && extra > 1024 {
                sizes.push(extra);
            }
        }
    }
    for &n in &sizes {
        c.bench_function(&format!("s3_overlay_settle_{n}"), |b| {
            b.iter(|| {
                let mut net = OverlayNetwork::build(n, 42);
                net.settle();
                assert!(net.joined_fraction() > 0.99, "overlay failed to settle");
                net.world().metrics().counter("sim.messages_delivered")
            })
        });
    }
}

/// S4: churn-heavy steady state — one crash/recover episode over a settled
/// overlay (an eighth of the nodes fail, detection + repair runs, they
/// return). Exercises the link-state purge and the control events (each
/// crash/recover flushes the pending node counters).
fn s4_churn_episode(c: &mut Criterion) {
    let smoke = std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let n: usize = if smoke { 32 } else { 96 };
    let mut net = OverlayNetwork::build(n, 77);
    net.settle();
    let mut round = 0u32;
    c.bench_function("s4_churn_episode", |b| {
        b.iter(|| {
            round += 1;
            for k in 0..(n / 8) {
                let victim = NodeIndex((1 + ((round as usize * 7 + k * 3) % (n - 1))) as u32);
                net.world_mut().crash(victim);
            }
            net.run_for(SimDuration::from_secs(30));
            for k in 0..(n / 8) {
                let victim = NodeIndex((1 + ((round as usize * 7 + k * 3) % (n - 1))) as u32);
                net.world_mut().recover(victim);
            }
            net.run_for(SimDuration::from_secs(30));
            net.world().metrics().counter("sim.crashes")
        })
    });
}

/// S5: mobility-heavy event plane — a client roams to another broker while
/// publishers keep the bus busy; its old broker logs, then replays.
fn s5_mobility_roam(c: &mut Criterion) {
    let mut net = PubSubNetwork::build(PubSubConfig {
        architecture: Architecture::AcyclicPeer,
        brokers: 6,
        clients_per_broker: 3,
        seed: 17,
        ..PubSubConfig::default()
    });
    let clients = net.clients().to_vec();
    let brokers = net.brokers().to_vec();
    for &cl in &clients {
        net.subscribe(cl, Filter::for_kind("m"));
    }
    net.run_for(SimDuration::from_secs(5));
    let mut i = 0usize;
    c.bench_function("s5_mobility_roam", |b| {
        b.iter(|| {
            i += 1;
            let mover = clients[i % clients.len()];
            let target = brokers[i % brokers.len()];
            net.move_client(mover, target, SimDuration::from_secs(2));
            for k in 0..4 {
                net.publish(clients[(i + k + 1) % clients.len()], Event::new("m"));
            }
            net.run_for(SimDuration::from_secs(5));
            net.total_delivered()
        })
    });
}

/// S6: one publish against a broker holding n subscriptions — the
/// counting index vs the pre-PR8 linear table scan. The indexed rows
/// should be near-flat in n; the linear rows grow with it. Smoke mode
/// caps the table at 100 k (and skips the 1 M rows).
fn s6_subscriber_publish(c: &mut Criterion) {
    use gloss_event::{Broker, BrokerMsg, BrokerTopology, LinearBroker, Subscription};
    use gloss_sim::Outbox;
    let smoke = std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if smoke { &[1_000, 100_000] } else { &[1_000, 100_000, 1_000_000] };
    for &n in sizes {
        let topology = BrokerTopology::Peer { neighbors: vec![] };
        let mut broker = Broker::new(NodeIndex(0), topology.clone());
        let mut out = Outbox::new();
        for i in 0..n {
            let client = NodeIndex(10 + i as u32);
            let filter = Filter::for_kind("ctx").with_eq("user", format!("u{i}"));
            broker.handle(SimTime::ZERO, client, BrokerMsg::Attach, &mut out);
            broker.handle(
                SimTime::ZERO,
                client,
                BrokerMsg::Subscribe(Subscription { id: i as u64 + 1, filter }),
                &mut out,
            );
        }
        let mut i = 0usize;
        c.bench_function(&format!("s6_publish_indexed_{n}"), |b| {
            b.iter(|| {
                i += 1;
                let e = Event::new("ctx").with_attr("user", format!("u{}", i * 7 % n));
                let mut out = Outbox::new();
                broker.handle(SimTime::ZERO, NodeIndex(5), BrokerMsg::Publish(e), &mut out);
                out
            })
        });
        // The fan-out shape (`subscriber_fanout` in the e2e benchmark): a
        // kind, a Zipf-popular `zone` to equal and a uniform `level`
        // floor, events drawn alike. The `Eq`-only rows above never
        // touch a boundary map, so they cannot show what a range costs.
        let mut rng = SimRng::new(6);
        let (kinds, zones) = (Zipf::new(8, 1.0), Zipf::new(16, 1.0));
        let mut ranged = Broker::new(NodeIndex(0), topology);
        for i in 0..n {
            let client = NodeIndex(10 + i as u32);
            let filter = Filter::for_kind(format!("alert{}", kinds.sample(&mut rng)))
                .with_eq("zone", zones.sample(&mut rng) as i64)
                .with_constraint("level", Op::Ge, rng.range(0, 100) as i64);
            ranged.handle(SimTime::ZERO, client, BrokerMsg::Attach, &mut out);
            ranged.handle(
                SimTime::ZERO,
                client,
                BrokerMsg::Subscribe(Subscription { id: i as u64 + 1, filter }),
                &mut out,
            );
        }
        c.bench_function(&format!("s6_publish_indexed_range_{n}"), |b| {
            b.iter(|| {
                let e = Event::new(format!("alert{}", kinds.sample(&mut rng)))
                    .with_attr("zone", zones.sample(&mut rng) as i64)
                    .with_attr("level", rng.range(0, 100) as i64);
                let mut out = Outbox::new();
                ranged.handle(SimTime::ZERO, NodeIndex(5), BrokerMsg::Publish(e), &mut out);
                out
            })
        });
        // The linear baseline pays O(n) per publish; skip its 1 M row
        // (minutes of wall time for a number the 100 k row already shows).
        if n > 100_000 {
            continue;
        }
        let mut linear =
            LinearBroker::new(NodeIndex(0), BrokerTopology::Peer { neighbors: vec![] });
        for i in 0..n {
            let client = NodeIndex(10 + i as u32);
            let filter = Filter::for_kind("ctx").with_eq("user", format!("u{i}"));
            linear.handle(SimTime::ZERO, client, BrokerMsg::Attach, &mut out);
            linear.handle(
                SimTime::ZERO,
                client,
                BrokerMsg::Subscribe(Subscription { id: i as u64 + 1, filter }),
                &mut out,
            );
        }
        let mut i = 0usize;
        c.bench_function(&format!("s6_publish_linear_{n}"), |b| {
            b.iter(|| {
                i += 1;
                let e = Event::new("ctx").with_attr("user", format!("u{}", i * 7 % n));
                let mut out = Outbox::new();
                linear.handle(SimTime::ZERO, NodeIndex(5), BrokerMsg::Publish(e), &mut out);
                out
            })
        });
    }
}

/// S6, the leaf's side of the fan-out: a `subscriber_fanout`-shaped leaf
/// (node 1, whose one neighbour is the hub 0) holding 150 selective
/// subscriptions of its own node and 25 range-only covers the hub
/// forwarded, handling a `Notify` from the hub. Only the own node's
/// table can receive it, so only that table is probed.
fn s6_leaf_notify(c: &mut Criterion) {
    use gloss_event::{Broker, BrokerMsg, BrokerTopology, Subscription};
    use gloss_sim::Outbox;
    let (leaf, hub) = (NodeIndex(1), NodeIndex(0));
    let mut rng = SimRng::new(61);
    let (kinds, zones) = (Zipf::new(8, 1.0), Zipf::new(16, 1.0));
    let mut broker = Broker::new(leaf, BrokerTopology::Peer { neighbors: vec![hub] });
    let mut out = Outbox::new();
    broker.handle(SimTime::ZERO, leaf, BrokerMsg::Attach, &mut out);
    for i in 0..175u64 {
        let kind = format!("alert{}", kinds.sample(&mut rng));
        let (from, filter) = if i % 7 == 3 {
            (hub, Filter::for_kind(kind).with_constraint("level", Op::Ge, rng.range(0, 60) as i64))
        } else {
            let filter = Filter::for_kind(kind)
                .with_eq("zone", zones.sample(&mut rng) as i64)
                .with_constraint("level", Op::Ge, rng.range(0, 100) as i64);
            (leaf, filter)
        };
        let sub = Subscription { id: (u64::from(from.0) << 32) | i, filter };
        broker.handle(SimTime::ZERO, from, BrokerMsg::Subscribe(sub), &mut out);
    }
    c.bench_function("s6_leaf_notify", |b| {
        b.iter(|| {
            let e = Event::new(format!("alert{}", kinds.sample(&mut rng)))
                .with_attr("zone", zones.sample(&mut rng) as i64)
                .with_attr("level", rng.range(0, 100) as i64);
            let mut out = Outbox::new();
            broker.handle(SimTime::ZERO, hub, BrokerMsg::Notify(e), &mut out);
            out
        })
    });
}

/// S7: beta-network prefix sharing — n rules whose goal chains start
/// with the same two-goal fact join and differ only in a leaf filter
/// over a fact-bound variable.
///
/// `steady` replays memoised solutions (both engine generations are
/// near-flat here). `repair` mutates the knowledge base every iteration
/// so every rule's memo goes stale before the event fires: per-rule memo
/// tables re-solve the full two-goal join n times, while a shared beta
/// network computes the common prefix once and extends each rule's leaf
/// from it. Written against APIs that exist in the per-rule-memo engine
/// too, so the same file benches a per-rule-memo build against a shared
/// one.
fn s7_shared_prefix(c: &mut Criterion) {
    let smoke = std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let sizes: &[usize] = if smoke { &[500] } else { &[1_000, 10_000] };
    const USERS: u64 = 500;
    let build_kb = || {
        let mut kb = InMemoryFacts::new();
        for u in 0..USERS {
            // Two ice-cream fans (users 100 and 300); everyone else only
            // adds to the likes-facts the join prefix must enumerate.
            let flavor = if u % 200 == 100 { "ice cream" } else { "vanilla" };
            kb.add(Fact::new(format!("user{u}"), "likes", Term::str(flavor)));
            kb.add(Fact::new(format!("user{u}"), "nationality", Term::str("scottish")));
        }
        kb
    };
    for &n in sizes {
        let mut src = String::with_capacity(n * 170);
        for i in 0..n {
            src += &format!(
                "rule s{i} {{ on t: event tick(seq: ?s) where fact(?u, likes, \"ice cream\") and fact(?u, nationality, ?nat) and ?nat != \"x{i}\" within 1 m emit hit{i}(user: ?u) }}\n"
            );
        }
        {
            let kb = build_kb();
            let mut engine = MatchletEngine::compile(&src).unwrap();
            let ev = Event::new("tick").with_attr("seq", 1i64);
            let mut t = 0u64;
            c.bench_function(&format!("s7_beta_steady_{n}_rules"), |b| {
                b.iter(|| {
                    t += 1;
                    engine.on_event(SimTime::from_micros(t), &ev, &kb)
                })
            });
        }
        {
            let mut kb = build_kb();
            let mut engine = MatchletEngine::compile(&src).unwrap();
            let ev = Event::new("tick").with_attr("seq", 1i64);
            let mut t = 0u64;
            c.bench_function(&format!("s7_beta_repair_{n}_rules"), |b| {
                b.iter(|| {
                    t += 1;
                    // Churn an odd-indexed (never matching) user: every
                    // memo invalidates, the solution set stays put.
                    let u = format!("user{}", 1 + 2 * (t % (USERS / 2)));
                    kb.remove_subject(&u);
                    kb.add(Fact::new(u.clone(), "likes", Term::str("vanilla")));
                    kb.add(Fact::new(u, "nationality", Term::str("scottish")));
                    engine.on_event(SimTime::from_micros(t), &ev, &kb)
                })
            });
        }
    }
}

/// Q1: the simulator's event queue under a burst of entries all due at
/// one instant — the case an earlier queue's sorted insert made quadratic;
/// a key heap pays O(log n) per entry. One world; each iteration injects
/// the burst at `now` and drains it (the sink nodes send nothing back).
fn q1_same_instant_burst(c: &mut Criterion) {
    use gloss_sim::{Input, Node, Outbox, Topology, World};
    struct Sink;
    impl Node for Sink {
        type Msg = u32;
        fn handle(&mut self, _now: SimTime, _input: Input<u32>, _out: &mut Outbox<u32>) {}
    }
    let smoke = std::env::var("GLOSS_BENCH_SMOKE").is_ok_and(|v| v != "0");
    let burst: u32 = if smoke { 1_024 } else { 8_192 };
    let n = 64;
    let mut world = World::new(Topology::lan(n, 3), 3, (0..n).map(|_| Sink).collect());
    world.start_all();
    c.bench_function(&format!("q1_same_instant_burst_{burst}"), |b| {
        b.iter(|| {
            let at = world.now();
            for i in 0..burst {
                world.inject_at(at, NodeIndex(i % n as u32), NodeIndex((i * 7) % n as u32), i);
            }
            world.run_until(at);
            assert_eq!(world.pending(), 0);
            world.metrics().counter("sim.messages_delivered")
        })
    });
}

/// C17: a synchronized hot-topic burst through an acyclic-peer graph
/// whose forwarding tables covering/merging have collapsed.
fn c17_flash_crowd_burst(c: &mut Criterion) {
    let mut net = PubSubNetwork::build(PubSubConfig {
        architecture: Architecture::AcyclicPeer,
        brokers: 4,
        clients_per_broker: 8,
        seed: 53,
        ..PubSubConfig::default()
    });
    let clients = net.clients().to_vec();
    for (i, &cl) in clients.iter().enumerate() {
        net.subscribe(cl, Filter::for_kind("goal"));
        net.subscribe(
            cl,
            Filter::for_kind("ctx")
                .with_constraint("temp", Op::Gt, (i % 4) as i64)
                .with_eq("user", format!("u{i}")),
        );
    }
    net.run_for(SimDuration::from_secs(5));
    let mut i = 0usize;
    c.bench_function("c17_flash_burst", |b| {
        b.iter(|| {
            i += 1;
            for k in 0..10 {
                let p = clients[(i * 5 + k) % clients.len()];
                net.publish(p, Event::new("goal").with_attr("minute", 90i64));
            }
            net.run_for(SimDuration::from_secs(5));
            net.total_delivered()
        })
    });
}

/// C8: store lookup issue + conclusion (the discovery fetch path).
fn c8_store_lookup(c: &mut Criterion) {
    let mut net = StoreNetwork::build(12, StoreConfig::default(), 9);
    net.settle();
    let doc = Document::new("handler-code", vec![7u8; 256]);
    net.insert(NodeIndex(0), doc.clone());
    net.run_for(SimDuration::from_secs(30));
    let mut reader = 1u32;
    c.bench_function("c8_lookup_and_settle", |b| {
        b.iter(|| {
            reader = (reader + 1) % 12;
            let id = net.lookup_retrying(NodeIndex(reader), doc.guid);
            net.run_for(SimDuration::from_secs(2));
            id
        })
    });
}

/// C9: ontology-expanded retrieval over a small corpus.
fn c9_retrieval(c: &mut Criterion) {
    let corpus: Vec<ServiceDescription> = (0..50)
        .map(|i| {
            ServiceDescription::new(format!("s{i}"), format!("service number {i} selling gelato"))
                .with_facet("offers", if i % 2 == 0 { "gelato" } else { "espresso" })
        })
        .collect();
    let lexical = LexicalMatcher::new(Ontology::food_and_context());
    c.bench_function("c9_lexical_retrieve", |b| {
        b.iter(|| lexical.retrieve("offers", "ice cream", &corpus))
    });
    c.bench_function("c9_text_retrieve", |b| b.iter(|| TextMatcher.retrieve("ice cream", &corpus)));
}

/// C10: erasure encode/decode of a 16 KiB object.
fn c10_erasure(c: &mut Criterion) {
    let code = ErasureCode::new(4, 8).unwrap();
    let data: Vec<u8> = (0..16 * 1024).map(|i| (i % 251) as u8).collect();
    c.bench_function("c10_encode_16k_4of8", |b| b.iter(|| code.encode(&data)));
    let shards = code.encode(&data);
    let kept: Vec<(usize, Vec<u8>)> = (4..8).map(|i| (i, shards[i].clone())).collect();
    c.bench_function("c10_decode_16k_4of8", |b| b.iter(|| code.decode(&kept, data.len()).unwrap()));
}

criterion_group! {
    name = experiments;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = e1_matching, e4_delta_matching, k1_fact_store_writes, k2_kbdelta_decode, x1_xml_parse,
              e2_pipeline_push, e3_bundle_roundtrip,
              c1_filter_ops, c1_publish_through_network, c2_overlay_route, c3_cache_ops,
              c3_cache_churn, c4_solver, c6_binding, c7_join, c8_store_lookup, c9_retrieval,
              c10_erasure, c13_rule_churn, m1_histogram_polling, s1_rule_scaling,
              s2_join_deep_buffer, s2_join_window_steady, s3_overlay_scaling, s4_churn_episode,
              s5_mobility_roam, s6_subscriber_publish, s6_leaf_notify, s7_shared_prefix,
              c17_flash_crowd_burst,
              q1_same_instant_burst
}
criterion_main!(experiments);
