//! Hostile-input tests for bundle packets.
//!
//! Byte-level mutations of real packets — flips, overwrites with markup
//! and matchlet characters, inserts, deletes, truncations and duplicated
//! chunks — go to [`Bundle::from_packet`] and to
//! [`ThinServer::receive_packet`]. Each call must return `Ok` or `Err`
//! and never panic, and a packet the server turns away must leave its
//! installed bundles, hosted rules and stored objects as they were.
//!
//! Almost every raw mutation fails the integrity digest, so a second pass
//! mutates a packet's *body* and seals it again with the trusted key: the
//! packet an authenticated but careless or hostile issuer sends. Those
//! reach the matchlet parser, the static analysis gate, the capability
//! and version checks and installation; the pass requires some of them to
//! install and some to be turned away past the digest, so both sides of
//! the install path run.

use gloss_bundle::{verify, AuthKey, Bundle, BundleError, Capability, ThinServer};
use gloss_sim::SimRng;
use gloss_xml::{parse, Element};

const ISSUER: &str = "tenant";

fn key() -> AuthKey {
    AuthKey::new(ISSUER, b"shared-secret")
}

const HOT: &str = r#"rule hot { on w: event weather(c: ?c) where ?c > 18.0 emit alert(c: ?c) }"#;

const MEETUP: &str = r#"rule meet {
    on a: event user.location(user: ?u, lat: ?lat)
    on b: event user.location(user: ?v, lat: ?flat)
    where ?u != ?v and fact(?u, knows, ?v)
    where fact(?u, likes, "ice cream")
    within 5 m
    emit suggestion(user: ?u, friend: ?v)
}
rule cold { on w: event weather(c: ?c) where ?c < 5.0 emit brr(c: ?c) }"#;

/// Real bundles: matchlets with and without data objects, a component
/// with a configuration, and a newer version of the bundle the server
/// starts with.
fn seeds() -> Vec<Bundle> {
    let regions = parse("<regions><r>scotland</r><r lat=\"56.3\">fife</r></regions>").unwrap();
    let mut upgrade = Bundle::matchlet("alerts", MEETUP).issued_by(ISSUER);
    upgrade.manifest.version = 3;
    vec![
        Bundle::matchlet("hot-alert", HOT).issued_by(ISSUER),
        Bundle::matchlet("with-data", MEETUP)
            .issued_by(ISSUER)
            .with_data("config/regions", regions)
            .with_data("config/empty", Element::new("none")),
        Bundle::component("thresh", "filter.threshold", parse(r#"<cfg min="50"/>"#).unwrap())
            .issued_by(ISSUER)
            .with_data("note", parse("<n>&amp;&lt;</n>").unwrap()),
        upgrade,
    ]
}

/// A server that trusts the issuer with every capability and already
/// hosts one bundle, so a rejection has something to leave alone.
fn server() -> ThinServer {
    let mut s = ThinServer::new("node-1");
    s.trust(key());
    for cap in [Capability::DeployMatchlet, Capability::DeployComponent, Capability::StoreAccess] {
        s.grant(ISSUER, cap);
    }
    let first = Bundle::matchlet("alerts", HOT).issued_by(ISSUER).with_data("x", Element::new("y"));
    s.receive_packet(&first.to_packet(&key())).expect("the starting bundle installs");
    s
}

// ---------------------------------------------------------------------
// Mutations (the decode oracle's helper, with matchlet characters added
// to the alphabet).
// ---------------------------------------------------------------------

const MARKUP: &[u8] = b"<>/&;=\"' !-?[]#xX0123456789.eE+-_:{}(),?ruleoneventwherefactwithinemit\n";

fn mutate(rng: &mut SimRng, doc: &[u8]) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..rng.range(1, 4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.index(bytes.len());
        match rng.range(0, 6) {
            0 => bytes[at] ^= 1 << rng.range(0, 8),
            1 => bytes[at] = MARKUP[rng.index(MARKUP.len())],
            2 => bytes.insert(at, MARKUP[rng.index(MARKUP.len())]),
            3 => {
                let end = (at + rng.range(1, 8) as usize).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => bytes.truncate(at),
            _ => {
                let end = (at + rng.range(1, 24) as usize).min(bytes.len());
                let chunk = bytes[at..end].to_vec();
                let to = rng.index(bytes.len() + 1);
                bytes.splice(to..to, chunk);
            }
        }
    }
    bytes
}

// ---------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------

/// What a rejected packet must leave alone: installed bundles, hosted
/// rules, and stored objects with their contents.
fn installed(s: &ThinServer) -> (Vec<String>, Vec<String>, Vec<String>) {
    let objects =
        s.object_names().iter().map(|n| format!("{n}={}", s.object(n).unwrap().to_xml())).collect();
    (
        s.installed_names().iter().map(|n| n.to_string()).collect(),
        s.engine().rule_names().iter().map(|n| n.to_string()).collect(),
        objects,
    )
}

/// Offers `packet` to both entry points and returns the server's verdict.
fn offer(s: &mut ThinServer, packet: &str) -> Result<(), BundleError> {
    let parsed = Bundle::from_packet(packet, &key());
    let before = installed(s);
    let rejections = s.rejections;
    let verdict = s.receive_packet(packet).map(|_| ());
    if verdict.is_err() {
        assert_eq!(installed(s), before, "a rejected packet changed the server:\n{packet}");
        assert_eq!(s.rejections, rejections + 1);
    }
    // The server trusts only this key, so what the key turns away the
    // server turns away too.
    assert!(parsed.is_ok() || verdict.is_err(), "installed a packet the key rejects:\n{packet}");
    verdict
}

#[test]
fn seeds_install() {
    let mut s = server();
    for bundle in seeds() {
        let packet = bundle.to_packet(&key());
        assert_eq!(Bundle::from_packet(&packet, &key()).as_ref(), Ok(&bundle));
        offer(&mut s, &packet).unwrap_or_else(|e| panic!("{}: {e}", bundle.manifest.name));
    }
    assert_eq!(s.installed_names(), ["alerts", "hot-alert", "thresh", "with-data"]);
}

#[test]
fn mutated_packets_never_panic_and_a_rejection_changes_nothing() {
    let packets: Vec<String> = seeds().iter().map(|b| b.to_packet(&key())).collect();
    for seed in 0..24 {
        let mut rng = SimRng::new(seed);
        let mut s = server();
        for _ in 0..200 {
            let packet = &packets[rng.index(packets.len())];
            let bytes = mutate(&mut rng, packet.as_bytes());
            let _ = offer(&mut s, &String::from_utf8_lossy(&bytes));
        }
    }
}

#[test]
fn resealed_bodies_reach_installation_and_never_panic() {
    let bodies: Vec<String> = seeds()
        .iter()
        .map(|b| parse(&b.to_packet(&key())).unwrap().child("body").unwrap().to_xml())
        .collect();
    let (mut installs, mut refused) = (0, 0);
    for seed in 0..24 {
        let mut rng = SimRng::new(seed);
        let mut s = server();
        for _ in 0..200 {
            let body = &bodies[rng.index(bodies.len())];
            let bytes = mutate(&mut rng, body.as_bytes());
            let Ok(body) = parse(&String::from_utf8_lossy(&bytes)) else { continue };
            let digest = verify::digest(body.to_xml().as_bytes());
            let packet = Element::new("bundle")
                .with_attr("digest", format!("{digest:032x}"))
                .with_attr("tag", format!("{:032x}", key().tag(digest)))
                .with_child(body)
                .to_xml();
            match offer(&mut s, &packet) {
                Ok(()) => installs += 1,
                Err(BundleError::Malformed(_) | BundleError::IntegrityFailure) => {}
                Err(_) => refused += 1,
            }
        }
    }
    assert!(installs > 0 && refused > 0, "installs {installs}, refused past the digest {refused}");
}

/// A data object nested far deeper than any bundle carries is turned away
/// by the XML reader before the tag is checked: an error, never a stack
/// overflow while the tree is built, cloned, serialised or dropped.
#[test]
fn deeply_nested_unauthenticated_packets_are_refused() {
    for depth in [3_000, 10_000, 100_000] {
        let packet = format!(
            r#"<bundle digest="0" tag="0"><body name="deep" version="1" issuer="{ISSUER}"><component kind="k"/><object name="o">{}{}</object></body></bundle>"#,
            "<data>".repeat(depth),
            "</data>".repeat(depth),
        );
        let mut s = server();
        assert!(matches!(offer(&mut s, &packet), Err(BundleError::Malformed(_))), "{depth}");
    }
}
