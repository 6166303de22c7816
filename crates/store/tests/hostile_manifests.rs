//! Hostile-input tests for fragment manifests.
//!
//! A repair coordinator reads a manifest another node stored, builds the
//! code it names and decodes survivors with the length it claims. Byte-
//! level mutations of real manifests — flips, overwrites with manifest
//! characters, inserts, deletes, truncations and duplicated chunks — go
//! through that same chain, [`FragmentManifest::parse`] →
//! [`ErasureCode::new`] → [`ErasureCode::decode`], against the shards the
//! original manifest describes. Each step must return a value or an
//! error and never panic; a decode that succeeds returns exactly the
//! claimed length, and an unmutated manifest decodes the original bytes.

use gloss_sim::SimRng;
use gloss_store::{Document, ErasureCode, FragmentManifest, Priority};

/// Real manifests, each with the object it describes.
fn seeds() -> Vec<(FragmentManifest, Vec<u8>)> {
    [("photo", 3, 5, 1234), ("kb/bob", 1, 2, 7), ("tiny", 4, 6, 1), ("wide", 10, 255, 4096)]
        .into_iter()
        .map(|(base, m, n, len)| {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + m) as u8).collect();
            (FragmentManifest { base: base.into(), m, n, len }, data)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Mutations (the decode oracle's helper, with a manifest's characters as
// the alphabet).
// ---------------------------------------------------------------------

const MARKUP: &[u8] = b"=\n#mnlenbase0123456789-+ _/@manifestshard\r\t";

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

/// Runs one manifest document through what a repair coordinator does
/// with it, against `shards` (indexed as stored). Returns whether the
/// decode succeeded.
fn audit(doc: &Document, shards: &[Vec<u8>]) -> bool {
    let Some(manifest) = FragmentManifest::parse(doc) else { return false };
    let Ok(code) = ErasureCode::new(manifest.m, manifest.n) else { return false };
    // Any survivors the manifest's indices name, one lost, as an audit
    // that found a shard missing would present them.
    let survivors: Vec<(usize, Vec<u8>)> =
        shards.iter().cloned().enumerate().skip(1).take(manifest.m).collect();
    match code.decode(&survivors, manifest.len) {
        Ok(data) => {
            assert_eq!(data.len(), manifest.len, "{manifest:?}");
            true
        }
        Err(_) => false,
    }
}

#[test]
fn seeds_decode_to_the_object() {
    for (manifest, data) in seeds() {
        let doc = manifest.to_doc(Priority::Normal);
        assert_eq!(FragmentManifest::parse(&doc).as_ref(), Some(&manifest));
        let code = ErasureCode::new(manifest.m, manifest.n).unwrap();
        let shards = code.encode(&data);
        let survivors: Vec<(usize, Vec<u8>)> =
            shards.iter().cloned().enumerate().skip(1).take(manifest.m).collect();
        assert_eq!(code.decode(&survivors, manifest.len).unwrap(), data, "{manifest:?}");
        assert!(audit(&doc, &shards));
    }
}

#[test]
fn mutated_manifests_never_panic() {
    let seeds: Vec<(Document, Vec<Vec<u8>>)> = seeds()
        .into_iter()
        .map(|(manifest, data)| {
            let shards = ErasureCode::new(manifest.m, manifest.n).unwrap().encode(&data);
            (manifest.to_doc(Priority::Normal), shards)
        })
        .collect();
    let (mut decoded, mut refused) = (0, 0);
    for seed in 0..32 {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            let (doc, shards) = &seeds[rng.index(seeds.len())];
            let content = mutate(&mut rng, &doc.content);
            // Mostly the body; sometimes the name a manifest must match.
            let name = if rng.chance(0.2) {
                String::from_utf8_lossy(&mutate(&mut rng, doc.name.as_bytes())).into_owned()
            } else {
                doc.name.to_string()
            };
            let hostile = Document::new(name, content).with_priority(doc.priority);
            if audit(&hostile, shards) {
                decoded += 1;
            } else {
                refused += 1;
            }
        }
    }
    assert!(decoded > 0 && refused > 0, "decoded {decoded}, refused {refused}");
}

#[test]
fn a_manifest_claiming_more_than_its_shards_hold_is_refused_at_decode() {
    let (manifest, data) = seeds().remove(0);
    let shards = ErasureCode::new(manifest.m, manifest.n).unwrap().encode(&data);
    let held = manifest.m * shards[0].len();
    for len in [usize::MAX, usize::MAX / 2, 1 << 40, held + 1] {
        // `parse` keeps the claim: the bound is the shards', so `decode`
        // is where it is checked.
        let claimed = FragmentManifest { len, ..manifest.clone() };
        let doc = claimed.to_doc(Priority::Normal);
        assert_eq!(FragmentManifest::parse(&doc), Some(claimed));
        assert!(!audit(&doc, &shards), "len {len}");
    }
    let exact = FragmentManifest { len: held, ..manifest };
    assert!(audit(&exact.to_doc(Priority::Normal), &shards));
}
