//! Documents: named, versioned byte blobs with overlay GUIDs.

use gloss_overlay::Key;
use gloss_sim::SimTime;
use std::fmt;
use std::rc::Rc;

/// A document's redundancy tier. The storage layer maps each tier to a
/// replica/fragment target count ("a rule might create 5 copies of some
/// data for resilience"): high-priority documents get extra copies, low
/// priority fewer, and the eviction path sheds lower-priority replicas
/// first when a node crosses its capacity watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Evictable first; below-default redundancy target.
    Low,
    /// The default tier.
    #[default]
    Normal,
    /// Extra redundancy; never evicted in favour of lower tiers.
    High,
}

impl Priority {
    /// Stable short label (trace/report rendering).
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

/// A stored document.
///
/// The GUID is derived from the document *name* (as in PAST, where GUIDs
/// come from "a hash of keywords, filename and the public key of the
/// creator"), so a name always routes to the same overlay neighbourhood
/// and updates are expressed as higher [`version`](Document::version)s of
/// the same GUID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The overlay key the document lives under.
    pub guid: Key,
    /// Human-readable name (hashes to `guid`). `Rc<str>` so cloning a
    /// document — which replication, caching, and lookup replies do on
    /// the hot path — bumps two refcounts instead of copying heap data.
    pub name: Rc<str>,
    /// The payload, shared by every copy of the document.
    pub content: Rc<[u8]>,
    /// Monotonic version; replicas keep the highest they have seen.
    pub version: u64,
    /// When the document was created (stamped by the inserting client).
    pub created_at: SimTime,
    /// Redundancy tier (drives the replica target and eviction order).
    pub priority: Priority,
}

impl Document {
    /// Creates version 1 of a named document.
    pub fn new(name: impl Into<String>, content: impl Into<Rc<[u8]>>) -> Self {
        let name = name.into();
        Document {
            guid: Key::hash_of_str(&name),
            name: name.into(),
            content: content.into(),
            version: 1,
            created_at: SimTime::ZERO,
            priority: Priority::Normal,
        }
    }

    /// Sets the redundancy tier.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// A later version of this document with new content.
    pub fn updated(&self, content: impl Into<Rc<[u8]>>) -> Document {
        Document {
            guid: self.guid,
            name: self.name.clone(),
            content: content.into(),
            version: self.version + 1,
            created_at: self.created_at,
            priority: self.priority,
        }
    }

    /// Size of the payload in bytes.
    pub fn size(&self) -> usize {
        self.content.len()
    }

    /// Sets the creation timestamp (used by the inserting harness).
    pub fn stamp(&mut self, at: SimTime) {
        self.created_at = at;
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} v{} ({} bytes, {})", self.name, self.version, self.size(), self.guid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guid_is_name_derived() {
        let a = Document::new("menu", b"gelato".to_vec());
        let b = Document::new("menu", b"sorbet".to_vec());
        assert_eq!(a.guid, b.guid, "same name, same guid");
        let c = Document::new("other", b"gelato".to_vec());
        assert_ne!(a.guid, c.guid);
    }

    #[test]
    fn updated_bumps_version_keeps_guid() {
        let a = Document::new("menu", b"v1".to_vec());
        let b = a.updated(b"v2".to_vec());
        assert_eq!(b.version, 2);
        assert_eq!(b.guid, a.guid);
        assert_eq!(&*b.content, b"v2");
    }

    #[test]
    fn size_and_display() {
        let d = Document::new("x", vec![0u8; 100]);
        assert_eq!(d.size(), 100);
        assert!(d.to_string().contains("100 bytes"));
    }
}
