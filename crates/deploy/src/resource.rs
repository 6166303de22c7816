//! Resource advertisements: what a node offers, carried as events.

use gloss_event::Event;
use gloss_sim::{GeoPoint, NodeIndex};

/// One node's advertised resources.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResources {
    /// The node.
    pub node: NodeIndex,
    /// Its region.
    pub region: String,
    /// Its location.
    pub geo: GeoPoint,
    /// Relative compute capacity.
    pub cpu: f64,
    /// Storage bytes offered.
    pub storage: u64,
}

/// Event kinds used on the deployment plane.
pub mod kinds {
    /// Periodic capability/liveness advertisement.
    pub const ADVERTISE: &str = "resource.advertise";
}

impl NodeResources {
    /// Encodes the advertisement as an event.
    pub fn to_event(&self) -> Event {
        Event::new(kinds::ADVERTISE)
            .with_attr("node", self.node.0 as i64)
            .with_attr("region", self.region.as_str())
            .with_attr("lat", self.geo.lat)
            .with_attr("lon", self.geo.lon)
            .with_attr("cpu", self.cpu)
            .with_attr("storage", self.storage as i64)
    }

    /// Decodes an advertisement event.
    pub fn from_event(ev: &Event) -> Option<NodeResources> {
        if ev.kind() != kinds::ADVERTISE {
            return None;
        }
        Some(NodeResources {
            node: NodeIndex(ev.num_attr("node")? as u32),
            region: ev.str_attr("region")?.to_string(),
            geo: GeoPoint::new(ev.num_attr("lat")?, ev.num_attr("lon")?),
            cpu: ev.num_attr("cpu")?,
            storage: ev.num_attr("storage")? as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NodeResources {
        NodeResources {
            node: NodeIndex(4),
            region: "scotland".into(),
            geo: GeoPoint::new(56.3, -3.0),
            cpu: 1.5,
            storage: 1 << 30,
        }
    }

    #[test]
    fn advertise_round_trip() {
        let r = sample();
        let back = NodeResources::from_event(&r.to_event()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn from_event_rejects_other_kinds() {
        assert!(NodeResources::from_event(&Event::new("weather")).is_none());
        let incomplete = Event::new(kinds::ADVERTISE).with_attr("node", 1i64);
        assert!(NodeResources::from_event(&incomplete).is_none());
    }
}
