//! GIS-lite: places, streets, opening hours, and spatial queries.
//!
//! "Information sources include ... relatively static information such as
//! spatial data from GIS" (§1.1). The demo directory reproduces the
//! paper's scene: "Janetta's in Market Street sells ice cream, and is open
//! between 9.00 and 17.00."

use crate::fact::{Fact, Term};
use gloss_sim::GeoPoint;

/// A named place with location, street, categories, and opening hours.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// The place name ("Janetta's").
    pub name: String,
    /// Where it is.
    pub geo: GeoPoint,
    /// The street it is on ("Market Street").
    pub street: String,
    /// What it offers ("ice cream", "cafe"...).
    pub categories: Vec<String>,
    /// Opening interval in minutes-of-day `[open, close)`, if it has one.
    pub hours: Option<(u32, u32)>,
}

impl Place {
    /// Creates a place with no categories or hours.
    pub fn new(name: impl Into<String>, geo: GeoPoint, street: impl Into<String>) -> Self {
        Place { name: name.into(), geo, street: street.into(), categories: Vec::new(), hours: None }
    }

    /// Adds a category.
    pub fn with_category(mut self, cat: impl Into<String>) -> Self {
        self.categories.push(cat.into());
        self
    }

    /// Sets opening hours (minutes of day, `[open, close)`).
    pub fn with_hours(mut self, open: u32, close: u32) -> Self {
        self.hours = Some((open, close));
        self
    }

    /// Whether the place is open at `minute_of_day`.
    pub fn open_at(&self, minute_of_day: u32) -> bool {
        match self.hours {
            None => true,
            Some((open, close)) => {
                let m = minute_of_day % (24 * 60);
                if open <= close {
                    m >= open && m < close
                } else {
                    // Over midnight.
                    m >= open || m < close
                }
            }
        }
    }

    /// Facts describing this place, for the knowledge base.
    pub fn to_facts(&self) -> Vec<Fact> {
        let mut facts = vec![
            Fact::new(&self.name, "located_at", Term::Geo(self.geo)),
            Fact::new(&self.name, "on_street", Term::str(self.street.as_str())),
        ];
        for c in &self.categories {
            facts.push(Fact::new(&self.name, "sells", Term::str(c.as_str())));
        }
        if let Some((open, close)) = self.hours {
            facts.push(Fact::new(&self.name, "opens_at", Term::Int(open as i64)));
            facts.push(Fact::new(&self.name, "closes_at", Term::Int(close as i64)));
        }
        facts
    }
}

/// A directory of places with spatial queries.
#[derive(Debug, Clone, Default)]
pub struct PlaceDirectory {
    places: Vec<Place>,
}

impl PlaceDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        PlaceDirectory::default()
    }

    /// The St Andrews scene from the paper's ice-cream example, plus
    /// enough surrounding places for realistic workloads.
    pub fn st_andrews() -> Self {
        let mut d = PlaceDirectory::new();
        d.add(
            Place::new("Janetta's", GeoPoint::new(56.3403, -2.7931), "Market Street")
                .with_category("ice cream")
                .with_hours(9 * 60, 17 * 60),
        );
        d.add(
            Place::new("The Central", GeoPoint::new(56.3400, -2.7950), "Market Street")
                .with_category("pub")
                .with_category("food")
                .with_hours(11 * 60, 23 * 60),
        );
        d.add(
            Place::new("North Point Cafe", GeoPoint::new(56.3417, -2.7956), "North Street")
                .with_category("coffee")
                .with_category("cafe")
                .with_hours(8 * 60, 18 * 60),
        );
        d.add(
            Place::new("West Port Bar", GeoPoint::new(56.3385, -2.8011), "South Street")
                .with_category("pub")
                .with_hours(12 * 60, 24 * 60),
        );
        d.add(
            Place::new("University Library", GeoPoint::new(56.3414, -2.7989), "North Street")
                .with_category("library")
                .with_hours(8 * 60, 22 * 60),
        );
        d.add(
            Place::new("The Old Course", GeoPoint::new(56.3433, -2.8036), "Golf Place")
                .with_category("golf"),
        );
        d
    }

    /// Adds a place.
    pub fn add(&mut self, place: Place) {
        self.places.push(place);
    }

    /// All places.
    pub fn iter(&self) -> impl Iterator<Item = &Place> {
        self.places.iter()
    }

    /// Number of places.
    pub fn len(&self) -> usize {
        self.places.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.places.is_empty()
    }

    /// The place with the given name.
    pub fn by_name(&self, name: &str) -> Option<&Place> {
        self.places.iter().find(|p| p.name == name)
    }

    /// Places within `radius_km` of `point`, nearest first.
    pub fn nearby(&self, point: GeoPoint, radius_km: f64) -> Vec<&Place> {
        let mut hits: Vec<(&Place, f64)> = self
            .places
            .iter()
            .map(|p| (p, p.geo.distance_km(point)))
            .filter(|(_, d)| *d <= radius_km)
            .collect();
        hits.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
        hits.into_iter().map(|(p, _)| p).collect()
    }

    /// Facts describing every place.
    pub fn to_facts(&self) -> Vec<Fact> {
        self.places.iter().flat_map(Place::to_facts).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn janettas_matches_the_paper() {
        let d = PlaceDirectory::st_andrews();
        let j = d.by_name("Janetta's").unwrap();
        assert_eq!(j.street, "Market Street");
        assert!(j.categories.iter().any(|c| c == "ice cream"));
        assert!(j.open_at(16 * 60 + 55), "open at 16:55");
        assert!(!j.open_at(17 * 60), "closed at 17:00");
        assert!(!j.open_at(8 * 60), "closed at 08:00");
    }

    #[test]
    fn nearby_sorts_by_distance() {
        let d = PlaceDirectory::st_andrews();
        // Near Market Street.
        let here = GeoPoint::new(56.3402, -2.7935);
        let nearby = d.nearby(here, 1.0);
        assert!(!nearby.is_empty());
        assert_eq!(nearby[0].name, "Janetta's");
        // Tight radius excludes the golf course.
        assert!(nearby.iter().all(|p| p.name != "The Old Course") || nearby.len() == d.len());
    }

    #[test]
    fn find_open_filters_category_and_hours() {
        let d = PlaceDirectory::st_andrews();
        let here = GeoPoint::new(56.3402, -2.7935);
        // Places within 2 km selling `category` and open at `minute`.
        let open = |category: &str, minute: u32| -> Vec<&str> {
            d.nearby(here, 2.0)
                .into_iter()
                .filter(|p| p.categories.iter().any(|c| c == category) && p.open_at(minute))
                .map(|p| p.name.as_str())
                .collect()
        };
        assert_eq!(open("ice cream", 16 * 60 + 55), ["Janetta's"]);
        assert!(open("ice cream", 18 * 60).is_empty(), "Janetta's closes at 17:00");
        assert!(open("submarines", 12 * 60).is_empty());
    }

    #[test]
    fn hours_over_midnight() {
        let p = Place::new("Night Van", GeoPoint::new(0.0, 0.0), "x").with_hours(22 * 60, 2 * 60);
        assert!(p.open_at(23 * 60));
        assert!(p.open_at(60));
        assert!(!p.open_at(12 * 60));
        // No hours means always open.
        let q = Place::new("Park", GeoPoint::new(0.0, 0.0), "y");
        assert!(q.open_at(3 * 60));
    }

    #[test]
    fn to_facts_covers_all_aspects() {
        let d = PlaceDirectory::st_andrews();
        let facts = d.to_facts();
        assert!(facts.iter().any(|f| &*f.subject == "Janetta's"
            && &*f.predicate == "sells"
            && f.object.as_str() == Some("ice cream")));
        assert!(facts.iter().any(|f| &*f.subject == "Janetta's" && &*f.predicate == "closes_at"));
        assert!(facts.iter().any(|f| &*f.predicate == "located_at"));
    }
}
