//! User profiles: "personal preferences, user history" (§1.1) and the
//! social graph the ice-cream scenario relies on ("Bob knows Anna").

use crate::fact::{Fact, Term};
use gloss_sim::SimTime;

/// A user profile, convertible to knowledge-base facts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UserProfile {
    /// The user id ("bob").
    pub name: String,
    /// Things the user likes ("ice cream").
    pub likes: Vec<String>,
    /// Named traits ("nationality" → "scottish").
    pub traits: Vec<(String, Term)>,
    /// Other users this one knows.
    pub knows: Vec<String>,
    /// Visited places, most recent last.
    pub history: Vec<(SimTime, String)>,
}

impl UserProfile {
    /// Creates an empty profile for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        UserProfile { name: name.into(), ..Default::default() }
    }

    /// Adds a liked item.
    pub fn likes(mut self, item: impl Into<String>) -> Self {
        self.likes.push(item.into());
        self
    }

    /// Adds a trait.
    pub fn with_trait(mut self, key: impl Into<String>, value: impl Into<Term>) -> Self {
        self.traits.push((key.into(), value.into()));
        self
    }

    /// Adds a social edge.
    pub fn knows(mut self, other: impl Into<String>) -> Self {
        self.knows.push(other.into());
        self
    }

    /// Records a visit.
    pub fn visited(&mut self, at: SimTime, place: impl Into<String>) {
        self.history.push((at, place.into()));
    }

    /// Facts describing this profile.
    pub fn to_facts(&self) -> Vec<Fact> {
        let mut facts = Vec::new();
        for item in &self.likes {
            facts.push(Fact::new(&self.name, "likes", Term::str(item.as_str())));
        }
        for (k, v) in &self.traits {
            facts.push(Fact::new(&self.name, k, v.clone()));
        }
        for other in &self.knows {
            facts.push(Fact::new(&self.name, "knows", Term::str(other.as_str())));
        }
        for (at, place) in &self.history {
            facts.push(
                Fact::new(&self.name, "visited", Term::str(place.as_str()))
                    .valid_between(*at, SimTime::MAX),
            );
        }
        facts
    }

    /// The paper's Bob: "user Bob likes ice cream ... Bob is Scottish ...
    /// Bob knows Anna".
    pub fn paper_bob(holiday_from: SimTime, holiday_to: SimTime) -> (UserProfile, Vec<Fact>) {
        let profile = UserProfile::new("bob")
            .likes("ice cream")
            .with_trait("nationality", Term::str("scottish"))
            .knows("anna");
        let mut extra = profile.to_facts();
        extra.push(
            Fact::new("bob", "on_holiday", Term::Bool(true))
                .valid_between(holiday_from, holiday_to),
        );
        (profile, extra)
    }

    /// The paper's Anna (who previously recommended a restaurant).
    pub fn paper_anna() -> UserProfile {
        UserProfile::new("anna").likes("coffee").knows("bob")
    }
}

/// What counts as "hot" depends on who you ask: "it can be inferred that
/// Bob would probably like an ice cream given that he is Scottish and
/// therefore regards 20º as hot."
pub fn hot_threshold_celsius(nationality: Option<&str>) -> f64 {
    match nationality {
        Some("scottish") => 18.0,
        Some("australian") => 30.0,
        Some("brazilian") => 28.0,
        _ => 25.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let p = UserProfile::new("bob")
            .likes("ice cream")
            .with_trait("nationality", Term::str("scottish"))
            .knows("anna");
        assert_eq!(p.traits, [("nationality".to_string(), Term::str("scottish"))]);
    }

    #[test]
    fn facts_cover_profile() {
        let mut p = UserProfile::new("bob").likes("ice cream").knows("anna");
        p.visited(SimTime::from_secs(10), "Janetta's");
        let facts = p.to_facts();
        assert!(facts.iter().any(|f| &*f.predicate == "likes"));
        assert!(facts.iter().any(|f| &*f.predicate == "knows"));
        let visit = facts.iter().find(|f| &*f.predicate == "visited").unwrap();
        assert!(!visit.valid_at(SimTime::from_secs(5)), "visit not yet true");
        assert!(visit.valid_at(SimTime::from_secs(11)));
    }

    #[test]
    fn paper_bob_matches_scenario() {
        let (profile, facts) =
            UserProfile::paper_bob(SimTime::from_secs(100), SimTime::from_secs(700));
        assert!(profile.likes.iter().any(|l| l == "ice cream"));
        let holiday = facts.iter().find(|f| &*f.predicate == "on_holiday").unwrap();
        assert!(holiday.valid_at(SimTime::from_secs(400)));
        assert!(!holiday.valid_at(SimTime::from_secs(800)));
    }

    #[test]
    fn hot_depends_on_nationality() {
        assert!(
            hot_threshold_celsius(Some("scottish")) < hot_threshold_celsius(Some("australian"))
        );
        assert!(20.0 >= hot_threshold_celsius(Some("scottish")), "20C is hot for Bob");
        assert!(20.0 < hot_threshold_celsius(None), "20C is not hot by default");
    }
}
