//! Ontologies and the three description-matching strategies of §3.
//!
//! "Proposed solutions fall into three categories: text based, lexical
//! descriptor based and specification based." The paper observes that
//! text matching "could be misleading", that lexical descriptors built
//! from "a predefined vocabulary provided by subject experts" (optionally
//! multi-faceted) are "sounder and more complete", and that specification
//! languages define the classification scheme precisely. Experiment
//! **C9** measures precision/recall of all three on a common corpus.

use std::collections::{BTreeMap, BTreeSet};

/// A vocabulary with an *is-a* hierarchy ("gelato is-a ice cream is-a
/// dessert"), used to expand lexical queries.
#[derive(Debug, Clone, Default)]
pub struct Ontology {
    broader: BTreeMap<String, BTreeSet<String>>,
}

impl Ontology {
    /// Creates an empty ontology.
    pub fn new() -> Self {
        Ontology::default()
    }

    /// Declares `narrow` is-a `broad`.
    pub fn declare(&mut self, narrow: impl Into<String>, broad: impl Into<String>) {
        self.broader.entry(narrow.into()).or_default().insert(broad.into());
    }

    /// Whether `a` is (transitively) a kind of `b`. Every term is a kind
    /// of itself.
    pub fn is_a(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        let mut frontier = vec![a];
        let mut seen = BTreeSet::new();
        while let Some(t) = frontier.pop() {
            if !seen.insert(t) {
                continue;
            }
            if let Some(broader) = self.broader.get(t) {
                for p in broader {
                    if p == b {
                        return true;
                    }
                    frontier.push(p);
                }
            }
        }
        false
    }

    /// All terms `t` (transitively) broader than `term`, including itself.
    #[cfg(test)]
    pub(crate) fn expand(&self, term: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut frontier = vec![term.to_string()];
        while let Some(t) = frontier.pop() {
            if !out.insert(t.clone()) {
                continue;
            }
            if let Some(broader) = self.broader.get(&t) {
                frontier.extend(broader.iter().cloned());
            }
        }
        out
    }

    /// A small food/context vocabulary for the experiments.
    pub fn food_and_context() -> Self {
        let mut o = Ontology::new();
        for (n, b) in [
            ("gelato", "ice cream"),
            ("sorbet", "ice cream"),
            ("ice cream", "dessert"),
            ("dessert", "food"),
            ("espresso", "coffee"),
            ("coffee", "drink"),
            ("ale", "beer"),
            ("beer", "drink"),
            ("drink", "food"),
            ("pizza", "food"),
            ("gps", "location sensor"),
            ("gsm", "location sensor"),
            ("location sensor", "sensor"),
            ("thermometer", "sensor"),
        ] {
            o.declare(n, b);
        }
        o
    }
}

/// A description of a service/component to be classified and retrieved.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServiceDescription {
    /// The service name.
    pub name: String,
    /// Free prose (input to the text matcher).
    pub text: String,
    /// Faceted keyphrases: facet → controlled terms (input to the lexical
    /// matcher), e.g. `"offers" → ["ice cream"]`, `"area" → ["fife"]`.
    pub facets: BTreeMap<String, Vec<String>>,
}

impl ServiceDescription {
    /// Creates a description.
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> Self {
        ServiceDescription { name: name.into(), text: text.into(), facets: BTreeMap::new() }
    }

    /// Adds a faceted keyphrase.
    pub fn with_facet(mut self, facet: impl Into<String>, term: impl Into<String>) -> Self {
        self.facets.entry(facet.into()).or_default().push(term.into());
        self
    }
}

/// Precision/recall of one retrieval run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RetrievalScores {
    /// Fraction of retrieved items that were relevant.
    pub precision: f64,
    /// Fraction of relevant items that were retrieved.
    pub recall: f64,
}

impl RetrievalScores {
    /// Computes scores given retrieved and relevant name sets.
    pub fn compute(retrieved: &BTreeSet<String>, relevant: &BTreeSet<String>) -> Self {
        let hit = retrieved.intersection(relevant).count() as f64;
        RetrievalScores {
            precision: if retrieved.is_empty() { 1.0 } else { hit / retrieved.len() as f64 },
            recall: if relevant.is_empty() { 1.0 } else { hit / relevant.len() as f64 },
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            0.0
        } else {
            2.0 * self.precision * self.recall / (self.precision + self.recall)
        }
    }
}

fn tokens(s: &str) -> BTreeSet<String> {
    s.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() > 2)
        .map(str::to_string)
        .collect()
}

/// Text-based matching: token overlap with the prose description.
/// "A textual representation does not guarantee sufficient information
/// for the classification and in fact could be misleading."
#[derive(Debug, Clone, Default)]
pub struct TextMatcher;

impl TextMatcher {
    /// Retrieves descriptions whose prose shares at least one
    /// non-trivial token with the query.
    pub fn retrieve(&self, query: &str, corpus: &[ServiceDescription]) -> BTreeSet<String> {
        let q = tokens(query);
        corpus.iter().filter(|d| !q.is_disjoint(&tokens(&d.text))).map(|d| d.name.clone()).collect()
    }
}

/// Lexical-descriptor matching over multi-faceted classifications,
/// expanded through the ontology.
#[derive(Debug, Clone)]
pub struct LexicalMatcher {
    ontology: Ontology,
}

impl LexicalMatcher {
    /// Creates a matcher over the given vocabulary.
    pub fn new(ontology: Ontology) -> Self {
        LexicalMatcher { ontology }
    }

    /// Retrieves descriptions carrying a facet term that *is-a* the query
    /// term in the requested facet.
    pub fn retrieve(
        &self,
        facet: &str,
        term: &str,
        corpus: &[ServiceDescription],
    ) -> BTreeSet<String> {
        corpus
            .iter()
            .filter(|d| {
                d.facets.get(facet).is_some_and(|ts| ts.iter().any(|t| self.ontology.is_a(t, term)))
            })
            .map(|d| d.name.clone())
            .collect()
    }
}

/// Specification-based matching: a conjunction of exact facet
/// requirements, "whose semantics define the classification and
/// retrieval scheme".
#[derive(Debug, Clone, Default)]
pub struct SpecMatcher {
    requirements: Vec<(String, String)>,
}

impl SpecMatcher {
    /// Creates an empty specification.
    pub fn new() -> Self {
        SpecMatcher::default()
    }

    /// Requires `facet` to contain exactly `term`.
    pub fn require(mut self, facet: impl Into<String>, term: impl Into<String>) -> Self {
        self.requirements.push((facet.into(), term.into()));
        self
    }

    /// Retrieves descriptions satisfying every requirement.
    pub fn retrieve(&self, corpus: &[ServiceDescription]) -> BTreeSet<String> {
        corpus
            .iter()
            .filter(|d| {
                self.requirements.iter().all(|(facet, term)| {
                    d.facets.get(facet).is_some_and(|ts| ts.iter().any(|t| t == term))
                })
            })
            .map(|d| d.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<ServiceDescription> {
        vec![
            ServiceDescription::new(
                "janettas",
                "Janetta's sells award winning gelato on Market Street",
            )
            .with_facet("offers", "gelato")
            .with_facet("area", "st andrews"),
            ServiceDescription::new(
                "icy-vans",
                "Mobile vans selling ice cream across Fife in the summer",
            )
            .with_facet("offers", "ice cream")
            .with_facet("area", "fife"),
            ServiceDescription::new(
                "screen-repair",
                "We repair cracked ice-damaged phone screens and sell cream cases",
            )
            .with_facet("offers", "phone repair")
            .with_facet("area", "st andrews"),
            ServiceDescription::new("brew-bar", "Espresso bar with single origin beans")
                .with_facet("offers", "espresso")
                .with_facet("area", "st andrews"),
        ]
    }

    #[test]
    fn is_a_transitivity() {
        let o = Ontology::food_and_context();
        assert!(o.is_a("gelato", "ice cream"));
        assert!(o.is_a("gelato", "dessert"));
        assert!(o.is_a("gelato", "food"));
        assert!(o.is_a("gelato", "gelato"));
        assert!(!o.is_a("ice cream", "gelato"), "is-a is directional");
        assert!(!o.is_a("espresso", "dessert"));
    }

    #[test]
    fn expand_includes_all_broader_terms() {
        let o = Ontology::food_and_context();
        let e = o.expand("gelato");
        for t in ["gelato", "ice cream", "dessert", "food"] {
            assert!(e.contains(t), "missing {t}");
        }
        assert!(!e.contains("coffee"));
    }

    #[test]
    fn text_matching_is_misleading() {
        // The paper's criticism in action: "ice" and "cream" tokens pull
        // in the phone repair shop.
        let retrieved = TextMatcher.retrieve("ice cream", &corpus());
        assert!(retrieved.contains("icy-vans"));
        assert!(
            retrieved.contains("screen-repair"),
            "text matcher should be fooled by token overlap"
        );
        // And it misses the gelato shop entirely (no shared token).
        assert!(!retrieved.contains("janettas"));
    }

    #[test]
    fn lexical_matching_uses_the_ontology() {
        let m = LexicalMatcher::new(Ontology::food_and_context());
        let retrieved = m.retrieve("offers", "ice cream", &corpus());
        assert!(retrieved.contains("janettas"), "gelato is-a ice cream");
        assert!(retrieved.contains("icy-vans"));
        assert!(!retrieved.contains("screen-repair"));
        assert!(!retrieved.contains("brew-bar"));
    }

    #[test]
    fn spec_matching_is_exact_conjunction() {
        let spec = SpecMatcher::new().require("offers", "gelato").require("area", "st andrews");
        let retrieved = spec.retrieve(&corpus());
        assert_eq!(retrieved.len(), 1);
        assert!(retrieved.contains("janettas"));
        // Exactness cuts recall: "ice cream" spec does not know gelato.
        let spec = SpecMatcher::new().require("offers", "ice cream");
        let retrieved = spec.retrieve(&corpus());
        assert!(!retrieved.contains("janettas"));
        assert!(retrieved.contains("icy-vans"));
    }

    #[test]
    fn precision_recall_computation() {
        let relevant: BTreeSet<String> =
            ["janettas", "icy-vans"].iter().map(|s| s.to_string()).collect();
        let m = LexicalMatcher::new(Ontology::food_and_context());
        let lexical =
            RetrievalScores::compute(&m.retrieve("offers", "ice cream", &corpus()), &relevant);
        assert_eq!(lexical.precision, 1.0);
        assert_eq!(lexical.recall, 1.0);
        let text =
            RetrievalScores::compute(&TextMatcher.retrieve("ice cream", &corpus()), &relevant);
        assert!(text.precision < 1.0, "text matcher retrieves junk");
        assert!(text.recall < 1.0, "text matcher misses the gelato shop");
        assert!(lexical.f1() > text.f1());
    }

    #[test]
    fn empty_sets_score_sanely() {
        let empty = BTreeSet::new();
        let s = RetrievalScores::compute(&empty, &empty);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.f1(), 1.0);
        let some: BTreeSet<String> = ["x".to_string()].into_iter().collect();
        let s = RetrievalScores::compute(&empty, &some);
        assert_eq!(s.f1(), 0.0);
    }
}
