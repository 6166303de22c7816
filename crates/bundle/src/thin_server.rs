//! The thin server: verification, capability checks, installation into a
//! security domain, and the per-server object store.

use crate::bundle::{Bundle, BundleError, Code, Manifest};
use crate::capability::Capability;
use crate::verify::AuthKey;
use gloss_event::Event;
use gloss_knowledge::FactSource;
use gloss_matchlet::{parse_rules, MatchletEngine, Rule};
use gloss_sim::SimTime;
use gloss_xml::Element;
use std::collections::{BTreeMap, BTreeSet};

/// What an accepted installation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstallReport {
    /// The bundle name.
    pub name: String,
    /// The installed version.
    pub version: u64,
    /// Matchlet rules added.
    pub rules_added: usize,
    /// Data objects stored.
    pub objects_stored: usize,
    /// The component kind requested, if the bundle was a component.
    pub component_kind: Option<String>,
    /// Warning-level static analysis findings (errors reject the bundle).
    pub lint_warnings: usize,
}

#[derive(Debug, Clone)]
struct Installed {
    manifest: Manifest,
    rules: Vec<Rule>,
    /// Whether `rules` are loaded into the engine (not standing by).
    loaded: bool,
    object_names: Vec<String>,
}

/// A Cingal thin server: accepts bundles, verifies and authorises them,
/// hosts the installed matchlets, and keeps an object store.
///
/// A component bundle installs as a record of its manifest and data
/// objects; nothing runs the component, and the install report names its
/// kind ([`InstallReport::component_kind`]).
///
/// A matchlet bundle's rules are loaded into the engine when it installs.
/// A bundle can stand by ([`standby`](Self::standby)): it stays installed,
/// verified and parsed, but its rules leave the engine, so they see,
/// keep and fire nothing until [`promote`](Self::promote) loads them
/// again with empty windows. What they missed meanwhile is the host's to
/// replay ([`MatchletEngine::replay`]).
#[derive(Debug, Default)]
pub struct ThinServer {
    name: String,
    trusted: BTreeMap<String, AuthKey>,
    grants: BTreeMap<String, BTreeSet<Capability>>,
    engine: MatchletEngine,
    installed: BTreeMap<String, Installed>,
    objects: BTreeMap<String, Element>,
    /// Rejected packets, by reason (for the security experiments).
    pub rejections: u64,
}

impl ThinServer {
    /// Creates a thin server named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ThinServer { name: name.into(), ..Default::default() }
    }

    /// The server name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Trusts an issuer's key.
    pub fn trust(&mut self, key: AuthKey) {
        self.trusted.insert(key.issuer().to_string(), key);
    }

    /// Grants a capability to an issuer.
    pub fn grant(&mut self, issuer: impl Into<String>, cap: Capability) {
        self.grants.entry(issuer.into()).or_default().insert(cap);
    }

    /// Revokes a capability.
    pub fn revoke(&mut self, issuer: &str, cap: Capability) {
        if let Some(set) = self.grants.get_mut(issuer) {
            set.remove(&cap);
        }
    }

    /// The hosted matchlet engine.
    pub fn engine(&self) -> &MatchletEngine {
        &self.engine
    }

    /// Offers an event that arrived at `at` to the hosted matchlets, which
    /// fire only if `at` is at or after `since` ([`MatchletEngine::replay`];
    /// a live event passes [`SimTime::ZERO`]).
    pub fn match_event(
        &mut self,
        at: SimTime,
        event: &Event,
        since: SimTime,
        kb: &dyn FactSource,
    ) -> Vec<Event> {
        self.engine.replay(at, event, since, kb)
    }

    /// Unloads the matchlet rules of the installed bundle `name` from the
    /// engine: they stand by. Returns whether the bundle is installed.
    pub fn standby(&mut self, name: &str) -> bool {
        let Some(installed) = self.installed.get_mut(name) else {
            return false;
        };
        if std::mem::take(&mut installed.loaded) {
            for rule in &installed.rules {
                self.engine.remove_rule(&rule.name);
            }
        }
        true
    }

    /// Loads the standing-by rules of the installed bundle `name` into the
    /// engine, with empty windows. Returns whether the bundle is installed.
    pub fn promote(&mut self, name: &str) -> bool {
        let Some(installed) = self.installed.get_mut(name) else {
            return false;
        };
        if !std::mem::replace(&mut installed.loaded, true) {
            for rule in &installed.rules {
                self.engine.add_rule(rule.clone());
            }
        }
        true
    }

    /// Reads an object from the store.
    pub fn object(&self, name: &str) -> Option<&Element> {
        self.objects.get(name)
    }

    /// Names of all stored objects.
    pub fn object_names(&self) -> Vec<&str> {
        self.objects.keys().map(String::as_str).collect()
    }

    /// Names of installed bundles.
    pub fn installed_names(&self) -> Vec<&str> {
        self.installed.keys().map(String::as_str).collect()
    }

    /// Receives, verifies, authorises, and installs one packet.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError`] describing the first check that failed;
    /// the server state is unchanged on error.
    pub fn receive_packet(&mut self, packet: &str) -> Result<InstallReport, BundleError> {
        let result = self.try_install(packet);
        if result.is_err() {
            self.rejections += 1;
        }
        result
    }

    fn try_install(&mut self, packet: &str) -> Result<InstallReport, BundleError> {
        // Authentication: the issuer named in the packet must be trusted
        // and the tag must verify under that issuer's key.
        let (bundle, digest, tag) = Bundle::from_packet_unverified(packet)?;
        let issuer = bundle.manifest.issuer.clone();
        let key = self
            .trusted
            .get(&issuer)
            .ok_or_else(|| BundleError::AuthenticationFailure(issuer.clone()))?;
        if key.tag(digest) != tag {
            return Err(BundleError::AuthenticationFailure(issuer));
        }
        // Capability check.
        let granted = self.grants.get(&issuer).cloned().unwrap_or_default();
        for cap in bundle.required_capabilities() {
            if !granted.contains(&cap) {
                return Err(BundleError::CapabilityDenied { issuer, missing: cap });
            }
        }
        // Version check.
        if let Some(existing) = self.installed.get(&bundle.manifest.name) {
            if existing.manifest.version >= bundle.manifest.version {
                return Err(BundleError::StaleVersion {
                    name: bundle.manifest.name.clone(),
                    installed: existing.manifest.version,
                    offered: bundle.manifest.version,
                });
            }
        }
        // Validate code before mutating anything.
        let mut rules = Vec::new();
        let mut component_kind = None;
        let mut lint_warnings = 0;
        match &bundle.code {
            Code::Matchlet { source } => {
                rules = parse_rules(source).map_err(|e| BundleError::BadMatchlet(e.to_string()))?;
                // Static analysis gate: error-level findings (unbound
                // variables, never-true conditions, duplicate rules)
                // prove the matchlet defective — reject it before it
                // reaches the engine. Warnings install but are counted.
                let analysis = gloss_analysis::analyze_rules(&rules);
                if analysis.has_errors() {
                    return Err(BundleError::RejectedByAnalysis(analysis.error_summary()));
                }
                lint_warnings = analysis.warning_count();
            }
            Code::Component { kind, .. } => {
                component_kind = Some(kind.clone());
            }
        }

        // Install: replace a previous version cleanly.
        if let Some(prev) = self.installed.remove(&bundle.manifest.name) {
            for r in prev.rules.iter().filter(|_| prev.loaded) {
                self.engine.remove_rule(&r.name);
            }
            for o in &prev.object_names {
                self.objects.remove(o);
            }
        }
        // The rules parsed and analysed above, in source order.
        for rule in &rules {
            self.engine.add_rule(rule.clone());
        }
        let mut object_names = Vec::new();
        for (name, value) in &bundle.data {
            self.objects.insert(name.clone(), value.clone());
            object_names.push(name.clone());
        }
        let report = InstallReport {
            name: bundle.manifest.name.clone(),
            version: bundle.manifest.version,
            rules_added: rules.len(),
            objects_stored: object_names.len(),
            component_kind,
            lint_warnings,
        };
        self.installed.insert(
            bundle.manifest.name.clone(),
            Installed { manifest: bundle.manifest, rules, loaded: true, object_names },
        );
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_knowledge::InMemoryFacts;
    use gloss_xml::parse;

    const RULE: &str =
        r#"rule hot { on w: event weather(c: ?c) where ?c > 18.0 emit alert(c: ?c) }"#;

    fn key() -> AuthKey {
        AuthKey::new("tenant", b"k1")
    }

    fn ready_server() -> ThinServer {
        let mut s = ThinServer::new("node-1");
        s.trust(key());
        s.grant("tenant", Capability::DeployMatchlet);
        s.grant("tenant", Capability::DeployComponent);
        s.grant("tenant", Capability::StoreAccess);
        s
    }

    fn matchlet_packet() -> String {
        Bundle::matchlet("hot-alert", RULE).issued_by("tenant").to_packet(&key())
    }

    #[test]
    fn install_runs_matchlets() {
        let mut s = ready_server();
        let report = s.receive_packet(&matchlet_packet()).unwrap();
        assert_eq!(report.rules_added, 1);
        assert!(s.engine().handles_kind("weather"));
        let out = s.match_event(
            SimTime::ZERO,
            &Event::new("weather").with_attr("c", 25.0),
            SimTime::ZERO,
            &InMemoryFacts::new(),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind(), "alert");
    }

    #[test]
    fn untrusted_issuer_rejected() {
        let mut s = ThinServer::new("node-1");
        // No trust established.
        let err = s.receive_packet(&matchlet_packet()).unwrap_err();
        assert!(matches!(err, BundleError::AuthenticationFailure(_)));
        assert_eq!(s.rejections, 1);
    }

    #[test]
    fn forged_tag_rejected() {
        let mut s = ready_server();
        // Packet sealed with a different secret for the same issuer name.
        let forged = Bundle::matchlet("hot-alert", RULE)
            .issued_by("tenant")
            .to_packet(&AuthKey::new("tenant", b"stolen-name"));
        assert!(matches!(s.receive_packet(&forged), Err(BundleError::AuthenticationFailure(_))));
    }

    #[test]
    fn missing_capability_rejected() {
        let mut s = ThinServer::new("node-1");
        s.trust(key());
        // Only component rights, but the bundle is a matchlet.
        s.grant("tenant", Capability::DeployComponent);
        let err = s.receive_packet(&matchlet_packet()).unwrap_err();
        assert!(matches!(
            err,
            BundleError::CapabilityDenied { missing: Capability::DeployMatchlet, .. }
        ));
        // Granting fixes it.
        s.grant("tenant", Capability::DeployMatchlet);
        assert!(s.receive_packet(&matchlet_packet()).is_ok());
    }

    #[test]
    fn revoke_takes_effect() {
        let mut s = ready_server();
        s.revoke("tenant", Capability::DeployMatchlet);
        assert!(s.receive_packet(&matchlet_packet()).is_err());
    }

    #[test]
    fn version_upgrade_replaces_rules() {
        let mut s = ready_server();
        s.receive_packet(&matchlet_packet()).unwrap();
        // Same version again: stale.
        assert!(matches!(
            s.receive_packet(&matchlet_packet()),
            Err(BundleError::StaleVersion { .. })
        ));
        // Version 2 with a different rule replaces the old one.
        let v2 = Bundle::matchlet(
            "hot-alert",
            r#"rule cold { on w: event weather(c: ?c) where ?c < 5.0 emit brr() }"#,
        )
        .issued_by("tenant")
        .with_version(2)
        .to_packet(&key());
        let report = s.receive_packet(&v2).unwrap();
        assert_eq!(report.version, 2);
        assert_eq!(s.engine().rule_names(), vec!["cold"]);
    }

    #[test]
    fn bad_matchlet_source_rejected_cleanly() {
        let mut s = ready_server();
        let bad = Bundle::matchlet("oops", "rule { broken").issued_by("tenant").to_packet(&key());
        assert!(matches!(s.receive_packet(&bad), Err(BundleError::BadMatchlet(_))));
        assert!(s.installed_names().is_empty());
        assert!(s.engine().rule_names().is_empty());
    }

    #[test]
    fn analysis_gate_rejects_unbound_emit_variable() {
        let mut s = ready_server();
        // Compiles fine, but `?ghost` is read by the emit and bound by
        // nothing: every firing would raise an eval error at run time.
        let bad = Bundle::matchlet(
            "ghost",
            r#"rule ghost { on w: event weather(c: ?c) emit alert(c: ?c, x: ?ghost) }"#,
        )
        .issued_by("tenant")
        .to_packet(&key());
        let err = s.receive_packet(&bad).unwrap_err();
        match err {
            BundleError::RejectedByAnalysis(reason) => {
                assert!(reason.contains("?ghost"), "{reason}");
            }
            other => panic!("expected analysis rejection, got {other}"),
        }
        // Nothing was installed and the rejection was counted.
        assert!(s.installed_names().is_empty());
        assert!(s.engine().rule_names().is_empty());
        assert_eq!(s.rejections, 1);
    }

    #[test]
    fn analysis_warnings_install_and_are_counted() {
        let mut s = ready_server();
        // `?street` is bound but never read: a warning, not an error.
        let sloppy = Bundle::matchlet(
            "sloppy",
            r#"rule sloppy {
                on w: event weather(c: ?c, street: ?street)
                where ?c > 18.0
                emit alert(c: ?c)
            }"#,
        )
        .issued_by("tenant")
        .to_packet(&key());
        let report = s.receive_packet(&sloppy).unwrap();
        assert_eq!(report.rules_added, 1);
        assert_eq!(report.lint_warnings, 1);
        assert_eq!(s.engine().rule_names(), vec!["sloppy"]);
        // A clean bundle reports zero warnings.
        let clean = s.receive_packet(&matchlet_packet()).unwrap();
        assert_eq!(clean.lint_warnings, 0);
    }

    #[test]
    fn data_objects_land_in_store() {
        let mut s = ready_server();
        let packet = Bundle::matchlet("with-data", RULE)
            .issued_by("tenant")
            .with_data("config/regions", parse("<regions><r>scotland</r></regions>").unwrap())
            .to_packet(&key());
        let report = s.receive_packet(&packet).unwrap();
        assert_eq!(report.objects_stored, 1);
        assert_eq!(s.object("config/regions").unwrap().children().count(), 1);
    }

    #[test]
    fn component_bundles_install_and_report_their_kind() {
        let mut s = ready_server();
        let packet =
            Bundle::component("thresh", "filter.threshold", parse(r#"<cfg min="50"/>"#).unwrap())
                .issued_by("tenant")
                .to_packet(&key());
        let report = s.receive_packet(&packet).unwrap();
        assert_eq!(report.component_kind.as_deref(), Some("filter.threshold"));
        assert_eq!(report.rules_added, 0);
        assert_eq!(s.installed_names(), ["thresh"]);
        assert!(s.engine().rules().is_empty());
    }

    #[test]
    fn store_access_needed_for_data() {
        let mut s = ThinServer::new("node-1");
        s.trust(key());
        s.grant("tenant", Capability::DeployMatchlet);
        let packet = Bundle::matchlet("with-data", RULE)
            .issued_by("tenant")
            .with_data("x", Element::new("y"))
            .to_packet(&key());
        assert!(matches!(
            s.receive_packet(&packet),
            Err(BundleError::CapabilityDenied { missing: Capability::StoreAccess, .. })
        ));
    }
}
