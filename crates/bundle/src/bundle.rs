//! Bundles: code and data wrapped in XML packets.

use crate::capability::Capability;
use crate::verify::{self, AuthKey};
use gloss_xml::{Element, ParseError};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// The code carried by a bundle.
#[derive(Debug, Clone, PartialEq)]
pub enum Code {
    /// A matchlet program (hot-deployable matching logic).
    Matchlet {
        /// The rule source text.
        source: String,
    },
    /// A pipeline component: a registered kind plus its XML configuration.
    Component {
        /// The component kind: a name `gloss_pipeline`'s `Registry` builds from.
        kind: String,
        /// Kind-specific configuration.
        config: Element,
    },
}

impl Code {
    /// The capability required to install this code.
    pub fn required_capability(&self) -> Capability {
        match self {
            Code::Matchlet { .. } => Capability::DeployMatchlet,
            Code::Component { .. } => Capability::DeployComponent,
        }
    }
}

/// Bundle metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Unique bundle name (also the installation key).
    pub name: String,
    /// Monotonic version; installs replace older versions only.
    pub version: u64,
    /// The issuing principal (must be trusted by the receiving server).
    pub issuer: String,
}

/// A deployable unit: manifest + code + named XML data objects.
#[derive(Debug, Clone, PartialEq)]
pub struct Bundle {
    /// Metadata.
    pub manifest: Manifest,
    /// The code.
    pub code: Code,
    /// Data objects imported into the server's object store on install.
    pub data: Vec<(String, Element)>,
}

/// A bundle handling failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BundleError {
    /// The packet was not well-formed XML.
    Malformed(String),
    /// Integrity digest mismatch (corrupted in transit).
    IntegrityFailure,
    /// Unknown issuer or bad authentication tag.
    AuthenticationFailure(String),
    /// The issuer lacks a required capability.
    CapabilityDenied {
        /// The issuer.
        issuer: String,
        /// What was missing.
        missing: Capability,
    },
    /// The matchlet source failed to compile.
    BadMatchlet(String),
    /// The matchlet compiled but static analysis proved it defective
    /// (unbound variables, never-true conditions, duplicate rules, ...).
    RejectedByAnalysis(String),
    /// An installed bundle with the same name has an equal or newer
    /// version.
    StaleVersion {
        /// The bundle name.
        name: String,
        /// The installed version.
        installed: u64,
        /// The offered version.
        offered: u64,
    },
}

impl fmt::Display for BundleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BundleError::Malformed(m) => write!(f, "malformed bundle packet: {m}"),
            BundleError::IntegrityFailure => write!(f, "bundle integrity digest mismatch"),
            BundleError::AuthenticationFailure(who) => {
                write!(f, "bundle authentication failed for issuer `{who}`")
            }
            BundleError::CapabilityDenied { issuer, missing } => {
                write!(f, "issuer `{issuer}` lacks capability {missing}")
            }
            BundleError::BadMatchlet(e) => write!(f, "matchlet compile error: {e}"),
            BundleError::RejectedByAnalysis(e) => {
                write!(f, "matchlet rejected by static analysis: {e}")
            }
            BundleError::StaleVersion { name, installed, offered } => {
                write!(f, "bundle `{name}` v{offered} is not newer than installed v{installed}")
            }
        }
    }
}

impl Error for BundleError {}

impl From<ParseError> for BundleError {
    fn from(e: ParseError) -> Self {
        BundleError::Malformed(e.to_string())
    }
}

impl Bundle {
    /// Creates a matchlet bundle (issuer defaults to `"system"`, version
    /// 1; adjust via the fields).
    pub fn matchlet(name: impl Into<String>, source: impl Into<String>) -> Self {
        Bundle {
            manifest: Manifest { name: name.into(), version: 1, issuer: "system".into() },
            code: Code::Matchlet { source: source.into() },
            data: Vec::new(),
        }
    }

    /// Creates a component bundle.
    pub fn component(name: impl Into<String>, kind: impl Into<String>, config: Element) -> Self {
        Bundle {
            manifest: Manifest { name: name.into(), version: 1, issuer: "system".into() },
            code: Code::Component { kind: kind.into(), config },
            data: Vec::new(),
        }
    }

    /// Sets the issuer.
    pub fn issued_by(mut self, issuer: impl Into<String>) -> Self {
        self.manifest.issuer = issuer.into();
        self
    }

    /// Sets the version.
    #[cfg(test)]
    pub(crate) fn with_version(mut self, version: u64) -> Self {
        self.manifest.version = version;
        self
    }

    /// Attaches a named data object.
    pub fn with_data(mut self, name: impl Into<String>, value: Element) -> Self {
        self.data.push((name.into(), value));
        self
    }

    /// Capabilities this bundle needs on the receiving server.
    pub fn required_capabilities(&self) -> BTreeSet<Capability> {
        let mut caps = BTreeSet::new();
        caps.insert(self.code.required_capability());
        if !self.data.is_empty() {
            caps.insert(Capability::StoreAccess);
        }
        caps
    }

    /// The body element (everything that is integrity-protected).
    fn body_xml(&self) -> Element {
        let mut body = Element::new("body")
            .with_attr("name", &self.manifest.name)
            .with_attr("version", self.manifest.version.to_string())
            .with_attr("issuer", &self.manifest.issuer);
        match &self.code {
            Code::Matchlet { source } => {
                body.push(Element::new("matchlet").with_text(source.clone()));
            }
            Code::Component { kind, config } => {
                body.push(
                    Element::new("component").with_attr("kind", kind).with_child(config.clone()),
                );
            }
        }
        for (name, value) in &self.data {
            body.push(Element::new("object").with_attr("name", name).with_child(value.clone()));
        }
        body
    }

    /// Serialises and seals the bundle into its XML wire packet:
    /// the body plus an integrity digest and an authentication tag
    /// computed with `key`.
    pub fn to_packet(&self, key: &AuthKey) -> String {
        let body = self.body_xml();
        let body_text = body.to_xml();
        let digest = verify::digest(body_text.as_bytes());
        let tag = key.tag(digest);
        Element::new("bundle")
            .with_attr("digest", format!("{digest:032x}"))
            .with_attr("tag", format!("{tag:032x}"))
            .with_child(body)
            .to_xml()
    }

    /// Parses a packet *without* verifying it (used by the verifier).
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::Malformed`] on structural problems.
    pub fn from_packet_unverified(packet: &str) -> Result<(Bundle, u128, u128), BundleError> {
        let root = gloss_xml::parse(packet)?;
        if root.name() != "bundle" {
            return Err(BundleError::Malformed("root element must be <bundle>".into()));
        }
        let digest = u128::from_str_radix(root.attr("digest").unwrap_or(""), 16)
            .map_err(|_| BundleError::Malformed("bad digest attribute".into()))?;
        let tag = u128::from_str_radix(root.attr("tag").unwrap_or(""), 16)
            .map_err(|_| BundleError::Malformed("bad tag attribute".into()))?;
        let body =
            root.child("body").ok_or_else(|| BundleError::Malformed("missing <body>".into()))?;
        let manifest = Manifest {
            name: body
                .attr("name")
                .ok_or_else(|| BundleError::Malformed("missing bundle name".into()))?
                .to_string(),
            version: body
                .attr("version")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| BundleError::Malformed("missing/bad version".into()))?,
            issuer: body
                .attr("issuer")
                .ok_or_else(|| BundleError::Malformed("missing issuer".into()))?
                .to_string(),
        };
        let code = if let Some(m) = body.child("matchlet") {
            Code::Matchlet { source: m.text() }
        } else if let Some(c) = body.child("component") {
            let kind = c
                .attr("kind")
                .ok_or_else(|| BundleError::Malformed("component without kind".into()))?
                .to_string();
            let config = c.children().next().cloned().unwrap_or_else(|| Element::new("config"));
            Code::Component { kind, config }
        } else {
            return Err(BundleError::Malformed("bundle carries no code".into()));
        };
        let mut data = Vec::new();
        for obj in body.children_named("object") {
            let name = obj
                .attr("name")
                .ok_or_else(|| BundleError::Malformed("object without name".into()))?;
            let value = obj
                .children()
                .next()
                .cloned()
                .ok_or_else(|| BundleError::Malformed("object without content".into()))?;
            data.push((name.to_string(), value));
        }
        // Recompute the digest over the *re-serialised* body; any
        // tampering with the packet body shows up here.
        let body_digest = verify::digest(body.to_xml().as_bytes());
        if body_digest != digest {
            return Err(BundleError::IntegrityFailure);
        }
        Ok((Bundle { manifest, code, data }, digest, tag))
    }

    /// Parses and authenticates a packet with `key`.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError`] on malformed packets, integrity failures,
    /// or bad authentication tags.
    pub fn from_packet(packet: &str, key: &AuthKey) -> Result<Bundle, BundleError> {
        let (bundle, digest, tag) = Self::from_packet_unverified(packet)?;
        if key.tag(digest) != tag {
            return Err(BundleError::AuthenticationFailure(bundle.manifest.issuer));
        }
        Ok(bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_xml::parse;

    fn key() -> AuthKey {
        AuthKey::new("system", b"secret")
    }

    fn sample() -> Bundle {
        Bundle::matchlet("greet", "rule g { on a: event hello() emit hi() }")
            .with_version(3)
            .with_data("welcome", parse("<msg>hello</msg>").unwrap())
    }

    #[test]
    fn packet_round_trip() {
        let b = sample();
        let packet = b.to_packet(&key());
        let back = Bundle::from_packet(&packet, &key()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn component_bundle_round_trip() {
        let b = Bundle::component(
            "thresholder",
            "filter.threshold",
            parse(r#"<cfg attr="distance" min="50"/>"#).unwrap(),
        )
        .issued_by("ops");
        let packet = b.to_packet(&key());
        let back = Bundle::from_packet(&packet, &key()).unwrap();
        assert_eq!(back.manifest.issuer, "ops");
        match &back.code {
            Code::Component { kind, config } => {
                assert_eq!(kind, "filter.threshold");
                assert_eq!(config.attr("min"), Some("50"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tampered_body_fails_integrity() {
        let packet = sample().to_packet(&key());
        let tampered = packet.replace("version=\"3\"", "version=\"4\"");
        assert_eq!(Bundle::from_packet(&tampered, &key()), Err(BundleError::IntegrityFailure));
    }

    #[test]
    fn wrong_key_fails_authentication() {
        let packet = sample().to_packet(&key());
        let other = AuthKey::new("system", b"different");
        assert!(matches!(
            Bundle::from_packet(&packet, &other),
            Err(BundleError::AuthenticationFailure(_))
        ));
    }

    #[test]
    fn malformed_packets_rejected() {
        assert!(matches!(
            Bundle::from_packet("<notabundle/>", &key()),
            Err(BundleError::Malformed(_))
        ));
        assert!(matches!(
            Bundle::from_packet("<bundle digest=\"zz\" tag=\"0\"><body/></bundle>", &key()),
            Err(BundleError::Malformed(_))
        ));
        assert!(Bundle::from_packet("not xml at all", &key()).is_err());
        // A body with no code.
        let no_code = Element::new("bundle")
            .with_attr("digest", "0")
            .with_attr("tag", "0")
            .with_child(
                Element::new("body")
                    .with_attr("name", "x")
                    .with_attr("version", "1")
                    .with_attr("issuer", "i"),
            )
            .to_xml();
        assert!(matches!(Bundle::from_packet(&no_code, &key()), Err(BundleError::Malformed(_))));
    }

    #[test]
    fn required_capabilities() {
        let m = Bundle::matchlet("a", "x");
        assert!(m.required_capabilities().contains(&Capability::DeployMatchlet));
        assert!(!m.required_capabilities().contains(&Capability::StoreAccess));
        let with_data = sample();
        assert!(with_data.required_capabilities().contains(&Capability::StoreAccess));
        let c = Bundle::component("b", "k", Element::new("cfg"));
        assert!(c.required_capabilities().contains(&Capability::DeployComponent));
    }

    #[test]
    fn matchlet_source_survives_escaping() {
        // Rule sources contain quotes and comparison operators, which
        // must survive XML escaping.
        let src = r#"rule r { on a: event k(s: "x & <y>") where ?t >= 2 emit o() }"#;
        let b = Bundle::matchlet("escapes", src);
        let back = Bundle::from_packet(&b.to_packet(&key()), &key()).unwrap();
        match back.code {
            Code::Matchlet { source } => assert_eq!(source, src),
            other => panic!("unexpected {other:?}"),
        }
    }
}
