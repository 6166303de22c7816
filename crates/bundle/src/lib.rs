//! Cingal-style code push (§3, §4.3): "bundles of code and data wrapped in
//! XML packets to be deployed and run on a thin server. On arrival at a
//! thin server, and subject to verification and security checks, the code
//! may be executed within a security domain. Each thin server provides
//! the necessary infrastructure for code deployment, authentication of
//! bundles, a capability-based protection system and an object store."
//!
//! * [`Bundle`] — a manifest, *code* (a matchlet program or a component
//!   kind + configuration), and XML data objects; wire form is one XML
//!   packet ([`Bundle::to_packet`], [`Bundle::from_packet`]).
//! * [`verify`] — integrity digests and keyed authentication tags (hash
//!   constructions standing in for real cryptography).
//! * [`Capability`]-based protection — bundles name the capabilities they
//!   need; thin servers check them against per-issuer grants.
//! * [`ThinServer`] — installs verified bundles into a security domain:
//!   matchlet programs are hot-added to the server's
//!   [`MatchletEngine`](gloss_matchlet::MatchletEngine), data objects land
//!   in the per-server object store.
//!
//! # Example
//!
//! ```
//! use gloss_bundle::{AuthKey, Bundle, Capability, Code, ThinServer};
//!
//! let key = AuthKey::new("tenant-a", b"shared-secret");
//! let bundle = Bundle::matchlet(
//!     "hot-alert",
//!     r#"rule hot { on w: event weather(c: ?c) where ?c > 18.0 emit alert(c: ?c) }"#,
//! )
//! .issued_by("tenant-a");
//! let packet = bundle.to_packet(&key);
//!
//! let mut server = ThinServer::new("node-1");
//! server.trust(key.clone());
//! server.grant("tenant-a", Capability::DeployMatchlet);
//! server.receive_packet(&packet)?;
//! assert!(server.engine().handles_kind("weather"));
//! # Ok::<(), gloss_bundle::BundleError>(())
//! ```

pub mod bundle;
pub mod capability;
pub mod thin_server;
pub mod verify;

pub use bundle::{Bundle, BundleError, Code, Manifest};
pub use capability::Capability;
pub use thin_server::{InstallReport, ThinServer};
pub use verify::AuthKey;
