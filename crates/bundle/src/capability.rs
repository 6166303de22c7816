//! Capability-based protection for thin servers.

use std::fmt;

/// A right that a bundle may require and an issuer may hold on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Capability {
    /// Install matchlet programs.
    DeployMatchlet,
    /// Install pipeline components.
    DeployComponent,
    /// Write objects into the server's object store.
    StoreAccess,
}

impl fmt::Display for Capability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Capability::DeployMatchlet => "deploy-matchlet",
            Capability::DeployComponent => "deploy-component",
            Capability::StoreAccess => "store-access",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_each_capability() {
        let names =
            [Capability::DeployMatchlet, Capability::DeployComponent, Capability::StoreAccess]
                .map(|c| c.to_string());
        assert_eq!(names, ["deploy-matchlet", "deploy-component", "store-access"]);
    }
}
