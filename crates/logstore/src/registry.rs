//! Interned identifiers for log sources, users and hosts.
//!
//! Mining runs touch millions of records; comparing interned `u32` ids is
//! what keeps bigram extraction and pair statistics cheap. The registry
//! is the single authority mapping names (e.g. `"DPIFormidoc"`) to ids
//! and back.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index value.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Identifier of a log source (an application or module).
    SourceId
);
id_newtype!(
    /// Identifier of a user.
    UserId
);
id_newtype!(
    /// Identifier of a client machine.
    HostId
);

/// A bidirectional name ↔ dense-index map: the names in interning
/// order, and one map from each name (looked up by `&str`) to its index.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    lookup: HashMap<String, u32>,
}

impl Interner {
    /// Interns `name`, returning its dense index.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.lookup.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.lookup.insert(name.to_owned(), id);
        id
    }

    /// Looks a name up without interning.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.lookup.get(name).copied()
    }

    /// Resolves an index back to the name.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(index, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }
}

/// Registries for the three id spaces of a log stream.
#[derive(Debug, Clone, Default)]
pub struct NameRegistry {
    /// Source (application) names.
    pub sources: Interner,
    /// User names.
    pub users: Interner,
    /// Client machine names.
    pub hosts: Interner,
}

impl NameRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a source name.
    pub fn source(&mut self, name: &str) -> SourceId {
        SourceId(self.sources.intern(name))
    }

    /// Interns a user name.
    pub fn user(&mut self, name: &str) -> UserId {
        UserId(self.users.intern(name))
    }

    /// Interns a host name.
    pub fn host(&mut self, name: &str) -> HostId {
        HostId(self.hosts.intern(name))
    }

    /// Resolves a source id to its name.
    pub fn source_name(&self, id: SourceId) -> &str {
        self.sources.name(id.0).unwrap_or("<unknown-source>")
    }

    /// Looks up a source by name without interning.
    pub fn find_source(&self, name: &str) -> Option<SourceId> {
        self.sources.get(name).map(SourceId)
    }

    /// Number of distinct sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::default();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        assert_ne!(a, b);
        assert_eq!(i.intern("alpha"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.name(a), Some("alpha"));
        assert_eq!(i.get("beta"), Some(b));
        assert_eq!(i.get("gamma"), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::default();
        for (k, name) in ["a", "b", "c", "d"].iter().enumerate() {
            assert_eq!(i.intern(name), k as u32);
        }
        let collected: Vec<(u32, String)> = i.iter().map(|(id, n)| (id, n.to_owned())).collect();
        assert_eq!(collected[2], (2, "c".to_owned()));
    }

    #[test]
    fn registry_separates_id_spaces() {
        let mut r = NameRegistry::new();
        let s = r.source("App");
        let u = r.user("App"); // same string, different space
        let h = r.host("App");
        assert_eq!(s.0, 0);
        assert_eq!(u.0, 0);
        assert_eq!(h.0, 0);
        assert_eq!(r.source_name(s), "App");
        assert_eq!(r.find_source("App"), Some(s));
        assert_eq!(r.find_source("Nope"), None);
        assert_eq!(r.source_count(), 1);
    }

    #[test]
    fn unknown_source_name_is_stable() {
        let r = NameRegistry::new();
        assert_eq!(r.source_name(SourceId(99)), "<unknown-source>");
    }
}
