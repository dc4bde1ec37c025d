//! Lazy materialization of logical account indices into runtime users.
//!
//! A declared population of a million accounts must not cost a million
//! `create_user` calls up front: Zipfian traffic touches a small working
//! set, so accounts materialize on first touch and are cached thereafter.
//! Materialization order follows traffic order, which is itself seeded —
//! so the logical-index → address mapping is deterministic per run.

use std::collections::BTreeMap;

use hc_core::{HierarchyRuntime, RuntimeError, UserHandle};
use hc_types::{SubnetId, TokenAmount};

/// The lazy logical-index → on-chain account table.
#[derive(Debug, Clone)]
pub struct LazyAccounts {
    initial_balance: TokenAmount,
    handles: BTreeMap<u64, UserHandle>,
}

impl LazyAccounts {
    /// Creates an empty table; accounts materialize at the root with
    /// `initial_balance` minted on first touch.
    pub fn new(initial_balance: TokenAmount) -> Self {
        LazyAccounts {
            initial_balance,
            handles: BTreeMap::new(),
        }
    }

    /// How many logical accounts have been materialized so far.
    pub fn materialized(&self) -> u64 {
        self.handles.len() as u64
    }

    /// The root-chain handle for logical account `idx`, creating (and
    /// funding) it on first touch.
    ///
    /// # Errors
    ///
    /// Propagates `create_user` failures.
    pub fn handle(
        &mut self,
        rt: &mut HierarchyRuntime,
        idx: u64,
    ) -> Result<UserHandle, RuntimeError> {
        if let Some(h) = self.handles.get(&idx) {
            return Ok(h.clone());
        }
        let h = rt.create_user(&SubnetId::root(), self.initial_balance)?;
        self.handles.insert(idx, h.clone());
        Ok(h)
    }

    /// The handle for `idx` if it has materialized.
    pub fn get(&self, idx: u64) -> Option<&UserHandle> {
        self.handles.get(&idx)
    }

    /// All materialized `(logical index, handle)` pairs, index-ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &UserHandle)> {
        self.handles.iter().map(|(i, h)| (*i, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_core::RuntimeConfig;

    #[test]
    fn materializes_once_and_caches() {
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let mut accounts = LazyAccounts::new(TokenAmount::from_whole(5));
        let a = accounts.handle(&mut rt, 900_000).unwrap();
        let b = accounts.handle(&mut rt, 900_000).unwrap();
        assert_eq!((a.addr, a.key.public()), (b.addr, b.key.public()));
        assert_eq!(accounts.materialized(), 1);
        // The root's next block installs the account.
        rt.step().unwrap();
        assert_eq!(rt.balance(&a), TokenAmount::from_whole(5));

        let c = accounts.handle(&mut rt, 3).unwrap();
        assert_ne!(a.addr, c.addr);
        assert_eq!(accounts.materialized(), 2);
    }
}
