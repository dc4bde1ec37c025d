//! The SCA's content registry as state-tree content.
//!
//! The paper's SCA keeps the raw messages behind every `CrossMsgMeta` it
//! cuts so that checkpoints can carry only the group's CID (§III-B) and
//! any subnet can later pull the content (§IV-C). That history grows with
//! every cross-net checkpoint window, so it cannot live inside the SCA
//! chunk, which is re-encoded and re-hashed whenever the SCA changes — on
//! a cross-net workload, every block. Here it is an append-only log in an
//! [`Amt`]: one [`RegistryEntry`] — one group — per slot, in cut order and
//! destination order within a cut, committed under its own state-root leaf
//! ([`crate::ChunkKey::Registry`]) that embeds only the AMT root (height,
//! count, top-node CID), just as the accounts leaf embeds the HAMT root. A
//! cut re-hashes the AMT's rightmost path once, however many groups it
//! appends: the leaf it fills (at most eight groups, so each group's bytes
//! are hashed about 1.5 times on average) and one link-only node per level
//! above it. Persisting writes only the new nodes.
//!
//! Lookups by group CID (`ContentRegistry::get`) are served from an
//! in-memory index that shares the groups with the log. The index is
//! derived data: never hashed, rebuilt from the log on install.

use std::collections::HashMap;

use hc_actors::MsgGroup;
use hc_types::{ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError};

use crate::amt::{Amt, AmtError, AmtRoot};
use crate::hamt::HashWork;
use crate::store::CidStore;

/// One slot of the registry log: one bottom-up group, shared with the
/// lookup index. Encoded as `(msgs_cid, msgs)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry(pub MsgGroup);

impl CanonicalEncode for RegistryEntry {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.0.cid().write_bytes(out);
        self.0.write_bytes(out);
    }
}

impl CanonicalDecode for RegistryEntry {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let cid = Cid::read_bytes(r)?;
        let group = MsgGroup::read_bytes(r)?;
        // Content entering from bytes: the group's digest is derived here,
        // once, and must be the one stored beside it.
        if group.cid() != cid {
            return Err(DecodeError::Invalid {
                what: "registry group does not hash to its msgs_cid",
            });
        }
        Ok(RegistryEntry(group))
    }
}

/// The append-only registry log plus its lookup index.
///
/// Cloning is O(groups) for the index (pointer copies); the log itself
/// clones in O(1) and shares structure, which is what the validation
/// overlay appends to for its candidate root.
#[derive(Debug, Clone, Default)]
pub(crate) struct ContentRegistry {
    /// The committed log. Crate-internal writers other than
    /// [`ContentRegistry::append`] and [`ContentRegistry::install`] only
    /// flush or persist it.
    pub(crate) log: Amt<RegistryEntry>,
    index: HashMap<Cid, MsgGroup>,
}

impl ContentRegistry {
    /// Appends one group.
    pub(crate) fn append(&mut self, entry: RegistryEntry) {
        self.index.insert(entry.0.cid(), entry.0.clone());
        self.log.push(entry);
    }

    /// The group behind a CID cut by this subnet.
    pub(crate) fn get(&self, cid: &Cid) -> Option<&MsgGroup> {
        self.index.get(cid)
    }

    /// Adopts `log` — a clone of this registry's log that `appended` was
    /// pushed onto (and flushed) by a validation overlay.
    pub(crate) fn install(&mut self, log: Amt<RegistryEntry>, appended: &[RegistryEntry]) {
        for RegistryEntry(group) in appended {
            self.index.insert(group.cid(), group.clone());
        }
        self.log = log;
    }

    /// A fresh registry holding `log`'s entries: nothing of `log`'s node
    /// structure or cached CIDs survives, the shape is canonical by
    /// construction.
    fn reappended(log: &Amt<RegistryEntry>) -> Self {
        let mut fresh = ContentRegistry::default();
        log.for_each(&mut |_, entry| fresh.append(entry.clone()));
        fresh
    }

    /// The same content in a fresh log: the from-scratch reference the
    /// incremental root must agree with.
    pub(crate) fn rebuilt(&self) -> Self {
        Self::reappended(&self.log)
    }

    /// Loads the log persisted under `root`. Only the *entries* are taken
    /// from the store: they are appended to a fresh log, which must then
    /// hash back to `root`. A served AMT holding the right entries in any
    /// other shape (sparse indices, extra height) is refused — keeping its
    /// nodes would put the forged root into the next state root and let the
    /// next append land on an occupied index.
    pub(crate) fn load(root: &AmtRoot, store: &CidStore) -> Result<Self, AmtError> {
        let mut registry = Self::reappended(&Amt::load(root, store)?);
        if registry.log.flush(&mut HashWork::default()) != *root {
            return Err(AmtError::Structure("not the canonical log of its entries"));
        }
        Ok(registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::{CrossMsg, HcAddress};
    use hc_types::{Address, SubnetId, TokenAmount};

    #[test]
    fn a_decoded_entry_must_hash_to_the_cid_stored_beside_its_group() {
        let at = |a| HcAddress::new(SubnetId::root(), Address::new(a));
        let group = MsgGroup::seal(vec![
            CrossMsg::transfer(at(100), at(101), TokenAmount::from_whole(1)),
            CrossMsg::transfer(at(102), at(103), TokenAmount::from_whole(2)),
        ]);
        let entry = RegistryEntry(group);
        let bytes = entry.canonical_bytes();
        assert_eq!(RegistryEntry::decode(&bytes).unwrap(), entry);
        // Byte 0 is the first of the stored `msgs_cid`; the last byte is
        // inside the last message. Neither the digest nor the content can
        // be altered alone.
        for at in [0, bytes.len() - 1] {
            let mut tampered = bytes.clone();
            tampered[at] ^= 1;
            assert!(RegistryEntry::decode(&tampered).is_err(), "byte {at}");
        }
    }
}
