//! Durable persistence wiring: the runtime's persistence configuration and
//! the journal records that make a [`crate::HierarchyRuntime`]
//! restartable.
//!
//! With persistence enabled the runtime writes two logs:
//!
//! * **The journal** (`control`) — a single runtime-wide WAL of
//!   [`ControlRecord`]s in the one order things happened: subnet boots and
//!   retirements, every committed block of every subnet (its full
//!   canonical bytes, the accounts it installed among them), and the
//!   anchors of persisted state manifests. A record is history once the
//!   wave's barrier has synced it.
//! * **The blob log** (`blobs`) — state blobs (chunk manifests and their
//!   chunks), journaled through the `CidStore`'s attached
//!   [`hc_store::BlobLog`], which dedups by content so structural sharing
//!   between snapshots carries to disk.
//!
//! Recovery ([`crate::HierarchyRuntime::recover`]) replays the longest
//! satisfiable prefix of the journal, re-executing each journaled block
//! and re-deriving every piece of in-memory state from it. Anything past
//! that prefix — a torn record, a block that no longer validates, a state
//! root that no longer reproduces — is truncated away so the journal and
//! the recovered world agree exactly.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use hc_actors::checkpoint::SignedCheckpoint;
use hc_actors::sa::SaConfig;
use hc_chain::Block;
use hc_consensus::EngineParams;
use hc_store::{FsyncPolicy, OnDiskDevice, Persistence, WalOptions};
use hc_types::{ByteReader, CanonicalDecode, CanonicalEncode, Cid, DecodeError, SubnetId};

/// How (and whether) a [`crate::HierarchyRuntime`] persists its history.
#[derive(Clone, Default)]
pub enum PersistenceConfig {
    /// No journaling at all: every store lives in process memory and dies
    /// with the runtime. The default — byte-for-byte identical behaviour
    /// to the pre-persistence runtime (no WAL is even constructed).
    #[default]
    InMemory,
    /// Journal records (blocks among them) and state blobs to a device.
    Durable(DurableOptions),
}

/// Options for [`PersistenceConfig::Durable`].
#[derive(Clone)]
pub struct DurableOptions {
    /// The device every log writes to. An
    /// [`hc_store::InMemoryDevice`] gives crash-injection tests a handle
    /// that outlives the runtime; an [`OnDiskDevice`] gives real files.
    pub device: Arc<dyn Persistence>,
    /// Segmentation and fsync policy applied to every log.
    pub wal: WalOptions,
    /// Keep this many recent snapshot manifests per subnet live; older
    /// manifests (and every blob only they reference) are pruned from the
    /// `CidStore` and compacted out of the blob log as new manifests
    /// arrive. `0` disables automatic pruning.
    pub keep_manifests: usize,
}

impl PersistenceConfig {
    /// Durable persistence on an arbitrary device with default options.
    pub fn on_device(device: Arc<dyn Persistence>) -> Self {
        PersistenceConfig::Durable(DurableOptions {
            device,
            wal: WalOptions::default(),
            keep_manifests: 0,
        })
    }

    /// Durable persistence rooted at `root` on the local filesystem with
    /// an explicit fsync policy (callers in tests must root this inside
    /// `std::env::temp_dir()`).
    pub fn on_disk_with_fsync(root: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        PersistenceConfig::Durable(DurableOptions {
            device: Arc::new(OnDiskDevice::new(root)),
            wal: WalOptions {
                fsync,
                ..WalOptions::default()
            },
            keep_manifests: 0,
        })
    }

    /// The durable options, when journaling is enabled.
    pub fn durable(&self) -> Option<&DurableOptions> {
        match self {
            PersistenceConfig::InMemory => None,
            PersistenceConfig::Durable(d) => Some(d),
        }
    }

    /// Returns `true` when journaling is enabled.
    pub fn is_durable(&self) -> bool {
        self.durable().is_some()
    }
}

impl fmt::Debug for PersistenceConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistenceConfig::InMemory => f.write_str("InMemory"),
            PersistenceConfig::Durable(d) => f
                .debug_struct("Durable")
                .field("wal", &d.wal)
                .field("keep_manifests", &d.keep_manifests)
                .finish_non_exhaustive(),
        }
    }
}

/// Name of the runtime-wide journal.
pub const CONTROL_LOG: &str = "control";

/// Name of the blob log backing the runtime's `CidStore`.
pub const BLOB_LOG: &str = "blobs";

/// One entry of the runtime journal.
///
/// Committed blocks, in the order the subnets committed them, and between
/// them what a restart cannot re-derive from blocks alone — subnet boots
/// and retirements (node structure, consensus engine, schedule) and the
/// anchors of persisted state manifests. State changes only through
/// blocks, so no record writes an account. Tags 0 and 6, once account
/// creation and adoption, are retired.
// Nearly every record of a run is a block, so boxing the large variant
// would cost an allocation per record to shrink the rare ones.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ControlRecord {
    /// A child subnet chain booted (spawn step 4).
    SubnetBoot {
        /// The child's identity.
        child: SubnetId,
        /// The Subnet Actor config the chain booted with.
        config: SaConfig,
        /// The child's consensus engine parameters.
        engine_params: EngineParams,
    },
    /// A block committed on the subnet its header names. Encoded as the
    /// tag followed by the block's own canonical bytes.
    Block(Block),
    /// `save_snapshot` persisted a subnet's state as a chunk manifest.
    /// Replay re-persists and must reproduce the same manifest CID.
    SnapshotAnchor {
        /// The snapshotted subnet.
        subnet: SubnetId,
        /// CID of the persisted [`hc_state::ChunkManifest`].
        manifest: Cid,
    },
    /// `retire_subnet` removed a killed, drained leaf subnet's node from
    /// the hierarchy (the elastic controller's merge step).
    SubnetRetired {
        /// The retired subnet.
        subnet: SubnetId,
    },
    /// A checkpoint cut persisted a subnet's state. Verify-only on replay:
    /// the replayed cut re-persists through the same code path, and this
    /// anchor must match what it produced. A replay that skips the cut
    /// block hands the checkpoint to the parent from here.
    CheckpointAnchor {
        /// The signed checkpoint: its `source` is the cutting subnet, its
        /// `epoch` the cut's.
        signed: SignedCheckpoint,
        /// CID of the persisted manifest.
        manifest: Cid,
    },
}

/// The byte that opens the encoding of a [`ControlRecord::Block`], so a
/// scan can pass over blocks without decoding them.
pub(crate) const BLOCK_TAG: u8 = 3;

impl CanonicalEncode for ControlRecord {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        match self {
            ControlRecord::SubnetBoot {
                child,
                config,
                engine_params,
            } => {
                out.push(2);
                child.write_bytes(out);
                config.write_bytes(out);
                engine_params.write_bytes(out);
            }
            ControlRecord::Block(block) => {
                out.push(BLOCK_TAG);
                block.write_bytes(out);
            }
            ControlRecord::SnapshotAnchor { subnet, manifest } => {
                out.push(4);
                subnet.write_bytes(out);
                manifest.write_bytes(out);
            }
            ControlRecord::CheckpointAnchor { signed, manifest } => {
                out.push(5);
                signed.write_bytes(out);
                manifest.write_bytes(out);
            }
            ControlRecord::SubnetRetired { subnet } => {
                out.push(7);
                subnet.write_bytes(out);
            }
        }
    }
}

impl CanonicalDecode for ControlRecord {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            2 => Ok(ControlRecord::SubnetBoot {
                child: SubnetId::read_bytes(r)?,
                config: SaConfig::read_bytes(r)?,
                engine_params: EngineParams::read_bytes(r)?,
            }),
            BLOCK_TAG => Ok(ControlRecord::Block(Block::read_bytes(r)?)),
            4 => Ok(ControlRecord::SnapshotAnchor {
                subnet: SubnetId::read_bytes(r)?,
                manifest: Cid::read_bytes(r)?,
            }),
            5 => Ok(ControlRecord::CheckpointAnchor {
                signed: SignedCheckpoint::read_bytes(r)?,
                manifest: Cid::read_bytes(r)?,
            }),
            7 => Ok(ControlRecord::SubnetRetired {
                subnet: SubnetId::read_bytes(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "ControlRecord",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::checkpoint::Checkpoint;
    use hc_chain::BlockHeader;
    use hc_state::{ImplicitMsg, Message, Method, SealedMessage};
    use hc_types::{Address, ChainEpoch, Keypair, Nonce, TokenAmount};
    use proptest::prelude::*;

    /// A sealed block with a user message and an implicit one, on `subnet`.
    fn sample_block(subnet: &SubnetId) -> Block {
        let key = Keypair::from_seed([0x22; 32]);
        let msg = Message {
            from: Address::new(100),
            to: Address::new(101),
            value: TokenAmount::from_whole(1),
            nonce: Nonce::ZERO,
            method: Method::Send,
        };
        let header = BlockHeader {
            subnet: subnet.clone(),
            epoch: ChainEpoch::new(9),
            parent: Cid::digest(b"parent"),
            state_root: Cid::digest(b"state"),
            msgs_root: Cid::NIL,
            proposer: key.public(),
            timestamp_ms: 9_000,
        };
        let implicit = ImplicitMsg::SweepAtomicTimeouts { timeout: 50 };
        let signed = SealedMessage::sign(msg, &key);
        Block::seal(header, vec![signed], vec![implicit], &key)
    }

    /// A signed checkpoint of `subnet` at epoch 20, with a child check.
    fn sample_checkpoint(subnet: &SubnetId) -> SignedCheckpoint {
        let prev = Cid::digest(b"prev checkpoint");
        let mut checkpoint = Checkpoint::template(subnet.clone(), ChainEpoch::new(20), prev);
        checkpoint.proof = Cid::digest(b"head");
        checkpoint.add_child_check(subnet.child(Address::new(43)), Cid::digest(b"child"));
        let mut signed = SignedCheckpoint::new(checkpoint);
        let key = Keypair::from_seed([0x33; 32]);
        signed.signatures.add(key.sign(&signed.signing_bytes()));
        signed
    }

    /// One record of every variant.
    fn sample_records() -> Vec<ControlRecord> {
        let subnet = SubnetId::root().child(Address::new(42));
        vec![
            ControlRecord::SubnetBoot {
                child: subnet.clone(),
                config: SaConfig::default(),
                engine_params: EngineParams::default(),
            },
            ControlRecord::Block(sample_block(&subnet)),
            ControlRecord::SnapshotAnchor {
                subnet: subnet.clone(),
                manifest: Cid::digest(b"manifest"),
            },
            ControlRecord::CheckpointAnchor {
                signed: sample_checkpoint(&subnet),
                manifest: Cid::digest(b"manifest2"),
            },
            ControlRecord::SubnetRetired { subnet },
        ]
    }

    #[test]
    fn control_records_round_trip_canonically() {
        for rec in sample_records() {
            let bytes = rec.canonical_bytes();
            let back = ControlRecord::decode(&bytes).unwrap();
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn a_block_record_is_its_tag_and_the_blocks_own_bytes() {
        let block = sample_block(&SubnetId::root());
        let bytes = ControlRecord::Block(block.clone()).canonical_bytes();
        assert_eq!(bytes[0], 3);
        assert_eq!(bytes[1..], block.canonical_bytes());
        // The journaled block arrives cold and still validates from content.
        let Ok(ControlRecord::Block(back)) = ControlRecord::decode(&bytes) else {
            panic!("a block record decodes to a block");
        };
        back.validate_structure().unwrap();
        assert_eq!(back.cid(), block.cid());
    }

    /// What a decoder owes bytes it did not write: an answer, and — when
    /// the answer is a record — exactly the record those bytes encode.
    fn decode_is_total_and_exact(bytes: &[u8]) -> Result<(), TestCaseError> {
        if let Ok(record) = ControlRecord::decode(bytes) {
            prop_assert_eq!(record.canonical_bytes(), bytes);
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            tag in 0u8..10,
            body in prop::collection::vec(any::<u8>(), 0..300),
        ) {
            let mut bytes = vec![tag];
            bytes.extend(body);
            decode_is_total_and_exact(&bytes)?;
        }

        /// Every variant's bytes, damaged the ways a device or a peer can
        /// damage them: cut short, one byte flipped, trailing garbage, and
        /// eight bytes overwritten with a count no input could back. Every
        /// length prefix is checked against `ByteReader::remaining` before
        /// anything is reserved for it; a decoder that reserved first would
        /// die here on a 2^63-element allocation rather than return.
        #[test]
        fn mutated_records_never_panic_or_over_allocate(
            which in any::<prop::sample::Index>(),
            at in any::<prop::sample::Index>(),
            mutation in 0u8..4,
            flip in 1u8..=255,
        ) {
            let records = sample_records();
            let mut bytes = records[which.index(records.len())].canonical_bytes();
            let at = at.index(bytes.len());
            match mutation {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= flip,
                2 => bytes.push(flip),
                _ => {
                    let huge = (u64::MAX >> 1).to_le_bytes();
                    let end = (at + huge.len()).min(bytes.len());
                    bytes[at..end].copy_from_slice(&huge[..end - at]);
                }
            }
            decode_is_total_and_exact(&bytes)?;
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        // 0 and 6 are the retired account records.
        for tag in [0, 1, 6, 9] {
            assert!(matches!(
                ControlRecord::decode(&[tag]),
                Err(DecodeError::BadTag {
                    what: "ControlRecord",
                    ..
                })
            ));
        }
    }

    #[test]
    fn default_config_is_in_memory() {
        assert!(!PersistenceConfig::default().is_durable());
        let durable = PersistenceConfig::on_device(Arc::new(hc_store::InMemoryDevice::new()));
        assert!(durable.is_durable());
        assert_eq!(format!("{:?}", PersistenceConfig::default()), "InMemory");
    }
}
