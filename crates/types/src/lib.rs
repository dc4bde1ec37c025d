//! # hc-types — foundation types for hierarchical consensus
//!
//! This crate provides the primitive vocabulary shared by every other crate
//! in the hierarchical-consensus workspace:
//!
//! * [`SubnetId`] — hierarchical subnet identifiers (`/root/a100/a101`) with
//!   the path algebra (parent, least common ancestor, routing steps) that
//!   cross-net message propagation is built on.
//! * [`Address`] — actor/account addresses within a subnet.
//! * [`TokenAmount`] — checked, fixed-point native-token arithmetic.
//! * [`Cid`] — content identifiers derived from SHA-256 digests of canonical
//!   encodings, used to address checkpoints, cross-message groups, and state.
//! * [`crypto`] — a from-scratch SHA-256 (validated against FIPS 180-4
//!   vectors; x86 SHA extensions where the CPU has them, the workspace's one
//!   `unsafe` call), a simulation-grade signature scheme, and the
//!   multi-signature / threshold signature policies used by checkpoint
//!   validation.
//! * [`merkle`] — binary Merkle trees with membership proofs, used for the
//!   chunked state commitment and balance snapshots.
//! * [`encode`] — deterministic canonical binary encoding, the basis for all
//!   content addressing.
//! * [`decode`] — the strict inverse of [`encode`], used by the durability
//!   layer (`hc-store`) to replay logged values during crash recovery.
//! * [`CountingAlloc`] — a counting global allocator, so a test binary can
//!   gate heap use as deterministically as SHA-256 work.
//!
//! # Example
//!
//! ```
//! use hc_types::{SubnetId, Address};
//!
//! let root = SubnetId::root();
//! let a = root.child(Address::new(100));
//! let b = a.child(Address::new(101));
//! assert_eq!(b.to_string(), "/root/a100/a101");
//! assert_eq!(b.parent().unwrap(), a);
//! assert!(root.is_ancestor_of(&b));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
mod alloc_counter;
pub mod cid;
pub mod crypto;
pub mod decode;
pub mod encode;
pub mod epoch;
pub mod merkle;
pub mod subnet_id;
pub mod tcid;
pub mod token;

pub use address::Address;
pub use alloc_counter::{AllocCounts, CountingAlloc};
pub use cid::Cid;
pub use crypto::{Keypair, PublicKey, Sha256, Signature};
pub use decode::{ByteReader, CanonicalDecode, DecodeError};
pub use encode::CanonicalEncode;
pub use epoch::{ChainEpoch, Nonce};
pub use subnet_id::SubnetId;
pub use tcid::{MAmtNode, MHamtNode, TCid};
pub use token::TokenAmount;
