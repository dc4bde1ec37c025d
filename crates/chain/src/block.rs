//! Blocks and block headers.

use std::sync::OnceLock;

use hc_state::{ImplicitMsg, SealedMessage};
use hc_types::crypto::{AggregateSignature, Sha256};
use hc_types::{
    decode_fields, encode_fields, ByteReader, CanonicalDecode, CanonicalEncode, ChainEpoch, Cid,
    DecodeError, Keypair, PublicKey, Signature, SubnetId,
};

/// A block header: the content-addressed commitment to a block's position,
/// payload, and resulting state.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockHeader {
    /// The subnet chain this block belongs to.
    pub subnet: SubnetId,
    /// Height of the block.
    pub epoch: ChainEpoch,
    /// CID of the parent block ([`Cid::NIL`] for genesis).
    pub parent: Cid,
    /// State root after executing this block.
    pub state_root: Cid,
    /// Payload root: one SHA-256 pass over the signed count, each signed
    /// message's CID and signature, the implicit count and each implicit
    /// message's [commitment form](ImplicitMsg::write_commitment);
    /// [`Cid::NIL`] for an empty payload. [`Block::seal`] fills it in from
    /// the payload it seals.
    pub msgs_root: Cid,
    /// The proposer's public key.
    pub proposer: PublicKey,
    /// Simulated wall-clock timestamp (milliseconds of virtual time).
    pub timestamp_ms: u64,
}

encode_fields!(BlockHeader {
    subnet,
    epoch,
    parent,
    state_root,
    msgs_root,
    proposer,
    timestamp_ms
});
decode_fields!(BlockHeader {
    subnet,
    epoch,
    parent,
    state_root,
    msgs_root,
    proposer,
    timestamp_ms
});

/// A full block: header, payload, the proposer's signature, and (for BFT
/// engines) a justification carrying the committing quorum's signatures.
///
/// The header CID — the block's identity, consumed by header signing, chain
/// indexing, justification signatures, and structural validation — is
/// derived once per block and memoized (see [`Block::cid`]), and so is the
/// digest of the payload that [`Block::validate_structure`] compares
/// the header's `msgs_root` with. Both memos are excluded from
/// serialization and equality, so a block decoded from untrusted bytes
/// re-derives them from content.
#[derive(Debug, Clone)]
pub struct Block {
    /// The header committed to by [`Block::cid`].
    pub header: BlockHeader,
    /// User messages included by the proposer, sealed so their CIDs are
    /// derived once and shared by assembly, validation, and execution.
    pub signed_msgs: Vec<SealedMessage>,
    /// Consensus-injected messages (cross-net applications, checkpoint
    /// cuts), in execution order.
    pub implicit_msgs: Vec<ImplicitMsg>,
    /// The proposer's signature over the header CID.
    pub signature: Signature,
    /// Quorum signatures for engines with explicit finality (empty for
    /// longest-chain engines).
    pub justification: AggregateSignature,
    /// Memoized header CID; warm after [`Block::seal`], cold after
    /// deserialization. Private so it can only ever hold `header.cid()`.
    cid_memo: OnceLock<Cid>,
    /// Memoized digest of `signed_msgs` and `implicit_msgs`: filled by
    /// [`Block::seal`] from the very vectors it moves into the block, cold
    /// after deserialization. Private, and never set from a value a caller
    /// supplies, so it can only ever hold the root of the payload beside
    /// it (the payload of a sealed block is immutable in the same spirit
    /// as its header, see [`Block::cid`]).
    payload_root_memo: OnceLock<Cid>,
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        // The memo is derived state; equality is content equality.
        self.header == other.header
            && self.signed_msgs == other.signed_msgs
            && self.implicit_msgs == other.implicit_msgs
            && self.signature == other.signature
            && self.justification == other.justification
    }
}

impl CanonicalEncode for Block {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        // Content fields only; the memos are derived state.
        self.header.write_bytes(out);
        self.signed_msgs.write_bytes(out);
        self.implicit_msgs.write_bytes(out);
        self.signature.write_bytes(out);
        self.justification.write_bytes(out);
    }
}

impl CanonicalDecode for Block {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        // Decoded blocks start cold: the header CID and the payload root
        // are re-derived from content on first use, never read from the
        // wire.
        Ok(Block {
            header: BlockHeader::read_bytes(r)?,
            signed_msgs: CanonicalDecode::read_bytes(r)?,
            implicit_msgs: CanonicalDecode::read_bytes(r)?,
            signature: Signature::read_bytes(r)?,
            justification: CanonicalDecode::read_bytes(r)?,
            cid_memo: OnceLock::new(),
            payload_root_memo: OnceLock::new(),
        })
    }
}

impl Block {
    /// Computes [`BlockHeader::msgs_root`] for a payload.
    ///
    /// The root only has to fix the block's contents (paper §III-B):
    /// nothing proves one message against it, so it is a plain digest, not
    /// a Merkle tree. The counts and the self-delimiting encodings make the
    /// preimage injective. A signed message is its CID and its signature's
    /// fixed 64 bytes, which fix its envelope; message and group CIDs are
    /// memos, so the pass hashes no message or group again.
    fn compute_msgs_root(signed: &[SealedMessage], implicit: &[ImplicitMsg]) -> Cid {
        if signed.is_empty() && implicit.is_empty() {
            return Cid::NIL;
        }
        let mut hasher = Sha256::new();
        hasher.update(&(signed.len() as u64).to_le_bytes());
        for msg in signed {
            hasher.update(msg.msg_cid().as_bytes());
            hasher.update(&msg.signature().to_bytes());
        }
        hasher.update(&(implicit.len() as u64).to_le_bytes());
        let mut form = Vec::new();
        for msg in implicit {
            form.clear();
            msg.write_commitment(&mut form);
            hasher.update(&form);
        }
        Cid::from_bytes(hasher.finalize())
    }

    /// Assembles and signs a block. The messages root is derived here,
    /// once, from the payload being sealed — whatever `header.msgs_root`
    /// held is overwritten — and carried for [`Block::validate_structure`].
    pub fn seal(
        mut header: BlockHeader,
        signed_msgs: Vec<SealedMessage>,
        implicit_msgs: Vec<ImplicitMsg>,
        proposer: &Keypair,
    ) -> Block {
        header.msgs_root = Self::compute_msgs_root(&signed_msgs, &implicit_msgs);
        let cid = header.cid();
        let signature = proposer.sign(cid.as_bytes());
        Block {
            payload_root_memo: OnceLock::from(header.msgs_root),
            header,
            signed_msgs,
            implicit_msgs,
            signature,
            justification: AggregateSignature::new(),
            cid_memo: OnceLock::from(cid),
        }
    }

    /// The block's identity: the CID of its header, derived once and
    /// memoized.
    ///
    /// The memo makes a sealed block's header immutable in spirit: code
    /// that needs a different header must build a new block through
    /// [`Block::seal`] (mutating `header` in place would also invalidate
    /// the proposer signature, so no honest path does it).
    pub fn cid(&self) -> Cid {
        *self.cid_memo.get_or_init(|| self.header.cid())
    }

    /// Decodes a block a chain store encoded, its CID taken from the store,
    /// which worked it out at append — nothing is hashed again.
    pub(crate) fn decode_stored(bytes: &[u8], cid: Cid) -> Option<Block> {
        let block = Block::decode(bytes).ok()?;
        block.cid_memo.get_or_init(|| cid);
        Some(block)
    }

    /// Total number of messages carried.
    pub fn msg_count(&self) -> usize {
        self.signed_msgs.len() + self.implicit_msgs.len()
    }

    /// Structural validation: the messages root matches the payload, the
    /// proposer's signature verifies, and the proposer field matches the
    /// signer. The payload's root is the one [`Block::seal`] derived for a
    /// block built in this process; a decoded block — WAL recovery, peer
    /// catch-up — derives it here, from what was decoded.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate_structure(&self) -> Result<(), String> {
        let payload_root = *self
            .payload_root_memo
            .get_or_init(|| Self::compute_msgs_root(&self.signed_msgs, &self.implicit_msgs));
        if self.header.msgs_root != payload_root {
            return Err("messages root does not match payload".into());
        }
        if self.signature.signer() != self.header.proposer {
            return Err("block signed by someone other than the proposer".into());
        }
        self.signature
            .verify(self.cid().as_bytes())
            .map_err(|e| format!("invalid proposer signature: {e}"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_state::{Message, Method};
    use hc_types::{Address, Nonce, TokenAmount};

    fn keypair(seed: u8) -> Keypair {
        let mut s = [0u8; 32];
        s[0] = seed;
        s[1] = 0xb1;
        Keypair::from_seed(s)
    }

    fn sample_block_at(epoch: u64, proposer: &Keypair) -> Block {
        let user = keypair(99);
        let msg = Message {
            from: Address::new(100),
            to: Address::new(101),
            value: TokenAmount::from_whole(1),
            nonce: Nonce::ZERO,
            method: Method::Send,
        }
        .sign(&user);
        let signed = vec![SealedMessage::new(msg)];
        let implicit = vec![];
        let header = BlockHeader {
            subnet: SubnetId::root(),
            epoch: ChainEpoch::new(epoch),
            parent: Cid::digest(b"genesis"),
            state_root: Cid::digest(b"state"),
            msgs_root: Cid::NIL,
            proposer: proposer.public(),
            timestamp_ms: 1_000,
        };
        Block::seal(header, signed, implicit, proposer)
    }

    fn sample_block(proposer: &Keypair) -> Block {
        sample_block_at(1, proposer)
    }

    #[test]
    fn sealed_block_validates() {
        let kp = keypair(1);
        let block = sample_block(&kp);
        block.validate_structure().unwrap();
        assert_eq!(block.msg_count(), 1);
    }

    #[test]
    fn tampered_payload_fails_validation() {
        // Tampering happens where it can in the wild: in the bytes. The
        // decoded block is cold, so validation re-derives the payload root.
        let kp = keypair(2);
        let block = sample_block(&kp);
        // Same header and signatures, the user messages dropped.
        let mut bytes = Vec::new();
        block.header.write_bytes(&mut bytes);
        Vec::<SealedMessage>::new().write_bytes(&mut bytes);
        block.implicit_msgs.write_bytes(&mut bytes);
        block.signature.write_bytes(&mut bytes);
        block.justification.write_bytes(&mut bytes);
        let tampered = Block::decode(&bytes).unwrap();
        assert!(tampered.signed_msgs.is_empty());
        assert_eq!(tampered.header, block.header);
        assert!(tampered.validate_structure().is_err());
    }

    #[test]
    fn wrong_proposer_fails_validation() {
        let kp = keypair(3);
        let other = keypair(4);
        let mut block = sample_block(&kp);
        block.header.proposer = other.public();
        // Signature now does not match claimed proposer.
        assert!(block.validate_structure().is_err());
    }

    #[test]
    fn block_cid_is_header_cid_and_unique() {
        let kp = keypair(5);
        let a = sample_block_at(1, &kp);
        let b = sample_block_at(2, &kp);
        assert_eq!(a.cid(), a.header.cid());
        assert_eq!(b.cid(), b.header.cid());
        assert_ne!(a.cid(), b.cid());
    }

    #[test]
    fn block_canonical_round_trip_starts_cold() {
        let kp = keypair(7);
        let block = sample_block(&kp);
        let bytes = block.canonical_bytes();
        let back = Block::decode(&bytes).unwrap();
        assert_eq!(back, block);
        assert_eq!(back.cid(), block.cid());
        back.validate_structure().unwrap();
        // Re-encoding is bit-identical (the memo never leaks into bytes).
        assert_eq!(back.canonical_bytes(), bytes);
    }

    #[test]
    fn truncated_block_bytes_are_rejected() {
        let kp = keypair(8);
        let bytes = sample_block(&kp).canonical_bytes();
        assert!(Block::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes;
        extended.push(0);
        assert!(Block::decode(&extended).is_err());
    }

    #[test]
    fn msgs_root_is_one_digest_of_the_payload() {
        // The root must be reproducible from the from-scratch message CIDs
        // and the signatures alone (validators recompute it from decoded
        // payloads whose memo cells are cold): the signed count, each CID
        // and signature, then the implicit count and forms — none here.
        let kp = keypair(6);
        let block = sample_block(&kp);
        let mut preimage = (block.signed_msgs.len() as u64).canonical_bytes();
        for m in &block.signed_msgs {
            m.message().cid().write_bytes(&mut preimage);
            m.signature().write_bytes(&mut preimage);
        }
        0u64.write_bytes(&mut preimage);
        assert_eq!(block.header.msgs_root, Cid::digest(&preimage));
    }
}
