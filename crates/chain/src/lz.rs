//! The LZ77 codec a chain store holds its history in (DESIGN.md §18).
//!
//! A block's canonical encoding is mostly zero and repeated bytes —
//! fixed-width little-endian integers, a signer's key in every message —
//! so a plain greedy LZ77 keeps half to seven tenths of it (DESIGN.md §18
//! has the measured ratios). The packed form is the input's
//! length, then sequences until that many bytes are out:
//!
//! ```text
//! packed   = len seq*
//! seq      = literals byte{literals} [ match offset ]
//! ```
//!
//! `len`, `literals` and `match` (the match length less [`MIN_MATCH`]) are
//! LEB128; `offset` is a little-endian `u16` counted back from the end of
//! the output, and a match may overlap the bytes it produces. A sequence
//! whose literals complete the output carries no match. The encoder finds
//! matches through a hash table of [`TABLE`] entries on its stack, widens
//! its stride over incompressible runs and extends each match backwards;
//! the decoder checks every length and offset against what is declared and
//! written so far, so hostile input is an error, never a panic, and it
//! allocates at most the declared length, itself at most [`MAX_LEN`].

/// Shortest match the encoder emits.
const MIN_MATCH: usize = 4;
/// Farthest back a match reaches: offsets are 16-bit.
const MAX_OFFSET: usize = u16::MAX as usize;
/// Entries in the encoder's hash table of 4-byte words.
const TABLE: usize = 4_096;
/// log2 of the misses in a row after which the encoder's stride grows.
const SKIP: usize = 4;
/// Longest input the codec takes, and so the most a decode allocates.
const MAX_LEN: usize = 1 << 26;

/// Packed input that does not decode: truncated, corrupted, or declaring
/// more than [`MAX_LEN`] bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Corrupt;

/// Packs `input`, at most [`MAX_LEN`] bytes.
pub(crate) fn compress(input: &[u8]) -> Vec<u8> {
    assert!(
        input.len() <= MAX_LEN,
        "{} B exceeds the codec's cap",
        input.len()
    );
    // Literals cost at most one length byte per 127, so this never grows.
    let mut out = Vec::with_capacity(input.len() + input.len() / 127 + 16);
    write_len(&mut out, input.len());
    // Position of the last word seen with each hash; an empty slot's 0 is
    // a real position, so a candidate is only ever checked, never trusted.
    let mut table = [0u32; TABLE];
    let (mut anchor, mut at, mut misses) = (0, 0, 0);
    // One past the last position a word starts at.
    let end = (input.len() + 1).saturating_sub(MIN_MATCH);
    while at < end {
        let word = word_at(input, at);
        let hashed = &mut table[slot(word)];
        let mut from = *hashed as usize;
        // `MAX_LEN` positions fit a `u32`.
        *hashed = at as u32;
        if from >= at || at - from > MAX_OFFSET || word_at(input, from) != word {
            // Every 2^SKIP misses in a row widen the stride by one, so
            // incompressible runs are crossed quickly.
            misses += 1;
            at += 1 + (misses >> SKIP);
            continue;
        }
        misses = 0;
        // A skipped start is recovered by extending the match backwards.
        while at > anchor && from > 0 && input[at - 1] == input[from - 1] {
            (at, from) = (at - 1, from - 1);
        }
        let same = common_prefix(&input[from + MIN_MATCH..], &input[at + MIN_MATCH..]);
        write_len(&mut out, at - anchor);
        out.extend_from_slice(&input[anchor..at]);
        write_len(&mut out, same);
        let offset = u16::try_from(at - from).expect("offset within MAX_OFFSET");
        out.extend_from_slice(&offset.to_le_bytes());
        at += MIN_MATCH + same;
        anchor = at;
    }
    if anchor < input.len() {
        write_len(&mut out, input.len() - anchor);
        out.extend_from_slice(&input[anchor..]);
    }
    out
}

/// Unpacks what [`compress`] packed.
///
/// # Errors
///
/// [`Corrupt`] if `packed` is not exactly one packed input.
pub(crate) fn decompress(packed: &[u8]) -> Result<Vec<u8>, Corrupt> {
    let mut input = packed;
    let len = read_len(&mut input)?;
    if len > MAX_LEN {
        return Err(Corrupt);
    }
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let literals = read_len(&mut input)?;
        if literals > len - out.len() || literals > input.len() {
            return Err(Corrupt);
        }
        let (literals, rest) = input.split_at(literals);
        out.extend_from_slice(literals);
        input = rest;
        if out.len() == len {
            break;
        }
        let matched = read_len(&mut input)?;
        let [lo, hi, rest @ ..] = input else {
            return Err(Corrupt);
        };
        let offset = usize::from(u16::from_le_bytes([*lo, *hi]));
        input = rest;
        let room = len - out.len();
        if room < MIN_MATCH || matched > room - MIN_MATCH || offset == 0 || offset > out.len() {
            return Err(Corrupt);
        }
        // The bytes from `from` on repeat with period `offset`, so each
        // copy may take all of them: an overlapping match doubles per step.
        let from = out.len() - offset;
        let end = out.len() + MIN_MATCH + matched;
        while out.len() < end {
            let n = (end - out.len()).min(out.len() - from);
            out.extend_from_within(from..from + n);
        }
    }
    if input.is_empty() {
        Ok(out)
    } else {
        Err(Corrupt)
    }
}

/// How many leading bytes `a` and `b` share, eight at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 8 <= n {
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("eight bytes"))
            ^ u64::from_le_bytes(b[i..i + 8].try_into().expect("eight bytes"));
        if x != 0 {
            return i + (x.trailing_zeros() / 8) as usize;
        }
        i += 8;
    }
    i + a[i..n]
        .iter()
        .zip(&b[i..n])
        .take_while(|(x, y)| x == y)
        .count()
}

fn word_at(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("four bytes"))
}

fn slot(word: u32) -> usize {
    (word.wrapping_mul(0x9e37_79b1) >> (32 - TABLE.trailing_zeros())) as usize
}

fn write_len(out: &mut Vec<u8>, mut n: usize) {
    while n >= 0x80 {
        out.push(n as u8 | 0x80);
        n >>= 7;
    }
    out.push(n as u8);
}

fn read_len(input: &mut &[u8]) -> Result<usize, Corrupt> {
    let mut n = 0usize;
    for shift in (0..usize::BITS).step_by(7) {
        let (&byte, rest) = input.split_first().ok_or(Corrupt)?;
        *input = rest;
        let bits = usize::from(byte & 0x7f);
        if (bits << shift) >> shift != bits {
            return Err(Corrupt);
        }
        n |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(n);
        }
    }
    Err(Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, BlockHeader};
    use hc_state::{Message, SealedMessage};
    use hc_types::{
        Address, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, SubnetId, TokenAmount,
    };
    use proptest::prelude::*;

    fn round_trip(input: &[u8]) -> Vec<u8> {
        let packed = compress(input);
        assert_eq!(decompress(&packed).as_deref(), Ok(input));
        packed
    }

    /// Bytes drawn from a small alphabet in runs, so matches of every
    /// length and overlap occur.
    fn runs() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0u8..4, 1usize..40), 0..200).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(b, n)| std::iter::repeat_n(b, n))
                .collect()
        })
    }

    fn block(epoch: u64, msgs: u64) -> Block {
        let proposer = Keypair::from_seed([0x5c; 32]);
        let senders: Vec<Keypair> = (0..4u8).map(|i| Keypair::from_seed([i; 32])).collect();
        let msgs = (0..msgs)
            .map(|i| {
                let s = (i % 4) as usize;
                let msg = Message::transfer(
                    Address::new(100 + s as u64),
                    Address::new(200 + i),
                    TokenAmount::from_atto(u128::from(epoch * 1_000 + i)),
                    Nonce::new(epoch + i),
                );
                SealedMessage::sign(msg, &senders[s])
            })
            .collect();
        let header = BlockHeader {
            subnet: SubnetId::root(),
            epoch: ChainEpoch::new(epoch),
            parent: Cid::digest(&epoch.to_le_bytes()),
            state_root: Cid::digest(&(epoch + 1).to_le_bytes()),
            msgs_root: Cid::NIL,
            proposer: proposer.public(),
            timestamp_ms: epoch * 1_000,
        };
        Block::seal(header, msgs, vec![], &proposer)
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_round_trip(input in prop::collection::vec(any::<u8>(), 0..600)) {
            round_trip(&input);
        }

        #[test]
        fn runs_round_trip(input in runs()) {
            round_trip(&input);
        }

        #[test]
        fn encoded_blocks_round_trip_and_shrink(epoch in 1u64..1_000, msgs in 1u64..60) {
            let bytes = block(epoch, msgs).canonical_bytes();
            let packed = round_trip(&bytes);
            prop_assert!(packed.len() < bytes.len(), "{} B packed from {} B", packed.len(), bytes.len());
        }

        #[test]
        fn arbitrary_input_is_an_error_or_bounded(input in prop::collection::vec(any::<u8>(), 0..80)) {
            // What decodes allocated exactly its declared length.
            if let Ok(out) = decompress(&input) {
                prop_assert_eq!(out.capacity(), out.len());
            }
        }

        #[test]
        fn a_corrupted_or_truncated_packing_never_panics(
            input in runs(),
            at in any::<prop::sample::Index>(),
            flip in 1u8..=255,
            cut in any::<prop::sample::Index>(),
        ) {
            let packed = compress(&input);
            let mut flipped = packed.clone();
            flipped[at.index(packed.len())] ^= flip;
            // A flipped literal or offset may still decode.
            if let Ok(out) = decompress(&flipped) {
                prop_assert_eq!(out.capacity(), out.len());
            }
            let truncated = &packed[..cut.index(packed.len())];
            prop_assert_eq!(decompress(truncated), Err(Corrupt));
            let mut longer = packed;
            longer.push(0);
            prop_assert_eq!(decompress(&longer), Err(Corrupt));
        }
    }

    #[test]
    fn edge_inputs_round_trip() {
        assert_eq!(round_trip(&[]), [0]);
        round_trip(&[7]);
        round_trip(&[1, 2, 3, 4]);
        round_trip(b"abcabcabcabcabcabcabcabcabcab");
        let zeros = round_trip(&[0; 1 << 20]);
        assert!(
            zeros.len() < 16,
            "a zero run is one match: {} B",
            zeros.len()
        );
        round_trip(&[0; MIN_MATCH + 1]);
    }

    #[test]
    fn offsets_reach_the_64_kib_edge_and_no_further() {
        // A head, a zero run (one match at offset 1), the head again: it
        // is one match back if the distance fits 16 bits, else literals.
        let head: Vec<u8> = (1..=32).collect();
        for distance in [MAX_OFFSET - 1, MAX_OFFSET, MAX_OFFSET + 1] {
            let zeros = std::iter::repeat_n(0, distance - head.len());
            let input: Vec<u8> = head
                .iter()
                .copied()
                .chain(zeros)
                .chain(head.clone())
                .collect();
            let packed = round_trip(&input);
            assert_eq!(
                packed.ends_with(&head),
                distance > MAX_OFFSET,
                "distance {distance}"
            );
        }
    }

    #[test]
    fn hostile_headers_are_refused_before_allocating() {
        // A ten-byte LEB128 that overflows a `usize`; a declared length of
        // 2^64 - 1 bytes; a length just past the cap.
        let mut huge = vec![0xff; 9];
        huge.push(0x7f);
        assert_eq!(decompress(&huge), Err(Corrupt));
        let mut over = Vec::new();
        write_len(&mut over, usize::MAX);
        over.push(0x01);
        assert_eq!(decompress(&over), Err(Corrupt));
        let mut past_cap = Vec::new();
        write_len(&mut past_cap, MAX_LEN + 1);
        assert_eq!(decompress(&past_cap), Err(Corrupt));
        // A match before any output, one reaching past the declared
        // length, and a zero offset.
        assert_eq!(decompress(&[8, 0, 0, 1, 0]), Err(Corrupt));
        assert_eq!(decompress(&[8, 1, 9, 9, 1, 0]), Err(Corrupt));
        assert_eq!(decompress(&[8, 1, 9, 3, 0, 0]), Err(Corrupt));
        assert_eq!(decompress(&[8, 1, 9, 3, 1, 0]), Ok(vec![9; 8]));
    }
}
