//! A resumed SHA-256 finishes the same digest and compresses only the
//! blocks it was not handed: for random inputs, resuming after every
//! recorded block boundary gives `sha256(data)` and counts exactly the
//! remaining blocks in `sha256_block_count`.
//!
//! One `#[test]` on purpose: the block counter is process-wide, so no other
//! test may hash while this one reads it.

use hc_types::crypto::{sha256, sha256_block_count};
use hc_types::Sha256;
use rand::{Rng, RngCore, SeedableRng};

/// Blocks SHA-256 compresses for a `len`-byte input, padding included.
fn blocks_for(len: usize) -> u64 {
    (len as u64 + 9).div_ceil(64)
}

#[test]
fn resuming_at_every_block_boundary_finishes_the_digest_and_only_the_rest() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(51);
    let lens: Vec<usize> = (0..=200)
        .chain((0..40).map(|_| rng.gen_range(200..2_100)))
        .collect();
    for len in lens {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let want = sha256(&data);

        // Recording in arbitrary splits records one value per whole block.
        let mut cuts: Vec<usize> = (0..3).map(|_| rng.gen_range(0..=len)).collect();
        cuts.sort_unstable();
        let mut chain = Vec::new();
        let mut hasher = Sha256::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([len]) {
            hasher.update_recording(&data[from..cut], &mut chain);
            from = cut;
        }
        assert_eq!(hasher.finalize(), want, "length {len}, recorded");
        assert_eq!(chain.len(), len / 64, "length {len}: one value per block");

        for resumed_at in 0..=chain.len() {
            let before = sha256_block_count();
            let mut resumed = Sha256::resume(&chain[..resumed_at]);
            resumed.update(&data[64 * resumed_at..]);
            let digest = resumed.finalize();
            let compressed = sha256_block_count() - before;
            assert_eq!(digest, want, "length {len}, resumed after {resumed_at}");
            assert_eq!(
                compressed,
                blocks_for(len) - resumed_at as u64,
                "length {len}, resumed after {resumed_at} blocks"
            );
        }
    }
}
