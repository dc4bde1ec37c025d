//! SHA-256 (FIPS 180-4), with two kernels behind one counted entry point.
//!
//! Implemented from the specification so the workspace has no dependency on
//! external hashing crates. Every block goes through `compress`, which
//! counts it in [`sha256_block_count`] and then picks a kernel by runtime
//! CPU detection: `compress_ni` on x86_64 CPUs with the SHA extensions,
//! `compress_portable` — the specification's loop — everywhere else. The
//! choice is not configurable and changes nothing but speed: both kernels
//! compute the same function, so every digest, CID and block count is the
//! same on every machine. The unit tests below hold each kernel to the
//! official FIPS/NIST vectors and the hardware one to the portable one.

use std::cell::Cell;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Process-wide count of compression-function invocations (one per 64-byte
/// block, padding included). The counter is a pure diagnostic — it measures
/// hashing *work* deterministically, independent of machine speed — used by
/// the `msg_pipeline` speedup guard the same way the state commitment's
/// `bytes_hashed` counter backs the `state_root` guard.
static BLOCKS: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(0);

thread_local! {
    /// Set while [`uncounted`] runs on this thread.
    static UNCOUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Total SHA-256 blocks compressed by this process so far.
///
/// Monotonic and thread-safe; callers measure a region of work by
/// differencing two readings.
pub fn sha256_block_count() -> u64 {
    BLOCKS.load(core::sync::atomic::Ordering::Relaxed)
}

/// Runs `f` without counting the blocks it compresses on this thread in
/// [`sha256_block_count`].
///
/// For self-checks that are not the system's work — the debug-build audits
/// that recompute a carried digest from scratch — so that a debug build and
/// a release build count the same hashing.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let outer = UNCOUNTED.replace(true);
    let out = f();
    UNCOUNTED.set(outer);
    out
}

/// A streaming SHA-256: bytes go in through [`Sha256::update`] in any
/// split, and [`Sha256::finalize`] yields the digest of their
/// concatenation. The only way this crate hashes — [`sha256`] is one
/// `update` and a `finalize` — so a digest carried in a running hasher
/// and one computed in one shot cannot disagree.
///
/// Cloning copies the running state (112 bytes): finalizing a clone reads
/// the digest so far and leaves the original open for more input.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Input not yet compressed: always less than one block.
    block: [u8; 64],
    buffered: usize,
    /// Total input length in bytes.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: H0,
            block: [0; 64],
            buffered: 0,
            len: 0,
        }
    }
}

impl Sha256 {
    /// A hasher that has absorbed nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// A hasher standing after the first `recorded.len()` 64-byte blocks of
    /// some input, where `recorded` is a prefix of the chaining values
    /// [`Sha256::update_recording`] pushed while hashing that input from
    /// its start. Fed the rest of the input — from byte `64 ×
    /// recorded.len()` on — it finalizes to the digest of the whole input
    /// without compressing the first blocks again. An empty `recorded` is
    /// [`Sha256::new`].
    pub fn resume(recorded: &[[u32; 8]]) -> Self {
        Sha256 {
            state: recorded.last().copied().unwrap_or(H0),
            len: 64 * recorded.len() as u64,
            ..Self::default()
        }
    }

    /// Absorbs `data`, compressing every block it completes.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, |_| {});
    }

    /// [`Sha256::update`] that also pushes onto `chain` the chaining value
    /// after each block it compresses, for a later [`Sha256::resume`].
    pub fn update_recording(&mut self, data: &[u8], chain: &mut Vec<[u32; 8]>) {
        self.absorb(data, |state| chain.push(*state));
    }

    /// Absorbs `data`, handing `compressed` the chaining value after each
    /// block it completes.
    fn absorb(&mut self, mut data: &[u8], mut compressed: impl FnMut(&[u32; 8])) {
        self.len += data.len() as u64;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.block[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.block);
            compressed(&self.state);
            self.buffered = 0;
        }
        let mut chunks = data.chunks_exact(64);
        for chunk in &mut chunks {
            compress(&mut self.state, chunk.try_into().expect("64-byte chunk"));
            compressed(&self.state);
        }
        let rem = chunks.remainder();
        self.block[..rem.len()].copy_from_slice(rem);
        self.buffered = rem.len();
    }

    /// Pads the input — `0x80`, zeros, the bit length as a big-endian
    /// `u64` — and returns the digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        let n = self.buffered;
        self.block[n] = 0x80;
        self.block[n + 1..].fill(0);
        if n + 1 > 56 {
            // Length field does not fit; it goes into an extra block.
            compress(&mut self.state, &self.block);
            self.block.fill(0);
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Computes the SHA-256 digest of `data`.
///
/// # Example
///
/// ```
/// use hc_types::crypto::sha256;
///
/// // The empty-string digest is a well-known constant.
/// let d = sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// assert_eq!(d[31], 0x55);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Computes SHA-256 over the concatenation of several byte strings without
/// materializing the concatenation.
pub(crate) fn sha256_concat(parts: &[&[u8]]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update(part);
    }
    hasher.finalize()
}

/// The one compression entry point: counts the block, then runs the
/// hardware kernel where this CPU has one and the portable loop elsewhere.
/// Both kernels compute the FIPS 180-4 function, so which one ran shows up
/// in wall-clock time and nowhere else.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    if !UNCOUNTED.get() {
        BLOCKS.fetch_add(1, core::sync::atomic::Ordering::Relaxed);
    }
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        #[allow(unsafe_code)]
        // SAFETY: `sha_ni_detected` just confirmed that this CPU has every
        // feature `compress_ni` is compiled for (SSE2 is x86_64's baseline).
        return unsafe { compress_ni(state, block) };
    }
    compress_portable(state, block);
}

/// Whether this CPU has the SHA extensions, SSSE3 and SSE4.1 that
/// [`compress_ni`] is compiled for. The standard library caches the CPUID
/// answer, so a call costs a load and a test.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The compression function on the x86 SHA extensions: `sha256rnds2`
/// does two rounds, `sha256msg1`/`sha256msg2` extend the message schedule
/// four words at a time. The state lives in two registers in the order the
/// instructions want, `[A, B, E, F]` and `[C, D, G, H]` (highest lane
/// first). Words go in and out as values, so the body has no pointer
/// access — every intrinsic here is safe to call inside a function
/// compiled for its features.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use core::arch::x86_64::*;

    let s = state.map(|x| x as i32);
    let start_abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
    let start_cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
    let (mut abef, mut cdgh) = (start_abef, start_cdgh);

    // `w[q % 4]` holds schedule words 4q..4q+4, lowest lane first.
    let mut w = [_mm_setzero_si128(); 4];
    for (slot, bytes) in w.iter_mut().zip(block.chunks_exact(16)) {
        let word =
            |i: usize| i32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        *slot = _mm_set_epi32(word(12), word(8), word(4), word(0));
    }
    for q in 0..16 {
        if q >= 4 {
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at a
            // time: msg1 adds σ0, the byte shift brings in W[t-7], msg2 σ1.
            let partial = _mm_add_epi32(
                _mm_sha256msg1_epu32(w[q % 4], w[(q + 1) % 4]),
                _mm_alignr_epi8::<4>(w[(q + 3) % 4], w[(q + 2) % 4]),
            );
            w[q % 4] = _mm_sha256msg2_epu32(partial, w[(q + 3) % 4]);
        }
        let k = |i: usize| K[4 * q + i] as i32;
        let wk = _mm_add_epi32(w[q % 4], _mm_set_epi32(k(3), k(2), k(1), k(0)));
        // Two rounds return the new [A, B, E, F]; the old one is the new
        // [C, D, G, H], so the registers swap roles and swap back.
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    let abef = _mm_add_epi32(abef, start_abef);
    let cdgh = _mm_add_epi32(cdgh, start_cdgh);
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|x| x as u32);
}

/// The compression function as FIPS 180-4 §6.2.2 writes it: the fallback
/// on every CPU without the SHA extensions, and the reference the tests
/// hold [`compress_ni`] to.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Official FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_block_message() {
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn padding_boundaries_are_handled() {
        // Lengths around the 55/56/64-byte padding boundaries exercise the
        // extra-block path.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let d2 = sha256(&data);
            assert_eq!(d1, d2);
            // Flipping any byte must change the digest.
            let mut tampered = data.clone();
            tampered[len / 2] ^= 1;
            assert_ne!(sha256(&tampered), d1, "len {len}");
        }
    }

    #[test]
    fn concat_matches_plain_hash() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn a_streamed_fips_vector_splits_anywhere() {
        let data = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        for at in 0..=data.len() {
            let mut hasher = Sha256::new();
            hasher.update(&data[..at]);
            hasher.update(&data[at..]);
            assert_eq!(
                hex(hasher.finalize()),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "split at {at}"
            );
        }
    }

    type Kernel = fn(&mut [u32; 8], &[u8; 64]);

    /// `compress_ni` where this CPU has its features; elsewhere `None`,
    /// after a line saying `test` skipped its hardware half. Tests call the
    /// kernel directly, so both are checked whichever one `compress` picks.
    #[allow(unsafe_code)]
    fn ni_kernel(test: &str) -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            // SAFETY: the features `compress_ni` is compiled for were just
            // detected, and a CPU does not lose them while a process runs.
            return Some(|state, block| unsafe { compress_ni(state, block) });
        }
        println!("{test}: no SHA extensions on this CPU, the compress_ni half is skipped");
        None
    }

    /// SplitMix64: a seeded, dependency-free source of test inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// SHA-256 of `data`, padded by hand and compressed by `kernel` alone.
    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            kernel(&mut state, block.try_into().expect("64-byte chunk"));
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn the_kernels_agree_on_every_state_and_block() {
        let Some(ni) = ni_kernel("the_kernels_agree_on_every_state_and_block") else {
            return;
        };
        let mut rng = Rng(28);
        let mut cases: Vec<([u32; 8], [u8; 64])> = (0..10_000)
            .map(|_| {
                let state = std::array::from_fn(|_| rng.next() as u32);
                (state, std::array::from_fn(|_| rng.next() as u8))
            })
            .collect();
        for block in [[0u8; 64], [0xff; 64]] {
            cases.extend([(H0, block), ([0; 8], block), ([u32::MAX; 8], block)]);
        }
        for (i, (state, block)) in cases.iter().enumerate() {
            let (mut want, mut got) = (*state, *state);
            compress_portable(&mut want, block);
            ni(&mut got, block);
            assert_eq!(
                got, want,
                "case {i}: state {state:08x?}, block {block:02x?}"
            );
        }
    }

    #[test]
    fn each_kernel_passes_the_fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        let portable: Kernel = compress_portable;
        let kernels = [
            Some(("compress_portable", portable)),
            ni_kernel("each_kernel_passes_the_fips_vectors").map(|k| ("compress_ni", k)),
        ];
        for (name, kernel) in kernels.into_iter().flatten() {
            for (data, want) in vectors {
                assert_eq!(
                    hex(digest_with(kernel, data)),
                    want,
                    "{name}, {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn streaming_matches_the_portable_reference() {
        let mut rng = Rng(300);
        for len in 0..=300usize {
            let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let mut cuts: Vec<usize> = (0..3).map(|_| rng.next() as usize % (len + 1)).collect();
            cuts.sort_unstable();
            let mut hasher = Sha256::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                hasher.update(&data[from..cut]);
                from = cut;
            }
            assert_eq!(
                hasher.finalize(),
                digest_with(compress_portable, &data),
                "length {len}"
            );
        }
    }

    #[test]
    fn uncounted_hashing_leaves_this_threads_count_alone() {
        // The counter is process-wide and other tests hash concurrently, so
        // only "counted work shows up" is asserted as a lower bound.
        let before = sha256_block_count();
        let digest = uncounted(|| sha256(&[7u8; 4096]));
        assert_eq!(digest, sha256(&[7u8; 4096]));
        assert!(sha256_block_count() - before >= 65);
        assert!(!UNCOUNTED.get(), "the flag is restored");
    }
}
