//! Micro-benchmarks of the substrate primitives: SHA-256, Merkle trees,
//! canonical encoding, state-tree flush, and block execution.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hc_actors::ScaConfig;
use hc_chain::{produce_block_with, ExecOptions};
use hc_state::{CidStore, Message, StateTree};
use hc_types::crypto::sha256;
use hc_types::merkle::MerkleTree;
use hc_types::{Address, CanonicalEncode, ChainEpoch, Cid, Keypair, Nonce, SubnetId, TokenAmount};

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("primitives");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    let data = vec![0xa5u8; 4096];
    group.throughput(Throughput::Bytes(4096));
    group.bench_function("sha256_4k", |b| b.iter(|| sha256(&data)));
    group.throughput(Throughput::Elements(1));

    let leaves: Vec<u64> = (0..1_000).collect();
    group.bench_function("merkle_1000_leaves", |b| {
        b.iter(|| MerkleTree::from_items(&leaves).root())
    });

    let user = Keypair::from_seed([0xbe; 32]);
    let tree = StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        [(
            Address::new(100),
            user.public(),
            TokenAmount::from_whole(1_000_000),
        )],
    );
    group.bench_function("state_recompute_root", |b| b.iter(|| tree.recompute_root()));

    group.bench_function("sign_and_verify_message", |b| {
        b.iter(|| {
            let msg = Message::transfer(
                Address::new(100),
                Address::new(101),
                TokenAmount::from_atto(1),
                Nonce::ZERO,
            )
            .sign(&user);
            assert!(msg.verify_signature());
            msg.cid()
        })
    });

    group.bench_function("produce_block_100_transfers", |b| {
        let proposer = Keypair::from_seed([0xbf; 32]);
        b.iter(|| {
            let mut t = tree.clone();
            let msgs: Vec<_> = (0..100)
                .map(|i| {
                    Message::transfer(
                        Address::new(100),
                        Address::new(101),
                        TokenAmount::from_atto(1),
                        Nonce::new(i),
                    )
                    .sign(&user)
                    .into()
                })
                .collect::<Vec<hc_state::SealedMessage>>();
            produce_block_with(
                &mut t,
                SubnetId::root(),
                ChainEpoch::new(1),
                Cid::NIL,
                vec![],
                msgs,
                &proposer,
                1_000,
                ExecOptions::default(),
            )
        })
    });

    group.bench_function("canonical_encode_checkpoint", |b| {
        let ckpt = hc_actors::Checkpoint::template(
            SubnetId::root().child(Address::new(100)),
            ChainEpoch::new(10),
            Cid::NIL,
        );
        b.iter(|| ckpt.canonical_bytes())
    });

    group.finish();
}

/// Incremental state-root maintenance vs from-scratch recomputation, over
/// tree size × number of accounts touched between flushes. The account
/// ledger is a persistent HAMT, so an incremental flush re-hashes only the
/// touched accounts' root paths — `touched · log n` — while recomputation
/// rebuilds the whole tree.
///
/// Sizes reach 1M accounts by default; set `HC_BENCH_HUGE=1` to extend to
/// 10M (multi-minute setup). Full recomputation is benchmarked only up to
/// 100k accounts — beyond that a single iteration takes seconds and the
/// incremental/persist numbers are the interesting ones. The last row,
/// `sparse_block`, is one rootnet-sized block: many scattered writes into a
/// mid-sized tree, with the nodes and bytes it hashes printed beside it.
fn bench_state_root(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_root");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_secs(1));

    let key = Keypair::from_seed([0xcd; 32]).public();
    let mut sizes = vec![1_000u64, 10_000, 100_000, 1_000_000];
    if std::env::var("HC_BENCH_HUGE").is_ok_and(|v| v == "1") {
        sizes.push(10_000_000);
    }
    for n in sizes {
        let mut tree = StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            (0..n).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(1))),
        );
        tree.flush();

        if n <= 100_000 {
            group.bench_function(
                BenchmarkId::new("full_recompute", format!("{n}_accounts")),
                |b| b.iter(|| tree.recompute_root()),
            );
        }

        for touched in [1u64, 10, 100] {
            let mut stamp: u128 = 0;
            group.bench_function(
                BenchmarkId::new("incremental", format!("{n}_accounts_{touched}_touched")),
                |b| {
                    b.iter(|| {
                        stamp += 1;
                        for t in 0..touched {
                            tree.accounts_mut()
                                .get_or_create(Address::new(100 + t))
                                .balance = TokenAmount::from_atto(stamp);
                        }
                        tree.flush()
                    })
                },
            );
        }

        // Fresh-account insert: the structural write the flat design paid
        // an O(n) interior rebuild for; the HAMT pays one root path.
        let mut next = n;
        group.bench_function(
            BenchmarkId::new("insert", format!("{n}_accounts_1_fresh")),
            |b| {
                b.iter(|| {
                    next += 1;
                    tree.accounts_mut()
                        .get_or_create(Address::new(100 + next))
                        .balance = TokenAmount::from_whole(1);
                    tree.flush()
                })
            },
        );

        // Incremental persist into a warm store: O(diff) blobs, because
        // unchanged HAMT subtrees are already present and get pruned.
        let store = CidStore::new();
        let manifest_cid = tree.persist(&store);
        let manifest_bytes = store.get(&manifest_cid).map_or(0, |b| b.len());
        println!("state_root/manifest_bytes/{n}_accounts: {manifest_bytes}");
        let mut stamp: u128 = 1 << 64;
        group.bench_function(
            BenchmarkId::new("persist_incremental", format!("{n}_accounts_1_touched")),
            |b| {
                b.iter(|| {
                    stamp += 1;
                    tree.accounts_mut().get_or_create(Address::new(100)).balance =
                        TokenAmount::from_atto(stamp);
                    tree.persist(&store)
                })
            },
        );
    }

    // The e2e `root-ramp` workload's measured block shape — 540 distinct
    // accounts written per flush out of 88 861 — so a HAMT layout change
    // can be sized (wall-clock, nodes and bytes hashed) without a full
    // end-to-end run. Each iteration writes a different scattered set.
    const SPARSE_ACCOUNTS: u64 = 88_861;
    const SPARSE_WRITES: u64 = 540;
    let mut tree = StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..SPARSE_ACCOUNTS).map(|i| (Address::new(100 + i), key, TokenAmount::from_whole(1))),
    );
    tree.flush();
    let mut block = 0u64;
    let mut sparse_block = |tree: &mut StateTree| {
        block += 1;
        for i in 0..SPARSE_WRITES {
            // A stride coprime to the account count: distinct, scattered.
            let addr = Address::new(100 + (block * 1_009 + i * 7_919) % SPARSE_ACCOUNTS);
            tree.accounts_mut().get_or_create(addr).balance += TokenAmount::from_atto(1);
        }
        tree.flush()
    };
    let before = tree.commit_stats();
    sparse_block(&mut tree);
    let after = tree.commit_stats();
    let (nodes, bytes) = (
        after.hamt_nodes_hashed - before.hamt_nodes_hashed,
        after.bytes_hashed - before.bytes_hashed,
    );
    println!(
        "state_root/sparse_block/{SPARSE_ACCOUNTS}_accounts_{SPARSE_WRITES}_writes: \
         {nodes} nodes, {bytes} bytes hashed per flush ({:.2} nodes, {} bytes per written account)",
        nodes as f64 / SPARSE_WRITES as f64,
        bytes / SPARSE_WRITES,
    );
    group.bench_function(
        BenchmarkId::new(
            "sparse_block",
            format!("{SPARSE_ACCOUNTS}_accounts_{SPARSE_WRITES}_writes"),
        ),
        |b| b.iter(|| sparse_block(&mut tree)),
    );
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_state_root);
criterion_main!(benches);
