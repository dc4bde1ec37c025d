//! Residency guard: an account lives once (DESIGN.md §14, "One home per
//! account"). A genesis of 20 000 keyed accounts is flushed, one block of
//! writes — transfers between them and to fresh addresses — is applied and
//! flushed again; the heap the tree keeps per account is gated on the
//! counting allocator, so a second copy of the accounts beside the HAMT
//! fails on any machine. One `#[test]`: the counters are process-wide.

use hc_actors::Ledger;
use hc_actors::ScaConfig;
use hc_state::StateTree;
use hc_types::{Address, CountingAlloc, Keypair, SubnetId, TokenAmount};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ACCOUNTS: u64 = 20_000;
const TRANSFERS: u64 = 1_000;
const FRESH: u64 = 100;

/// Live bytes the flushed tree keeps per account, measured at this commit
/// (x86_64 Linux, debug and release alike); the gate allows 2 % over it.
/// History: 429.21 B while the table kept every account in a map of its
/// own, beside the copy in the HAMT's leaves; 211.27 B with the HAMT as
/// the table.
const MEASURED_BYTES_PER_ACCOUNT: f64 = 211.27;

#[test]
fn an_account_lives_once() {
    let key = Keypair::from_seed([0x3e; 32]).public();
    let before = CountingAlloc::counts().live;
    let mut tree = StateTree::genesis(
        SubnetId::root(),
        ScaConfig::default(),
        (0..ACCOUNTS).map(|i| (Address::new(1_000 + i), key, TokenAmount::from_whole(10))),
    );
    tree.flush();
    let ledger = tree.accounts_mut();
    for i in 0..TRANSFERS {
        let from = Address::new(1_000 + (i * 7) % ACCOUNTS);
        let to = Address::new(1_000 + (i * 13 + 1) % ACCOUNTS);
        ledger
            .transfer(from, to, TokenAmount::from_atto(1))
            .unwrap();
    }
    for i in 0..FRESH {
        ledger.credit(Address::new(100_000 + i), TokenAmount::from_atto(1));
    }
    tree.flush();
    assert!(tree.is_committed());
    let kept = CountingAlloc::counts().live - before;

    let accounts = ACCOUNTS + FRESH;
    let per_account = kept as f64 / accounts as f64;
    println!("state tree keeps {kept} B live: {per_account:.2} B per account");
    assert!(
        per_account <= MEASURED_BYTES_PER_ACCOUNT * 1.02,
        "{per_account:.2} B per account exceeds the measured {MEASURED_BYTES_PER_ACCOUNT} + 2 %"
    );
    drop(tree);
}
