//! Content is hashed where it enters, once: a push or resolve for a CID
//! the node already holds is settled by the cache's index before anything
//! is looked at, and groups handed out or seeded in-process carry their
//! digest.
//!
//! One `#[test]` in a file of its own, so the process-wide SHA-256 block
//! counter measures this test's work alone.

use hc_actors::{CrossMsg, HcAddress, MsgGroup};
use hc_net::{ResolutionMsg, Resolver};
use hc_types::crypto::sha256_block_count;
use hc_types::{Address, SubnetId, TokenAmount};

fn msgs(n: u64) -> Vec<CrossMsg> {
    (0..n)
        .map(|i| {
            CrossMsg::transfer(
                HcAddress::new(
                    SubnetId::root().child(Address::new(9)),
                    Address::new(100 + i),
                ),
                HcAddress::new(SubnetId::root(), Address::new(200 + i)),
                TokenAmount::from_atto(u128::from(i) + 1),
            )
        })
        .collect()
}

#[test]
fn a_redelivered_group_hashes_nothing() {
    let raw = msgs(6);
    let cid = MsgGroup::seal(raw.clone()).cid();
    let mut r = Resolver::new();

    // The first delivery is network-borne content: derived, once.
    let before = sha256_block_count();
    r.handle(ResolutionMsg::Push {
        cid,
        msgs: raw.clone(),
    });
    let first = sha256_block_count() - before;
    assert!(
        first > 0,
        "the receiver derives the root of what it was sent"
    );
    assert_eq!(r.stats().pushes_cached, 1);

    // Every later copy — each group is pushed and, as often as not, also
    // pulled — costs a map lookup.
    let before = sha256_block_count();
    for _ in 0..3 {
        r.handle(ResolutionMsg::Push {
            cid,
            msgs: raw.clone(),
        });
        r.handle(ResolutionMsg::Resolve {
            cid,
            msgs: raw.clone(),
        });
    }
    // Handing the group to the cross-msg pool, comparing its digest there,
    // and seeding it into another node's resolver derive nothing either.
    let group = r.lookup_or_pull(cid, "t").expect("held");
    assert_eq!(group.cid(), cid);
    let mut other = Resolver::new();
    other.seed(group.clone());
    other.seed(group);
    assert_eq!(
        sha256_block_count(),
        before,
        "a held CID is settled without hashing"
    );
    assert_eq!(r.cache().len(), 1);
    assert_eq!(r.stats().rejected, 0);
    assert_eq!(&**other.cache().get(&cid).unwrap(), raw.as_slice());
}
