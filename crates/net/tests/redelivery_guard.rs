//! Content is hashed where it enters, once: a push or resolve for a CID
//! the node already holds is settled by the cache's index before anything
//! is looked at, a copy arriving after the group was used is dropped
//! before it is looked at, and groups handed out or served from a
//! registry carry their digest.
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
    // The node misses the group and pulls it, so it takes replies too.
    assert!(r.lookup_or_pull(cid, "t").is_err());

    // The first delivery is network-borne content: derived, once.
    let before = sha256_block_count();
    r.handle(
        ResolutionMsg::Push {
            cid,
            msgs: raw.clone(),
        },
        |_| None,
    );
    let first = sha256_block_count() - before;
    assert!(
        first > 0,
        "the receiver derives the root of what it was sent"
    );
    assert_eq!(r.stats().pushes_cached, 1);

    // Every later copy while the group is held — each group is pushed
    // and, as often as not, also pulled — costs a map lookup.
    let before = sha256_block_count();
    let copies = |r: &mut Resolver| {
        for _ in 0..3 {
            r.handle(
                ResolutionMsg::Push {
                    cid,
                    msgs: raw.clone(),
                },
                |_| None,
            );
            r.handle(
                ResolutionMsg::Resolve {
                    cid,
                    msgs: raw.clone(),
                },
                |_| None,
            );
        }
    };
    copies(&mut r);
    assert_eq!(r.cache().len(), 1);
    // Handing the group to the cross-msg pool, comparing its digest there,
    // and serving it from another node's registry derive nothing either.
    let group = r.lookup_or_pull(cid, "t").expect("held");
    assert_eq!(group.cid(), cid);
    let mut other = Resolver::new();
    let mut replies = Vec::new();
    for _ in 0..2 {
        let pull = ResolutionMsg::Pull {
            cid,
            reply_topic: "t".into(),
        };
        replies.extend(other.handle(pull, |_| Some(&group)));
    }
    // Copies arriving after the use — a duplicated push, a retried pull's
    // reply — are dropped before they are looked at, and not kept.
    let stats = r.stats();
    copies(&mut r);
    assert_eq!(
        sha256_block_count(),
        before,
        "a held or used CID is settled without hashing"
    );
    assert!(r.cache().is_empty(), "a used group is not kept");
    assert_eq!(
        r.stats(),
        stats,
        "a late copy is neither cached nor rejected"
    );
    assert_eq!(r.stats().rejected, 0);
    let served = ResolutionMsg::Resolve { cid, msgs: raw };
    assert_eq!(
        replies,
        [("t".to_owned(), served.clone()), ("t".to_owned(), served)]
    );
    assert!(other.cache().is_empty(), "a served own group is not cached");
}
