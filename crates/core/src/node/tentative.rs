//! The fund certificates a node holds for payments on their way to it
//! (paper §IV-A): tentative information until the payment settles.
//!
//! A certificate is held under its payment's message without the nonce —
//! the one field a route rewrites: an LCA re-stamps a path payment as it
//! turns it around — by value, never a digest of it. The
//! settling message is looked up as it is, borrowed, so a settlement
//! copies nothing, and a top-down one, never certified, looks nothing up.
//! Identical transfers share a key; what a key holds per certificate is
//! what tells them apart, the source's nonce and commit epoch.
//!
//! A certificate can also arrive after its payment settled (its topic was
//! partitioned, or it was delayed). A settlement that finds nothing held
//! therefore owes a certificate and notes its source's head epoch at that
//! moment. The payment was committed at or before that epoch, so its late
//! certificate was too; a payment sent after the settlement is committed
//! later. A certificate committed by then pays the oldest such debt and is
//! dropped and counted, and any other is held: a certificate that never
//! comes leaves a debt no later transfer can pay by mistake. A settlement
//! that cannot be followed by its certificate — replayed from the journal,
//! re-executed in a catch-up, or from a source not running live — owes
//! nothing.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};

use hc_actors::cert::CertBody;
use hc_actors::{CrossMsg, CrossMsgKind, FundCertificate, HcAddress};
use hc_types::{Address, ChainEpoch, Nonce, TokenAmount};

/// The fields of a payment that its route leaves alone: all but the nonce.
type Fields<'a> = (
    &'a HcAddress,
    &'a HcAddress,
    &'a TokenAmount,
    &'a CrossMsgKind,
    &'a TokenAmount,
);

/// A message seen through its [`Fields`].
trait Unstamped {
    fn fields(&self) -> Fields<'_>;
}

impl Unstamped for CrossMsg {
    fn fields(&self) -> Fields<'_> {
        (&self.from, &self.to, &self.value, &self.kind, &self.fee)
    }
}

impl PartialEq for dyn Unstamped + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for dyn Unstamped + '_ {}

impl PartialOrd for dyn Unstamped + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn Unstamped + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.fields().cmp(&other.fields())
    }
}

/// A payment's key: its message's fields but the nonce, owned. The
/// derived order is [`Unstamped`]'s, field by field, so a settling message
/// is found borrowed.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Payment {
    from: HcAddress,
    to: HcAddress,
    value: TokenAmount,
    kind: CrossMsgKind,
    fee: TokenAmount,
}

impl Unstamped for Payment {
    fn fields(&self) -> Fields<'_> {
        (&self.from, &self.to, &self.value, &self.kind, &self.fee)
    }
}

impl<'a> Borrow<dyn Unstamped + 'a> for Payment {
    fn borrow(&self) -> &(dyn Unstamped + 'a) {
        self
    }
}

/// What a node holds for one payment key.
#[derive(Debug, Default)]
struct Held {
    /// Verified certificates, oldest first, by their source nonce and
    /// commit epoch (the rest of their body is the key). Each settles one;
    /// a redelivered copy is held once.
    certs: Vec<(Nonce, ChainEpoch)>,
    /// Settlements that found no certificate held, oldest first: the
    /// source's head epoch at each.
    owed: Vec<ChainEpoch>,
}

/// A node's tentative payments.
#[derive(Debug, Default)]
pub(super) struct Tentative {
    /// By payment key; a key leaves when it holds and owes nothing.
    payments: BTreeMap<Payment, Held>,
    /// Certificates dropped as late.
    late: u64,
}

impl Tentative {
    /// Holds `cert` until its payment settles — a redelivered copy of a
    /// held certificate once — unless it pays a settlement that owes it:
    /// then it is late, dropped and counted.
    pub(super) fn hold(&mut self, cert: FundCertificate) {
        let CertBody { msg, committed_at } = cert.body;
        let CrossMsg {
            from,
            to,
            value,
            nonce,
            kind,
            fee,
        } = msg;
        let payment = Payment {
            from,
            to,
            value,
            kind,
            fee,
        };
        let mut entry = match self.payments.entry(payment) {
            Entry::Vacant(vacant) => {
                let certs = vec![(nonce, committed_at)];
                vacant.insert(Held {
                    certs,
                    ..Held::default()
                });
                return;
            }
            Entry::Occupied(entry) => entry,
        };
        let held = entry.get_mut();
        if held.certs.contains(&(nonce, committed_at)) {
            return;
        }
        match held.owed.iter().position(|&head| committed_at <= head) {
            Some(debt) => {
                held.owed.remove(debt);
                self.late += 1;
                if held.certs.is_empty() && held.owed.is_empty() {
                    entry.remove();
                }
            }
            None => held.certs.push((nonce, committed_at)),
        }
    }

    /// The payment `msg` settled here: the oldest certificate held for it
    /// leaves. If none is held, the settlement owes one when `source_head`
    /// — the head epoch of the payment's source now — is given, that is
    /// when its certificate can still come. A top-down payment is never
    /// certified, so it costs nothing.
    pub(super) fn payment_settled(&mut self, msg: &CrossMsg, source_head: Option<ChainEpoch>) {
        if msg.is_top_down() {
            return;
        }
        let key = msg as &dyn Unstamped;
        match (self.payments.get_mut(key), source_head) {
            (Some(held), _) if !held.certs.is_empty() => {
                held.certs.remove(0);
                if held.certs.is_empty() && held.owed.is_empty() {
                    self.payments.remove(key);
                }
            }
            (Some(held), Some(head)) => held.owed.push(head),
            (None, Some(head)) => {
                let payment = Payment {
                    from: msg.from.clone(),
                    to: msg.to.clone(),
                    value: msg.value,
                    kind: msg.kind.clone(),
                    fee: msg.fee,
                };
                let owed = vec![head];
                self.payments.insert(
                    payment,
                    Held {
                        owed,
                        ..Held::default()
                    },
                );
            }
            (_, None) => {}
        }
    }

    /// Total certified incoming value for `addr`.
    pub(super) fn value_for(&self, addr: Address) -> TokenAmount {
        self.payments
            .iter()
            .filter(|(payment, _)| payment.to.raw == addr)
            .flat_map(|(payment, held)| held.certs.iter().map(|_| payment.value))
            .sum()
    }

    /// Certificates held.
    pub(super) fn len(&self) -> usize {
        self.payments.values().map(|held| held.certs.len()).sum()
    }

    /// Settlements owed a certificate.
    pub(super) fn owed(&self) -> usize {
        self.payments.values().map(|held| held.owed.len()).sum()
    }

    /// Certificates dropped as late.
    pub(super) fn late(&self) -> u64 {
        self.late
    }
}

#[cfg(test)]
mod tests {
    //! Holding and settling driven without a runtime: identical transfers,
    //! redelivered copies, late certificates, and debts only a certificate
    //! committed before its settlement can pay.

    use super::*;
    use hc_types::SubnetId;

    fn child() -> SubnetId {
        SubnetId::root().child(hc_types::Address::new(1_000))
    }

    /// A bottom-up payment of `whole` tokens, stamped `nonce` at its source.
    fn payment(whole: u64, nonce: u64) -> CrossMsg {
        let mut msg = CrossMsg::transfer(
            HcAddress::new(child(), Address::new(100)),
            HcAddress::new(SubnetId::root(), Address::new(200)),
            TokenAmount::from_whole(whole),
        );
        msg.nonce = Nonce::new(nonce);
        msg
    }

    /// `msg`'s certificate, committed at source epoch `at`.
    fn cert(msg: &CrossMsg, at: u64) -> FundCertificate {
        FundCertificate::new(msg.clone(), ChainEpoch::new(at))
    }

    /// The same payment as it settles: re-stamped on its route.
    fn settled(msg: &CrossMsg) -> CrossMsg {
        CrossMsg {
            nonce: Nonce::new(msg.nonce.value() + 40),
            ..msg.clone()
        }
    }

    fn head(epoch: u64) -> Option<ChainEpoch> {
        Some(ChainEpoch::new(epoch))
    }

    #[test]
    fn identical_transfers_each_settle_one_and_a_copy_is_held_once() {
        let mut t = Tentative::default();
        let (a, b) = (payment(3, 0), payment(3, 1));
        t.hold(cert(&a, 3));
        t.hold(cert(&a, 3)); // a redelivered copy
        t.hold(cert(&b, 3));
        assert_eq!(t.len(), 2);
        assert_eq!(t.value_for(Address::new(200)), TokenAmount::from_whole(6));
        t.payment_settled(&settled(&a), head(9));
        assert_eq!(t.len(), 1);
        t.payment_settled(&settled(&b), head(9));
        assert_eq!((t.len(), t.payments.len(), t.late()), (0, 0, 0));
    }

    #[test]
    fn a_certificate_committed_before_a_debt_pays_it() {
        let mut t = Tentative::default();
        let (a, b) = (payment(3, 0), payment(3, 1));
        t.payment_settled(&settled(&a), head(5));
        t.payment_settled(&settled(&b), head(6));
        t.hold(cert(&b, 4));
        t.hold(cert(&a, 3));
        assert_eq!((t.len(), t.late(), t.payments.len()), (0, 2, 0));
        t.hold(cert(&payment(4, 2), 4)); // another payment is held
        assert_eq!((t.len(), t.late()), (1, 2));
    }

    #[test]
    fn a_debt_whose_certificate_never_comes_takes_no_later_one() {
        let mut t = Tentative::default();
        let (lost, later) = (payment(3, 0), payment(3, 1));
        t.payment_settled(&settled(&lost), head(5));
        t.hold(cert(&later, 6)); // committed after the settlement: held
        assert_eq!((t.len(), t.late()), (1, 0));
        assert_eq!(t.value_for(Address::new(200)), TokenAmount::from_whole(3));
        t.payment_settled(&settled(&later), head(9));
        assert_eq!((t.len(), t.late()), (0, 0));
        t.hold(cert(&lost, 2)); // the lost one comes after all
        assert_eq!((t.len(), t.late(), t.payments.len()), (0, 1, 0));
    }

    #[test]
    fn a_top_down_or_replayed_settlement_owes_nothing() {
        let mut t = Tentative::default();
        let down = CrossMsg::transfer(
            HcAddress::new(SubnetId::root(), Address::new(200)),
            HcAddress::new(child(), Address::new(100)),
            TokenAmount::from_whole(1),
        );
        t.payment_settled(&down, head(5));
        let a = payment(3, 0);
        t.payment_settled(&settled(&a), None);
        assert!(t.payments.is_empty());
        t.hold(cert(&a, 3));
        assert_eq!((t.len(), t.late()), (1, 0));
        t.payment_settled(&settled(&a), None); // still settles what is held
        assert_eq!(t.len(), 0);
    }
}

#[cfg(test)]
mod node_tests {
    //! The node's own destination check before a settlement, apart from
    //! `route_event`'s, which hands a forwarding subnet no source head.

    use hc_actors::{CrossMsg, FundCertificate, HcAddress};
    use hc_state::VmEvent;
    use hc_types::{Address, ChainEpoch, SubnetId, TokenAmount};

    use crate::node::{Input, SubnetNode};
    use crate::{HierarchyRuntime, RuntimeConfig};

    #[test]
    fn only_a_payments_destination_settles_it() {
        // A forwarding node handed a settled payment with a source head and
        // a held certificate still settles nothing.
        let mut rt = HierarchyRuntime::new(RuntimeConfig::default());
        let root = SubnetId::root();
        let node = rt.nodes.get_mut(&root).unwrap();
        let source = HcAddress::new(root.child(Address::new(1_000)), Address::new(100));
        let payment = |to: &SubnetId| {
            let to = HcAddress::new(to.clone(), Address::new(200));
            CrossMsg::transfer(source.clone(), to, TokenAmount::from_whole(5))
        };
        let (forwarded, arrived) = (payment(&root.child(Address::new(1_001))), payment(&root));
        for msg in [&forwarded, &arrived] {
            let cert = FundCertificate::new(msg.clone(), ChainEpoch::new(3));
            node.receive(Input::Certificate(cert));
        }
        assert_eq!(node.tentative_count(), 2);
        let settle = |node: &mut SubnetNode, msg: &CrossMsg| {
            let event = VmEvent::CrossMsgApplied { msg: msg.clone() };
            node.apply_event(&event, false, Some(ChainEpoch::new(9)));
        };
        settle(node, &forwarded);
        assert_eq!(
            (node.tentative_count(), node.owed_certificates()),
            (2, 0),
            "a payment this subnet only forwards settled here"
        );
        settle(node, &arrived);
        assert_eq!((node.tentative_count(), node.owed_certificates()), (1, 0));
    }
}
