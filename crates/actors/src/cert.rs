//! Fund certificates: the cross-net acceleration path (paper §IV-A).
//!
//! Bottom-up and path messages are slow — they ride checkpoints through
//! every level of the hierarchy. The paper's acceleration: "each SA in the
//! path can send a direct message to the destination, certifying that the
//! user is the legitimate owner of the funds. This information can be used
//! by the destination subnet (depending on the finality required for the
//! actions to be performed) to indicate a pending payment or even as
//! tentative information to start operating as if these funds were already
//! settled."
//!
//! A [`FundCertificate`] is the committed cross-message plus the source
//! subnet's validator signatures. It conveys *no custody* — settlement
//! still happens through checkpoints and the SCA escrow — only an
//! attestation the destination may treat as a pending payment.

use hc_types::crypto::AggregateSignature;
use hc_types::{encode_fields, CanonicalEncode, ChainEpoch, Cid};

use crate::msg::CrossMsg;
use crate::sa::{SaError, SaState};

/// The signed body of a fund certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct CertBody {
    /// The committed cross-message (nonce-stamped by the source SCA).
    pub msg: CrossMsg,
    /// Source-chain epoch at which the message was committed.
    pub committed_at: ChainEpoch,
}

encode_fields!(CertBody { msg, committed_at });

/// A direct attestation that `msg` was committed in its source subnet,
/// signed by the source's validators per its Subnet Actor policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FundCertificate {
    /// The attested commitment.
    pub body: CertBody,
    /// Source-validator signatures over [`FundCertificate::signing_cid`].
    pub signatures: AggregateSignature,
}

impl FundCertificate {
    /// Creates an unsigned certificate for a committed message.
    pub fn new(msg: CrossMsg, committed_at: ChainEpoch) -> Self {
        FundCertificate {
            body: CertBody { msg, committed_at },
            signatures: AggregateSignature::new(),
        }
    }

    /// The CID validators sign.
    pub fn signing_cid(&self) -> Cid {
        self.body.cid()
    }

    /// Verifies the certificate against the source subnet's Subnet Actor
    /// (the destination reads the SA from a chain it tracks — its parent
    /// or another ancestor).
    ///
    /// # Errors
    ///
    /// Fails if the signatures do not satisfy the SA's policy.
    pub fn verify(&self, source_sa: &SaState) -> Result<(), SaError> {
        let policy = source_sa.signature_policy();
        policy.check(self.signing_cid().as_bytes(), &self.signatures)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::HcAddress;
    use crate::sa::SaConfig;
    use hc_types::{Address, Keypair, SubnetId, TokenAmount};

    fn setup() -> (SaState, Keypair, FundCertificate) {
        let mut sa = SaState::new(SaConfig::default());
        let kp = Keypair::from_seed([0xce; 32]);
        sa.join(Address::new(100), kp.public(), TokenAmount::from_whole(5))
            .unwrap();
        let msg = CrossMsg::transfer(
            HcAddress::new(SubnetId::root().child(Address::new(200)), Address::new(1)),
            HcAddress::new(SubnetId::root(), Address::new(2)),
            TokenAmount::from_whole(3),
        );
        let cert = FundCertificate::new(msg, ChainEpoch::new(7));
        (sa, kp, cert)
    }

    #[test]
    fn signed_certificate_verifies() {
        let (sa, kp, mut cert) = setup();
        let cid = cert.signing_cid();
        cert.signatures.add(kp.sign(cid.as_bytes()));
        cert.verify(&sa).unwrap();
    }

    #[test]
    fn unsigned_or_tampered_certificates_fail() {
        let (sa, kp, mut cert) = setup();
        assert!(cert.verify(&sa).is_err());

        let cid = cert.signing_cid();
        cert.signatures.add(kp.sign(cid.as_bytes()));
        // Tamper with the attested value after signing.
        cert.body.msg.value = TokenAmount::from_whole(1_000);
        assert!(cert.verify(&sa).is_err());
    }

    #[test]
    fn outsider_signatures_do_not_count() {
        let (sa, _kp, mut cert) = setup();
        let outsider = Keypair::from_seed([0xcf; 32]);
        let cid = cert.signing_cid();
        cert.signatures.add(outsider.sign(cid.as_bytes()));
        assert!(cert.verify(&sa).is_err());
    }
}
