//! Parameter codec for cross-net actor calls.
//!
//! Cross-net messages carry opaque call data (`CrossMsgKind::Call { method,
//! params }`). This module defines the method selectors understood by the
//! system actors and their parameters, which travel in the canonical
//! encoding — the piece a real deployment would get from its VM ABI.

use hc_actors::HcAddress;
use hc_types::{decode_fields, encode_fields, ByteReader, CanonicalDecode, Cid, DecodeError};

/// Method selector: initialize an atomic execution at the coordinator.
pub const METHOD_ATOMIC_INIT: u64 = 1;
/// Method selector: submit an atomic-execution output to the coordinator.
pub const METHOD_ATOMIC_SUBMIT: u64 = 2;
/// Method selector: abort an atomic execution.
pub const METHOD_ATOMIC_ABORT: u64 = 3;

/// Most parties, and most inputs, one [`AtomicInitParams`] may carry.
const MAX_PARTIES: usize = 1_024;

/// Parameters of [`METHOD_ATOMIC_SUBMIT`]: `(exec_id, output)`.
///
/// The submitting party is the cross-message's `from` address, so it does
/// not appear in the parameters — a subnet cannot impersonate another
/// party's submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicSubmitParams {
    /// The execution being committed to.
    pub exec: Cid,
    /// CID of the computed output state.
    pub output: Cid,
}

encode_fields!(AtomicSubmitParams { exec, output });
decode_fields!(AtomicSubmitParams { exec, output });

/// Parameters of [`METHOD_ATOMIC_ABORT`]: the execution ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AtomicAbortParams {
    /// The execution being aborted.
    pub exec: Cid,
}

encode_fields!(AtomicAbortParams { exec });
decode_fields!(AtomicAbortParams { exec });

/// Parameters of [`METHOD_ATOMIC_INIT`]: the parties and their locked
/// input-state CIDs (one per party, same order), at most 1 024 of each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicInitParams {
    /// The involved parties.
    pub parties: Vec<HcAddress>,
    /// CIDs of each party's locked input.
    pub inputs: Vec<Cid>,
}

encode_fields!(AtomicInitParams { parties, inputs });

impl CanonicalDecode for AtomicInitParams {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        let parties = Vec::<HcAddress>::read_bytes(r)?;
        if parties.len() > MAX_PARTIES {
            return Err(DecodeError::Invalid {
                what: "too many parties",
            });
        }
        let inputs = Vec::<Cid>::read_bytes(r)?;
        if inputs.len() > MAX_PARTIES {
            return Err(DecodeError::Invalid {
                what: "too many inputs",
            });
        }
        Ok(AtomicInitParams { parties, inputs })
    }
}

#[cfg(test)]
mod tests {
    use hc_types::{Address, CanonicalEncode, SubnetId};

    use super::*;

    #[test]
    fn submit_params_round_trip() {
        let p = AtomicSubmitParams {
            exec: Cid::digest(b"exec"),
            output: Cid::digest(b"out"),
        };
        assert_eq!(AtomicSubmitParams::decode(&p.canonical_bytes()).unwrap(), p);
    }

    #[test]
    fn abort_params_round_trip() {
        let p = AtomicAbortParams {
            exec: Cid::digest(b"exec"),
        };
        assert_eq!(AtomicAbortParams::decode(&p.canonical_bytes()).unwrap(), p);
    }

    #[test]
    fn decode_rejects_truncated_and_oversized() {
        let p = AtomicSubmitParams {
            exec: Cid::digest(b"exec"),
            output: Cid::digest(b"out"),
        };
        let bytes = p.canonical_bytes();
        assert!(AtomicSubmitParams::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(AtomicSubmitParams::decode(&longer).is_err());
        assert!(AtomicSubmitParams::decode(&[]).is_err());
    }

    #[test]
    fn init_params_bound_parties_and_subnet_depth() {
        let party = |depth: u64| {
            let route = (0..depth).map(|i| Address::new(100 + i));
            HcAddress::new(SubnetId::from_route(route), Address::new(7))
        };
        let init = |parties: Vec<HcAddress>| AtomicInitParams {
            parties,
            inputs: vec![Cid::digest(b"in")],
        };
        let ok = init(vec![party(2); MAX_PARTIES]);
        assert_eq!(AtomicInitParams::decode(&ok.canonical_bytes()).unwrap(), ok);
        let crowded = init(vec![party(2); MAX_PARTIES + 1]);
        assert!(AtomicInitParams::decode(&crowded.canonical_bytes()).is_err());
        // 33 segments exceeds MAX_DEPTH.
        let deep = init(vec![party(33)]);
        assert!(AtomicInitParams::decode(&deep.canonical_bytes()).is_err());
    }
}
