//! Cross-net atomic execution (paper §IV-D).
//!
//! An atomic execution lets users in different subnets compute a state
//! change over inputs from all of their subnets such that either every
//! subnet incorporates the output or none does. The protocol "resembles a
//! two-phase commit protocol with the SCA of the least common
//! ancestor/parent serving as a coordinator":
//!
//! 1. **Initialization** — users agree off-chain, lock their input state in
//!    their own subnets, and register the execution with the coordinator
//!    ([`AtomicExecRegistry::init`]).
//! 2. **Off-chain execution** — every user fetches the other locked inputs
//!    (by CID) and computes the output locally.
//! 3. **Commit** — each user submits the CID of its computed output to the
//!    coordinator ([`AtomicExecRegistry::submit_output`]). When all parties
//!    have submitted *matching* outputs the execution is `Committed`.
//! 4. **Termination** — subnets watching the coordinator incorporate the
//!    output and unlock inputs on commit, or revert on abort. Any party may
//!    abort while the execution is pending
//!    ([`AtomicExecRegistry::abort`]); aborts after commit are ignored.
//!
//! The registry is the coordinator's state; it lives inside the SCA of the
//! execution subnet (usually the least common ancestor of the parties).

use std::collections::BTreeMap;
use std::fmt;

use hc_types::decode::{ByteReader, CanonicalDecode, DecodeError};
use hc_types::{decode_fields, encode_fields, CanonicalEncode, ChainEpoch, Cid};

use crate::msg::HcAddress;

/// Identifier of an atomic execution: the CID of its initialization record
/// (parties + locked inputs + initiation epoch), making IDs unforgeable and
/// deterministic.
pub type ExecId = Cid;

/// Lifecycle of an atomic execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomicExecStatus {
    /// Initialized; waiting for output submissions.
    Pending,
    /// All parties submitted matching outputs: subnets may incorporate the
    /// output state and unlock inputs.
    Committed,
    /// A party aborted (or submissions conflicted, or the execution timed
    /// out): subnets revert and unlock inputs unchanged.
    Aborted,
}

impl fmt::Display for AtomicExecStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomicExecStatus::Pending => "pending",
            AtomicExecStatus::Committed => "committed",
            AtomicExecStatus::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

/// One atomic execution tracked by the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicExecution {
    /// The parties involved, each identified by subnet + address.
    pub parties: Vec<HcAddress>,
    /// CID of each party's locked input state.
    pub inputs: Vec<Cid>,
    /// Output CIDs submitted so far, per party.
    pub submitted: BTreeMap<HcAddress, Cid>,
    /// Current status.
    pub status: AtomicExecStatus,
    /// Epoch (of the coordinator chain) at initialization, for timeouts.
    pub initiated_at: ChainEpoch,
}

impl AtomicExecution {
    /// Returns `true` once every party has submitted an output.
    pub fn all_submitted(&self) -> bool {
        self.submitted.len() == self.parties.len()
    }
}

impl CanonicalEncode for AtomicExecStatus {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            AtomicExecStatus::Pending => 0,
            AtomicExecStatus::Committed => 1,
            AtomicExecStatus::Aborted => 2,
        };
        tag.write_bytes(out);
    }
}

impl CanonicalDecode for AtomicExecStatus {
    fn read_bytes(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
        match u8::read_bytes(r)? {
            0 => Ok(AtomicExecStatus::Pending),
            1 => Ok(AtomicExecStatus::Committed),
            2 => Ok(AtomicExecStatus::Aborted),
            tag => Err(DecodeError::BadTag {
                what: "AtomicExecStatus",
                tag,
            }),
        }
    }
}

encode_fields!(AtomicExecution {
    parties,
    inputs,
    submitted,
    status,
    initiated_at,
});
decode_fields!(AtomicExecution {
    parties,
    inputs,
    submitted,
    status,
    initiated_at,
});

/// Errors returned by the atomic execution coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomicError {
    /// Executions need at least two distinct parties.
    TooFewParties,
    /// Party list contains duplicates.
    DuplicateParty(HcAddress),
    /// Every party must lock exactly one input.
    InputArityMismatch,
    /// An execution with this ID already exists.
    AlreadyExists(ExecId),
    /// No execution with this ID.
    NotFound(ExecId),
    /// The sender is not a party of the execution.
    NotAParty(HcAddress),
    /// The party already submitted an output.
    AlreadySubmitted(HcAddress),
    /// The execution already terminated with this status.
    AlreadyTerminated(AtomicExecStatus),
}

impl fmt::Display for AtomicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtomicError::TooFewParties => f.write_str("atomic execution needs >= 2 parties"),
            AtomicError::DuplicateParty(p) => write!(f, "duplicate party {p}"),
            AtomicError::InputArityMismatch => {
                f.write_str("number of inputs must match number of parties")
            }
            AtomicError::AlreadyExists(id) => write!(f, "execution {id} already exists"),
            AtomicError::NotFound(id) => write!(f, "execution {id} not found"),
            AtomicError::NotAParty(p) => write!(f, "{p} is not a party of the execution"),
            AtomicError::AlreadySubmitted(p) => write!(f, "{p} already submitted an output"),
            AtomicError::AlreadyTerminated(s) => write!(f, "execution already {s}"),
        }
    }
}

impl std::error::Error for AtomicError {}

/// The coordinator state: all atomic executions registered with this SCA.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AtomicExecRegistry {
    executions: BTreeMap<ExecId, AtomicExecution>,
}

impl AtomicExecRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new atomic execution over `parties` with their locked
    /// `inputs` (one CID per party, same order). Returns the deterministic
    /// execution ID.
    ///
    /// # Errors
    ///
    /// Fails for fewer than two parties, duplicate parties, arity
    /// mismatches, or if the same execution was already registered.
    pub fn init(
        &mut self,
        parties: Vec<HcAddress>,
        inputs: Vec<Cid>,
        now: ChainEpoch,
    ) -> Result<ExecId, AtomicError> {
        if parties.len() < 2 {
            return Err(AtomicError::TooFewParties);
        }
        for (i, p) in parties.iter().enumerate() {
            if parties[..i].contains(p) {
                return Err(AtomicError::DuplicateParty(p.clone()));
            }
        }
        if inputs.len() != parties.len() {
            return Err(AtomicError::InputArityMismatch);
        }
        let id = (&parties, &inputs, now).cid();
        if self.executions.contains_key(&id) {
            return Err(AtomicError::AlreadyExists(id));
        }
        self.executions.insert(
            id,
            AtomicExecution {
                parties,
                inputs,
                submitted: BTreeMap::new(),
                status: AtomicExecStatus::Pending,
                initiated_at: now,
            },
        );
        Ok(id)
    }

    /// Looks up an execution.
    pub fn get(&self, id: &ExecId) -> Option<&AtomicExecution> {
        self.executions.get(id)
    }

    /// Number of executions tracked (any status).
    pub fn len(&self) -> usize {
        self.executions.len()
    }

    /// Returns `true` if no executions are tracked.
    pub fn is_empty(&self) -> bool {
        self.executions.is_empty()
    }

    /// Iterates over `(id, execution)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ExecId, &AtomicExecution)> {
        self.executions.iter()
    }

    /// Returns `true` if any execution is still pending (drives the
    /// coordinator's timeout sweep scheduling).
    pub fn has_pending(&self) -> bool {
        self.executions
            .values()
            .any(|e| e.status == AtomicExecStatus::Pending)
    }

    /// Submits `party`'s computed output CID.
    ///
    /// The execution commits when every party has submitted and all outputs
    /// match; it aborts immediately if a submission conflicts with an
    /// earlier one (the outputs can never all match anymore).
    ///
    /// # Errors
    ///
    /// Fails if the execution is unknown or terminated, the sender is not a
    /// party, or the party already submitted.
    pub fn submit_output(
        &mut self,
        id: &ExecId,
        party: HcAddress,
        output: Cid,
    ) -> Result<AtomicExecStatus, AtomicError> {
        let exec = self
            .executions
            .get_mut(id)
            .ok_or(AtomicError::NotFound(*id))?;
        if exec.status != AtomicExecStatus::Pending {
            return Err(AtomicError::AlreadyTerminated(exec.status));
        }
        if !exec.parties.contains(&party) {
            return Err(AtomicError::NotAParty(party));
        }
        if exec.submitted.contains_key(&party) {
            return Err(AtomicError::AlreadySubmitted(party));
        }
        if let Some(existing) = exec.submitted.values().next() {
            if *existing != output {
                // Conflicting outputs can never converge: abort now.
                exec.status = AtomicExecStatus::Aborted;
                exec.submitted.insert(party, output);
                return Ok(AtomicExecStatus::Aborted);
            }
        }
        exec.submitted.insert(party, output);
        if exec.all_submitted() {
            exec.status = AtomicExecStatus::Committed;
        }
        Ok(exec.status)
    }

    /// Aborts a pending execution on behalf of `party`. "To prevent the
    /// protocol from blocking if one of the parties disappears halfway, any
    /// user is allowed to abort the execution at any time" (paper §IV-D).
    /// Aborts arriving after commit are rejected ("possible aborts are no
    /// longer taken into account").
    ///
    /// # Errors
    ///
    /// Fails if the execution is unknown or already terminated, or the
    /// sender is not a party.
    pub fn abort(&mut self, id: &ExecId, party: &HcAddress) -> Result<(), AtomicError> {
        let exec = self
            .executions
            .get_mut(id)
            .ok_or(AtomicError::NotFound(*id))?;
        if exec.status != AtomicExecStatus::Pending {
            return Err(AtomicError::AlreadyTerminated(exec.status));
        }
        if !exec.parties.contains(party) {
            return Err(AtomicError::NotAParty(party.clone()));
        }
        exec.status = AtomicExecStatus::Aborted;
        Ok(())
    }

    /// Aborts every pending execution initiated more than `timeout` epochs
    /// ago, guaranteeing the protocol's *timeliness* property. Returns the
    /// aborted execution IDs.
    pub fn abort_stale(&mut self, now: ChainEpoch, timeout: u64) -> Vec<ExecId> {
        let mut aborted = Vec::new();
        for (id, exec) in self.executions.iter_mut() {
            if exec.status == AtomicExecStatus::Pending && now.since(exec.initiated_at) > timeout {
                exec.status = AtomicExecStatus::Aborted;
                aborted.push(*id);
            }
        }
        aborted
    }
}

encode_fields!(AtomicExecRegistry { executions });
decode_fields!(AtomicExecRegistry { executions });

#[cfg(test)]
mod tests {
    use super::*;
    use hc_types::{Address, SubnetId};

    fn party(route: &[u64], id: u64) -> HcAddress {
        HcAddress::new(
            SubnetId::from_route(route.iter().copied().map(Address::new)),
            Address::new(id),
        )
    }

    fn two_party_exec() -> (AtomicExecRegistry, ExecId, HcAddress, HcAddress) {
        let mut reg = AtomicExecRegistry::new();
        let (a, b) = (party(&[100], 1), party(&[101], 2));
        let id = reg
            .init(
                vec![a.clone(), b.clone()],
                vec![Cid::digest(b"in-a"), Cid::digest(b"in-b")],
                ChainEpoch::new(5),
            )
            .unwrap();
        (reg, id, a, b)
    }

    #[test]
    fn happy_path_commits_on_matching_outputs() {
        let (mut reg, id, a, b) = two_party_exec();
        let out = Cid::digest(b"output");
        assert_eq!(
            reg.submit_output(&id, a, out).unwrap(),
            AtomicExecStatus::Pending
        );
        assert_eq!(
            reg.submit_output(&id, b, out).unwrap(),
            AtomicExecStatus::Committed
        );
        assert_eq!(reg.get(&id).unwrap().status, AtomicExecStatus::Committed);
    }

    #[test]
    fn conflicting_outputs_abort() {
        let (mut reg, id, a, b) = two_party_exec();
        reg.submit_output(&id, a, Cid::digest(b"x")).unwrap();
        assert_eq!(
            reg.submit_output(&id, b, Cid::digest(b"y")).unwrap(),
            AtomicExecStatus::Aborted
        );
    }

    #[test]
    fn abort_before_commit_wins_and_late_abort_is_ignored() {
        let (mut reg, id, a, b) = two_party_exec();
        let out = Cid::digest(b"output");
        reg.submit_output(&id, a.clone(), out).unwrap();
        reg.abort(&id, &b).unwrap();
        assert_eq!(reg.get(&id).unwrap().status, AtomicExecStatus::Aborted);
        // Submissions after abort are rejected.
        assert!(matches!(
            reg.submit_output(&id, b.clone(), out),
            Err(AtomicError::AlreadyTerminated(AtomicExecStatus::Aborted))
        ));

        // On a fresh execution, abort after commit is rejected.
        let (mut reg, id, a, b) = two_party_exec();
        reg.submit_output(&id, a.clone(), out).unwrap();
        reg.submit_output(&id, b, out).unwrap();
        assert!(matches!(
            reg.abort(&id, &a),
            Err(AtomicError::AlreadyTerminated(AtomicExecStatus::Committed))
        ));
    }

    #[test]
    fn init_validates_parties_and_inputs() {
        let mut reg = AtomicExecRegistry::new();
        let a = party(&[100], 1);
        assert_eq!(
            reg.init(vec![a.clone()], vec![Cid::NIL], ChainEpoch::GENESIS),
            Err(AtomicError::TooFewParties)
        );
        assert_eq!(
            reg.init(
                vec![a.clone(), a.clone()],
                vec![Cid::NIL, Cid::NIL],
                ChainEpoch::GENESIS
            ),
            Err(AtomicError::DuplicateParty(a.clone()))
        );
        assert_eq!(
            reg.init(
                vec![a.clone(), party(&[101], 2)],
                vec![Cid::NIL],
                ChainEpoch::GENESIS
            ),
            Err(AtomicError::InputArityMismatch)
        );
    }

    #[test]
    fn duplicate_init_is_rejected_and_ids_are_deterministic() {
        let mut reg = AtomicExecRegistry::new();
        let parties = vec![party(&[100], 1), party(&[101], 2)];
        let inputs = vec![Cid::digest(b"a"), Cid::digest(b"b")];
        let id = reg
            .init(parties.clone(), inputs.clone(), ChainEpoch::new(1))
            .unwrap();
        assert_eq!(
            reg.init(parties.clone(), inputs.clone(), ChainEpoch::new(1)),
            Err(AtomicError::AlreadyExists(id))
        );
        // Different epoch gives a different execution.
        let id2 = reg.init(parties, inputs, ChainEpoch::new(2)).unwrap();
        assert_ne!(id, id2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn outsiders_cannot_submit_or_abort() {
        let (mut reg, id, _, _) = two_party_exec();
        let outsider = party(&[999], 9);
        assert!(matches!(
            reg.submit_output(&id, outsider.clone(), Cid::NIL),
            Err(AtomicError::NotAParty(_))
        ));
        assert!(matches!(
            reg.abort(&id, &outsider),
            Err(AtomicError::NotAParty(_))
        ));
    }

    #[test]
    fn double_submission_is_rejected() {
        let (mut reg, id, a, _) = two_party_exec();
        reg.submit_output(&id, a.clone(), Cid::digest(b"o"))
            .unwrap();
        assert!(matches!(
            reg.submit_output(&id, a, Cid::digest(b"o")),
            Err(AtomicError::AlreadySubmitted(_))
        ));
    }

    #[test]
    fn stale_executions_time_out() {
        let (mut reg, id, a, _) = two_party_exec(); // initiated at epoch 5
        reg.submit_output(&id, a, Cid::digest(b"o")).unwrap();
        assert!(reg.abort_stale(ChainEpoch::new(10), 10).is_empty());
        let aborted = reg.abort_stale(ChainEpoch::new(16), 10);
        assert_eq!(aborted, vec![id]);
        assert_eq!(reg.get(&id).unwrap().status, AtomicExecStatus::Aborted);
        // Idempotent.
        assert!(reg.abort_stale(ChainEpoch::new(30), 10).is_empty());
    }
}
