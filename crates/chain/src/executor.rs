//! Block production and validation.
//!
//! Producing a block (proposer side) and executing it (validator side) run
//! the same code path over the same [`StateTree`], in place, which is what
//! makes the state root in the header verifiable: a validator re-executes
//! the payload inside [`StateTree::commit_if`], which keeps the writes only
//! if the root comes out at the header's and otherwise puts the tree back.
//!
//! Both sides take [`ExecOptions`]: the node's verification counters and a
//! worker count. The block's signatures are batch pre-verified — a memo
//! read for messages this node admitted, a full verification for messages
//! that arrived cold — then the payload runs on the one engine there is —
//! the deterministic [`Schedule`] derived from the block's access sets
//! (DESIGN.md §15), its conflict-free lanes laid on the workers by
//! [`fan_out`]. `parallelism` only sizes that fan-out; it never selects
//! code. Receipts, gas, and state roots are bit-identical with the
//! counters on/off and at every worker count: the scheduler only reorders
//! messages whose access sets are provably disjoint, and each lane replays
//! its messages in block order.

use std::collections::BTreeMap;

use hc_state::{
    apply_implicit, apply_sealed, AccountState, ImplicitMsg, LaneOverlay, Receipt, SealedMessage,
    SigCache, StateAccess, StateTree,
};
use hc_types::{Address, ChainEpoch, Cid, Keypair, SubnetId};

use crate::block::{Block, BlockHeader};
use crate::schedule::{assign_lanes, fan_out, Schedule, Segment};

/// A produced or executed block together with its receipts.
#[derive(Debug, Clone)]
pub struct ExecutedBlock {
    /// The block.
    pub block: Block,
    /// One receipt per message, implicit messages first (matching the
    /// execution order).
    pub receipts: Vec<Receipt>,
}

impl ExecutedBlock {
    /// Total gas consumed by the block.
    pub fn gas_used(&self) -> u64 {
        self.receipts.iter().map(|r| r.gas_used).sum()
    }
}

/// Crypto-pipeline options for block production and validation.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions<'a> {
    /// The node's verification counters: each verdict is counted as a
    /// memo read (hit) or a full verification (miss). `None` counts
    /// nothing; verdicts are the same either way.
    pub sig_cache: Option<&'a SigCache>,
    /// Worker threads for batch signature pre-verification *and* for the
    /// lanes of the payload's [`Schedule`] (`0` counts as one: everything
    /// stays on the caller's thread). Receipts, gas, and state roots are
    /// identical at every setting. A block of a wave gets its share of the
    /// runtime's workers here, not all of them; the thread that runs the
    /// block counts as one.
    pub parallelism: usize,
}

/// Errors surfaced by block execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// The block is structurally invalid.
    Invalid(String),
    /// Re-execution produced a different state root than the header claims.
    StateRootMismatch {
        /// Root committed in the header.
        claimed: Cid,
        /// Root obtained by re-execution.
        computed: Cid,
    },
    /// The block targets a different subnet or epoch than expected.
    WrongContext(String),
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Invalid(why) => write!(f, "invalid block: {why}"),
            BlockError::StateRootMismatch { claimed, computed } => {
                write!(
                    f,
                    "state root mismatch: header {claimed}, computed {computed}"
                )
            }
            BlockError::WrongContext(why) => write!(f, "wrong context: {why}"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Batch signature pre-verification: decides the signature verdict of every
/// message. A message carrying a memoized verdict (one this node admitted)
/// costs a memo read; when every message does, the batch stays on the
/// caller's thread. Otherwise the work fans across up to `parallelism`
/// threads ([`fan_out`]), and each cold message (decoded from the journal
/// or pulled from a peer) is verified in full, memoizing a pass on the
/// value. `cache`, when given, counts each verdict. Verdict *values* are
/// independent of thread count, counters and memo state.
///
/// As a side effect each message's CID and verdict memos are warmed off
/// the execution path.
pub fn preverify_signatures(
    msgs: &[SealedMessage],
    cache: Option<&SigCache>,
    parallelism: usize,
) -> Vec<bool> {
    let workers = if msgs.iter().all(SealedMessage::is_verified) {
        1
    } else {
        parallelism
    };
    fan_out(msgs, workers, |m| match cache {
        Some(c) => c.verify_sealed(m),
        None => m.verify_signature(),
    })
}

/// One executed lane: its lane index, the receipts of its messages (lane
/// order = block order within the lane), and its private write-set.
type LaneOutcome = (usize, Vec<Receipt>, BTreeMap<Address, AccountState>);

/// Executes a block's payload against `tree` in canonical order — implicit
/// messages first (cross-net work committed by consensus, paper Fig. 3),
/// then signed user messages over the deterministic access-set
/// [`Schedule`] — on up to `parallelism` workers.
///
/// Implicit messages and serial segments run one at a time directly on
/// `tree`. Each parallel segment's lanes are deterministically assigned to
/// workers ([`assign_lanes`] — the same assignment
/// [`Schedule::critical_path`] prices) and executed through [`fan_out`],
/// every lane against a private [`LaneOverlay`] over the shared read-only
/// state; lane write-sets are merged back in lane order (they are disjoint
/// by construction) and receipts scattered to canonical block positions.
/// `verdicts` carries one pre-decided signature verdict per signed message
/// — lanes never verify a signature.
///
/// The result equals applying the messages one after another in block
/// order at every `parallelism`: within each dependency chain (lane, or
/// serial barrier) messages execute in block order against exactly the
/// state that loop would show them, because every account a lane reads or
/// writes is untouched by all other lanes of its segment.
fn execute_payload(
    tree: &mut StateTree,
    epoch: ChainEpoch,
    implicit: &[ImplicitMsg],
    signed: &[SealedMessage],
    verdicts: &[bool],
    parallelism: usize,
) -> Vec<Receipt> {
    let mut receipts = Vec::with_capacity(implicit.len() + signed.len());
    for m in implicit {
        receipts.push(apply_implicit(tree, epoch, m));
    }
    let schedule = Schedule::build(signed);
    let mut signed_receipts: Vec<Option<Receipt>> = vec![None; signed.len()];
    for segment in schedule.segments() {
        match segment {
            Segment::Serial(idxs) => {
                for &i in idxs {
                    signed_receipts[i] = Some(apply_sealed(tree, epoch, &signed[i], verdicts[i]));
                }
            }
            Segment::Parallel(lanes) => {
                // One item per worker: that worker's lanes, in the order
                // `assign_lanes` dealt them.
                let assignment = assign_lanes(lanes, parallelism);
                let mut outcomes: Vec<LaneOutcome> = {
                    let base: &StateTree = tree;
                    fan_out(&assignment, assignment.len(), |lane_ids| {
                        lane_ids
                            .iter()
                            .map(|&l| {
                                let mut overlay = LaneOverlay::new(base);
                                let lane_receipts = lanes[l]
                                    .iter()
                                    .map(|&i| {
                                        apply_sealed(&mut overlay, epoch, &signed[i], verdicts[i])
                                    })
                                    .collect();
                                (l, lane_receipts, overlay.into_writes())
                            })
                            .collect::<Vec<LaneOutcome>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect()
                };
                // Merge in lane order. The write-sets are pairwise disjoint,
                // so this order is cosmetic — but keeping it fixed makes the
                // merge auditably deterministic.
                outcomes.sort_unstable_by_key(|(l, ..)| *l);
                for (l, lane_receipts, writes) in outcomes {
                    for (&i, receipt) in lanes[l].iter().zip(lane_receipts) {
                        signed_receipts[i] = Some(receipt);
                    }
                    tree.absorb_accounts(writes);
                }
            }
        }
    }
    receipts.extend(
        signed_receipts
            .into_iter()
            .map(|r| r.expect("schedule covers every signed message exactly once")),
    );
    receipts
}

/// Produces a block at `epoch` on top of `parent`, executing the payload
/// against `tree` (which is left at the post-block state) and sealing the
/// result with the proposer's key.
///
/// Signatures are batch pre-verified up front — the same way as in
/// validation — and the payload then runs on the scheduled engine with
/// `opts.parallelism` workers. Messages selected from a mempool carry the
/// verdict admission memoized on them, so none is verified a second time,
/// and the messages root reuses each message's memoized CID.
// The argument list mirrors the block header fields one-to-one; a builder
// would only obscure that correspondence.
#[allow(clippy::too_many_arguments)]
pub fn produce_block_with(
    tree: &mut StateTree,
    subnet: SubnetId,
    epoch: ChainEpoch,
    parent: Cid,
    implicit_msgs: Vec<ImplicitMsg>,
    signed_msgs: Vec<SealedMessage>,
    proposer: &Keypair,
    timestamp_ms: u64,
    opts: ExecOptions<'_>,
) -> ExecutedBlock {
    let verdicts = preverify_signatures(&signed_msgs, opts.sig_cache, opts.parallelism);
    let receipts = execute_payload(
        tree,
        epoch,
        &implicit_msgs,
        &signed_msgs,
        &verdicts,
        opts.parallelism,
    );
    let header = BlockHeader {
        subnet,
        epoch,
        parent,
        state_root: tree.flush(),
        msgs_root: Cid::NIL, // derived by `Block::seal` from the payload
        proposer: proposer.public(),
        timestamp_ms,
    };
    let block = Block::seal(header, signed_msgs, implicit_msgs, proposer);
    ExecutedBlock { block, receipts }
}

/// Validates and executes a received block against `tree`: the block's
/// signatures are batch pre-verified (across `opts.parallelism` threads —
/// a decoded block arrives with no verdicts, and its passing ones are
/// memoized on its values), then the payload consumes the verdicts on the
/// scheduled engine with the same worker count.
///
/// The payload runs in place, as in production, inside
/// [`StateTree::commit_if`]. On success the tree holds the post-block
/// state, committed at the header's root, and the receipts are returned.
/// On a state-root mismatch the tree is put back to the *pre-block* state
/// at O(touched) cost; every other failure is found before execution.
///
/// # Errors
///
/// Fails on structural violations, wrong subnet, or a state-root mismatch.
pub fn execute_block_with(
    tree: &mut StateTree,
    block: &Block,
    opts: ExecOptions<'_>,
) -> Result<Vec<Receipt>, BlockError> {
    block.validate_structure().map_err(BlockError::Invalid)?;
    if block.header.subnet != *tree.subnet_id() {
        return Err(BlockError::WrongContext(format!(
            "block for {} executed on {}",
            block.header.subnet,
            tree.subnet_id()
        )));
    }
    let verdicts = preverify_signatures(&block.signed_msgs, opts.sig_cache, opts.parallelism);
    let claimed = block.header.state_root;
    tree.commit_if(claimed, |tree| {
        execute_payload(
            tree,
            block.header.epoch,
            &block.implicit_msgs,
            &block.signed_msgs,
            &verdicts,
            opts.parallelism,
        )
    })
    .map_err(|computed| BlockError::StateRootMismatch { claimed, computed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_actors::ScaConfig;
    use hc_state::Message;
    use hc_types::{Address, Keypair, Nonce, TokenAmount};

    fn setup() -> (StateTree, Keypair, Keypair) {
        let user = Keypair::from_seed([0xe1; 32]);
        let proposer = Keypair::from_seed([0xe2; 32]);
        let tree = StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            [(
                Address::new(100),
                user.public(),
                TokenAmount::from_whole(100),
            )],
        );
        (tree, user, proposer)
    }

    fn transfer(user: &Keypair, nonce: u64) -> SealedMessage {
        Message::transfer(
            Address::new(100),
            Address::new(101),
            TokenAmount::from_whole(1),
            Nonce::new(nonce),
        )
        .sign(user)
        .into()
    }

    #[test]
    fn produced_block_replays_identically_on_validators() {
        let (mut proposer_tree, user, proposer) = setup();
        let mut validator_tree = proposer_tree.clone();

        let executed = produce_block_with(
            &mut proposer_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            vec![transfer(&user, 0), transfer(&user, 1)],
            &proposer,
            1_000,
            ExecOptions::default(),
        );
        assert!(executed.receipts.iter().all(|r| r.exit.is_ok()));
        assert!(executed.gas_used() > 0);

        let receipts =
            execute_block_with(&mut validator_tree, &executed.block, ExecOptions::default())
                .unwrap();
        assert_eq!(receipts.len(), 2);
        // Validation flushed to the root it checked against the header:
        // the tree is committed and the next flush is free.
        assert!(validator_tree.is_committed());
        let hashed = validator_tree.commit_stats().bytes_hashed;
        assert_eq!(validator_tree.flush(), proposer_tree.flush());
        assert_eq!(validator_tree.commit_stats().bytes_hashed, hashed);
        assert_eq!(
            validator_tree
                .accounts()
                .get(Address::new(101))
                .unwrap()
                .balance,
            TokenAmount::from_whole(2)
        );
    }

    /// A child block whose install list mints, sealed over the root its
    /// producer reached by minting, is outside input a validator refuses:
    /// its VM mints nothing off the rootnet, so the root differs, and the
    /// tree is put back.
    #[test]
    fn a_child_block_that_mints_is_refused() {
        let child = SubnetId::root().child(Address::new(1_000_000));
        let genesis = StateTree::genesis(child.clone(), ScaConfig::default(), []);
        let (user, proposer) = (
            Keypair::from_seed([0xe3; 32]),
            Keypair::from_seed([0xe4; 32]),
        );
        let mint = TokenAmount::from_whole(5);
        let install = ImplicitMsg::InstallAccounts(Box::new([(
            Address::new(100),
            user.public(),
            Some(mint),
        )]));
        let mut forged = genesis.clone();
        forged.accounts_mut().get_or_create(Address::new(100)).key = Some(user.public());
        forged.mint(Address::new(100), mint);
        let header = BlockHeader {
            subnet: child,
            epoch: ChainEpoch::new(1),
            parent: Cid::NIL,
            state_root: forged.flush(),
            msgs_root: Cid::NIL,
            proposer: proposer.public(),
            timestamp_ms: 1_000,
        };
        let block = Block::seal(header, vec![], vec![install], &proposer);

        let mut validator = genesis.clone();
        let root = validator.flush();
        let refused = execute_block_with(&mut validator, &block, ExecOptions::default());
        assert!(matches!(refused, Err(BlockError::StateRootMismatch { .. })));
        assert_eq!(validator.flush(), root);
        assert!(validator.accounts().get(Address::new(100)).is_none());
    }

    #[test]
    fn cached_and_parallel_paths_match_the_reference_receipts() {
        let (mut base, user, proposer) = setup();
        base.flush();
        let cache = SigCache::default();
        // Admission-time verification memoizes each verdict on the value.
        let msgs: Vec<SealedMessage> = (0..6).map(|n| transfer(&user, n)).collect();
        for m in &msgs {
            assert!(cache.verify_sealed(m));
        }

        let mut reference_tree = base.clone();
        let reference = produce_block_with(
            &mut reference_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            msgs.clone(),
            &proposer,
            1_000,
            ExecOptions::default(),
        );

        let mut cached_tree = base.clone();
        let cached = produce_block_with(
            &mut cached_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            msgs.clone(),
            &proposer,
            1_000,
            ExecOptions {
                sig_cache: Some(&cache),
                parallelism: 1,
            },
        );
        assert_eq!(reference.receipts, cached.receipts);
        assert_eq!(reference.block, cached.block);
        assert_eq!(reference_tree.flush(), cached_tree.flush());
        assert_eq!(cache.stats().hits, msgs.len() as u64);

        // Validation: every combination of cache and thread count yields
        // the reference receipts and root.
        for (sig_cache, parallelism) in [(None, 1), (None, 4), (Some(&cache), 1), (Some(&cache), 4)]
        {
            let mut validator = base.clone();
            let receipts = execute_block_with(
                &mut validator,
                &reference.block,
                ExecOptions {
                    sig_cache,
                    parallelism,
                },
            )
            .unwrap();
            assert_eq!(receipts, reference.receipts);
            assert_eq!(validator.flush(), reference_tree.flush());
        }
    }

    #[test]
    fn production_and_validation_are_bit_identical_at_every_worker_count() {
        use hc_state::Method;

        let proposer = Keypair::from_seed([0xe2; 32]);
        let users: Vec<Keypair> = (0..8).map(|i| Keypair::from_seed([0x40 + i; 32])).collect();
        let mut base = StateTree::genesis(
            SubnetId::root(),
            ScaConfig::default(),
            users.iter().enumerate().map(|(i, kp)| {
                (
                    Address::new(100 + i as u64),
                    kp.public(),
                    TokenAmount::from_whole(10),
                )
            }),
        );
        base.flush();

        let send = |u: usize, to: u64, nonce: u64, signer: &Keypair| -> SealedMessage {
            Message::transfer(
                Address::new(100 + u as u64),
                Address::new(to),
                TokenAmount::from_whole(1),
                Nonce::new(nonce),
            )
            .sign(signer)
            .into()
        };
        let mut msgs: Vec<SealedMessage> = Vec::new();
        // Disjoint pairs: each its own lane.
        for (u, key) in users.iter().enumerate().take(4) {
            msgs.push(send(u, 200 + u as u64, 0, key));
        }
        // Same-sender chain: must stay ordered within one lane.
        msgs.push(send(0, 210, 1, &users[0]));
        msgs.push(send(0, 211, 2, &users[0]));
        // Serial barrier in the middle of the block.
        msgs.push(
            Message {
                from: Address::new(105),
                to: Address::SCA,
                value: TokenAmount::ZERO,
                nonce: Nonce::ZERO,
                method: Method::SaveState { state: Cid::NIL },
            }
            .sign(&users[5])
            .into(),
        );
        // Deterministic failures: bad nonce, then a forged signature.
        msgs.push(send(6, 220, 7, &users[6]));
        msgs.push(send(7, 221, 0, &users[0]));

        let mut reference_tree = base.clone();
        let reference = produce_block_with(
            &mut reference_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            msgs.clone(),
            &proposer,
            1_000,
            ExecOptions::default(),
        );
        let failures = reference
            .receipts
            .iter()
            .filter(|r| !r.exit.is_ok())
            .count();
        assert_eq!(failures, 2, "bad nonce and forged signature both fail");

        for parallelism in [2, 4, 8] {
            let opts = ExecOptions {
                sig_cache: None,
                parallelism,
            };
            let mut produced_tree = base.clone();
            let produced = produce_block_with(
                &mut produced_tree,
                SubnetId::root(),
                ChainEpoch::new(1),
                Cid::NIL,
                vec![],
                msgs.clone(),
                &proposer,
                1_000,
                opts,
            );
            assert_eq!(produced.receipts, reference.receipts);
            assert_eq!(produced.block, reference.block);
            assert_eq!(produced_tree.flush(), reference_tree.flush());

            let mut validator = base.clone();
            let receipts = execute_block_with(&mut validator, &reference.block, opts).unwrap();
            assert_eq!(receipts, reference.receipts);
            assert_eq!(validator.flush(), reference_tree.flush());
        }
    }

    #[test]
    fn state_root_mismatch_is_rejected_without_corruption() {
        let (mut proposer_tree, user, proposer) = setup();
        let mut validator_tree = proposer_tree.clone();
        let twin = proposer_tree.clone();
        let pre_root = validator_tree.flush();

        let mut executed = produce_block_with(
            &mut proposer_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            vec![transfer(&user, 0)],
            &proposer,
            1_000,
            ExecOptions::default(),
        );
        let genuine = executed.block.clone();
        // A lying proposer commits a bogus state root. Re-seal so the
        // structural checks pass and only the root check fires.
        executed.block.header.state_root = Cid::digest(b"lies");
        let resealed = Block::seal(
            executed.block.header.clone(),
            executed.block.signed_msgs.clone(),
            executed.block.implicit_msgs.clone(),
            &proposer,
        );

        let err =
            execute_block_with(&mut validator_tree, &resealed, ExecOptions::default()).unwrap_err();
        assert!(matches!(err, BlockError::StateRootMismatch { .. }));
        // Put back whole: the commitment (nothing left to hash) and the
        // content under it — the from-scratch root, not only the cached
        // one, and every account, the new recipient's included.
        assert!(validator_tree.is_committed());
        let hashed = validator_tree.commit_stats().bytes_hashed;
        assert_eq!(validator_tree.flush(), pre_root, "state untouched");
        assert_eq!(validator_tree.commit_stats().bytes_hashed, hashed);
        assert_eq!(validator_tree.recompute_root(), pre_root);
        assert_eq!(validator_tree.accounts(), twin.accounts());
        assert_eq!(validator_tree.sca(), twin.sca());
        // The genuine block still commits on the put-back tree.
        execute_block_with(&mut validator_tree, &genuine, ExecOptions::default()).unwrap();
        assert_eq!(validator_tree.flush(), proposer_tree.flush());
    }

    #[test]
    fn wrong_subnet_is_rejected() {
        let (mut tree, _user, proposer) = setup();
        let mut other = StateTree::genesis(
            SubnetId::root().child(Address::new(9)),
            ScaConfig::default(),
            [],
        );
        let executed = produce_block_with(
            &mut other,
            SubnetId::root().child(Address::new(9)),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            vec![],
            &proposer,
            0,
            ExecOptions::default(),
        );
        assert!(matches!(
            execute_block_with(&mut tree, &executed.block, ExecOptions::default()),
            Err(BlockError::WrongContext(_))
        ));
    }

    #[test]
    fn rejected_messages_do_not_diverge_roots() {
        // A block containing a message with a bad nonce still replays
        // identically (the rejection is deterministic).
        let (mut proposer_tree, user, proposer) = setup();
        let mut validator_tree = proposer_tree.clone();
        let executed = produce_block_with(
            &mut proposer_tree,
            SubnetId::root(),
            ChainEpoch::new(1),
            Cid::NIL,
            vec![],
            vec![transfer(&user, 5)], // wrong nonce
            &proposer,
            1_000,
            ExecOptions::default(),
        );
        assert!(!executed.receipts[0].exit.is_ok());
        execute_block_with(&mut validator_tree, &executed.block, ExecOptions::default()).unwrap();
        assert_eq!(validator_tree.flush(), proposer_tree.flush());
    }
}
