//! Deterministic access-set scheduling for parallel intra-block execution.
//!
//! A [`Schedule`] partitions a block's signed messages into alternating
//! segments:
//!
//! * **serial** segments — messages whose execution may touch system state
//!   (SCA, Subnet Actors, atomic registry, actor allocator) or arbitrary
//!   ledger accounts. They run one at a time, in block order, directly on
//!   the state, and act as barriers: nothing executes across them.
//! * **parallel** segments — maximal runs of parallel-eligible messages
//!   ([`hc_state::access_pair`]), split into conflict-free **lanes** by
//!   union-find over their access sets: two messages land in the same lane
//!   iff their `{from, to}` pairs are (transitively) connected. Within a
//!   lane messages keep block order; distinct lanes touch disjoint account
//!   sets and can execute concurrently.
//!
//! The schedule is a pure function of the message list — no RNG, no
//! thread count, no clocks — so the proposer and every validator derive
//! the same schedule from the same block, and the executed order within
//! every dependency chain equals sequential block order. That is the whole
//! determinism argument: lanes only reorder messages that provably cannot
//! observe each other (DESIGN.md §15).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use hc_state::{access_pair, SealedMessage};

/// One scheduling unit of a block's signed-message payload. Indices point
/// into the block's signed-message list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// Messages executed one at a time, in block order, as a barrier.
    Serial(Vec<usize>),
    /// Conflict-free lanes; lanes are ordered by their first message index
    /// and each lane preserves block order internally.
    Parallel(Vec<Vec<usize>>),
}

/// Shape counters of a schedule, for observability and the conflict-ratio
/// sweep (EXPERIMENTS.md F12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Signed messages scheduled.
    pub messages: usize,
    /// Messages on serial segments.
    pub serial: usize,
    /// Total lanes across all parallel segments.
    pub lanes: usize,
    /// Segments of either kind.
    pub segments: usize,
    /// Length of the longest single lane.
    pub longest_lane: usize,
}

/// A deterministic dependency schedule over a block's signed messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    segments: Vec<Segment>,
}

impl Schedule {
    /// Builds the schedule for `signed` (block order).
    pub fn build(signed: &[SealedMessage]) -> Self {
        let mut segments = Vec::new();
        let mut run: Vec<usize> = Vec::new(); // pending parallel-eligible
        let mut serial: Vec<usize> = Vec::new(); // pending serial
        for (i, m) in signed.iter().enumerate() {
            if access_pair(m.message()).is_some() {
                if !serial.is_empty() {
                    segments.push(Segment::Serial(std::mem::take(&mut serial)));
                }
                run.push(i);
            } else {
                if !run.is_empty() {
                    segments.push(Segment::Parallel(lanes_of(&run, signed)));
                    run.clear();
                }
                serial.push(i);
            }
        }
        if !serial.is_empty() {
            segments.push(Segment::Serial(serial));
        }
        if !run.is_empty() {
            segments.push(Segment::Parallel(lanes_of(&run, signed)));
        }
        Schedule { segments }
    }

    /// The schedule's segments, in execution order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Shape counters.
    pub fn stats(&self) -> ScheduleStats {
        let mut s = ScheduleStats {
            segments: self.segments.len(),
            ..ScheduleStats::default()
        };
        for seg in &self.segments {
            match seg {
                Segment::Serial(v) => {
                    s.messages += v.len();
                    s.serial += v.len();
                }
                Segment::Parallel(lanes) => {
                    s.lanes += lanes.len();
                    for lane in lanes {
                        s.messages += lane.len();
                        s.longest_lane = s.longest_lane.max(lane.len());
                    }
                }
            }
        }
        s
    }

    /// The schedule's critical path under `parallelism` workers: the number
    /// of sequential message applications on the slowest worker, summed
    /// over segments (serial segments cost their full length; parallel
    /// segments cost the heaviest worker's load under the same
    /// deterministic lane assignment the executor uses). The best possible
    /// block speedup is `messages / critical_path`.
    pub fn critical_path(&self, parallelism: usize) -> usize {
        self.segments
            .iter()
            .map(|seg| match seg {
                Segment::Serial(v) => v.len(),
                Segment::Parallel(lanes) => assign_lanes(lanes, parallelism)
                    .iter()
                    .map(|ls| ls.iter().map(|&l| lanes[l].len()).sum::<usize>())
                    .max()
                    .unwrap_or(0),
            })
            .sum()
    }
}

/// Splits one run of parallel-eligible message indices into conflict-free
/// lanes: union-find over the addresses each message touches, lanes
/// ordered by first message index, block order inside each lane.
fn lanes_of(run: &[usize], signed: &[SealedMessage]) -> Vec<Vec<usize>> {
    use std::collections::BTreeMap;

    // Dense ids for addresses, assigned in first-touch order.
    let mut ids = BTreeMap::new();
    let mut parent: Vec<usize> = Vec::new();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    let mut id_of = |addr, parent: &mut Vec<usize>| {
        *ids.entry(addr).or_insert_with(|| {
            parent.push(parent.len());
            parent.len() - 1
        })
    };
    for &i in run {
        let [from, to] = access_pair(signed[i].message()).expect("run holds eligible messages");
        let a = id_of(from, &mut parent);
        let b = id_of(to, &mut parent);
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            // Union by smaller root id: deterministic and order-free.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            parent[hi] = lo;
        }
    }
    // Group messages by their component root, preserving block order; the
    // lane list is ordered by each component's first message.
    let mut lane_of_root: BTreeMap<usize, usize> = BTreeMap::new();
    let mut lanes: Vec<Vec<usize>> = Vec::new();
    for &i in run {
        let [from, _] = access_pair(signed[i].message()).expect("run holds eligible messages");
        let root = find(&mut parent, ids[&from]);
        let lane = *lane_of_root.entry(root).or_insert_with(|| {
            lanes.push(Vec::new());
            lanes.len() - 1
        });
        lanes[lane].push(i);
    }
    lanes
}

/// Deterministically assigns lanes to `parallelism` workers: longest lane
/// first (ties by lane index), each to the least-loaded worker (ties by
/// worker index). Returns per-worker lane-index lists; both the executor
/// and [`Schedule::critical_path`] use this same assignment, so the
/// predicted critical path is exactly what the engine runs.
pub(crate) fn assign_lanes(lanes: &[Vec<usize>], parallelism: usize) -> Vec<Vec<usize>> {
    let workers = parallelism.max(1).min(lanes.len().max(1));
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    order.sort_by_key(|&l| (std::cmp::Reverse(lanes[l].len()), l));
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut load = vec![0usize; workers];
    for l in order {
        let w = (0..workers)
            .min_by_key(|&w| (load[w], w))
            .expect(">=1 worker");
        load[w] += lanes[l].len();
        assignment[w].push(l);
    }
    assignment
}

/// Process-wide count of threads [`fan_out`] has spawned. A pure
/// diagnostic, like [`hc_types::crypto::sha256_block_count`]: it measures
/// how much thread churn a workload costs, independent of machine speed.
static THREADS_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Total threads [`fan_out`] has spawned in this process so far.
///
/// Monotonic and thread-safe; callers measure a region of work by
/// differencing two readings.
pub fn threads_spawned() -> u64 {
    THREADS_SPAWNED.load(Relaxed)
}

/// The number of threads [`fan_out`] lays `len` items on with `workers`
/// workers: `min(workers, len)`, at least one (the caller's).
pub fn fan_out_threads(len: usize, workers: usize) -> usize {
    workers.clamp(1, len.max(1))
}

/// Maps `work` over `items` on up to `workers` threads and returns the
/// results in item order — the one fan-out behind signature
/// pre-verification, lane execution and `hc-core`'s block waves.
///
/// Items are cut into exactly [`fan_out_threads`] contiguous chunks whose
/// lengths differ by at most one (the longer ones first). The caller's
/// thread keeps the first chunk and scoped threads take the rest, so a
/// single chunk — one worker, or a single item — spawns nothing and is a
/// plain sequential map. Which thread runs an item never shows in the
/// result.
///
/// # Panics
///
/// Panics if `work` panics on any thread.
pub fn fan_out<T, R, I, F>(items: I, workers: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: IntoIterator<Item = T>,
    I::IntoIter: ExactSizeIterator,
    F: Fn(T) -> R + Sync,
{
    let mut items = items.into_iter();
    let len = items.len();
    let threads = fan_out_threads(len, workers);
    let (base, longer) = (len / threads, len % threads);
    let mut chunks = (0..threads).map(|i| {
        let chunk_len = base + usize::from(i < longer);
        items.by_ref().take(chunk_len).collect::<Vec<T>>()
    });
    let work = &work;
    std::thread::scope(|scope| {
        let first = chunks.next().unwrap_or_default();
        let spawned: Vec<_> = chunks
            .map(|chunk| {
                THREADS_SPAWNED.fetch_add(1, Relaxed);
                scope.spawn(move || chunk.into_iter().map(work).collect::<Vec<R>>())
            })
            .collect();
        let mut results = Vec::with_capacity(len);
        results.extend(first.into_iter().map(work));
        for handle in spawned {
            results.extend(handle.join().expect("fan_out worker panicked"));
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_state::{Message, Method};
    use hc_types::{Address, Cid, Keypair, Nonce, TokenAmount};

    fn transfer(from: u64, to: u64) -> SealedMessage {
        Message::transfer(
            Address::new(from),
            Address::new(to),
            TokenAmount::from_atto(1),
            Nonce::ZERO,
        )
        .sign(&Keypair::from_seed([0x31; 32]))
        .into()
    }

    fn serial_msg(from: u64) -> SealedMessage {
        Message {
            from: Address::new(from),
            to: Address::SCA,
            value: TokenAmount::ZERO,
            nonce: Nonce::ZERO,
            method: Method::SaveState { state: Cid::NIL },
        }
        .sign(&Keypair::from_seed([0x31; 32]))
        .into()
    }

    #[test]
    fn disjoint_pairs_form_one_lane_each() {
        let msgs: Vec<_> = (0..8).map(|i| transfer(100 + i, 200 + i)).collect();
        let s = Schedule::build(&msgs);
        let stats = s.stats();
        assert_eq!(stats.messages, 8);
        assert_eq!(stats.serial, 0);
        assert_eq!(stats.lanes, 8);
        assert_eq!(s.critical_path(4), 2);
        assert_eq!(s.critical_path(1), 8);
        assert_eq!(s.critical_path(usize::MAX), 1);
    }

    #[test]
    fn shared_sender_chains_into_one_lane() {
        let msgs: Vec<_> = (0..6).map(|i| transfer(100, 200 + i)).collect();
        let s = Schedule::build(&msgs);
        assert_eq!(s.stats().lanes, 1);
        assert_eq!(s.critical_path(8), 6);
        // Block order inside the lane.
        let Segment::Parallel(lanes) = &s.segments()[0] else {
            panic!("expected a parallel segment");
        };
        assert_eq!(lanes[0], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn transitive_conflicts_merge_lanes() {
        // a->b, c->d, b->c: all one component.
        let msgs = vec![transfer(1, 2), transfer(3, 4), transfer(2, 3)];
        let s = Schedule::build(&msgs);
        assert_eq!(s.stats().lanes, 1);
        // Without the bridge message: two lanes.
        let s = Schedule::build(&msgs[..2]);
        assert_eq!(s.stats().lanes, 2);
    }

    #[test]
    fn serial_messages_are_barriers() {
        let msgs = vec![
            transfer(1, 2),
            transfer(3, 4),
            serial_msg(5),
            transfer(1, 2),
        ];
        let s = Schedule::build(&msgs);
        let segs = s.segments();
        assert_eq!(segs.len(), 3);
        assert!(matches!(&segs[0], Segment::Parallel(lanes) if lanes.len() == 2));
        assert_eq!(segs[1], Segment::Serial(vec![2]));
        assert!(matches!(&segs[2], Segment::Parallel(lanes) if lanes.len() == 1));
        assert_eq!(s.stats().serial, 1);
        // Serial work always counts fully towards the critical path.
        assert_eq!(s.critical_path(8), 1 + 1 + 1);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_payload() {
        let msgs: Vec<_> = (0..32)
            .map(|i| transfer(100 + (i % 7), 200 + (i % 5)))
            .collect();
        assert_eq!(Schedule::build(&msgs), Schedule::build(&msgs));
    }

    #[test]
    fn lane_assignment_balances_and_is_deterministic() {
        // Lanes of lengths 4,3,2,1 over 2 workers: LPT packs 4+1 / 3+2.
        let lanes = vec![vec![0; 4], vec![0; 3], vec![0; 2], vec![0; 1]];
        let a = assign_lanes(&lanes, 2);
        assert_eq!(a, vec![vec![0, 3], vec![1, 2]]);
        assert_eq!(assign_lanes(&lanes, 2), a);
        // More workers than lanes: one lane each.
        assert_eq!(assign_lanes(&lanes, 16).len(), 4);
    }

    #[test]
    fn fan_out_keeps_item_order_at_every_worker_count() {
        let doubled: Vec<u32> = (0..10).map(|x| x * 2).collect();
        for workers in [0, 1, 2, 3, 10, 64] {
            assert_eq!(fan_out(0..10u32, workers, |x| x * 2), doubled);
        }
        assert!(fan_out(0..0u32, 4, |x| x).is_empty());
        // Items may be exclusive borrows: each is handed to one worker.
        let mut cells = vec![1u32; 7];
        fan_out(&mut cells, 3, |c| *c += 1);
        assert_eq!(cells, vec![2; 7]);
    }

    #[test]
    fn fan_out_chunks_contiguously_and_keeps_the_first_chunk_on_the_caller() {
        let here = std::thread::current().id();
        // One worker: nothing is spawned.
        let ids = fan_out(0..8, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == here));
        // Four workers over eight items: contiguous pairs, the first pair
        // on this thread, the other three on a thread each.
        let ids = fan_out(0..8, 4, |_| std::thread::current().id());
        for pair in ids.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
        assert_eq!(ids[0], here);
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 4);
        // Five items on four workers: chunks of 2, 1, 1, 1 — every worker
        // busy, the longer chunk first and on this thread.
        let ids = fan_out(0..5, 4, |_| std::thread::current().id());
        assert_eq!(ids[0], here);
        assert_eq!(ids[0], ids[1]);
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 4);
        // Nine items on eight workers spawn seven threads.
        let before = threads_spawned();
        fan_out(0..9, 8, |x| x);
        assert!(threads_spawned() - before >= 7);
        assert_eq!(fan_out_threads(9, 8), 8);
        assert_eq!(fan_out_threads(0, 8), 1);
        assert_eq!(fan_out_threads(5, 0), 1);
    }

    #[test]
    fn empty_payload_schedules_empty() {
        let s = Schedule::build(&[]);
        assert!(s.segments().is_empty());
        assert_eq!(s.critical_path(4), 0);
        assert_eq!(s.stats(), ScheduleStats::default());
    }
}
