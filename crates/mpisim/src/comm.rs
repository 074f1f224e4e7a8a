//! Cluster construction, rank communicators, and point-to-point messaging.
//!
//! Ranks run as OS threads connected by per-rank **inboxes**, so every
//! communication pattern of the paper (Bcast / ring Sendrecv / async
//! Isend+Irecv+Wait / collectives) executes *with real data movement* —
//! correctness of the distributed algorithms is testable against serial
//! references. On top of the data plane, each rank advances a **virtual
//! clock**: message arrival times are `send_time + transfer_time` under
//! the configured [`NetworkModel`], and a receive advances the receiver's
//! clock to `max(own clock, arrival)` (Lamport-style). This yields
//! deterministic, scheduling-independent timing that reproduces the
//! *shape* of the paper's communication results.
//!
//! ## Scheduling: O(active ranks) event loop
//!
//! A rank blocked in `recv`/`wait` parks on its inbox's
//! condition variable instead of polling. A sender's `Comm::post`
//! delivers the envelope under the inbox lock, bumps the doorbell
//! sequence number, and notifies — so each delivery wakes only the one
//! rank that may now make progress. Host CPU cost therefore scales with
//! the number of ranks actively exchanging messages, not with the total
//! rank count; this is what keeps 512-rank simulations inside a CI
//! budget on a small host. Rank termination (normal return or panic)
//! flips the rank's `alive` flag and rings every doorbell, so peers
//! blocked on a dead rank fail loudly instead of hanging.

use crate::fault::{EdgeFaultKind, FaultPlan};
use crate::stats::{Category, RankReport, Stats};
use crate::topology::NetworkModel;
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Message tags. Collectives use the high bit space; user tags should be
/// below `1 << 48`.
pub type Tag = u64;

/// Payload trait: anything sendable with a known wire size. `Clone` is
/// a supertrait so fault injection can duplicate a message at the send
/// site; the collectives already demanded it of every payload.
pub trait Payload: Clone + Send + 'static {
    /// Number of bytes this value occupies on the wire.
    fn byte_len(&self) -> usize;
}

impl<T: Clone + Send + 'static> Payload for Vec<T> {
    fn byte_len(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

/// A shared block: sending a clone moves no data, so a sender that
/// still reads its block after posting it holds one copy, not two.
impl<T: Send + Sync + 'static> Payload for std::sync::Arc<[T]> {
    fn byte_len(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl Payload for () {
    fn byte_len(&self) -> usize {
        0
    }
}

impl Payload for f64 {
    fn byte_len(&self) -> usize {
        8
    }
}

impl Payload for u64 {
    fn byte_len(&self) -> usize {
        8
    }
}

impl Payload for usize {
    fn byte_len(&self) -> usize {
        std::mem::size_of::<usize>()
    }
}

pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    /// Sender's virtual clock when the message was posted.
    pub sent: f64,
    /// Virtual time at which the message is fully available at the receiver.
    pub arrival: f64,
    pub payload: Box<dyn Any + Send>,
}

/// Delivered-but-unclaimed envelopes of one rank, guarded by the inbox
/// mutex. `seq` is the doorbell: it advances on every delivery and on
/// every rank termination, so a parked waiter can tell "something
/// changed since I last looked" without re-scanning speculatively.
struct InboxState {
    arrived: VecDeque<Envelope>,
    seq: u64,
}

struct Inbox {
    state: Mutex<InboxState>,
    bell: Condvar,
}

/// The shared data plane: one inbox per rank plus the liveness table.
struct Fabric {
    inboxes: Vec<Inbox>,
    alive: Vec<AtomicBool>,
    /// Set (before `alive` clears) for ranks that died *abnormally* —
    /// an injected [`FaultPlan`] crash or any other panic — as opposed
    /// to returning from their closure. A finished rank's in-flight
    /// messages are still deliverable; a crashed rank's future messages
    /// never will be, which is what [`Comm::require_alive`] guards.
    crashed: Vec<AtomicBool>,
}

/// Locks an inbox, tolerating poisoning: a rank that panicked while
/// holding its own inbox lock must not prevent the termination
/// broadcast (or its peers' loud failure) from running.
fn lock_state(inbox: &Inbox) -> MutexGuard<'_, InboxState> {
    inbox.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Marks the rank dead and rings every doorbell on drop — including
/// drops during unwinding, so a panicking rank still releases its peers
/// into their "peer rank terminated" failure paths.
struct AliveGuard {
    rank: usize,
    fabric: Arc<Fabric>,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        // Crash vs clean finish: a drop during unwinding means the rank
        // panicked (injected fault or assertion), not returned. Order
        // matters — peers read `crashed` only after observing `!alive`.
        if std::thread::panicking() {
            self.fabric.crashed[self.rank].store(true, Ordering::SeqCst);
        }
        self.fabric.alive[self.rank].store(false, Ordering::SeqCst);
        for inbox in &self.fabric.inboxes {
            let mut st = lock_state(inbox);
            st.seq += 1;
            inbox.bell.notify_all();
        }
    }
}

/// Handle for a pending nonblocking operation, completed with
/// [`Comm::wait`].
#[must_use = "nonblocking operations must be completed with Comm::wait"]
pub enum Request {
    /// A posted receive; completed (and timed) by `wait`.
    Recv {
        /// Source rank the receive was posted against.
        src: usize,
        /// Matching tag.
        tag: Tag,
        /// `Compute`-category time already accumulated when the receive
        /// was posted — the baseline for the overlap metric: only
        /// computation performed *after* the post can have hidden the
        /// transfer.
        posted_compute: f64,
    },
    /// A send that already left; `wait` is a no-op.
    Send,
}

/// The per-rank communicator (the `MPI_COMM_WORLD` analog).
pub struct Comm {
    rank: usize,
    size: usize,
    ranks_per_node: usize,
    fabric: Arc<Fabric>,
    /// Claimed-from-inbox envelopes not yet matched by a receive, one
    /// FIFO queue per source rank (preserves per-source ordering).
    pending: Vec<VecDeque<Envelope>>,
    pub(crate) net: Arc<NetworkModel>,
    pub(crate) shm: Arc<crate::shm::ShmRegistry>,
    clock: f64,
    /// The fault script for this run, if any (see [`crate::fault`]).
    faults: Option<Arc<FaultPlan>>,
    /// Per-destination user-message counters feeding the deterministic
    /// fault coin: message k on an edge is the same k on every run,
    /// independent of host thread scheduling.
    fault_seq: Vec<u64>,
    /// Application step announced via [`Comm::begin_step`], carried in
    /// failure messages so errors name the step they struck.
    app_step: Option<u64>,
    /// Collected statistics; public for post-run inspection via the report.
    pub stats: Stats,
}

impl Comm {
    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Ranks per simulated compute node.
    #[inline]
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Node index of an arbitrary rank.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Node index of this rank.
    #[inline]
    pub fn node(&self) -> usize {
        self.node_of(self.rank)
    }

    /// Ranks co-located on this rank's node.
    pub fn node_ranks(&self) -> std::ops::Range<usize> {
        let first = self.node() * self.ranks_per_node;
        first..(first + self.ranks_per_node).min(self.size)
    }

    /// Lowest rank on this node (the SHM window owner).
    #[inline]
    pub fn node_leader(&self) -> usize {
        self.node() * self.ranks_per_node
    }

    /// True when the run has both multiple ranks per node *and* multiple
    /// nodes — the regime where the hierarchical (intra-node over shared
    /// memory, inter-node over the interconnect) collectives differ from
    /// the flat ones.
    #[inline]
    pub fn hierarchical(&self) -> bool {
        self.ranks_per_node > 1 && self.size > self.ranks_per_node
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advances the virtual clock by `seconds` of modeled computation.
    pub fn compute(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "negative compute time");
        self.clock += seconds;
        self.stats.add_time(Category::Compute, seconds);
    }

    /// Charges `bytes` of per-rank memory to the accounting model.
    pub fn alloc_private(&mut self, bytes: u64) {
        self.stats.private_bytes += bytes;
    }

    /// Charges the virtual-clock cost of moving `bytes` through a
    /// node-shared memory window (one latency plus the bandwidth term),
    /// attributing the time to `cat` and the traffic to the intra-node
    /// phase counters. This is how the hierarchical collectives price
    /// their shm staging steps.
    pub(crate) fn charge_shm(&mut self, cat: Category, bytes: usize) {
        let dt = self.net.shm_latency + bytes as f64 / self.net.shm_bandwidth;
        self.clock += dt;
        self.stats.add_time(cat, dt);
        self.stats.intra_wire_s += dt;
        self.stats.shm_staged_bytes += bytes as u64;
    }

    // ---- fault injection ------------------------------------------------

    /// Marks the start of application step `step`: subsequent failure
    /// messages carry the step, and a [`FaultPlan`] crash scripted for
    /// this rank at this step fires here. The crash is a panic that
    /// unwinds through [`Cluster::run`]; the rank's `AliveGuard` flags it
    /// dead, so peers fail through the attributed terminated-peer paths
    /// instead of deadlocking.
    pub fn begin_step(&mut self, step: u64) {
        self.app_step = Some(step);
        if let Some(plan) = &self.faults {
            if plan.crash_step(self.rank) == Some(step) {
                panic!(
                    "injected fault: rank {} (node {}) crashed at app step {}",
                    self.rank,
                    self.node(),
                    step
                );
            }
        }
    }

    /// True while `rank` has neither returned nor panicked.
    pub fn alive(&self, rank: usize) -> bool {
        self.fabric.alive[rank].load(Ordering::SeqCst)
    }

    /// True once `rank` has died abnormally (injected crash or panic),
    /// as opposed to finishing its closure.
    pub fn crashed(&self, rank: usize) -> bool {
        self.fabric.crashed[rank].load(Ordering::SeqCst)
    }

    /// Fails loudly with full attribution if `rank` has *crashed*.
    /// Distributed algorithms call this before committing to a blocking
    /// exchange pattern, so a crashed peer surfaces as a named error
    /// (`ctx` says which pattern) instead of a hang deep inside it. A
    /// peer that merely finished its closure does not trip the guard:
    /// its already-posted messages remain deliverable, and a genuinely
    /// missing one fails through the blocking-receive terminated-peer
    /// path instead.
    pub fn require_alive(&self, rank: usize, ctx: &str) {
        if !self.alive(rank) && self.crashed(rank) {
            panic!(
                "peer rank terminated: rank {} (node {}) is dead; rank {} (node {}) requires it for {}{}",
                rank,
                self.node_of(rank),
                self.rank,
                self.node(),
                ctx,
                self.step_ctx()
            );
        }
    }

    /// `" at app step k"` when a step was announced, `""` otherwise.
    fn step_ctx(&self) -> String {
        self.app_step.map_or(String::new(), |s| format!(" at app step {s}"))
    }

    /// Resolves (and consumes the sequence number for) the fault hitting
    /// the next user message to `dst`, if any.
    fn next_edge_fault(&mut self, dst: usize, tag: Tag) -> Option<EdgeFaultKind> {
        let plan = self.faults.as_ref()?;
        let idx = self.fault_seq[dst];
        self.fault_seq[dst] += 1;
        plan.edge_fault(self.rank, dst, tag, idx)
    }

    // ---- point-to-point -------------------------------------------------

    /// User-level post with fault injection applied. Internal collective
    /// traffic bypasses this (a dropped barrier round would model a
    /// broken MPI library, not a lossy network or a failed node).
    fn post_user<T: Payload>(&mut self, dst: usize, tag: Tag, value: T) {
        let bytes = value.byte_len();
        match self.next_edge_fault(dst, tag) {
            Some(EdgeFaultKind::Drop) => {
                // Pays the wire like a genuinely lost packet but never
                // delivers; the receiver can only learn of the loss when
                // this rank terminates.
                self.stats.faults_dropped += 1;
                self.post_opts(dst, tag, None, bytes, 0.0);
            }
            Some(EdgeFaultKind::Delay { extra_s }) => {
                self.stats.faults_delayed += 1;
                self.stats.fault_delay_s += extra_s;
                self.post_opts(dst, tag, Some(Box::new(value)), bytes, extra_s);
            }
            Some(EdgeFaultKind::Duplicate) => {
                // Two full deliveries, each paying its own wire cost.
                self.stats.faults_duplicated += 1;
                self.post_opts(dst, tag, Some(Box::new(value.clone())), bytes, 0.0);
                self.post_opts(dst, tag, Some(Box::new(value)), bytes, 0.0);
            }
            None => self.post_opts(dst, tag, Some(Box::new(value)), bytes, 0.0),
        }
    }

    pub(crate) fn post(&mut self, dst: usize, tag: Tag, payload: Box<dyn Any + Send>, bytes: usize) {
        self.post_opts(dst, tag, Some(payload), bytes, 0.0);
    }

    /// The one true delivery path: charges the wire, then (unless the
    /// message was dropped by injection, `payload == None`) delivers the
    /// envelope with `extra_delay` added to its arrival time.
    fn post_opts(
        &mut self,
        dst: usize,
        tag: Tag,
        payload: Option<Box<dyn Any + Send>>,
        bytes: usize,
        extra_delay: f64,
    ) {
        let transfer = self.net.transfer_time(self.node(), self.node_of(dst), bytes);
        let arrival = self.clock + transfer + extra_delay;
        self.stats.bytes_sent += bytes as u64;
        if self.node() == self.node_of(dst) {
            self.stats.intra_bytes += bytes as u64;
            self.stats.intra_msgs += 1;
            self.stats.intra_wire_s += transfer;
        } else {
            self.stats.inter_bytes += bytes as u64;
            self.stats.inter_msgs += 1;
            self.stats.inter_wire_s += transfer;
        }
        if !self.fabric.alive[dst].load(Ordering::SeqCst) {
            panic!(
                "destination rank terminated: rank {} (node {}) is dead; rank {} (node {}) posted {} bytes on tag {:#x}{}",
                dst,
                self.node_of(dst),
                self.rank,
                self.node(),
                bytes,
                tag,
                self.step_ctx()
            );
        }
        let Some(payload) = payload else { return };
        let inbox = &self.fabric.inboxes[dst];
        let mut st = lock_state(inbox);
        st.arrived
            .push_back(Envelope { src: self.rank, tag, sent: self.clock, arrival, payload });
        st.seq += 1;
        inbox.bell.notify_all();
    }

    /// Moves every delivered envelope from the shared inbox into the
    /// per-source pending queues (preserving delivery order per source).
    fn drain_arrived(st: &mut InboxState, pending: &mut [VecDeque<Envelope>]) {
        while let Some(env) = st.arrived.pop_front() {
            pending[env.src].push_back(env);
        }
    }

    /// Blocking tag-matched claim of one envelope from `src`. Parks on
    /// the inbox doorbell while nothing new can match; panics if `src`
    /// terminated without the expected message ever arriving.
    ///
    /// Liveness/termination ordering: the `alive` flag is read *after*
    /// taking the inbox lock and draining. A terminating rank stores
    /// `alive = false` before ringing the doorbells, and all of its
    /// posts happened before that store — so observing `false` here
    /// guarantees every envelope it ever sent has already been drained,
    /// making "not found + dead" a genuinely hopeless state.
    fn take(&mut self, src: usize, tag: Tag, cat: Category) -> Envelope {
        if let Some(pos) = self.pending[src].iter().position(|e| e.tag == tag) {
            return self.pending[src].remove(pos).expect("position just found");
        }
        let inbox = &self.fabric.inboxes[self.rank];
        let mut st = lock_state(inbox);
        loop {
            Self::drain_arrived(&mut st, &mut self.pending);
            if let Some(pos) = self.pending[src].iter().position(|e| e.tag == tag) {
                drop(st);
                return self.pending[src].remove(pos).expect("position just found");
            }
            if !self.fabric.alive[src].load(Ordering::SeqCst) {
                drop(st);
                panic!(
                    "peer rank terminated while messages were expected: rank {} (node {}) died before delivering a {} on tag {:#x} to rank {} (node {}){}",
                    src,
                    self.node_of(src),
                    cat,
                    tag,
                    self.rank,
                    self.node(),
                    self.step_ctx()
                );
            }
            let seq = st.seq;
            while st.seq == seq {
                st = inbox.bell.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            self.stats.sched_wakeups += 1;
        }
    }

    pub(crate) fn take_env(&mut self, src: usize, tag: Tag, cat: Category) -> Envelope {
        let env = self.take(src, tag, cat);
        let new_clock = self.clock.max(env.arrival);
        self.stats.add_time(cat, new_clock - self.clock);
        self.clock = new_clock;
        env
    }

    fn downcast<T: Payload>(env: Envelope) -> T {
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!("type mismatch on receive (tag {}, from {})", env.tag, env.src)
        })
    }

    /// Blocking send. The sender pays its injection overhead immediately.
    pub fn send<T: Payload>(&mut self, dst: usize, tag: Tag, value: T) {
        let _s = pwobs::span("comm.send");
        let overhead = if self.node() == self.node_of(dst) {
            self.net.shm_latency
        } else {
            self.net.sw_overhead
        };
        self.post_user(dst, tag, value);
        self.clock += overhead;
        self.stats.add_time(Category::Send, overhead);
    }

    /// Blocking receive.
    pub fn recv<T: Payload>(&mut self, src: usize, tag: Tag) -> T {
        let _s = pwobs::span("comm.recv");
        let env = self.take_env(src, tag, Category::Recv);
        Self::downcast(env)
    }

    /// Combined exchange: sends `value` to `dst` and receives from `src`
    /// (the `MPI_Sendrecv` of the ring-based method, Sec. IV-B1).
    pub fn sendrecv<T: Payload>(&mut self, dst: usize, src: usize, tag: Tag, value: T) -> T {
        let _s = pwobs::span("comm.sendrecv");
        self.post_user(dst, tag, value);
        let env = self.take_env(src, tag, Category::Sendrecv);
        Self::downcast(env)
    }

    /// Nonblocking send: message leaves immediately, costs no local time
    /// (completion semantics live entirely in the receiver's `wait`).
    pub fn isend<T: Payload>(&mut self, dst: usize, tag: Tag, value: T) -> Request {
        self.post_user(dst, tag, value);
        Request::Send
    }

    /// Nonblocking receive: returns a handle to complete with [`Comm::wait`].
    pub fn irecv(&mut self, src: usize, tag: Tag) -> Request {
        Request::Recv { src, tag, posted_compute: self.stats.time(Category::Compute) }
    }

    /// Completes a nonblocking operation, accounting blocked time under
    /// `Wait` (the `MPI_Wait` column of Table I). The message's full
    /// transfer time and the part of it hidden behind computation feed
    /// the overlap-efficiency metric
    /// ([`Stats::overlap_efficiency`](crate::stats::Stats::overlap_efficiency)).
    pub fn wait<T: Payload>(&mut self, req: Request) -> Option<T> {
        let _s = pwobs::span("comm.wait");
        match req {
            Request::Send => None,
            Request::Recv { src, tag, posted_compute } => {
                let before = self.clock;
                let env = self.take_env(src, tag, Category::Wait);
                self.account_overlap(&env, before, posted_compute);
                Some(Self::downcast(env))
            }
        }
    }

    /// Splits a completed nonblocking message's wire time into the
    /// visible part (what the wait just blocked for) and the hidden part
    /// — transfer that elapsed behind *computation* performed since the
    /// receive was posted. Clock advance caused by blocking in other
    /// waits does not count as hidden, so the metric keeps its meaning
    /// with several requests in flight.
    fn account_overlap(&mut self, env: &Envelope, clock_before_wait: f64, posted_compute: f64) {
        let transfer = (env.arrival - env.sent).max(0.0);
        let visible = self.clock - clock_before_wait;
        let compute_since_post =
            (self.stats.time(Category::Compute) - posted_compute).max(0.0);
        self.stats.overlap_total_s += transfer;
        self.stats.overlap_hidden_s +=
            (transfer - visible).max(0.0).min(compute_since_post);
    }

    /// Dissemination barrier over all ranks (also synchronizes virtual
    /// clocks to the group maximum).
    pub fn barrier(&mut self) {
        let _s = pwobs::span("comm.barrier");
        let p = self.size;
        if p == 1 {
            return;
        }
        let mut k = 1usize;
        let mut round = 0u64;
        while k < p {
            let dst = (self.rank + k) % p;
            let src = (self.rank + p - k % p) % p;
            let tag = tag_internal(TAG_BARRIER, round, 0);
            self.post(dst, tag, Box::new(()), 0);
            let env = self.take_env(src, tag, Category::Barrier);
            debug_assert_eq!(env.src, src);
            k <<= 1;
            round += 1;
        }
    }

    /// Barrier restricted to the ranks of this node (clock-synchronizing).
    pub fn node_barrier(&mut self) {
        self.node_barrier_cat(Category::Barrier);
    }

    /// Node barrier with the blocked time attributed to `cat` — the
    /// hierarchical collectives use this so their synchronization shows
    /// up under the collective's own Table I column.
    pub(crate) fn node_barrier_cat(&mut self, cat: Category) {
        let ranks: Vec<usize> = self.node_ranks().collect();
        if ranks.len() <= 1 {
            return;
        }
        let leader = ranks[0];
        let tag_up = tag_internal(TAG_NODE_BARRIER, 0, self.node() as u64);
        let tag_down = tag_internal(TAG_NODE_BARRIER, 1, self.node() as u64);
        if self.rank == leader {
            for &r in &ranks[1..] {
                let env = self.take_env(r, tag_up, cat);
                debug_assert_eq!(env.src, r);
            }
            for &r in &ranks[1..] {
                self.post(r, tag_down, Box::new(()), 0);
            }
        } else {
            self.post(leader, tag_up, Box::new(()), 0);
            let _ = self.take_env(leader, tag_down, cat);
        }
    }
}

pub(crate) const TAG_BARRIER: u64 = 1;
pub(crate) const TAG_NODE_BARRIER: u64 = 2;
pub(crate) const TAG_BCAST: u64 = 3;
pub(crate) const TAG_REDUCE: u64 = 4;
pub(crate) const TAG_ALLTOALLV: u64 = 5;
pub(crate) const TAG_ALLGATHERV: u64 = 6;
pub(crate) const TAG_HIER_ALLREDUCE: u64 = 9;
pub(crate) const TAG_HIER_GATHER: u64 = 10;
pub(crate) const TAG_HIER_A2A: u64 = 11;

/// Packs an internal collective tag: `(kind, round, salt)` into the high
/// tag space so user tags below `1<<48` never collide.
pub(crate) fn tag_internal(kind: u64, round: u64, salt: u64) -> Tag {
    (1 << 63) | (kind << 56) | ((round & 0xFFFF) << 40) | (salt & 0xFF_FFFF_FFFF)
}

/// A simulated cluster: `ranks` ranks packed `ranks_per_node` to a node,
/// joined by the given network model.
pub struct Cluster {
    /// Total MPI ranks.
    pub ranks: usize,
    /// Ranks per node (4 on both of the paper's platforms).
    pub ranks_per_node: usize,
    /// Interconnect model.
    pub net: NetworkModel,
    /// Optional fault script applied to every run (see [`crate::fault`]).
    pub faults: Option<FaultPlan>,
}

impl Cluster {
    /// Convenience constructor.
    pub fn new(ranks: usize, ranks_per_node: usize, net: NetworkModel) -> Self {
        assert!(ranks > 0 && ranks_per_node > 0);
        Cluster { ranks, ranks_per_node, net, faults: None }
    }

    /// Installs a fault script for subsequent runs.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// A cluster with a free network, for correctness tests.
    pub fn ideal(ranks: usize) -> Self {
        Self::new(ranks, ranks.max(1), NetworkModel::ideal())
    }

    /// Runs `f` on every rank concurrently; returns per-rank results and
    /// timing reports, ordered by rank.
    ///
    /// Panics in any rank propagate (the whole run aborts), which is the
    /// desired behaviour for tests.
    pub fn run<R, F>(&self, f: F) -> Vec<(R, RankReport)>
    where
        R: Send,
        F: Fn(&mut Comm) -> R + Sync,
    {
        let p = self.ranks;
        let net = Arc::new(self.net.clone());
        let shm = Arc::new(crate::shm::ShmRegistry::default());
        let faults = self.faults.clone().map(Arc::new);
        let fabric = Arc::new(Fabric {
            inboxes: (0..p)
                .map(|_| Inbox {
                    state: Mutex::new(InboxState { arrived: VecDeque::new(), seq: 0 }),
                    bell: Condvar::new(),
                })
                .collect(),
            alive: (0..p).map(|_| AtomicBool::new(true)).collect(),
            crashed: (0..p).map(|_| AtomicBool::new(false)).collect(),
        });

        let slots: Vec<parking_lot::Mutex<Option<(R, RankReport)>>> =
            (0..p).map(|_| parking_lot::Mutex::new(None)).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(p);
            for (rank, slot) in slots.iter().enumerate() {
                let fabric = Arc::clone(&fabric);
                let net = Arc::clone(&net);
                let shm = Arc::clone(&shm);
                let faults = faults.clone();
                let f = &f;
                let rpn = self.ranks_per_node;
                handles.push(s.spawn(move || {
                    // Declared before `comm` so it drops last: the rank is
                    // announced dead only after all its work (and its
                    // result hand-off) is complete — and also when `f`
                    // unwinds.
                    let _guard = AliveGuard { rank, fabric: Arc::clone(&fabric) };
                    let mut comm = Comm {
                        rank,
                        size: p,
                        ranks_per_node: rpn,
                        fabric,
                        pending: (0..p).map(|_| VecDeque::new()).collect(),
                        net,
                        shm,
                        clock: 0.0,
                        faults,
                        fault_seq: vec![0; p],
                        app_step: None,
                        stats: Stats::default(),
                    };
                    let out = f(&mut comm);
                    // Bridge the rank's virtual-clock attribution into
                    // the unified metrics registry (no-op when the
                    // pwobs recorder is disabled).
                    comm.stats.record_observability(rank);
                    let report = RankReport {
                        rank,
                        virtual_time: comm.clock,
                        stats: comm.stats.clone(),
                    };
                    *slot.lock() = Some((out, report));
                }));
            }
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
        slots.into_iter().map(|s| s.into_inner().expect("rank produced no result")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_moves_data() {
        let out = Cluster::ideal(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 7, vec![1.0f64, 2.0, 3.0]);
                c.recv::<Vec<f64>>(1, 8)
            } else {
                let v = c.recv::<Vec<f64>>(0, 7);
                let doubled: Vec<f64> = v.iter().map(|x| 2.0 * x).collect();
                c.send(0, 8, doubled.clone());
                doubled
            }
        });
        assert_eq!(out[0].0, vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn tag_matching_reorders() {
        let out = Cluster::ideal(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 100, vec![1u64]);
                c.send(1, 200, vec![2u64]);
                vec![]
            } else {
                // Receive in the opposite order of sending.
                let b = c.recv::<Vec<u64>>(0, 200);
                let a = c.recv::<Vec<u64>>(0, 100);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1].0, vec![1, 2]);
    }

    #[test]
    fn sendrecv_ring_rotates() {
        let p = 5;
        let out = Cluster::ideal(p).run(|c| {
            let right = (c.rank() + 1) % p;
            let left = (c.rank() + p - 1) % p;
            c.sendrecv(right, left, 1, vec![c.rank() as u64])
        });
        for (rank, (v, _)) in out.iter().enumerate() {
            assert_eq!(v[0], ((rank + p - 1) % p) as u64, "rank {rank}");
        }
    }

    #[test]
    fn nonblocking_roundtrip() {
        let out = Cluster::ideal(3).run(|c| {
            let p = c.size();
            let right = (c.rank() + 1) % p;
            let left = (c.rank() + p - 1) % p;
            let rreq = c.irecv(left, 9);
            let sreq = c.isend(right, 9, vec![c.rank() as u64 * 10]);
            c.compute(1.0e-3);
            let got: Vec<u64> = c.wait(rreq).expect("recv payload");
            assert!(c.wait::<Vec<u64>>(sreq).is_none());
            got
        });
        assert_eq!(out[0].0, vec![20]);
        assert_eq!(out[1].0, vec![0]);
        assert_eq!(out[2].0, vec![10]);
    }

    #[test]
    #[should_panic(expected = "peer rank terminated")]
    fn blocking_recv_panics_when_peer_exits_without_sending() {
        Cluster::ideal(2).run(|c| {
            if c.rank() == 1 {
                let _ = c.recv::<Vec<f64>>(0, 42);
            }
        });
    }

    #[test]
    fn parked_waits_wake_without_polling() {
        // A long dependency chain: rank k waits for rank k-1. Each rank's
        // receive parks exactly until the predecessor's post rings its
        // doorbell, so the whole chain needs only O(active ranks) wakeups
        // — at most a couple per blocked receive, never a spin.
        let p = 32;
        let out = Cluster::ideal(p).run(|c| {
            if c.rank() > 0 {
                let v: Vec<u64> = c.recv(c.rank() - 1, 1);
                if c.rank() + 1 < c.size() {
                    c.send(c.rank() + 1, 1, v.clone());
                }
                c.stats.sched_wakeups
            } else {
                c.send(1, 1, vec![7u64]);
                c.stats.sched_wakeups
            }
        });
        for (rank, (wakeups, _)) in out.iter().enumerate() {
            // One blocked receive should cost a handful of wakeups at
            // most (delivery + the terminations that ring every bell).
            assert!(
                *wakeups <= (p as u64) + 4,
                "rank {rank}: {wakeups} wakeups for one receive"
            );
        }
    }

    #[test]
    fn overlap_hidden_capped_by_compute_since_post() {
        // Two receives in flight, zero compute: waiting out the slow one
        // advances the clock past the fast one's arrival, but that wait
        // time is NOT compute — nothing may count as hidden.
        let net = NetworkModel {
            topology: crate::topology::Topology::FullyConnected,
            hop_latency: 0.0,
            sw_overhead: 0.0,
            bandwidth: 1e9,
            shm_bandwidth: f64::INFINITY,
            shm_latency: 0.0,
        };
        let out = Cluster::new(2, 1, net).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0u8; 2_000_000]); // 2 ms
                c.send(1, 2, vec![0u8; 1_000_000]); // 1 ms
                0.0
            } else {
                let slow = c.irecv(0, 1);
                let fast = c.irecv(0, 2);
                let _ = c.wait::<Vec<u8>>(slow).expect("slow");
                let _ = c.wait::<Vec<u8>>(fast).expect("fast");
                c.stats.overlap_hidden_s
            }
        });
        assert!(
            out[1].0 < 1e-12,
            "wait-blocked time must not count as hidden compute: {}",
            out[1].0
        );
        assert!(out[1].1.stats.overlap_total_s > 2.9e-3);
    }

    #[test]
    fn overlap_metric_splits_hidden_and_visible() {
        let net = NetworkModel {
            topology: crate::topology::Topology::FullyConnected,
            hop_latency: 0.0,
            sw_overhead: 0.0,
            bandwidth: 1e9,
            shm_bandwidth: f64::INFINITY,
            shm_latency: 0.0,
        };
        // 2 MB transfer = 2 ms; only 0.5 ms of compute overlaps, so 75%
        // of the wire time must stay visible in Wait and 25% be hidden.
        let out = Cluster::new(2, 1, net).run(|c| {
            if c.rank() == 0 {
                c.send(1, 4, vec![0u8; 2_000_000]);
                0.0
            } else {
                let req = c.irecv(0, 4);
                c.compute(0.5e-3);
                let _ = c.wait::<Vec<u8>>(req).expect("payload");
                c.stats.time(Category::Wait)
            }
        });
        let stats = &out[1].1.stats;
        assert!((out[1].0 - 1.5e-3).abs() < 1e-9, "visible wait {}", out[1].0);
        assert!((stats.overlap_total_s - 2.0e-3).abs() < 1e-9);
        assert!((stats.overlap_hidden_s - 0.5e-3).abs() < 1e-9);
        assert!((stats.overlap_efficiency() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn virtual_clock_advances_with_network_costs() {
        let net = NetworkModel {
            topology: crate::topology::Topology::FullyConnected,
            hop_latency: 1e-6,
            sw_overhead: 0.0,
            bandwidth: 1e9,
            shm_bandwidth: f64::INFINITY,
            shm_latency: 0.0,
        };
        // 2 ranks on separate nodes: 1 MB at 1 GB/s = 1 ms + 1 us latency.
        let out = Cluster::new(2, 1, net).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0u8; 1_000_000]);
                c.now()
            } else {
                let _ = c.recv::<Vec<u8>>(0, 1);
                c.now()
            }
        });
        assert!((out[1].0 - 1.001e-3).abs() < 1e-9, "receiver time {}", out[1].0);
        assert!(out[0].0 < 1e-6, "sender returns immediately");
        assert!(out[1].1.stats.time(Category::Recv) > 0.9e-3);
    }

    #[test]
    fn per_phase_attribution_partitions_bytes() {
        // 4 ranks on 2 nodes: rank 0 sends intra (to 1) and inter (to 2);
        // the phase counters must partition bytes_sent exactly.
        let out = Cluster::new(4, 2, NetworkModel::ideal()).run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0u8; 1000]);
                c.send(2, 2, vec![0u8; 500]);
            } else if c.rank() == 1 {
                let _ = c.recv::<Vec<u8>>(0, 1);
            } else if c.rank() == 2 {
                let _ = c.recv::<Vec<u8>>(0, 2);
            }
            (
                c.stats.bytes_sent,
                c.stats.intra_bytes,
                c.stats.inter_bytes,
                c.stats.intra_msgs,
                c.stats.inter_msgs,
            )
        });
        let (total, intra, inter, im, xm) = out[0].0;
        assert_eq!(total, 1500);
        assert_eq!(intra, 1000);
        assert_eq!(inter, 500);
        assert_eq!(im, 1);
        assert_eq!(xm, 1);
        assert_eq!(total, intra + inter, "phase counters must partition bytes_sent");
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let out = Cluster::ideal(4).run(|c| {
            c.compute(c.rank() as f64); // ranks at times 0,1,2,3
            c.barrier();
            c.now()
        });
        for (t, _) in &out {
            assert!((*t - 3.0).abs() < 1e-12, "clock {t}");
        }
    }

    #[test]
    fn node_barrier_only_syncs_node() {
        let out = Cluster::new(4, 2, NetworkModel::ideal()).run(|c| {
            c.compute(c.rank() as f64);
            c.node_barrier();
            c.now()
        });
        assert!((out[0].0 - 1.0).abs() < 1e-12);
        assert!((out[1].0 - 1.0).abs() < 1e-12);
        assert!((out[2].0 - 3.0).abs() < 1e-12);
        assert!((out[3].0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn compute_is_tracked() {
        let out = Cluster::ideal(1).run(|c| {
            c.compute(2.5);
            c.now()
        });
        assert!((out[0].0 - 2.5).abs() < 1e-12);
        assert!((out[0].1.stats.time(Category::Compute) - 2.5).abs() < 1e-12);
        assert!(out[0].1.stats.comm_time() < 1e-12);
    }

    #[test]
    fn dropped_message_never_arrives_but_is_attributed() {
        let plan = FaultPlan::new(7).drop_edge(0, 1, Some(100));
        let out = Cluster::ideal(2).with_faults(plan).run(|c| {
            if c.rank() == 0 {
                c.send(1, 100, vec![1u64]); // dropped
                c.send(1, 101, vec![2u64]); // delivered
                c.stats.faults_dropped
            } else {
                let v = c.recv::<Vec<u64>>(0, 101);
                assert_eq!(v, vec![2]);
                c.stats.faults_dropped
            }
        });
        assert_eq!(out[0].0, 1, "sender attributes the drop");
        assert_eq!(out[1].0, 0, "receiver injected nothing");
    }

    #[test]
    fn delayed_message_arrives_late_on_the_virtual_clock() {
        let plan = FaultPlan::new(7).delay_edge(0, 1, None, 0.25);
        let out = Cluster::ideal(2).with_faults(plan).run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![9u64]);
                (0.0, c.stats.fault_delay_s)
            } else {
                let _ = c.recv::<Vec<u64>>(0, 5);
                (c.now(), c.stats.fault_delay_s)
            }
        });
        assert!((out[1].0 .0 - 0.25).abs() < 1e-12, "receiver clock {}", out[1].0 .0);
        assert!((out[0].0 .1 - 0.25).abs() < 1e-12, "sender attributes the delay");
    }

    #[test]
    fn duplicated_message_is_delivered_twice() {
        let plan = FaultPlan::new(7).duplicate_edge(0, 1, Some(3));
        let out = Cluster::ideal(2).with_faults(plan).run(|c| {
            if c.rank() == 0 {
                c.send(1, 3, vec![4u64]);
                (vec![], c.stats.faults_duplicated)
            } else {
                let a = c.recv::<Vec<u64>>(0, 3);
                let b = c.recv::<Vec<u64>>(0, 3);
                (vec![a[0], b[0]], c.stats.faults_duplicated)
            }
        });
        assert_eq!(out[1].0 .0, vec![4, 4]);
        assert_eq!(out[0].0 .1, 1);
    }

    #[test]
    #[should_panic(expected = "injected fault: rank 0 (node 0) crashed at app step 2")]
    fn scripted_crash_fires_at_its_step() {
        let plan = FaultPlan::new(7).crash(0, 2);
        Cluster::ideal(2).with_faults(plan).run(|c| {
            for step in 0..4u64 {
                c.begin_step(step);
                let peer = 1 - c.rank();
                let _ = c.sendrecv(peer, peer, 50 + step, vec![c.rank() as u64]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "peer rank terminated: rank 1 (node 0) is dead")]
    fn require_alive_names_the_dead_rank() {
        // Rank 1 crashes; rank 0 (whose panic Cluster::run surfaces
        // first) observes it through the guard.
        let plan = crate::fault::FaultPlan::new(1).crash(1, 3);
        Cluster::ideal(2).with_faults(plan).run(|c| {
            c.begin_step(3); // rank 1 crashes here
            while c.alive(1) {
                std::thread::yield_now();
            }
            c.require_alive(1, "ring exchange");
        });
    }

    #[test]
    fn require_alive_tolerates_a_cleanly_finished_peer() {
        // A rank that *returned* is dead but not crashed: its in-flight
        // messages are still deliverable, so the guard must not fire.
        let out = Cluster::ideal(2).run(|c| {
            if c.rank() == 1 {
                while c.alive(0) {
                    std::thread::yield_now();
                }
                assert!(!c.crashed(0));
                c.require_alive(0, "ring exchange");
                true
            } else {
                false // rank 0 returns immediately, flagging itself dead
            }
        });
        assert!(out[1].0);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_type_panics() {
        Cluster::ideal(2).run(|c| {
            if c.rank() == 0 {
                c.send(1, 5, vec![1.0f64]);
            } else {
                let _ = c.recv::<Vec<u64>>(0, 5);
            }
        });
    }
}
