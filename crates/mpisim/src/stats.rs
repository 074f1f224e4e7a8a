//! Per-rank timing and memory accounting.
//!
//! Mirrors the measurement categories of the paper's Table I: each MPI
//! operation class accumulates virtual time separately so the harness can
//! print the same columns (Alltoallv / Sendrecv / Wait / Allgatherv /
//! Allreduce / Bcast).

/// Classification of communication operations, matching Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// Point-to-point blocking send.
    Send,
    /// Point-to-point blocking receive.
    Recv,
    /// Combined send+receive exchange (`MPI_Sendrecv`).
    Sendrecv,
    /// Completion wait for nonblocking operations (`MPI_Wait`).
    Wait,
    /// Broadcast.
    Bcast,
    /// All-reduce.
    Allreduce,
    /// All-to-all with variable counts.
    Alltoallv,
    /// All-gather with variable counts.
    Allgatherv,
    /// Barrier synchronization.
    Barrier,
    /// Modeled computation time (kernel execution between messages).
    Compute,
}

impl Category {
    /// All communication categories in Table I column order.
    pub const TABLE1: [Category; 6] = [
        Category::Alltoallv,
        Category::Sendrecv,
        Category::Wait,
        Category::Allgatherv,
        Category::Allreduce,
        Category::Bcast,
    ];

    /// Every category, in declaration order (JSON export iterates this).
    pub const ALL: [Category; 10] = [
        Category::Send,
        Category::Recv,
        Category::Sendrecv,
        Category::Wait,
        Category::Bcast,
        Category::Allreduce,
        Category::Alltoallv,
        Category::Allgatherv,
        Category::Barrier,
        Category::Compute,
    ];

    /// Position in [`Category::ALL`] (the declaration order).
    fn index(self) -> usize {
        self as usize
    }

    /// Lowercase identifier used as a JSON / metrics key.
    pub fn key(self) -> &'static str {
        match self {
            Category::Send => "send",
            Category::Recv => "recv",
            Category::Sendrecv => "sendrecv",
            Category::Wait => "wait",
            Category::Bcast => "bcast",
            Category::Allreduce => "allreduce",
            Category::Alltoallv => "alltoallv",
            Category::Allgatherv => "allgatherv",
            Category::Barrier => "barrier",
            Category::Compute => "compute",
        }
    }
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Mutable per-rank statistics collected during a run.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Virtual seconds per category, indexed by [`Category::index`].
    time: [f64; 10],
    /// Operations per category, indexed like `time`.
    count: [u64; 10],
    /// Total bytes moved through point-to-point messages this rank sent.
    pub bytes_sent: u64,
    /// Bytes this rank sent to ranks on its own node (the intra-node
    /// phase of the two-level communication hierarchy). Together with
    /// `inter_bytes` this partitions `bytes_sent` exactly.
    pub intra_bytes: u64,
    /// Bytes this rank sent to ranks on other nodes (inter-node phase).
    pub inter_bytes: u64,
    /// Point-to-point messages sent to same-node destinations.
    pub intra_msgs: u64,
    /// Point-to-point messages sent to other-node destinations.
    pub inter_msgs: u64,
    /// Wire time (latency + bandwidth terms) of intra-node transfers
    /// this rank initiated, including shared-memory staging steps of the
    /// hierarchical collectives.
    pub intra_wire_s: f64,
    /// Wire time of inter-node transfers this rank initiated.
    pub inter_wire_s: f64,
    /// Bytes staged through node shared-memory windows by the
    /// hierarchical collectives (not part of `bytes_sent`: staging is a
    /// memory copy, not a message).
    pub shm_staged_bytes: u64,
    /// Times a blocked receive/wait was woken by the inbox doorbell —
    /// the event-loop cost metric: O(messages received), independent of
    /// total rank count.
    pub sched_wakeups: u64,
    /// Private (per-rank) heap bytes charged via `alloc_private`.
    pub private_bytes: u64,
    /// This rank's share of node-shared window bytes.
    pub shm_bytes: u64,
    /// Bytes the rank *would* have allocated without the SHM mechanism
    /// (for the memory-saving comparison of Sec. IV-B3).
    pub unshared_equivalent_bytes: u64,
    /// Total wire time of messages completed through nonblocking waits
    /// (`wait`): the sum of each message's full transfer time.
    pub overlap_total_s: f64,
    /// The part of `overlap_total_s` that was *hidden* behind computation
    /// — transfer time that had already elapsed on the virtual clock when
    /// the wait was issued, so it never blocked the rank. The visible
    /// remainder is what lands in the `Wait` category.
    pub overlap_hidden_s: f64,
    /// Messages this rank sent that an injected fault dropped
    /// (see [`crate::fault`]); attribution lets tests separate injected
    /// losses from genuine bugs.
    pub faults_dropped: u64,
    /// Messages this rank sent that an injected fault delayed.
    pub faults_delayed: u64,
    /// Messages this rank sent that an injected fault duplicated.
    pub faults_duplicated: u64,
    /// Total extra arrival latency injected into this rank's sends
    /// (virtual seconds).
    pub fault_delay_s: f64,
}

impl Stats {
    /// Adds `dt` seconds to a category.
    pub fn add_time(&mut self, cat: Category, dt: f64) {
        debug_assert!(dt >= -1e-12, "negative time increment {dt} for {cat}");
        self.time[cat.index()] += dt.max(0.0);
        self.count[cat.index()] += 1;
    }

    /// Accumulated time for a category.
    pub fn time(&self, cat: Category) -> f64 {
        self.time[cat.index()]
    }

    /// Number of operations recorded in a category.
    pub fn count(&self, cat: Category) -> u64 {
        self.count[cat.index()]
    }

    /// Fraction of nonblocking transfer time hidden behind computation:
    /// `overlap_hidden_s / overlap_total_s` (0 when no nonblocking
    /// message has completed). This is the overlap-efficiency metric of
    /// the ring-pipelined exchange: 1.0 means every transfer finished
    /// while the rank was computing, 0.0 means every transfer was waited
    /// out in full.
    pub fn overlap_efficiency(&self) -> f64 {
        if self.overlap_total_s <= 0.0 {
            0.0
        } else {
            self.overlap_hidden_s / self.overlap_total_s
        }
    }

    /// Total communication time (everything except `Compute`): the sum
    /// over the categories that recorded an operation, taken in
    /// [`Category::ALL`] order so it repeats to the bit (`-0.0` when
    /// there are none, as `f64`'s empty sum).
    pub fn comm_time(&self) -> f64 {
        Category::ALL
            .iter()
            .filter(|&&c| c != Category::Compute && self.count(c) > 0)
            .map(|&c| self.time(c))
            .sum()
    }

    /// Serializes every category time/count and memory/overlap/fault
    /// field as one *flat* JSON object (hand-rolled: the build
    /// environment vendors no serde). This is the uniform per-rank
    /// export the examples and figure binaries route through, replacing
    /// their ad-hoc column printing; flat keys keep the rows greppable
    /// and `compare.rs`-parseable.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        for (i, cat) in Category::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"time_{k}_s\": {t}, \"n_{k}\": {n}",
                k = cat.key(),
                t = fmt_json_f64(self.time(*cat)),
                n = self.count(*cat),
            );
        }
        let _ = write!(
            out,
            ", \"comm_s\": {}, \"bytes_sent\": {}, \"intra_bytes\": {}, \
             \"inter_bytes\": {}, \"intra_msgs\": {}, \"inter_msgs\": {}, \
             \"intra_wire_s\": {}, \"inter_wire_s\": {}, \"shm_staged_bytes\": {}, \
             \"sched_wakeups\": {}, \"private_bytes\": {}, \"shm_bytes\": {}, \
             \"unshared_equivalent_bytes\": {}, \"overlap_total_s\": {}, \
             \"overlap_hidden_s\": {}, \"overlap_efficiency\": {}, \
             \"faults_dropped\": {}, \"faults_delayed\": {}, \
             \"faults_duplicated\": {}, \"fault_delay_s\": {}",
            fmt_json_f64(self.comm_time()),
            self.bytes_sent,
            self.intra_bytes,
            self.inter_bytes,
            self.intra_msgs,
            self.inter_msgs,
            fmt_json_f64(self.intra_wire_s),
            fmt_json_f64(self.inter_wire_s),
            self.shm_staged_bytes,
            self.sched_wakeups,
            self.private_bytes,
            self.shm_bytes,
            self.unshared_equivalent_bytes,
            fmt_json_f64(self.overlap_total_s),
            fmt_json_f64(self.overlap_hidden_s),
            fmt_json_f64(self.overlap_efficiency()),
            self.faults_dropped,
            self.faults_delayed,
            self.faults_duplicated,
            fmt_json_f64(self.fault_delay_s),
        );
        out.push('}');
        out
    }

    /// Bridges this rank's virtual-clock attribution into the `pwobs`
    /// registry under `rank{r}/...` gauge keys (comm time per category,
    /// wire split, overlap, faults) — the one mapping between the
    /// simulated-MPI stats surface and the unified metrics registry.
    /// No-op (and allocation-free) while the recorder is disabled.
    pub fn record_observability(&self, rank: usize) {
        pwobs::if_enabled(|rec| {
            for cat in Category::ALL {
                let t = self.time(cat);
                if t > 0.0 {
                    rec.gauge_add(&format!("rank{rank}/comm/{}_s", cat.key()), t);
                }
            }
            rec.gauge_add(&format!("rank{rank}/comm_s"), self.comm_time());
            rec.gauge_add(&format!("rank{rank}/wire_intra_s"), self.intra_wire_s);
            rec.gauge_add(&format!("rank{rank}/wire_inter_s"), self.inter_wire_s);
            rec.gauge_add(&format!("rank{rank}/overlap_total_s"), self.overlap_total_s);
            rec.gauge_add(&format!("rank{rank}/overlap_hidden_s"), self.overlap_hidden_s);
            rec.gauge_add(&format!("rank{rank}/fault_delay_s"), self.fault_delay_s);
            let faults = self.faults_dropped + self.faults_delayed + self.faults_duplicated;
            if faults > 0 {
                rec.counter_add(&format!("rank{rank}/faults"), faults);
            }
        });
    }
}

/// Format an `f64` for JSON (non-finite values become `null`).
fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Immutable end-of-run report for one rank.
#[derive(Clone, Debug)]
pub struct RankReport {
    /// The rank this report belongs to.
    pub rank: usize,
    /// Final virtual clock value (seconds).
    pub virtual_time: f64,
    /// Collected statistics.
    pub stats: Stats,
}

impl RankReport {
    /// One flat JSON object per rank: `rank`, `virtual_time_s`, then
    /// every [`Stats::to_json`] field. Emitting one line per rank gives
    /// a JSONL stream directly loadable by analysis scripts.
    pub fn to_json(&self) -> String {
        let stats = self.stats.to_json();
        format!(
            "{{\"rank\": {}, \"virtual_time_s\": {}, {}",
            self.rank,
            fmt_json_f64(self.virtual_time),
            &stats[1..],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_accumulates_by_category() {
        let mut s = Stats::default();
        s.add_time(Category::Bcast, 1.5);
        s.add_time(Category::Bcast, 0.5);
        s.add_time(Category::Wait, 2.0);
        assert!((s.time(Category::Bcast) - 2.0).abs() < 1e-15);
        assert_eq!(s.count(Category::Bcast), 2);
        assert!((s.comm_time() - 4.0).abs() < 1e-15);
    }

    #[test]
    fn comm_time_is_the_category_ordered_fold() {
        // Magnitudes whose sum depends on the order it is taken in: the
        // total is the left fold over `Category::ALL` (Compute skipped),
        // bit for bit, however the times were recorded.
        let times = [3.0e-3, 1.1e-19, 7.0e-17, 2.5e-3, 1.0e-16, 9.0, 4.0e-17, 1.3e-3, 6.0e-18];
        let mut s = Stats::default();
        for (&cat, &t) in Category::ALL.iter().rev().zip(times.iter().cycle()) {
            s.add_time(cat, t);
        }
        for (i, cat) in Category::ALL.into_iter().enumerate() {
            assert_eq!(cat.index(), i, "{cat}");
        }
        let fold = Category::ALL
            .iter()
            .filter(|&&c| c != Category::Compute)
            .fold(-0.0f64, |acc, &c| acc + s.time(c));
        assert_eq!(s.comm_time().to_bits(), fold.to_bits());
        assert_eq!(Stats::default().comm_time().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn compute_excluded_from_comm() {
        let mut s = Stats::default();
        s.add_time(Category::Compute, 100.0);
        s.add_time(Category::Allreduce, 1.0);
        assert!((s.comm_time() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn overlap_efficiency_bounds() {
        let mut s = Stats::default();
        assert_eq!(s.overlap_efficiency(), 0.0, "no messages => 0");
        s.overlap_total_s = 4.0;
        s.overlap_hidden_s = 3.0;
        assert!((s.overlap_efficiency() - 0.75).abs() < 1e-15);
    }

    #[test]
    fn table1_has_six_columns() {
        assert_eq!(Category::TABLE1.len(), 6);
        assert_eq!(Category::TABLE1[0], Category::Alltoallv);
        assert_eq!(Category::TABLE1[5], Category::Bcast);
    }

    #[test]
    fn json_dump_is_flat_and_complete() {
        let mut s = Stats::default();
        s.add_time(Category::Allreduce, 1.25);
        s.add_time(Category::Compute, 3.0);
        s.bytes_sent = 4096;
        s.overlap_total_s = 2.0;
        s.overlap_hidden_s = 1.0;
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        // Flat: exactly one object, no nesting.
        assert_eq!(j.matches('{').count(), 1);
        assert!(j.contains("\"time_allreduce_s\": 1.25"));
        assert!(j.contains("\"n_allreduce\": 1"));
        assert!(j.contains("\"time_compute_s\": 3"));
        assert!(j.contains("\"comm_s\": 1.25"));
        assert!(j.contains("\"bytes_sent\": 4096"));
        assert!(j.contains("\"overlap_efficiency\": 0.5"));
        // Every category appears even when untouched.
        for cat in Category::ALL {
            assert!(j.contains(&format!("\"time_{}_s\":", cat.key())), "{cat} missing");
        }

        let rep = RankReport { rank: 7, virtual_time: 0.5, stats: s };
        let rj = rep.to_json();
        assert!(rj.starts_with("{\"rank\": 7, \"virtual_time_s\": 0.5, "));
        assert!(rj.ends_with('}'));
        assert_eq!(rj.matches('{').count(), 1);
    }

    #[test]
    fn observability_bridge_records_per_rank_gauges() {
        let mut s = Stats::default();
        s.add_time(Category::Allreduce, 1.5);
        s.intra_wire_s = 0.25;
        s.faults_dropped = 2;
        // Disabled: must be a no-op.
        pwobs::set_enabled(false);
        s.record_observability(987654);
        assert_eq!(pwobs::global().gauge("rank987654/comm_s"), None);

        // An improbable rank key keeps concurrent tests (which may also
        // run with the recorder enabled) from colliding with these
        // assertions.
        pwobs::set_enabled(true);
        s.record_observability(987654);
        let rec = pwobs::global();
        assert_eq!(rec.gauge("rank987654/comm/allreduce_s"), Some(1.5));
        assert_eq!(rec.gauge("rank987654/comm_s"), Some(1.5));
        assert_eq!(rec.gauge("rank987654/wire_intra_s"), Some(0.25));
        assert_eq!(rec.counter("rank987654/faults"), 2);
        pwobs::set_enabled(false);
    }
}
