//! Server CPU model: bounded ingress queue with per-interval processing
//! budget.
//!
//! The simulator's message handling is instantaneous, so without a CPU
//! model every server would have infinite throughput and the paper's
//! capacity comparisons (Figures 5 and 6) could not reproduce. Each
//! namenode admits client operations into a bounded queue and drains it
//! once per flush interval, spending [`CpuModel`] time per operation until
//! the interval's budget is used up; the excess waits (queueing delay) or,
//! past the bound, is dropped for the client to retry.

use std::collections::VecDeque;

use mams_sim::{Duration, NodeId};

use crate::proto::{FsOp, Xid};

/// A unit of admitted work: a client operation or a distributed-transaction
/// leg from another group's coordinator. Both consume server CPU, which is
/// why the paper's structural operations do not scale with the number of
/// actives.
#[derive(Debug)]
pub enum IngressItem {
    Client { from: NodeId, op: FsOp, seq: u64 },
    Leg { coordinator: NodeId, xid: Xid, op: FsOp },
}

impl IngressItem {
    pub fn op(&self) -> &FsOp {
        match self {
            IngressItem::Client { op, .. } | IngressItem::Leg { op, .. } => op,
        }
    }
}

/// Per-operation processing costs (calibrated to commodity-namenode rates:
/// ~20k reads/s and ~6.7k mutations/s per server).
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    pub read: Duration,
    pub mutation: Duration,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel { read: Duration::from_micros(50), mutation: Duration::from_micros(150) }
    }
}

impl CpuModel {
    pub fn cost(&self, op: &FsOp) -> Duration {
        if op.is_mutation() {
            self.mutation
        } else {
            self.read
        }
    }
}

/// Bounded admission queue with deficit carry-over (unspent budget rolls
/// into the next interval while work is waiting, so sustained throughput
/// tracks the CPU model continuously instead of quantizing to whole ops
/// per interval).
#[derive(Debug)]
pub struct Ingress {
    queue: VecDeque<IngressItem>,
    bound: usize,
    dropped: u64,
    credit: Duration,
    admitted: u64,
}

impl Default for Ingress {
    fn default() -> Self {
        Ingress::new(10_000)
    }
}

impl Ingress {
    pub fn new(bound: usize) -> Self {
        Ingress { queue: VecDeque::new(), bound, dropped: 0, credit: Duration::ZERO, admitted: 0 }
    }

    /// Admit a client operation; `false` = queue full, op dropped (client
    /// will time out and retry). The fourth argument is reserved; see
    /// ROADMAP item 2.
    pub fn push(&mut self, from: NodeId, op: FsOp, seq: u64, _reserved: Option<u64>) -> bool {
        self.push_item(IngressItem::Client { from, op, seq })
    }

    /// Admit any work item.
    pub fn push_item(&mut self, item: IngressItem) -> bool {
        if self.queue.len() >= self.bound {
            self.dropped += 1;
            return false;
        }
        self.queue.push_back(item);
        self.admitted += 1;
        true
    }

    /// Take as many queued operations as fit in `budget` (plus carried
    /// credit) under `cpu`.
    pub fn drain(&mut self, budget: Duration, cpu: CpuModel) -> Vec<IngressItem> {
        let mut avail = budget + self.credit;
        let mut out = Vec::new();
        while let Some(item) = self.queue.front() {
            let cost = cpu.cost(item.op());
            if cost > avail {
                break;
            }
            avail = avail - cost;
            out.push(self.queue.pop_front().expect("front checked"));
        }
        if out.is_empty() {
            if let Some(item) = self.queue.pop_front() {
                // Progress guarantee for overweight items.
                out.push(item);
                avail = Duration::ZERO;
            }
        }
        // Credit only accumulates while work is waiting (capacity cannot be
        // banked while idle).
        self.credit = if self.queue.is_empty() { Duration::ZERO } else { avail.min(budget) };
        out
    }

    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Operations rejected because the queue was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total operations ever admitted (monotone; the adaptive commit
    /// controller differences this across ticks to observe arrival rate).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Discard all queued operations (failover: clients retry elsewhere).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(i: u64) -> (NodeId, FsOp, u64) {
        (1, FsOp::GetFileInfo { path: "/x".into() }, i)
    }
    fn mutation(i: u64) -> (NodeId, FsOp, u64) {
        (1, FsOp::Create { path: format!("/f{i}"), replication: 1 }, i)
    }
    fn seq_of(item: &IngressItem) -> u64 {
        match item {
            IngressItem::Client { seq, .. } => *seq,
            IngressItem::Leg { xid, .. } => xid.2,
        }
    }

    #[test]
    fn budget_limits_drain() {
        let mut q = Ingress::new(1_000);
        for i in 0..50 {
            let (f, o, s) = mutation(i);
            q.push(f, o, s, None);
        }
        let cpu = CpuModel::default(); // 150us per mutation
        let got = q.drain(Duration::from_millis(2), cpu);
        // 2ms / 150us ≈ 13 ops.
        assert!((12..=14).contains(&got.len()), "drained {}", got.len());
        assert_eq!(q.len(), 50 - got.len());
        // Carry-over: over many intervals the rate converges to
        // budget/cost exactly (2ms / 150us = 13.33 ops per interval).
        for i in 50..200 {
            let (f, o, s) = mutation(i);
            q.push(f, o, s, None);
        }
        let mut total = got.len();
        for _ in 0..14 {
            total += q.drain(Duration::from_millis(2), cpu).len();
        }
        assert!((198..=200).contains(&total), "15 intervals drained {total}");
    }

    #[test]
    fn reads_are_cheaper() {
        let mut q = Ingress::new(100);
        for i in 0..50 {
            let (f, o, s) = read(i);
            q.push(f, o, s, None);
        }
        let got = q.drain(Duration::from_millis(2), CpuModel::default());
        assert!(got.len() >= 39, "drained {}", got.len());
    }

    #[test]
    fn at_least_one_op_even_if_overweight() {
        let mut q = Ingress::new(10);
        let (f, o, s) = mutation(0);
        q.push(f, o, s, None);
        let got = q.drain(Duration::from_micros(1), CpuModel::default());
        assert_eq!(got.len(), 1, "progress guarantee");
    }

    #[test]
    fn admitted_counts_only_accepted_ops() {
        let mut q = Ingress::new(2);
        for i in 0..5 {
            let (f, o, s) = mutation(i);
            q.push(f, o, s, None);
        }
        assert_eq!(q.admitted(), 2);
        q.drain(Duration::from_secs(1), CpuModel::default());
        let (f, o, s) = mutation(9);
        q.push(f, o, s, None);
        // Monotone across drains.
        assert_eq!(q.admitted(), 3);
    }

    #[test]
    fn bound_drops_overflow() {
        let mut q = Ingress::new(2);
        for i in 0..5 {
            let (f, o, s) = mutation(i);
            q.push(f, o, s, None);
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 3);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = Ingress::new(10);
        for i in 0..5 {
            let (f, o, s) = mutation(i);
            q.push(f, o, s, None);
        }
        let got = q.drain(Duration::from_secs(1), CpuModel::default());
        let seqs: Vec<u64> = got.iter().map(seq_of).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
