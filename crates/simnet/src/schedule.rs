//! Communication schedules: DAGs of transfers and compute operations.
//!
//! A collective algorithm (ring, multi-color tree, recursive doubling, …)
//! compiles into a [`CommSchedule`]: every point-to-point message becomes a
//! [`OpKind::Transfer`], and every local reduction (summing a received chunk
//! into an accumulation buffer — what the paper does with altivec
//! instructions) becomes a [`OpKind::Compute`]. Dependencies express the
//! algorithm's ordering: a parent in a reduction tree cannot forward a chunk
//! before it has received and summed its children's contributions.

use crate::topology::NodeId;

/// Identifier of an operation within a schedule.
pub type OpId = usize;

/// One node of the schedule DAG.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Move `bytes` from `src` to `dst` over the fabric.
    Transfer {
        /// Sending node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Payload size in bytes.
        bytes: f64,
    },
    /// Occupy `rank`'s local compute resource for `secs` seconds
    /// (e.g. summing a received buffer into the local accumulation).
    Compute {
        /// Node performing the work.
        rank: NodeId,
        /// Duration of the work.
        secs: f64,
    },
}

/// An operation plus the operations it must wait for.
#[derive(Debug, Clone)]
pub struct Op {
    /// What the operation does.
    pub kind: OpKind,
    /// Operations that must complete before this one starts.
    pub deps: Vec<OpId>,
}

/// A DAG of operations over `n_ranks` nodes.
#[derive(Debug, Clone, Default)]
pub struct CommSchedule {
    ops: Vec<Op>,
    n_ranks: usize,
}

impl CommSchedule {
    /// Empty schedule over `n_ranks` nodes.
    pub fn new(n_ranks: usize) -> Self {
        CommSchedule { ops: Vec::new(), n_ranks }
    }

    /// Number of ranks (nodes) this schedule involves.
    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// All operations, indexable by [`OpId`].
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Add a transfer; returns its id. Dependencies must already exist.
    pub fn transfer(&mut self, src: NodeId, dst: NodeId, bytes: f64, deps: Vec<OpId>) -> OpId {
        assert!(src < self.n_ranks && dst < self.n_ranks, "transfer endpoint out of range");
        assert!(bytes >= 0.0 && bytes.is_finite());
        self.push(Op { kind: OpKind::Transfer { src, dst, bytes }, deps })
    }

    /// Add a compute op; returns its id. Dependencies must already exist.
    pub fn compute(&mut self, rank: NodeId, secs: f64, deps: Vec<OpId>) -> OpId {
        assert!(rank < self.n_ranks, "compute rank out of range");
        assert!(secs >= 0.0 && secs.is_finite());
        self.push(Op { kind: OpKind::Compute { rank, secs }, deps })
    }

    fn push(&mut self, op: Op) -> OpId {
        let id = self.ops.len();
        for &d in &op.deps {
            assert!(d < id, "dependency {d} does not precede op {id}");
        }
        self.ops.push(op);
        id
    }

    /// Total bytes transferred by all `Transfer` ops.
    pub fn total_bytes(&self) -> f64 {
        self.ops
            .iter()
            .map(|op| match op.kind {
                OpKind::Transfer { bytes, .. } => bytes,
                OpKind::Compute { .. } => 0.0,
            })
            .sum()
    }

    /// Rewrite every rank through `perm` (`new_rank = perm[old_rank]`) —
    /// models placing logical ranks onto different physical nodes of the
    /// fabric. The paper notes its multi-color trees minimize contention
    /// when colors map to consecutive fat-tree nodes but still utilize links
    /// well "with nodes arbitrarily mapped" (§4.2); this makes that claim
    /// testable for any schedule.
    ///
    /// # Panics
    /// Panics unless `perm` is a permutation of `0..n_ranks`.
    pub fn remap(&self, perm: &[usize]) -> CommSchedule {
        assert_eq!(perm.len(), self.n_ranks, "permutation length mismatch");
        let mut seen = vec![false; self.n_ranks];
        for &p in perm {
            assert!(p < self.n_ranks && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let ops = self
            .ops
            .iter()
            .map(|op| Op {
                kind: match op.kind {
                    OpKind::Transfer { src, dst, bytes } => {
                        OpKind::Transfer { src: perm[src], dst: perm[dst], bytes }
                    }
                    OpKind::Compute { rank, secs } => {
                        OpKind::Compute { rank: perm[rank], secs }
                    }
                },
                deps: op.deps.clone(),
            })
            .collect();
        CommSchedule { ops, n_ranks: self.n_ranks }
    }

    /// Validate that ids form a DAG by construction (deps always precede) and
    /// that endpoints are within range. Returns the op count.
    pub fn validate(&self) -> usize {
        for (id, op) in self.ops.iter().enumerate() {
            for &d in &op.deps {
                assert!(d < id);
            }
            match op.kind {
                OpKind::Transfer { src, dst, bytes } => {
                    assert!(src < self.n_ranks && dst < self.n_ranks);
                    assert!(bytes >= 0.0);
                }
                OpKind::Compute { rank, secs } => {
                    assert!(rank < self.n_ranks);
                    assert!(secs >= 0.0);
                }
            }
        }
        self.ops.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_chain() {
        let mut s = CommSchedule::new(4);
        let a = s.transfer(0, 1, 100.0, vec![]);
        let b = s.compute(1, 0.5, vec![a]);
        let c = s.transfer(1, 2, 100.0, vec![b]);
        assert_eq!(c, 2);
        assert_eq!(s.len(), 3);
        assert_eq!(s.validate(), 3);
        assert!((s.total_bytes() - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn forward_dependency_panics() {
        let mut s = CommSchedule::new(2);
        s.transfer(0, 1, 1.0, vec![5]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_endpoint_panics() {
        let mut s = CommSchedule::new(2);
        s.transfer(0, 2, 1.0, vec![]);
    }

    #[test]
    fn empty_schedule() {
        let s = CommSchedule::new(1);
        assert!(s.is_empty());
        assert_eq!(s.total_bytes(), 0.0);
    }

    #[test]
    fn remap_rewrites_endpoints() {
        let mut s = CommSchedule::new(3);
        let a = s.transfer(0, 1, 5.0, vec![]);
        s.compute(2, 0.1, vec![a]);
        let r = s.remap(&[2, 0, 1]);
        match r.ops()[0].kind {
            OpKind::Transfer { src, dst, bytes } => {
                assert_eq!((src, dst), (2, 0));
                assert_eq!(bytes, 5.0);
            }
            _ => panic!("expected transfer"),
        }
        match r.ops()[1].kind {
            OpKind::Compute { rank, .. } => assert_eq!(rank, 1),
            _ => panic!("expected compute"),
        }
        assert_eq!(r.ops()[1].deps, vec![0]);
        r.validate();
    }

    #[test]
    fn identity_remap_is_noop() {
        let mut s = CommSchedule::new(4);
        s.transfer(1, 3, 7.0, vec![]);
        let r = s.remap(&[0, 1, 2, 3]);
        assert_eq!(r.ops()[0].kind, s.ops()[0].kind);
    }

    #[test]
    #[should_panic]
    fn non_permutation_panics() {
        let s = CommSchedule::new(3);
        let _ = s.remap(&[0, 0, 1]);
    }
}
