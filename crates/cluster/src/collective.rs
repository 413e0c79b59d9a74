//! Analytical cost models for communication collectives.
//!
//! Costs follow the standard α–β model used by Alpa and FasterMoE:
//! a ring all-reduce over `n` devices moves `2·(n−1)/n · bytes` through
//! the slowest link in the ring, plus `2·(n−1)` per-hop latencies. The
//! simulator and the intra-stage optimizer both price resharding and
//! gradient synchronization through this module.

use crate::interconnect::Link;
use crate::mesh::Mesh;

/// Which collective operation to price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Collective {
    /// Ring all-reduce (gradient sync, TP partial-sum combination).
    AllReduce,
    /// All-gather of shards into a replicated tensor.
    AllGather,
    /// Reduce-scatter of a replicated tensor into shards.
    ReduceScatter,
    /// All-to-all (MoE expert dispatch).
    AllToAll,
    /// Point-to-point send of the full buffer (pipeline stage boundary).
    SendRecv,
    /// One-to-all broadcast.
    Broadcast,
}

/// Cost evaluator for collectives on a device group inside a mesh.
#[derive(Debug, Clone)]
pub struct CollectiveCost {
    link: Link,
    group_size: usize,
}

impl CollectiveCost {
    /// Build a cost evaluator for a `group_size`-device group placed
    /// mesh-order inside `mesh` (the bottleneck link is chosen by
    /// [`Mesh::group_link`]).
    pub fn on_mesh(mesh: &Mesh, group_size: usize) -> CollectiveCost {
        assert!(group_size >= 1, "empty communication group");
        assert!(
            group_size <= mesh.num_devices(),
            "group of {group_size} exceeds mesh with {} devices",
            mesh.num_devices()
        );
        CollectiveCost {
            link: mesh.group_link(group_size),
            group_size,
        }
    }

    /// Build directly from a link and group size (tests, custom layouts).
    pub fn on_link(link: Link, group_size: usize) -> CollectiveCost {
        assert!(group_size >= 1);
        CollectiveCost { link, group_size }
    }

    /// Group size this evaluator was built for.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The bottleneck link.
    #[inline]
    pub fn link(&self) -> Link {
        self.link
    }

    /// Time in seconds for the collective over a `bytes`-sized buffer.
    ///
    /// Groups of one device cost nothing (no communication happens).
    pub fn time_s(&self, op: Collective, bytes: u64) -> f64 {
        let n = self.group_size as f64;
        if self.group_size == 1 {
            return 0.0;
        }
        let bw = self.link.bandwidth_bps();
        let lat = self.link.latency_s();
        let b = bytes as f64;
        match op {
            // ring all-reduce: reduce-scatter + all-gather
            Collective::AllReduce => 2.0 * (n - 1.0) / n * b / bw + 2.0 * (n - 1.0) * lat,
            Collective::AllGather | Collective::ReduceScatter => {
                (n - 1.0) / n * b / bw + (n - 1.0) * lat
            }
            // pairwise exchange; each device sends (n-1)/n of its buffer
            Collective::AllToAll => (n - 1.0) / n * b / bw + (n - 1.0) * lat,
            Collective::SendRecv => b / bw + lat,
            // binomial-tree broadcast: log2(n) full-buffer hops
            Collective::Broadcast => {
                let hops = (n).log2().ceil();
                hops * (b / bw + lat)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::Platform;
    use proptest::prelude::*;

    #[test]
    fn single_device_group_is_free() {
        let m = Platform::platform1().mesh(1, 1);
        let c = CollectiveCost::on_mesh(&m, 1);
        for op in [
            Collective::AllReduce,
            Collective::AllGather,
            Collective::AllToAll,
            Collective::SendRecv,
            Collective::Broadcast,
        ] {
            assert_eq!(c.time_s(op, 1 << 30), 0.0, "{op:?}");
        }
    }

    #[test]
    fn allreduce_equals_rs_plus_ag() {
        let c = CollectiveCost::on_link(Link::nvlink_bridge(), 4);
        let b = 64 << 20;
        let ar = c.time_s(Collective::AllReduce, b);
        let rs = c.time_s(Collective::ReduceScatter, b);
        let ag = c.time_s(Collective::AllGather, b);
        assert!((ar - (rs + ag)).abs() < 1e-12);
    }

    #[test]
    fn cross_node_group_pays_ethernet() {
        let m = Platform::platform2().mesh(2, 2);
        let within = CollectiveCost::on_mesh(&m, 2);
        let across = CollectiveCost::on_mesh(&m, 4);
        let b = 16 << 20;
        // 4-way all-reduce moves more data per device AND uses the slow
        // link: must be dramatically slower.
        let t2 = within.time_s(Collective::AllReduce, b);
        let t4 = across.time_s(Collective::AllReduce, b);
        assert!(t4 > 10.0 * t2, "t4={t4} t2={t2}");
    }

    #[test]
    #[should_panic(expected = "exceeds mesh")]
    fn oversized_group_panics() {
        let m = Platform::platform1().mesh(1, 2);
        let _ = CollectiveCost::on_mesh(&m, 4);
    }

    proptest! {
        #[test]
        fn prop_costs_monotone_in_bytes(
            bytes in 1u64..1u64 << 34,
            n in 2usize..16,
        ) {
            let c = CollectiveCost::on_link(Link::nvlink_bridge(), n);
            for op in [Collective::AllReduce, Collective::AllGather, Collective::AllToAll, Collective::SendRecv, Collective::Broadcast] {
                prop_assert!(c.time_s(op, bytes * 2) > c.time_s(op, bytes));
            }
        }

        #[test]
        fn prop_allreduce_bandwidth_term_bounded(
            n in 2usize..64,
        ) {
            // the 2(n-1)/n factor approaches 2 from below
            let c = CollectiveCost::on_link(Link { name: "ideal", bandwidth_gbs: 1.0, latency_us: 0.0 }, n);
            let t = c.time_s(Collective::AllReduce, 1_000_000_000);
            prop_assert!((1.0..2.0).contains(&t));
        }
    }
}
