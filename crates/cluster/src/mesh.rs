//! Device meshes (Table II) and the two experimental platforms (§VII-A).

use crate::gpu::GpuSpec;
use crate::interconnect::Link;

/// A homogeneous device mesh: `num_nodes` hosts × `gpus_per_node` GPUs,
/// NVLink-class links inside a host and a slower fabric between hosts.
///
/// The paper restricts itself to homogeneous meshes because "DP and TP
/// across heterogeneous devices are suboptimal, with one device
/// inevitably becoming a bottleneck".
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    /// Number of host nodes.
    pub num_nodes: usize,
    /// GPUs per host node.
    pub gpus_per_node: usize,
    /// GPU model populating the mesh.
    pub gpu: GpuSpec,
    /// Link between GPUs of the same node.
    pub intra_link: Link,
    /// Link between nodes (irrelevant for single-node meshes).
    pub inter_link: Link,
}

impl Mesh {
    /// Total device count.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.num_nodes * self.gpus_per_node
    }

    /// Does the mesh live on a single host?
    #[inline]
    pub fn is_single_node(&self) -> bool {
        self.num_nodes == 1
    }

    /// The bottleneck link for a communication group of `group_size`
    /// devices laid out mesh-order (fill a node before spilling to the
    /// next): groups that fit inside one node use the intra-node link,
    /// anything larger is throttled by the inter-node fabric.
    pub fn group_link(&self, group_size: usize) -> Link {
        if group_size <= self.gpus_per_node {
            self.intra_link
        } else {
            self.inter_link
        }
    }

    /// Table II mesh index for display (`1` = 1×1, `2` = 1×2, `3` = 2×2),
    /// or `None` for shapes outside the table.
    pub fn table2_index(&self) -> Option<usize> {
        match (self.num_nodes, self.gpus_per_node) {
            (1, 1) => Some(1),
            (1, 2) => Some(2),
            (2, 2) => Some(3),
            _ => None,
        }
    }

    /// A compact `nodes x gpus` label.
    pub fn label(&self) -> String {
        format!("{}x{}", self.num_nodes, self.gpus_per_node)
    }
}

/// One of the paper's two experimental platforms: a GPU model plus the
/// set of Table II meshes realizable on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Platform name for reports ("Platform 1" / "Platform 2").
    pub name: &'static str,
    /// GPU model installed.
    pub gpu: GpuSpec,
    /// Maximum number of host nodes available.
    pub max_nodes: usize,
    /// GPUs per host node.
    pub gpus_per_node: usize,
    /// Intra-node link.
    pub intra_link: Link,
    /// Inter-node link.
    pub inter_link: Link,
}

impl Platform {
    /// Platform 1: one R750XA server with 2 × A40 over one NVLink bridge.
    pub fn platform1() -> Platform {
        Platform {
            name: "Platform 1",
            gpu: GpuSpec::a40(),
            max_nodes: 1,
            gpus_per_node: 2,
            intra_link: Link::nvlink_bridge(),
            inter_link: Link::ethernet_10g(),
        }
    }

    /// Platform 2: two Precision 5820 nodes, 2 × RTX A5500 each, NVLink
    /// within a node and 10 GbE between nodes.
    pub fn platform2() -> Platform {
        Platform {
            name: "Platform 2",
            gpu: GpuSpec::a5500(),
            max_nodes: 2,
            gpus_per_node: 2,
            intra_link: Link::nvlink_bridge(),
            inter_link: Link::ethernet_10g(),
        }
    }

    /// Instantiate the mesh with `num_nodes × gpus_per_node` devices.
    ///
    /// # Panics
    /// Panics if the shape exceeds what the platform physically has.
    pub fn mesh(&self, num_nodes: usize, gpus_per_node: usize) -> Mesh {
        assert!(
            num_nodes >= 1 && num_nodes <= self.max_nodes,
            "{}: {num_nodes} nodes requested, {} available",
            self.name,
            self.max_nodes
        );
        assert!(
            gpus_per_node >= 1 && gpus_per_node <= self.gpus_per_node,
            "{}: {gpus_per_node} GPUs/node requested, {} available",
            self.name,
            self.gpus_per_node
        );
        Mesh {
            num_nodes,
            gpus_per_node,
            gpu: self.gpu.clone(),
            intra_link: self.intra_link,
            inter_link: self.inter_link,
        }
    }

    /// All Table II meshes realizable on this platform, in table order.
    pub fn table2_meshes(&self) -> Vec<Mesh> {
        let mut out = vec![self.mesh(1, 1), self.mesh(1, 2)];
        if self.max_nodes >= 2 {
            out.push(self.mesh(2, 2));
        }
        out
    }

    /// The largest mesh (the whole platform), used by plan search.
    pub fn full_mesh(&self) -> Mesh {
        self.mesh(self.max_nodes, self.gpus_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_indices() {
        let p2 = Platform::platform2();
        let meshes = p2.table2_meshes();
        assert_eq!(meshes.len(), 3);
        assert_eq!(meshes[0].table2_index(), Some(1));
        assert_eq!(meshes[1].table2_index(), Some(2));
        assert_eq!(meshes[2].table2_index(), Some(3));
        assert_eq!(meshes[2].num_devices(), 4);
    }

    #[test]
    fn platform1_only_two_meshes() {
        let p1 = Platform::platform1();
        let meshes = p1.table2_meshes();
        assert_eq!(meshes.len(), 2);
        assert!(meshes.iter().all(|m| m.is_single_node()));
        assert_eq!(p1.full_mesh().num_devices(), 2);
    }

    #[test]
    fn group_link_spills_to_ethernet() {
        let m = Platform::platform2().mesh(2, 2);
        assert_eq!(m.group_link(2).name, "NVLink bridge");
        assert_eq!(m.group_link(4).name, "10 GbE");
    }

    #[test]
    #[should_panic(expected = "nodes requested")]
    fn oversubscribed_mesh_panics() {
        let _ = Platform::platform1().mesh(2, 2);
    }

    #[test]
    fn labels() {
        assert_eq!(Platform::platform2().mesh(2, 1).label(), "2x1");
        assert_eq!(Platform::platform2().mesh(2, 1).table2_index(), None);
    }
}
