//! Intra-stage parallelism configurations (Table III) and sub-mesh
//! shapes.

/// Shape of a (sub-)mesh: `nodes × gpus_per_node`. A plain value type so
/// plan search can enumerate shapes without dragging GPU specs around;
//  instantiate a concrete `predtop_cluster::Mesh` from a `Platform` when
//  costing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshShape {
    /// Host nodes in the sub-mesh.
    pub nodes: usize,
    /// GPUs per host node.
    pub gpus_per_node: usize,
}

impl MeshShape {
    /// Construct a shape.
    pub fn new(nodes: usize, gpus_per_node: usize) -> MeshShape {
        assert!(nodes >= 1 && gpus_per_node >= 1);
        MeshShape {
            nodes,
            gpus_per_node,
        }
    }

    /// Total devices.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.nodes * self.gpus_per_node
    }

    /// Table II display index, if this is one of the table's meshes.
    pub fn table2_index(&self) -> Option<usize> {
        match (self.nodes, self.gpus_per_node) {
            (1, 1) => Some(1),
            (1, 2) => Some(2),
            (2, 2) => Some(3),
            _ => None,
        }
    }

    /// `nodes x gpus` label.
    pub fn label(&self) -> String {
        format!("{}x{}", self.nodes, self.gpus_per_node)
    }
}

/// One intra-stage parallelism configuration: `dp`-way data parallelism
/// combined with `mp`-way model/tensor parallelism; `dp · mp` equals the
/// device count of the mesh the stage runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Data-parallel degree (batch axis replication).
    pub dp: usize,
    /// Model/tensor-parallel degree (operator partitioning).
    pub mp: usize,
}

impl ParallelConfig {
    /// Construct a configuration.
    pub fn new(dp: usize, mp: usize) -> ParallelConfig {
        assert!(dp >= 1 && mp >= 1);
        ParallelConfig { dp, mp }
    }

    /// The serial configuration (single device).
    pub const SERIAL: ParallelConfig = ParallelConfig { dp: 1, mp: 1 };

    /// Total devices this configuration occupies.
    #[inline]
    pub fn num_devices(&self) -> usize {
        self.dp * self.mp
    }

    /// Human-readable remark matching Table III's wording.
    pub fn remark(&self) -> String {
        match (self.dp, self.mp) {
            (1, 1) => "Single GPU (No parallelism)".to_string(),
            (d, 1) => format!("{d} way Data parallel"),
            (1, m) => format!("{m} way Model parallel"),
            (d, m) => format!("{d} way Data and {m} way Model parallel"),
        }
    }
}

/// The Table III configurations for a mesh of `shape`: every `(dp, mp)`
/// factorization of the device count into powers of two, ordered from
/// all-DP to all-MP — for a 4-device mesh that is `(4,1)`, `(2,2)`,
/// `(1,4)`, exactly configurations 1–3 of mesh 3.
pub fn table3_configs(shape: MeshShape) -> Vec<ParallelConfig> {
    let n = shape.num_devices();
    assert!(
        n.is_power_of_two(),
        "meshes have power-of-two device counts"
    );
    let mut out = Vec::new();
    let mut dp = n;
    while dp >= 1 {
        out.push(ParallelConfig::new(dp, n / dp));
        if dp == 1 {
            break;
        }
        dp /= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_mesh1() {
        let c = table3_configs(MeshShape::new(1, 1));
        assert_eq!(c, vec![ParallelConfig::SERIAL]);
        assert_eq!(c[0].remark(), "Single GPU (No parallelism)");
    }

    #[test]
    fn table3_mesh2() {
        let c = table3_configs(MeshShape::new(1, 2));
        assert_eq!(c.len(), 2);
        assert_eq!(c[0], ParallelConfig::new(2, 1));
        assert_eq!(c[1], ParallelConfig::new(1, 2));
        assert_eq!(c[0].remark(), "2 way Data parallel");
        assert_eq!(c[1].remark(), "2 way Model parallel");
    }

    #[test]
    fn table3_mesh3() {
        let c = table3_configs(MeshShape::new(2, 2));
        assert_eq!(
            c,
            vec![
                ParallelConfig::new(4, 1),
                ParallelConfig::new(2, 2),
                ParallelConfig::new(1, 4),
            ]
        );
        assert_eq!(c[1].remark(), "2 way Data and 2 way Model parallel");
    }

    #[test]
    fn devices_consistent() {
        for shape in [
            MeshShape::new(1, 1),
            MeshShape::new(1, 2),
            MeshShape::new(2, 2),
        ] {
            for c in table3_configs(shape) {
                assert_eq!(c.num_devices(), shape.num_devices());
            }
        }
    }

    #[test]
    fn mesh_shape_labels() {
        assert_eq!(MeshShape::new(2, 2).label(), "2x2");
        assert_eq!(MeshShape::new(2, 2).table2_index(), Some(3));
        assert_eq!(MeshShape::new(4, 2).table2_index(), None);
    }
}
