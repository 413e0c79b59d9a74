//! Runtime-configuration scenarios: the (mesh, configuration) columns of
//! Tables V and VI.

use predtop_cluster::Platform;
use predtop_parallel::{table3_configs, MeshShape, ParallelConfig};

/// One table column: a mesh (Table II) and an intra-stage configuration
/// (Table III) on a platform.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Table II mesh index (1-based).
    pub mesh_index: usize,
    /// Table III configuration index within the mesh (1-based).
    pub config_index: usize,
    /// The mesh shape.
    pub mesh: MeshShape,
    /// The parallelism configuration.
    pub config: ParallelConfig,
}

impl Scenario {
    /// `(m, p)` experiment identifier used by §VII-A.
    pub fn id(&self) -> String {
        format!("({},{})", self.mesh_index, self.config_index)
    }

    /// Column header, e.g. `"Mesh 2 / Conf 1"`.
    pub fn header(&self) -> String {
        format!("Mesh {} Conf {}", self.mesh_index, self.config_index)
    }
}

/// All scenarios of a platform in table order: Platform 1 → three
/// columns (mesh 1 conf 1; mesh 2 confs 1–2), Platform 2 → six (adding
/// mesh 3 confs 1–3).
pub fn platform_scenarios(platform: &Platform) -> Vec<Scenario> {
    let mut out = Vec::new();
    for mesh in platform.table2_meshes() {
        let shape = MeshShape::new(mesh.num_nodes, mesh.gpus_per_node);
        let mesh_index = shape.table2_index().expect("table meshes only");
        for (ci, config) in table3_configs(shape).into_iter().enumerate() {
            out.push(Scenario {
                mesh_index,
                config_index: ci + 1,
                mesh: shape,
                config,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform1_has_three_columns() {
        let s = platform_scenarios(&Platform::platform1());
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].id(), "(1,1)");
        assert_eq!(s[1].id(), "(2,1)");
        assert_eq!(s[2].id(), "(2,2)");
        assert_eq!(s[1].config, ParallelConfig::new(2, 1));
        assert_eq!(s[2].config, ParallelConfig::new(1, 2));
    }

    #[test]
    fn platform2_has_six_columns() {
        let s = platform_scenarios(&Platform::platform2());
        assert_eq!(s.len(), 6);
        assert_eq!(s[3].id(), "(3,1)");
        assert_eq!(s[5].config, ParallelConfig::new(1, 4));
        assert_eq!(s[5].header(), "Mesh 3 Conf 3");
    }
}
