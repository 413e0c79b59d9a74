//! The gray-box framework: profile a sample → train per-scenario
//! predictors → predict everything (§VI, Fig. 7).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

use predtop_gnn::train::{train_with_threads, TrainConfig, TrainReport};
use predtop_gnn::{Dataset, GraphSample, Split, TrainedPredictor};
use predtop_models::{sample_stages, ModelSpec, StageSpec};
use predtop_parallel::interstage::candidate_submeshes;
use predtop_parallel::{
    table3_configs, MeshShape, ParallelConfig, StageLatencyProvider, StageStructure,
};
use predtop_runtime::par_map;
use predtop_service::api::{decode_config, decode_mesh};
use predtop_service::{AsProvider, LatencyQuery, LatencyReply, LatencyService, ServiceError};
use predtop_sim::SimProfiler;
use predtop_store::{ByteReader, ByteWriter, DecodeError};

use crate::artifacts::{self, ArtifactError};
use crate::predictor::ArchConfig;

/// Configuration of the gray-box workflow.
#[derive(Debug, Clone, Copy)]
pub struct GrayBoxConfig {
    /// How many stage candidates to profile (the paper samples a subset
    /// of all candidates; Alpa would profile every one).
    pub num_profile_stages: usize,
    /// Length cap (in layers) for the sampled training stages — §IV-B1's
    /// "stages of different sizes", biased away from the quadratic-cost
    /// giants.
    pub max_stage_layers: usize,
    /// Predictor architecture.
    pub arch: ArchConfig,
    /// Training protocol.
    pub train: TrainConfig,
    /// Seed for stage sampling and weight init.
    pub seed: u64,
}

impl GrayBoxConfig {
    /// Default single-core protocol with the given architecture.
    pub fn scaled(arch: ArchConfig) -> GrayBoxConfig {
        GrayBoxConfig {
            num_profile_stages: 60,
            max_stage_layers: 6,
            arch,
            train: TrainConfig::quick(40),
            seed: 0,
        }
    }
}

/// Every scenario's prediction for one stage structure.
type ScenarioPredictions = HashMap<(MeshShape, ParallelConfig), f64>;

/// A fitted PredTOP instance: one trained predictor per (sub-mesh,
/// configuration) scenario, usable as a drop-in [`LatencyService`]
/// source for the plan search (and as a [`StageLatencyProvider`]).
///
/// Predictions are cached per stage *structure*: the key is the
/// [`StageStructure`], which is equal exactly when two stages build the
/// same graph (`[1, 3)` and `[2, 4)` of a dense decoder), so such
/// stages share one inference. Each key owns a single-flight cell
/// holding every scenario's prediction: the first query builds the
/// stage graph and sample once (inside the cell, so one build per
/// structure without a graph store) and runs every scenario's forward
/// pass into the cell, concurrent queries for the same structure wait
/// for it, and queries for other structures run their own forwards in
/// parallel. The map lock is held only to fetch or insert a cell.
///
/// These cells stay even under a `Memoize` layer: one cell fills every
/// scenario of a stage structure from one sample build and one forward
/// pass per predictor, which a per-query cache cannot do.
pub struct PredTop {
    predictors: HashMap<(MeshShape, ParallelConfig), TrainedPredictor>,
    predictions: Mutex<HashMap<StageStructure, Arc<OnceLock<ScenarioPredictions>>>>,
    /// The architecture every scenario's predictor shares.
    arch: ArchConfig,
    /// Wall-clock seconds spent training all scenario predictors.
    pub training_seconds: f64,
    /// Inference seconds so far, summed over the threads that ran it.
    inference_seconds: Mutex<f64>,
    /// Stage structures whose forward passes have run.
    inferred_stages: AtomicUsize,
    /// Number of stages profiled during the fitting phase.
    pub profiled_stage_count: usize,
    /// Per-scenario training reports.
    pub reports: Vec<(MeshShape, ParallelConfig, TrainReport)>,
}

impl PredTop {
    /// Run the profiling and training phases for `model` on `cluster`:
    /// sample stages, profile them on every (sub-mesh, configuration)
    /// scenario via `profiler` (the cost lands on the profiler's
    /// ledger), and fit one predictor per scenario.
    pub fn fit(
        model: ModelSpec,
        cluster: MeshShape,
        profiler: &SimProfiler,
        cfg: &GrayBoxConfig,
    ) -> PredTop {
        let stages = sample_stages(
            model,
            cfg.num_profile_stages,
            cfg.max_stage_layers,
            cfg.seed,
        );
        assert!(
            stages.len() >= 10,
            "need at least 10 profiled stages to fit a predictor"
        );
        let pe_dim = cfg.arch.pe_dim();

        // Build the (latency-independent) sample matrices once per stage.
        let base_samples: Vec<GraphSample> = stages
            .iter()
            .map(|s| GraphSample::new(&profiler.stage_graph(s), 1.0, pe_dim))
            .collect();

        let scenarios: Vec<(u64, MeshShape, ParallelConfig)> = candidate_submeshes(cluster)
            .into_iter()
            .flat_map(|mesh| table3_configs(mesh).into_iter().map(move |c| (mesh, c)))
            .enumerate()
            .map(|(i, (mesh, config))| (i as u64, mesh, config))
            .collect();

        // Profiling phase, serially in scenario order.
        let profiled: Vec<_> = scenarios
            .into_iter()
            .map(|scenario @ (_, mesh, config)| {
                let latencies: Vec<f64> = stages
                    .iter()
                    .map(|s| profiler.stage_latency(s, mesh, config))
                    .collect();
                (scenario, latencies)
            })
            .collect();

        // Scenario-level parallelism: every (sub-mesh, configuration)
        // cell is an independent training run, so the fleet fans out
        // over scenarios while each cell trains serially inside (no
        // thread oversubscription, and each cell's weights stay
        // bit-identical to a fully serial fit because its init seed and
        // data order depend only on its enumeration index).
        let fitted = par_map(profiled, |((scenario_idx, mesh, config), latencies)| {
            let samples: Vec<GraphSample> = base_samples
                .iter()
                .zip(latencies)
                .map(|(base, latency)| {
                    let mut s = base.clone();
                    s.latency = latency;
                    s
                })
                .collect();
            let ds = Dataset::new(samples);
            let split = fit_split(ds.len());

            // training phase
            let started = Instant::now();
            let mut net = cfg.arch.build(cfg.seed.wrapping_add(scenario_idx));
            let (scaler, report) = train_with_threads(net.as_mut(), &ds, &split, &cfg.train, 1);
            let secs = started.elapsed().as_secs_f64();
            profiler.ledger().add_training(secs);
            let predictor = TrainedPredictor { model: net, scaler };
            (mesh, config, predictor, report, secs)
        });

        let mut predictors = HashMap::new();
        let mut reports = Vec::new();
        let mut training_seconds = 0.0;
        for (mesh, config, predictor, report, secs) in fitted {
            training_seconds += secs;
            reports.push((mesh, config, report));
            predictors.insert((mesh, config), predictor);
        }

        let mut pt = PredTop::new(cfg.arch, predictors, stages.len());
        pt.training_seconds = training_seconds;
        pt.reports = reports;
        pt
    }

    /// An instance over already-fitted per-scenario `predictors`, all
    /// of architecture `arch`, with an empty prediction cache and no
    /// training facts. It answers only the scenarios it holds.
    pub fn new(
        arch: ArchConfig,
        predictors: HashMap<(MeshShape, ParallelConfig), TrainedPredictor>,
        profiled_stage_count: usize,
    ) -> PredTop {
        PredTop {
            predictors,
            predictions: Mutex::new(HashMap::new()),
            arch,
            training_seconds: 0.0,
            inference_seconds: Mutex::new(0.0),
            inferred_stages: AtomicUsize::new(0),
            profiled_stage_count,
            reports: Vec::new(),
        }
    }

    /// Scenarios this instance can predict for.
    pub fn scenarios(&self) -> impl Iterator<Item = &(MeshShape, ParallelConfig)> {
        self.predictors.keys()
    }

    /// Seconds spent on inference so far (graph and sample build plus
    /// every scenario's forward pass), summed over the threads that ran
    /// it: queries from parallel search workers each add their own time,
    /// so the sum can exceed the elapsed wall time.
    pub fn inference_seconds(&self) -> f64 {
        *self.inference_seconds.lock()
    }

    /// Distinct stage structures whose forward passes have run so far.
    /// Structurally equal stages count once.
    pub fn inferred_stages(&self) -> usize {
        self.inferred_stages.load(Ordering::Relaxed)
    }

    /// Predict latencies of `stage` for every scenario at once (one
    /// sample construction amortized over all predictors).
    fn predict_all_scenarios(&self, stage: &StageSpec) -> ScenarioPredictions {
        let started = Instant::now();
        let sample = GraphSample::new(&stage.build_graph(), 1.0, self.arch.pe_dim());
        let preds = self
            .predictors
            .iter()
            .map(|(&scenario, predictor)| (scenario, predictor.predict(&sample).max(1e-9)))
            .collect();
        *self.inference_seconds.lock() += started.elapsed().as_secs_f64();
        self.inferred_stages.fetch_add(1, Ordering::Relaxed);
        preds
    }
}

/// Version byte heading every gray-box snapshot encoding.
pub const GRAYBOX_ENCODING_VERSION: u8 = 1;

/// Encode a fitted instance — a store payload, and the model file
/// `predtop fit -o` writes: every per-scenario predictor (in a
/// deterministic scenario order) with its sub-mesh and configuration,
/// through [`artifacts::encode_predictor`], each sealed with its
/// architecture and weight fingerprint. Wall-clock facts
/// (`training_seconds`, the per-scenario reports) are excluded — they
/// describe one run, not the fit.
pub fn encode_graybox(pt: &PredTop) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(GRAYBOX_ENCODING_VERSION);
    w.usize(pt.profiled_stage_count);
    let mut scenarios: Vec<_> = pt.predictors.iter().collect();
    scenarios
        .sort_by_key(|((mesh, config), _)| (mesh.nodes, mesh.gpus_per_node, config.dp, config.mp));
    w.usize(scenarios.len());
    for ((mesh, config), predictor) in scenarios {
        w.usize(mesh.nodes);
        w.usize(mesh.gpus_per_node);
        w.usize(config.dp);
        w.usize(config.mp);
        w.bytes(&artifacts::encode_predictor(&pt.arch, predictor));
    }
    w.into_bytes()
}

/// Rebuild a fitted instance from a payload written by
/// [`encode_graybox`]. The architecture comes from the sealed
/// predictors: every scenario's weights are fingerprint-checked, and
/// scenarios that disagree on the architecture are an
/// [`ArtifactError::ArchMismatch`]. A payload with no scenario is a
/// decode error.
pub fn decode_graybox(bytes: &[u8]) -> Result<PredTop, ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("graybox version")?;
    if version != GRAYBOX_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "graybox",
            version: version as u64,
        }
        .into());
    }
    let profiled_stage_count = r.usize("graybox profiled stages")?;
    let count = r.usize("graybox scenario count")?;
    let mut shared_arch = None;
    let mut predictors = HashMap::new();
    for _ in 0..count {
        let mesh = decode_mesh(&mut r)?;
        let config = decode_config(&mut r)?;
        let blob = r.bytes("scenario predictor")?;
        let (arch, predictor) = artifacts::decode_predictor(blob)?;
        if *shared_arch.get_or_insert(arch) != arch {
            return Err(ArtifactError::ArchMismatch);
        }
        predictors.insert((mesh, config), predictor);
    }
    r.finish().map_err(ArtifactError::Decode)?;
    let arch = shared_arch.ok_or(DecodeError::BadTag {
        what: "graybox scenario count",
        tag: 0,
    })?;
    Ok(PredTop::new(arch, predictors, profiled_stage_count))
}

/// 90/10 train/validation split over `n` fitted samples (no test part:
/// held-out evaluation happens at the table experiments, not inside the
/// workflow).
fn fit_split(n: usize) -> Split {
    let n_val = (n / 10).max(1);
    Split {
        train: (0..n - n_val).collect(),
        val: (n - n_val..n).collect(),
        test: Vec::new(),
    }
}

/// The service path through [`AsProvider`]: an unfitted scenario costs
/// `f64::INFINITY`, which the optimizer never picks.
impl StageLatencyProvider for PredTop {
    fn stage_latency(&self, stage: &StageSpec, mesh: MeshShape, config: ParallelConfig) -> f64 {
        AsProvider(self).stage_latency(stage, mesh, config)
    }
}

impl LatencyService for PredTop {
    fn name(&self) -> &'static str {
        "predictor"
    }

    fn query(&self, q: &LatencyQuery) -> Result<LatencyReply, ServiceError> {
        // an unfitted scenario is recoverable: a Fallback layer degrades
        // that query to the next source
        if !self.predictors.contains_key(&(q.mesh, q.config)) {
            return Err(ServiceError::ScenarioUnsupported {
                source: self.name(),
                mesh: q.mesh,
                config: q.config,
            });
        }
        // one cell per stage structure holds every placement
        let key = StageStructure::of(&q.stage);
        let cell = self.predictions.lock().entry(key).or_default().clone();
        Ok(LatencyReply {
            seconds: cell.get_or_init(|| self.predict_all_scenarios(&q.stage))[&(q.mesh, q.config)],
            source: self.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_cluster::Platform;
    use predtop_gnn::{mean_relative_error, ModelKind};

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.seq_len = 32;
        s.hidden = 32;
        s.num_heads = 4;
        s.vocab = 64;
        s.num_layers = 6;
        s
    }

    fn tiny_cfg() -> GrayBoxConfig {
        let mut arch = ArchConfig::scaled(ModelKind::DagTransformer);
        arch.layers = 1;
        arch.hidden = 16;
        arch.heads = 2;
        GrayBoxConfig {
            num_profile_stages: 12,
            max_stage_layers: 4,
            arch,
            train: TrainConfig::quick(8),
            seed: 0,
        }
    }

    #[test]
    fn fit_and_predict_end_to_end() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 2);
        let pt = PredTop::fit(tiny_model(), cluster, &profiler, &tiny_cfg());
        // scenarios: (1,1) serial + (1,2) {dp, mp} = 3
        assert_eq!(pt.scenarios().count(), 3);
        assert_eq!(pt.profiled_stage_count, 12);
        assert!(pt.training_seconds > 0.0);

        // prediction works for an unseen stage and is positive
        let stage = StageSpec::new(tiny_model(), 0, 5);
        let t = pt.stage_latency(&stage, MeshShape::new(1, 2), ParallelConfig::new(2, 1));
        assert!(t > 0.0);

        // cached: second call must not spend more inference time
        let before = pt.inference_seconds();
        let t2 = pt.stage_latency(&stage, MeshShape::new(1, 2), ParallelConfig::new(2, 1));
        assert_eq!(t, t2);
        assert_eq!(pt.inference_seconds(), before);
    }

    /// A fixed-seed fit's weight fingerprints and prediction bits,
    /// recorded on the code before structural sharing, the nested-inline
    /// rule and the fused attention op: all three must leave every bit
    /// where it was.
    #[test]
    fn fixed_seed_fit_reproduces_pinned_weights_and_predictions() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 2), &profiler, &tiny_cfg());
        let serial = (MeshShape::new(1, 1), ParallelConfig::SERIAL);
        let mp = (MeshShape::new(1, 2), ParallelConfig::new(1, 2));
        let dp = (MeshShape::new(1, 2), ParallelConfig::new(2, 1));
        for (scenario, fingerprint) in [
            (serial, 0x0d85_8767_690a_a3be_u64),
            (mp, 0x4e5a_ff82_f424_2a76),
            (dp, 0x6c75_a369_eb55_25dc),
        ] {
            let found = pt.predictors[&scenario].model.store().fingerprint();
            assert_eq!(found, fingerprint, "{scenario:?} weights moved");
        }
        let pinned: [((usize, usize), [u64; 3]); 5] = [
            (
                (0, 5),
                [
                    0x3f72_12ae_4a09_ae7f,
                    0x3f91_297f_207e_9899,
                    0x3f27_eb2b_3aac_0317,
                ],
            ),
            (
                (1, 3),
                [
                    0x3f68_13d7_efeb_35b1,
                    0x3f68_12b2_2d3f_e76f,
                    0x3f50_2289_a379_0a7f,
                ],
            ),
            (
                (2, 4),
                [
                    0x3f68_13d7_efeb_35b1,
                    0x3f68_12b2_2d3f_e76f,
                    0x3f50_2289_a379_0a7f,
                ],
            ),
            (
                (0, 6),
                [
                    0x3f72_b449_b03c_f334,
                    0x3f98_c6b7_5733_529a,
                    0x3f1d_d999_cf8b_1b6a,
                ],
            ),
            (
                (5, 6),
                [
                    0x3f64_9e4a_54e6_a9f1,
                    0x3f66_2658_28a3_6dd8,
                    0x3f4a_8dee_fb2a_ed4f,
                ],
            ),
        ];
        for ((start, end), bits) in pinned {
            let stage = StageSpec::new(tiny_model(), start, end);
            for ((mesh, config), want) in [serial, mp, dp].into_iter().zip(bits) {
                let got = pt.stage_latency(&stage, mesh, config).to_bits();
                assert_eq!(got, want, "[{start}, {end}) on ({mesh:?}, {config:?})");
            }
        }
        // [1, 3) and [2, 4) are one structure: four stages, one shared
        assert_eq!(pt.inferred_stages(), 4);
    }

    /// The fit bills exactly the profiles a serial replay takes
    /// (scenario by scenario, each over the sampled stages), to the bit.
    #[test]
    fn fit_bills_profiling_scenario_by_scenario() {
        let cluster = MeshShape::new(1, 2);
        let cfg = tiny_cfg();
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let _ = PredTop::fit(tiny_model(), cluster, &profiler, &cfg);
        let serial = SimProfiler::new(Platform::platform1(), 7);
        let stages = sample_stages(
            tiny_model(),
            cfg.num_profile_stages,
            cfg.max_stage_layers,
            cfg.seed,
        );
        for mesh in candidate_submeshes(cluster) {
            for config in table3_configs(mesh) {
                for s in &stages {
                    serial.stage_latency(s, mesh, config);
                }
            }
        }
        let (fit, want) = (profiler.ledger().totals(), serial.ledger().totals());
        assert_eq!(fit.stages_profiled, want.stages_profiled);
        assert_eq!(fit.profiling_s.to_bits(), want.profiling_s.to_bits());
    }

    #[test]
    fn concurrent_queries_for_one_new_stage_run_its_forwards_once() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 2), &profiler, &tiny_cfg());
        let scenarios: Vec<_> = pt.scenarios().copied().collect();
        let stage = StageSpec::new(tiny_model(), 1, 4);
        let threads = 8;
        let barrier = std::sync::Barrier::new(threads);
        let answers: Vec<(MeshShape, ParallelConfig, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (mesh, config) = scenarios[t % scenarios.len()];
                    let (pt, barrier) = (&pt, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let secs = pt.stage_latency(&stage, mesh, config);
                        (mesh, config, secs.to_bits())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(pt.inferred_stages(), 1, "one stage, one round of forwards");
        // every thread saw the value a lone query computes
        let fresh = PredTop::fit(tiny_model(), MeshShape::new(1, 2), &profiler, &tiny_cfg());
        for (mesh, config, bits) in answers {
            assert_eq!(bits, fresh.stage_latency(&stage, mesh, config).to_bits());
        }
        // a structurally equal window is answered from the same cell
        let shifted = StageSpec::new(tiny_model(), 2, 5);
        let (mesh, config) = scenarios[0];
        assert_eq!(
            pt.stage_latency(&shifted, mesh, config).to_bits(),
            pt.stage_latency(&stage, mesh, config).to_bits()
        );
        assert_eq!(pt.inferred_stages(), 1);
    }

    /// Field-by-field bit equality of two samples.
    fn same_sample(a: &GraphSample, b: &GraphSample) -> bool {
        let bits = |m: &predtop_tensor::Matrix| -> Vec<u32> {
            m.data().iter().map(|x| x.to_bits()).collect()
        };
        let matrices = |s: &GraphSample| {
            [&s.features, s.adj_norm(), s.adj_mask(), &s.dagpe]
                .map(|m| (m.rows(), m.cols(), bits(m)))
        };
        matrices(a) == matrices(b)
            && a.dag_allowed == b.dag_allowed
            && a.latency.to_bits() == b.latency.to_bits()
    }

    /// The prediction cache's key is exact for the predictor's input:
    /// stages with equal structural keys build bit-equal samples, for
    /// GPT-3 and MoE at the scaled and the paper sizes. Windows are
    /// capped at eight layers (every window of the scaled models) to keep
    /// the paper-size samples small.
    #[test]
    fn structurally_equal_stages_build_bit_equal_samples() {
        let scaled = |mut m: ModelSpec| {
            m.seq_len = 128;
            m.hidden = 128;
            m.num_heads = 8;
            m.vocab = 2048;
            m.num_layers = 8;
            if let Some(moe) = m.moe.as_mut() {
                moe.num_experts = 8;
                moe.expert_hidden = 256;
            }
            m
        };
        let models = [
            scaled(ModelSpec::gpt3_1p3b(2)),
            scaled(ModelSpec::moe_2p6b(2)),
            ModelSpec::gpt3_1p3b(8),
            ModelSpec::moe_2p6b(8),
        ];
        for model in models {
            let mut classes: HashMap<StageStructure, Vec<StageSpec>> = HashMap::new();
            for stage in predtop_models::enumerate_stages(model) {
                if stage.num_layers() <= 8 {
                    classes
                        .entry(StageStructure::of(&stage))
                        .or_default()
                        .push(stage);
                }
            }
            let mut shared = 0;
            for members in classes.values().filter(|m| m.len() > 1) {
                let first = GraphSample::new(&members[0].build_graph(), 1.0, 16);
                for other in &members[1..] {
                    let sample = GraphSample::new(&other.build_graph(), 1.0, 16);
                    assert!(
                        same_sample(&first, &sample),
                        "{} and {} share a key but not a sample",
                        members[0].label(),
                        other.label()
                    );
                    shared += 1;
                }
            }
            assert!(shared > 0, "{:?}: no structurally equal stages", model.kind);
        }
    }

    #[test]
    fn predictions_track_ground_truth_direction() {
        // even a briefly-trained predictor must capture the dominant
        // signal: more layers = more latency
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 1);
        let mut cfg = tiny_cfg();
        cfg.train = TrainConfig::quick(25);
        let pt = PredTop::fit(tiny_model(), cluster, &profiler, &cfg);
        let mesh = MeshShape::new(1, 1);
        let c = ParallelConfig::SERIAL;
        let short = pt.stage_latency(&StageSpec::new(tiny_model(), 1, 2), mesh, c);
        let long = pt.stage_latency(&StageSpec::new(tiny_model(), 1, 6), mesh, c);
        assert!(
            long > short,
            "predictor missed size trend: short {short}, long {long}"
        );
    }

    #[test]
    fn predictor_mre_on_profiled_stages_is_sane() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cluster = MeshShape::new(1, 1);
        let mut cfg = tiny_cfg();
        cfg.train = TrainConfig::quick(30);
        let pt = PredTop::fit(tiny_model(), cluster, &profiler, &cfg);
        let mesh = MeshShape::new(1, 1);
        let c = ParallelConfig::SERIAL;
        let stages = sample_stages(tiny_model(), 12, 4, 0);
        let (mut preds, mut truth) = (Vec::new(), Vec::new());
        for s in &stages {
            preds.push(pt.stage_latency(s, mesh, c));
            truth.push(profiler.stage_latency(s, mesh, c));
        }
        let mre = mean_relative_error(&preds, &truth);
        assert!(mre < 60.0, "in-sample MRE {mre:.1}% is way off");
    }

    #[test]
    fn graybox_round_trip_predicts_identical_bits() {
        // three scenarios: serial on 1x1, and 2-way data and model
        // parallel on 1x2
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 2), &profiler, &tiny_cfg());
        assert_eq!(pt.scenarios().count(), 3);

        let back = decode_graybox(&encode_graybox(&pt)).unwrap();
        assert_eq!(back.arch, pt.arch);
        assert_eq!(back.profiled_stage_count, pt.profiled_stage_count);
        assert_eq!(back.scenarios().count(), pt.scenarios().count());

        // every scenario predicts bit-identically across the round trip
        let stage = StageSpec::new(tiny_model(), 0, 5);
        for &(mesh, config) in pt.scenarios() {
            assert_eq!(
                pt.stage_latency(&stage, mesh, config).to_bits(),
                back.stage_latency(&stage, mesh, config).to_bits(),
                "scenario ({mesh:?}, {config:?}) diverged after the round trip"
            );
        }
    }

    #[test]
    fn graybox_snapshot_rejects_foreign_architectures() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let cfg = tiny_cfg();
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 1), &profiler, &cfg);
        let bytes = encode_graybox(&pt);

        // the architecture comes back from the sealed predictors
        assert_eq!(decode_graybox(&bytes).unwrap().arch, cfg.arch);

        // scenarios that disagree on the architecture: ArchMismatch
        let other = ArchConfig {
            hidden: 32,
            ..cfg.arch
        };
        let mut w = ByteWriter::new();
        w.u8(GRAYBOX_ENCODING_VERSION);
        w.usize(0);
        w.usize(2);
        for (gpus, arch) in [(1, cfg.arch), (2, other)] {
            for field in [1, gpus, gpus, 1] {
                w.usize(field);
            }
            let predictor = TrainedPredictor {
                model: arch.build(0),
                scaler: predtop_gnn::TargetScaler {
                    mean: -5.0,
                    std: 0.5,
                },
            };
            w.bytes(&artifacts::encode_predictor(&arch, &predictor));
        }
        match decode_graybox(&w.into_bytes()) {
            Err(ArtifactError::ArchMismatch) => {}
            Err(e) => panic!("expected ArchMismatch, got {e:?}"),
            Ok(_) => panic!("expected ArchMismatch, got a decoded instance"),
        }

        // a snapshot without a scenario carries no architecture
        let mut w = ByteWriter::new();
        w.u8(GRAYBOX_ENCODING_VERSION);
        w.usize(0);
        w.usize(0);
        assert!(decode_graybox(&w.into_bytes()).is_err());

        // truncations surface as structured errors, never panics
        for cut in (0..bytes.len()).step_by(97) {
            assert!(decode_graybox(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn service_query_errors_instead_of_panicking_on_unknown_scenario() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 1), &profiler, &tiny_cfg());
        let stage = StageSpec::new(tiny_model(), 0, 2);

        // fitted scenario: the service reply is the provider value
        let q = LatencyQuery::new(stage, MeshShape::new(1, 1), ParallelConfig::SERIAL);
        let reply = pt.query(&q).unwrap();
        assert_eq!(reply.source, "predictor");
        assert_eq!(
            reply.seconds.to_bits(),
            pt.stage_latency(&stage, q.mesh, q.config).to_bits()
        );

        // unfitted scenario: a recoverable error, not a panic
        let q = LatencyQuery::new(stage, MeshShape::new(2, 2), ParallelConfig::new(4, 1));
        match pt.query(&q) {
            Err(ServiceError::ScenarioUnsupported { source, .. }) => {
                assert_eq!(source, "predictor")
            }
            other => panic!("expected ScenarioUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn unknown_scenario_costs_infinity() {
        let profiler = SimProfiler::new(Platform::platform1(), 7);
        let pt = PredTop::fit(tiny_model(), MeshShape::new(1, 1), &profiler, &tiny_cfg());
        let stage = StageSpec::new(tiny_model(), 0, 1);
        let t = pt.stage_latency(&stage, MeshShape::new(2, 2), ParallelConfig::new(4, 1));
        assert_eq!(t, f64::INFINITY);
    }
}
