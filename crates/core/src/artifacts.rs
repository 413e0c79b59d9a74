//! Canonical byte encodings of core artifacts for the object store.
//!
//! `predtop-store` moves verified bytes; the typed encodings live with
//! the types. This module pins a versioned little-endian layout for
//! every store-addressable artifact the core layer produces:
//!
//! * **plans** ([`encode_plan`] / [`decode_plan`]) — a
//!   [`PipelinePlan`](predtop_parallel::PipelinePlan) with its model
//!   spec, exact to the bit;
//! * **predictor snapshots** ([`encode_predictor`] /
//!   [`decode_predictor`]) — architecture, target scaler, and every
//!   weight matrix, sealed with a hash of the encoded architecture and
//!   the [`ParamStore`
//!   fingerprint](predtop_tensor::ParamStore::fingerprint) that decode
//!   re-verifies against the rebuilt network.
//!
//! Decoding never panics on arbitrary bytes: malformed input surfaces
//! as [`DecodeError`]; a predictor whose architecture or restored
//! weights do not hash back to the stored seal surfaces as
//! [`ArtifactError::FingerprintMismatch`]. In store-backed flows the
//! payload digest already guards integrity, so the seal is a second,
//! semantic check: it fails if the *encoding itself* ever drifts from
//! the network it claims to carry. It covers the architecture because
//! some architecture fields (the DAG Transformer's heads and mask
//! switches) change predictions without changing any weight shape.

use predtop_gnn::{ModelKind as PredictorKind, TargetScaler, TrainedPredictor};
use predtop_store::hash::Fnv1a64;
use predtop_store::{ByteReader, ByteWriter, DecodeError};
use predtop_tensor::Matrix;

// The model and plan layouts are shared with the wire protocol (and
// with `predtop-lint`, which sits below this crate) and live in
// `predtop_service::api`; re-exported here so store payloads keep their
// historical import path. The bytes are identical.
pub use predtop_service::api::{
    decode_model, decode_plan, encode_model, encode_plan, PLAN_ENCODING_VERSION,
};

use crate::predictor::ArchConfig;

/// Version byte heading every predictor-snapshot encoding. Version 2
/// seals the architecture together with the weights.
pub const PREDICTOR_ENCODING_VERSION: u8 = 2;

/// Largest layer count [`decode_arch`] accepts (the paper's deepest
/// predictor has 6).
pub const MAX_ARCH_LAYERS: usize = 16;
/// Largest hidden width [`decode_arch`] accepts (the paper's widest
/// predictor has 256). With [`MAX_ARCH_LAYERS`] this caps the weights a
/// decoded architecture can allocate at about 34M floats, whatever a
/// model file claims.
pub const MAX_ARCH_HIDDEN: usize = 512;

/// Failure decoding a typed artifact from store bytes.
#[derive(Debug)]
pub enum ArtifactError {
    /// The byte layout itself is malformed (truncated, bad tag, wrong
    /// version, trailing garbage).
    Decode(DecodeError),
    /// The decoded architecture and restored weights do not hash back
    /// to the seal recorded in the snapshot — the encoding and the
    /// network disagree.
    FingerprintMismatch {
        /// Seal recorded in the snapshot.
        expected: u64,
        /// Seal of the architecture and weights actually restored.
        found: u64,
    },
    /// The snapshot's parameter matrices do not match the shapes the
    /// declared architecture builds.
    ShapeMismatch {
        /// What disagreed (count or a specific slot).
        what: &'static str,
        /// Value the rebuilt architecture expects.
        expected: usize,
        /// Value found in the snapshot.
        found: usize,
    },
    /// A gray-box snapshot's scenario predictors do not share one
    /// architecture, or it is not the one the caller configured.
    ArchMismatch,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Decode(e) => write!(f, "artifact decode: {e}"),
            ArtifactError::FingerprintMismatch { expected, found } => write!(
                f,
                "predictor seal mismatch: snapshot says {expected:#018x}, \
                 restored architecture and weights hash to {found:#018x}"
            ),
            ArtifactError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "predictor shape mismatch ({what}): architecture expects {expected}, \
                 snapshot has {found}"
            ),
            ArtifactError::ArchMismatch => {
                write!(
                    f,
                    "snapshot predictors do not share the expected architecture"
                )
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for ArtifactError {
    fn from(e: DecodeError) -> Self {
        ArtifactError::Decode(e)
    }
}

/// Append `arch`'s canonical encoding to `w`.
pub fn encode_arch(w: &mut ByteWriter, arch: &ArchConfig) {
    w.u8(match arch.kind {
        PredictorKind::Gcn => 1,
        PredictorKind::Gat => 2,
        PredictorKind::DagTransformer => 3,
    });
    w.usize(arch.layers);
    w.usize(arch.hidden);
    w.usize(arch.heads);
    w.bool(arch.use_dagra);
    w.bool(arch.use_dagpe);
}

/// Decode an architecture written by [`encode_arch`].
///
/// Model files are outside input, so every field [`ArchConfig::build`]
/// would assert on is checked here instead: `layers` in
/// `1..=MAX_ARCH_LAYERS`, `hidden` in `1..=MAX_ARCH_HIDDEN`, and for the
/// DAG Transformer a nonzero `heads` that divides `hidden`. A value
/// outside its range is a [`DecodeError::BadTag`].
pub fn decode_arch(r: &mut ByteReader<'_>) -> Result<ArchConfig, DecodeError> {
    let kind = match r.u8("arch kind")? {
        1 => PredictorKind::Gcn,
        2 => PredictorKind::Gat,
        3 => PredictorKind::DagTransformer,
        tag => {
            return Err(DecodeError::BadTag {
                what: "arch kind",
                tag: tag as u64,
            })
        }
    };
    let bad = |what, value: usize| DecodeError::BadTag {
        what,
        tag: value as u64,
    };
    let layers = r.usize("arch layers")?;
    if !(1..=MAX_ARCH_LAYERS).contains(&layers) {
        return Err(bad("arch layers", layers));
    }
    let hidden = r.usize("arch hidden")?;
    if !(1..=MAX_ARCH_HIDDEN).contains(&hidden) {
        return Err(bad("arch hidden", hidden));
    }
    let heads = r.usize("arch heads")?;
    if kind == PredictorKind::DagTransformer && (heads == 0 || !hidden.is_multiple_of(heads)) {
        return Err(bad("arch heads", heads));
    }
    Ok(ArchConfig {
        kind,
        layers,
        hidden,
        heads,
        use_dagra: r.bool("arch use_dagra")?,
        use_dagpe: r.bool("arch use_dagpe")?,
    })
}

/// The seal of a predictor snapshot: FNV-1a over `arch`'s encoding,
/// then the weights' [`ParamStore`](predtop_tensor::ParamStore)
/// fingerprint.
fn predictor_seal(arch: &ArchConfig, fingerprint: u64) -> u64 {
    let mut w = ByteWriter::new();
    encode_arch(&mut w, arch);
    let mut h = Fnv1a64::new();
    h.write_bytes(&w.into_bytes());
    h.write_word(fingerprint);
    h.finish()
}

/// Encode a trained predictor: architecture, scaler, weight matrices,
/// and the seal over architecture and weights that
/// [`decode_predictor`] re-verifies.
pub fn encode_predictor(arch: &ArchConfig, predictor: &TrainedPredictor) -> Vec<u8> {
    let store = predictor.model.store();
    encode_predictor_parts(
        arch,
        &predictor.scaler,
        store.fingerprint(),
        &store.snapshot(),
    )
}

/// The [`encode_predictor`] layout over explicit parts, which need not
/// agree with each other (the tests build inconsistent payloads).
fn encode_predictor_parts(
    arch: &ArchConfig,
    scaler: &TargetScaler,
    fingerprint: u64,
    params: &[Matrix],
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(PREDICTOR_ENCODING_VERSION);
    encode_arch(&mut w, arch);
    w.f64_bits(scaler.mean);
    w.f64_bits(scaler.std);
    w.u64(predictor_seal(arch, fingerprint));
    w.usize(params.len());
    for m in params {
        w.usize(m.rows());
        w.usize(m.cols());
        for &x in m.data() {
            w.f32_bits(x);
        }
    }
    w.into_bytes()
}

/// Rebuild a predictor from a payload written by [`encode_predictor`].
///
/// The architecture is re-instantiated, the weights restored, and the
/// seal of the decoded architecture and the restored
/// [`ParamStore`](predtop_tensor::ParamStore)'s fingerprint checked
/// against the one in the snapshot — a mismatch means the bytes decode
/// but do not carry the network they claim to.
pub fn decode_predictor(bytes: &[u8]) -> Result<(ArchConfig, TrainedPredictor), ArtifactError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("predictor version")?;
    if version != PREDICTOR_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "predictor",
            version: version as u64,
        }
        .into());
    }
    let arch = decode_arch(&mut r)?;
    let mean = r.f64_bits("scaler mean")?;
    let std = r.f64_bits("scaler std")?;
    let seal = r.u64("predictor seal")?;
    let num_params = r.usize("param count")?;

    // rebuild the architecture first so shape validation has a ground
    // truth to compare each decoded matrix against (ParamStore::restore
    // asserts on mismatch; this path must error instead)
    let mut model = arch.build(0);
    let expected = model.store().snapshot();
    if expected.len() != num_params {
        return Err(ArtifactError::ShapeMismatch {
            what: "param count",
            expected: expected.len(),
            found: num_params,
        });
    }
    let mut params = Vec::with_capacity(num_params);
    for slot in &expected {
        let rows = r.usize("param rows")?;
        let cols = r.usize("param cols")?;
        if rows != slot.rows() || cols != slot.cols() {
            return Err(ArtifactError::ShapeMismatch {
                what: "param slot shape",
                expected: slot.rows() * slot.cols(),
                found: rows * cols,
            });
        }
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(r.f32_bits("param value")?);
        }
        params.push(Matrix::from_vec(rows, cols, data));
    }
    r.finish().map_err(ArtifactError::Decode)?;

    model.store_mut().restore(&params);
    let found = predictor_seal(&arch, model.store().fingerprint());
    if found != seal {
        return Err(ArtifactError::FingerprintMismatch {
            expected: seal,
            found,
        });
    }
    Ok((
        arch,
        TrainedPredictor {
            model,
            scaler: TargetScaler { mean, std },
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use predtop_gnn::train::{train, TrainConfig};
    use predtop_gnn::{Dataset, GraphSample};
    use predtop_ir::{DType, GraphBuilder, OpKind};
    use predtop_models::{ModelSpec, StageSpec};
    use predtop_parallel::{MeshShape, ParallelConfig, PipelinePlan, PlannedStage};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    fn tiny_model() -> ModelSpec {
        let mut s = ModelSpec::gpt3_1p3b(2);
        s.seq_len = 32;
        s.hidden = 32;
        s.num_heads = 4;
        s.vocab = 64;
        s.num_layers = 6;
        s
    }

    fn sample_plan() -> PipelinePlan {
        let m = tiny_model();
        PipelinePlan {
            stages: vec![
                PlannedStage {
                    stage: StageSpec::new(m, 0, 3),
                    mesh: MeshShape::new(1, 1),
                    config: ParallelConfig::SERIAL,
                },
                PlannedStage {
                    stage: StageSpec::new(m, 3, 6),
                    mesh: MeshShape::new(1, 2),
                    config: ParallelConfig::new(2, 1),
                },
            ],
            microbatches: 4,
        }
    }

    #[test]
    fn plan_round_trip_is_exact() {
        let plan = sample_plan();
        let bytes = encode_plan(&plan);
        assert_eq!(decode_plan(&bytes).unwrap(), plan);
        // a second encode of the decoded plan is byte-identical
        assert_eq!(encode_plan(&decode_plan(&bytes).unwrap()), bytes);
    }

    #[test]
    fn moe_model_round_trips_with_its_spec() {
        let m = ModelSpec::moe_2p6b(4);
        let mut w = ByteWriter::new();
        encode_model(&mut w, &m);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_model(&mut r).unwrap(), m);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_and_versioned_payloads_error_cleanly() {
        let bytes = encode_plan(&sample_plan());
        for cut in 0..bytes.len() {
            assert!(decode_plan(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut wrong = bytes.clone();
        wrong[0] = 99;
        assert!(matches!(
            decode_plan(&wrong),
            Err(DecodeError::UnsupportedVersion {
                what: "plan",
                version: 99
            })
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            decode_plan(&trailing),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    /// A chain of `len` elementwise ops with latency `len` ms.
    fn chain_sample(len: usize, pe_dim: usize) -> GraphSample {
        let mut b = GraphBuilder::new();
        let mut x = b.input([4, 4], DType::F32);
        for _ in 0..len {
            x = b.unary(OpKind::Exp, x);
        }
        let g = b.finish(&[x]).unwrap();
        GraphSample::new(&g, 1e-3 * len as f64, pe_dim)
    }

    fn trained_predictor() -> (ArchConfig, TrainedPredictor) {
        let mut arch = ArchConfig::scaled(PredictorKind::DagTransformer);
        arch.layers = 1;
        arch.hidden = 16;
        arch.heads = 2;
        let samples: Vec<GraphSample> = (1..=12)
            .map(|len| chain_sample(len, arch.pe_dim()))
            .collect();
        let ds = Dataset::new(samples);
        let split = ds.split(0.6, 1);
        let mut model = arch.build(1);
        let (scaler, _) = train(model.as_mut(), &ds, &split, &TrainConfig::quick(5));
        (arch, TrainedPredictor { model, scaler })
    }

    #[test]
    fn predictor_round_trip_predicts_identical_bits() {
        let (arch, predictor) = trained_predictor();
        let bytes = encode_predictor(&arch, &predictor);
        let (back_arch, restored) = decode_predictor(&bytes).unwrap();
        assert_eq!(back_arch, arch);
        assert_eq!(
            restored.model.store().fingerprint(),
            predictor.model.store().fingerprint()
        );
        let sample = chain_sample(1, arch.pe_dim());
        assert_eq!(
            predictor.predict(&sample).to_bits(),
            restored.predict(&sample).to_bits()
        );
    }

    #[test]
    fn tampered_predictor_weights_fail_the_fingerprint_seal() {
        let (arch, predictor) = trained_predictor();
        let bytes = encode_predictor(&arch, &predictor);
        // flip one bit inside the last parameter value (the tail of the
        // payload, well past header/arch/scaler/fingerprint)
        let mut evil = bytes.clone();
        let last = evil.len() - 1;
        evil[last] ^= 0x40;
        match decode_predictor(&evil) {
            Err(ArtifactError::FingerprintMismatch { expected, found }) => {
                assert_ne!(expected, found)
            }
            Err(e) => panic!("expected fingerprint mismatch, got {e:?}"),
            Ok(_) => panic!("expected fingerprint mismatch, got a decoded predictor"),
        }
    }

    #[test]
    fn predictor_with_a_foreign_version_byte_is_unsupported() {
        let (arch, predictor) = trained_predictor();
        let mut bytes = encode_predictor(&arch, &predictor);
        bytes[0] = 99;
        assert!(matches!(
            decode_predictor(&bytes),
            Err(ArtifactError::Decode(DecodeError::UnsupportedVersion {
                what: "predictor",
                version: 99
            }))
        ));
    }

    #[test]
    fn predictor_missing_a_parameter_is_a_shape_mismatch() {
        let (arch, predictor) = trained_predictor();
        let store = predictor.model.store();
        let mut params = store.snapshot();
        params.pop();
        let bytes = encode_predictor_parts(&arch, &predictor.scaler, store.fingerprint(), &params);
        match decode_predictor(&bytes) {
            Err(ArtifactError::ShapeMismatch {
                what: "param count",
                expected,
                found,
            }) => assert_eq!(found + 1, expected),
            Err(e) => panic!("expected a shape mismatch, got {e:?}"),
            Ok(_) => panic!("expected a shape mismatch, got a decoded predictor"),
        }
    }

    #[test]
    fn out_of_range_arch_fields_are_decode_errors() {
        let base = ArchConfig::scaled(PredictorKind::DagTransformer);
        let decode = |arch: ArchConfig| {
            let mut w = ByteWriter::new();
            encode_arch(&mut w, &arch);
            decode_arch(&mut ByteReader::new(&w.into_bytes()))
        };
        let with = |edit: fn(&mut ArchConfig)| {
            let mut arch = base;
            edit(&mut arch);
            arch
        };
        let cases = [
            ("arch layers", with(|a| a.layers = 0)),
            ("arch layers", with(|a| a.layers = MAX_ARCH_LAYERS + 1)),
            ("arch hidden", with(|a| a.hidden = 0)),
            ("arch hidden", with(|a| a.hidden = MAX_ARCH_HIDDEN + 1)),
            ("arch heads", with(|a| a.heads = 0)),
            ("arch heads", with(|a| a.heads = 3)),
        ];
        for (field, arch) in cases {
            match decode(arch) {
                Err(DecodeError::BadTag { what, .. }) => assert_eq!(what, field, "{arch:?}"),
                other => panic!("{arch:?}: expected a bad {field}, got {other:?}"),
            }
        }
        // heads only constrain the DAG Transformer
        let gcn = ArchConfig {
            kind: PredictorKind::Gcn,
            heads: 0,
            ..base
        };
        assert_eq!(decode(gcn), Ok(gcn));
    }

    /// One sealed predictor payload shared by the property tests below.
    fn sealed_predictor() -> &'static (ArchConfig, Vec<u8>) {
        static SEALED: OnceLock<(ArchConfig, Vec<u8>)> = OnceLock::new();
        SEALED.get_or_init(|| {
            let (arch, predictor) = trained_predictor();
            (arch, encode_predictor(&arch, &predictor))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// encode → decode is exact for any target scaler the training
        /// could have produced (the scaler is the only state outside
        /// the fingerprinted weight matrices).
        #[test]
        fn prop_any_scaler_round_trips_to_identical_predictions(
            mean in -10.0f64..10.0,
            std in 1e-6f64..100.0,
        ) {
            let (arch, mut predictor) = trained_predictor();
            predictor.scaler = TargetScaler { mean, std };
            let (_, restored) = decode_predictor(&encode_predictor(&arch, &predictor)).unwrap();
            prop_assert_eq!(restored.scaler.mean.to_bits(), mean.to_bits());
            prop_assert_eq!(restored.scaler.std.to_bits(), std.to_bits());
            for len in 1..=4 {
                let sample = chain_sample(len, arch.pe_dim());
                prop_assert_eq!(
                    predictor.predict(&sample).to_bits(),
                    restored.predict(&sample).to_bits()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Arbitrary bytes never decode and never panic, also behind a
        /// valid version byte so the body decoders run.
        #[test]
        fn prop_random_bytes_are_rejected(
            mut bytes in proptest::collection::vec(any::<u8>(), 0..256),
            versioned in any::<bool>(),
        ) {
            if versioned && !bytes.is_empty() {
                bytes[0] = PLAN_ENCODING_VERSION;
            }
            prop_assert!(decode_plan(&bytes).is_err());
            if versioned && !bytes.is_empty() {
                bytes[0] = PREDICTOR_ENCODING_VERSION;
            }
            prop_assert!(decode_predictor(&bytes).is_err());
        }
    }

    /// `bytes` with its architecture header replaced by `arch`'s.
    fn with_arch_header(
        bytes: &[u8],
        arch: &ArchConfig,
        edit: impl Fn(&mut ByteWriter),
    ) -> Vec<u8> {
        let mut header = ByteWriter::new();
        header.u8(PREDICTOR_ENCODING_VERSION);
        encode_arch(&mut header, arch);
        let mut w = ByteWriter::new();
        w.u8(PREDICTOR_ENCODING_VERSION);
        edit(&mut w);
        w.raw(&bytes[header.len()..]);
        w.into_bytes()
    }

    /// Heads and the two mask switches change what a DAG Transformer
    /// predicts but no weight shape; the seal still rejects a file whose
    /// header was edited to claim other values.
    #[test]
    fn edited_heads_or_mask_switches_fail_the_seal() {
        let (arch, bytes) = sealed_predictor();
        let edits: [fn(&mut ArchConfig); 4] = [
            |a| a.heads = 4,
            |a| a.heads = 1,
            |a| a.use_dagra = !a.use_dagra,
            |a| a.use_dagpe = !a.use_dagpe,
        ];
        for edit in edits {
            let mut edited = *arch;
            edit(&mut edited);
            let evil = with_arch_header(bytes, arch, |w| encode_arch(w, &edited));
            match decode_predictor(&evil) {
                Err(ArtifactError::FingerprintMismatch { expected, found }) => {
                    assert_ne!(expected, found)
                }
                Err(e) => panic!("{edited:?}: expected a seal mismatch, got {e:?}"),
                Ok(_) => panic!("{edited:?}: an edited architecture decoded"),
            }
        }
        assert!(decode_predictor(bytes).is_ok(), "the unedited file decodes");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// A sealed payload whose architecture fields are replaced never
        /// decodes and never panics: out-of-range fields are decode
        /// errors, in-range ones build a network the stored weights do
        /// not fit or fail the seal.
        #[test]
        fn prop_foreign_arch_fields_are_rejected(
            kind in 0u8..5,
            layers in 0usize..=2 * MAX_ARCH_LAYERS,
            hidden in 0usize..=2 * MAX_ARCH_HIDDEN,
            heads in 0usize..=64,
            flags in (0u8..3, 0u8..3),
        ) {
            let (arch, bytes) = sealed_predictor();
            prop_assume!(
                !(kind == 3
                    && layers == arch.layers
                    && hidden == arch.hidden
                    && heads == arch.heads
                    && flags == (arch.use_dagra as u8, arch.use_dagpe as u8))
            );
            let evil = with_arch_header(bytes, arch, |w| {
                w.u8(kind);
                w.usize(layers);
                w.usize(hidden);
                w.usize(heads);
                w.u8(flags.0);
                w.u8(flags.1);
            });
            prop_assert!(decode_predictor(&evil).is_err());
        }
    }

    #[test]
    fn predictor_decode_never_panics_on_truncation() {
        let (arch, predictor) = trained_predictor();
        let bytes = encode_predictor(&arch, &predictor);
        // stride to keep the loop fast over the f32-heavy tail
        for cut in (0..bytes.len()).step_by(7) {
            assert!(decode_predictor(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}
