//! The versioned request/response API every frontend speaks.
//!
//! This module is the single API surface shared by the CLI commands,
//! the `predtop serve` wire protocol, and the tests: a CLI invocation
//! parses its flags into the **same** [`Request`] value the server
//! decodes off a socket, and both hand it to the same engine. The
//! per-command ad-hoc argument plumbing that used to live in `main.rs`
//! is gone — there is exactly one way to ask for a profile, a search,
//! a prediction, or a stats snapshot.
//!
//! Encodings follow the canonical little-endian style of
//! `predtop-core::artifacts` (which now delegates its model/plan
//! layouts to this module so store payloads and wire frames can never
//! disagree): a leading version byte, one-byte enum tags, fixed-width
//! integers, IEEE-754 bit patterns for floats, and length-prefixed
//! strings. Decoding never panics: malformed bytes surface as
//! [`DecodeError`], and both decoders reject trailing bytes, unknown
//! tags, and versions they do not understand — the version byte is the
//! schema-evolution hinge (a future v2 decoder can accept v1 frames;
//! a v1 decoder refuses v2 loudly instead of misreading it).

use crate::ledger::{Ledger, LedgerValue};
use predtop_models::{ModelKind, ModelSpec, MoeSpec, StageSpec};
use predtop_parallel::{MeshShape, ParallelConfig, PipelinePlan, PlannedStage};
use predtop_store::{ByteReader, ByteWriter, DecodeError};

/// Version byte heading every encoded [`Request`].
pub const REQUEST_ENCODING_VERSION: u8 = 1;
/// Version byte heading every encoded [`Response`].
pub const RESPONSE_ENCODING_VERSION: u8 = 1;
/// Version byte heading every encoded plan file ([`encode_plan`]).
pub const PLAN_ENCODING_VERSION: u8 = 1;

/// Append `m`'s canonical encoding to `w`. Stable across runs: a pure
/// function of the spec's fields. This is the one model layout in the
/// workspace — store artifacts and wire frames both use it.
pub fn encode_model(w: &mut ByteWriter, m: &ModelSpec) {
    w.u8(match m.kind {
        ModelKind::Gpt3 => 1,
        ModelKind::Moe => 2,
    });
    w.usize(m.batch);
    w.usize(m.seq_len);
    w.usize(m.hidden);
    w.usize(m.num_layers);
    w.usize(m.num_heads);
    w.usize(m.vocab);
    w.usize(m.ffn_mult);
    match &m.moe {
        None => w.u8(0),
        Some(moe) => {
            w.u8(1);
            w.usize(moe.num_experts);
            w.usize(moe.expert_hidden);
            w.usize(moe.every);
        }
    }
}

/// Decode a model spec written by [`encode_model`]. Every size, count
/// and the head count must be at least one (a zero divides by zero or
/// builds a zero-sized tensor), and there may be no more heads than
/// hidden units (each head needs a nonzero width), so either is a
/// [`DecodeError::BadTag`].
pub fn decode_model(r: &mut ByteReader<'_>) -> Result<ModelSpec, DecodeError> {
    let kind = match r.u8("model kind")? {
        1 => ModelKind::Gpt3,
        2 => ModelKind::Moe,
        tag => {
            return Err(DecodeError::BadTag {
                what: "model kind",
                tag: tag as u64,
            })
        }
    };
    let batch = nonzero(r, "model batch")?;
    let seq_len = nonzero(r, "model seq_len")?;
    let hidden = nonzero(r, "model hidden")?;
    let num_layers = nonzero(r, "model num_layers")?;
    let num_heads = nonzero(r, "model num_heads")?;
    if num_heads > hidden {
        return Err(DecodeError::BadTag {
            what: "model num_heads",
            tag: num_heads as u64,
        });
    }
    let vocab = nonzero(r, "model vocab")?;
    let ffn_mult = nonzero(r, "model ffn_mult")?;
    let moe = match r.u8("moe tag")? {
        0 => None,
        1 => Some(MoeSpec {
            num_experts: nonzero(r, "moe num_experts")?,
            expert_hidden: nonzero(r, "moe expert_hidden")?,
            every: r.usize("moe every")?,
        }),
        tag => {
            return Err(DecodeError::BadTag {
                what: "moe tag",
                tag: tag as u64,
            })
        }
    };
    Ok(ModelSpec {
        kind,
        batch,
        seq_len,
        hidden,
        num_layers,
        num_heads,
        vocab,
        ffn_mult,
        moe,
    })
}

/// Decode a mesh written as its node count then its GPUs per node.
/// Both must be at least one ([`MeshShape::new`] asserts it), so a zero
/// is a [`DecodeError::BadTag`], not a panic.
pub fn decode_mesh(r: &mut ByteReader<'_>) -> Result<MeshShape, DecodeError> {
    Ok(MeshShape::new(
        nonzero(r, "mesh nodes")?,
        nonzero(r, "mesh gpus per node")?,
    ))
}

/// Decode a configuration written as its data- then model-parallel
/// degree, each at least one like [`decode_mesh`]'s fields.
pub fn decode_config(r: &mut ByteReader<'_>) -> Result<ParallelConfig, DecodeError> {
    Ok(ParallelConfig::new(
        nonzero(r, "parallel dp")?,
        nonzero(r, "parallel mp")?,
    ))
}

/// A size, count or degree: a nonzero `usize`.
fn nonzero(r: &mut ByteReader<'_>, what: &'static str) -> Result<usize, DecodeError> {
    match r.usize(what)? {
        0 => Err(DecodeError::BadTag { what, tag: 0 }),
        d => Ok(d),
    }
}

/// Append `plan`'s canonical (unversioned) body to `w` — the shared
/// layout behind both the store's plan artifact and the wire's search
/// reply.
pub fn encode_plan_body(w: &mut ByteWriter, plan: &PipelinePlan) {
    w.usize(plan.microbatches);
    w.usize(plan.stages.len());
    for ps in &plan.stages {
        encode_model(w, &ps.stage.model);
        w.usize(ps.stage.start);
        w.usize(ps.stage.end);
        w.usize(ps.mesh.nodes);
        w.usize(ps.mesh.gpus_per_node);
        w.usize(ps.config.dp);
        w.usize(ps.config.mp);
    }
}

/// Decode a plan body written by [`encode_plan_body`].
pub fn decode_plan_body(r: &mut ByteReader<'_>) -> Result<PipelinePlan, DecodeError> {
    let microbatches = r.usize("plan microbatches")?;
    let num_stages = r.usize("plan stage count")?;
    let mut stages = Vec::new();
    for _ in 0..num_stages {
        let model = decode_model(r)?;
        let start = r.usize("stage start")?;
        let end = r.usize("stage end")?;
        let mesh = decode_mesh(r)?;
        let config = decode_config(r)?;
        stages.push(PlannedStage {
            stage: StageSpec { model, start, end },
            mesh,
            config,
        });
    }
    Ok(PipelinePlan {
        stages,
        microbatches,
    })
}

/// Encode a plan as a self-contained payload: the version byte, then
/// the [`encode_plan_body`] layout. This is the format of the store's
/// plan objects, of `predtop search --plan-out`, and of the plan files
/// `predtop-lint --plan` reads and `--fix` rewrites.
pub fn encode_plan(plan: &PipelinePlan) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(PLAN_ENCODING_VERSION);
    encode_plan_body(&mut w, plan);
    w.into_bytes()
}

/// Decode a payload written by [`encode_plan`]. The round trip is
/// exact: `decode_plan(&encode_plan(p)) == p` for every plan.
pub fn decode_plan(bytes: &[u8]) -> Result<PipelinePlan, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("plan version")?;
    if version != PLAN_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "plan",
            version: version as u64,
        });
    }
    let plan = decode_plan_body(&mut r)?;
    r.finish()?;
    Ok(plan)
}

/// One stage-latency question: a layer window of a model on a mesh
/// under a parallel config. Used verbatim by `Profile` (ask the
/// simulator-backed stack) and `Predict` (ask the predictor-backed
/// stack).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// The full model the stage window is cut from.
    pub model: ModelSpec,
    /// First layer of the window (inclusive).
    pub start: usize,
    /// One past the last layer of the window.
    pub end: usize,
    /// Device mesh the stage runs on.
    pub mesh: MeshShape,
    /// Intra-stage parallelism degrees.
    pub config: ParallelConfig,
}

impl ProfileSpec {
    /// The stage window as a [`StageSpec`].
    pub fn stage(&self) -> StageSpec {
        StageSpec {
            model: self.model,
            start: self.start,
            end: self.end,
        }
    }
}

/// One plan-search problem: the model, how to slice its batch, and
/// whether static legality checking prunes the candidate set. The
/// cluster mesh, seed, and stack shape are properties of the *engine*,
/// not the request — every client of one server searches the same
/// platform.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// The model to place.
    pub model: ModelSpec,
    /// Pipeline micro-batches (must be ≥ 1 and divide `model.batch`
    /// when `checked`).
    pub microbatches: usize,
    /// Optional stage-imbalance tolerance for partial profiling.
    pub imbalance_tolerance: Option<f64>,
    /// Run the static-legality filter in front of the latency source.
    pub checked: bool,
}

/// Every question a frontend can ask, CLI and wire alike.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Simulate one stage window's training-iteration latency.
    Profile(ProfileSpec),
    /// Run the inter-stage plan search.
    Search(SearchSpec),
    /// Predict one stage window's latency with the fitted model
    /// (falling back to the analytic baseline).
    Predict(ProfileSpec),
    /// Snapshot the server's live ledgers. Admission-exempt: stats must
    /// stay observable while the breaker sheds work.
    Stats,
    /// Begin graceful drain: in-flight work completes, new connections
    /// are refused, the server exits.
    Shutdown,
}

/// The deterministic result of one plan search (wall-clock seconds and
/// per-run ledgers are deliberately absent so replies are bit-stable
/// across runs).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The chosen plan.
    pub plan: PipelinePlan,
    /// Eqn. 4 latency as estimated during the search (exact bits).
    pub estimated_latency: f64,
    /// Ground-truth latency of the chosen plan (exact bits).
    pub true_latency: f64,
    /// Stage-latency queries the search issued.
    pub num_queries: usize,
    /// Candidates the static-legality filter rejected up front.
    pub num_rejected: usize,
    /// Rejections attributable to the memory-capacity rule.
    pub num_rejected_memory: usize,
}

/// Coarse classification of a failed request, for clients that branch
/// on failure mode without parsing message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request itself is malformed (bad stage window, mesh/config
    /// mismatch, zero micro-batches, undecodable frame).
    BadRequest,
    /// The latency source is unavailable.
    Unavailable,
    /// No predictor covers the requested scenario.
    Unsupported,
    /// An injected fault outlived the retry budget.
    Fault,
    /// The per-query deadline was exceeded.
    Deadline,
    /// Admission control shed the request (breaker open).
    Shed,
    /// The request handler panicked; the daemon answered and kept
    /// serving.
    Internal,
}

/// A failed request: kind, retryability, and the service error's
/// rendered message.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// Coarse failure class.
    pub kind: ErrorKind,
    /// True when retrying the identical request may succeed.
    pub transient: bool,
    /// Human-readable detail (the `ServiceError` display string).
    pub message: String,
}

/// One ledger's snapshot inside a [`StatsReport`]: its name plus every
/// field, as produced by the shared [`Ledger`] trait.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSnapshot {
    /// The ledger's stable name (`"memoize"`, `"store"`, ...).
    pub name: String,
    /// Every field of the snapshot, in canonical order.
    pub fields: Vec<(String, LedgerValue)>,
}

impl LedgerSnapshot {
    /// Snapshot `ledger` through its shared render surface.
    pub fn of(ledger: &dyn Ledger) -> LedgerSnapshot {
        LedgerSnapshot {
            name: ledger.ledger_name().to_string(),
            fields: ledger
                .fields()
                .into_iter()
                .map(|f| (f.key.to_string(), f.value))
                .collect(),
        }
    }
}

/// The server's live accounting, answering a [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Requests served successfully since startup.
    pub served: u64,
    /// Requests shed by admission control since startup.
    pub shed: u64,
    /// True once graceful drain has begun.
    pub draining: bool,
    /// Every installed ledger of the serving stack, plus the admission
    /// breaker.
    pub ledgers: Vec<LedgerSnapshot>,
}

/// Every answer a frontend can receive.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A stage latency, from `Profile` or `Predict`.
    Latency {
        /// The latency in seconds (exact bits — bit-identical to the
        /// same query against an in-process stack).
        seconds: f64,
        /// Which layer of the stack served it (`"simulator"`,
        /// `"predictor"`, `"analytic"`, ...).
        source: String,
    },
    /// A finished plan search.
    Search(SearchResult),
    /// The live stats snapshot.
    Stats(StatsReport),
    /// The request failed.
    Error(ErrorBody),
    /// Acknowledges `Shutdown`; the connection closes after this frame.
    Bye,
}

fn encode_profile_spec(w: &mut ByteWriter, p: &ProfileSpec) {
    encode_model(w, &p.model);
    w.usize(p.start);
    w.usize(p.end);
    w.usize(p.mesh.nodes);
    w.usize(p.mesh.gpus_per_node);
    w.usize(p.config.dp);
    w.usize(p.config.mp);
}

fn decode_profile_spec(r: &mut ByteReader<'_>) -> Result<ProfileSpec, DecodeError> {
    let model = decode_model(r)?;
    let start = r.usize("profile start")?;
    let end = r.usize("profile end")?;
    let mesh = decode_mesh(r)?;
    let config = decode_config(r)?;
    Ok(ProfileSpec {
        model,
        start,
        end,
        mesh,
        config,
    })
}

/// Encode a request as a self-contained frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(REQUEST_ENCODING_VERSION);
    match req {
        Request::Profile(p) => {
            w.u8(1);
            encode_profile_spec(&mut w, p);
        }
        Request::Search(s) => {
            w.u8(2);
            encode_model(&mut w, &s.model);
            w.usize(s.microbatches);
            w.opt_f64_bits(s.imbalance_tolerance);
            w.bool(s.checked);
        }
        Request::Predict(p) => {
            w.u8(3);
            encode_profile_spec(&mut w, p);
        }
        Request::Stats => w.u8(4),
        Request::Shutdown => w.u8(5),
    }
    w.into_bytes()
}

/// Decode a payload written by [`encode_request`]. Rejects trailing
/// bytes, unknown tags, and foreign versions.
pub fn decode_request(bytes: &[u8]) -> Result<Request, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("request version")?;
    if version != REQUEST_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "request",
            version: version as u64,
        });
    }
    let req = match r.u8("request tag")? {
        1 => Request::Profile(decode_profile_spec(&mut r)?),
        2 => Request::Search(SearchSpec {
            model: decode_model(&mut r)?,
            microbatches: r.usize("search microbatches")?,
            imbalance_tolerance: r.opt_f64_bits("search imbalance")?,
            checked: r.bool("search checked")?,
        }),
        3 => Request::Predict(decode_profile_spec(&mut r)?),
        4 => Request::Stats,
        5 => Request::Shutdown,
        tag => {
            return Err(DecodeError::BadTag {
                what: "request tag",
                tag: tag as u64,
            })
        }
    };
    r.finish()?;
    Ok(req)
}

fn encode_ledger_value(w: &mut ByteWriter, v: &LedgerValue) {
    match v {
        LedgerValue::Count(n) => {
            w.u8(1);
            w.u64(*n);
        }
        LedgerValue::Seconds(x) => {
            w.u8(2);
            w.f64_bits(*x);
        }
        LedgerValue::Text(s) => {
            w.u8(3);
            w.str(s);
        }
    }
}

fn decode_ledger_value(r: &mut ByteReader<'_>) -> Result<LedgerValue, DecodeError> {
    match r.u8("ledger value tag")? {
        1 => Ok(LedgerValue::Count(r.u64("ledger count")?)),
        2 => Ok(LedgerValue::Seconds(r.f64_bits("ledger seconds")?)),
        3 => Ok(LedgerValue::Text(r.str("ledger text")?.to_string())),
        tag => Err(DecodeError::BadTag {
            what: "ledger value tag",
            tag: tag as u64,
        }),
    }
}

/// Encode a response as a self-contained frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(RESPONSE_ENCODING_VERSION);
    match resp {
        Response::Latency { seconds, source } => {
            w.u8(1);
            w.f64_bits(*seconds);
            w.str(source);
        }
        Response::Search(s) => {
            w.u8(2);
            encode_plan_body(&mut w, &s.plan);
            w.f64_bits(s.estimated_latency);
            w.f64_bits(s.true_latency);
            w.usize(s.num_queries);
            w.usize(s.num_rejected);
            w.usize(s.num_rejected_memory);
        }
        Response::Stats(s) => {
            w.u8(3);
            w.u64(s.served);
            w.u64(s.shed);
            w.bool(s.draining);
            w.usize(s.ledgers.len());
            for l in &s.ledgers {
                w.str(&l.name);
                w.usize(l.fields.len());
                for (key, value) in &l.fields {
                    w.str(key);
                    encode_ledger_value(&mut w, value);
                }
            }
        }
        Response::Error(e) => {
            w.u8(4);
            w.u8(match e.kind {
                ErrorKind::BadRequest => 1,
                ErrorKind::Unavailable => 2,
                ErrorKind::Unsupported => 3,
                ErrorKind::Fault => 4,
                ErrorKind::Deadline => 5,
                ErrorKind::Shed => 6,
                ErrorKind::Internal => 7,
            });
            w.bool(e.transient);
            w.str(&e.message);
        }
        Response::Bye => w.u8(5),
    }
    w.into_bytes()
}

/// Decode a payload written by [`encode_response`]. Rejects trailing
/// bytes, unknown tags, and foreign versions.
pub fn decode_response(bytes: &[u8]) -> Result<Response, DecodeError> {
    let mut r = ByteReader::new(bytes);
    let version = r.u8("response version")?;
    if version != RESPONSE_ENCODING_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            what: "response",
            version: version as u64,
        });
    }
    let resp = match r.u8("response tag")? {
        1 => Response::Latency {
            seconds: r.f64_bits("latency seconds")?,
            source: r.str("latency source")?.to_string(),
        },
        2 => Response::Search(SearchResult {
            plan: decode_plan_body(&mut r)?,
            estimated_latency: r.f64_bits("search estimated latency")?,
            true_latency: r.f64_bits("search true latency")?,
            num_queries: r.usize("search num_queries")?,
            num_rejected: r.usize("search num_rejected")?,
            num_rejected_memory: r.usize("search num_rejected_memory")?,
        }),
        3 => {
            let served = r.u64("stats served")?;
            let shed = r.u64("stats shed")?;
            let draining = r.bool("stats draining")?;
            let num_ledgers = r.usize("stats ledger count")?;
            let mut ledgers = Vec::new();
            for _ in 0..num_ledgers {
                let name = r.str("ledger name")?.to_string();
                let num_fields = r.usize("ledger field count")?;
                let mut fields = Vec::new();
                for _ in 0..num_fields {
                    let key = r.str("ledger field key")?.to_string();
                    fields.push((key, decode_ledger_value(&mut r)?));
                }
                ledgers.push(LedgerSnapshot { name, fields });
            }
            Response::Stats(StatsReport {
                served,
                shed,
                draining,
                ledgers,
            })
        }
        4 => {
            let kind = match r.u8("error kind")? {
                1 => ErrorKind::BadRequest,
                2 => ErrorKind::Unavailable,
                3 => ErrorKind::Unsupported,
                4 => ErrorKind::Fault,
                5 => ErrorKind::Deadline,
                6 => ErrorKind::Shed,
                7 => ErrorKind::Internal,
                tag => {
                    return Err(DecodeError::BadTag {
                        what: "error kind",
                        tag: tag as u64,
                    })
                }
            };
            Response::Error(ErrorBody {
                kind,
                transient: r.bool("error transient")?,
                message: r.str("error message")?.to_string(),
            })
        }
        5 => Response::Bye,
        tag => {
            return Err(DecodeError::BadTag {
                what: "response tag",
                tag: tag as u64,
            })
        }
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Profile(ProfileSpec {
                model: tiny_model(),
                start: 0,
                end: 3,
                mesh: MeshShape::new(1, 2),
                config: ParallelConfig::new(2, 1),
            }),
            Request::Search(SearchSpec {
                model: ModelSpec::moe_2p6b(4),
                microbatches: 8,
                imbalance_tolerance: Some(0.25),
                checked: true,
            }),
            Request::Predict(ProfileSpec {
                model: tiny_model(),
                start: 2,
                end: 6,
                mesh: MeshShape::new(1, 1),
                config: ParallelConfig::SERIAL,
            }),
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Latency {
                seconds: 0.1 + 0.2,
                source: "simulator".to_string(),
            },
            Response::Search(SearchResult {
                plan: sample_plan(),
                estimated_latency: f64::from_bits(0x3FB9_9999_9999_999A),
                true_latency: -0.0,
                num_queries: 42,
                num_rejected: 7,
                num_rejected_memory: 3,
            }),
            Response::Stats(StatsReport {
                served: 10,
                shed: 2,
                draining: true,
                ledgers: vec![LedgerSnapshot {
                    name: "memoize".to_string(),
                    fields: vec![
                        ("cache_hits".to_string(), LedgerValue::Count(6)),
                        ("seconds".to_string(), LedgerValue::Seconds(1.5)),
                        ("state".to_string(), LedgerValue::Text("closed".to_string())),
                    ],
                }],
            }),
            Response::Error(ErrorBody {
                kind: ErrorKind::Shed,
                transient: true,
                message: "circuit breaker open for `simulator`".to_string(),
            }),
            Response::Bye,
        ]
    }

    #[test]
    fn every_request_round_trips_exactly() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            assert_eq!(decode_request(&bytes).unwrap(), req, "{req:?}");
            // re-encode of the decoded value is byte-identical
            assert_eq!(encode_request(&decode_request(&bytes).unwrap()), bytes);
        }
    }

    #[test]
    fn every_response_round_trips_exactly() {
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{resp:?}");
            assert_eq!(encode_response(&decode_response(&bytes).unwrap()), bytes);
        }
    }

    #[test]
    fn latency_bits_survive_the_wire() {
        let resp = Response::Latency {
            seconds: f64::from_bits(0x7FF0_0000_0000_0001), // a signaling NaN
            source: "simulator".to_string(),
        };
        match decode_response(&encode_response(&resp)).unwrap() {
            Response::Latency { seconds, .. } => {
                assert_eq!(seconds.to_bits(), 0x7FF0_0000_0000_0001)
            }
            other => panic!("expected latency, got {other:?}"),
        }
    }

    #[test]
    fn truncation_never_panics_and_always_errors() {
        for req in sample_requests() {
            let bytes = encode_request(&req);
            for cut in 0..bytes.len() {
                assert!(decode_request(&bytes[..cut]).is_err(), "request cut {cut}");
            }
        }
        for resp in sample_responses() {
            let bytes = encode_response(&resp);
            for cut in 0..bytes.len() {
                assert!(
                    decode_response(&bytes[..cut]).is_err(),
                    "response cut {cut}"
                );
            }
        }
    }

    #[test]
    fn foreign_versions_and_tags_are_rejected() {
        let mut bytes = encode_request(&Request::Stats);
        bytes[0] = 9;
        assert!(matches!(
            decode_request(&bytes),
            Err(DecodeError::UnsupportedVersion {
                what: "request",
                version: 9
            })
        ));
        let mut bad_tag = encode_request(&Request::Stats);
        bad_tag[1] = 99;
        assert!(matches!(
            decode_request(&bad_tag),
            Err(DecodeError::BadTag {
                what: "request tag",
                tag: 99
            })
        ));
        let mut resp = encode_response(&Response::Bye);
        resp[0] = 2;
        assert!(matches!(
            decode_response(&resp),
            Err(DecodeError::UnsupportedVersion {
                what: "response",
                version: 2
            })
        ));

        let mut trailing = encode_request(&Request::Shutdown);
        trailing.push(0);
        assert!(matches!(
            decode_request(&trailing),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    /// Totality: `decode` either errs or returns a value whose encoding
    /// is exactly `bytes` (the layouts are canonical), and never panics.
    fn decodes_canonically_or_errs<T>(
        bytes: &[u8],
        decode: fn(&[u8]) -> Result<T, DecodeError>,
        encode: fn(&T) -> Vec<u8>,
    ) -> bool {
        match decode(bytes) {
            Ok(value) => encode(&value) == bytes,
            Err(_) => true,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Arbitrary bytes, also behind a valid version byte and a valid
        /// tag so every body decoder runs.
        #[test]
        fn prop_arbitrary_bytes_never_panic(
            mut bytes in proptest::collection::vec(any::<u8>(), 0..192),
            header in 0u8..3,
            tag in 1u8..=5,
        ) {
            if header > 0 && !bytes.is_empty() {
                bytes[0] = REQUEST_ENCODING_VERSION;
            }
            if header > 1 && bytes.len() > 1 {
                bytes[1] = tag;
            }
            prop_assert!(decodes_canonically_or_errs(&bytes, decode_request, encode_request));
            prop_assert!(decodes_canonically_or_errs(&bytes, decode_response, encode_response));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// Valid frames with a few bytes overwritten (zeros and ones
        /// favoured, since they reach the edge values of every field) or
        /// cut short.
        #[test]
        fn prop_mutated_frames_never_panic(
            which in 0usize..10,
            edits in proptest::collection::vec((any::<u16>(), 0u8..4, any::<u8>()), 1..5),
            cut in any::<u16>(),
            truncate in any::<bool>(),
        ) {
            let mut bytes = if which < 5 {
                encode_request(&sample_requests()[which])
            } else {
                encode_response(&sample_responses()[which - 5])
            };
            for (at, kind, byte) in edits {
                let at = at as usize % bytes.len();
                bytes[at] = match kind {
                    0 => 0,
                    1 => 1,
                    _ => byte,
                };
            }
            if truncate {
                bytes.truncate(cut as usize % (bytes.len() + 1));
            }
            prop_assert!(decodes_canonically_or_errs(&bytes, decode_request, encode_request));
            prop_assert!(decodes_canonically_or_errs(&bytes, decode_response, encode_response));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// A profile request whose window, mesh and degrees take edge
        /// values decodes exactly when every mesh and parallelism field
        /// is nonzero; a zero is an error, not a panic.
        #[test]
        fn prop_profile_fields_at_edge_values(
            predict in any::<bool>(),
            fields in proptest::collection::vec(0usize..5, 6),
        ) {
            let edge = [0u64, 1, 2, 7, u64::MAX];
            let mut w = ByteWriter::new();
            w.u8(REQUEST_ENCODING_VERSION);
            w.u8(if predict { 3 } else { 1 });
            encode_model(&mut w, &tiny_model());
            for &f in &fields {
                w.u64(edge[f]);
            }
            let bytes = w.into_bytes();
            let degrees_valid = fields[2..].iter().all(|&f| edge[f] != 0);
            let decoded = decode_request(&bytes);
            prop_assert_eq!(decoded.is_ok(), degrees_valid, "{:?}", decoded);
            prop_assert!(decodes_canonically_or_errs(&bytes, decode_request, encode_request));
        }
    }

    #[test]
    fn zero_model_sizes_are_bad_tags() {
        type Zero = fn(&mut ModelSpec);
        let fields: [(&str, u64, Zero); 10] = [
            ("model batch", 0, |m| m.batch = 0),
            ("model seq_len", 0, |m| m.seq_len = 0),
            ("model hidden", 0, |m| m.hidden = 0),
            ("model num_layers", 0, |m| m.num_layers = 0),
            ("model num_heads", 0, |m| m.num_heads = 0),
            ("model vocab", 0, |m| m.vocab = 0),
            ("model ffn_mult", 0, |m| m.ffn_mult = 0),
            ("moe num_experts", 0, |m| {
                m.moe.as_mut().unwrap().num_experts = 0
            }),
            ("moe expert_hidden", 0, |m| {
                m.moe.as_mut().unwrap().expert_hidden = 0
            }),
            // more heads than hidden units: each head would be 0 wide
            ("model num_heads", 8, |m| {
                m.hidden = 4;
                m.num_heads = 8;
            }),
        ];
        for (what, tag, zero) in fields {
            let mut model = ModelSpec::moe_2p6b(2);
            zero(&mut model);
            let search = Request::Search(SearchSpec {
                model,
                microbatches: 1,
                imbalance_tolerance: None,
                checked: false,
            });
            assert_eq!(
                decode_request(&encode_request(&search)),
                Err(DecodeError::BadTag { what, tag }),
                "{what}"
            );
            let plan = PipelinePlan {
                stages: vec![PlannedStage {
                    stage: StageSpec {
                        model,
                        start: 0,
                        end: 1,
                    },
                    mesh: MeshShape::new(1, 1),
                    config: ParallelConfig::SERIAL,
                }],
                microbatches: 1,
            };
            assert_eq!(
                decode_plan(&encode_plan(&plan)),
                Err(DecodeError::BadTag { what, tag }),
                "{what}"
            );
        }
    }

    #[test]
    fn zero_mesh_and_degree_fields_are_bad_tags() {
        let plan = sample_plan();
        let good = encode_plan(&plan);
        // the last stage ends with nodes, gpus, dp, mp (8 bytes each)
        for (field, what) in [
            "mesh nodes",
            "mesh gpus per node",
            "parallel dp",
            "parallel mp",
        ]
        .into_iter()
        .enumerate()
        {
            let at = good.len() - 8 * (4 - field);
            let mut bytes = good.clone();
            bytes[at..at + 8].fill(0);
            assert_eq!(
                decode_plan(&bytes),
                Err(DecodeError::BadTag { what, tag: 0 }),
                "{what}"
            );
        }
    }
}
