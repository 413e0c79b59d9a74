//! # predtop-runtime
//!
//! Shared execution runtime for every crate that fans independent work
//! out across cores: the deterministic work-stealing [`exec::par_map`]
//! and the `PREDTOP_THREADS` thread-count resolution.
//!
//! There is one level of threads at a time: a map called from inside a
//! pool worker runs inline on that worker (see [`exec`]), so a parallel
//! training fleet or plan search whose items run large matmuls never
//! spawns a second level of threads on the same cores.
//!
//! Promoted out of the bench harness once the inter-stage plan-search
//! engine started evaluating candidates in parallel too — both the MRE
//! experiment grids and the optimizer now share one worker model with
//! one determinism contract: results land at their input indices, so
//! output order (and, with per-item seeding, every number) is identical
//! at any thread count.

#![warn(missing_docs)]

pub mod exec;
pub mod tile;

pub use exec::{
    chunk_size_for, configured_threads, in_worker, par_map, par_map_chunked, par_map_with,
    ChunkDispatch, DEFAULT_OVERSUBSCRIPTION, DEFAULT_SERIAL_THRESHOLD,
};
pub use tile::{par_tiles, tile_grid, Tile, TileGrid};
