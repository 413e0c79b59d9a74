//! Deterministic 2-D tile grids for kernel-level parallelism.
//!
//! The matmul kernels in `predtop-tensor` historically fanned work out
//! as 1-D contiguous *row* panels, which serializes on short-and-wide
//! outputs (`m` smaller than the worker count leaves threads idle no
//! matter how large `n` is). A [`TileGrid`] generalizes that to a 2-D
//! decomposition of an `m × n` output: rows are split first (contiguous
//! panels are cache-friendliest), and columns are split only when there
//! are not enough row panels to occupy every worker.
//!
//! Determinism contract: the grid is a pure function of
//! `(m, n, threads, row_quantum, col_quantum)`, tiles are enumerated in
//! row-major order with [`Tile::index`] equal to their position, and
//! [`par_tiles`] dispatches them through [`par_map_with`] — whose
//! outputs land at input indices — so the tile → worker assignment (and
//! therefore any per-tile accounting order) is identical at every
//! thread count.
//! Consumers compute disjoint output regions per tile; the grid itself
//! never touches the data.

use crate::exec::par_map_with;

/// One rectangular region of an `m × n` output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// Position in row-major grid enumeration (deterministic identity).
    pub index: usize,
    /// First output row covered.
    pub row0: usize,
    /// Number of rows covered.
    pub rows: usize,
    /// First output column covered.
    pub col0: usize,
    /// Number of columns covered.
    pub cols: usize,
}

/// A deterministic 2-D decomposition of an `m × n` output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    /// Row panels in the grid.
    pub grid_rows: usize,
    /// Column strips in the grid.
    pub grid_cols: usize,
    /// Tiles in row-major order; `tiles[i].index == i`.
    pub tiles: Vec<Tile>,
}

/// Split `len` into at most `parts` contiguous chunks whose sizes are
/// multiples of `quantum` (except the last), returned as `(start, len)`
/// pairs. Never produces an empty chunk.
fn split_quantized(len: usize, parts: usize, quantum: usize) -> Vec<(usize, usize)> {
    let quantum = quantum.max(1);
    let parts = parts.max(1);
    let chunk = len.div_ceil(parts).div_ceil(quantum) * quantum;
    let mut out = Vec::new();
    let mut start = 0;
    while start < len {
        let take = chunk.min(len - start);
        out.push((start, take));
        start += take;
    }
    if out.is_empty() {
        out.push((0, 0));
    }
    out
}

/// Build the tile grid for an `m × n` output over `threads` workers.
///
/// Rows are split into up to `threads` panels of at least `row_quantum`
/// rows (so micro-kernel row tiles are not fragmented); if that yields
/// fewer panels than workers, columns are additionally split into strips
/// of at least `col_quantum` columns until `grid_rows × grid_cols`
/// reaches the worker count (or the matrix runs out of quanta).
pub fn tile_grid(
    m: usize,
    n: usize,
    threads: usize,
    row_quantum: usize,
    col_quantum: usize,
) -> TileGrid {
    let threads = threads.max(1);
    let grid_rows = threads.min((m / row_quantum.max(1)).max(1));
    let want_cols = threads.div_ceil(grid_rows);
    let grid_cols = want_cols.min((n / col_quantum.max(1)).max(1));
    let row_cuts = split_quantized(m, grid_rows, row_quantum);
    let col_cuts = split_quantized(n, grid_cols, col_quantum);
    let mut tiles = Vec::with_capacity(row_cuts.len() * col_cuts.len());
    for &(row0, rows) in &row_cuts {
        for &(col0, cols) in &col_cuts {
            tiles.push(Tile {
                index: tiles.len(),
                row0,
                rows,
                col0,
                cols,
            });
        }
    }
    TileGrid {
        grid_rows: row_cuts.len(),
        grid_cols: col_cuts.len(),
        tiles,
    }
}

/// Run `f` once per tile of `grid` across up to `threads` workers via
/// [`par_map_with`], one tile per task (the grid is already sized to
/// the pool). Single-tile grids (and one-thread calls) run inline on
/// the caller's thread.
pub fn par_tiles<F>(grid: &TileGrid, threads: usize, f: F)
where
    F: Fn(&Tile) + Sync,
{
    par_map_with(grid.tiles.iter().collect(), threads, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn covers_exactly(grid: &TileGrid, m: usize, n: usize) {
        let mut hit = vec![0u8; m * n];
        for t in &grid.tiles {
            assert!(t.rows > 0 && t.cols > 0, "empty tile {t:?}");
            for r in t.row0..t.row0 + t.rows {
                for c in t.col0..t.col0 + t.cols {
                    hit[r * n + c] += 1;
                }
            }
        }
        assert!(
            hit.iter().all(|&h| h == 1),
            "tiles must partition the output exactly once"
        );
    }

    #[test]
    fn grid_partitions_output_exactly() {
        for (m, n, threads) in [
            (1, 1, 1),
            (1, 1, 8),
            (37, 53, 4),
            (8, 4096, 8),
            (1000, 64, 8),
            (32, 500, 8),
            (7, 5, 16),
        ] {
            let grid = tile_grid(m, n, threads, 8, 32);
            covers_exactly(&grid, m, n);
            assert_eq!(grid.tiles.len(), grid.grid_rows * grid.grid_cols);
            for (i, t) in grid.tiles.iter().enumerate() {
                assert_eq!(t.index, i, "row-major enumeration");
            }
        }
    }

    #[test]
    fn rows_split_first_columns_only_when_needed() {
        // plenty of rows: no column splits
        let g = tile_grid(1024, 1024, 8, 8, 32);
        assert_eq!((g.grid_rows, g.grid_cols), (8, 1));
        // short and wide: column strips pick up the slack
        let g = tile_grid(8, 4096, 8, 8, 32);
        assert_eq!(g.grid_rows, 1);
        assert!(g.grid_cols > 1, "wide outputs must not serialize");
        // mixed: both dimensions contribute
        let g = tile_grid(32, 512, 8, 8, 32);
        assert_eq!((g.grid_rows, g.grid_cols), (4, 2));
    }

    #[test]
    fn grid_is_deterministic_in_threads_only_via_inputs() {
        let a = tile_grid(100, 200, 4, 8, 32);
        let b = tile_grid(100, 200, 4, 8, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn quantized_chunks_respect_quantum() {
        for &(len, parts, q) in &[
            (37usize, 4usize, 8usize),
            (100, 3, 16),
            (5, 8, 8),
            (64, 4, 8),
        ] {
            let cuts = split_quantized(len, parts, q);
            let total: usize = cuts.iter().map(|&(_, l)| l).sum();
            assert_eq!(total, len);
            assert!(cuts.len() <= parts.max(1));
            for &(_, l) in cuts.iter().rev().skip(1) {
                assert_eq!(l % q, 0, "non-final chunks are quantum multiples");
            }
        }
    }

    #[test]
    fn par_tiles_visits_every_tile_once_at_any_thread_count() {
        let grid = tile_grid(64, 96, 8, 8, 32);
        for threads in [1, 2, 4, 8] {
            let seen = AtomicU64::new(0);
            let area = AtomicU64::new(0);
            par_tiles(&grid, threads, |t| {
                seen.fetch_add(1, Ordering::Relaxed);
                area.fetch_add((t.rows * t.cols) as u64, Ordering::Relaxed);
            });
            assert_eq!(seen.load(Ordering::Relaxed) as usize, grid.tiles.len());
            assert_eq!(area.load(Ordering::Relaxed), 64 * 96);
        }
    }
}
