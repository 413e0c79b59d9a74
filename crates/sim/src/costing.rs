//! Optimization-cost accounting (the Fig. 10a measurable).
//!
//! Profiling a stage on a real cluster is expensive: Alpa enumerates the
//! stage, runs the intra-operator optimization, XLA-compiles the sharded
//! program, ships parameters to the GPUs, and times several iterations.
//! This module prices each of those steps in *simulated seconds* so that
//! "full profiling", "partial profiling", and PredTOP's
//! sample-train-predict workflow can be compared on one axis.
//!
//! Defaults are calibrated to the magnitudes reported for Alpa-class
//! systems: tens of seconds of compilation per stage (dominated by XLA),
//! a parameter transfer at PCIe speed, and a handful of timed iterations.

use parking_lot::Mutex;

/// Tunable cost constants for one profiling task.
#[derive(Debug, Clone, Copy)]
pub struct CostingModel {
    /// Fixed per-stage compilation overhead (XLA pipeline setup), seconds.
    pub compile_base_s: f64,
    /// Additional compilation time per graph node, seconds.
    pub compile_per_node_s: f64,
    /// Intra-stage optimization (ILP/DP) time per graph node, seconds.
    pub optimize_per_node_s: f64,
    /// Host→device parameter transfer bandwidth, GB/s (PCIe-class).
    pub transfer_gbs: f64,
    /// Warm-up iterations before timing.
    pub warmup_iters: usize,
    /// Timed iterations averaged into the measurement.
    pub timed_iters: usize,
}

impl Default for CostingModel {
    fn default() -> Self {
        CostingModel {
            compile_base_s: 8.0,
            compile_per_node_s: 0.02,
            optimize_per_node_s: 0.005,
            transfer_gbs: 12.0,
            warmup_iters: 2,
            timed_iters: 5,
        }
    }
}

impl CostingModel {
    /// Simulated seconds to profile one stage: optimize + compile +
    /// transfer + (warmup + timed) executions of the stage.
    pub fn profile_stage_s(&self, num_nodes: usize, param_bytes: u64, stage_latency_s: f64) -> f64 {
        let optimize = self.optimize_per_node_s * num_nodes as f64;
        let compile = self.compile_base_s + self.compile_per_node_s * num_nodes as f64;
        let transfer = param_bytes as f64 / (self.transfer_gbs * 1e9);
        let runs = (self.warmup_iters + self.timed_iters) as f64 * stage_latency_s;
        optimize + compile + transfer + runs
    }
}

/// Aggregated cost totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostTotals {
    /// Number of stage-profiling tasks executed.
    pub stages_profiled: usize,
    /// Total simulated profiling seconds (optimize+compile+transfer+run).
    pub profiling_s: f64,
    /// Wall-clock seconds spent training prediction models (real time,
    /// recorded by the caller).
    pub training_s: f64,
    /// Wall-clock seconds spent on predictor inference (real time).
    pub inference_s: f64,
}

impl CostTotals {
    /// Grand total in seconds.
    pub fn total_s(&self) -> f64 {
        self.profiling_s + self.training_s + self.inference_s
    }
}

/// Thread-safe cost ledger shared by a profiling campaign.
#[derive(Debug, Default)]
pub struct CostLedger {
    totals: Mutex<CostTotals>,
}

impl CostLedger {
    /// New, zeroed ledger.
    pub fn new() -> CostLedger {
        CostLedger::default()
    }

    /// Record one stage-profiling task of `seconds` simulated cost.
    pub fn add_profile(&self, seconds: f64) {
        let mut t = self.totals.lock();
        t.stages_profiled += 1;
        t.profiling_s += seconds;
    }

    /// Record predictor-training wall time.
    pub fn add_training(&self, seconds: f64) {
        self.totals.lock().training_s += seconds;
    }

    /// Record predictor-inference wall time.
    pub fn add_inference(&self, seconds: f64) {
        self.totals.lock().inference_s += seconds;
    }

    /// Snapshot the totals.
    pub fn totals(&self) -> CostTotals {
        *self.totals.lock()
    }

    /// Zero the ledger (between experiments).
    pub fn reset(&self) {
        *self.totals.lock() = CostTotals::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_cost_components_add_up() {
        let c = CostingModel::default();
        let t = c.profile_stage_s(100, 12_000_000_000, 0.5);
        // transfer: 12 GB at 12 GB/s = 1 s; runs: 7 * 0.5 = 3.5 s;
        // optimize: 0.5 s; compile: 8 + 2 = 10 s
        assert!((t - (0.5 + 10.0 + 1.0 + 3.5)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn bigger_stages_cost_more() {
        let c = CostingModel::default();
        assert!(c.profile_stage_s(1000, 1 << 30, 0.1) > c.profile_stage_s(100, 1 << 30, 0.1));
        assert!(c.profile_stage_s(100, 1 << 34, 0.1) > c.profile_stage_s(100, 1 << 30, 0.1));
    }

    #[test]
    fn ledger_accumulates_and_resets() {
        let l = CostLedger::new();
        l.add_profile(10.0);
        l.add_profile(5.0);
        l.add_training(2.0);
        l.add_inference(0.5);
        let t = l.totals();
        assert_eq!(t.stages_profiled, 2);
        assert_eq!(t.profiling_s, 15.0);
        assert_eq!(t.total_s(), 17.5);
        l.reset();
        assert_eq!(l.totals(), CostTotals::default());
    }
}
