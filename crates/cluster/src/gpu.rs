//! GPU device specifications.

/// Specification of one GPU device — the knobs the roofline cost model
/// reads.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"NVIDIA A40"`.
    pub name: &'static str,
    /// Number of CUDA cores (used only for documentation / display).
    pub cuda_cores: u32,
    /// Device memory capacity in GiB.
    pub memory_gib: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Peak FP32 throughput in TFLOP/s (CUDA-core path).
    pub peak_fp32_tflops: f64,
    /// Peak FP16/BF16 tensor-core throughput in TFLOP/s.
    pub peak_fp16_tflops: f64,
    /// Fixed per-kernel launch overhead in microseconds. Dominates tiny
    /// operators; a well-documented effect on real GPUs (~3–6 µs).
    pub kernel_launch_us: f64,
}

impl GpuSpec {
    /// NVIDIA A40 (Platform 1): 10,752 CUDA cores, 48 GB GDDR6,
    /// 696 GB/s, compute capability 8.6. Peak throughputs from the
    /// published datasheet (37.4 TF FP32; 149.7 TF FP16 tensor core).
    pub fn a40() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA A40",
            cuda_cores: 10_752,
            memory_gib: 48.0,
            mem_bandwidth_gbs: 696.0,
            peak_fp32_tflops: 37.4,
            peak_fp16_tflops: 149.7,
            kernel_launch_us: 4.0,
        }
    }

    /// NVIDIA RTX A5500 (Platform 2): 10,240 CUDA cores, 24 GB GDDR6.
    /// Datasheet: 34.1 TF FP32, 768 GB/s memory bandwidth.
    pub fn a5500() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA RTX A5500",
            cuda_cores: 10_240,
            memory_gib: 24.0,
            mem_bandwidth_gbs: 768.0,
            peak_fp32_tflops: 34.1,
            peak_fp16_tflops: 136.4,
            kernel_launch_us: 4.0,
        }
    }

    /// Peak throughput in FLOP/s for the given precision class.
    #[inline]
    pub fn peak_flops(&self, half_precision: bool) -> f64 {
        let tf = if half_precision {
            self.peak_fp16_tflops
        } else {
            self.peak_fp32_tflops
        };
        tf * 1e12
    }

    /// Memory bandwidth in bytes/second.
    #[inline]
    pub fn mem_bandwidth_bps(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9
    }

    /// Kernel launch overhead in seconds.
    #[inline]
    pub fn kernel_launch_s(&self) -> f64 {
        self.kernel_launch_us * 1e-6
    }

    /// Device memory capacity in bytes.
    #[inline]
    pub fn memory_bytes(&self) -> u64 {
        (self.memory_gib * (1u64 << 30) as f64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a40_matches_published_specs() {
        let g = GpuSpec::a40();
        assert_eq!(g.cuda_cores, 10_752);
        assert_eq!(g.memory_gib, 48.0);
        assert_eq!(g.mem_bandwidth_gbs, 696.0);
    }

    #[test]
    fn a5500_matches_published_specs() {
        let g = GpuSpec::a5500();
        assert_eq!(g.cuda_cores, 10_240);
        assert_eq!(g.memory_gib, 24.0);
    }

    #[test]
    fn peak_flops_selects_precision() {
        let g = GpuSpec::a40();
        assert!(g.peak_flops(true) > g.peak_flops(false));
        assert_eq!(g.peak_flops(false), 37.4e12);
    }

    #[test]
    fn unit_conversions() {
        let g = GpuSpec::a40();
        assert_eq!(g.mem_bandwidth_bps(), 696e9);
        assert!((g.kernel_launch_s() - 4e-6).abs() < 1e-12);
        assert_eq!(g.memory_bytes(), 48 * (1u64 << 30));
    }
}
