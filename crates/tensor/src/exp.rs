//! The softmax exponential: a port of glibc's `expf` that returns the
//! same bits at every instruction-set tier.
//!
//! glibc (2.27 and later) computes `expf` with the table-driven
//! algorithm of `sysdeps/ieee754/flt-32/e_expf.c` and, on x86-64 CPUs
//! with FMA and AVX2, runs it through the `__expf_fma` ifunc variant,
//! whose compiler fused every `a·b + c` of the C source. In `f64`:
//!
//! ```text
//! kd0 = fma(InvLn2N, x, SHIFT)      ki = bits(kd0)      kd = kd0 − SHIFT
//! r   = fma(InvLn2N, x, −kd)
//! s   = from_bits(T[ki & 31] + (ki << 47))               2^(k/32)
//! z   = fma(C0, r, C1)    y = fma(C2, r, 1)    y = fma(z, r·r, y)
//! expf(x) = (y · s) as f32
//! ```
//!
//! An input with `|x| ≥ 88` or NaN (`(bits >> 20) & 0x7ff > 0x42a`)
//! takes the special branch first: `−inf → +0`, NaN or `+inf → x + x`,
//! `x > 0x1.62e42ep6` overflows to `+inf`, `x < −0x1.9fe368p6`
//! underflows to `+0`, `x < −0x1.9d1d9ep6` may underflow (to the least
//! subnormal), and anything else falls through to the computation
//! above. The table and constants below are libm's `.rodata`, read with
//! `objdump -d` / `objdump -s` from the `__expf_fma` body of glibc 2.36.
//!
//! Every tier runs that computation lane by lane with correctly rounded
//! `f64` operations, so all of them return the same bits:
//!
//! * AVX-512: 8 `f64` lanes; the table lookup is two `vpermt2q` over
//!   the 32 entries and a blend on bit 4 of the index;
//! * AVX2 + FMA: 4 `f64` lanes with a gathered table lookup;
//! * scalar: [`f64::mul_add`], which is exact on any target.
//!
//! The vector tiers zero the lanes that underflow (`−inf` included, the
//! masked entries of a reference softmax row) and hand the few other
//! special lanes to the scalar port.
//!
//! The tier is [`crate::kernel::active_isa`]'s (AVX2 also needs FMA).
//! An ignored test compares all 2³² inputs against `f32::exp` on a glibc
//! host, and a tier-1 test pins a digest of a strided sweep, so what the
//! predictors compute no longer depends on the host's libm: a libm whose
//! `expf` rounds differently (glibc's non-FMA variant, musl, macOS)
//! leaves the softmax, and every prediction, unchanged.

use std::sync::OnceLock;

use crate::kernel::{active_isa, available_isas, KernelIsa};

/// `32 / ln 2` (`0x1.71547652b82fep+5`).
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `0x1.8p+52`: adding it rounds to an integer held in the low
/// mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic for `2^(r/32)`, scaled by `32⁻³`, `32⁻²` and `32⁻¹`.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `T[i] = bits(2^(i/32)) − (i << 47)`.
const T: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// Inputs at or past `±88` (and NaN) take the special branch.
const SPECIAL_ABS: f32 = 88.0;
/// `0x1.62e42ep6 ≈ 88.72`: above it `expf` overflows.
const OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `−0x1.9fe368p6 ≈ −103.97`: below it `expf` underflows to `+0`.
const UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);
/// `−0x1.9d1d9ep6 ≈ −103.28`: below it `expf` may underflow.
const MAY_UNDERFLOW: f32 = f32::from_bits(0xc2ce_8ecf);

/// glibc's `expf(x)`, bit for bit (see the module docs).
pub fn expf(x: f32) -> f32 {
    if (x.to_bits() >> 20) & 0x7ff > 0x42a {
        special(x)
    } else {
        core(x)
    }
}

/// The table-driven computation every finite `|x| < 88` takes.
#[inline(always)]
fn core(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd0 = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd0.to_bits();
    let kd = kd0 - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(T[(ki & 31) as usize].wrapping_add(ki << 47));
    let z = C0.mul_add(r, C1);
    let y = C2.mul_add(r, 1.0);
    let y = z.mul_add(r * r, y);
    (y * s) as f32
}

/// glibc's special branch: `|x| ≥ 88` or NaN.
#[cold]
fn special(x: f32) -> f32 {
    if x == f32::NEG_INFINITY {
        0.0
    } else if !x.is_finite() {
        x + x
    } else if x > OVERFLOW {
        f32::INFINITY
    } else if x < UNDERFLOW {
        0.0
    } else if x < MAY_UNDERFLOW {
        f32::from_bits(1)
    } else {
        core(x)
    }
}

/// Exp tiers this CPU can run, narrowest first: the kernel tiers of
/// [`available_isas`], AVX2 only with FMA.
pub fn exp_isas() -> Vec<KernelIsa> {
    available_isas()
        .into_iter()
        .filter(|&isa| isa != KernelIsa::Avx2 || has_fma())
        .collect()
}

fn has_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

static EXP_ISA: OnceLock<KernelIsa> = OnceLock::new();

/// The tier [`exp_in_place`] runs at: [`active_isa`], or scalar when
/// that tier cannot run the exp (AVX2 without FMA).
fn active_exp_isa() -> KernelIsa {
    *EXP_ISA.get_or_init(|| {
        let isa = active_isa();
        if exp_isas().contains(&isa) {
            isa
        } else {
            KernelIsa::Scalar
        }
    })
}

/// `x ↦ expf(x)` over `xs`, at the active tier.
pub fn exp_in_place(xs: &mut [f32]) {
    // SAFETY: `active_exp_isa` only returns a tier in `exp_isas`.
    unsafe { run(active_exp_isa(), xs) }
}

/// `x ↦ expf(x)` over `xs` at tier `isa` (tests and benchmarks).
///
/// # Panics
/// Panics if this CPU cannot run `isa` (see [`exp_isas`]).
pub fn exp_in_place_at(isa: KernelIsa, xs: &mut [f32]) {
    assert!(
        exp_isas().contains(&isa),
        "{} exp not available",
        isa.name()
    );
    // SAFETY: checked just above.
    unsafe { run(isa, xs) }
}

/// # Safety
/// The CPU must support `isa` (it is in [`exp_isas`]).
unsafe fn run(isa: KernelIsa, xs: &mut [f32]) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => simd::exp_avx512(xs),
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2 => simd::exp_avx2(xs),
        _ => {
            for x in xs {
                *x = expf(*x);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    use std::arch::x86_64::*;

    use super::{expf, C0, C1, C2, INV_LN2_N, SHIFT, SPECIAL_ABS, T, UNDERFLOW};

    /// Run `block` over every `W`-float chunk of `xs`, the tail through
    /// a padded copy: each call gets a pointer to `W` readable and
    /// writable floats, which is what the vector loads and stores need.
    #[inline(always)]
    fn chunked<const W: usize>(xs: &mut [f32], block: impl Fn(*mut f32)) {
        let mut chunks = xs.chunks_exact_mut(W);
        for c in &mut chunks {
            block(c.as_mut_ptr());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mut pad = [0.0f32; W];
            pad[..rest.len()].copy_from_slice(rest);
            block(pad.as_mut_ptr());
            rest.copy_from_slice(&pad[..rest.len()]);
        }
    }

    /// Patch the lanes of `mask` (inputs in the special range that do not
    /// underflow to `+0`, which the vector code zeroes itself) with the
    /// scalar port, which takes glibc's special branch.
    ///
    /// # Safety
    /// `p` must point at `W` writable floats.
    #[cold]
    unsafe fn patch<const W: usize>(p: *mut f32, input: [f32; W], mask: u32) {
        for (lane, &x) in input.iter().enumerate() {
            if mask >> lane & 1 == 1 {
                *p.add(lane) = expf(x);
            }
        }
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn exp_avx512(xs: &mut [f32]) {
        let tab = |i: usize| _mm512_loadu_epi64(T[i..].as_ptr().cast());
        let (t0, t1, t2, t3) = (tab(0), tab(8), tab(16), tab(24));
        let inv = _mm512_set1_pd(INV_LN2_N);
        let shift = _mm512_set1_pd(SHIFT);
        let (c0, c1, c2) = (_mm512_set1_pd(C0), _mm512_set1_pd(C1), _mm512_set1_pd(C2));
        let one = _mm512_set1_pd(1.0);
        let bit4 = _mm512_set1_epi64(16);
        let limit = _mm512_set1_pd(f64::from(SPECIAL_ABS));
        let underflow = _mm512_set1_pd(f64::from(UNDERFLOW));
        chunked::<8>(xs, |p| {
            let x = _mm256_loadu_ps(p);
            let xd = _mm512_cvtps_pd(x);
            let kd0 = _mm512_fmadd_pd(inv, xd, shift);
            let ki = _mm512_castpd_si512(kd0);
            let kd = _mm512_sub_pd(kd0, shift);
            let r = _mm512_fmsub_pd(inv, xd, kd);
            // T[ki & 31]: entries 0..16 and 16..32 by bits 0..4, then bit 4
            let lo = _mm512_permutex2var_epi64(t0, ki, t1);
            let hi = _mm512_permutex2var_epi64(t2, ki, t3);
            let t = _mm512_mask_blend_epi64(_mm512_test_epi64_mask(ki, bit4), lo, hi);
            let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
            let z = _mm512_fmadd_pd(c0, r, c1);
            let y = _mm512_fmadd_pd(c2, r, one);
            let y = _mm512_fmadd_pd(z, _mm512_mul_pd(r, r), y);
            // x < −0x1.9fe368p6 (−inf included) underflows to +0
            let zero = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(xd, underflow);
            let out = _mm512_cvtpd_ps(_mm512_maskz_mul_pd(!zero, y, s));
            // the rest of |x| ≥ 88, and NaN
            let special = _mm512_cmp_pd_mask::<_CMP_NLT_UQ>(_mm512_abs_pd(xd), limit) & !zero;
            _mm256_storeu_ps(p, out);
            if special != 0 {
                patch(
                    p,
                    std::mem::transmute::<__m256, [f32; 8]>(x),
                    u32::from(special),
                );
            }
        });
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_avx2(xs: &mut [f32]) {
        let inv = _mm256_set1_pd(INV_LN2_N);
        let shift = _mm256_set1_pd(SHIFT);
        let (c0, c1, c2) = (_mm256_set1_pd(C0), _mm256_set1_pd(C1), _mm256_set1_pd(C2));
        let one = _mm256_set1_pd(1.0);
        let low5 = _mm256_set1_epi64x(31);
        let sign = _mm256_set1_pd(-0.0);
        let limit = _mm256_set1_pd(f64::from(SPECIAL_ABS));
        let underflow = _mm256_set1_pd(f64::from(UNDERFLOW));
        chunked::<4>(xs, |p| {
            let x = _mm_loadu_ps(p);
            let xd = _mm256_cvtps_pd(x);
            let kd0 = _mm256_fmadd_pd(inv, xd, shift);
            let ki = _mm256_castpd_si256(kd0);
            let kd = _mm256_sub_pd(kd0, shift);
            let r = _mm256_fmsub_pd(inv, xd, kd);
            let idx = _mm256_and_si256(ki, low5);
            let t = _mm256_i64gather_epi64::<8>(T.as_ptr().cast(), idx);
            let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
            let z = _mm256_fmadd_pd(c0, r, c1);
            let y = _mm256_fmadd_pd(c2, r, one);
            let y = _mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y);
            // x < −0x1.9fe368p6 (−inf included) underflows to +0
            let zero = _mm256_cmp_pd::<_CMP_LT_OQ>(xd, underflow);
            let out = _mm256_cvtpd_ps(_mm256_andnot_pd(zero, _mm256_mul_pd(y, s)));
            // the rest of |x| ≥ 88, and NaN
            let abs = _mm256_andnot_pd(sign, xd);
            let special = _mm256_andnot_pd(zero, _mm256_cmp_pd::<_CMP_NLT_UQ>(abs, limit));
            let special = _mm256_movemask_pd(special);
            _mm_storeu_ps(p, out);
            if special != 0 {
                patch(
                    p,
                    std::mem::transmute::<__m128, [f32; 4]>(x),
                    special as u32,
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the output bits.
    fn digest(ys: &[f32]) -> u64 {
        ys.iter().fold(0xcbf2_9ce4_8422_2325, |h, y| {
            y.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Every 4093rd bit pattern (a prime stride, so every exponent and
    /// sign is visited), then ±64 ulps around each edge of the special
    /// branch: `±88`, the overflow and both underflow thresholds, the
    /// infinities, NaN, zero and the subnormals.
    fn sweep() -> Vec<f32> {
        let mut bits: Vec<u32> = (0..=u32::MAX).step_by(4093).collect();
        let edges = [
            SPECIAL_ABS.to_bits(),
            (-SPECIAL_ABS).to_bits(),
            OVERFLOW.to_bits(),
            UNDERFLOW.to_bits(),
            MAY_UNDERFLOW.to_bits(),
            f32::INFINITY.to_bits(),
            f32::NEG_INFINITY.to_bits(),
            f32::NAN.to_bits(),
            0,
            0x8000_0000,
        ];
        for e in edges {
            bits.extend((0..=128u32).map(|d| e.wrapping_add(d).wrapping_sub(64)));
        }
        bits.into_iter().map(f32::from_bits).collect()
    }

    /// FNV-1a of `f32::exp` over [`sweep`], recorded on x86-64 glibc
    /// 2.36 (its `__expf_fma` variant).
    const GLIBC_SWEEP_DIGEST: u64 = 0xabbd_5489_78ea_9caf;

    #[test]
    fn every_tier_matches_the_scalar_port_and_the_recorded_digest() {
        let xs = sweep();
        let want: Vec<f32> = xs.iter().map(|&x| expf(x)).collect();
        assert_eq!(digest(&want), GLIBC_SWEEP_DIGEST, "scalar port drifted");
        for isa in exp_isas() {
            // odd lengths exercise the padded tail
            for len in [xs.len(), 13, 3] {
                let mut ys = xs[..len].to_vec();
                exp_in_place_at(isa, &mut ys);
                for (i, (y, w)) in ys.iter().zip(&want).enumerate() {
                    assert_eq!(
                        y.to_bits(),
                        w.to_bits(),
                        "{} exp({:e} = {:#010x})",
                        isa.name(),
                        xs[i],
                        xs[i].to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn special_branch_results() {
        assert_eq!(expf(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert!(expf(f32::NAN).is_nan());
        assert_eq!(expf(100.0), f32::INFINITY);
        assert_eq!(expf(-104.0).to_bits(), 0);
        assert_eq!(expf(-103.5).to_bits(), 1, "the least subnormal");
        assert_eq!(expf(0.0), 1.0);
        assert_eq!(expf(-0.0), 1.0);
        let mut xs = [f32::NEG_INFINITY, 100.0, -104.0, -103.5, 0.5, 88.5, -88.5];
        let want = xs.map(expf);
        exp_in_place(&mut xs);
        assert_eq!(xs.map(f32::to_bits), want.map(f32::to_bits));
    }

    /// All 2³² inputs against the host's `f32::exp`, which is glibc's
    /// `__expf_fma` on x86-64 glibc hosts with FMA (run in release:
    /// `cargo test --release -p predtop-tensor -- --ignored`).
    #[test]
    #[ignore = "exhaustive: 2^32 inputs per tier, about a minute in release"]
    fn every_input_matches_the_host_expf() {
        let isas = exp_isas();
        let halves: Vec<u32> = vec![0, 1 << 31];
        std::thread::scope(|s| {
            for &start in &halves {
                let isas = &isas;
                s.spawn(move || {
                    let mut xs = vec![0.0f32; 1 << 16];
                    let mut ys = xs.clone();
                    for block in 0..(1u32 << 15) {
                        let base = start + (block << 16);
                        for (i, x) in xs.iter_mut().enumerate() {
                            *x = f32::from_bits(base + i as u32);
                        }
                        let want: Vec<u32> = xs.iter().map(|x| x.exp().to_bits()).collect();
                        for &isa in isas {
                            ys.copy_from_slice(&xs);
                            exp_in_place_at(isa, &mut ys);
                            for (i, (y, w)) in ys.iter().zip(&want).enumerate() {
                                assert_eq!(
                                    y.to_bits(),
                                    *w,
                                    "{} exp({:#010x})",
                                    isa.name(),
                                    base + i as u32
                                );
                            }
                        }
                    }
                });
            }
        });
    }
}
