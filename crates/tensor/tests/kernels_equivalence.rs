//! Packed-vs-reference GEMM agreement (DESIGN.md §3j).
//!
//! The packed register-blocked kernels are constructed to preserve each
//! output element's floating-point accumulation chain: starting from the
//! entering value of the output, one `f32::mul_add` per product in
//! ascending contraction order — exactly one rounding per step, which
//! IEEE 754 defines, so the serial references compute the same chain with
//! the same `mul_add`. These tests therefore pin **bitwise** agreement
//! with the retained naive references for all three products and any
//! initial output.
//!
//! Shapes sweep the degenerate and tile-boundary cases: every dimension
//! draws from {1, 3, MR−1, MR, MR+1, NR−1, NR, NR+1, 257}.

use clinfl_tensor::kernels;
use clinfl_tensor::kernels::{GEMM_MR, GEMM_NR};
use proptest::prelude::*;

/// Tile-boundary dimension grid from the issue: degenerate, odd, around
/// both tile edges, and one larger-than-KC-unaligned prime.
const DIMS: [usize; 9] = [
    1,
    3,
    GEMM_MR - 1,
    GEMM_MR,
    GEMM_MR + 1,
    GEMM_NR - 1,
    GEMM_NR,
    GEMM_NR + 1,
    257,
];

/// Deterministic pseudo-random fill in roughly [-0.5, 0.5].
fn fill(buf: &mut [f32], mut state: u64) {
    state = state.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for v in buf.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
}

fn assert_bits_eq(packed: &[f32], reference: &[f32], what: &str) {
    for (i, (p, r)) in packed.iter().zip(reference).enumerate() {
        assert_eq!(
            p.to_bits(),
            r.to_bits(),
            "{what}: element {i} differs: packed {p} vs reference {r}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `matmul_acc` is bitwise identical to the naive reference for any
    /// initial output contents: the packed kernel loads the output tile
    /// into its accumulators and adds products in ascending-k order, the
    /// same per-element chain as the reference.
    #[test]
    fn matmul_matches_reference_bitwise(
        mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len(),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let mut a = vec![0.0f32; m * k];
        let mut b = vec![0.0f32; k * n];
        let mut c0 = vec![0.0f32; m * n];
        fill(&mut a, seed);
        fill(&mut b, seed ^ 0xa5a5);
        fill(&mut c0, seed ^ 0x5a5a);
        let mut packed = c0.clone();
        let mut reference = c0;
        kernels::matmul_acc(&a, &b, &mut packed, m, k, n);
        kernels::matmul_acc_ref(&a, &b, &mut reference, m, k, n);
        assert_bits_eq(&packed, &reference, "matmul");
    }

    /// `matmul_at_b_acc` (transposed LHS, the `dW = xᵀdy` shape) is
    /// bitwise identical to the reference for any initial output.
    #[test]
    fn matmul_at_b_matches_reference_bitwise(
        mi in 0usize..DIMS.len(), ki in 0usize..DIMS.len(), ni in 0usize..DIMS.len(),
        seed in 0u64..1000,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let mut a = vec![0.0f32; k * m];
        let mut b = vec![0.0f32; k * n];
        let mut c0 = vec![0.0f32; m * n];
        fill(&mut a, seed);
        fill(&mut b, seed ^ 0xa5a5);
        fill(&mut c0, seed ^ 0x5a5a);
        let mut packed = c0.clone();
        let mut reference = c0;
        kernels::matmul_at_b_acc(&a, &b, &mut packed, m, k, n);
        kernels::matmul_at_b_acc_ref(&a, &b, &mut reference, m, k, n);
        assert_bits_eq(&packed, &reference, "matmul_at_b");
    }

    /// `matmul_a_bt_acc` (transposed RHS) is bitwise identical to the
    /// reference for any initial output, a zeroed one (the way the
    /// training stack calls it) included: both start each element's chain
    /// at the entering value of `c`.
    #[test]
    fn matmul_a_bt_matches_reference_bitwise(
        mi in 0usize..DIMS.len(), ni in 0usize..DIMS.len(), ki in 0usize..DIMS.len(),
        zeroed_bit in 0u8..2,
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (DIMS[mi], DIMS[ni], DIMS[ki]);
        let mut a = vec![0.0f32; m * n];
        let mut b = vec![0.0f32; k * n];
        let mut c0 = vec![0.0f32; m * k];
        fill(&mut a, seed);
        fill(&mut b, seed ^ 0xa5a5);
        if zeroed_bit == 0 {
            fill(&mut c0, seed ^ 0x5a5a);
        }
        let mut packed = c0.clone();
        let mut reference = c0;
        kernels::matmul_a_bt_acc(&a, &b, &mut packed, m, n, k);
        kernels::matmul_a_bt_acc_ref(&a, &b, &mut reference, m, n, k);
        assert_bits_eq(&packed, &reference, "matmul_a_bt");
    }
}
