//! Property-based gradient checks over every differentiable op.

use clinfl_tensor::{gradcheck, Graph, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_broadcast_row_grad(seed in 0u64..1000) {
        let x = Tensor::randn(&[3, 4], 1.0, seed);
        let b = Tensor::randn(&[4], 1.0, seed ^ 1);
        let r = gradcheck(&[x, b], |g, v| {
            let s = g.add(v[0], v[1]);
            let sq = g.mul(s, s);
            g.sum(sq)
        });
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn add_scalar_broadcast_grad(seed in 0u64..1000) {
        let x = Tensor::randn(&[2, 3], 1.0, seed);
        let c = Tensor::randn(&[1], 1.0, seed ^ 2);
        let r = gradcheck(&[x, c], |g, v| {
            let s = g.add(v[0], v[1]);
            let t = g.tanh(s);
            g.sum(t)
        });
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn mul_same_shape_grad(seed in 0u64..1000) {
        let x = Tensor::randn(&[6], 1.0, seed);
        let y = Tensor::randn(&[6], 1.0, seed ^ 3);
        let r = gradcheck(&[x, y], |g, v| {
            let m = g.mul(v[0], v[1]);
            g.sum(m)
        });
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn broadcast_rhs_matmul_grad(seed in 0u64..500) {
        let a = Tensor::randn(&[2, 2, 3], 0.8, seed);
        let w = Tensor::randn(&[3, 2], 0.8, seed ^ 5);
        let r = gradcheck(&[a, w], |g, v| {
            let m = g.matmul(v[0], v[1]);
            g.sum(m)
        });
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn select_axis1_grad(seed in 0u64..500, index in 0usize..3) {
        let a = Tensor::randn(&[2, 3, 4], 1.0, seed);
        let r = gradcheck(&[a], |g, v| {
            let s = g.select_axis1(v[0], index);
            let sq = g.mul(s, s);
            g.sum(sq)
        });
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn embedding_grad(seed in 0u64..500) {
        let table = Tensor::randn(&[5, 3], 1.0, seed);
        let r = gradcheck(&[table], |g, v| {
            let e = g.embedding(v[0], &[0, 4, 2, 2]);
            let sq = g.mul(e, e);
            g.sum(sq)
        });
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn normalize_affine_stack_grad(seed in 0u64..500) {
        let x = Tensor::randn(&[2, 5], 1.0, seed);
        let gamma = Tensor::randn(&[5], 0.5, seed ^ 8);
        let beta = Tensor::randn(&[5], 0.5, seed ^ 9);
        let r = gradcheck(&[x, gamma, beta], |g, v| {
            let n = g.normalize_last(v[0], 1e-5);
            let s = g.mul(n, v[1]);
            let s = g.add(s, v[2]);
            let sq = g.mul(s, s);
            g.sum(sq)
        });
        prop_assert!(r.passes(5e-2), "{r:?}");
    }

    #[test]
    fn gelu_sigmoid_chain_grad(seed in 0u64..500) {
        let x = Tensor::randn(&[8], 2.0, seed);
        let r = gradcheck(&[x], |g, v| {
            let b = g.gelu(v[0]);
            let c = g.sigmoid(b);
            g.sum(c)
        });
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn reshape_preserves_grad_flow(seed in 0u64..500) {
        let x = Tensor::randn(&[2, 6], 1.0, seed);
        let r = gradcheck(&[x], |g, v| {
            let a = g.reshape(v[0], &[3, 4]);
            let b = g.reshape(a, &[12]);
            let sq = g.mul(b, b);
            g.sum(sq)
        });
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn concat_last_grad(seed in 0u64..500) {
        let a = Tensor::randn(&[2, 3], 1.0, seed);
        let b = Tensor::randn(&[2, 2], 1.0, seed ^ 11);
        let w = Tensor::randn(&[2, 5], 1.0, seed ^ 13);
        let r = gradcheck(&[a, b, w], |g, v| {
            let c = g.concat_last(v[0], v[1]);
            let m = g.mul(c, v[2]);
            g.sum(m)
        });
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn matmul_forward_matches_reference(
        m in 1usize..4, k in 1usize..4, n in 1usize..4, seed in 0u64..100,
    ) {
        let a = Tensor::randn(&[m, k], 1.0, seed);
        let b = Tensor::randn(&[k, n], 1.0, seed ^ 10);
        let mut g = Graph::new();
        let (av, bv) = (g.input(a.clone()), g.input(b.clone()));
        let cv = g.matmul(av, bv);
        let c = g.value(cv);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                prop_assert!((c.data()[i * n + j] - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn dropout_eval_mode_deterministic(seed in 0u64..100) {
        let x = Tensor::randn(&[16], 1.0, seed);
        let run = |t: &Tensor| {
            let mut g = Graph::with_seed(seed);
            g.set_training(false);
            let v = g.input(t.clone());
            let d = g.dropout(v, 0.5);
            g.value(d).clone()
        };
        prop_assert_eq!(run(&x), x);
    }
}
