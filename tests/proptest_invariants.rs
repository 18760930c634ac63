//! Property-based tests over the core invariants of the stack: wire-codec
//! roundtrips, spec-text roundtrips, secure-channel integrity, gradient
//! correctness, masking bounds, and partition conservation.

use clinfl_data::{ClassifyDataset, SitePartitioner};
use clinfl_flare::checkpoint::RunCheckpoint;
use clinfl_flare::client::RetryPolicy;
use clinfl_flare::codec::{CodecSpec, QuantMode};
use clinfl_flare::controller::{RoundSummary, SagConfig};
use clinfl_flare::faults::FaultConfig;
use clinfl_flare::messages::{ClientMessage, ServerMessage, TaskAssignment};
use clinfl_flare::privacy::DpConfig;
use clinfl_flare::security::{DhKeyPair, SecureChannel};
use clinfl_flare::simulator::{SimulatorConfig, TreeConfig};
use clinfl_flare::spec::{MAX_SITES, MAX_TREE_DEPTH};
use clinfl_flare::wire::{WireDecode, WireEncode};
use clinfl_flare::{Dxo, WeightTensor, Weights};
use clinfl_tensor::{gradcheck, Graph, Tensor};
use clinfl_text::{ClinicalTokenizer, Encoded, MlmMasker, Vocab, IGNORE_INDEX};
use proptest::prelude::*;
use std::time::Duration;

fn arb_weights() -> impl Strategy<Value = Weights> {
    proptest::collection::btree_map(
        "[a-z]{1,8}(\\.[a-z]{1,8})?",
        (1usize..5, 1usize..5).prop_flat_map(|(r, c)| {
            proptest::collection::vec(-1e3f32..1e3, r * c)
                .prop_map(move |data| WeightTensor::new(vec![r, c], data))
        }),
        0..4,
    )
}

fn arb_round_summary() -> impl Strategy<Value = RoundSummary> {
    (
        any::<u32>(),
        proptest::collection::vec("site-[1-8]", 0..4),
        proptest::collection::btree_map(
            "site-[1-8]",
            proptest::collection::btree_map("[a-z_]{1,10}", -1e6f64..1e6, 0..3),
            0..3,
        ),
        (any::<bool>(), -1e3f64..1e3),
        proptest::collection::vec("site-[1-8]", 0..3),
    )
        .prop_map(
            |(round, contributors, client_metrics, metric, dropped)| RoundSummary {
                round,
                contributors,
                client_metrics,
                global_metric: metric.0.then_some(metric.1),
                dropped,
            },
        )
}

fn arb_checkpoint() -> impl Strategy<Value = RunCheckpoint> {
    (
        (any::<u64>(), any::<u32>(), any::<u32>()),
        arb_weights(),
        proptest::collection::vec(arb_round_summary(), 0..4),
        (any::<bool>(), -1e3f64..1e3, any::<u32>()),
        (
            (0u32..4, 0u32..16),
            "([a-z_]{1,12} = [a-z0-9.+:,]{0,12}\n){0,6}",
        ),
    )
        .prop_map(
            |((seed, next_round, total_rounds), global, rounds, best, (tree, spec))| {
                RunCheckpoint {
                    seed,
                    next_round,
                    total_rounds,
                    global,
                    rounds,
                    best_metric: best.0.then_some(best.1),
                    best_round: best.0.then_some(best.2),
                    tree_depth: tree.0,
                    tree_fanout: tree.1,
                    spec,
                }
            },
        )
}

fn opt<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), s).prop_map(|(some, v)| some.then_some(v))
}

fn arb_duration(max_s: u64) -> impl Strategy<Value = Duration> {
    (0..=max_s * 1_000_000_000).prop_map(Duration::from_nanos)
}

/// Every config the spec grammar can express: all keys set, optional ones
/// sometimes. Every field is spelled out, so a new `SimulatorConfig`
/// field does not compile until it has a generator here.
fn arb_spec() -> impl Strategy<Value = SimulatorConfig> {
    let codec =
        (any::<bool>(), 0u8..3, opt(1u16..=1000)).prop_map(|(delta, q, topk_permille)| CodecSpec {
            delta,
            quant: [QuantMode::F32, QuantMode::F16, QuantMode::Int8][q as usize],
            topk_permille,
        });
    let faults = (
        any::<u64>(),
        (0u16..=1000, 0u16..=1000, 0u16..=1000),
        arb_duration(10),
        proptest::collection::btree_map(0usize..64, any::<u32>(), 0..3),
    )
        .prop_map(
            |(seed, (drop, truncate, delay), pause, crash_at)| FaultConfig {
                seed,
                drop_permille: drop,
                truncate_permille: truncate,
                delay_permille: delay,
                delay: pause,
                crash_at,
            },
        );
    let retry = (
        any::<u32>(),
        arb_duration(60),
        arb_duration(4_000_000),
        any::<u32>(),
    )
        .prop_map(
            |(max_attempts, backoff, message_timeout, submit_copies)| RetryPolicy {
                max_attempts,
                backoff,
                message_timeout,
                submit_copies,
            },
        );
    let sag = (
        (any::<u32>(), any::<usize>()),
        arb_duration(4_000_000_000),
        any::<bool>(),
        opt(arb_duration(3600)),
        1e-9f64..=1.0,
    )
        .prop_map(
            |((rounds, min_clients), round_timeout, validate_global, quorum_grace, fraction)| {
                SagConfig {
                    rounds,
                    min_clients,
                    round_timeout,
                    validate_global,
                    quorum_grace,
                    resume_from: None,
                    client_sample_fraction: fraction,
                }
            },
        );
    let tree = opt((1u32..=MAX_TREE_DEPTH, 2usize..100))
        .prop_map(|t| t.map(|(depth, fanout)| TreeConfig { depth, fanout }));
    let dp = opt((1e-6f32..1e6, 1e-6f32..1e3, 1e-12f64..0.999))
        .prop_map(|dp| dp.map(|(clip, sigma, delta)| DpConfig { clip, sigma, delta }));
    let host = (
        opt("[a-z0-9/_.-]{1,24}"),
        any::<bool>(),
        opt(any::<usize>()),
    );
    (
        (1..=MAX_SITES, any::<u64>()),
        sag,
        (codec, tree, faults, retry, dp),
        host,
    )
        .prop_map(
            |((n_clients, seed), sag, (wire, tree, faults, retry, dp), (dir, resume, retain))| {
                SimulatorConfig {
                    n_clients,
                    sag,
                    seed,
                    faults,
                    retry,
                    checkpoint_dir: dir.map(Into::into),
                    resume,
                    retain_checkpoints: retain,
                    wire,
                    tree,
                    dp,
                }
            },
        )
}

fn arb_dxo() -> impl Strategy<Value = Dxo> {
    (
        arb_weights(),
        proptest::collection::btree_map("[a-z_]{1,10}", -1e6f64..1e6, 0..4),
        any::<u64>(),
    )
        .prop_map(|(weights, metrics, n)| Dxo {
            metrics,
            n_examples: n,
            ..Dxo::from_weights(weights, 0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn client_submit_roundtrips(round in any::<u32>(), dxo in arb_dxo()) {
        let msg = ClientMessage::Submit { round, dxo };
        let back = ClientMessage::from_frame(&msg.to_frame()).unwrap();
        prop_assert_eq!(msg, back);
    }

    #[test]
    fn train_task_roundtrips(round in any::<u32>(), total in any::<u32>(), w in arb_weights()) {
        let msg = ServerMessage::Task(TaskAssignment::Train { round, total_rounds: total, weights: w });
        let back = ServerMessage::from_frame(&msg.to_frame()).unwrap();
        prop_assert_eq!(msg, back);
    }

    #[test]
    fn run_checkpoint_roundtrips(ckpt in arb_checkpoint()) {
        let back = RunCheckpoint::from_frame(&ckpt.to_frame()).unwrap();
        prop_assert_eq!(ckpt, back);
    }

    /// `apply` over the lines of `to_text()` rebuilds the config exactly:
    /// the printed form loses nothing the grammar can express.
    #[test]
    fn spec_text_round_trips(spec in arb_spec()) {
        let text = spec.to_text();
        let mut back = SimulatorConfig::default();
        for line in text.lines() {
            let (key, value) = line.split_once(" = ").unwrap();
            back.apply(key, value).unwrap();
        }
        prop_assert_eq!(&back, &spec, "{}", text);
        prop_assert_eq!(back.to_text(), text);
    }

    #[test]
    fn codec_rejects_random_noise(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        // Random bytes must never decode silently into a valid frame unless
        // they genuinely carry the magic; decoding must not panic either way.
        let _ = ClientMessage::from_frame(&bytes);
        let _ = ServerMessage::from_frame(&bytes);
    }

    #[test]
    fn secure_channel_roundtrips_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        key_a in any::<u64>(),
    ) {
        let a = DhKeyPair::from_secret(key_a);
        let b = DhKeyPair::from_secret(key_a ^ 0x1234_5678);
        let key = a.shared_key(b.public);
        let mut tx = SecureChannel::new(key, 0);
        let rx = SecureChannel::new(key, 0);
        let sealed = tx.seal(&payload);
        prop_assert_eq!(rx.open(&sealed).unwrap(), payload);
    }

    #[test]
    fn secure_channel_detects_any_single_flip(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        flip in any::<proptest::sample::Index>(),
    ) {
        let key = DhKeyPair::from_secret(7).shared_key(DhKeyPair::from_secret(9).public);
        let mut tx = SecureChannel::new(key, 0);
        let rx = SecureChannel::new(key, 0);
        let mut sealed = tx.seal(&payload);
        let at = flip.index(sealed.len() - 8) + 8; // skip nonce (tested ok), hit body/mac
        sealed[at] ^= 0x40;
        prop_assert!(rx.open(&sealed).is_err());
    }

    #[test]
    fn tanh_sigmoid_matmul_gradcheck(seed in 0u64..500) {
        let x = Tensor::randn(&[2, 3], 1.0, seed);
        let w = Tensor::randn(&[3, 2], 0.7, seed ^ 0xFF);
        let report = gradcheck(&[x, w], |g, v| {
            let h = g.matmul(v[0], v[1]);
            let t = g.tanh(h);
            let s = g.sigmoid(t);
            g.sum(s)
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn softmax_ce_gradcheck(seed in 0u64..500) {
        let x = Tensor::randn(&[3, 4], 1.0, seed);
        let report = gradcheck(&[x], |g, v| {
            g.cross_entropy(v[0], &[0, 2, 3], -100)
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn layernorm_gelu_gradcheck(seed in 0u64..500) {
        let x = Tensor::randn(&[2, 6], 1.0, seed);
        let report = gradcheck(&[x], |g, v| {
            let n = g.normalize_last(v[0], 1e-5);
            let a = g.gelu(n);
            let sq = g.mul(a, a);
            g.sum(sq)
        });
        prop_assert!(report.passes(5e-2), "{report:?}");
    }

    #[test]
    fn graph_reset_reuse_matches_fresh_across_shapes(
        shapes in proptest::collection::vec((1usize..5, 1usize..6, 2usize..7), 2..6),
        seed in any::<u64>(),
    ) {
        // One graph reset between steps of *varying* shapes must produce
        // exactly the bits a fresh graph produces — recycled buffers must
        // never leak stale contents across steps.
        fn run(g: &mut Graph, b: usize, m: usize, n: usize, seed: u64) -> Vec<u32> {
            let x = g.input(Tensor::randn(&[b, m], 1.0, seed));
            let w = g.input(Tensor::randn(&[m, n], 0.7, seed ^ 0xAB));
            let h = g.matmul(x, w);
            let t = g.tanh(h);
            let d = g.dropout(t, 0.3);
            let nrm = g.normalize_last(d, 1e-5);
            let c = g.input(Tensor::randn(&[b, n], 1.0, seed ^ 0xCD));
            let p = g.mul(nrm, c);
            let loss = g.sum(p);
            g.backward(loss);
            let mut bits = vec![g.value(loss).item().to_bits()];
            bits.extend(g.grad(x).unwrap().data().iter().map(|v| v.to_bits()));
            bits.extend(g.grad(w).unwrap().data().iter().map(|v| v.to_bits()));
            bits
        }
        let mut reused = Graph::new();
        for (i, &(b, m, n)) in shapes.iter().enumerate() {
            let s = seed.wrapping_add(i as u64);
            reused.reset_with_seed(s);
            let got = run(&mut reused, b, m, n, s);
            let mut fresh = Graph::with_seed(s);
            let want = run(&mut fresh, b, m, n, s);
            prop_assert_eq!(got, want, "step {} shape ({}, {}, {})", i, b, m, n);
        }
    }

    #[test]
    fn masker_selects_only_regular_positions(
        n_tokens in 1usize..40,
        p in 0.05f32..0.9,
        seed in any::<u64>(),
    ) {
        let vocab = Vocab::from_tokens((0..50).map(|i| format!("T{i}")));
        let tok = ClinicalTokenizer::new(vocab.clone(), n_tokens + 2);
        let events: Vec<String> = (0..n_tokens).map(|i| format!("T{}", i % 50)).collect();
        let enc = tok.encode(&events);
        let masker = MlmMasker::with_select_prob(p);
        let out = masker.mask(&enc.ids, &vocab, seed);
        prop_assert_eq!(out.input_ids.len(), enc.ids.len());
        for (i, (&orig, &label)) in enc.ids.iter().zip(&out.labels).enumerate() {
            if vocab.is_special(orig) {
                prop_assert_eq!(label, IGNORE_INDEX, "special selected at {}", i);
                prop_assert_eq!(out.input_ids[i], orig, "special mutated at {}", i);
            } else if label != IGNORE_INDEX {
                prop_assert_eq!(label as u32, orig, "label holds original id");
            } else {
                prop_assert_eq!(out.input_ids[i], orig, "unselected token mutated");
            }
        }
        prop_assert!(out.num_targets() >= 1);
    }

    #[test]
    fn partitioner_conserves_examples(
        n in 16usize..200,
        n_sites in 2usize..8,
        seed in any::<u64>(),
    ) {
        let seq_len = 6;
        let examples: Vec<clinfl_data::Example> = (0..n)
            .map(|i| clinfl_data::Example {
                encoded: Encoded {
                    ids: vec![2, 5, 6, 7, 3, 0],
                    attention_mask: vec![1, 1, 1, 1, 1, 0],
                },
                label: (i % 2) as u8,
            })
            .collect();
        let ds = ClassifyDataset::from_examples(examples, seq_len);
        let shards = SitePartitioner::Balanced { n_sites }.partition(&ds, seed);
        prop_assert_eq!(shards.len(), n_sites);
        prop_assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), n);
    }

    #[test]
    fn dirichlet_partitioner_conserves_and_fills(
        n in 16usize..200,
        n_sites in 2usize..8,
        alpha_centi in 5u32..500, // α in [0.05, 5.0): skewed through balanced
        seed in any::<u64>(),
    ) {
        let seq_len = 6;
        let examples: Vec<clinfl_data::Example> = (0..n)
            .map(|i| clinfl_data::Example {
                encoded: Encoded {
                    ids: vec![2, 5, 6, 7, 3, 0],
                    attention_mask: vec![1, 1, 1, 1, 1, 0],
                },
                label: (i % 2) as u8,
            })
            .collect();
        let ds = ClassifyDataset::from_examples(examples, seq_len);
        let alpha = f64::from(alpha_centi) / 100.0;
        let part = SitePartitioner::Dirichlet { n_sites, alpha };
        let shards = part.partition(&ds, seed);
        prop_assert_eq!(shards.len(), n_sites);
        prop_assert_eq!(shards.iter().map(|s| s.len()).sum::<usize>(), n);
        // Largest-remainder allocation guarantees no empty shard when
        // there are at least as many examples as sites.
        prop_assert!(shards.iter().all(|s| !s.is_empty()));
        // Same (alpha, seed) must replay the same split.
        let again = part.partition(&ds, seed);
        for (a, b) in shards.iter().zip(&again) {
            prop_assert_eq!(a.len(), b.len());
        }
    }

    #[test]
    fn dp_gaussian_clips_and_replays_deterministically(
        w in arb_weights(),
        clip in 0.1f32..10.0,
        seed in any::<u64>(),
        round in 0u32..64,
    ) {
        use clinfl_flare::filters::{DpGaussian, Filter};
        // Global = zeros with the update's structure, so the filtered
        // delta is exactly the dxo's weights.
        let mut global = Weights::new();
        for (name, t) in &w {
            global.insert(name.clone(), WeightTensor::new(t.dims.clone(), vec![0.0; t.data.len()]));
        }

        // σ = 0 isolates the clipping step: the output delta's global L2
        // norm can never exceed the clip norm.
        let mut clip_only = DpGaussian { clip_norm: clip, sigma: 0.0, seed };
        let clipped = clip_only.apply(Dxo::from_weights(w.clone(), 1), &global, round);
        let norm: f64 = clipped
            .weights
            .values()
            .flat_map(|t| t.data.iter())
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt();
        prop_assert!(
            norm <= f64::from(clip) * (1.0 + 1e-4),
            "clipped norm {} exceeds clip {}", norm, clip
        );

        // Same (seed, round) must replay bit-identically even with noise.
        let noised = |()| {
            let mut f = DpGaussian { clip_norm: clip, sigma: 1.0, seed };
            f.apply(Dxo::from_weights(w.clone(), 1), &global, round)
        };
        prop_assert_eq!(noised(()).weights, noised(()).weights);
    }

    #[test]
    fn dp_gaussian_noise_matches_sigma(
        sigma_deci in 5u32..30, // σ in [0.5, 3.0)
        seed in any::<u64>(),
    ) {
        use clinfl_flare::filters::{DpGaussian, Filter};
        // A zero update against a zero global: the output is pure noise,
        // whose empirical std must sit near σ · clip (n = 4096 makes the
        // band [σc/2, 2σc] astronomically safe).
        let n = 4096;
        let clip = 2.0f32;
        let sigma = sigma_deci as f32 / 10.0;
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![n], vec![0.0; n]));
        let mut filter = DpGaussian { clip_norm: clip, sigma, seed };
        let out = filter.apply(Dxo::from_weights(w.clone(), 0), &w, 0);
        let data = &out.weights["p"].data;
        let mean: f64 = data.iter().map(|&v| f64::from(v)).sum::<f64>() / n as f64;
        let std = (data
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / n as f64)
            .sqrt();
        let expected = f64::from(sigma) * f64::from(clip);
        prop_assert!(
            std > expected * 0.5 && std < expected * 2.0,
            "noise std {} far from sigma*clip {}", std, expected
        );
    }

    #[test]
    fn dp_accountant_grows_monotonically_and_sampling_never_hurts(
        sigma_deci in 5u32..80, // σ in [0.5, 8.0)
        q_centi in 5u32..70,    // q in [0.05, 0.70): the 2q² ≤ 1 regime
        steps in 1u32..100,
    ) {
        use clinfl_flare::privacy::DpAccountant;
        let sigma = f64::from(sigma_deci) / 10.0;
        let q = f64::from(q_centi) / 100.0;
        let mut full = DpAccountant::new(sigma, 1.0, 1e-5);
        let mut sub = DpAccountant::new(sigma, q, 1e-5);
        let mut last = 0.0;
        for _ in 0..steps {
            full.step();
            sub.step();
            let eps = full.epsilon();
            prop_assert!(eps > last, "epsilon must strictly grow");
            last = eps;
        }
        prop_assert!(full.epsilon().is_finite());
        // Subsampling (q² amplification, valid while 2q² <= 1) can only
        // shrink the budget relative to full participation.
        prop_assert!(sub.epsilon() <= full.epsilon() + 1e-12);
    }
}
