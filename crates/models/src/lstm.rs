//! The recursive model: a stacked LSTM sequence classifier.

use crate::config::LstmConfig;
use crate::model::{ParamBuilder, SequenceClassifier, TokenBatch, OBS_TOKENS};
use clinfl_tensor::{Graph, Init, ParamId, Params, Var};

/// Per-layer LSTM parameter handles (separate matrices per gate, packed
/// side by side into `[H, 4H]` inside the graph).
#[derive(Clone, Debug)]
struct LstmLayerParams {
    /// Input weights per gate `[in_dim, hidden]`, order i, f, g, o.
    w_x: [ParamId; 4],
    /// Recurrent weights per gate `[hidden, hidden]`.
    w_h: [ParamId; 4],
    /// Biases per gate `[hidden]`.
    b: [ParamId; 4],
}

/// The paper's LSTM-based diagnosis classifier (Table II: hidden 128,
/// 3 layers): embedding → stacked LSTM → final hidden state → linear head.
///
/// Only real tokens are computed: the encoder packs them time-major, each
/// step's recurrence covers the sequences real at that step, and a
/// padded step leaves a sequence's hidden and cell state as they were. So
/// the "final" state is the state at each sequence's last real token —
/// the recurrent-model equivalent of `[CLS]` pooling — and all zeros for
/// a sequence with none.
#[derive(Clone, Debug)]
pub struct LstmClassifier {
    config: LstmConfig,
    params: Params,
    embedding: ParamId,
    layers: Vec<LstmLayerParams>,
    head_w: ParamId,
    head_b: ParamId,
}

const GATE_NAMES: [&str; 4] = ["i", "f", "g", "o"];

impl LstmClassifier {
    /// Builds the classifier with its seeded initialization, deterministic
    /// in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`LstmConfig::validate`]).
    pub fn new(config: &LstmConfig, seed: u64) -> Self {
        Self::build(config, Some(seed))
    }

    /// The classifier of [`Self::new`] without drawing its init: the same
    /// parameter names and shapes, every value zero. For a model whose
    /// weights are loaded before anything reads them.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`LstmConfig::validate`]).
    pub fn zeroed(config: &LstmConfig) -> Self {
        Self::build(config, None)
    }

    fn build(config: &LstmConfig, seed: Option<u64>) -> Self {
        config.validate();
        let mut params = ParamBuilder::new(seed);
        let h = config.hidden;
        // Unlike BERT (whose LayerNorm rescales tiny embeddings), the LSTM
        // consumes embeddings raw: N(0, 0.02) would leave the gates pinned
        // near their bias values and stall learning, so use a conventional
        // recurrent-model scale.
        let embedding =
            params.register("lstm.embedding", Init::Normal(0.2), &[config.vocab_size, h]);
        let mut layers = Vec::with_capacity(config.layers);
        for l in 0..config.layers {
            let mut gates = |kind: &str, init: fn(&str) -> Init, dims: &[usize]| {
                GATE_NAMES
                    .map(|gd| params.register(format!("lstm.l{l}.{kind}_{gd}"), init(gd), dims))
            };
            let w_x = gates("wx", |_| Init::XavierUniform, &[h, h]);
            let w_h = gates("wh", |_| Init::XavierUniform, &[h, h]);
            // Forget-gate bias starts at 1.0 (standard LSTM practice) so
            // early training does not forget everything.
            let b = gates(
                "b",
                |gd| if gd == "f" { Init::Ones } else { Init::Zeros },
                &[h],
            );
            layers.push(LstmLayerParams { w_x, w_h, b });
        }
        let head_w = params.register("lstm.head.w", Init::XavierUniform, &[h, config.num_classes]);
        let head_b = params.register("lstm.head.b", Init::Zeros, &[config.num_classes]);
        LstmClassifier {
            config: *config,
            params: params.finish(),
            embedding,
            layers,
            head_w,
            head_b,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LstmConfig {
        &self.config
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params.num_elements()
    }

    /// Builds the encoder forward pass, returning the final hidden state of
    /// the top layer, shape `[batch, hidden]`.
    ///
    /// Only real tokens get rows, packed time-major: step `t`'s rows are
    /// the sequences real at `t`, in batch order, so row `r` sits at
    /// `at[r] = t·B + b` of the padded layout. Each layer is two tape nodes:
    /// one GEMM projecting every row onto the four gates at once, and one
    /// [`Graph::lstm_layer`] running the recurrence over the packed steps.
    /// One gather then takes each sequence's last row, a zero row for a
    /// sequence with no real token.
    fn encode(&self, g: &mut Graph, batch: &TokenBatch<'_>) -> Var {
        batch.validate();
        let (b, s) = (batch.batch_size, batch.seq_len);
        let (mut at, mut ids) = (Vec::new(), Vec::new());
        let mut last = vec![Graph::ZERO_ROW; b];
        for t in 0..s {
            for (bi, row) in last.iter_mut().enumerate() {
                if batch.mask[bi * s + t] != 0 {
                    *row = at.len() as u32;
                    at.push((t * b + bi) as u32);
                    ids.push(batch.ids[bi * s + t]);
                }
            }
        }
        clinfl_obs::add_counter(OBS_TOKENS, at.len() as u64);
        let table = g.param(&self.params, self.embedding);
        let mut x = g.embedding(table, &ids);
        for (li, layer) in self.layers.iter().enumerate() {
            let wx = self.packed(g, &layer.w_x);
            let wh = self.packed(g, &layer.w_h);
            let bias = self.packed(g, &layer.b);
            let xz = g.matmul(x, wx);
            x = g.lstm_layer(xz, wh, bias, &at, b);
            // Inter-layer dropout (not after the top layer; the head has
            // its own dropout), drawn as over the padded layout.
            if li + 1 < self.layers.len() {
                x = g.dropout_rows(x, self.config.dropout, &at);
            }
        }
        g.embedding(x, &last)
    }

    /// The four per-gate tensors `ids` (order i, f, g, o) as one tensor
    /// with the gates side by side along the last dimension.
    fn packed(&self, g: &mut Graph, ids: &[ParamId; 4]) -> Var {
        let [i, f, gg, o] = ids.map(|id| g.param(&self.params, id));
        let lo = g.concat_last(i, f);
        let hi = g.concat_last(gg, o);
        g.concat_last(lo, hi)
    }

    fn logits(&self, g: &mut Graph, batch: &TokenBatch<'_>) -> Var {
        let enc = self.encode(g, batch);
        let enc = g.dropout(enc, self.config.dropout);
        let w = g.param(&self.params, self.head_w);
        let bias = g.param(&self.params, self.head_b);
        let proj = g.matmul(enc, w);
        g.add(proj, bias)
    }
}

impl SequenceClassifier for LstmClassifier {
    fn params(&self) -> &Params {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn classification_loss(&self, g: &mut Graph, batch: &TokenBatch<'_>, labels: &[i32]) -> Var {
        assert_eq!(labels.len(), batch.batch_size, "one label per sequence");
        let logits = self.logits(g, batch);
        g.cross_entropy(logits, labels, clinfl_text::IGNORE_INDEX)
    }

    fn predict_with(&self, g: &mut Graph, batch: &TokenBatch<'_>) -> Vec<usize> {
        g.reset();
        g.set_training(false);
        let logits = self.logits(g, batch);
        g.value(logits).argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinfl_tensor::{Adam, Optimizer, Tensor};

    fn tiny_config() -> LstmConfig {
        LstmConfig {
            vocab_size: 20,
            hidden: 8,
            layers: 2,
            dropout: 0.0,
            num_classes: 2,
        }
    }

    fn batch_data(b: usize, s: usize) -> (Vec<u32>, Vec<u8>) {
        let ids: Vec<u32> = (0..b * s).map(|i| 5 + (i as u32 % 10)).collect();
        let mask = vec![1u8; b * s];
        (ids, mask)
    }

    #[test]
    fn deterministic_construction() {
        let a = LstmClassifier::new(&tiny_config(), 7);
        let b = LstmClassifier::new(&tiny_config(), 7);
        assert_eq!(a.params().to_named(), b.params().to_named());
        let c = LstmClassifier::new(&tiny_config(), 8);
        assert_ne!(a.params().to_named(), c.params().to_named());
    }

    #[test]
    fn zeroed_has_the_seeded_names_and_shapes_at_zero() {
        let shapes = |m: &LstmClassifier| -> Vec<(String, Vec<usize>)> {
            let params = m.params().iter();
            params
                .map(|(_, n, t)| (n.to_string(), t.dims().to_vec()))
                .collect()
        };
        let zeroed = LstmClassifier::zeroed(&tiny_config());
        assert_eq!(
            shapes(&zeroed),
            shapes(&LstmClassifier::new(&tiny_config(), 7))
        );
        let mut values = zeroed.params().iter().flat_map(|(_, _, t)| t.data());
        assert!(values.all(|&v| v == 0.0));
    }

    #[test]
    fn paper_param_count() {
        // Table II LSTM: hidden 128, 3 layers, over a 443-token vocab.
        let cfg = LstmConfig::with_vocab(443);
        let m = LstmClassifier::new(&cfg, 1);
        let h = 128usize;
        let expected = 443 * h                     // embedding
            + 3 * (4 * h * h + 4 * h * h + 4 * h)  // 3 layers of gates
            + h * 2 + 2; // head
        assert_eq!(m.num_parameters(), expected);
    }

    #[test]
    fn predict_shape_and_range() {
        let m = LstmClassifier::new(&tiny_config(), 3);
        let (ids, mask) = batch_data(4, 6);
        let preds = m.predict(&TokenBatch {
            ids: &ids,
            mask: &mask,
            batch_size: 4,
            seq_len: 6,
        });
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|&p| p < 2));
    }

    #[test]
    fn padding_does_not_change_prediction() {
        // Appending padded timesteps must not alter the final state.
        let m = LstmClassifier::new(&tiny_config(), 3);
        let ids_short: Vec<u32> = vec![5, 6, 7, 8];
        let mask_short = vec![1u8; 4];
        let mut g1 = Graph::new();
        g1.set_training(false);
        let h1 = m.encode(
            &mut g1,
            &TokenBatch {
                ids: &ids_short,
                mask: &mask_short,
                batch_size: 1,
                seq_len: 4,
            },
        );
        let ids_padded: Vec<u32> = vec![5, 6, 7, 8, 0, 0];
        let mask_padded = vec![1, 1, 1, 1, 0, 0];
        let mut g2 = Graph::new();
        g2.set_training(false);
        let h2 = m.encode(
            &mut g2,
            &TokenBatch {
                ids: &ids_padded,
                mask: &mask_padded,
                batch_size: 1,
                seq_len: 6,
            },
        );
        let a = g1.value(h1).data();
        let b = g2.value(h2).data();
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn loss_decreases_with_training() {
        // Order-sensitive toy task: label = 1 iff token 5 appears before
        // token 6.
        let m_cfg = tiny_config();
        let mut model = LstmClassifier::new(&m_cfg, 5);
        let seqs: Vec<(Vec<u32>, i32)> = vec![
            (vec![5, 6, 7, 7], 1),
            (vec![6, 5, 7, 7], 0),
            (vec![7, 5, 6, 7], 1),
            (vec![7, 6, 7, 5], 0),
            (vec![5, 7, 6, 7], 1),
            (vec![6, 7, 5, 7], 0),
        ];
        let ids: Vec<u32> = seqs.iter().flat_map(|(s, _)| s.clone()).collect();
        let mask = vec![1u8; ids.len()];
        let labels: Vec<i32> = seqs.iter().map(|(_, l)| *l).collect();
        let batch = TokenBatch {
            ids: &ids,
            mask: &mask,
            batch_size: 6,
            seq_len: 4,
        };
        let mut opt = Adam::with_lr(0.02);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut g = Graph::new();
            let loss = model.classification_loss(&mut g, &batch, &labels);
            last = g.value(loss).item();
            first.get_or_insert(last);
            g.backward(loss);
            g.grads_into(model.params_mut());
            opt.step(model.params_mut());
        }
        let first = first.unwrap();
        assert!(
            last < first * 0.5,
            "loss did not decrease: {first} -> {last}"
        );
        // And the model now classifies the training set correctly.
        assert_eq!(model.predict(&batch), vec![1, 0, 1, 0, 1, 0]);
    }

    /// The per-gate, per-timestep tape the fused layer replaced: 8
    /// `matmul`s and the gate, cell and carry arithmetic as separate nodes
    /// for every step of every layer. Kept as the reference the fused
    /// layer must match.
    fn reference_logits(m: &LstmClassifier, g: &mut Graph, batch: &TokenBatch<'_>) -> Var {
        let (b, s, h) = (batch.batch_size, batch.seq_len, m.config.hidden);
        let table = g.param(&m.params, m.embedding);
        let mut xs = Vec::with_capacity(s);
        let mut masks = Vec::with_capacity(s);
        for t in 0..s {
            let ids_t: Vec<u32> = (0..b).map(|bi| batch.ids[bi * s + t]).collect();
            xs.push(g.embedding(table, &ids_t));
            let flags = |want_real: bool| {
                let mut d = vec![0.0; b * h];
                for bi in 0..b {
                    if (batch.mask[bi * s + t] != 0) == want_real {
                        d[bi * h..(bi + 1) * h].fill(1.0);
                    }
                }
                Tensor::from_vec(&[b, h], d).unwrap()
            };
            masks.push((g.input(flags(true)), g.input(flags(false))));
        }
        let mut h_prev = None;
        for (li, layer) in m.layers.iter().enumerate() {
            let wx = layer.w_x.map(|id| g.param(&m.params, id));
            let wh = layer.w_h.map(|id| g.param(&m.params, id));
            let bias = layer.b.map(|id| g.param(&m.params, id));
            let mut hp = g.input(Tensor::zeros(&[b, h]));
            let mut cp = g.input(Tensor::zeros(&[b, h]));
            let mut outs = Vec::with_capacity(s);
            for (t, &x) in xs.iter().enumerate() {
                let mut z = [0, 1, 2, 3].map(|k| {
                    let xz = g.matmul(x, wx[k]);
                    let hz = g.matmul(hp, wh[k]);
                    let sum = g.add(xz, hz);
                    g.add(sum, bias[k])
                });
                z = [
                    g.sigmoid(z[0]),
                    g.sigmoid(z[1]),
                    g.tanh(z[2]),
                    g.sigmoid(z[3]),
                ];
                let fc = g.mul(z[1], cp);
                let ig = g.mul(z[0], z[2]);
                let c_new = g.add(fc, ig);
                let tc = g.tanh(c_new);
                let h_new = g.mul(z[3], tc);
                let (keep, hold) = masks[t];
                let carry = |g: &mut Graph, new: Var, old: Var| {
                    let a = g.mul(new, keep);
                    let o = g.mul(old, hold);
                    g.add(a, o)
                };
                hp = carry(g, h_new, hp);
                cp = carry(g, c_new, cp);
                outs.push(hp);
            }
            if li + 1 < m.layers.len() {
                xs = outs
                    .iter()
                    .map(|&o| g.dropout(o, m.config.dropout))
                    .collect();
            }
            h_prev = Some(hp);
        }
        let enc = g.dropout(h_prev.unwrap(), m.config.dropout);
        let w = g.param(&m.params, m.head_w);
        let bias = g.param(&m.params, m.head_b);
        let proj = g.matmul(enc, w);
        g.add(proj, bias)
    }

    /// Three sequences of 7: one with padding mid-sequence and at the end,
    /// one unpadded, one fully padded.
    fn padded_batch() -> (Vec<u32>, Vec<u8>) {
        let ids: Vec<u32> = (0..21).map(|i| 1 + (i * 7 % 19) as u32).collect();
        let mask = [[1, 1, 0, 1, 1, 0, 0], [1; 7], [0; 7]].concat();
        (ids, mask)
    }

    fn wide_config() -> LstmConfig {
        LstmConfig {
            vocab_size: 20,
            hidden: 16,
            layers: 3,
            dropout: 0.0,
            num_classes: 3,
        }
    }

    #[test]
    fn eval_logits_are_bit_identical_to_per_gate_reference() {
        let m = LstmClassifier::new(&wide_config(), 11);
        let (ids, mask) = padded_batch();
        let batch = TokenBatch {
            ids: &ids,
            mask: &mask,
            batch_size: 3,
            seq_len: 7,
        };
        let bits = |g: &Graph, v: Var| -> Vec<u32> {
            g.value(v).data().iter().map(|x| x.to_bits()).collect()
        };
        let mut fused = Graph::new();
        fused.set_training(false);
        let got = m.logits(&mut fused, &batch);
        let mut reference = Graph::new();
        reference.set_training(false);
        let want = reference_logits(&m, &mut reference, &batch);
        assert_eq!(bits(&fused, got), bits(&reference, want));
    }

    #[test]
    fn training_gradients_match_per_gate_reference() {
        let m = LstmClassifier::new(&wide_config(), 12);
        let (ids, mask) = padded_batch();
        let batch = TokenBatch {
            ids: &ids,
            mask: &mask,
            batch_size: 3,
            seq_len: 7,
        };
        let labels = [2, 0, 1];
        let grads = |build: &dyn Fn(&mut Graph) -> Var| {
            let mut params = m.params().clone();
            let mut g = Graph::new();
            let logits = build(&mut g);
            let loss = g.cross_entropy(logits, &labels, clinfl_text::IGNORE_INDEX);
            g.backward(loss);
            g.grads_into(&mut params);
            params
        };
        let fused = grads(&|g| m.logits(g, &batch));
        let reference = grads(&|g| reference_logits(&m, g, &batch));
        let mut checked = 0;
        for (id, name, _) in reference.iter() {
            let (a, b) = (fused.grad(id).data(), reference.grad(id).data());
            let scale = b.iter().fold(0.0f32, |s, v| s.max(v.abs()));
            assert!(scale > 0.0, "{name} got no gradient");
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x - y).abs() <= 1e-5 * scale,
                    "{name}: {x} vs {y} (scale {scale})"
                );
            }
            checked += 1;
        }
        assert_eq!(checked, 1 + 3 * 12 + 2);
    }

    #[test]
    fn one_training_step_records_a_fixed_tape() {
        // Embedding leaf + gather (2); per layer 12 gate leaves, 9 packing
        // concats, the projection GEMM and the layer op (23 × 2); one
        // inter-layer dropout; the gather of each last state (1); head
        // dropout, 2 leaves, GEMM, bias add (5); the loss (1).
        let cfg = LstmConfig {
            dropout: 0.1,
            ..tiny_config()
        };
        let m = LstmClassifier::new(&cfg, 4);
        let (ids, mask) = batch_data(2, 5);
        let mut g = Graph::new();
        let loss = m.classification_loss(
            &mut g,
            &TokenBatch {
                ids: &ids,
                mask: &mask,
                batch_size: 2,
                seq_len: 5,
            },
            &[0, 1],
        );
        g.backward(loss);
        assert_eq!(g.len(), 56);
    }

    #[test]
    #[should_panic(expected = "one label per sequence")]
    fn wrong_label_count_panics() {
        let m = LstmClassifier::new(&tiny_config(), 3);
        let (ids, mask) = batch_data(2, 4);
        let mut g = Graph::new();
        m.classification_loss(
            &mut g,
            &TokenBatch {
                ids: &ids,
                mask: &mask,
                batch_size: 2,
                seq_len: 4,
            },
            &[0],
        );
    }
}
