//! The attentive model: a BERT-style transformer encoder with MLM and
//! classification heads.

use crate::config::BertConfig;
use crate::model::{ParamBuilder, SequenceClassifier, TokenBatch, OBS_TOKENS};
use clinfl_obs::KernelTimer;
use clinfl_tensor::{Graph, Init, ParamId, Params, Var};

/// Wall time and invocation count of the whole multi-head self-attention
/// sublayer (the graph runs define-by-run, so this covers the forward
/// compute of its layer norm, the packed Q/K/V projection, the attention
/// node, the output projection, its dropout and the residual add).
static OBS_ATTENTION: KernelTimer = KernelTimer::new("model.attention");

#[derive(Clone, Debug)]
struct BlockParams {
    ln1_g: ParamId,
    ln1_b: ParamId,
    wq: ParamId,
    bq: ParamId,
    wk: ParamId,
    bk: ParamId,
    wv: ParamId,
    bv: ParamId,
    wo: ParamId,
    bo: ParamId,
    ln2_g: ParamId,
    ln2_b: ParamId,
    w_ff1: ParamId,
    b_ff1: ParamId,
    w_ff2: ParamId,
    b_ff2: ParamId,
}

/// BERT encoder with both of the paper's heads.
///
/// Architecture (pre-LN variant, chosen for optimization stability at the
/// paper's large learning rate — see DESIGN.md):
///
/// ```text
/// token-emb + position-emb → LN → dropout
/// × layers: x += MHA(LN(x));  x += FFN(LN(x))
/// final LN
/// heads: [CLS] → linear (classification)   |   dense+GELU → decoder (MLM)
/// ```
///
/// When `hidden` is not divisible by `heads` (the paper's BERT: 128 / 6),
/// each head uses `ceil(hidden/heads)` dimensions and the attention output
/// is projected back from `heads * head_dim` to `hidden`.
///
/// The encoder computes only each sequence's real tokens (and the
/// `[CLS]` row of one with none), which must come first: every row of a
/// batch's mask is a prefix of ones, as the tokenizer pads at the end. A
/// mask with a hole panics.
#[derive(Clone, Debug)]
pub struct BertModel {
    config: BertConfig,
    params: Params,
    tok_emb: ParamId,
    pos_emb: ParamId,
    emb_ln_g: ParamId,
    emb_ln_b: ParamId,
    blocks: Vec<BlockParams>,
    final_ln_g: ParamId,
    final_ln_b: ParamId,
    cls_w: ParamId,
    cls_b: ParamId,
    mlm_dense_w: ParamId,
    mlm_dense_b: ParamId,
    mlm_ln_g: ParamId,
    mlm_ln_b: ParamId,
    mlm_dec_b: ParamId,
}

impl BertModel {
    /// Builds the model with its seeded initialization, deterministic in
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`BertConfig::validate`]).
    pub fn new(config: &BertConfig, seed: u64) -> Self {
        Self::build(config, Some(seed))
    }

    /// The model of [`Self::new`] without drawing its init: the same
    /// parameter names and shapes, every value zero. For a model whose
    /// weights are loaded before anything reads them.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`BertConfig::validate`]).
    pub fn zeroed(config: &BertConfig) -> Self {
        Self::build(config, None)
    }

    fn build(config: &BertConfig, seed: Option<u64>) -> Self {
        config.validate();
        let mut params = ParamBuilder::new(seed);
        let h = config.hidden;
        let inner = config.attn_inner();
        let (norm, ones, zeros) = (Init::Normal(0.02), Init::Ones, Init::Zeros);
        let tok_emb = params.register("bert.embeddings.token", norm, &[config.vocab_size, h]);
        let pos_emb = params.register("bert.embeddings.position", norm, &[config.max_seq_len, h]);
        let emb_ln_g = params.register("bert.embeddings.ln.gain", ones, &[h]);
        let emb_ln_b = params.register("bert.embeddings.ln.bias", zeros, &[h]);
        let mut blocks = Vec::with_capacity(config.layers);
        for l in 0..config.layers {
            let mut p = |name: &str, init: Init, dims: &[usize]| {
                params.register(format!("bert.layer{l}.{name}"), init, dims)
            };
            blocks.push(BlockParams {
                ln1_g: p("ln1.gain", ones, &[h]),
                ln1_b: p("ln1.bias", zeros, &[h]),
                wq: p("attn.wq", norm, &[h, inner]),
                bq: p("attn.bq", zeros, &[inner]),
                wk: p("attn.wk", norm, &[h, inner]),
                bk: p("attn.bk", zeros, &[inner]),
                wv: p("attn.wv", norm, &[h, inner]),
                bv: p("attn.bv", zeros, &[inner]),
                wo: p("attn.wo", norm, &[inner, h]),
                bo: p("attn.bo", zeros, &[h]),
                ln2_g: p("ln2.gain", ones, &[h]),
                ln2_b: p("ln2.bias", zeros, &[h]),
                w_ff1: p("ffn.w1", norm, &[h, config.ffn]),
                b_ff1: p("ffn.b1", zeros, &[config.ffn]),
                w_ff2: p("ffn.w2", norm, &[config.ffn, h]),
                b_ff2: p("ffn.b2", zeros, &[h]),
            });
        }
        let final_ln_g = params.register("bert.final_ln.gain", ones, &[h]);
        let final_ln_b = params.register("bert.final_ln.bias", zeros, &[h]);
        let cls_w = params.register(
            "bert.cls_head.w",
            Init::XavierUniform,
            &[h, config.num_classes],
        );
        let cls_b = params.register("bert.cls_head.b", zeros, &[config.num_classes]);
        let mlm_dense_w = params.register("bert.mlm_head.dense.w", norm, &[h, h]);
        let mlm_dense_b = params.register("bert.mlm_head.dense.b", zeros, &[h]);
        let mlm_ln_g = params.register("bert.mlm_head.ln.gain", ones, &[h]);
        let mlm_ln_b = params.register("bert.mlm_head.ln.bias", zeros, &[h]);
        // The MLM decoder weight is tied to the token-embedding table (as
        // in BERT); only its bias is a separate parameter.
        let mlm_dec_b = params.register("bert.mlm_head.decoder.b", zeros, &[config.vocab_size]);
        let params = params.finish();
        BertModel {
            config: *config,
            params,
            tok_emb,
            pos_emb,
            emb_ln_g,
            emb_ln_b,
            blocks,
            final_ln_g,
            final_ln_b,
            cls_w,
            cls_b,
            mlm_dense_w,
            mlm_dense_b,
            mlm_ln_g,
            mlm_ln_b,
            mlm_dec_b,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BertConfig {
        &self.config
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params.num_elements()
    }

    /// Number of parameters in the encoder backbone (without either head),
    /// the set exchanged during MLM pretraining-then-finetune transfer.
    pub fn num_backbone_parameters(&self) -> usize {
        self.params
            .iter()
            .filter(|(_, name, _)| !name.contains("cls_head") && !name.contains("mlm_head"))
            .map(|(_, _, t)| t.numel())
            .sum()
    }

    fn layer_norm(&self, g: &mut Graph, x: Var, gain: ParamId, bias: ParamId) -> Var {
        let n = g.normalize_last(x, 1e-5);
        let gain = g.param(&self.params, gain);
        let bias = g.param(&self.params, bias);
        let scaled = g.mul(n, gain);
        g.add(scaled, bias)
    }

    /// Packs three parameters side by side along their last dimension, as
    /// the LSTM packs its gates: Q|K|V projection weights or biases.
    fn packed(&self, g: &mut Graph, ids: [ParamId; 3]) -> Var {
        let [q, k, v] = ids.map(|id| g.param(&self.params, id));
        let qk = g.concat_last(q, k);
        g.concat_last(qk, v)
    }

    /// Builds the encoder forward pass over the batch's real rows, returning
    /// their hidden states `[R, hidden]` and where each sequence's rows are.
    ///
    /// Rows are packed batch-major: sequence `b` keeps its first
    /// `max(len_b, 1)` positions, so one with no real token still has its
    /// `[CLS]` row. Every op but attention is position-wise, and attention
    /// reads only real keys, so each row gets the bits it had with every
    /// padded position computed; each dropout draws its mask as over the
    /// padded layout.
    ///
    /// # Panics
    ///
    /// Panics if the batch is malformed, longer than `max_seq_len`, or a
    /// row's mask is not a prefix of ones (the tokenizer pads at the end).
    fn encode(&self, g: &mut Graph, batch: &TokenBatch<'_>) -> (Var, PackedRows) {
        batch.validate();
        let (b, s) = (batch.batch_size, batch.seq_len);
        assert!(
            s <= self.config.max_seq_len,
            "sequence length {s} exceeds max_seq_len {}",
            self.config.max_seq_len
        );
        let lens: Vec<usize> = batch
            .mask
            .chunks(s.max(1))
            .enumerate()
            .map(|(row, m)| {
                let len = m.iter().take_while(|&&v| v != 0).count();
                assert!(
                    m[len..].iter().all(|&v| v == 0),
                    "attention mask row {row} is not a prefix of ones: {m:?}"
                );
                len
            })
            .collect();
        // Each row's position `b·S + i` in the padded layout.
        let mut at = Vec::new();
        let mut starts = Vec::with_capacity(b + 1);
        starts.push(0);
        for (bi, &len) in lens.iter().enumerate() {
            at.extend((0..len.max(1)).map(|i| (bi * s + i) as u32));
            starts.push(at.len());
        }
        clinfl_obs::add_counter(OBS_TOKENS, at.len() as u64);
        let p = self.config.dropout;

        let ids: Vec<u32> = at.iter().map(|&pos| batch.ids[pos as usize]).collect();
        let tok_table = g.param(&self.params, self.tok_emb);
        let tok = g.embedding(tok_table, &ids);
        let pos_ids: Vec<u32> = at.iter().map(|&pos| pos % s as u32).collect();
        let pos_table = g.param(&self.params, self.pos_emb);
        let pos = g.embedding(pos_table, &pos_ids);
        let x = g.add(tok, pos);
        let x = self.layer_norm(g, x, self.emb_ln_g, self.emb_ln_b);
        let mut x = g.dropout_rows(x, p, &at);

        for blk in &self.blocks {
            // --- Multi-head self-attention sublayer (pre-LN) ---
            let obs_attn = OBS_ATTENTION.start();
            let hn = self.layer_norm(g, x, blk.ln1_g, blk.ln1_b);
            let w_qkv = self.packed(g, [blk.wq, blk.wk, blk.wv]);
            let b_qkv = self.packed(g, [blk.bq, blk.bk, blk.bv]);
            let qkv = g.matmul(hn, w_qkv);
            let qkv = g.add(qkv, b_qkv); // [R, 3·inner]
            let ctx = g.attention(qkv, &starts, &lens, self.config.heads, p);
            let wo = g.param(&self.params, blk.wo);
            let bo = g.param(&self.params, blk.bo);
            let out = g.matmul(ctx, wo);
            let out = g.add(out, bo);
            let out = g.dropout_rows(out, p, &at);
            x = g.add(x, out);
            drop(obs_attn);

            // --- Feed-forward sublayer (pre-LN) ---
            let hn2 = self.layer_norm(g, x, blk.ln2_g, blk.ln2_b);
            let w1 = g.param(&self.params, blk.w_ff1);
            let b1 = g.param(&self.params, blk.b_ff1);
            let f = g.matmul(hn2, w1);
            let f = g.add(f, b1);
            let f = g.gelu(f);
            let w2 = g.param(&self.params, blk.w_ff2);
            let b2 = g.param(&self.params, blk.b_ff2);
            let f = g.matmul(f, w2);
            let f = g.add(f, b2);
            let f = g.dropout_rows(f, p, &at);
            x = g.add(x, f);
        }
        let enc = self.layer_norm(g, x, self.final_ln_g, self.final_ln_b);
        (enc, PackedRows { starts, lens })
    }

    fn cls_logits(&self, g: &mut Graph, batch: &TokenBatch<'_>) -> Var {
        let (enc, rows) = self.encode(g, batch);
        let cls_rows: Vec<u32> = rows.starts[..batch.batch_size]
            .iter()
            .map(|&r| r as u32)
            .collect();
        let cls = g.embedding(enc, &cls_rows);
        let cls = g.dropout(cls, self.config.dropout);
        let w = g.param(&self.params, self.cls_w);
        let bias = g.param(&self.params, self.cls_b);
        let logits = g.matmul(cls, w);
        g.add(logits, bias)
    }

    /// Masked-language-model loss (the paper's pretraining objective).
    ///
    /// `mlm_labels` has one entry per token position (`batch * seq_len`),
    /// holding the original token id at corrupted positions and
    /// [`clinfl_text::IGNORE_INDEX`] elsewhere — exactly the output of
    /// [`clinfl_text::MlmMasker::mask`], which labels real tokens only.
    /// The head runs on the labelled positions only, gathered from the
    /// encoder output; with none the loss is 0.
    ///
    /// # Panics
    ///
    /// Panics if `mlm_labels.len() != batch_size * seq_len`, if a mask
    /// row is not a prefix of ones, or if a padded position is labelled
    /// (the encoder computes no row there).
    pub fn mlm_loss(&self, g: &mut Graph, batch: &TokenBatch<'_>, mlm_labels: &[i32]) -> Var {
        assert_eq!(
            mlm_labels.len(),
            batch.batch_size * batch.seq_len,
            "one MLM label per token position"
        );
        let (enc, packed) = self.encode(g, batch);
        let s = batch.seq_len;
        let (rows, targets): (Vec<u32>, Vec<i32>) = mlm_labels
            .iter()
            .enumerate()
            .filter(|&(_, &label)| label != clinfl_text::IGNORE_INDEX)
            .map(|(pos, &label)| {
                let (seq, i) = (pos / s, pos % s);
                let len = packed.lens[seq];
                assert!(
                    i < len,
                    "MLM label at padded position {i} of sequence {seq}, which has {len} \
                     real tokens: only real positions may be labelled"
                );
                ((packed.starts[seq] + i) as u32, label)
            })
            .unzip();
        let labelled = g.embedding(enc, &rows);
        let dw = g.param(&self.params, self.mlm_dense_w);
        let db = g.param(&self.params, self.mlm_dense_b);
        let d = g.matmul(labelled, dw);
        let d = g.add(d, db);
        let d = g.gelu(d);
        let d = self.layer_norm(g, d, self.mlm_ln_g, self.mlm_ln_b);
        // Tied decoder: project back through the transposed token-embedding
        // table, so MLM gradients also shape the embeddings directly. The
        // packed a·bᵀ kernel reads the `[V, H]` table in place — no `[H, V]`
        // transposed copy, and the gradient lands in the table's layout.
        let table = g.param(&self.params, self.tok_emb);
        let dec_b = g.param(&self.params, self.mlm_dec_b);
        let logits = g.matmul_bt(d, table);
        let logits = g.add(logits, dec_b);
        g.cross_entropy(logits, &targets, clinfl_text::IGNORE_INDEX)
    }
}

/// Where [`BertModel::encode`] put each sequence: rows
/// `starts[b]..starts[b+1]` of its output, the first `lens[b]` real.
struct PackedRows {
    starts: Vec<usize>,
    lens: Vec<usize>,
}

impl SequenceClassifier for BertModel {
    fn params(&self) -> &Params {
        &self.params
    }

    fn params_mut(&mut self) -> &mut Params {
        &mut self.params
    }

    fn classification_loss(&self, g: &mut Graph, batch: &TokenBatch<'_>, labels: &[i32]) -> Var {
        assert_eq!(labels.len(), batch.batch_size, "one label per sequence");
        let logits = self.cls_logits(g, batch);
        g.cross_entropy(logits, labels, clinfl_text::IGNORE_INDEX)
    }

    fn predict_with(&self, g: &mut Graph, batch: &TokenBatch<'_>) -> Vec<usize> {
        g.reset();
        g.set_training(false);
        let logits = self.cls_logits(g, batch);
        g.value(logits).argmax_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clinfl_tensor::{Adam, Optimizer};
    use clinfl_text::IGNORE_INDEX;

    fn tiny_config() -> BertConfig {
        BertConfig {
            vocab_size: 30,
            hidden: 12,
            heads: 3,
            layers: 2,
            ffn: 24,
            max_seq_len: 8,
            dropout: 0.0,
            num_classes: 2,
        }
    }

    fn batch_data(b: usize, s: usize) -> (Vec<u32>, Vec<u8>) {
        let ids: Vec<u32> = (0..b * s).map(|i| 5 + (i as u32 % 20)).collect();
        let mask = vec![1u8; b * s];
        (ids, mask)
    }

    #[test]
    fn deterministic_construction() {
        let a = BertModel::new(&tiny_config(), 2);
        let b = BertModel::new(&tiny_config(), 2);
        assert_eq!(a.params().to_named(), b.params().to_named());
    }

    #[test]
    fn zeroed_has_the_seeded_names_and_shapes_at_zero() {
        let shapes = |m: &BertModel| -> Vec<(String, Vec<usize>)> {
            let params = m.params().iter();
            params
                .map(|(_, n, t)| (n.to_string(), t.dims().to_vec()))
                .collect()
        };
        let zeroed = BertModel::zeroed(&tiny_config());
        assert_eq!(shapes(&zeroed), shapes(&BertModel::new(&tiny_config(), 2)));
        let mut values = zeroed.params().iter().flat_map(|(_, _, t)| t.data());
        assert!(values.all(|&v| v == 0.0));
    }

    #[test]
    fn paper_param_counts_match_formula() {
        let vocab = 443;
        let seq = 36;
        for (cfg, name) in [
            (BertConfig::bert(vocab, seq), "BERT"),
            (BertConfig::bert_mini(vocab, seq), "BERT-mini"),
        ] {
            let m = BertModel::new(&cfg, 1);
            let h = cfg.hidden;
            let inner = cfg.attn_inner();
            let per_block = 2 * h + 2 * h             // two layer norms
                + 3 * (h * inner + inner)             // q, k, v
                + inner * h + h                       // output proj
                + h * cfg.ffn + cfg.ffn               // ffn in
                + cfg.ffn * h + h; // ffn out
            let expected = vocab * h + seq * h + 2 * h // embeddings + emb LN
                + cfg.layers * per_block
                + 2 * h                                // final LN
                + h * 2 + 2                            // cls head
                + h * h + h + 2 * h                    // mlm dense + head LN
                + vocab; // mlm decoder bias (weight tied to embeddings)
            assert_eq!(m.num_parameters(), expected, "{name}");
            assert!(m.num_backbone_parameters() < m.num_parameters());
        }
    }

    #[test]
    fn bert_has_more_parameters_than_mini() {
        let b = BertModel::new(&BertConfig::bert(443, 36), 1);
        let m = BertModel::new(&BertConfig::bert_mini(443, 36), 1);
        assert!(b.num_parameters() > 3 * m.num_parameters());
    }

    #[test]
    fn predict_shape() {
        let m = BertModel::new(&tiny_config(), 3);
        let (ids, mask) = batch_data(4, 8);
        let preds = m.predict(&TokenBatch {
            ids: &ids,
            mask: &mask,
            batch_size: 4,
            seq_len: 8,
        });
        assert_eq!(preds.len(), 4);
        assert!(preds.iter().all(|&p| p < 2));
    }

    /// Three sequences of length 1, 5 and 8 (= S), padded at the end.
    fn ragged_batch() -> (Vec<u32>, Vec<u8>) {
        let lens = [1, 5, 8];
        let mut ids = Vec::new();
        let mut mask = Vec::new();
        for (row, &len) in lens.iter().enumerate() {
            for i in 0..8 {
                let real = i < len;
                ids.push(if real {
                    5 + ((row * 8 + i) * 7 % 20) as u32
                } else {
                    0
                });
                mask.push(real as u8);
            }
        }
        (ids, mask)
    }

    fn ragged<'a>(ids: &'a [u32], mask: &'a [u8]) -> TokenBatch<'a> {
        TokenBatch {
            ids,
            mask,
            batch_size: 3,
            seq_len: 8,
        }
    }

    #[test]
    fn padded_keys_are_ignored() {
        // Token ids at padded positions change neither the logits nor the
        // MLM loss, bit for bit, for rows of length 1, 5 and S.
        let m = BertModel::new(&tiny_config(), 3);
        let (ids, mask) = ragged_batch();
        let labels: Vec<i32> = (0..24)
            .map(|i| {
                if mask[i] == 1 && i % 3 == 0 {
                    7
                } else {
                    IGNORE_INDEX
                }
            })
            .collect();
        let outputs = |ids: &[u32]| {
            let batch = ragged(ids, &mask);
            let mut g = Graph::new();
            g.set_training(false);
            let l = m.cls_logits(&mut g, &batch);
            let mut bits: Vec<u32> = g.value(l).data().iter().map(|v| v.to_bits()).collect();
            let loss = m.mlm_loss(&mut g, &batch, &labels);
            bits.push(g.value(loss).item().to_bits());
            bits
        };
        let before = outputs(&ids);
        let mut changed = ids.clone();
        for (id, &keep) in changed.iter_mut().zip(&mask) {
            if keep == 0 {
                *id = 17;
            }
        }
        assert_eq!(outputs(&changed), before);
    }

    #[test]
    #[should_panic(expected = "MLM label at padded position 6 of sequence 1")]
    fn a_labelled_padded_position_panics() {
        let m = BertModel::new(&tiny_config(), 3);
        let (ids, mask) = ragged_batch();
        let mut labels = vec![IGNORE_INDEX; 24];
        labels[8 + 6] = 7; // sequence 1 has 5 real tokens
        m.mlm_loss(&mut Graph::new(), &ragged(&ids, &mask), &labels);
    }

    #[test]
    #[should_panic(expected = "not a prefix of ones")]
    fn mask_with_a_hole_panics() {
        let m = BertModel::new(&tiny_config(), 3);
        let (ids, mut mask) = batch_data(2, 8);
        mask[8 + 3] = 0;
        m.predict(&TokenBatch {
            ids: &ids,
            mask: &mask,
            batch_size: 2,
            seq_len: 8,
        });
    }

    /// The encoder as composed before the packed projection: Q, K and V
    /// by three GEMMs joined for the attention node, `[CLS]` gathered
    /// from the padded `[B·S, H]` rows, and the MLM head run on every
    /// position. (The attention node itself is pinned against the unfused
    /// score, mask, softmax and context ops in `clinfl-tensor`.)
    fn reference_encode(m: &BertModel, g: &mut Graph, batch: &TokenBatch<'_>) -> Var {
        let (b, s) = (batch.batch_size, batch.seq_len);
        let key_lens: Vec<usize> = batch
            .mask
            .chunks(s)
            .map(|r| r.iter().filter(|&&v| v != 0).count())
            .collect();
        let p = m.config.dropout;
        let tok_table = g.param(&m.params, m.tok_emb);
        let tok = g.embedding(tok_table, batch.ids);
        let pos_ids: Vec<u32> = (0..b * s).map(|i| (i % s) as u32).collect();
        let pos_table = g.param(&m.params, m.pos_emb);
        let pos = g.embedding(pos_table, &pos_ids);
        let x = g.add(tok, pos);
        let x = m.layer_norm(g, x, m.emb_ln_g, m.emb_ln_b);
        let mut x = g.dropout(x, p);
        for blk in &m.blocks {
            let hn = m.layer_norm(g, x, blk.ln1_g, blk.ln1_b);
            let proj = |g: &mut Graph, w, bias| {
                let w = g.param(&m.params, w);
                let bias = g.param(&m.params, bias);
                let y = g.matmul(hn, w);
                g.add(y, bias)
            };
            let q = proj(g, blk.wq, blk.bq);
            let k = proj(g, blk.wk, blk.bk);
            let v = proj(g, blk.wv, blk.bv);
            let qk = g.concat_last(q, k);
            let qkv = g.concat_last(qk, v);
            let starts: Vec<usize> = (0..=b).map(|i| i * s).collect();
            let ctx = g.attention(qkv, &starts, &key_lens, m.config.heads, p);
            let wo = g.param(&m.params, blk.wo);
            let bo = g.param(&m.params, blk.bo);
            let out = g.matmul(ctx, wo);
            let out = g.add(out, bo);
            let out = g.dropout(out, p);
            x = g.add(x, out);
            let hn2 = m.layer_norm(g, x, blk.ln2_g, blk.ln2_b);
            let w1 = g.param(&m.params, blk.w_ff1);
            let b1 = g.param(&m.params, blk.b_ff1);
            let f = g.matmul(hn2, w1);
            let f = g.add(f, b1);
            let f = g.gelu(f);
            let w2 = g.param(&m.params, blk.w_ff2);
            let b2 = g.param(&m.params, blk.b_ff2);
            let f = g.matmul(f, w2);
            let f = g.add(f, b2);
            let f = g.dropout(f, p);
            x = g.add(x, f);
        }
        m.layer_norm(g, x, m.final_ln_g, m.final_ln_b)
    }

    fn reference_cls_logits(m: &BertModel, g: &mut Graph, batch: &TokenBatch<'_>) -> Var {
        let enc = reference_encode(m, g, batch);
        let cls_rows: Vec<u32> = (0..batch.batch_size)
            .map(|i| (i * batch.seq_len) as u32)
            .collect();
        let cls = g.embedding(enc, &cls_rows);
        let cls = g.dropout(cls, m.config.dropout);
        let w = g.param(&m.params, m.cls_w);
        let bias = g.param(&m.params, m.cls_b);
        let logits = g.matmul(cls, w);
        g.add(logits, bias)
    }

    fn reference_mlm_loss(
        m: &BertModel,
        g: &mut Graph,
        batch: &TokenBatch<'_>,
        labels: &[i32],
    ) -> Var {
        let enc = reference_encode(m, g, batch);
        let dw = g.param(&m.params, m.mlm_dense_w);
        let db = g.param(&m.params, m.mlm_dense_b);
        let d = g.matmul(enc, dw);
        let d = g.add(d, db);
        let d = g.gelu(d);
        let d = m.layer_norm(g, d, m.mlm_ln_g, m.mlm_ln_b);
        let table = g.param(&m.params, m.tok_emb);
        let dec_b = g.param(&m.params, m.mlm_dec_b);
        let logits = g.matmul_bt(d, table);
        let logits = g.add(logits, dec_b);
        g.cross_entropy(logits, labels, IGNORE_INDEX)
    }

    fn ragged_labels(mask: &[u8]) -> Vec<i32> {
        (0..mask.len())
            .map(|i| {
                if mask[i] == 1 && i % 4 == 1 {
                    5 + (i % 9) as i32
                } else {
                    IGNORE_INDEX
                }
            })
            .collect()
    }

    #[test]
    fn eval_outputs_are_bit_identical_to_the_reference() {
        let m = BertModel::new(&tiny_config(), 8);
        let (ids, mask) = ragged_batch();
        let batch = ragged(&ids, &mask);
        let labels = ragged_labels(&mask);
        let eval = |build: &dyn Fn(&mut Graph) -> Var| {
            let mut g = Graph::new();
            g.set_training(false);
            let out = build(&mut g);
            g.value(out)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            eval(&|g| m.cls_logits(g, &batch)),
            eval(&|g| reference_cls_logits(&m, g, &batch))
        );
        assert_eq!(
            eval(&|g| m.mlm_loss(g, &batch, &labels)),
            eval(&|g| reference_mlm_loss(&m, g, &batch, &labels))
        );
    }

    #[test]
    fn training_gradients_match_the_reference() {
        let m = BertModel::new(&tiny_config(), 9);
        let (ids, mask) = ragged_batch();
        let batch = ragged(&ids, &mask);
        let labels = ragged_labels(&mask);
        let classes = [1, 0, 1];
        let grads = |build: &dyn Fn(&mut Graph) -> Var| {
            let mut params = m.params().clone();
            let mut g = Graph::new();
            let loss = build(&mut g);
            g.backward(loss);
            g.grads_into(&mut params);
            params
        };
        let fused = grads(&|g| {
            let mlm = m.mlm_loss(g, &batch, &labels);
            let cls = m.classification_loss(g, &batch, &classes);
            g.add(mlm, cls)
        });
        let reference = grads(&|g| {
            let mlm = reference_mlm_loss(&m, g, &batch, &labels);
            let logits = reference_cls_logits(&m, g, &batch);
            let cls = g.cross_entropy(logits, &classes, IGNORE_INDEX);
            g.add(mlm, cls)
        });
        let mut checked = 0;
        for (id, name, _) in reference.iter() {
            let (a, b) = (fused.grad(id).data(), reference.grad(id).data());
            let scale = b.iter().fold(0.0f32, |s, v| s.max(v.abs()));
            checked += 1;
            if name.ends_with("attn.bk") {
                // A key bias shifts every score of a query row by the same
                // amount, which the softmax cancels: its true gradient is 0
                // and both sides hold rounding noise.
                assert!(a.iter().chain(b).all(|v| v.abs() < 1e-9), "{name}");
                continue;
            }
            assert!(scale > 0.0, "{name} got no gradient");
            for (x, y) in a.iter().zip(b) {
                assert!(
                    (x - y).abs() <= 1e-5 * scale,
                    "{name}: {x} vs {y} (scale {scale})"
                );
            }
        }
        assert_eq!(checked, m.params().len());
    }

    #[test]
    fn mlm_with_no_labelled_position_is_zero_with_zero_head_gradients() {
        let mut m = BertModel::new(&tiny_config(), 10);
        let (ids, mask) = ragged_batch();
        let batch = ragged(&ids, &mask);
        let mut g = Graph::new();
        let loss = m.mlm_loss(&mut g, &batch, &[IGNORE_INDEX; 24]);
        assert_eq!(g.value(loss).item(), 0.0);
        g.backward(loss);
        g.grads_into(m.params_mut());
        let params = m.params();
        let mut heads = 0;
        for (id, name, _) in params.iter() {
            if name.contains("mlm_head") || name == "bert.embeddings.token" {
                assert!(params.grad(id).data().iter().all(|&v| v == 0.0), "{name}");
                heads += 1;
            }
        }
        assert_eq!(heads, 6);
    }

    #[test]
    fn one_training_step_records_a_fixed_tape() {
        // Embeddings: 2 leaves, 2 gathers, add, layer norm (5), dropout
        // (11). Per layer (40): layer norm (5), Q|K|V weights and biases
        // packed from 6 leaves by 4 concats, GEMM, bias add, the
        // attention node, output projection (2 leaves, GEMM, add),
        // dropout, residual add; then layer norm (5), 4 leaves, 2 GEMMs,
        // 2 bias adds, GELU, dropout, residual add. Final layer norm (5).
        // MLM head (16): gather, dense (2 leaves, GEMM, add), GELU, layer
        // norm (5), decoder (2 leaves, GEMM, add), the loss.
        let cfg = BertConfig::bert_mini(30, 8);
        let m = BertModel::new(&cfg, 11);
        let (ids, mask) = ragged_batch();
        let batch = ragged(&ids, &mask);
        let mut g = Graph::new();
        let loss = m.mlm_loss(&mut g, &batch, &ragged_labels(&mask));
        g.backward(loss);
        assert_eq!(g.len(), 11 + 40 * cfg.layers + 5 + 16);
        assert_eq!(g.len(), 272);
    }

    #[test]
    fn mlm_loss_starts_near_log_vocab() {
        let m = BertModel::new(&tiny_config(), 4);
        let (ids, mask) = batch_data(2, 8);
        let labels: Vec<i32> = (0..16)
            .map(|i| if i % 3 == 0 { 6 } else { IGNORE_INDEX })
            .collect();
        let mut g = Graph::new();
        g.set_training(false);
        let loss = m.mlm_loss(
            &mut g,
            &TokenBatch {
                ids: &ids,
                mask: &mask,
                batch_size: 2,
                seq_len: 8,
            },
            &labels,
        );
        let expected = (30.0f32).ln();
        let got = g.value(loss).item();
        assert!(
            (got - expected).abs() < 1.0,
            "initial MLM loss {got} should be near ln|V| = {expected}"
        );
    }

    #[test]
    fn mlm_loss_decreases_with_training() {
        let mut m = BertModel::new(&tiny_config(), 5);
        let ids: Vec<u32> = vec![2, 5, 6, 7, 8, 9, 10, 3, 2, 5, 6, 7, 8, 9, 10, 3];
        let mask = vec![1u8; 16];
        // Predict position 3 (always token 7) and position 5 (always 9).
        let mut labels = vec![IGNORE_INDEX; 16];
        labels[3] = 7;
        labels[5] = 9;
        labels[11] = 7;
        labels[13] = 9;
        let mut masked = ids.clone();
        masked[3] = 4;
        masked[5] = 4;
        masked[11] = 4;
        masked[13] = 4;
        let batch = TokenBatch {
            ids: &masked,
            mask: &mask,
            batch_size: 2,
            seq_len: 8,
        };
        let mut opt = Adam::with_lr(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..40 {
            let mut g = Graph::new();
            let loss = m.mlm_loss(&mut g, &batch, &labels);
            last = g.value(loss).item();
            first.get_or_insert(last);
            g.backward(loss);
            g.grads_into(m.params_mut());
            opt.step(m.params_mut());
        }
        assert!(
            last < first.unwrap() * 0.3,
            "MLM loss did not fall: {:?} -> {last}",
            first
        );
    }

    #[test]
    fn classification_learns_order_task() {
        let mut m = BertModel::new(&tiny_config(), 6);
        let seqs: Vec<(Vec<u32>, i32)> = vec![
            (vec![2, 5, 6, 3], 1),
            (vec![2, 6, 5, 3], 0),
            (vec![2, 7, 5, 6], 1),
            (vec![2, 6, 7, 5], 0),
        ];
        let ids: Vec<u32> = seqs.iter().flat_map(|(s, _)| s.clone()).collect();
        let mask = vec![1u8; 16];
        let labels: Vec<i32> = seqs.iter().map(|(_, l)| *l).collect();
        let batch = TokenBatch {
            ids: &ids,
            mask: &mask,
            batch_size: 4,
            seq_len: 4,
        };
        let mut opt = Adam::with_lr(0.005);
        for _ in 0..80 {
            let mut g = Graph::new();
            let loss = m.classification_loss(&mut g, &batch, &labels);
            g.backward(loss);
            g.grads_into(m.params_mut());
            opt.step(m.params_mut());
        }
        assert_eq!(m.predict(&batch), vec![1, 0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds max_seq_len")]
    fn too_long_sequence_panics() {
        let m = BertModel::new(&tiny_config(), 3);
        let (ids, mask) = batch_data(1, 16);
        m.predict(&TokenBatch {
            ids: &ids,
            mask: &mask,
            batch_size: 1,
            seq_len: 16,
        });
    }
}
