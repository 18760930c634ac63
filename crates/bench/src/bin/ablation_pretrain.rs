//! Ablation: does the paper's MLM pretraining stage (§III-B) help the
//! downstream ADR fine-tuning? Compares BERT fine-tuned from scratch
//! against BERT whose encoder was MLM-pretrained on the synthetic corpus.

use clinfl::drivers::{build_mlm_data, build_task_data};
use clinfl::{Learner, MlmLearner, ModelSpec, PipelineConfig, TrainHyper};
use clinfl_data::CodeSystem;
use clinfl_models::BertConfig;

fn finetune(cfg: &PipelineConfig, init_from: Option<&clinfl_flare::Weights>) -> f64 {
    let data = build_task_data(cfg);
    let hyper = TrainHyper::for_model(ModelSpec::Bert);
    let vocab = data.code_system.vocab().len();
    let mut learner = Learner::new(
        ModelSpec::Bert,
        vocab,
        cfg.seq_len,
        hyper,
        cfg.federation.seed,
    );
    if let Some(w) = init_from {
        learner.load_weights(w);
    }
    for _ in 0..cfg.epochs {
        learner.train_epoch(&data.train);
    }
    learner.evaluate(&data.valid)
}

fn main() {
    let args = clinfl_bench::parse_args(16);
    let mut cfg = args.config();
    cfg.pretrain.scale = 64 * args.scale.max(1);
    println!(
        "ABLATION — MLM pretraining transfer (BERT, {} patients, {} fine-tune epochs, corpus {})\n",
        cfg.cohort.n_patients,
        cfg.epochs,
        cfg.pretrain.n_train()
    );

    eprintln!("[1/3] MLM pretraining ({} rounds)…", cfg.pretrain_rounds);
    let mlm_data = build_mlm_data(&cfg);
    let bert_cfg = BertConfig::bert(mlm_data.vocab_size, cfg.seq_len);
    let mut pretrainer = MlmLearner::new(
        &bert_cfg,
        CodeSystem::new().vocab().clone(),
        TrainHyper::for_mlm(),
        cfg.federation.seed,
    );
    let before = pretrainer.eval_loss(&mlm_data.valid);
    for _ in 0..cfg.pretrain_rounds {
        pretrainer.train_epoch(&mlm_data.train);
    }
    let after = pretrainer.eval_loss(&mlm_data.valid);
    println!("MLM valid loss: {before:.3} → {after:.3}");

    eprintln!("[2/3] Fine-tune from scratch…");
    let scratch = finetune(&cfg, None);
    eprintln!("[3/3] Fine-tune from pretrained encoder…");
    let pretrained_weights = pretrainer.export_weights();
    let transferred = finetune(&cfg, Some(&pretrained_weights));

    println!("\nBERT fine-tune accuracy:");
    println!("  from scratch:          {:.1}%", 100.0 * scratch);
    println!("  from MLM pretraining:  {:.1}%", 100.0 * transferred);
    println!(
        "\n(the paper motivates pretraining as 'broadening the applicability of the framework';\n this measures its downstream effect: {:+.1} points)",
        100.0 * (transferred - scratch)
    );
}
