//! Regenerates the paper's **Table I** (parameters used in this paper),
//! printing the configured reproduction values against the paper's, with
//! each substitution annotated.

use clinfl::PipelineConfig;
use clinfl_data::CodeSystem;

fn main() {
    let paper = PipelineConfig::paper();
    let vocab = CodeSystem::new().vocab().len();
    println!("TABLE I — PARAMETERS (paper → this reproduction)\n");
    let rows: Vec<(&str, String, &str)> = vec![
        (
            "Number of clients",
            format!("{}", paper.federation.n_clients),
            "8 (identical)",
        ),
        (
            "Hardware spec.",
            "single CPU core (this machine)".into(),
            "paper: 4x RTX 2080 Ti + AWS p3.8xlarge — substituted per DESIGN.md",
        ),
        (
            "Software info.",
            "clinfl-tensor autograd (pure Rust)".into(),
            "paper: PyTorch + CUDA 11.7 + NVFlare v2.2 — clinfl-flare reimplements NVFlare",
        ),
        (
            "# train data (pretraining)",
            format!("{}", paper.pretrain.n_train()),
            "453,377 (synthetic corpus, scale 1)",
        ),
        (
            "# valid data (pretraining)",
            format!("{}", paper.pretrain.n_valid()),
            "8,683",
        ),
        (
            "# train data (fine-tune)",
            format!(
                "{}",
                (paper.cohort.n_patients as f64 * paper.train_frac).round()
            ),
            "6,927",
        ),
        (
            "# valid data (fine-tune)",
            format!(
                "{}",
                paper.cohort.n_patients
                    - (paper.cohort.n_patients as f64 * paper.train_frac).round() as usize
            ),
            "1,732",
        ),
        (
            "Cohort / positives",
            format!("{} patients, ~21% ADR", paper.cohort.n_patients),
            "8,638 patients, 1,824 treatment failures",
        ),
        (
            "Vocabulary",
            format!("{vocab} clinical codes"),
            "synthetic code system (proprietary EHR substituted)",
        ),
        (
            "Optimizer / lr",
            "Adam; 3e-3 (LSTM), 1e-3 (BERT), 2e-3 (MLM)".into(),
            "paper: Adam 1e-2 — see EXPERIMENTS.md calibration notes",
        ),
        (
            "Communication rounds E",
            format!(
                "{} x {} local epochs",
                paper.federation.sag.rounds, paper.local_epochs
            ),
            "Fig. 3 shows 10 rounds, 10 local epochs",
        ),
    ];
    for (name, ours, paper_note) in rows {
        println!("{name:<28} {ours:<40} | {paper_note}");
    }
}
