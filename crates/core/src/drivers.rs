//! Training drivers for the paper's three schemes (centralized /
//! standalone / federated) and the four MLM pretraining regimes.

use crate::config::{ModelSpec, PipelineConfig, TrainHyper};
use crate::executor::{ClinicalExecutor, MlmExecutor};
use crate::learner::{Learner, MlmLearner, ParkArena, ParkOnDrop};
use clinfl_data::{generate_cohort, generate_corpus, ClassifyDataset, CodeSystem, SitePartitioner};
use clinfl_flare::aggregator::WeightedFedAvg;
use clinfl_flare::executor::Executor;
use clinfl_flare::job::JobConfig;
use clinfl_flare::simulator::{SimulatorConfig, SimulatorRunner};
use clinfl_flare::{EventLog, FlareError, Weights};
use clinfl_models::BertConfig;
use clinfl_tensor::LrSchedule;
use clinfl_text::{ClinicalTokenizer, Encoded};

/// Tokenized data for the fine-tuning task.
#[derive(Clone, Debug)]
pub struct TaskData {
    /// Shared code system / vocabulary.
    pub code_system: CodeSystem,
    /// The tokenizer all sites share.
    pub tokenizer: ClinicalTokenizer,
    /// Pooled training split.
    pub train: ClassifyDataset,
    /// Held-out validation split.
    pub valid: ClassifyDataset,
}

/// Builds the synthetic cohort and tokenizes it per the config.
pub fn build_task_data(cfg: &PipelineConfig) -> TaskData {
    let code_system = CodeSystem::new();
    let cohort = generate_cohort(&code_system, &cfg.cohort);
    let tokenizer = ClinicalTokenizer::new(code_system.vocab().clone(), cfg.seq_len);
    let dataset = ClassifyDataset::from_cohort(&cohort, &tokenizer);
    let (train, valid) = dataset.split(cfg.train_frac, cfg.federation.seed ^ 0x5917);
    TaskData {
        code_system,
        tokenizer,
        train,
        valid,
    }
}

/// Result of one training scheme.
#[derive(Clone, Debug)]
pub struct TrainOutcome {
    /// Final top-1 accuracy on the held-out validation split.
    pub accuracy: f64,
    /// Per-epoch (or per-round) `(train_loss, valid_acc)` history.
    pub history: Vec<(f64, f64)>,
    /// The run's event log (federated runs only).
    pub log: Option<EventLog>,
    /// Per-site accuracy after post-FL personalization (each site
    /// fine-tunes the final global model on its own shard for
    /// `PipelineConfig::personalize_epochs` local epochs). Empty when
    /// personalization is disabled.
    pub personalized_per_site: Vec<f64>,
    /// Mean of `personalized_per_site` (`None` when disabled).
    pub personalized_mean: Option<f64>,
    /// Cumulative `(ε, δ)` from the DP accountant (`None` when DP-SGD is
    /// off).
    pub privacy: Option<(f64, f64)>,
    /// The final global model (federated runs only).
    pub global: Option<Weights>,
}

/// Centralized training: one model over the pooled dataset — the paper's
/// upper-bound scheme.
pub fn train_centralized(cfg: &PipelineConfig, spec: ModelSpec) -> TrainOutcome {
    let _run_span = clinfl_obs::span("run");
    let data = build_task_data(cfg);
    let outcome = centralized_on(cfg, spec, &data.train, &data.valid, cfg.federation.seed);
    if clinfl_obs::enabled() {
        let _ = clinfl_obs::snapshot().write_artifact(&format!("centralized-{spec:?}"));
    }
    outcome
}

fn centralized_on(
    cfg: &PipelineConfig,
    spec: ModelSpec,
    train: &ClassifyDataset,
    valid: &ClassifyDataset,
    seed: u64,
) -> TrainOutcome {
    let hyper = TrainHyper::for_model(spec);
    let vocab_size = CodeSystem::new().vocab().len();
    let mut learner = Learner::new(spec, vocab_size, cfg.seq_len, hyper, seed);
    // A standalone site's arena outlives it: the next site to get a
    // compute permit adopts it instead of building its own.
    let mut learner = ParkOnDrop(&mut learner);
    let mut history = Vec::with_capacity(cfg.epochs as usize);
    for _ in 0..cfg.epochs {
        let stats = learner.train_epoch(train);
        let acc = learner.evaluate(valid);
        history.push((stats.mean_loss, acc));
    }
    // The last epoch's score is already the final model's.
    let accuracy = match history.last() {
        Some(&(_, acc)) => acc,
        None => learner.evaluate(valid),
    };
    TrainOutcome {
        accuracy,
        history,
        log: None,
        personalized_per_site: Vec::new(),
        personalized_mean: None,
        privacy: None,
        global: None,
    }
}

/// Result of standalone (per-site, no collaboration) training.
#[derive(Clone, Debug)]
pub struct StandaloneOutcome {
    /// Accuracy of each site's local model on the shared validation split.
    pub per_site: Vec<f64>,
    /// Mean over sites (the single number reported in Table III).
    pub mean_accuracy: f64,
}

/// Standalone training: each site trains its own model on its (imbalanced)
/// local shard only — the paper's lower-bound scheme.
pub fn train_standalone(cfg: &PipelineConfig, spec: ModelSpec) -> StandaloneOutcome {
    let data = build_task_data(cfg);
    let shards = cfg
        .imbalanced_partitioner()
        .partition(&data.train, cfg.federation.seed ^ 0xA17);
    // Sites are independent, so train them on their own threads; each one
    // holds a compute permit, bounding concurrency to CLINFL_THREADS (and
    // restoring the serial order of work with a budget of 1). Results are
    // keyed by site index, so the output never depends on the schedule.
    let mut per_site = vec![0.0f64; shards.len()];
    std::thread::scope(|s| {
        for (i, (shard, slot)) in shards.iter().zip(per_site.iter_mut()).enumerate() {
            let valid = &data.valid;
            s.spawn(move || {
                let _permit = clinfl_tensor::pool::compute_permit();
                let seed = cfg.federation.seed.wrapping_add(i as u64);
                *slot = centralized_on(cfg, spec, shard, valid, seed).accuracy;
            });
        }
    });
    let mean_accuracy = per_site.iter().sum::<f64>() / per_site.len().max(1) as f64;
    if clinfl_obs::enabled() {
        let _ = clinfl_obs::snapshot().write_artifact(&format!("standalone-{spec:?}"));
    }
    StandaloneOutcome {
        per_site,
        mean_accuracy,
    }
}

/// The sites of one clinical federation: the task data, its training set
/// split over the sites by a partitioner, and one ADR-classifier trainer
/// per shard. Every federated fine-tuning run builds its sites here —
/// `clinfl federated`, each `clinfl serve` job, the ablations — so one
/// config and seed give the same sites, and the same bits, whichever
/// front end asks.
#[derive(Debug)]
pub struct ClinicalSites {
    /// Validation split every site, and the final evaluation, score on.
    pub valid: ClassifyDataset,
    /// Each site's training shard, in site order.
    pub shards: Vec<ClassifyDataset>,
    model: ModelSpec,
    hyper: TrainHyper,
    vocab_size: usize,
    seq_len: usize,
    local_epochs: u32,
    fedprox_mu: Option<f32>,
    seed: u64,
}

impl ClinicalSites {
    /// Builds `cfg`'s task data and splits its training set with
    /// `partitioner`.
    pub fn build(cfg: &PipelineConfig, model: ModelSpec, partitioner: &SitePartitioner) -> Self {
        let seed = cfg.federation.seed;
        let data = build_task_data(cfg);
        ClinicalSites {
            shards: partitioner.partition(&data.train, seed ^ 0xA17),
            valid: data.valid,
            model,
            hyper: TrainHyper::for_model(model),
            vocab_size: data.code_system.vocab().len(),
            seq_len: cfg.seq_len,
            local_epochs: cfg.local_epochs,
            fedprox_mu: cfg.fedprox_mu,
            seed,
        }
    }

    /// A fresh learner of the federation's model, seeded with `seed`.
    pub fn learner(&self, seed: u64) -> Learner {
        Learner::new(self.model, self.vocab_size, self.seq_len, self.hyper, seed)
    }

    /// The initial global weights.
    pub fn initial(&self) -> Weights {
        self.learner(self.seed).export_weights()
    }

    /// Site `i`'s trainer (FedProx when the config asks for it), logging
    /// into `log`.
    pub fn executor(&self, i: usize, log: &EventLog) -> Box<dyn Executor> {
        let mut executor = ClinicalExecutor::new(
            self.learner(self.seed),
            self.shards[i].clone(),
            self.valid.clone(),
            self.local_epochs,
            log.clone(),
        );
        if let Some(mu) = self.fedprox_mu {
            executor = executor.with_prox(mu);
        }
        Box::new(executor)
    }
}

/// Federated training over the paper's 8-site imbalanced partition using
/// the ScatterAndGather workflow.
///
/// # Errors
///
/// Propagates runtime failures from the simulator.
pub fn train_federated(cfg: &PipelineConfig, spec: ModelSpec) -> Result<TrainOutcome, FlareError> {
    train_federated_with(cfg, spec, &cfg.imbalanced_partitioner(), EventLog::new())
}

/// Federated training with an explicit partitioner and log: the
/// [`ClinicalSites`] of `cfg` run `cfg.federation` (DP-SGD included) under
/// `cfg.aggregator`, then the global model is scored and, with
/// `personalize_epochs`, fine-tuned per site.
///
/// # Errors
///
/// Propagates runtime failures from the simulator.
pub fn train_federated_with(
    cfg: &PipelineConfig,
    spec: ModelSpec,
    partitioner: &SitePartitioner,
    log: EventLog,
) -> Result<TrainOutcome, FlareError> {
    let sites = ClinicalSites::build(cfg, spec, partitioner);
    let seed = cfg.federation.seed;
    let result = SimulatorRunner::with_log(cfg.federation.clone(), log.clone()).run_simple(
        sites.initial(),
        |i, _site| sites.executor(i, &log),
        cfg.aggregator.build().as_ref(),
    )?;

    // Server-side final evaluation of the aggregated model on the full
    // validation split.
    let final_weights = &result.workflow.final_weights;
    let mut eval = sites.learner(seed);
    eval.load_weights(final_weights);
    let accuracy = eval.evaluate(&sites.valid);
    eval.park_arena(); // back to the queue the sites left it in

    // Personalization arm: each site fine-tunes the final global model on
    // its own shard, in parallel under the compute-permit budget (same
    // scheme as `train_standalone`; results keyed by site index, so the
    // output never depends on the thread schedule).
    let mut personalized_per_site = Vec::new();
    if cfg.personalize_epochs > 0 {
        personalized_per_site = vec![0.0f64; sites.shards.len()];
        std::thread::scope(|s| {
            for (i, (shard, slot)) in sites
                .shards
                .iter()
                .zip(personalized_per_site.iter_mut())
                .enumerate()
            {
                let sites = &sites;
                s.spawn(move || {
                    let _permit = clinfl_tensor::pool::compute_permit();
                    let mut learner = sites.learner(seed.wrapping_add(0x9E + i as u64));
                    let mut learner = ParkOnDrop(&mut learner);
                    learner.load_weights(final_weights);
                    for _ in 0..cfg.personalize_epochs {
                        learner.train_epoch(shard);
                    }
                    *slot = learner.evaluate(&sites.valid);
                });
            }
        });
    }
    let personalized_mean = (!personalized_per_site.is_empty())
        .then(|| personalized_per_site.iter().sum::<f64>() / personalized_per_site.len() as f64);

    let history = result
        .workflow
        .rounds
        .iter()
        .map(|r| {
            let mean_loss = r
                .client_metrics
                .values()
                .filter_map(|m| m.get("train_loss"))
                .sum::<f64>()
                / r.client_metrics.len().max(1) as f64;
            (mean_loss, r.global_metric.unwrap_or(0.0))
        })
        .collect();
    Ok(TrainOutcome {
        accuracy,
        history,
        log: Some(result.log),
        personalized_per_site,
        personalized_mean,
        privacy: result.privacy,
        global: Some(result.workflow.final_weights),
    })
}

// ---------------------------------------------------------------------
// Serve mode (multi-tenant job runtime)
// ---------------------------------------------------------------------

/// Builds the job factory behind `clinfl serve`: each submitted job text
/// is parsed by [`JobConfig::parse`] onto `SimulatorConfig::default()`
/// carrying `base`'s seed, and becomes a private clinical federation at
/// `base`'s scale — the [`ClinicalSites`] `clinfl federated --balanced`
/// builds from the same keys. The job's `model` key picks the
/// architecture (`lstm` / `bert` / `bert-mini`, default `lstm`), `clients`
/// sizes a balanced partition, and `seed` (if set) re-seeds data
/// generation and training so two same-seed jobs are bit-identical. With
/// `checkpoint_root`, every job persists into its own `job-<n>-<name>`
/// subdirectory — never a shared one, which the persistor's lock file
/// would refuse anyway.
pub fn serve_job_factory(
    base: PipelineConfig,
    checkpoint_root: Option<std::path::PathBuf>,
) -> clinfl_flare::admin::JobFactory {
    let seq = std::sync::atomic::AtomicU64::new(1);
    let defaults = SimulatorConfig {
        seed: base.federation.seed,
        ..SimulatorConfig::default()
    };
    Box::new(move |text: &str| {
        let mut config = JobConfig::parse(text, &defaults)?;
        let model = match config.model.as_deref() {
            None | Some("lstm") => ModelSpec::Lstm,
            Some("bert") => ModelSpec::Bert,
            Some("bert-mini") | Some("bert_mini") => ModelSpec::BertMini,
            Some(other) => {
                return Err(FlareError::Codec(format!(
                    "unknown model {other:?} (expected lstm, bert, bert-mini)"
                )))
            }
        };
        config.federation.checkpoint_dir = checkpoint_root.as_ref().map(|root| {
            root.join(format!(
                "job-{}-{}",
                seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                config.name
            ))
        });
        let cfg = PipelineConfig {
            federation: config.federation.clone(),
            ..base.clone()
        };
        let sites = ClinicalSites::build(&cfg, model, &cfg.balanced_partitioner());
        let log = EventLog::new();
        Ok(clinfl_flare::jobs::JobSpec {
            config,
            initial: sites.initial(),
            make_executor: Box::new(move |i, _site| sites.executor(i, &log)),
        })
    })
}

// ---------------------------------------------------------------------
// MLM pretraining (paper Fig. 2)
// ---------------------------------------------------------------------

/// The four pretraining regimes of the paper's Fig. 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MlmScheme {
    /// All data on one node (upper bound).
    Centralized,
    /// One site's share only (lower bound, "BERT utilizing a small
    /// dataset").
    SmallData,
    /// Federated over the paper's imbalanced 8-site split.
    FlImbalanced,
    /// Federated over a balanced 8-site split.
    FlBalanced,
}

impl MlmScheme {
    /// All four, in the paper's order.
    pub fn all() -> [MlmScheme; 4] {
        [
            MlmScheme::Centralized,
            MlmScheme::SmallData,
            MlmScheme::FlImbalanced,
            MlmScheme::FlBalanced,
        ]
    }

    /// Label used in Fig. 2's legend.
    pub fn as_str(self) -> &'static str {
        match self {
            MlmScheme::Centralized => "BERT (centralized)",
            MlmScheme::SmallData => "BERT (small dataset)",
            MlmScheme::FlImbalanced => "BERT (FL, imbalanced)",
            MlmScheme::FlBalanced => "BERT (FL, balanced)",
        }
    }
}

impl std::fmt::Display for MlmScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tokenized pretraining corpus.
#[derive(Clone, Debug)]
pub struct MlmData {
    /// Training sequences.
    pub train: Vec<Encoded>,
    /// Held-out sequences (loss curve measurements).
    pub valid: Vec<Encoded>,
    /// Vocabulary size.
    pub vocab_size: usize,
}

/// Generates and tokenizes the pretraining corpus.
pub fn build_mlm_data(cfg: &PipelineConfig) -> MlmData {
    let cs = CodeSystem::new();
    let corpus = generate_corpus(&cs, &cfg.pretrain);
    let tokenizer = ClinicalTokenizer::new(cs.vocab().clone(), cfg.seq_len);
    let encode = |seqs: &[Vec<String>]| -> Vec<Encoded> {
        seqs.iter().map(|s| tokenizer.encode(s)).collect()
    };
    MlmData {
        train: encode(&corpus.train),
        valid: encode(&corpus.valid),
        vocab_size: cs.vocab().len(),
    }
}

/// Runs one MLM pretraining scheme, returning the per-round validation
/// loss curve (the series plotted in Fig. 2). The initial point is the
/// untrained model's loss (≈ `ln |V|`).
///
/// # Errors
///
/// Propagates simulator failures for the FL schemes.
pub fn pretrain_mlm(
    cfg: &PipelineConfig,
    scheme: MlmScheme,
    data: &MlmData,
) -> Result<Vec<f64>, FlareError> {
    let hyper = TrainHyper::for_mlm();
    let bert = BertConfig::bert(data.vocab_size, cfg.seq_len);
    let (n_sites, seed) = (cfg.federation.n_clients, cfg.federation.seed);
    match scheme {
        MlmScheme::Centralized | MlmScheme::SmallData => {
            let train: Vec<Encoded> = match scheme {
                MlmScheme::Centralized => data.train.clone(),
                _ => {
                    // One balanced site's share (1/n of the data).
                    let per = (data.train.len() / n_sites).max(1);
                    data.train[..per].to_vec()
                }
            };
            let mut learner =
                MlmLearner::new(&bert, CodeSystem::new().vocab().clone(), hyper, seed);
            let mut learner = ParkOnDrop(&mut learner);
            learner.set_schedule(mlm_warmup(cfg, train.len(), hyper.batch_size));
            let mut curve = vec![learner.eval_loss(&data.valid)];
            for _ in 0..cfg.pretrain_rounds {
                learner.train_epoch(&train);
                curve.push(learner.eval_loss(&data.valid));
            }
            Ok(curve)
        }
        MlmScheme::FlImbalanced | MlmScheme::FlBalanced => {
            let shards = split_sequences(
                &data.train,
                match scheme {
                    MlmScheme::FlImbalanced => clinfl_data::PAPER_IMBALANCED_RATIOS.to_vec(),
                    _ => vec![1.0 / n_sites as f64; n_sites],
                },
            );
            let log = EventLog::new();
            let mut sim_cfg = cfg.federation.clone();
            sim_cfg.sag.rounds = cfg.pretrain_rounds;
            // Keep pretraining checkpoints apart from fine-tuning ones so a
            // resume never crosses phases.
            if let Some(dir) = sim_cfg.checkpoint_dir.take() {
                sim_cfg.checkpoint_dir = Some(dir.join("pretrain"));
            }
            let runner = SimulatorRunner::with_log(sim_cfg, log.clone());
            let mut seed_learner =
                MlmLearner::new(&bert, CodeSystem::new().vocab().clone(), hyper, seed);
            let initial = seed_learner.export_weights();
            let initial_loss = seed_learner.eval_loss(&data.valid);
            seed_learner.park_arena(); // the sites take it from here
            let valid = data.valid.clone();
            let result = runner.run_simple(
                initial,
                |i, _| {
                    let mut learner =
                        MlmLearner::new(&bert, CodeSystem::new().vocab().clone(), hyper, seed);
                    learner.set_schedule(mlm_warmup(cfg, shards[i].len(), hyper.batch_size));
                    Box::new(MlmExecutor::new(
                        learner,
                        shards[i].clone(),
                        valid.clone(),
                        1,
                        log.clone(),
                    ))
                },
                &WeightedFedAvg,
            )?;
            let mut curve = vec![initial_loss];
            curve.extend(
                result
                    .workflow
                    .rounds
                    .iter()
                    .map(|r| r.global_metric.unwrap_or(f64::NAN)),
            );
            Ok(curve)
        }
    }
}

/// Warmup sized to the planned step budget: the standard 64 steps at
/// experiment scale, but never more than a quarter of the total steps so
/// scaled-down runs (tests, demos) still spend most of training at full
/// rate.
fn mlm_warmup(cfg: &PipelineConfig, n_train: usize, batch_size: usize) -> LrSchedule {
    let steps_per_epoch = n_train.div_ceil(batch_size).max(1) as u64;
    let total_steps = steps_per_epoch * u64::from(cfg.pretrain_rounds);
    LrSchedule::LinearWarmup {
        warmup_steps: 64.min((total_steps / 4).max(1)),
    }
}

/// Splits the MLM corpus into per-site shards with the same
/// largest-remainder allocation as `clinfl_data::partition_by_ratios`.
/// The old cumulative `start + round(n·rᵢ)` scheme let per-site rounding
/// drift accumulate, silently starving (even emptying) the last sites on
/// small corpora.
fn split_sequences(seqs: &[Encoded], ratios: Vec<f64>) -> Vec<Vec<Encoded>> {
    let counts = clinfl_data::allocate_counts(seqs.len(), &ratios);
    let mut out = Vec::with_capacity(ratios.len());
    let mut start = 0usize;
    for c in counts {
        out.push(seqs[start..start + c].to_vec());
        start += c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> PipelineConfig {
        let mut cfg = PipelineConfig::fast_demo();
        cfg.cohort.n_patients = 120;
        cfg.epochs = 1;
        cfg.federation.sag.rounds = 1;
        cfg.local_epochs = 1;
        cfg
    }

    #[test]
    fn task_data_split_counts() {
        let cfg = tiny_cfg();
        let data = build_task_data(&cfg);
        assert_eq!(data.train.len() + data.valid.len(), 120);
        assert!(data.train.len() > data.valid.len());
    }

    #[test]
    fn centralized_lstm_runs() {
        let cfg = tiny_cfg();
        let out = train_centralized(&cfg, ModelSpec::Lstm);
        assert_eq!(out.history.len(), 1);
        assert!(out.accuracy > 0.0 && out.accuracy <= 1.0);
    }

    #[test]
    fn federated_lstm_round_trips() {
        let cfg = tiny_cfg();
        let out = train_federated(&cfg, ModelSpec::Lstm).unwrap();
        assert_eq!(out.history.len(), 1);
        assert!(out.accuracy > 0.0 && out.accuracy <= 1.0);
        assert!(out.log.unwrap().contains("Local epoch site-1: 1/1"));
    }

    #[test]
    fn standalone_reports_all_sites() {
        let cfg = tiny_cfg();
        let out = train_standalone(&cfg, ModelSpec::Lstm);
        assert_eq!(out.per_site.len(), 8);
        let mean = out.per_site.iter().sum::<f64>() / 8.0;
        assert!((out.mean_accuracy - mean).abs() < 1e-12);
    }

    #[test]
    fn mlm_split_conserves() {
        let e = Encoded {
            ids: vec![2, 3],
            attention_mask: vec![1, 1],
        };
        let seqs = vec![e; 100];
        let shards = split_sequences(&seqs, clinfl_data::PAPER_IMBALANCED_RATIOS.to_vec());
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 100);
        assert_eq!(shards.len(), 8);
        assert!(shards[0].len() > shards[7].len());
    }

    #[test]
    fn mlm_split_has_no_rounding_drift() {
        let e = Encoded {
            ids: vec![2],
            attention_mask: vec![1],
        };
        // The old cumulative-rounding split emptied trailing shards on
        // small corpora; largest-remainder keeps every shard non-empty
        // whenever n >= sites.
        for n in [8usize, 10, 17, 33] {
            let seqs = vec![e.clone(); n];
            let shards = split_sequences(&seqs, clinfl_data::PAPER_IMBALANCED_RATIOS.to_vec());
            assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), n, "n={n}");
            assert!(shards.iter().all(|s| !s.is_empty()), "empty shard at n={n}");
        }
    }

    #[test]
    fn federated_scenario_knobs_run() {
        let mut cfg = tiny_cfg();
        cfg.federation.sag.client_sample_fraction = 0.5;
        cfg.federation.apply("dp", "clip:1,sigma:0.8").unwrap();
        cfg.fedprox_mu = Some(0.01);
        cfg.personalize_epochs = 1;
        let out = train_federated(&cfg, ModelSpec::Lstm).unwrap();
        assert!(out.accuracy > 0.0 && out.accuracy <= 1.0);
        let (eps, delta) = out.privacy.expect("DP on => privacy tracked");
        assert!(eps > 0.0 && eps.is_finite());
        assert!((delta - 1e-5).abs() < 1e-12);
        assert_eq!(out.personalized_per_site.len(), 8);
        let mean = out.personalized_mean.expect("personalization ran");
        assert!(mean > 0.0 && mean <= 1.0);
    }

    /// A served job that sets no `seed`/`rounds`/`timeout_s` gets the
    /// host's seed and the simulator's 10 rounds and 600 s — not the
    /// pipeline's own rounds or 3600 s deadline.
    #[test]
    fn serve_job_defaults_come_from_the_host() {
        let cfg = tiny_cfg();
        let factory = serve_job_factory(cfg.clone(), None);
        let fed = factory("name = d\nclients = 2\n")
            .unwrap()
            .config
            .federation;
        assert_eq!(fed.seed, cfg.federation.seed);
        assert_eq!(fed.sag.rounds, 10);
        assert_eq!(fed.sag.round_timeout, std::time::Duration::from_secs(600));
        assert_eq!(fed.n_clients, 2);
        assert!(fed.sag.validate_global);
        assert_eq!(fed.checkpoint_dir, None);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(MlmScheme::all().len(), 4);
        assert!(MlmScheme::FlImbalanced.to_string().contains("imbalanced"));
    }
}
