//! The four workloads, as plain data. `adapter.rs` turns a [`Workload`]
//! into a running federation; nothing here names a `clinfl_*` item.

/// What the sites train.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// LSTM ADR classifier fine-tuning (the paper's best model).
    LstmClassify,
    /// BERT (12 layers) ADR classifier fine-tuning.
    BertClassify,
    /// BERT (12 layers) masked-language-model pretraining.
    BertMlm,
}

/// How the training data is divided among the 8 sites.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    /// The paper's ratios {0.29, 0.22, 0.17, 0.14, 0.09, 0.04, 0.03, 0.02}.
    PaperImbalanced,
    /// Equal shards.
    Balanced,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    /// `in_proc_pair()` channels, as in the simulator.
    InProc,
    /// Localhost TCP sockets, as in a deployment.
    Tcp,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Persist {
    /// `InMemoryPersistor`.
    Memory,
    /// `FilePersistor` with round snapshots and the run checkpoint on disk.
    File,
}

/// Which share of the attributed CPU training + validation must take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Built for the training step: executor CPU >= 70 %.
    Compute,
    /// Built for the exchange path: executor CPU <= 25 %.
    Exchange,
}

/// One benchmark workload. Every field is fixed: the only run-time inputs
/// are the seed and the time budget.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub task: Task,
    pub split: Split,
    pub link: Link,
    pub persist: Persist,
    /// Wire codec string every site proposes.
    pub codec: &'static str,
    /// Training examples (patients or sequences) across all sites.
    pub train_examples: usize,
    /// Validation examples every site scores each round.
    pub valid_examples: usize,
    /// Tokens per sequence.
    pub seq_len: usize,
    /// Adam learning rate of local training; `None` keeps the shipped
    /// default of the model.
    pub learning_rate: Option<f32>,
    /// Wall-clock of one round on the machine the benchmark was sized on.
    /// It only converts the time budget into a round count, so that the
    /// work of a run is a function of `(workload, seconds)` and never of
    /// how fast this build happens to be.
    pub nominal_round_s: f64,
    pub shape: Shape,
    /// `final_error` must stay below this for the run to count as correct:
    /// the error of a model that learned nothing.
    pub error_ceiling: f64,
}

/// Rounds discarded at the start of a federation, so arenas, page faults
/// and codec chains are settled.
pub const WARMUP_ROUNDS: u32 = 2;

/// Fewest rounds in a federation, however short the time budget: a traced
/// run still gets 2 baseline, 1 settling and 3 measured rounds out of it.
pub const MIN_ROUNDS: u32 = WARMUP_ROUNDS + 6;

/// How the rounds of one federation are used, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Discarded.
    pub warmup: u32,
    /// Traced runs only: measured untraced, as the baseline the tracing
    /// overhead is taken against.
    pub baseline: u32,
    /// Traced runs only: the first traced round, discarded while per-site
    /// tracing state settles.
    pub settle: u32,
    /// Measured: untraced in an untraced run, traced in a traced one.
    pub measured: u32,
}

impl Schedule {
    pub fn total(&self) -> u32 {
        self.warmup + self.baseline + self.settle + self.measured
    }

    /// First measured round.
    pub fn first_measured(&self) -> u32 {
        self.total() - self.measured
    }
}

impl Workload {
    /// The rounds a run of `seconds` is made of. Both kinds of run have the
    /// same total, so they train the same model.
    pub fn schedule(&self, seconds: f64, traced: bool) -> Schedule {
        let total = ((seconds / self.nominal_round_s) as u32).max(MIN_ROUNDS);
        if traced {
            let baseline = ((total - WARMUP_ROUNDS - 1) / 3).max(2);
            Schedule {
                warmup: WARMUP_ROUNDS,
                baseline,
                settle: 1,
                measured: total - WARMUP_ROUNDS - 1 - baseline,
            }
        } else {
            Schedule {
                warmup: WARMUP_ROUNDS,
                baseline: 0,
                settle: 0,
                measured: total - WARMUP_ROUNDS,
            }
        }
    }
}

/// The two-round cut `fedbench verify` runs: nothing discarded.
pub const VERIFY_SCHEDULE: Schedule = Schedule {
    warmup: 0,
    baseline: 0,
    settle: 0,
    measured: 2,
};

/// Sites in every workload: the paper's topology.
pub const N_SITES: usize = 8;

/// Compute threads for every workload: this machine's `nproc`. The 8 site
/// threads are gated by compute permits, so at most 2 compute at once.
pub const THREADS: usize = 2;

/// The exchange workloads take one optimizer step on two patients per site
/// and round, with Adam restarted every round: at the shipped 1e-3 that is
/// sign-SGD on 16 examples, a random walk that after ~25 rounds leaves some
/// seeds predicting the minority class (final_error 0.2 on most seeds, 0.5
/// to 0.7 on others). A tenth of the rate keeps every seed's model near the
/// class prior, so `final_error` fingerprints the exchanged weights instead
/// of the walk. The step costs the same.
const EXCHANGE_LEARNING_RATE: Option<f32> = Some(1e-4);

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lstm_finetune",
        task: Task::LstmClassify,
        split: Split::PaperImbalanced,
        link: Link::InProc,
        persist: Persist::Memory,
        codec: "raw",
        train_examples: 540,
        valid_examples: 134,
        seq_len: 26,
        learning_rate: None,
        nominal_round_s: 1.67,
        shape: Shape::Compute,
        error_ceiling: 0.5,
    },
    Workload {
        name: "bert_mlm",
        task: Task::BertMlm,
        split: Split::PaperImbalanced,
        link: Link::InProc,
        persist: Persist::Memory,
        codec: "raw",
        train_examples: 400,
        valid_examples: 32,
        seq_len: 26,
        learning_rate: None,
        nominal_round_s: 3.44,
        shape: Shape::Compute,
        // ln |V|: the loss of the untrained model.
        error_ceiling: 6.0,
    },
    Workload {
        name: "exchange_raw_tcp",
        task: Task::BertClassify,
        split: Split::Balanced,
        link: Link::Tcp,
        persist: Persist::File,
        codec: "raw",
        train_examples: 16,
        valid_examples: 2,
        seq_len: 4,
        learning_rate: EXCHANGE_LEARNING_RATE,
        nominal_round_s: 0.85,
        shape: Shape::Exchange,
        error_ceiling: 0.5,
    },
    Workload {
        name: "exchange_codec",
        task: Task::BertClassify,
        split: Split::Balanced,
        link: Link::InProc,
        persist: Persist::Memory,
        codec: "delta+topk0.05+int8",
        train_examples: 16,
        valid_examples: 2,
        seq_len: 4,
        learning_rate: EXCHANGE_LEARNING_RATE,
        nominal_round_s: 0.70,
        shape: Shape::Exchange,
        error_ceiling: 0.5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn both_kinds_of_run_have_the_same_rounds() {
        for w in &WORKLOADS {
            for seconds in [1.0, 10.0, 20.0, 60.0] {
                let (plain, traced) = (w.schedule(seconds, false), w.schedule(seconds, true));
                assert_eq!(plain.total(), traced.total());
                assert_eq!(plain.first_measured(), WARMUP_ROUNDS);
                assert!(plain.measured >= 6 && traced.measured >= 3 && traced.baseline >= 2);
                assert_eq!(traced.first_measured(), WARMUP_ROUNDS + traced.baseline + 1);
            }
        }
    }
}
