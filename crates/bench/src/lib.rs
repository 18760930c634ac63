//! # clinfl-bench
//!
//! Benchmark harness for the `clinfl` reproduction: one binary per table /
//! figure of the paper, plus the CI perf gates.
//!
//! | Paper artifact | Regenerate with |
//! |---|---|
//! | Table I (parameters)        | `cargo run -p clinfl-bench --release --bin table1_parameters` |
//! | Table II (model specs)      | `cargo run -p clinfl-bench --release --bin table2_models` |
//! | Table III (top-1 accuracy)  | `cargo run -p clinfl-bench --release --bin table3_accuracy [--scale N]` |
//! | Fig. 2 (MLM loss)           | `cargo run -p clinfl-bench --release --bin fig2_mlm_loss [--scale N]` |
//! | Fig. 3 (runtime demo)       | `cargo run -p clinfl-bench --release --bin fig3_demo` |
//! | Ablations (extensions)      | `ablation_aggregators`, `ablation_partition`, `ablation_pretrain` |
//! | Tape allocation pressure    | `cargo run -p clinfl-bench --release --bin alloc_stats` |
//! | GEMM kernel perf floor      | `cargo run -p clinfl-bench --release --bin bench_kernels -- --run` |
//!
//! `--scale N` divides the paper's data volumes by `N` (default shown per
//! binary); `--scale 1` is full paper scale. Results are recorded in the
//! repository's `EXPERIMENTS.md`.

/// Parses `--scale N` (and `--seed N`) from command-line arguments.
///
/// Unknown arguments are reported on stderr and ignored so harness wrappers
/// can pass extra flags without breaking runs.
pub fn parse_args(default_scale: usize) -> BenchArgs {
    let mut args = BenchArgs {
        scale: default_scale,
        seed: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                    args.scale = v;
                }
            }
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok());
            }
            other => eprintln!("(ignoring unknown argument {other:?})"),
        }
    }
    args
}

/// Parsed benchmark arguments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchArgs {
    /// Data-volume divisor relative to paper scale.
    pub scale: usize,
    /// Optional seed override.
    pub seed: Option<u64>,
}

impl BenchArgs {
    /// Builds the pipeline config for this scale (applying any seed
    /// override).
    pub fn config(&self) -> clinfl::PipelineConfig {
        let mut cfg = clinfl::PipelineConfig::scaled(self.scale);
        if let Some(seed) = self.seed {
            cfg.federation.seed = seed;
            cfg.cohort.seed = seed;
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_applies_seed() {
        let args = BenchArgs {
            scale: 8,
            seed: Some(123),
        };
        let cfg = args.config();
        assert_eq!(cfg.federation.seed, 123);
        assert_eq!(cfg.cohort.seed, 123);
    }
}
