//! `clinfl` — command-line front end for the clinical federated-learning
//! pipeline.
//!
//! ```text
//! clinfl centralized --model lstm --scale 16
//! clinfl standalone  --model bert-mini --scale 16
//! clinfl federated   --model lstm --scale 16 [--balanced] [--echo]
//!                    [--dirichlet A] [--sample-fraction F]
//!                    [--dp-clip C] [--dp-sigma S] [--dp-delta D]
//!                    [--fedprox-mu M] [--personalize-epochs N]
//!                    [--checkpoint-dir D] [--resume D] [--retain N]
//!                    [--wire-codec S] [--tree-depth D] [--tree-fanout F]
//! clinfl pretrain    --scale 64 --scheme centralized
//! clinfl table3      --scale 10
//! clinfl fig2        --scale 32
//! clinfl serve       [--addr A] [--addr-file F] [--max-jobs N] [--scale N]
//!                    [--checkpoint-root D]
//! clinfl job submit  [--addr A] [--file F]     # config on stdin without --file
//! clinfl job list    [--addr A]
//! clinfl job abort   [--addr A] --id N
//! clinfl job metrics [--addr A] --id N [--follow]
//! ```
//!
//! Every federation flag writes straight into the pipeline's
//! `federation` (a `clinfl_flare::simulator::SimulatorConfig`), the same
//! spec a `clinfl serve` job and a test build.
//!
//! `--checkpoint-dir D` persists per-round snapshots and a crash-safe run
//! checkpoint into `D`; `--resume D` restarts an interrupted federated run
//! from the checkpoint in `D` (same seed required); `--retain N` keeps at
//! most `N` per-round snapshot files on disk.
//!
//! `--wire-codec S` selects the negotiated weight-exchange codec (e.g.
//! `raw`, `delta`, `delta+int8`, `delta+topk0.05+int8`; grammar in
//! `CodecSpec::parse`). See DESIGN.md §3g for the wire-format spec.
//!
//! `--tree-depth D` (with `--tree-fanout F`, default 8) runs the
//! federation through a hierarchical aggregation tree: interior nodes
//! partial-FedAvg their shard of sites and forward one update upstream
//! (DESIGN.md §3h). Depth `<= 1` leaves the topology to `CLINFL_TREE`
//! (flat when unset).
//!
//! Scenario knobs (DESIGN.md §3k): `--dirichlet A` draws the site
//! partition from a symmetric Dirichlet(α) (lower α = more quantity
//! skew); `--sample-fraction F` trains a seeded `ceil(F·n)`-site subset
//! each round; `--dp-clip C` + `--dp-sigma S` enable DP-SGD (clip each
//! site's update to L2 norm `C`, add Gaussian noise `S·C`), with the
//! cumulative (ε, δ) at `--dp-delta D` (default 1e-5) printed at the
//! end; `--fedprox-mu M` adds the FedProx proximal term; and
//! `--personalize-epochs N` fine-tunes the final global model locally at
//! each site for `N` epochs after the federation.
//!
//! Every subcommand runs on the synthetic cohort/corpus at `1/scale` of
//! the paper's data volumes (see DESIGN.md for the substitution rationale).
//!
//! `clinfl serve` turns the process into a multi-tenant job host: a
//! dependency-free HTTP admin API (see `clinfl_flare::admin`) fronting a
//! `JobRuntime` that trains up to `--max-jobs` federations concurrently
//! over the shared worker pool. `--addr 127.0.0.1:0` picks an ephemeral
//! port; `--addr-file` writes the resolved address for scripts to
//! discover. The `clinfl job …` subcommands are the matching HTTP
//! client (README "Running as a service" shows a curl transcript).

use clinfl::drivers::{self, MlmScheme};
use clinfl::experiments;
use clinfl::{ModelSpec, PipelineConfig};
use clinfl_flare::admin::AdminServer;
use clinfl_flare::codec::CodecSpec;
use clinfl_flare::jobs::JobRuntime;
use clinfl_flare::simulator::TreeConfig;
use clinfl_flare::EventLog;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;

struct Args {
    command: String,
    scale: usize,
    model: ModelSpec,
    scheme: MlmScheme,
    balanced: bool,
    echo: bool,
    dirichlet: Option<f64>,
    cfg: PipelineConfig,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: clinfl <centralized|standalone|federated|pretrain|table3|fig2> \
         [--scale N] [--model lstm|bert|bert-mini] [--scheme centralized|small|fl-imbalanced|fl-balanced] \
         [--balanced] [--dirichlet A] [--echo] [--checkpoint-dir D] [--resume D] [--retain N] \
         [--wire-codec S] [--tree-depth D] [--tree-fanout F] \
         [--sample-fraction F] [--dp-clip C] [--dp-sigma S] [--dp-delta D] \
         [--fedprox-mu M] [--personalize-epochs N]\n\
         \x20      clinfl serve [--addr A] [--addr-file F] [--max-jobs N] [--scale N] [--checkpoint-root D]\n\
         \x20      clinfl job <submit|list|abort|metrics> [--addr A] [--file F] [--id N] [--follow]"
    );
    ExitCode::from(2)
}

// ---------------------------------------------------------------------
// serve / job subcommands (multi-tenant admin API)
// ---------------------------------------------------------------------

/// One zero-dependency HTTP/1.1 exchange; returns `(status, body)`.
fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: clinfl\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Prints an HTTP reply body, returning success only for 2xx statuses.
fn report(result: std::io::Result<(u16, String)>) -> ExitCode {
    match result {
        Ok((status, body)) => {
            println!("{}", body.trim_end());
            if (200..300).contains(&status) {
                ExitCode::SUCCESS
            } else {
                eprintln!("server returned HTTP {status}");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_serve(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let mut addr = "127.0.0.1:8790".to_string();
    let mut addr_file: Option<std::path::PathBuf> = None;
    let mut max_jobs = 2usize;
    let mut scale = 16usize;
    let mut checkpoint_root: Option<std::path::PathBuf> = None;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--addr" => match argv.next() {
                Some(a) => addr = a,
                None => return usage(),
            },
            "--addr-file" => match argv.next() {
                Some(f) => addr_file = Some(f.into()),
                None => return usage(),
            },
            "--max-jobs" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_jobs = n,
                None => return usage(),
            },
            "--scale" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(n) => scale = n,
                None => return usage(),
            },
            "--checkpoint-root" => match argv.next() {
                Some(d) => checkpoint_root = Some(d.into()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let cfg = PipelineConfig::scaled(scale);
    let runtime = JobRuntime::new(max_jobs);
    let factory = drivers::serve_job_factory(cfg, checkpoint_root);
    let server = match AdminServer::bind(&addr, runtime.clone(), factory) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let local = server.local_addr();
    println!("clinfl admin API serving on http://{local} (max {max_jobs} concurrent jobs, scale {scale})");
    if let Some(path) = &addr_file {
        if let Err(e) = std::fs::write(path, local.to_string()) {
            eprintln!("writing --addr-file {} failed: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // Serve until the process is killed; jobs run on their own threads.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_job(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let Some(action) = argv.next() else {
        return usage();
    };
    let mut addr =
        std::env::var("CLINFL_ADMIN_ADDR").unwrap_or_else(|_| "127.0.0.1:8790".to_string());
    let mut file: Option<std::path::PathBuf> = None;
    let mut id: Option<u64> = None;
    let mut follow = false;
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--addr" => match argv.next() {
                Some(a) => addr = a,
                None => return usage(),
            },
            "--file" => match argv.next() {
                Some(f) => file = Some(f.into()),
                None => return usage(),
            },
            "--id" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(n) => id = Some(n),
                None => return usage(),
            },
            "--follow" => follow = true,
            _ => return usage(),
        }
    }
    match action.as_str() {
        "submit" => {
            let config = match &file {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(text) => text,
                    Err(e) => {
                        eprintln!("reading {} failed: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    let mut text = String::new();
                    if std::io::stdin().read_to_string(&mut text).is_err() {
                        eprintln!("reading job config from stdin failed");
                        return ExitCode::FAILURE;
                    }
                    text
                }
            };
            report(http_request(&addr, "POST", "/jobs", &config))
        }
        "list" => report(http_request(&addr, "GET", "/jobs", "")),
        "abort" => {
            let Some(id) = id else { return usage() };
            report(http_request(
                &addr,
                "POST",
                &format!("/jobs/{id}/abort"),
                "",
            ))
        }
        "metrics" => {
            let Some(id) = id else { return usage() };
            if !follow {
                return report(http_request(
                    &addr,
                    "GET",
                    &format!("/jobs/{id}/metrics"),
                    "",
                ));
            }
            // Follow the NDJSON stream, printing each snapshot line as
            // it arrives (chunk framing lines are skipped).
            let mut stream = match TcpStream::connect(&addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("request failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if write!(
                stream,
                "GET /jobs/{id}/metrics/stream HTTP/1.1\r\nHost: clinfl\r\nConnection: close\r\n\r\n"
            )
            .is_err()
            {
                eprintln!("request failed");
                return ExitCode::FAILURE;
            }
            let reader = BufReader::new(stream);
            let mut saw_line = false;
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if line.starts_with('{') {
                    saw_line = true;
                    println!("{line}");
                }
            }
            if saw_line {
                ExitCode::SUCCESS
            } else {
                eprintln!("no metrics received (unknown job id?)");
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

/// Parses the next argument as a flag value (`usage` on a missing or
/// malformed one).
fn value<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>) -> Result<T, ExitCode> {
    argv.next().and_then(|v| v.parse().ok()).ok_or_else(usage)
}

/// Reports an out-of-range flag value with exit code 2.
fn invalid(msg: String) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().cloned() else {
        return Err(usage());
    };
    // The scale picks the base config every other flag edits, wherever it
    // appears on the line.
    let scale = match argv.iter().position(|a| a == "--scale") {
        Some(i) => value(&mut argv[i + 1..].iter().cloned())?,
        None => 16,
    };
    let mut args = Args {
        command,
        scale,
        model: ModelSpec::Lstm,
        scheme: MlmScheme::Centralized,
        balanced: false,
        echo: false,
        dirichlet: None,
        cfg: PipelineConfig::scaled(scale),
    };
    let (mut tree_depth, mut tree_fanout) = (0u32, 8usize);
    let cfg = &mut args.cfg;
    let fed = &mut cfg.federation;
    let mut argv = argv.into_iter().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--scale" => {
                argv.next();
            }
            "--model" => {
                args.model = match argv.next().as_deref() {
                    Some("lstm") => ModelSpec::Lstm,
                    Some("bert") => ModelSpec::Bert,
                    Some("bert-mini") | Some("bert_mini") => ModelSpec::BertMini,
                    _ => return Err(usage()),
                }
            }
            "--scheme" => {
                args.scheme = match argv.next().as_deref() {
                    Some("centralized") => MlmScheme::Centralized,
                    Some("small") => MlmScheme::SmallData,
                    Some("fl-imbalanced") => MlmScheme::FlImbalanced,
                    Some("fl-balanced") => MlmScheme::FlBalanced,
                    _ => return Err(usage()),
                }
            }
            "--balanced" => args.balanced = true,
            "--echo" => args.echo = true,
            "--dirichlet" => args.dirichlet = Some(value(&mut argv)?),
            "--checkpoint-dir" => fed.checkpoint_dir = Some(value(&mut argv)?),
            "--resume" => {
                fed.checkpoint_dir = Some(value(&mut argv)?);
                fed.resume = true;
            }
            "--retain" => fed.retain_checkpoints = Some(value(&mut argv)?),
            "--wire-codec" => {
                let spec: String = value(&mut argv)?;
                fed.wire = CodecSpec::parse(&spec)
                    .map_err(|e| invalid(format!("invalid wire codec: {e}")))?;
            }
            "--tree-depth" => tree_depth = value(&mut argv)?,
            "--tree-fanout" => tree_fanout = value(&mut argv)?,
            "--sample-fraction" => {
                let f: f64 = value(&mut argv)?;
                if f <= 0.0 || f.is_nan() {
                    return Err(invalid(format!(
                        "--sample-fraction must be positive, got {f}"
                    )));
                }
                fed.sag.client_sample_fraction = f;
            }
            "--dp-clip" => cfg.dp_clip = Some(value(&mut argv)?),
            "--dp-sigma" => cfg.dp_sigma = value(&mut argv)?,
            "--dp-delta" => cfg.dp_delta = value(&mut argv)?,
            "--fedprox-mu" => cfg.fedprox_mu = Some(value(&mut argv)?),
            "--personalize-epochs" => cfg.personalize_epochs = value(&mut argv)?,
            _ => return Err(usage()),
        }
    }
    // Depth <= 1 leaves `tree` unset, so `CLINFL_TREE` still applies.
    if tree_depth >= 2 {
        fed.tree = Some(TreeConfig {
            depth: tree_depth,
            fanout: tree_fanout.max(2),
        });
    }
    if let Err(e) = cfg.dp_params() {
        return Err(invalid(format!("invalid DP config: {e}")));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The serve/job subcommands have their own flag sets; dispatch
    // before the training-pipeline parser sees the argv.
    {
        let mut argv = std::env::args().skip(1);
        match argv.next().as_deref() {
            Some("serve") => return cmd_serve(argv),
            Some("job") => return cmd_job(argv),
            _ => {}
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let cfg = &args.cfg;
    if let Some(tree) = cfg.federation.tree {
        println!(
            "aggregation tree: depth {} fan-out {}",
            tree.depth, tree.fanout
        );
    }
    if !cfg.federation.wire.is_raw() {
        println!("wire codec: {}", cfg.federation.wire);
    }
    println!(
        "clinfl: {} at scale {} ({} patients, seq {}, {} sites)",
        args.command, args.scale, cfg.cohort.n_patients, cfg.seq_len, cfg.federation.n_clients
    );
    match args.command.as_str() {
        "centralized" => {
            let out = drivers::train_centralized(cfg, args.model);
            for (i, (loss, acc)) in out.history.iter().enumerate() {
                println!(
                    "epoch {:>3}: train_loss={loss:.3} valid_acc={acc:.3}",
                    i + 1
                );
            }
            println!(
                "{} centralized top-1 accuracy: {:.1}%",
                args.model,
                100.0 * out.accuracy
            );
        }
        "standalone" => {
            let out = drivers::train_standalone(cfg, args.model);
            for (i, acc) in out.per_site.iter().enumerate() {
                println!("site-{}: {:.1}%", i + 1, 100.0 * acc);
            }
            println!(
                "{} standalone mean accuracy: {:.1}%",
                args.model,
                100.0 * out.mean_accuracy
            );
        }
        "federated" => {
            let partitioner = if let Some(alpha) = args.dirichlet {
                if alpha <= 0.0 || alpha.is_nan() {
                    eprintln!("--dirichlet alpha must be positive, got {alpha}");
                    return ExitCode::from(2);
                }
                clinfl_data::SitePartitioner::Dirichlet {
                    n_sites: cfg.federation.n_clients,
                    alpha,
                }
            } else if args.balanced {
                cfg.balanced_partitioner()
            } else {
                cfg.imbalanced_partitioner()
            };
            let log = if args.echo {
                EventLog::echoing()
            } else {
                EventLog::new()
            };
            match drivers::train_federated_with(cfg, args.model, &partitioner, log) {
                Ok(out) => {
                    for (i, (loss, acc)) in out.history.iter().enumerate() {
                        println!(
                            "round {:>3}: mean_train_loss={loss:.3} global_valid_acc={acc:.3}",
                            i + 1
                        );
                    }
                    println!(
                        "{} federated top-1 accuracy: {:.1}%",
                        args.model,
                        100.0 * out.accuracy
                    );
                    if let Some((eps, delta)) = out.privacy {
                        println!("differential privacy: (ε = {eps:.3}, δ = {delta:.0e})");
                    }
                    if let Some(mean) = out.personalized_mean {
                        for (i, acc) in out.personalized_per_site.iter().enumerate() {
                            println!("personalized site-{}: {:.1}%", i + 1, 100.0 * acc);
                        }
                        println!("personalized mean accuracy: {:.1}%", 100.0 * mean);
                    }
                }
                Err(e) => {
                    eprintln!("federation failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "pretrain" => {
            let data = drivers::build_mlm_data(cfg);
            println!(
                "corpus: {} train / {} valid, vocab {}",
                data.train.len(),
                data.valid.len(),
                data.vocab_size
            );
            match drivers::pretrain_mlm(cfg, args.scheme, &data) {
                Ok(curve) => {
                    print!("{} MLM valid loss:", args.scheme);
                    for v in &curve {
                        print!(" {v:.3}");
                    }
                    println!();
                }
                Err(e) => {
                    eprintln!("pretraining failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "table3" => match experiments::run_table3(cfg) {
            Ok(table) => println!("{table}"),
            Err(e) => {
                eprintln!("table3 failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        "fig2" => match experiments::run_fig2(cfg) {
            Ok(fig) => println!("{fig}"),
            Err(e) => {
                eprintln!("fig2 failed: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
