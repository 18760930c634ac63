//! `clinfl` — command-line front end for the clinical federated-learning
//! pipeline.
//!
//! ```text
//! clinfl centralized --model lstm --scale 16
//! clinfl standalone  --model bert-mini --scale 16
//! clinfl federated   --model lstm --scale 16 [--balanced] [--echo]
//!                    [--dirichlet A] [--fedprox-mu M] [--personalize-epochs N]
//!                    [--resume D] [--<spec key> VALUE ...]
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
//! Federation flags are the keys of the spec grammar
//! (`clinfl_flare::spec`, the `key = value` lines of a `clinfl serve` job)
//! as `--<key> VALUE`: `--clients 4`, `--codec delta+topk0.05+int8`
//! (DESIGN.md §3g), `--tree 2x3` (depth-2, fan-out-3 aggregation tree,
//! DESIGN.md §3h), `--sample-fraction 0.5`, `--dp clip:1,sigma:0.8`
//! (DP-SGD: clip each site's update to L2 norm 1, add Gaussian noise
//! 0.8·1, and print the cumulative (ε, δ) at `delta` (default 1e-5) at
//! the end), `--checkpoint-dir D`, `--retain N`, … (`--wire-codec` and
//! dashes for underscores are aliases). `--resume D` resumes the run
//! checkpointed in `D` under the same spec, bar `rounds` and the
//! checkpoint keys.
//!
//! Scenario knobs (DESIGN.md §3k): `--dirichlet A` draws the site
//! partition from a symmetric Dirichlet(α) (lower α = more quantity
//! skew); `--fedprox-mu M` adds the FedProx proximal term; and
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
use clinfl_flare::jobs::JobRuntime;
use clinfl_flare::spec::SPEC_KEYS;
use clinfl_flare::EventLog;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;

#[derive(Debug)]
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
    let keys: String = SPEC_KEYS
        .iter()
        .map(|k| format!(" [--{} {}]", k.name, k.hint))
        .collect();
    eprintln!(
        "usage: clinfl <centralized|standalone|federated|pretrain|table3|fig2> \
         [--scale N] [--model lstm|bert|bert-mini] [--scheme centralized|small|fl-imbalanced|fl-balanced] \
         [--balanced] [--dirichlet A] [--echo] [--resume D] [--fedprox-mu M] [--personalize-epochs N]\n\
         \x20      federation (spec keys):{keys}\n\
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

/// Old flag names of spec keys (every other key is its own flag, with
/// dashes for underscores accepted too).
const FLAG_ALIASES: [(&str, &str); 1] = [("wire_codec", "codec")];

fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value {v:?}"))
}

/// Parses `argv` (without the program name). Federation flags go through
/// the spec grammar; `Err` carries the message to print before exiting
/// with status 2.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or("missing command")?;
    // The scale picks the base config every other flag edits, wherever it
    // appears on the line.
    let scale = match argv.iter().position(|a| a == "--scale") {
        Some(i) => num("--scale", argv.get(i + 1).map_or("", String::as_str))?,
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
    let cfg = &mut args.cfg;
    let mut argv = argv[1..].iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--balanced" => args.balanced = true,
            "--echo" => args.echo = true,
            "--scale" => _ = value()?,
            "--model" => {
                args.model = match value()?.as_str() {
                    "lstm" => ModelSpec::Lstm,
                    "bert" => ModelSpec::Bert,
                    "bert-mini" | "bert_mini" => ModelSpec::BertMini,
                    other => return Err(format!("unknown model {other:?}")),
                }
            }
            "--scheme" => {
                args.scheme = match value()?.as_str() {
                    "centralized" => MlmScheme::Centralized,
                    "small" => MlmScheme::SmallData,
                    "fl-imbalanced" => MlmScheme::FlImbalanced,
                    "fl-balanced" => MlmScheme::FlBalanced,
                    other => return Err(format!("unknown scheme {other:?}")),
                }
            }
            "--dirichlet" => args.dirichlet = Some(num(flag, value()?)?),
            "--fedprox-mu" => cfg.fedprox_mu = Some(num(flag, value()?)?),
            "--personalize-epochs" => cfg.personalize_epochs = num(flag, value()?)?,
            "--resume" => {
                cfg.federation.apply("checkpoint_dir", value()?)?;
                cfg.federation.resume = true;
            }
            _ => {
                let key = flag
                    .strip_prefix("--")
                    .ok_or_else(|| format!("unexpected argument {flag:?}"))?
                    .replace('-', "_");
                let key = FLAG_ALIASES
                    .iter()
                    .find(|(alias, _)| *alias == key)
                    .map_or(key.as_str(), |(_, k)| k);
                cfg.federation.apply(key, value()?)?;
            }
        }
    }
    cfg.federation.validate()?;
    if let Some(alpha) = args.dirichlet.filter(|a| a.is_nan() || *a <= 0.0) {
        return Err(format!("--dirichlet alpha must be positive, got {alpha}"));
    }
    // The paper's imbalanced ratios define exactly 8 sites.
    let imbalanced = match args.command.as_str() {
        "federated" => !args.balanced && args.dirichlet.is_none(),
        "pretrain" => args.scheme == MlmScheme::FlImbalanced,
        "centralized" => false,
        _ => true,
    };
    if imbalanced && cfg.federation.n_clients != 8 {
        return Err(format!(
            "clinfl {} splits data by the paper's 8-site imbalanced ratios; \
             --clients {} needs `federated --balanced` or `--dirichlet A`",
            args.command, cfg.federation.n_clients
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The serve/job subcommands have their own flag sets; dispatch
    // before the training-pipeline parser sees the argv.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return cmd_serve(argv.into_iter().skip(1)),
        Some("job") => return cmd_job(argv.into_iter().skip(1)),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("clinfl: {msg}");
            return usage();
        }
    };
    let cfg = &args.cfg;
    println!(
        "federation spec: {}",
        cfg.federation.to_text().trim_end().replace('\n', "; ")
    );
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split(' ').map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn federation_flags_are_spec_keys() {
        let args = parse(
            "federated --balanced --clients 4 --wire-codec delta+int8 --tree 2x3 \
             --sample-fraction 0.5 --min_clients 2 --retain 3 --resume runs/a --dp clip:2",
        )
        .unwrap();
        let text = args.cfg.federation.to_text();
        for line in [
            "checkpoint_dir = runs/a",
            "clients = 4",
            "codec = delta+int8",
            "dp = clip:2,sigma:1,delta:0.00001",
            "min_clients = 2",
            "resume = true",
            "retain = 3",
            "sample_fraction = 0.5",
            "tree = 2x3",
        ] {
            assert!(
                text.contains(&format!("{line}\n")),
                "{line} missing from\n{text}"
            );
        }
    }

    #[test]
    fn out_of_range_values_exit_with_a_message() {
        for (line, what) in [
            ("federated --clients 4", "--balanced"),
            ("standalone --clients 4", "8-site"),
            ("federated --sample-fraction 0", "sample_fraction"),
            ("federated --sample-fraction NaN", "sample_fraction"),
            ("federated --balanced --clients 5000", "clients"),
            ("federated --tree-depth 2", "tree_depth"),
            ("federated --dp clip:-1", "invalid dp"),
            ("federated --dp-clip 1", "dp_clip"),
            ("federated --clients", "needs a value"),
            ("federated --dirichlet 0", "alpha"),
        ] {
            let msg = parse(line).unwrap_err();
            assert!(msg.contains(what), "{line}: {msg}");
        }
        assert!(parse("federated --clients 4 --dirichlet 0.5").is_ok());
    }
}
