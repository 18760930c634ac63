//! # clinfl-flare
//!
//! A federated-learning runtime modelled on **NVFlare** (NVIDIA's FL
//! framework, v2.2 in the paper), built from scratch for the `clinfl`
//! reproduction of *"Multi-Site Clinical Federated Learning using Recursive
//! and Attentive Models and NVFlare"* (ICDCS 2023).
//!
//! It reproduces the pipeline of the paper's Fig. 1 and the run-loop its
//! Fig. 3 demonstrates:
//!
//! 1. **Provision** ([`provision`]) — a [`provision::Project`] is expanded
//!    into a server config and per-site packages carrying the registration
//!    *token* and key material (the paper's "preparation of public and
//!    secure keys").
//! 2. **Registration** — each client opens a transport, registers with its
//!    token, and establishes an encrypted session (toy Diffie–Hellman +
//!    stream cipher; see [`security`] for the explicit security caveat).
//! 3. **ScatterAndGather** ([`controller::ScatterAndGather`]) — for `E`
//!    communication rounds: broadcast global weights → local training on
//!    each site ([`executor::Executor`]) → gather updates → weighted
//!    aggregation ([`aggregator`]) → persist ([`persistor`]) → repeat.
//! 4. **Results** — the best global model and per-round metrics.
//!
//! The [`simulator::SimulatorRunner`] mirrors NVFlare's simulator mode used
//! in the paper (one process, one thread per site); its
//! [`simulator::SimulatorConfig`] has one `key = value` text form
//! ([`spec`]) that jobs, the CLI and checkpoints all share, while
//! [`transport::TcpTransport`] runs the identical byte protocol across real
//! sockets for multi-process deployments.
//!
//! Optional [`filters`] implement NVFlare's filter concept: differential-
//! privacy noise, magnitude pruning, and pairwise secure-aggregation masks.
//!
//! A seeded fault-injection layer ([`faults`]) can wrap any transport to
//! deterministically drop, delay, or truncate frames and crash clients
//! mid-round; the client retries with backoff and the controller closes
//! rounds on a `min_clients` quorum, so runs under aggressive faults still
//! complete (see the fault-tolerance section of `DESIGN.md`).
//!
//! The [`checkpoint`] module makes the persistence side crash-safe: every
//! file lands via atomic tmp+rename with a CRC trailer, and a
//! [`RunCheckpoint`] snapshot of the run-loop state lets
//! [`controller::ScatterAndGather`] resume at round *k+1* after a server
//! crash (see the checkpoint section of `DESIGN.md`).
//!
//! Weight exchange defaults to raw little-endian f32 tensors, but peers
//! can negotiate a compressed wire codec at registration ([`codec`]):
//! delta encoding against a ring of recent globals, f16/int8
//! quantization with error feedback, and top-k sparsification, each
//! frame guarded by a CRC-32 trailer. See DESIGN.md §3g for the
//! normative wire-format spec.
//!
//! The crate is model-agnostic: weights travel as named dense tensors
//! ([`Weights`]), so any training stack can plug in via the
//! [`executor::Executor`] trait.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod admin;
pub mod aggregator;
pub mod checkpoint;
pub mod client;
pub mod codec;
pub mod controller;
mod dxo;
mod error;
pub mod executor;
pub mod faults;
pub mod filters;
pub mod job;
pub mod jobs;
mod log;
pub mod messages;
pub mod persistor;
pub mod privacy;
pub mod provision;
pub mod reactor;
pub mod relay;
pub mod security;
pub mod server;
pub mod simulator;
pub mod spec;
pub mod transport;
pub mod wire;

pub use checkpoint::RunCheckpoint;
pub use dxo::{Dxo, DxoKind, WeightTensor, Weights};
pub use error::FlareError;
pub use log::{EventLog, LogEntry, LogLevel};
