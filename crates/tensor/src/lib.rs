//! # clinfl-tensor
//!
//! A pure-Rust, CPU-only `f32` tensor library with tape-based reverse-mode
//! automatic differentiation, built as the training substrate for the
//! `clinfl` reproduction of *"Multi-Site Clinical Federated Learning using
//! Recursive and Attentive Models and NVFlare"* (ICDCS 2023).
//!
//! The paper trains LSTM and BERT models with PyTorch on GPUs; this crate
//! replaces that stack with an equivalent set of mathematical operations so
//! the whole system is self-contained:
//!
//! * [`Tensor`] — dense row-major n-dimensional `f32` array.
//! * [`Graph`] / [`Var`] — a computation tape recording forward operations
//!   and replaying them in reverse for gradients (backpropagation, including
//!   backpropagation-through-time for the LSTM).
//! * [`Params`] — a named parameter store shared between models, optimizers
//!   and the federated-learning weight exchange.
//! * [`Adam`] — the optimizer (the paper uses Adam, lr = 1e-2).
//! * [`gradcheck`] — finite-difference gradient checking used heavily by the
//!   test-suite.
//!
//! ## Example
//!
//! ```
//! use clinfl_tensor::{Graph, Params, Tensor, Adam, Optimizer};
//!
//! // logits = tanh(x W) + b, loss = cross-entropy against class targets
//! let mut params = Params::new();
//! let w = params.register("w", Tensor::randn(&[4, 3], 0.5, 42));
//! let b = params.register("b", Tensor::zeros(&[3]));
//!
//! let mut adam = Adam::with_lr(1e-2);
//! let mut g = Graph::new();
//! for _ in 0..10 {
//!     g.reset(); // clear the tape, recycling last step's buffers
//!     let x = g.input(Tensor::ones(&[2, 4]));
//!     let wv = g.param(&params, w);
//!     let bv = g.param(&params, b);
//!     let h = g.matmul(x, wv);
//!     let h = g.tanh(h);
//!     let logits = g.add(h, bv);
//!     let loss = g.cross_entropy(logits, &[0, 2], -100);
//!     g.backward(loss);
//!     g.grads_into(&mut params);
//!     adam.step(&mut params);
//! }
//! assert!(params.value(w).data().iter().all(|v| v.is_finite()));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod arena;
mod attention;
mod error;
mod gradcheck_impl;
mod graph;
mod init;
pub mod kernels;
mod ops;
mod optim;
pub mod pool;
mod shape;
mod tensor;

pub use error::TensorError;
pub use gradcheck_impl::{gradcheck, GradCheckReport};
pub use graph::{Graph, Var};
pub use init::Init;
pub use optim::{Adam, AdamConfig, GradClip, LrSchedule, Optimizer, ParamId, Params};
pub use shape::{Shape, MAX_RANK};
pub use tensor::Tensor;
