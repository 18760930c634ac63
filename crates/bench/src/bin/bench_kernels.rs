//! Kernel-level perf gate: times the packed register-blocked GEMM
//! kernels (DESIGN.md §3j) against the retained naive references across
//! the matrix shapes the models run (the LSTM layer's input projection
//! and recurrence, BERT's packed Q|K|V and FFN projections and a
//! projection's weight gradient, the tied MLM decoder over the labelled
//! rows) and writes `BENCH_kernels.json`. The attention node's per-head
//! products run inside the node, not through these entry points, so they
//! are not timed here.
//!
//! `bench_kernels` takes no arguments. It times every shape case, writes
//! the report, and exits 1 if the aggregate packed-vs-reference speedup
//! over the matmul histogram (total reference time / total packed time,
//! weighted by the per-case FLOP-proportional iteration counts) is below
//! `MIN_SPEEDUP` (2.5). This is the CI leg that keeps the packed kernels'
//! win from silently evaporating.
//!
//! Each case alternates short repeats of its packed and reference loops
//! and keeps each side's fastest repeat, so a burst of noise on a shared
//! host slows one repeat of one side instead of a whole side, and the
//! aggregate does not flip on it.
//!
//! Both kernel families accumulate with `f32::mul_add`. The header
//! prints whether the build targets `fma`; without it every `mul_add` is
//! a libm call and the timings mean nothing, so the run exits 1.
//!
//! Both kernels run on the same thread budget (whatever the pool grants;
//! single-threaded on a 1-core CI box, where the references were serial
//! anyway), so the gate measures kernel quality, not parallelism.

use clinfl_obs::json::Value;
use clinfl_tensor::kernels;
use std::time::Instant;

/// Schema identifier stamped into every report. Since v3 a case's
/// `iters` count one repeat and its `packed_ms` / `ref_ms` are each
/// kernel's fastest repeat.
const SCHEMA: &str = "clinfl-bench-kernels/v3";

/// Enforced floor on the aggregate matmul-histogram speedup.
const MIN_SPEEDUP: f64 = 2.5;

/// Where the report lands (a CI upload artifact; nothing reads it back).
const OUT: &str = "BENCH_kernels.json";

/// Timed repeats per (case, kernel); the two kernels alternate.
const REPEATS: u64 = 5;

/// Target measurement time per packed repeat, in ns: the repeats of a
/// case together take about as long as one 150 ms loop.
const TARGET_NS: u64 = 150_000_000 / REPEATS;

/// Which GEMM variant a case exercises.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// `c += a·b`.
    Matmul,
    /// `c += aᵀ·b` (weight-gradient shape).
    AtB,
    /// `c += a·bᵀ` (input-gradient / tied-decoder shape).
    ABt,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Matmul => "matmul",
            Kind::AtB => "matmul_at_b",
            Kind::ABt => "matmul_a_bt",
        }
    }
}

/// One timed shape: an `m×k · k×n` product (for `AtB`, `k` is the
/// contraction rows; for `ABt`, the product is `m×k · (n×k)ᵀ` with
/// contraction `k`).
struct Case {
    name: &'static str,
    kind: Kind,
    m: usize,
    k: usize,
    n: usize,
}

/// The models' hot shapes: LSTM hidden 128 / batch 32 / seq_len 26 (one
/// `[S·B, H]×[H, 4H]` projection per layer, then a `[B, H]×[H, 4H]`
/// recurrence per step whose weight gradient contracts over the
/// `(S−1)·B = 800` carried rows), BERT hidden 128 / 6 heads × head_dim
/// 22 = attention width 132 / seq_len 26 / batch 16 (416 rows), vocab 443,
/// about 40 labelled MLM positions per batch.
fn cases() -> Vec<Case> {
    let c = |name, kind, m, k, n| Case {
        name,
        kind,
        m,
        k,
        n,
    };
    vec![
        // LSTM: the input projection over every timestep, then the
        // per-step recurrence h·W_h, its input gradient dz·W_hᵀ and its
        // weight gradient over all carried rows.
        c("lstm_proj", Kind::Matmul, 832, 128, 512),
        c("lstm_rec", Kind::Matmul, 32, 128, 512),
        c("lstm_rec_dh", Kind::ABt, 32, 512, 128),
        c("lstm_rec_dw", Kind::AtB, 128, 800, 512),
        // BERT: the packed Q|K|V and the FFN projections over all
        // batch·seq rows, and the Q|K|V weight gradient contracting over
        // all 416 rows.
        c("bert_qkv", Kind::Matmul, 416, 128, 396),
        c("bert_ffn", Kind::Matmul, 416, 128, 256),
        c("bert_qkv_dw", Kind::AtB, 128, 416, 396),
        // Tied MLM decoder: h·Eᵀ over the vocab for the labelled rows.
        c("mlm_decoder", Kind::ABt, 40, 128, 443),
    ]
}

/// Deterministic pseudo-random fill (xorshift) — no RNG dependency, and
/// every run times identical data.
fn fill(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *v = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
}

/// Sizes of (a, b, c) for a case.
fn buffer_sizes(c: &Case) -> (usize, usize, usize) {
    match c.kind {
        Kind::Matmul => (c.m * c.k, c.k * c.n, c.m * c.n),
        Kind::AtB => (c.k * c.m, c.k * c.n, c.m * c.n),
        Kind::ABt => (c.m * c.k, c.n * c.k, c.m * c.n),
    }
}

/// Runs the packed (or reference) kernel once.
fn run_case(c: &Case, a: &[f32], b: &[f32], out: &mut [f32], reference: bool) {
    let (m, k, n) = (c.m, c.k, c.n);
    match (c.kind, reference) {
        (Kind::Matmul, false) => kernels::matmul_acc(a, b, out, m, k, n),
        (Kind::Matmul, true) => kernels::matmul_acc_ref(a, b, out, m, k, n),
        (Kind::AtB, false) => kernels::matmul_at_b_acc(a, b, out, m, k, n),
        (Kind::AtB, true) => kernels::matmul_at_b_acc_ref(a, b, out, m, k, n),
        (Kind::ABt, false) => kernels::matmul_a_bt_acc(a, b, out, m, k, n),
        (Kind::ABt, true) => kernels::matmul_a_bt_acc_ref(a, b, out, m, k, n),
    }
}

/// Times `iters` invocations; returns total ns.
fn time_case(c: &Case, a: &[f32], b: &[f32], out: &mut [f32], iters: u64, reference: bool) -> u64 {
    let started = Instant::now();
    for _ in 0..iters {
        run_case(c, a, b, out, reference);
    }
    started.elapsed().as_nanos() as u64
}

struct Outcome {
    case: Case,
    iters: u64,
    packed_ns: u64,
    ref_ns: u64,
}

impl Outcome {
    fn speedup(&self) -> f64 {
        self.ref_ns as f64 / self.packed_ns.max(1) as f64
    }

    fn gflops(&self) -> f64 {
        let c = &self.case;
        let flops_per_call = 2 * (c.m * c.k * c.n) as u64;
        flops_per_call as f64 * self.iters as f64 / self.packed_ns.max(1) as f64
    }
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: bench_kernels (takes no arguments)");
        std::process::exit(2);
    }
    let fma = cfg!(target_feature = "fma");
    println!("== bench_kernels: packed vs reference GEMM (target_feature fma: {fma}) ==");
    if !fma {
        eprintln!(
            "FAIL: this build does not target fma, so every f32::mul_add is a libm \
             call; build with .cargo/config.toml's x86-64-v3 (DESIGN.md §3j)"
        );
        std::process::exit(1);
    }
    let outcomes: Vec<Outcome> = cases().into_iter().map(time_both).collect();
    let packed_total: u64 = outcomes.iter().map(|o| o.packed_ns).sum();
    let ref_total: u64 = outcomes.iter().map(|o| o.ref_ns).sum();
    let aggregate = ref_total as f64 / packed_total.max(1) as f64;
    println!(
        "aggregate: packed {:.1} ms, reference {:.1} ms, speedup {aggregate:.2}x",
        packed_total as f64 / 1e6,
        ref_total as f64 / 1e6,
    );

    let report = build_report(&outcomes, packed_total, ref_total);
    std::fs::write(OUT, report.to_json()).expect("write report");
    println!("report written to {OUT}");

    if aggregate < MIN_SPEEDUP {
        eprintln!(
            "FAIL: packed GEMM speedup regressed: aggregate {aggregate:.2}x is below \
             the enforced {MIN_SPEEDUP}x floor (see DESIGN.md §3j)"
        );
        std::process::exit(1);
    }
    println!("OK: aggregate speedup {aggregate:.2}x >= {MIN_SPEEDUP}x");
}

/// Times one case: calibrates the per-repeat iteration count on the
/// packed kernel's fastest single call, then alternates `REPEATS` repeats of each kernel at that
/// count and keeps each kernel's fastest. The output buffer keeps
/// accumulating — harmless, the kernels are data-independent in cost —
/// and is re-zeroed between the timed loops only to bound value growth.
fn time_both(case: Case) -> Outcome {
    let (a_len, b_len, o_len) = buffer_sizes(&case);
    let mut a = vec![0.0f32; a_len];
    let mut b = vec![0.0f32; b_len];
    fill(&mut a, 0x9e37_79b9_7f4a_7c15 ^ a_len as u64);
    fill(&mut b, 0x2545_f491_4f6c_dd1d ^ b_len as u64);
    let mut o = vec![0.0f32; o_len];

    run_case(&case, &a, &b, &mut o, false);
    // The fastest of several single calls: the iteration counts weight the
    // aggregate, so a slow probe must not reweight it.
    let probe = (0..REPEATS)
        .map(|_| time_case(&case, &a, &b, &mut o, 1, false))
        .min()
        .unwrap_or(0)
        .max(1);
    let iters = (TARGET_NS / probe).clamp(1, 100_000);
    let (mut packed_ns, mut ref_ns) = (u64::MAX, u64::MAX);
    for _ in 0..REPEATS {
        for (reference, best) in [(false, &mut packed_ns), (true, &mut ref_ns)] {
            o.iter_mut().for_each(|v| *v = 0.0);
            *best = (*best).min(time_case(&case, &a, &b, &mut o, iters, reference));
        }
    }

    let outcome = Outcome {
        case,
        iters,
        packed_ns,
        ref_ns,
    };
    let c = &outcome.case;
    println!(
        "{:>12} {:>12} {:>3}x{:<3}x{:<3} {:>6} iters/repeat  packed {:>8.3} ms  \
         ref {:>8.3} ms  speedup {:>5.2}x  {:>6.2} GFLOP/s",
        c.name,
        c.kind.name(),
        c.m,
        c.k,
        c.n,
        iters,
        packed_ns as f64 / 1e6,
        ref_ns as f64 / 1e6,
        outcome.speedup(),
        outcome.gflops(),
    );
    outcome
}

fn build_report(outcomes: &[Outcome], packed_total: u64, ref_total: u64) -> Value {
    let cases: Vec<Value> = outcomes
        .iter()
        .map(|o| {
            let c = &o.case;
            Value::object(vec![
                ("name", Value::Str(c.name.to_string())),
                ("kernel", Value::Str(c.kind.name().to_string())),
                ("m", Value::UInt(c.m as u64)),
                ("k", Value::UInt(c.k as u64)),
                ("n", Value::UInt(c.n as u64)),
                ("iters", Value::UInt(o.iters)),
                ("packed_ms", Value::Float(o.packed_ns as f64 / 1e6)),
                ("ref_ms", Value::Float(o.ref_ns as f64 / 1e6)),
                ("speedup", Value::Float(o.speedup())),
                ("gflops", Value::Float(o.gflops())),
            ])
        })
        .collect();
    Value::object(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        (
            "run",
            Value::object(vec![
                ("workload", Value::Str("gemm-shapes".to_string())),
                ("repeats", Value::UInt(REPEATS)),
                (
                    "threads",
                    Value::UInt(clinfl_tensor::pool::num_threads() as u64),
                ),
            ]),
        ),
        ("cases", Value::Array(cases)),
        (
            "aggregate",
            Value::object(vec![
                ("packed_ms", Value::Float(packed_total as f64 / 1e6)),
                ("ref_ms", Value::Float(ref_total as f64 / 1e6)),
                (
                    "speedup",
                    Value::Float(ref_total as f64 / packed_total.max(1) as f64),
                ),
            ]),
        ),
    ])
}
