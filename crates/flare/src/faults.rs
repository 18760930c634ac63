//! Deterministic fault injection for the transport layer.
//!
//! NVFlare's own positioning paper ("Federated Learning from Simulation to
//! Real-World") calls out client dropouts and flaky links as the gap
//! between simulator runs and production deployments. This module closes
//! that gap for the `clinfl` runtime: a [`FaultPlan`] wraps a
//! [`Connection`] so every frame consults a seeded decision function
//! before it moves — frames can be **dropped**, **delayed**, or
//! **truncated**, and whole clients can be **crashed** mid-round.
//!
//! Decisions depend only on `(seed, site, direction, frame sequence
//! number)`, never on wall-clock time or thread scheduling, so two runs
//! with the same plan inject byte-identical fault sequences. That is what
//! lets the chaos tests (and CI) assert fault events reproduce run-to-run.
//!
//! Frame `0` of each direction is exempt: it carries the plaintext
//! registration handshake, and a federation that cannot even join is not
//! an interesting chaos scenario.

use crate::log::EventLog;
use crate::transport::{Connection, FrameRx, FrameTx};
use crate::FlareError;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// What happens to one unlucky frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame is silently discarded (lost packet).
    Drop,
    /// The frame is held back for the plan's delay before delivery.
    Delay,
    /// The frame is cut to half its length (corrupted link); the secure
    /// channel's MAC check rejects it at the receiver.
    Truncate,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Truncate => "truncate",
        })
    }
}

/// A seeded fault profile. Rates are per-mille (`200` = 20% of frames).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the per-frame decision hash.
    pub seed: u64,
    /// Fraction of frames silently dropped, in per-mille.
    pub drop_permille: u16,
    /// Fraction of frames truncated in transit, in per-mille.
    pub truncate_permille: u16,
    /// Fraction of frames delayed, in per-mille.
    pub delay_permille: u16,
    /// How long a delayed frame is held back.
    pub delay: Duration,
    /// Mid-round client crashes: 0-based site index → round at which that
    /// client stops responding (no goodbye).
    pub crash_at: BTreeMap<usize, u32>,
}

impl FaultConfig {
    /// A plan that injects nothing (the default everywhere).
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            drop_permille: 0,
            truncate_permille: 0,
            delay_permille: 0,
            delay: Duration::ZERO,
            crash_at: BTreeMap::new(),
        }
    }

    /// A light profile: 5% drops, 2% truncations, 10% small delays.
    pub fn mild(seed: u64) -> Self {
        FaultConfig {
            seed,
            drop_permille: 50,
            truncate_permille: 20,
            delay_permille: 100,
            delay: Duration::from_millis(5),
            crash_at: BTreeMap::new(),
        }
    }

    /// The chaos profile the CI gate runs: ≥20% of frames lost (20%
    /// dropped outright plus 6% truncated), 15% delayed, and two
    /// mid-round client crashes (site index 5 at round 1, index 6 at
    /// round 2).
    pub fn aggressive(seed: u64) -> Self {
        let mut crash_at = BTreeMap::new();
        crash_at.insert(5, 1);
        crash_at.insert(6, 2);
        FaultConfig {
            seed,
            drop_permille: 200,
            truncate_permille: 60,
            delay_permille: 150,
            delay: Duration::from_millis(10),
            crash_at,
        }
    }

    /// Looks up a named profile (`none`, `mild`, `aggressive`).
    pub fn profile(name: &str, seed: u64) -> Option<Self> {
        match name {
            "none" | "" => Some(FaultConfig::none()),
            "mild" => Some(FaultConfig::mild(seed)),
            "aggressive" => Some(FaultConfig::aggressive(seed)),
            _ => None,
        }
    }

    /// Parses the text form [`Display`](fmt::Display) prints: `none`, or
    /// comma-separated items — an optional leading profile name (`mild`,
    /// `aggressive`) as the base, then `seed:N`, the per-mille rates
    /// `drop:N`, `truncate:N` and `delay:N`, `delay_ms:MS`, and one
    /// `crash:SITE@ROUND` per scheduled crash (0-based site index).
    ///
    /// # Errors
    ///
    /// A message naming the malformed item.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut items = s.split(',').map(str::trim).peekable();
        let base = items.peek().and_then(|p| FaultConfig::profile(p, 0));
        let mut cfg = match base {
            Some(profile) => {
                items.next();
                profile
            }
            None => FaultConfig::none(),
        };
        for item in items {
            let bad = || format!("bad fault item {item:?}");
            let (name, value) = item.split_once(':').ok_or_else(bad)?;
            let permille = || match value.parse::<u16>() {
                Ok(p) if p <= 1000 => Ok(p),
                _ => Err(format!(
                    "{name} rate {value:?} is not a per-mille in 0..=1000"
                )),
            };
            match name {
                "seed" => cfg.seed = value.parse().map_err(|_| bad())?,
                "drop" => cfg.drop_permille = permille()?,
                "truncate" => cfg.truncate_permille = permille()?,
                "delay" => cfg.delay_permille = permille()?,
                "delay_ms" => cfg.delay = crate::spec::parse_duration(value, crate::spec::MS)?,
                "crash" => {
                    let (site, round) = value.split_once('@').ok_or_else(bad)?;
                    let site = site.parse().map_err(|_| bad())?;
                    cfg.crash_at.insert(site, round.parse().map_err(|_| bad())?);
                }
                _ => return Err(bad()),
            }
        }
        Ok(cfg)
    }

    /// True when the plan can actually do something.
    pub fn is_active(&self) -> bool {
        self.drop_permille > 0
            || self.truncate_permille > 0
            || self.delay_permille > 0
            || !self.crash_at.is_empty()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// The canonical text form [`FaultConfig::parse`] reads back: `none`, or
/// every field as `seed:…,drop:…,truncate:…,delay:…,delay_ms:…` followed
/// by the crashes in site order.
impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == FaultConfig::none() {
            return f.write_str("none");
        }
        write!(
            f,
            "seed:{},drop:{},truncate:{},delay:{},delay_ms:{}",
            self.seed,
            self.drop_permille,
            self.truncate_permille,
            self.delay_permille,
            crate::spec::format_duration(self.delay, crate::spec::MS)
        )?;
        for (site, round) in &self.crash_at {
            write!(f, ",crash:{site}@{round}")?;
        }
        Ok(())
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A live fault plan: the config plus the [`EventLog`] every injected
/// fault is recorded in (component `FaultInjector`), so chaos runs stay
/// auditable.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    log: EventLog,
}

impl FaultPlan {
    /// Creates a plan over a shared log.
    pub fn new(config: FaultConfig, log: EventLog) -> Self {
        FaultPlan { config, log }
    }

    /// The underlying profile.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The round at which the site with this 0-based index crashes, if
    /// the plan schedules one.
    pub fn crash_round(&self, site_index: usize) -> Option<u32> {
        self.config.crash_at.get(&site_index).copied()
    }

    /// The schedule-independent verdict for frame `seq` of `site`'s
    /// `dir` lane (`c2s` or `s2c`). Frame 0 (registration) is exempt.
    pub fn decide(&self, site: &str, dir: &str, seq: u64) -> Option<FaultKind> {
        if seq == 0 || !self.config.is_active() {
            return None;
        }
        let mut h = self.config.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in site.bytes().chain(dir.bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        h ^= seq.wrapping_mul(0xD1B5_4A32_D192_ED03);
        let roll = (splitmix64(h) % 1000) as u16;
        let c = &self.config;
        if roll < c.drop_permille {
            Some(FaultKind::Drop)
        } else if roll < c.drop_permille + c.truncate_permille {
            Some(FaultKind::Truncate)
        } else if roll < c.drop_permille + c.truncate_permille + c.delay_permille {
            Some(FaultKind::Delay)
        } else {
            None
        }
    }

    /// Wraps both halves of a connection with fault-injecting shims. A
    /// plan that is not [`FaultConfig::is_active`] returns the connection
    /// untouched.
    pub fn wrap(&self, site: &str, conn: Connection) -> Connection {
        if !self.config.is_active() {
            return conn;
        }
        Connection {
            tx: Box::new(FaultyTx {
                inner: conn.tx,
                lane: Lane::new(self.clone(), site, "c2s"),
            }),
            rx: Box::new(FaultyRx {
                inner: conn.rx,
                lane: Lane::new(self.clone(), site, "s2c"),
            }),
        }
    }
}

/// One direction of one wrapped connection: counts frames and records
/// every injected fault.
struct Lane {
    plan: FaultPlan,
    site: String,
    dir: &'static str,
    seq: u64,
}

impl Lane {
    fn new(plan: FaultPlan, site: &str, dir: &'static str) -> Self {
        Lane {
            plan,
            site: site.to_string(),
            dir,
            seq: 0,
        }
    }

    /// Advances the frame counter and returns the verdict for this frame,
    /// logging any injection.
    fn next(&mut self, frame_len: usize) -> Option<FaultKind> {
        let seq = self.seq;
        self.seq += 1;
        let fault = self.plan.decide(&self.site, self.dir, seq);
        if let Some(kind) = fault {
            self.plan.log.warn(
                "FaultInjector",
                format!(
                    "{} {}#{seq}: injected {kind} ({frame_len}B frame)",
                    self.site, self.dir
                ),
            );
            // Mirror every injection log line as an obs counter so log
            // and metrics views of a chaos run always agree.
            clinfl_obs::add_counter(&format!("flare.faults.{kind}"), 1);
        }
        fault
    }
}

struct FaultyTx {
    inner: Box<dyn FrameTx>,
    lane: Lane,
}

impl FrameTx for FaultyTx {
    fn send(&mut self, frame: &[u8]) -> Result<(), FlareError> {
        match self.lane.next(frame.len()) {
            Some(FaultKind::Drop) => Ok(()), // lost in transit; sender can't tell
            Some(FaultKind::Truncate) => self.inner.send(&frame[..frame.len() / 2]),
            Some(FaultKind::Delay) => {
                std::thread::sleep(self.lane.plan.config.delay);
                self.inner.send(frame)
            }
            None => self.inner.send(frame),
        }
    }
}

struct FaultyRx {
    inner: Box<dyn FrameRx>,
    lane: Lane,
}

impl FrameRx for FaultyRx {
    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, FlareError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let frame = self.inner.recv(remaining)?;
            match self.lane.next(frame.len()) {
                Some(FaultKind::Drop) => continue, // lost; keep waiting
                Some(FaultKind::Truncate) => return Ok(frame[..frame.len() / 2].to_vec()),
                Some(FaultKind::Delay) => {
                    std::thread::sleep(self.lane.plan.config.delay);
                    return Ok(frame);
                }
                None => return Ok(frame),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::in_proc_pair;

    fn plan(config: FaultConfig) -> FaultPlan {
        FaultPlan::new(config, EventLog::new())
    }

    #[test]
    fn decisions_are_deterministic_and_exempt_registration() {
        let p = plan(FaultConfig::aggressive(7));
        for seq in 0..200 {
            assert_eq!(
                p.decide("site-3", "c2s", seq),
                p.decide("site-3", "c2s", seq)
            );
        }
        assert_eq!(p.decide("site-1", "c2s", 0), None);
        assert_eq!(p.decide("site-1", "s2c", 0), None);
    }

    #[test]
    fn aggressive_rates_land_near_nominal() {
        let p = plan(FaultConfig::aggressive(42));
        let mut drops = 0;
        let n = 10_000;
        for seq in 1..=n {
            if matches!(
                p.decide("site-2", "s2c", seq),
                Some(FaultKind::Drop | FaultKind::Truncate)
            ) {
                drops += 1;
            }
        }
        let rate = f64::from(drops) / f64::from(n as u32);
        // Nominal loss rate is 26% (20% drop + 6% truncate).
        assert!((0.2..0.32).contains(&rate), "loss rate {rate}");
    }

    #[test]
    fn lanes_differ_by_site_and_direction() {
        let p = plan(FaultConfig::aggressive(42));
        let verdicts =
            |site: &str, dir: &str| (1..500).map(|s| p.decide(site, dir, s)).collect::<Vec<_>>();
        assert_ne!(verdicts("site-1", "c2s"), verdicts("site-2", "c2s"));
        assert_ne!(verdicts("site-1", "c2s"), verdicts("site-1", "s2c"));
    }

    #[test]
    fn inactive_plan_is_passthrough() {
        let p = plan(FaultConfig::none());
        let (a, mut b) = in_proc_pair();
        let mut a = p.wrap("site-1", a);
        a.tx.send(b"one").unwrap();
        a.tx.send(b"two").unwrap();
        assert_eq!(b.rx.recv(Duration::from_millis(200)).unwrap(), b"one");
        assert_eq!(b.rx.recv(Duration::from_millis(200)).unwrap(), b"two");
    }

    #[test]
    fn always_drop_loses_everything_after_registration() {
        let cfg = FaultConfig {
            drop_permille: 1000,
            ..FaultConfig::mild(1)
        };
        let log = EventLog::new();
        let p = FaultPlan::new(cfg, log.clone());
        let (a, mut b) = in_proc_pair();
        let mut a = p.wrap("site-1", a);
        a.tx.send(b"register").unwrap(); // frame 0 is exempt
        a.tx.send(b"payload").unwrap(); // dropped
        assert_eq!(b.rx.recv(Duration::from_millis(100)).unwrap(), b"register");
        assert!(matches!(
            b.rx.recv(Duration::from_millis(50)),
            Err(FlareError::Timeout)
        ));
        assert!(log.contains("injected drop"));
    }

    #[test]
    fn truncated_frames_arrive_halved() {
        let cfg = FaultConfig {
            drop_permille: 0,
            truncate_permille: 1000,
            delay_permille: 0,
            ..FaultConfig::mild(1)
        };
        let p = plan(cfg);
        let (a, mut b) = in_proc_pair();
        let mut a = p.wrap("site-1", a);
        a.tx.send(b"register").unwrap();
        a.tx.send(&[9u8; 64]).unwrap();
        b.rx.recv(Duration::from_millis(100)).unwrap();
        assert_eq!(b.rx.recv(Duration::from_millis(100)).unwrap().len(), 32);
    }

    #[test]
    fn rx_drop_keeps_waiting_within_deadline() {
        let cfg = FaultConfig {
            drop_permille: 1000,
            ..FaultConfig::mild(1)
        };
        let p = plan(cfg);
        let (mut a, b) = in_proc_pair();
        let mut b = p.wrap("site-1", b);
        a.tx.send(b"first").unwrap(); // rx frame 0: exempt
        a.tx.send(b"second").unwrap(); // rx frame 1: dropped on receive
        assert_eq!(b.rx.recv(Duration::from_millis(100)).unwrap(), b"first");
        let start = Instant::now();
        assert!(matches!(
            b.rx.recv(Duration::from_millis(80)),
            Err(FlareError::Timeout)
        ));
        assert!(start.elapsed() >= Duration::from_millis(70));
    }

    #[test]
    fn profiles_resolve_by_name() {
        assert_eq!(FaultConfig::profile("none", 1), Some(FaultConfig::none()));
        assert_eq!(FaultConfig::profile("mild", 2), Some(FaultConfig::mild(2)));
        assert_eq!(
            FaultConfig::profile("aggressive", 3),
            Some(FaultConfig::aggressive(3))
        );
        assert_eq!(FaultConfig::profile("chaotic-evil", 1), None);
        assert!(!FaultConfig::none().is_active());
        assert!(FaultConfig::aggressive(1).is_active());
        assert_eq!(FaultConfig::aggressive(1).crash_at.len(), 2);
    }

    #[test]
    fn text_form_round_trips_and_starts_from_profiles() {
        for cfg in [
            FaultConfig::none(),
            FaultConfig::mild(9),
            FaultConfig::aggressive(3),
        ] {
            assert_eq!(FaultConfig::parse(&cfg.to_string()), Ok(cfg));
        }
        assert_eq!(
            FaultConfig::aggressive(3).to_string(),
            "seed:3,drop:200,truncate:60,delay:150,delay_ms:10,crash:5@1,crash:6@2"
        );
        assert_eq!(
            FaultConfig::parse("aggressive, seed:3"),
            Ok(FaultConfig::aggressive(3))
        );
        assert_eq!(
            FaultConfig::parse("mild,drop:0").map(|c| c.drop_permille),
            Ok(0)
        );
        assert!(FaultConfig::parse("seed:3,mild").is_err());
        assert!(FaultConfig::parse("drop:1001").is_err());
    }

    #[test]
    fn crash_rounds_surface_through_plan() {
        let p = plan(FaultConfig::aggressive(1));
        assert_eq!(p.crash_round(5), Some(1));
        assert_eq!(p.crash_round(6), Some(2));
        assert_eq!(p.crash_round(0), None);
    }
}
