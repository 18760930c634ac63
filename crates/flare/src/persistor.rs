//! Global-model persistence (NVFlare's "persist model on server" step,
//! visible in the paper's Fig. 3 round log).
//!
//! All files land through [`crate::checkpoint`]'s atomic tmp+rename
//! writer with a CRC trailer, so a crash mid-save can never truncate a
//! previously good snapshot. On construction, [`FilePersistor`] scans its
//! directory and rebuilds `best()`/`latest()`/`load_checkpoint()` from
//! whatever valid files survive, skipping (and reporting) corrupt ones —
//! the recovery half of the crash-safe resume story in `DESIGN.md`.

use crate::checkpoint::{load_weights_file, save_weights_file, RunCheckpoint, RUN_CHECKPOINT_FILE};
use crate::dxo::Weights;
use crate::log::EventLog;
use crate::FlareError;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Stores global model snapshots per round and tracks the best one.
pub trait Persistor: Send {
    /// Persists the round's aggregated model and its validation metric (if
    /// the workflow validated it).
    fn save(&mut self, round: u32, weights: &Weights, metric: Option<f64>);

    /// The best model saved so far (highest metric; falls back to latest
    /// when no metrics were reported).
    fn best(&self) -> Option<(Weights, Option<f64>)>;

    /// The most recently saved model.
    fn latest(&self) -> Option<Weights>;

    /// Persists the full run-loop state after a round so a crashed run can
    /// resume at round *k+1*. Default: no durable run state.
    fn save_checkpoint(&mut self, _ckpt: &RunCheckpoint) {}

    /// The most recent [`RunCheckpoint`] this persistor holds (saved this
    /// run or recovered from disk), if any.
    fn load_checkpoint(&self) -> Option<RunCheckpoint> {
        None
    }
}

/// Keeps snapshots in memory (simulator default).
#[derive(Debug, Default)]
pub struct InMemoryPersistor {
    latest: Option<Weights>,
    best: Option<(Weights, f64)>,
    ckpt: Option<RunCheckpoint>,
}

impl InMemoryPersistor {
    /// Creates an empty persistor.
    pub fn new() -> Self {
        InMemoryPersistor::default()
    }
}

impl Persistor for InMemoryPersistor {
    fn save(&mut self, _round: u32, weights: &Weights, metric: Option<f64>) {
        self.latest = Some(weights.clone());
        if let Some(m) = metric {
            let better = self.best.as_ref().map(|(_, b)| m > *b).unwrap_or(true);
            if better {
                self.best = Some((weights.clone(), m));
            }
        }
    }

    fn best(&self) -> Option<(Weights, Option<f64>)> {
        match (&self.best, &self.latest) {
            (Some((w, m)), _) => Some((w.clone(), Some(*m))),
            (None, Some(w)) => Some((w.clone(), None)),
            (None, None) => None,
        }
    }

    fn latest(&self) -> Option<Weights> {
        self.latest.clone()
    }

    fn save_checkpoint(&mut self, ckpt: &RunCheckpoint) {
        self.ckpt = Some(ckpt.clone());
    }

    fn load_checkpoint(&self) -> Option<RunCheckpoint> {
        self.ckpt.clone()
    }
}

/// Name of the exclusive writer-lock file a [`FilePersistor`] holds in
/// its directory while alive.
pub const LOCK_FILE: &str = ".lock";

/// Persists each round's model to `<dir>/round_<n>.cfw` using the wire
/// codec, plus `best.cfw` (the paper's "obtaining optimal global models")
/// and the `run.cfc` run-state checkpoint. Every write is atomic
/// (tmp+rename, CRC trailer); construction recovers state from an
/// existing directory.
///
/// Construction also takes an exclusive lock file (`.lock`, holding the
/// writer's pid) and refuses to open a directory another live writer
/// holds — two concurrent runs silently interleaving `round_*.cfw`
/// files would corrupt both resume stories. A lock left behind by a
/// crashed (dead-pid) process is stolen with a warning.
#[derive(Debug)]
pub struct FilePersistor {
    dir: PathBuf,
    memory: InMemoryPersistor,
    log: EventLog,
    /// Keep at most this many `round_<n>.cfw` files (oldest pruned first);
    /// `None` keeps everything. `best.cfw`/`run.cfc` are never pruned.
    retain: Option<usize>,
    /// Round numbers of the `round_<n>.cfw` files currently on disk.
    saved_rounds: Vec<u32>,
    /// Paths already warned about, so a persistently failing disk logs
    /// once per path instead of once per round.
    warned: BTreeSet<PathBuf>,
    /// `best.cfw` recovered from disk when no checkpoint recorded its
    /// metric (the metric is lost; the weights are not).
    recovered_best: Option<Weights>,
    /// The held `.lock` path, removed on drop.
    lock: Option<PathBuf>,
}

/// Whether `pid` names a live process. Linux reads `/proc`; elsewhere
/// there is no dependency-free oracle, so a foreign-pid lock is treated
/// as stale (same-process duplicates are still caught by the pid-match
/// check, which does not need an oracle).
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

impl FilePersistor {
    /// Creates the directory if needed, takes the exclusive writer lock,
    /// and recovers any state a previous run left behind: leftover
    /// `*.tmp*` files are removed, then `run.cfc`, `best.cfw`, and the
    /// `round_<n>.cfw` files are loaded (CRC-verified); corrupt files are
    /// skipped, warned about, and counted in `flare.persist.corrupt`.
    ///
    /// # Errors
    ///
    /// [`FlareError::Checkpoint`] if another live writer already holds
    /// the directory's `.lock`; the I/O error if the directory cannot be
    /// created or read.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, FlareError> {
        std::fs::create_dir_all(dir.as_ref())?;
        let mut p = FilePersistor {
            dir: dir.as_ref().to_path_buf(),
            memory: InMemoryPersistor::new(),
            log: EventLog::new(),
            retain: None,
            saved_rounds: Vec::new(),
            warned: BTreeSet::new(),
            recovered_best: None,
            lock: None,
        };
        p.acquire_lock()?;
        p.recover()?;
        Ok(p)
    }

    /// Creates `<dir>/.lock` exclusively (pid inside). An existing lock
    /// from a live process — including this one: a second persistor on
    /// the same directory in-process — is a hard error; a dead holder's
    /// lock is stolen with a warning.
    fn acquire_lock(&mut self) -> Result<(), FlareError> {
        use std::io::Write;
        let path = self.dir.join(LOCK_FILE);
        // Bounded retry: stealing a stale lock races other stealers, and
        // losing that race must re-examine the fresh lock, not spin.
        for _ in 0..8 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    let _ = write!(f, "{}", std::process::id());
                    self.lock = Some(path);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid == std::process::id() || pid_alive(pid) => {
                            return Err(FlareError::Checkpoint(format!(
                                "checkpoint directory {:?} already has a live writer \
                                 (pid {pid} holds {LOCK_FILE}); two runs must not share \
                                 one checkpoint directory — give each job its own",
                                self.dir
                            )));
                        }
                        _ => {
                            // Dead pid (or unreadable content from a crash
                            // mid-write): the holder is gone, steal it.
                            self.log.warn(
                                "FilePersistor",
                                format!(
                                    "stealing stale lock in {:?} (holder {} is gone)",
                                    self.dir,
                                    holder.map_or("unknown".into(), |p| p.to_string())
                                ),
                            );
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Err(FlareError::Checkpoint(format!(
            "could not acquire {LOCK_FILE} in {:?}: lost the steal race repeatedly",
            self.dir
        )))
    }

    /// Routes recovery/persistence warnings into a shared run log.
    pub fn with_log(mut self, log: EventLog) -> Self {
        self.log = log;
        self
    }

    /// Keeps at most `keep` per-round snapshots on disk, pruning the
    /// oldest first. `best.cfw` and `run.cfc` are never pruned.
    pub fn with_retention(mut self, keep: usize) -> Self {
        self.retain = Some(keep.max(1));
        self.prune();
        self
    }

    /// The directory this persistor writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn report_corrupt(&self, path: &Path, err: &FlareError) {
        clinfl_obs::add_counter("flare.persist.corrupt", 1);
        self.log.warn(
            "FilePersistor",
            format!("skipping unusable checkpoint file {path:?}: {err}"),
        );
    }

    /// Scans the directory and rebuilds in-memory state from valid files.
    fn recover(&mut self) -> Result<(), FlareError> {
        // A crash can strand `<name>.tmp<pid>` files; they were never
        // renamed into place, so they are garbage by construction.
        let mut round_files: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.contains(".tmp") {
                let _ = std::fs::remove_file(entry.path());
            } else if let Some(n) = name
                .strip_prefix("round_")
                .and_then(|s| s.strip_suffix(".cfw"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                round_files.push(n);
            }
        }
        round_files.sort_unstable();

        let ckpt_path = self.dir.join(RUN_CHECKPOINT_FILE);
        if ckpt_path.exists() {
            match RunCheckpoint::load(&ckpt_path) {
                Ok(ckpt) => self.memory.ckpt = Some(ckpt),
                Err(e) => self.report_corrupt(&ckpt_path, &e),
            }
        }

        let best_path = self.dir.join("best.cfw");
        if best_path.exists() {
            match load_weights_file(&best_path) {
                Ok(w) => {
                    // The checkpoint remembers which metric best.cfw won
                    // with; without it the weights survive metric-less.
                    match self.memory.ckpt.as_ref().and_then(|c| c.best_metric) {
                        Some(m) => self.memory.best = Some((w, m)),
                        None => self.recovered_best = Some(w),
                    }
                }
                Err(e) => self.report_corrupt(&best_path, &e),
            }
        }

        // Latest = the highest-numbered round file that still validates.
        for &n in round_files.iter().rev() {
            let path = self.dir.join(format!("round_{n}.cfw"));
            match load_weights_file(&path) {
                Ok(w) => {
                    self.memory.latest = Some(w);
                    break;
                }
                Err(e) => self.report_corrupt(&path, &e),
            }
        }
        self.saved_rounds = round_files;
        if self.memory.ckpt.is_some() || self.memory.latest.is_some() {
            self.log.info(
                "FilePersistor",
                format!(
                    "recovered state from {:?}: {} round file(s){}",
                    self.dir,
                    self.saved_rounds.len(),
                    self.memory
                        .ckpt
                        .as_ref()
                        .map(|c| format!(", run checkpoint at round {}", c.next_round))
                        .unwrap_or_default()
                ),
            );
        }
        Ok(())
    }

    fn write(&mut self, name: &str, weights: &Weights) {
        let path = self.dir.join(name);
        // Persistence failures must not abort a training run, but they are
        // no longer silent: counted, and warned once per path.
        if let Err(e) = save_weights_file(&path, weights) {
            clinfl_obs::add_counter("flare.persist.errors", 1);
            if self.warned.insert(path.clone()) {
                self.log.warn(
                    "FilePersistor",
                    format!("failed to persist {path:?}: {e} (further failures counted only)"),
                );
            }
        }
    }

    fn prune(&mut self) {
        let Some(keep) = self.retain else { return };
        while self.saved_rounds.len() > keep {
            let oldest = self.saved_rounds.remove(0);
            let _ = std::fs::remove_file(self.dir.join(format!("round_{oldest}.cfw")));
        }
    }
}

impl Drop for FilePersistor {
    fn drop(&mut self) {
        // Release the writer lock; a failed remove (directory already
        // gone) leaves a stale lock the next writer will steal.
        if let Some(lock) = self.lock.take() {
            let _ = std::fs::remove_file(lock);
        }
    }
}

impl Persistor for FilePersistor {
    fn save(&mut self, round: u32, weights: &Weights, metric: Option<f64>) {
        self.write(&format!("round_{round}.cfw"), weights);
        if self.saved_rounds.last() != Some(&round) {
            self.saved_rounds.push(round);
        }
        self.prune();
        let prev_best = self.memory.best.as_ref().map(|(_, m)| *m);
        self.memory.save(round, weights, metric);
        let is_new_best = match (metric, prev_best) {
            (Some(m), Some(b)) => m > b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if is_new_best {
            self.write("best.cfw", weights);
            self.recovered_best = None;
        }
    }

    fn best(&self) -> Option<(Weights, Option<f64>)> {
        match (self.memory.best(), &self.recovered_best) {
            (Some((w, m)), _) if m.is_some() => Some((w, m)),
            (_, Some(w)) => Some((w.clone(), None)),
            (other, None) => other,
        }
    }

    fn latest(&self) -> Option<Weights> {
        self.memory.latest()
    }

    fn save_checkpoint(&mut self, ckpt: &RunCheckpoint) {
        let path = self.dir.join(RUN_CHECKPOINT_FILE);
        if let Err(e) = ckpt.save(&path) {
            clinfl_obs::add_counter("flare.persist.errors", 1);
            if self.warned.insert(path.clone()) {
                self.log.warn(
                    "FilePersistor",
                    format!("failed to persist {path:?}: {e} (further failures counted only)"),
                );
            }
        }
        self.memory.save_checkpoint(ckpt);
    }

    fn load_checkpoint(&self) -> Option<RunCheckpoint> {
        self.memory.load_checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dxo::WeightTensor;

    fn w(v: f32) -> Weights {
        let mut m = Weights::new();
        m.insert("p".into(), WeightTensor::new(vec![2], vec![v, v]));
        m
    }

    fn dir(test: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("clinfl-pers-{test}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn ckpt(next_round: u32, best_metric: Option<f64>) -> RunCheckpoint {
        RunCheckpoint {
            seed: 7,
            next_round,
            total_rounds: 4,
            global: w(next_round as f32),
            rounds: vec![],
            best_metric,
            best_round: best_metric.map(|_| next_round.saturating_sub(1)),
            tree_depth: 0,
            tree_fanout: 0,
            spec: String::new(),
        }
    }

    #[test]
    fn in_memory_tracks_best_and_latest() {
        let mut p = InMemoryPersistor::new();
        assert!(p.best().is_none());
        p.save(0, &w(1.0), Some(0.5));
        p.save(1, &w(2.0), Some(0.9));
        p.save(2, &w(3.0), Some(0.7));
        assert_eq!(p.latest().unwrap()["p"].data, vec![3.0, 3.0]);
        let (best, m) = p.best().unwrap();
        assert_eq!(best["p"].data, vec![2.0, 2.0]);
        assert_eq!(m, Some(0.9));
    }

    #[test]
    fn in_memory_without_metrics_falls_back_to_latest() {
        let mut p = InMemoryPersistor::new();
        p.save(0, &w(1.0), None);
        let (best, m) = p.best().unwrap();
        assert_eq!(best["p"].data, vec![1.0, 1.0]);
        assert_eq!(m, None);
    }

    #[test]
    fn file_persistor_roundtrips() {
        let d = dir("roundtrip");
        let mut p = FilePersistor::new(&d).unwrap();
        p.save(0, &w(4.0), Some(0.8));
        p.save(1, &w(5.0), Some(0.6));
        let loaded = load_weights_file(d.join("round_0.cfw")).unwrap();
        assert_eq!(loaded["p"].data, vec![4.0, 4.0]);
        let best = load_weights_file(d.join("best.cfw")).unwrap();
        assert_eq!(best["p"].data, vec![4.0, 4.0]);
        let latest = p.latest().unwrap();
        assert_eq!(latest["p"].data, vec![5.0, 5.0]);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn restart_recovers_best_latest_and_checkpoint() {
        let d = dir("restart");
        {
            let mut p = FilePersistor::new(&d).unwrap();
            p.save(0, &w(1.0), Some(0.9));
            p.save(1, &w(2.0), Some(0.4));
            p.save_checkpoint(&ckpt(2, Some(0.9)));
        } // "crash": the persistor is dropped, memory is gone
        let p = FilePersistor::new(&d).unwrap();
        assert_eq!(p.latest().unwrap()["p"].data, vec![2.0, 2.0]);
        let (best, m) = p.best().unwrap();
        assert_eq!(best["p"].data, vec![1.0, 1.0]);
        assert_eq!(m, Some(0.9));
        let c = p.load_checkpoint().unwrap();
        assert_eq!(c.next_round, 2);
        assert_eq!(c.best_metric, Some(0.9));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn restart_without_checkpoint_recovers_metricless_best() {
        let d = dir("no-ckpt");
        {
            let mut p = FilePersistor::new(&d).unwrap();
            p.save(0, &w(3.0), Some(0.7));
        }
        std::fs::remove_file(d.join(RUN_CHECKPOINT_FILE)).ok();
        let p = FilePersistor::new(&d).unwrap();
        assert!(p.load_checkpoint().is_none());
        let (best, m) = p.best().unwrap();
        assert_eq!(best["p"].data, vec![3.0, 3.0]);
        assert_eq!(m, None, "metric was only in the checkpoint");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn recovery_skips_corrupt_files_and_reports_them() {
        let d = dir("corrupt");
        let log = EventLog::new();
        {
            let mut p = FilePersistor::new(&d).unwrap();
            p.save(0, &w(1.0), Some(0.5));
            p.save(1, &w(2.0), Some(0.8));
            p.save_checkpoint(&ckpt(2, Some(0.8)));
        }
        // Strip the newest round file's CRC trailer (a torn or pre-CRC
        // file) and flip a bit in the run checkpoint.
        let round_1 = d.join("round_1.cfw");
        let bytes = std::fs::read(&round_1).unwrap();
        std::fs::write(&round_1, &bytes[..bytes.len() - 8]).unwrap();
        let path = d.join(RUN_CHECKPOINT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let p = FilePersistor::new(&d).unwrap().with_log(log.clone());
        // Corrupt checkpoint skipped; latest falls back to round_0.
        assert!(p.load_checkpoint().is_none());
        assert_eq!(p.latest().unwrap()["p"].data, vec![1.0, 1.0]);
        // best.cfw is intact but its metric lived in the (corrupt)
        // checkpoint, so it comes back metric-less.
        let (best, m) = p.best().unwrap();
        assert_eq!(best["p"].data, vec![2.0, 2.0]);
        assert_eq!(m, None);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn leftover_tmp_files_are_cleaned() {
        let d = dir("tmp-clean");
        std::fs::create_dir_all(&d).unwrap();
        std::fs::write(d.join("round_0.cfw.tmp123"), b"partial").unwrap();
        let _ = FilePersistor::new(&d).unwrap();
        assert!(!d.join("round_0.cfw.tmp123").exists());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn retention_prunes_oldest_round_files_only() {
        let d = dir("retain");
        let mut p = FilePersistor::new(&d).unwrap().with_retention(2);
        for r in 0..5 {
            p.save(r, &w(r as f32), Some(f64::from(r)));
        }
        assert!(!d.join("round_0.cfw").exists());
        assert!(!d.join("round_2.cfw").exists());
        assert!(d.join("round_3.cfw").exists());
        assert!(d.join("round_4.cfw").exists());
        assert!(d.join("best.cfw").exists(), "best is never pruned");
        // Recovery respects what retention left behind.
        drop(p);
        let p = FilePersistor::new(&d).unwrap();
        assert_eq!(p.latest().unwrap()["p"].data, vec![4.0, 4.0]);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn second_writer_on_same_dir_is_refused() {
        let d = dir("lock-refuse");
        let first = FilePersistor::new(&d).unwrap();
        let err = FilePersistor::new(&d).expect_err("second writer must be refused");
        let msg = err.to_string();
        assert!(
            msg.contains("live writer") && msg.contains(&std::process::id().to_string()),
            "unhelpful lock error: {msg}"
        );
        // Releasing the first writer frees the directory for the next.
        drop(first);
        let _ = FilePersistor::new(&d).expect("lock released on drop");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn stale_lock_from_dead_process_is_stolen() {
        let d = dir("lock-stale");
        std::fs::create_dir_all(&d).unwrap();
        // No live process has pid 0 (the kernel's idle task on Linux has
        // no /proc entry), so this lock reads as a crashed holder.
        std::fs::write(d.join(LOCK_FILE), "0").unwrap();
        let p = FilePersistor::new(&d).expect("stale lock must be stolen");
        let held = std::fs::read_to_string(d.join(LOCK_FILE)).unwrap();
        assert_eq!(held.trim(), std::process::id().to_string());
        drop(p);
        assert!(!d.join(LOCK_FILE).exists(), "lock removed on drop");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn write_failures_are_counted_not_fatal() {
        let d = dir("write-fail");
        let log = EventLog::new();
        let mut p = FilePersistor::new(&d).unwrap().with_log(log.clone());
        let before = clinfl_obs::counter_value("flare.persist.errors");
        std::fs::remove_dir_all(&d).unwrap(); // yank the disk out
        p.save(0, &w(1.0), Some(0.5));
        p.save(1, &w(2.0), Some(0.9));
        assert!(clinfl_obs::counter_value("flare.persist.errors") > before);
        // In-memory state still advances, so the run itself is unharmed.
        assert_eq!(p.latest().unwrap()["p"].data, vec![2.0, 2.0]);
        assert!(log.contains("failed to persist"));
    }
}
