//! Crash-safe checkpointing for the federated run-loop.
//!
//! Real NVFlare survives server restarts through job snapshots ("NVIDIA
//! FLARE: Federated Learning from Simulation to Real-World", §job
//! persistence); this module is the equivalent for the `clinfl` runtime.
//! It provides three layers:
//!
//! 1. **Atomic, verified files** — [`atomic_write_with_crc`] writes to a
//!    temporary file in the same directory, fsyncs, then renames over the
//!    destination, and appends an 8-byte CRC trailer
//!    (`"CFC1"` + CRC-32 of the body). [`read_with_crc`] validates the
//!    trailer on load, so a torn write can never masquerade as a valid
//!    checkpoint: either the old file survives intact or the new one is
//!    complete. A file without the `"CFC1"` trailer is refused as torn.
//! 2. **Weights files** — [`save_weights_file`] / [`load_weights_file`]
//!    move a [`Weights`] map through that format (the `.cfw` files the
//!    [`crate::persistor::FilePersistor`] writes).
//! 3. **Run state** — [`RunCheckpoint`] captures everything the
//!    [`crate::controller::ScatterAndGather`] loop needs to restart at
//!    round *k+1* after a crash: the round cursor, the aggregated global
//!    weights, every completed [`RoundSummary`] (contributors, per-site
//!    metrics, drop/quorum bookkeeping), the run seed, the best-metric
//!    state, and the run's spec text (so a resume under a different spec
//!    is refused). It rides the same wire codec as every federated
//!    message and carries an explicit schema version; a checkpoint of any
//!    other version is refused with an error naming it instead of being
//!    misparsed.

use crate::controller::RoundSummary;
use crate::dxo::Weights;
use crate::wire::{WireDecode, WireEncode, WireReader};
use crate::FlareError;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Schema version written into every [`RunCheckpoint`]; decoding refuses
/// any other. Version 2 added the aggregation-tree topology
/// (`tree_depth`/`tree_fanout`) and version 3 the run's spec text.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 3;

/// Marker that precedes the CRC-32 value in the 8-byte file trailer.
pub const CRC_TRAILER_MAGIC: [u8; 4] = *b"CFC1";

/// Default file name for the run-state checkpoint inside a checkpoint
/// directory.
pub const RUN_CHECKPOINT_FILE: &str = "run.cfc";

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE 802.3 polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Writes `body` plus a CRC trailer to `path` atomically: the bytes land
/// in a `.tmp` sibling first, are fsynced, and only then renamed over the
/// destination. A crash at any instant leaves either the previous file
/// untouched or the complete new one — never a truncated mix.
///
/// # Errors
///
/// Propagates I/O failures (the temporary file is cleaned up best-effort).
pub fn atomic_write_with_crc(path: impl AsRef<Path>, body: &[u8]) -> Result<(), FlareError> {
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| FlareError::Checkpoint(format!("invalid checkpoint path {path:?}")))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp{}", std::process::id()));
    let result = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body)?;
        f.write_all(&CRC_TRAILER_MAGIC)?;
        f.write_all(&crc32(body).to_le_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // Durability of the rename itself requires fsyncing the directory;
        // best-effort, since not every platform allows opening a directory.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(FlareError::Io)
}

/// Reads a file written by [`atomic_write_with_crc`], validates the CRC
/// trailer, and returns the body.
///
/// # Errors
///
/// [`FlareError::Io`] on read failure, [`FlareError::Checkpoint`] on a
/// missing trailer or a CRC mismatch (torn or bit-flipped file).
pub fn read_with_crc(path: impl AsRef<Path>) -> Result<Vec<u8>, FlareError> {
    let path = path.as_ref();
    let mut buf = std::fs::read(path)?;
    let n = buf.len();
    if n < 8 || buf[n - 8..n - 4] != CRC_TRAILER_MAGIC {
        return Err(FlareError::Checkpoint(format!(
            "no CFC1 trailer in {path:?} (torn write)"
        )));
    }
    let stored = u32::from_le_bytes(buf[n - 4..].try_into().expect("4-byte slice"));
    let computed = crc32(&buf[..n - 8]);
    if stored != computed {
        return Err(FlareError::Checkpoint(format!(
            "CRC mismatch in {path:?}: stored {stored:#010x}, computed {computed:#010x} \
             (torn or corrupted write)"
        )));
    }
    buf.truncate(n - 8);
    Ok(buf)
}

/// Saves weights to `path` atomically in the framed wire format with a
/// CRC trailer (`.cfw`).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn save_weights_file(path: impl AsRef<Path>, weights: &Weights) -> Result<(), FlareError> {
    atomic_write_with_crc(path, &weights.to_frame())
}

/// Loads and verifies weights previously written by [`save_weights_file`].
///
/// # Errors
///
/// I/O, CRC, or codec errors on truncated / corrupt files.
pub fn load_weights_file(path: impl AsRef<Path>) -> Result<Weights, FlareError> {
    let body = read_with_crc(path)?;
    Weights::from_frame(&body)
}

/// Everything the ScatterAndGather loop needs to resume after a crash.
#[derive(Clone, Debug, PartialEq)]
pub struct RunCheckpoint {
    /// The run seed the checkpoint was produced under; a resume with a
    /// different seed is refused (its fault/data schedule would diverge).
    pub seed: u64,
    /// The next round to execute (one past the last completed round).
    pub next_round: u32,
    /// Total rounds `E` of the run that wrote the checkpoint.
    pub total_rounds: u32,
    /// Aggregated global weights after round `next_round - 1`.
    pub global: Weights,
    /// Summaries of every completed round (contributors, per-site
    /// metrics, and drop/quorum bookkeeping).
    pub rounds: Vec<RoundSummary>,
    /// Best global validation metric seen so far, if any round validated.
    pub best_metric: Option<f64>,
    /// Round that produced `best_metric`.
    pub best_round: Option<u32>,
    /// Aggregation-tree depth the run was using (`0` = flat fleet). A
    /// resume restores the same topology so the fault/data schedule and
    /// aggregation order match the interrupted run.
    pub tree_depth: u32,
    /// Fan-out of each aggregation-tree node (`0` = flat fleet).
    pub tree_fanout: u32,
    /// The effective spec the run was started under (canonical `key =
    /// value` text, see [`crate::spec`]); a resume under a spec that
    /// differs in a non-exempt key is refused. Empty when the writer
    /// recorded none (a controller built without
    /// [`crate::controller::ScatterAndGather::with_spec`]).
    pub spec: String,
}

impl RunCheckpoint {
    /// Saves the checkpoint atomically (tmp + rename, CRC trailer).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), FlareError> {
        atomic_write_with_crc(path, &self.to_frame())
    }

    /// Loads and verifies a checkpoint written by [`RunCheckpoint::save`].
    ///
    /// # Errors
    ///
    /// I/O errors, CRC mismatches, unknown schema versions, and codec
    /// errors on malformed bodies.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, FlareError> {
        let body = read_with_crc(path)?;
        RunCheckpoint::from_frame(&body)
    }
}

impl WireEncode for RoundSummary {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.contributors.encode(out);
        self.client_metrics.encode(out);
        self.global_metric.encode(out);
        self.dropped.encode(out);
    }
}

impl WireDecode for RoundSummary {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        Ok(RoundSummary {
            round: u32::decode(r)?,
            contributors: Vec::decode(r)?,
            client_metrics: BTreeMap::decode(r)?,
            global_metric: Option::decode(r)?,
            dropped: Vec::decode(r)?,
        })
    }
}

impl WireEncode for RunCheckpoint {
    fn encode(&self, out: &mut Vec<u8>) {
        CHECKPOINT_SCHEMA_VERSION.encode(out);
        self.seed.encode(out);
        self.next_round.encode(out);
        self.total_rounds.encode(out);
        self.global.encode(out);
        self.rounds.encode(out);
        self.best_metric.encode(out);
        self.best_round.encode(out);
        self.tree_depth.encode(out);
        self.tree_fanout.encode(out);
        self.spec.encode(out);
    }
}

impl WireDecode for RunCheckpoint {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        let version = u32::decode(r)?;
        if version != CHECKPOINT_SCHEMA_VERSION {
            return Err(FlareError::Checkpoint(format!(
                "unsupported checkpoint schema version {version} \
                 (this build reads version {CHECKPOINT_SCHEMA_VERSION})"
            )));
        }
        Ok(RunCheckpoint {
            seed: u64::decode(r)?,
            next_round: u32::decode(r)?,
            total_rounds: u32::decode(r)?,
            global: BTreeMap::decode(r)?,
            rounds: Vec::decode(r)?,
            best_metric: Option::decode(r)?,
            best_round: Option::decode(r)?,
            tree_depth: u32::decode(r)?,
            tree_fanout: u32::decode(r)?,
            spec: String::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dxo::WeightTensor;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("clinfl-ckpt-{tag}-{}", std::process::id()))
    }

    fn weights(v: f32) -> Weights {
        let mut w = Weights::new();
        w.insert("p".into(), WeightTensor::new(vec![3], vec![v; 3]));
        w
    }

    fn checkpoint() -> RunCheckpoint {
        RunCheckpoint {
            seed: 2023,
            next_round: 3,
            total_rounds: 5,
            global: weights(1.5),
            rounds: vec![RoundSummary {
                round: 2,
                contributors: vec!["site-1".into(), "site-2".into()],
                client_metrics: {
                    let mut site = BTreeMap::new();
                    site.insert("train_loss".to_string(), 0.5);
                    let mut m = BTreeMap::new();
                    m.insert("site-1".to_string(), site);
                    m
                },
                global_metric: Some(0.75),
                dropped: vec!["site-3".into()],
            }],
            best_metric: Some(0.75),
            best_round: Some(2),
            tree_depth: 2,
            tree_fanout: 4,
            spec: "aggregator = WeightedFedAvg\nclients = 8\ntree = 2x4\n".into(),
        }
    }

    /// A hand-built body of an older schema: the v3 fields minus the
    /// spec text, and for v1 minus the tree pair too. Nothing writes
    /// these any more.
    fn legacy_body(version: u32, ckpt: &RunCheckpoint) -> Vec<u8> {
        let mut body = crate::wire::FRAME_MAGIC.to_vec();
        version.encode(&mut body);
        ckpt.seed.encode(&mut body);
        ckpt.next_round.encode(&mut body);
        ckpt.total_rounds.encode(&mut body);
        ckpt.global.encode(&mut body);
        ckpt.rounds.encode(&mut body);
        ckpt.best_metric.encode(&mut body);
        ckpt.best_round.encode(&mut body);
        if version >= 2 {
            ckpt.tree_depth.encode(&mut body);
            ckpt.tree_fanout.encode(&mut body);
        }
        body
    }

    fn assert_refused_naming_version(version: u32) {
        let err = RunCheckpoint::from_frame(&legacy_body(version, &checkpoint())).unwrap_err();
        assert!(
            matches!(err, FlareError::Checkpoint(_))
                && err
                    .to_string()
                    .contains(&format!("schema version {version} ")),
            "error should name version {version}: {err}"
        );
    }

    #[test]
    fn v1_checkpoint_is_refused_naming_its_version() {
        assert_refused_naming_version(1);
    }

    #[test]
    fn v2_checkpoint_is_refused_naming_its_version() {
        assert_refused_naming_version(2);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn run_checkpoint_roundtrips_through_disk() {
        let path = tmp_path("roundtrip");
        let ckpt = checkpoint();
        ckpt.save(&path).unwrap();
        assert_eq!(RunCheckpoint::load(&path).unwrap(), ckpt);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = tmp_path("truncated");
        checkpoint().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut mid-body: the trailer disappears, which marks a torn write.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = RunCheckpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, FlareError::Checkpoint(_)) && err.to_string().contains("trailer"),
            "unexpected error {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_fails_crc_with_useful_error() {
        let path = tmp_path("bitflip");
        checkpoint().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = RunCheckpoint::load(&path).unwrap_err();
        assert!(
            err.to_string().contains("CRC mismatch"),
            "error should name the CRC check: {err}"
        );
    }

    #[test]
    fn unknown_schema_version_rejected() {
        let path = tmp_path("schema");
        let mut body = crate::wire::FRAME_MAGIC.to_vec();
        (CHECKPOINT_SCHEMA_VERSION + 1).encode(&mut body);
        atomic_write_with_crc(&path, &body).unwrap();
        let err = RunCheckpoint::load(&path).unwrap_err();
        assert!(
            err.to_string().contains("schema version"),
            "error should name the schema version: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weights_file_without_trailer_is_refused_as_torn() {
        let path = tmp_path("legacy");
        // A well-formed frame with no trailer: the pre-CRC format.
        std::fs::write(&path, weights(4.0).to_frame()).unwrap();
        let err = load_weights_file(&path).unwrap_err();
        assert!(
            matches!(err, FlareError::Checkpoint(_)) && err.to_string().contains("torn"),
            "unexpected error {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weights_file_roundtrips_and_rejects_corruption() {
        let path = tmp_path("weights");
        let w = weights(2.5);
        save_weights_file(&path, &w).unwrap();
        assert_eq!(load_weights_file(&path).unwrap(), w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_weights_file(&path).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        assert!(load_weights_file(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_weights_file_is_an_io_error() {
        let err = load_weights_file(tmp_path("never-written")).unwrap_err();
        assert!(matches!(err, FlareError::Io(_)), "{err}");
    }

    #[test]
    fn failed_write_leaves_no_tmp_and_old_file_intact() {
        let dir = tmp_path("atomic-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cfw");
        save_weights_file(&path, &weights(1.0)).unwrap();
        // Writing into a directory that has vanished must fail cleanly...
        let gone = dir.join("missing-subdir").join("model.cfw");
        assert!(save_weights_file(&gone, &weights(2.0)).is_err());
        // ...while the original file still verifies and no tmp junk exists.
        assert_eq!(load_weights_file(&path).unwrap(), weights(1.0));
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
