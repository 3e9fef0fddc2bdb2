//! Crash-safe checkpoints for `harmonyd`.
//!
//! A [`Checkpoint`] carries everything needed to resurrect a daemon:
//! the controller configuration, the *source* the task classifier was
//! fitted from (a trace file with an integrity hash, or a synthetic
//! generator seed — the fit is deterministic, so the classifier is
//! rebuilt rather than serialized), the catalog spec, the
//! [`OnlineState`] (arrival histories, previous plan, tick counter,
//! pending degradation events), and any observations buffered but not
//! yet consumed by a tick.
//!
//! # Atomicity, integrity, and generations
//!
//! [`save_atomic`] wraps the serialized checkpoint in a CRC32-carrying
//! envelope (`{"crc32":N,"payload":{...}}`), writes it to `<path>.tmp`
//! (fsynced), rotates the current `<path>` to `<path>.1`, and then
//! `rename(2)`s the tmp over the target. On POSIX the renames are
//! atomic within a filesystem, so a reader — including a daemon
//! restarted after `kill -9` — sees either the previous complete
//! checkpoint or the new complete checkpoint, never a torn file. A
//! leftover `.tmp` after a crash is garbage: [`load_with_recovery`]
//! removes it (reporting [`RecoveryEvent::StaleTmpRemoved`]) and the
//! next save overwrites it regardless.
//!
//! The CRC covers the exact payload bytes inside the envelope, so
//! torn writes, truncation, and bit rot are all detected *before* any
//! JSON parse is attempted. When the primary fails verification,
//! [`load_with_recovery`] falls back to the `<path>.1` generation and
//! reports typed [`RecoveryEvent`]s instead of dying — the daemon
//! resumes from the last durable state rather than refusing to boot.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use harmony::classify::{ClassifierConfig, TaskClassifier};
use harmony::{HarmonyConfig, OnlineState};
use harmony_model::{wire, MachineCatalog, SimDuration, Task};
use harmony_trace::{google_csv, Trace, TraceConfig, TraceGenerator};
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

/// Bumped whenever the checkpoint schema changes incompatibly.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Where the daemon's classifier (and logical workload) came from.
/// Refitting from the same source is deterministic, so the checkpoint
/// records the source instead of the fitted model.
#[derive(Debug, Clone, PartialEq)]
pub enum ClassifierSource {
    /// A trace file on disk, with an FNV-1a-64 hash of its bytes so a
    /// resume detects a swapped file.
    TraceFile {
        /// Path to the trace file.
        path: String,
        /// `jsonl` or `google-csv`.
        format: String,
        /// FNV-1a-64 of the file contents at fit time.
        hash: u64,
    },
    /// The synthetic evaluation workload.
    Synthetic {
        /// Generator seed.
        seed: u64,
        /// Trace span in seconds.
        span_secs: f64,
    },
}

impl Serialize for ClassifierSource {
    fn to_value(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        match self {
            ClassifierSource::TraceFile { path, format, hash } => {
                map.insert("kind".to_owned(), "trace-file".to_value());
                map.insert("path".to_owned(), path.to_value());
                map.insert("format".to_owned(), format.to_value());
                map.insert("hash".to_owned(), wire::hash_to_value(*hash));
            }
            ClassifierSource::Synthetic { seed, span_secs } => {
                map.insert("kind".to_owned(), "synthetic".to_value());
                map.insert("seed".to_owned(), seed.to_value());
                map.insert("span_secs".to_owned(), span_secs.to_value());
            }
        }
        Value::Object(map)
    }
}

impl Deserialize for ClassifierSource {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match String::from_value(v.field("kind")?)?.as_str() {
            "trace-file" => Ok(ClassifierSource::TraceFile {
                path: String::from_value(v.field("path")?)?,
                format: String::from_value(v.field("format")?)?,
                hash: wire::hash_from_value(v.field("hash")?)?,
            }),
            "synthetic" => Ok(ClassifierSource::Synthetic {
                seed: u64::from_value(v.field("seed")?)?,
                span_secs: f64::from_value(v.field("span_secs")?)?,
            }),
            other => Err(DeError::new(format!("unknown classifier source `{other}`"))),
        }
    }
}

/// The machine catalog, by name and divisor (catalogs are code-defined,
/// so a spec rebuilds one exactly).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CatalogSpec {
    /// `table2` or `google10`.
    pub name: String,
    /// Population divisor passed to [`MachineCatalog::scaled`].
    pub divisor: usize,
}

impl CatalogSpec {
    /// Rebuilds the catalog this spec names.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown catalog name.
    pub fn build(&self) -> Result<MachineCatalog, String> {
        let base = match self.name.as_str() {
            "table2" => MachineCatalog::table2(),
            "google10" => MachineCatalog::google_ten_types(),
            other => return Err(format!("unknown catalog `{other}` (table2 or google10)")),
        };
        Ok(base.scaled(self.divisor.max(1)))
    }
}

/// One complete daemon checkpoint. Reads are hand-written: they check
/// the version and the retired `objective` key.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Checkpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// Controller configuration.
    pub config: HarmonyConfig,
    /// Classifier calibration (the fit is deterministic given source +
    /// calibration, so refitting on resume reproduces the same classes).
    pub classifier: ClassifierConfig,
    /// Classifier provenance.
    pub source: ClassifierSource,
    /// Catalog provenance.
    pub catalog: CatalogSpec,
    /// The pipeline's mutable state.
    pub state: OnlineState,
    /// Observations buffered and not yet consumed by a tick.
    pub buffered: Vec<Task>,
    /// Lifetime observation count.
    pub total_observations: u64,
}

impl Deserialize for Checkpoint {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let version = u64::from_value(v.field("version")?)?;
        if version != CHECKPOINT_VERSION {
            return Err(DeError::new(format!(
                "checkpoint version {version} is not supported (expected {CHECKPOINT_VERSION})"
            )));
        }
        // Checkpoints once named their provisioning objective. New ones
        // omit the key, which daemons that still read it take as energy,
        // so the version stays put. One written under the retired dollar
        // objective is refused rather than resumed as energy.
        match v.get("objective") {
            None | Some(Value::Null) => {}
            Some(objective) => match String::from_value(objective.field("kind")?)?.as_str() {
                "energy" => {}
                "dollars" => {
                    return Err(DeError::new(
                        "checkpoint was written under the retired `dollars` objective",
                    ))
                }
                other => return Err(DeError::new(format!("unknown objective `{other}`"))),
            },
        }
        Ok(Checkpoint {
            version,
            config: HarmonyConfig::from_value(v.field("config")?)?,
            classifier: ClassifierConfig::from_value(v.field("classifier")?)?,
            source: ClassifierSource::from_value(v.field("source")?)?,
            catalog: CatalogSpec::from_value(v.field("catalog")?)?,
            state: OnlineState::from_value(v.field("state")?)?,
            buffered: Vec::from_value(v.field("buffered")?)?,
            total_observations: u64::from_value(v.field("total_observations")?)?,
        })
    }
}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// slice — the checkpoint-envelope integrity check. Hand-rolled and
/// table-free like the rest of the vendored stand-ins, so the server
/// crate stays zero-dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Loads a trace from a source, verifying the integrity hash for file
/// sources (`expected_hash` is `None` on first load, `Some` on resume).
/// Returns the trace and the hash that a checkpoint should record.
///
/// # Errors
///
/// Returns a message on I/O failures, parse failures, unknown formats,
/// or a hash mismatch.
pub fn load_source(
    source_path: Option<&str>,
    format: &str,
    synthetic_seed: u64,
    synthetic_span: SimDuration,
    expected_hash: Option<u64>,
) -> Result<(Trace, ClassifierSource), String> {
    match source_path {
        Some(path) => {
            let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let hash = wire::fnv1a64(&bytes);
            if let Some(expected) = expected_hash {
                if hash != expected {
                    return Err(format!(
                        "trace file {path} changed since the checkpoint was written \
                         (hash {hash:#018x}, expected {expected:#018x})"
                    ));
                }
            }
            let trace = match format {
                "jsonl" => Trace::read_jsonl(&bytes[..]),
                "google-csv" => google_csv::read_task_events(&bytes[..]),
                other => return Err(format!("unknown trace format `{other}`")),
            }
            .map_err(|e| format!("cannot parse {path}: {e}"))?;
            let source = ClassifierSource::TraceFile {
                path: path.to_owned(),
                format: format.to_owned(),
                hash,
            };
            Ok((trace, source))
        }
        None => {
            let trace = TraceGenerator::new(
                TraceConfig::evaluation().with_seed(synthetic_seed).with_span(synthetic_span),
            )
            .generate();
            let source = ClassifierSource::Synthetic {
                seed: synthetic_seed,
                span_secs: synthetic_span.as_secs(),
            };
            Ok((trace, source))
        }
    }
}

/// Refits the classifier recorded by a [`ClassifierSource`]
/// (deterministic given the source and calibration).
///
/// # Errors
///
/// Returns a message on source-loading or fit failures.
pub fn refit_classifier(
    source: &ClassifierSource,
    config: &ClassifierConfig,
) -> Result<TaskClassifier, String> {
    let (trace, _) = match source {
        ClassifierSource::TraceFile { path, format, hash } => {
            load_source(Some(path), format, 0, SimDuration::ZERO, Some(*hash))?
        }
        ClassifierSource::Synthetic { seed, span_secs } => {
            load_source(None, "jsonl", *seed, SimDuration::from_secs(*span_secs), None)?
        }
    };
    TaskClassifier::fit(trace.tasks(), config).map_err(|e| format!("classifier fit failed: {e}"))
}

/// What [`load_with_recovery`] had to do beyond a clean read — the
/// typed degradation report for checkpoint restore, logged by the
/// daemon instead of crashing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A `<path>.tmp` left by an interrupted save was removed; it can
    /// never poison a later [`save_atomic`].
    StaleTmpRemoved {
        /// The removed temp file.
        path: String,
    },
    /// The primary checkpoint failed CRC verification or parsing (or
    /// was missing) and was skipped.
    PrimaryRejected {
        /// The rejected file.
        path: String,
        /// Why it was rejected (truncation, CRC mismatch, parse error).
        reason: String,
    },
    /// The previous generation (`<path>.1`) served the restore.
    RecoveredFromGeneration {
        /// The generation file that was loaded.
        path: String,
    },
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryEvent::StaleTmpRemoved { path } => {
                write!(f, "removed stale checkpoint temp file {path}")
            }
            RecoveryEvent::PrimaryRejected { path, reason } => {
                write!(f, "rejected checkpoint {path}: {reason}")
            }
            RecoveryEvent::RecoveredFromGeneration { path } => {
                write!(f, "recovered from previous checkpoint generation {path}")
            }
        }
    }
}

/// `<path>.tmp` — the staging file for an atomic save.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// `<path>.1` — the previous checkpoint generation kept as a fallback.
pub fn generation_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".1");
    PathBuf::from(os)
}

const ENVELOPE_PREFIX: &str = "{\"crc32\":";
const ENVELOPE_PAYLOAD: &str = ",\"payload\":";

/// Wraps serialized payload text in the CRC envelope. The CRC covers
/// the payload bytes exactly as embedded, so verification never depends
/// on JSON re-serialization being canonical.
fn encode_envelope(payload: &str) -> String {
    format!("{ENVELOPE_PREFIX}{}{ENVELOPE_PAYLOAD}{payload}}}\n", crc32(payload.as_bytes()))
}

/// Splits envelope text into (stored CRC, payload bytes). Structural
/// damage — truncation, a torn tail, garbage — is a typed error here,
/// before any JSON parsing.
fn decode_envelope(text: &str) -> Result<(u32, &str), String> {
    let trimmed = text.trim_end_matches(['\n', '\r']);
    let rest = trimmed
        .strip_prefix(ENVELOPE_PREFIX)
        .ok_or_else(|| "missing envelope prefix".to_owned())?;
    let sep = rest
        .find(ENVELOPE_PAYLOAD)
        .ok_or_else(|| "envelope missing payload separator (truncated?)".to_owned())?;
    let crc: u32 = rest[..sep]
        .parse()
        .map_err(|e| format!("bad envelope crc field `{}`: {e}", &rest[..sep]))?;
    let body = &rest[sep + ENVELOPE_PAYLOAD.len()..];
    let payload = body
        .strip_suffix('}')
        .ok_or_else(|| "envelope missing closing brace (truncated?)".to_owned())?;
    Ok((crc, payload))
}

/// Serializes a checkpoint into the CRC envelope, writes it to
/// `<path>.tmp`, fsyncs, rotates the current `path` to `<path>.1`, and
/// atomically renames the tmp over `path`. After a successful save,
/// `path` holds the new checkpoint and `<path>.1` the previous one.
///
/// # Errors
///
/// Propagates I/O failures (the `.tmp` file may remain; it is inert —
/// [`load_with_recovery`] removes it). The generation rotation is
/// best-effort: its failure never blocks the primary rename.
pub fn save_atomic(checkpoint: &Checkpoint, path: &Path) -> io::Result<u64> {
    write_atomic(&encode_checkpoint(checkpoint)?, path)
}

/// Serializes a checkpoint into its CRC-enveloped on-disk text without
/// touching the filesystem — the pure half of [`save_atomic`], so
/// callers can render under a lock and write after releasing it.
///
/// # Errors
///
/// Serialization failures surface as [`io::ErrorKind::InvalidData`].
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> io::Result<String> {
    let payload = serde_json::to_string(checkpoint)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(encode_envelope(&payload))
}

/// Writes already-encoded checkpoint text to `<path>.tmp`, fsyncs,
/// rotates the current `path` to `<path>.1`, and atomically renames
/// the tmp over `path` — the I/O half of [`save_atomic`]. Returns the
/// bytes written.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_atomic(text: &str, path: &Path) -> io::Result<u64> {
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
    }
    if path.exists() {
        let _ = fs::rename(path, generation_path(path));
    }
    fs::rename(&tmp, path)?;
    Ok(text.len() as u64)
}

/// Reads one checkpoint file and verifies its CRC envelope.
fn read_verified(path: &Path) -> Result<Checkpoint, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let (stored, payload) = decode_envelope(&text)?;
    let computed = crc32(payload.as_bytes());
    if computed != stored {
        return Err(format!("crc mismatch (stored {stored:#010x}, computed {computed:#010x})"));
    }
    serde_json::from_str(payload).map_err(|e| format!("payload parse failed: {e}"))
}

/// Loads a checkpoint, surviving a corrupt or missing primary: removes
/// any stale `<path>.tmp`, verifies the primary's CRC, and falls back
/// to the `<path>.1` generation when the primary is torn, truncated,
/// bit-flipped, or absent. Every deviation from a clean read is
/// reported as a typed [`RecoveryEvent`].
///
/// # Errors
///
/// Fails only when *both* the primary and the fallback generation are
/// unreadable; the combined reasons land in one
/// [`io::ErrorKind::InvalidData`] error.
pub fn load_with_recovery(path: &Path) -> io::Result<(Checkpoint, Vec<RecoveryEvent>)> {
    let mut events = Vec::new();
    let tmp = tmp_path(path);
    if tmp.exists() && fs::remove_file(&tmp).is_ok() {
        events.push(RecoveryEvent::StaleTmpRemoved { path: tmp.display().to_string() });
    }
    match read_verified(path) {
        Ok(checkpoint) => Ok((checkpoint, events)),
        Err(reason) => {
            events.push(RecoveryEvent::PrimaryRejected {
                path: path.display().to_string(),
                reason: reason.clone(),
            });
            let generation = generation_path(path);
            match read_verified(&generation) {
                Ok(checkpoint) => {
                    events.push(RecoveryEvent::RecoveredFromGeneration {
                        path: generation.display().to_string(),
                    });
                    Ok((checkpoint, events))
                }
                Err(generation_reason) => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "checkpoint unrecoverable: primary {}: {reason}; generation {}: \
                         {generation_reason}",
                        path.display(),
                        generation.display()
                    ),
                )),
            }
        }
    }
}

/// Loads a checkpoint from disk ([`load_with_recovery`] with the
/// recovery report discarded).
///
/// # Errors
///
/// Propagates I/O failures; contents unrecoverable from both
/// generations yield [`io::ErrorKind::InvalidData`].
pub fn load(path: &Path) -> io::Result<Checkpoint> {
    load_with_recovery(path).map(|(checkpoint, _)| checkpoint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_vectors() {
        // The IEEE 802.3 check value plus degenerate inputs.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"harmony"), crc32(b"harmonx"));
    }

    #[test]
    fn envelope_roundtrip_and_truncation_detection() {
        let payload = r#"{"k":1,"f":0.5}"#;
        let text = encode_envelope(payload);
        assert!(text.ends_with('\n'));
        let (crc, body) = decode_envelope(&text).unwrap();
        assert_eq!(body, payload);
        assert_eq!(crc, crc32(payload.as_bytes()));
        // Structural damage is caught before any JSON parse.
        assert!(decode_envelope(&text[..text.len() - 3]).is_err());
        assert!(decode_envelope("{\"crc32\":12").is_err());
        assert!(decode_envelope("not an envelope").is_err());
    }

    fn test_checkpoint(ticks: u64) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config: HarmonyConfig::default(),
            classifier: ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() },
            source: ClassifierSource::Synthetic { seed: 9, span_secs: 120.0 },
            catalog: CatalogSpec { name: "table2".to_owned(), divisor: 100 },
            state: OnlineState {
                ticks,
                errors: 0,
                histories: vec![vec![0.5, 0.25]],
                last_plan: None,
                pending_events: Vec::new(),
                lp_basis: None,
            },
            buffered: Vec::new(),
            total_observations: ticks * 10,
        }
    }

    fn truncate(path: &Path, len: u64) -> io::Result<()> {
        fs::OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn test_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("harmonyd-state-{label}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn second_save_rotates_previous_generation() {
        let dir = test_dir("rotate");
        let path = dir.join("ckpt.json");
        save_atomic(&test_checkpoint(1), &path).unwrap();
        assert!(!generation_path(&path).exists(), "no generation after first save");
        save_atomic(&test_checkpoint(2), &path).unwrap();
        let generation = generation_path(&path);
        assert!(generation.exists(), "second save keeps the previous generation");
        assert_eq!(load(&path).unwrap().state.ticks, 2);
        assert_eq!(load(&generation).unwrap().state.ticks, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_in_primary_falls_back_to_generation() {
        let dir = test_dir("bitflip");
        let path = dir.join("ckpt.json");
        save_atomic(&test_checkpoint(1), &path).unwrap();
        save_atomic(&test_checkpoint(2), &path).unwrap();
        // Flip a bit somewhere in the payload region (past the header).
        let mut bytes = fs::read(&path).unwrap();
        bytes[40] ^= 1 << 2;
        fs::write(&path, bytes).unwrap();
        let (back, events) = load_with_recovery(&path).unwrap();
        assert_eq!(back.state.ticks, 1, "the intact generation serves the restore");
        assert!(
            events.iter().any(|e| matches!(e, RecoveryEvent::PrimaryRejected { .. })),
            "events: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, RecoveryEvent::RecoveredFromGeneration { .. })),
            "events: {events:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_primary_falls_back_to_generation() {
        let dir = test_dir("truncate");
        let path = dir.join("ckpt.json");
        save_atomic(&test_checkpoint(1), &path).unwrap();
        save_atomic(&test_checkpoint(2), &path).unwrap();
        let len = fs::metadata(&path).unwrap().len();
        truncate(&path, len / 2).unwrap();
        let (back, events) = load_with_recovery(&path).unwrap();
        assert_eq!(back.state.ticks, 1);
        assert!(events.iter().any(|e| matches!(e, RecoveryEvent::PrimaryRejected { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_primary_falls_back_to_generation() {
        let dir = test_dir("missing");
        let path = dir.join("ckpt.json");
        save_atomic(&test_checkpoint(1), &path).unwrap();
        save_atomic(&test_checkpoint(2), &path).unwrap();
        fs::remove_file(&path).unwrap();
        let (back, events) = load_with_recovery(&path).unwrap();
        assert_eq!(back.state.ticks, 1);
        assert!(events.iter().any(|e| matches!(e, RecoveryEvent::RecoveredFromGeneration { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn both_generations_corrupt_is_a_typed_error() {
        let dir = test_dir("hopeless");
        let path = dir.join("ckpt.json");
        save_atomic(&test_checkpoint(1), &path).unwrap();
        save_atomic(&test_checkpoint(2), &path).unwrap();
        truncate(&path, 10).unwrap();
        truncate(&generation_path(&path), 10).unwrap();
        let err = load_with_recovery(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unrecoverable"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_never_poisons_the_next_save() {
        // Regression: a crash between `File::create(.tmp)` and the
        // rename leaves a stale tmp; load must remove it, and a later
        // save_atomic must succeed and leave no tmp behind.
        let dir = test_dir("staletmp");
        let path = dir.join("ckpt.json");
        save_atomic(&test_checkpoint(1), &path).unwrap();
        fs::write(tmp_path(&path), b"{\"torn mid-write").unwrap();
        let (back, events) = load_with_recovery(&path).unwrap();
        assert_eq!(back.state.ticks, 1);
        assert!(
            events.iter().any(|e| matches!(e, RecoveryEvent::StaleTmpRemoved { .. })),
            "events: {events:?}"
        );
        assert!(!tmp_path(&path).exists());
        save_atomic(&test_checkpoint(2), &path).unwrap();
        assert!(!tmp_path(&path).exists());
        assert_eq!(load(&path).unwrap().state.ticks, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_bare_payload_primary_falls_back_to_generation() {
        let dir = test_dir("legacy");
        let path = dir.join("ckpt.json");
        let bare = |ticks| format!("{}\n", serde_json::to_string(&test_checkpoint(ticks)).unwrap());
        save_atomic(&test_checkpoint(1), &path).unwrap();
        save_atomic(&test_checkpoint(2), &path).unwrap();
        // A pre-CRC bare payload is unverifiable: rejected like any
        // other bad primary, and the generation serves the restore.
        fs::write(&path, bare(3)).unwrap();
        let (back, events) = load_with_recovery(&path).unwrap();
        assert_eq!(back.state.ticks, 1);
        assert!(
            events.iter().any(|e| matches!(
                e,
                RecoveryEvent::PrimaryRejected { reason, .. } if reason.contains("envelope")
            )),
            "events: {events:?}"
        );
        assert!(events.iter().any(|e| matches!(e, RecoveryEvent::RecoveredFromGeneration { .. })));
        // A bare generation is rejected too.
        fs::write(generation_path(&path), bare(1)).unwrap();
        let err = load_with_recovery(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_roundtrip_and_atomic_save() {
        let dir = std::env::temp_dir().join(format!("harmonyd-state-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let checkpoint = Checkpoint {
            version: CHECKPOINT_VERSION,
            config: HarmonyConfig::default(),
            classifier: ClassifierConfig { k_per_group: Some([2, 2, 2]), ..Default::default() },
            // Hash above 2^53 exercises the hex-string encoding.
            source: ClassifierSource::TraceFile {
                path: "/data/trace.jsonl".to_owned(),
                format: "jsonl".to_owned(),
                hash: 0xdead_beef_cafe_f00d,
            },
            catalog: CatalogSpec { name: "table2".to_owned(), divisor: 100 },
            state: OnlineState {
                ticks: 5,
                errors: 1,
                histories: vec![vec![0.5, 0.25], vec![0.0, 1.0]],
                last_plan: None,
                pending_events: Vec::new(),
                lp_basis: None,
            },
            buffered: Vec::new(),
            total_observations: 123,
        };
        let bytes = save_atomic(&checkpoint, &path).unwrap();
        assert!(bytes > 0);
        assert!(!dir.join("ckpt.json.tmp").exists(), "tmp renamed away");
        let back = load(&path).unwrap();
        assert_eq!(back, checkpoint);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_rejected() {
        let checkpoint = Checkpoint {
            version: CHECKPOINT_VERSION,
            config: HarmonyConfig::default(),
            classifier: ClassifierConfig::default(),
            source: ClassifierSource::Synthetic { seed: 1, span_secs: 60.0 },
            catalog: CatalogSpec { name: "table2".to_owned(), divisor: 1 },
            state: OnlineState {
                ticks: 0,
                errors: 0,
                histories: Vec::new(),
                last_plan: None,
                pending_events: Vec::new(),
                lp_basis: None,
            },
            buffered: Vec::new(),
            total_observations: 0,
        };
        let mut v = checkpoint.to_value();
        if let Value::Object(map) = &mut v {
            map.insert("version".to_owned(), Value::Number(99.0));
        }
        assert!(Checkpoint::from_value(&v).is_err());
    }

    /// A checkpoint holding only the fields each checkpointed type had
    /// when its schema was first pinned.
    const BASELINE_CHECKPOINT: &str = concat!(
        r#"{"version":1,"buffered":[],"total_observations":7,"#,
        r#""config":{"arima_min_history":24,"control_period":600,"demand_margin":1.25,"#,
        r#""epsilon":0.1,"history_len":288,"horizon":4,"max_lp_pivots":20000,"omega":1.1,"#,
        r#""slo_delay_secs":[600,120,15],"utility_per_container_hour":[0.02,0.06,0.25]},"#,
        r#""classifier":{"k_per_group":[2,3,4],"k_max":8,"elbow_min_gain":0.1,"#,
        r#""split_by_duration":true,"seed":42},"#,
        r#""source":{"kind":"synthetic","seed":2013,"span_secs":3600},"#,
        r#""catalog":{"name":"table2","divisor":100},"#,
        r#""state":{"ticks":2,"errors":0,"histories":[[0.5]],"pending_events":[],"#,
        r#""last_plan":{"machines":[1,0],"quotas":[[1]]}}}"#,
    );

    #[test]
    fn baseline_field_checkpoints_still_load() {
        let back: Checkpoint = serde_json::from_str(BASELINE_CHECKPOINT).unwrap();
        assert_eq!(back.config, HarmonyConfig::default());
        assert_eq!(back.config.pipeline_workers, None);
        assert_eq!(back.classifier.k_per_group, Some([2, 3, 4]));
        assert_eq!(back.source, ClassifierSource::Synthetic { seed: 2013, span_secs: 3600.0 });
        assert_eq!(back.catalog, CatalogSpec { name: "table2".to_owned(), divisor: 100 });
        assert_eq!(back.state.last_plan.as_ref().map(|p| p.machines.clone()), Some(vec![1, 0]));
        assert_eq!(back.state.lp_basis, None);
        assert_eq!(back.total_observations, 7);

        // The other variants and the optional members, each with its
        // baseline fields only.
        let text = BASELINE_CHECKPOINT
            .replace(
                r#"{"kind":"synthetic","seed":2013,"span_secs":3600}"#,
                r#"{"kind":"trace-file","path":"t.jsonl","format":"jsonl","hash":"0x00000000000000ff"}"#,
            )
            .replace(r#""version":1,"#, r#""version":1,"objective":{"kind":"energy"},"#)
            .replace(r#""errors":0,"#, r#""errors":0,"lp_basis":{"cols":[2,0],"n_cols":3},"#);
        let back: Checkpoint = serde_json::from_str(&text).unwrap();
        assert!(matches!(back.source, ClassifierSource::TraceFile { hash: 0xff, .. }));
        let basis = back.state.lp_basis.unwrap();
        assert_eq!((basis.columns(), basis.num_cols()), (&[2, 0][..], 3));
        let fc: harmony::monitor::ClassForecast =
            serde_json::from_str(r#"{"rates":[0.5],"tier":"Arima","degraded":null}"#).unwrap();
        assert_eq!(fc.rates, vec![0.5]);
    }

    #[test]
    fn catalog_spec_encoding_is_pinned() {
        let spec = CatalogSpec { name: "table2".to_owned(), divisor: 100 };
        let text = serde_json::to_string(&spec).unwrap();
        assert_eq!(text, r#"{"divisor":100,"name":"table2"}"#);
        assert_eq!(serde_json::from_str::<CatalogSpec>(&text).unwrap(), spec);
    }

    #[test]
    fn catalog_spec_builds_known_catalogs() {
        let spec = CatalogSpec { name: "table2".to_owned(), divisor: 100 };
        assert_eq!(spec.build().unwrap().len(), 4);
        let spec = CatalogSpec { name: "google10".to_owned(), divisor: 100 };
        assert!(spec.build().unwrap().len() >= 10);
        // The accelerator catalog is retired along with the dollar
        // objective that priced it.
        for name in ["nope", "table2-accel"] {
            let spec = CatalogSpec { name: name.to_owned(), divisor: 1 };
            assert!(spec.build().is_err(), "{name}");
        }
    }

    /// `checkpoint` as JSON, with its `objective` key set to `objective`.
    fn keyed_objective(checkpoint: &Checkpoint, objective: Value) -> Value {
        let mut v = checkpoint.to_value();
        if let Value::Object(map) = &mut v {
            assert!(map.insert("objective".to_owned(), objective).is_none());
        }
        v
    }

    #[test]
    fn energy_or_absent_objective_still_loads() {
        // New checkpoints carry no `objective` key; older ones name the
        // energy objective, or carry a null.
        let checkpoint = test_checkpoint(4);
        assert!(checkpoint.to_value().get("objective").is_none());
        let energy = serde_json::from_str(r#"{"kind":"energy"}"#).unwrap();
        for objective in [energy, Value::Null] {
            let v = keyed_objective(&checkpoint, objective);
            assert_eq!(Checkpoint::from_value(&v).unwrap(), checkpoint);
        }
    }

    #[test]
    fn retired_dollar_objective_is_refused() {
        let checkpoint = test_checkpoint(4);
        let dollars = serde_json::from_str(r#"{"kind":"dollars","spot":true,"seed":7}"#).unwrap();
        let err = Checkpoint::from_value(&keyed_objective(&checkpoint, dollars)).unwrap_err();
        assert!(err.to_string().contains("retired `dollars` objective"), "{err}");
        let bogus = serde_json::from_str(r#"{"kind":"bogus"}"#).unwrap();
        let err = Checkpoint::from_value(&keyed_objective(&checkpoint, bogus)).unwrap_err();
        assert!(err.to_string().contains("unknown objective `bogus`"), "{err}");
    }
}
