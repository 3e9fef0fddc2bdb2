//! Resumable fault-scenario replays.
//!
//! A fault-mode replay runs every controller variant through the same
//! fault plan — at full scale that is minutes of wall-clock per
//! variant. This module makes the run interruptible: a
//! [`ReplayCheckpoint`] records the run's *inputs* (trace provenance
//! with an integrity hash, catalog, controller configuration, fault
//! scenario and seed) plus every variant's finished [`SimReport`].
//! Because the simulator is deterministic given those inputs, resuming
//! means re-deriving the setup, skipping the recorded variants, and
//! running the rest — the combined reports are bit-identical to an
//! uninterrupted run.
//!
//! Checkpoints are written atomically (`<path>.tmp` + rename), the same
//! discipline `harmonyd` uses for controller state.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use harmony::classify::ClassifierConfig;
use harmony::pipeline::{run_variant_with_faults, Variant};
use harmony::HarmonyConfig;
use harmony_model::{wire, MachineCatalog, SimDuration};
use harmony_sim::{FaultPlan, SimReport};
use harmony_trace::{google_csv, Trace};
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

use crate::{evaluation_setup_seeded, Scale};

/// Bumped whenever the replay checkpoint schema changes incompatibly.
pub const REPLAY_CHECKPOINT_VERSION: u64 = 1;

/// Everything needed to re-derive a fault-mode replay from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayInputs {
    /// Fault scenario name (one of [`harmony_sim::SCENARIOS`]).
    pub scenario: String,
    /// Seed of the fault plan.
    pub fault_seed: u64,
    /// Trace file, or `None` for the synthetic evaluation workload.
    pub trace_path: Option<String>,
    /// Trace file format (`jsonl` | `google-csv`).
    pub trace_format: String,
    /// FNV-1a-64 of the trace file bytes (file runs only).
    pub trace_hash: Option<u64>,
    /// Scale preset for the synthetic workload (`quick`/`default`/`full`).
    pub scale: String,
    /// Workload RNG seed for the synthetic workload.
    pub workload_seed: u64,
    /// Catalog name (`table2` | `google10`) — file runs only; the
    /// synthetic setup derives its own catalog from the scale.
    pub catalog: String,
    /// Catalog population divisor (file runs only).
    pub catalog_scale: usize,
    /// Control period in minutes (file runs only).
    pub period_mins: f64,
}

/// A replay checkpoint: inputs + the reports finished so far.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayCheckpoint {
    /// Schema version ([`REPLAY_CHECKPOINT_VERSION`]; [`load`] rejects
    /// any other).
    pub version: u64,
    /// The run's inputs.
    pub inputs: ReplayInputs,
    /// Every variant already finished, in [`Variant::ALL`] order.
    pub completed: Vec<CompletedVariant>,
}

/// One finished variant of a [`ReplayCheckpoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedVariant {
    /// The variant's name ([`Variant::name`]).
    pub variant: String,
    /// Its report.
    pub report: SimReport,
}

impl Serialize for ReplayInputs {
    fn to_value(&self) -> Value {
        let mut map = std::collections::BTreeMap::new();
        map.insert("scenario".to_owned(), self.scenario.to_value());
        map.insert("fault_seed".to_owned(), self.fault_seed.to_value());
        map.insert("trace_path".to_owned(), self.trace_path.to_value());
        map.insert("trace_format".to_owned(), self.trace_format.to_value());
        let trace_hash = self.trace_hash.map_or(Value::Null, wire::hash_to_value);
        map.insert("trace_hash".to_owned(), trace_hash);
        map.insert("scale".to_owned(), self.scale.to_value());
        map.insert("workload_seed".to_owned(), self.workload_seed.to_value());
        map.insert("catalog".to_owned(), self.catalog.to_value());
        map.insert("catalog_scale".to_owned(), self.catalog_scale.to_value());
        map.insert("period_mins".to_owned(), self.period_mins.to_value());
        Value::Object(map)
    }
}

impl Deserialize for ReplayInputs {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(ReplayInputs {
            scenario: String::from_value(v.field("scenario")?)?,
            fault_seed: u64::from_value(v.field("fault_seed")?)?,
            trace_path: Option::from_value(v.field("trace_path")?)?,
            trace_format: String::from_value(v.field("trace_format")?)?,
            trace_hash: match v.field("trace_hash")? {
                Value::Null => None,
                hash => Some(wire::hash_from_value(hash)?),
            },
            scale: String::from_value(v.field("scale")?)?,
            workload_seed: u64::from_value(v.field("workload_seed")?)?,
            catalog: String::from_value(v.field("catalog")?)?,
            catalog_scale: usize::from_value(v.field("catalog_scale")?)?,
            period_mins: f64::from_value(v.field("period_mins")?)?,
        })
    }
}

/// Serializes a checkpoint to `<path>.tmp`, fsyncs, and atomically
/// renames it over `path`.
///
/// # Errors
///
/// Propagates I/O failures (a leftover `.tmp` is inert).
pub fn save_atomic(checkpoint: &ReplayCheckpoint, path: &Path) -> io::Result<()> {
    let text = serde_json::to_string(checkpoint)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp: PathBuf = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        PathBuf::from(os)
    };
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Loads a replay checkpoint from disk.
///
/// # Errors
///
/// Propagates I/O failures; malformed contents or another schema version
/// yield [`io::ErrorKind::InvalidData`].
pub fn load(path: &Path) -> io::Result<ReplayCheckpoint> {
    let text = fs::read_to_string(path)?;
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let checkpoint: ReplayCheckpoint =
        serde_json::from_str(&text).map_err(|e| invalid(e.to_string()))?;
    if checkpoint.version != REPLAY_CHECKPOINT_VERSION {
        return Err(invalid(format!(
            "replay checkpoint version {} is not supported (expected {REPLAY_CHECKPOINT_VERSION})",
            checkpoint.version
        )));
    }
    Ok(checkpoint)
}

fn variant_by_name(name: &str) -> Option<Variant> {
    Variant::ALL.into_iter().find(|v| v.name() == name)
}

/// A fault-mode replay that can stop after any variant and pick back up
/// from a checkpoint.
#[derive(Debug)]
pub struct ResumableRun {
    inputs: ReplayInputs,
    trace: Trace,
    catalog: MachineCatalog,
    config: HarmonyConfig,
    classifier_config: ClassifierConfig,
    plan: FaultPlan,
    completed: Vec<(Variant, SimReport)>,
}

impl ResumableRun {
    /// Derives the full setup (trace, catalog, fault plan) from run
    /// inputs, verifying the trace hash for file-backed runs.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O or parse failures, unknown names, or a
    /// trace-hash mismatch.
    pub fn from_inputs(mut inputs: ReplayInputs) -> Result<Self, String> {
        let (trace, catalog, config, classifier_config) = match &inputs.trace_path {
            Some(path) => {
                let bytes = fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                let hash = wire::fnv1a64(&bytes);
                if let Some(expected) = inputs.trace_hash {
                    if hash != expected {
                        return Err(format!(
                            "trace file {path} changed since the checkpoint was written \
                             (hash {hash:#018x}, expected {expected:#018x})"
                        ));
                    }
                }
                inputs.trace_hash = Some(hash);
                let trace = match inputs.trace_format.as_str() {
                    "jsonl" => Trace::read_jsonl(&bytes[..]),
                    "google-csv" => google_csv::read_task_events(&bytes[..]),
                    other => return Err(format!("unknown trace format `{other}`")),
                }
                .map_err(|e| format!("cannot parse {path}: {e}"))?;
                let catalog = match inputs.catalog.as_str() {
                    "table2" => MachineCatalog::table2(),
                    "google10" => MachineCatalog::google_ten_types(),
                    other => return Err(format!("unknown catalog `{other}`")),
                }
                .scaled(inputs.catalog_scale.max(1));
                let config = HarmonyConfig {
                    control_period: SimDuration::from_mins(inputs.period_mins),
                    ..Default::default()
                };
                (trace, catalog, config, ClassifierConfig::default())
            }
            None => {
                let scale = Scale::parse(&inputs.scale)
                    .ok_or_else(|| format!("unknown scale `{}`", inputs.scale))?;
                evaluation_setup_seeded(scale, inputs.workload_seed)
            }
        };
        let plan = FaultPlan::scenario(&inputs.scenario, inputs.fault_seed, trace.span())
            .ok_or_else(|| format!("unknown fault scenario `{}`", inputs.scenario))?;
        Ok(ResumableRun {
            inputs,
            trace,
            catalog,
            config,
            classifier_config,
            plan,
            completed: Vec::new(),
        })
    }

    /// Re-derives the setup from a checkpoint and skips the variants it
    /// already finished.
    ///
    /// # Errors
    ///
    /// As [`ResumableRun::from_inputs`], plus unknown or out-of-order
    /// variant names in the checkpoint.
    pub fn from_checkpoint(checkpoint: ReplayCheckpoint) -> Result<Self, String> {
        let mut run = Self::from_inputs(checkpoint.inputs)?;
        for (i, CompletedVariant { variant: name, report }) in
            checkpoint.completed.into_iter().enumerate()
        {
            let variant = variant_by_name(&name)
                .ok_or_else(|| format!("checkpoint names unknown variant `{name}`"))?;
            let expected = Variant::ALL[i];
            if variant != expected {
                return Err(format!(
                    "checkpoint variants out of order: `{name}` where `{}` was expected",
                    expected.name()
                ));
            }
            run.completed.push((variant, report));
        }
        Ok(run)
    }

    /// The run's (possibly hash-stamped) inputs.
    pub fn inputs(&self) -> &ReplayInputs {
        &self.inputs
    }

    /// The trace under replay.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The derived fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Reports finished so far, in [`Variant::ALL`] order.
    pub fn completed(&self) -> &[(Variant, SimReport)] {
        &self.completed
    }

    /// Variants still to run.
    pub fn remaining(&self) -> &[Variant] {
        &Variant::ALL[self.completed.len()..]
    }

    /// Whether every variant has finished.
    pub fn is_done(&self) -> bool {
        self.completed.len() == Variant::ALL.len()
    }

    /// Runs the next pending variant and records its report.
    ///
    /// # Errors
    ///
    /// Returns a message when every variant is already done or the
    /// controller fails.
    pub fn run_next(&mut self) -> Result<(Variant, &SimReport), String> {
        let variant = *self
            .remaining()
            .first()
            .ok_or_else(|| "all variants already completed".to_owned())?;
        let report = run_variant_with_faults(
            &self.trace,
            &self.catalog,
            &self.config,
            &self.classifier_config,
            variant,
            Some(&self.plan),
        )
        .map_err(|e| format!("{} failed: {e}", variant.name()))?;
        self.completed.push((variant, report));
        Ok((variant, &self.completed[self.completed.len() - 1].1))
    }

    /// Snapshot of the run so far.
    pub fn checkpoint(&self) -> ReplayCheckpoint {
        ReplayCheckpoint {
            version: REPLAY_CHECKPOINT_VERSION,
            inputs: self.inputs.clone(),
            completed: self
                .completed
                .iter()
                .map(|(v, r)| CompletedVariant { variant: v.name().to_owned(), report: r.clone() })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_inputs() -> ReplayInputs {
        ReplayInputs {
            scenario: "crash-storm".to_owned(),
            fault_seed: 7,
            trace_path: None,
            trace_format: "jsonl".to_owned(),
            trace_hash: None,
            scale: "quick".to_owned(),
            workload_seed: 2013,
            catalog: "table2".to_owned(),
            catalog_scale: 50,
            period_mins: 15.0,
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let checkpoint = ReplayCheckpoint {
            version: REPLAY_CHECKPOINT_VERSION,
            inputs: quick_inputs(),
            completed: Vec::new(),
        };
        let text = serde_json::to_string(&checkpoint).unwrap();
        let back: ReplayCheckpoint = serde_json::from_str(&text).unwrap();
        assert_eq!(back, checkpoint);
    }

    #[test]
    fn checkpoint_encoding_is_pinned() {
        let mut inputs = quick_inputs();
        inputs.trace_path = Some("t.jsonl".to_owned());
        inputs.trace_hash = Some(0xdead_beef_cafe_f00d);
        let checkpoint = ReplayCheckpoint {
            version: REPLAY_CHECKPOINT_VERSION,
            inputs,
            completed: vec![CompletedVariant {
                variant: "Static".to_owned(),
                report: empty_report(),
            }],
        };
        let text = serde_json::to_string(&checkpoint).unwrap();
        assert_eq!(text, r#"{"completed":[{"report":{"degradations":[],"delays_by_group":[[],[],[]],"energy_cost_dollars":0,"evictions":0,"faults":[],"migrations":0,"series":[],"switch_cost_dollars":0,"switch_count":0,"tasks_completed":0,"tasks_failed":0,"tasks_pending_at_end":0,"tasks_running_at_end":0,"tasks_unschedulable":0,"total_energy_wh":0},"variant":"Static"}],"inputs":{"catalog":"table2","catalog_scale":50,"fault_seed":7,"period_mins":15,"scale":"quick","scenario":"crash-storm","trace_format":"jsonl","trace_hash":"0xdeadbeefcafef00d","trace_path":"t.jsonl","workload_seed":2013},"version":1}"#);
        assert_eq!(serde_json::from_str::<ReplayCheckpoint>(&text).unwrap(), checkpoint);
    }

    #[test]
    fn load_rejects_another_version() {
        let path = std::env::temp_dir()
            .join(format!("harmony-replay-version-{}.json", std::process::id()));
        let checkpoint = ReplayCheckpoint {
            version: REPLAY_CHECKPOINT_VERSION + 1,
            inputs: quick_inputs(),
            completed: Vec::new(),
        };
        save_atomic(&checkpoint, &path).unwrap();
        let err = load(&path).unwrap_err();
        fs::remove_file(&path).unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 2 is not supported"), "{err}");
    }

    #[test]
    fn unknown_scenario_rejected() {
        let mut inputs = quick_inputs();
        inputs.scenario = "meteor-strike".to_owned();
        assert!(ResumableRun::from_inputs(inputs).is_err());
    }

    #[test]
    fn out_of_order_checkpoint_rejected() {
        let checkpoint = ReplayCheckpoint {
            version: REPLAY_CHECKPOINT_VERSION,
            inputs: quick_inputs(),
            completed: vec![CompletedVariant { variant: "CBS".to_owned(), report: empty_report() }],
        };
        let err = ResumableRun::from_checkpoint(checkpoint).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }

    fn empty_report() -> SimReport {
        SimReport {
            delays_by_group: [Vec::new(), Vec::new(), Vec::new()],
            tasks_completed: 0,
            tasks_running_at_end: 0,
            tasks_pending_at_end: 0,
            tasks_unschedulable: 0,
            tasks_failed: 0,
            total_energy_wh: 0.0,
            energy_cost_dollars: 0.0,
            switch_count: 0,
            switch_cost_dollars: 0.0,
            migrations: 0,
            evictions: 0,
            faults: Vec::new(),
            degradations: Vec::new(),
            series: Vec::new(),
        }
    }
}
