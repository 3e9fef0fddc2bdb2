//! Machine-readable benchmark output.
//!
//! Benchmarks print human-readable tables on stdout; this module gives
//! them a parallel `results/BENCH_<name>.json` artifact so plots and CI
//! checks can consume the same numbers without screen-scraping. Files
//! are written atomically (`<path>.tmp` + rename) so a killed benchmark
//! never leaves a torn artifact.
//!
//! Every artifact carries a provenance header: `schema_version` (bumped
//! whenever the artifact layout changes incompatibly) and `git_rev`
//! (`git describe --always --dirty`, or `"unknown"` outside a work
//! tree) so downstream plots can tell which code produced a file.

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::OnceLock;

use serde::value::Value;
use serde::Serialize;

/// Version of the BENCH_*.json artifact layout. Bump when the header or
/// row shape changes incompatibly.
pub const SCHEMA_VERSION: u64 = 2;

/// `git describe --always --dirty` of the producing tree, cached for
/// the process lifetime; `"unknown"` when git or the repo is absent.
pub fn git_describe() -> &'static str {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_owned())
    })
}

/// Where JSON artifacts land: `$HARMONY_RESULTS_DIR`, or `results/`
/// relative to the working directory.
pub fn results_dir() -> PathBuf {
    std::env::var("HARMONY_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Stamps the provenance header (`schema_version`, `git_rev`) into a
/// top-level JSON object. Existing keys are left untouched so a payload
/// that pins its own provenance wins; non-object payloads pass through
/// unchanged.
fn stamp_header(v: &mut Value) {
    if let Value::Object(map) = v {
        map.entry("schema_version".to_owned())
            .or_insert_with(|| Value::Number(SCHEMA_VERSION as f64));
        map.entry("git_rev".to_owned())
            .or_insert_with(|| Value::String(git_describe().to_owned()));
    }
}

/// Writes `results/BENCH_<name>.json` atomically and returns its path.
///
/// Top-level JSON objects get the provenance header stamped in (see
/// [`SCHEMA_VERSION`] and [`git_describe`]).
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_bench_json<T: Serialize>(name: &str, payload: &T) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut value = payload.to_value();
    stamp_header(&mut value);
    let text = serde_json::to_string_pretty(&value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let tmp = dir.join(format!("BENCH_{name}.json.tmp"));
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_lands_atomically() {
        let dir = std::env::temp_dir().join(format!("harmony-json-test-{}", std::process::id()));
        // The target directory is taken from the environment by
        // results_dir(); emulate that here without mutating the global
        // process environment.
        std::fs::create_dir_all(&dir).unwrap();
        let payload = Value::object(&[
            ("answer", Value::Number(42.0)),
            ("name", Value::String("fault_scenarios".to_owned())),
        ]);
        // Exercise the serialization path write_bench_json uses,
        // including the provenance header it stamps in.
        let mut value = payload.to_value();
        stamp_header(&mut value);
        let text = serde_json::to_string_pretty(&value).unwrap();
        assert!(text.contains("\"answer\":42"), "{text}");
        assert!(text.contains("\"schema_version\":2"), "{text}");
        assert!(text.contains("\"git_rev\""), "{text}");
        let parsed: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, value);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_stamp_never_overwrites_payload_keys() {
        let mut v = Value::object(&[
            ("schema_version", Value::Number(1.0)),
            ("git_rev", Value::String("pinned".to_owned())),
        ]);
        stamp_header(&mut v);
        let Value::Object(map) = &v else {
            panic!("object expected")
        };
        assert_eq!(map["schema_version"], Value::Number(1.0));
        assert_eq!(map["git_rev"], Value::String("pinned".to_owned()));
    }

    #[test]
    fn git_describe_is_cached_and_nonempty() {
        let a = git_describe();
        assert!(!a.is_empty());
        assert_eq!(a, git_describe());
    }
}
