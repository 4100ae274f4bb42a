//! Incremental sweep manifest (`results/manifest.json`).
//!
//! `repro` records the fate of every sweep cell here as it completes
//! — `ok`, `panicked`, `timeout`, `livelock`, `audit-violation` or
//! `interrupted`, keyed `<target>/<cell-id>` —
//! rewriting the file after each cell so a crashed or killed sweep
//! leaves an accurate ledger behind. `repro --resume` reads it back,
//! replays cells already marked `ok` at the same scale from the cell
//! cache, and re-runs only the failures (and anything never
//! attempted).
//!
//! The manifest deliberately carries **no timestamps or durations**:
//! two runs of the same sweep at the same scale produce byte-identical
//! manifests, so it can sit inside byte-diffed determinism checks.
//!
//! The format is a fixed JSON shape. [`Manifest::render`] writes it by
//! hand (one cell per line, so the ledger diffs well);
//! [`Manifest::parse`] reads it back through `serde_json::parse` and
//! accepts only that shape — a truncated or hand-edited manifest that
//! strays from it is treated as absent rather than guessed at.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use serde::Value;

/// Fate of one sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// `"ok"`, `"panicked"`, `"timeout"`, `"livelock"`,
    /// `"audit-violation"`, or `"interrupted"`.
    pub status: String,
    /// The panic or `SimAbort` message for failed cells.
    pub message: Option<String>,
}

impl CellRecord {
    /// A completed cell.
    pub fn ok() -> Self {
        CellRecord {
            status: "ok".to_string(),
            message: None,
        }
    }

    /// A failed cell with its status tag and message.
    pub fn failed(status: &str, message: String) -> Self {
        CellRecord {
            status: status.to_string(),
            message: Some(message),
        }
    }

    /// `{"status": "...", "message": "..."}`, the message optional.
    fn from_value(record: Value) -> Option<Self> {
        let Value::Object(fields) = record else {
            return None;
        };
        let mut status = None;
        let mut message = None;
        for (key, value) in fields {
            let Value::String(value) = value else {
                return None;
            };
            match key.as_str() {
                "status" => status = Some(value),
                "message" => message = Some(value),
                _ => return None,
            }
        }
        Some(CellRecord {
            status: status?,
            message,
        })
    }
}

/// The sweep ledger: scale plus per-cell fate, keyed
/// `<target>/<cell-id>`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// `"full"` or `"quick"`; a manifest written at one scale never
    /// satisfies `--resume` at the other.
    pub scale: String,
    /// Per-cell records in deterministic (sorted) order.
    pub cells: BTreeMap<String, CellRecord>,
}

impl Manifest {
    /// Fresh manifest for a sweep at `scale`.
    pub fn new(scale: &str) -> Self {
        Manifest {
            scale: scale.to_string(),
            cells: BTreeMap::new(),
        }
    }

    /// True if `cell` completed (`ok`) in this manifest.
    pub fn is_ok(&self, cell: &str) -> bool {
        self.cells.get(cell).is_some_and(|r| r.status == "ok")
    }

    /// Record (or overwrite) one cell's fate.
    pub fn record(&mut self, cell: &str, record: CellRecord) {
        self.cells.insert(cell.to_string(), record);
    }

    /// Serialize to the fixed manifest shape.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", escape(&self.scale)));
        out.push_str("  \"cells\": {\n");
        let last = self.cells.len().saturating_sub(1);
        for (i, (name, rec)) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"status\": \"{}\"",
                escape(name),
                escape(&rec.status)
            ));
            if let Some(msg) = &rec.message {
                out.push_str(&format!(", \"message\": \"{}\"", escape(msg)));
            }
            out.push('}');
            if i != last {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Write atomically-enough (temp file + rename) to `dir/manifest.json`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join("manifest.json.tmp");
        let path = dir.join("manifest.json");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(self.render().as_bytes())?;
        drop(f);
        std::fs::rename(&tmp, &path)
    }

    /// Read `dir/manifest.json` back; `None` if the file is absent or
    /// not in the shape [`Manifest::write`] produces.
    pub fn load(dir: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(dir.join("manifest.json")).ok()?;
        Self::parse(&text)
    }

    /// Parse the fixed manifest shape (the inverse of [`Manifest::render`]).
    pub fn parse(text: &str) -> Option<Self> {
        let Value::Object(top) = serde_json::parse(text).ok()? else {
            return None;
        };
        let mut scale = None;
        let mut cells = BTreeMap::new();
        for (key, value) in top {
            match (key.as_str(), value) {
                ("version", Value::Int(1)) => {}
                ("scale", Value::String(s)) => scale = Some(s),
                ("cells", Value::Object(records)) => {
                    for (name, record) in records {
                        cells.insert(name, CellRecord::from_value(record)?);
                    }
                }
                _ => return None,
            }
        }
        Some(Manifest {
            scale: scale?,
            cells,
        })
    }
}

/// Escape a string for the manifest's JSON strings (also used by the
/// `failures.json` writer in [`crate::exec`]).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_a_truncation_is_never_a_partial_ledger() {
        let mut m = Manifest::new("quick");
        m.record("fig45", CellRecord::ok());
        m.record(
            "panic-cell",
            CellRecord::failed(
                "panicked",
                "deliberate \"quoted\" \\ γ panic,\nwith newline \u{1} {\"status\": \"ok\"}".into(),
            ),
        );
        m.record("chaos", CellRecord::failed("timeout", "cell exceeded the 2s deadline".into()));
        let text = m.render();
        assert_eq!(Manifest::parse(&text), Some(m.clone()));
        // Every byte prefix (a cut inside the two-byte γ reads back as
        // U+FFFD, as a lossy file read would give it).
        for cut in 0..text.len() {
            let prefix = String::from_utf8_lossy(&text.as_bytes()[..cut]);
            let parsed = Manifest::parse(&prefix);
            assert!(
                parsed.as_ref().is_none_or(|p| *p == m),
                "cut at byte {cut} parsed to a different ledger: {parsed:?}"
            );
        }
    }

    #[test]
    fn render_is_deterministic_and_timestamp_free() {
        let mut m = Manifest::new("full");
        m.record("b", CellRecord::ok());
        m.record("a", CellRecord::ok());
        let one = m.render();
        let two = m.clone().render();
        assert_eq!(one, two);
        // Sorted cell order regardless of insertion order.
        assert!(one.find("\"a\"").unwrap() < one.find("\"b\"").unwrap());
    }

    #[test]
    fn ok_lookup_ignores_failures() {
        let mut m = Manifest::new("quick");
        m.record("good", CellRecord::ok());
        m.record("bad", CellRecord::failed("panicked", "boom".into()));
        assert!(m.is_ok("good"));
        assert!(!m.is_ok("bad"));
        assert!(!m.is_ok("absent"));
    }

    #[test]
    fn malformed_text_is_rejected_not_guessed() {
        assert!(Manifest::parse("not json").is_none());
        assert!(Manifest::parse("{\n  \"cells\": {\n  }\n}\n").is_none()); // no scale
    }

    #[test]
    fn writes_and_loads_from_disk() {
        let dir = std::env::temp_dir().join(format!("slowcc-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Manifest::new("quick");
        m.record("fig3", CellRecord::ok());
        m.write(&dir).expect("manifest writes");
        let back = Manifest::load(&dir).expect("manifest loads");
        assert_eq!(back, m);
        assert!(!dir.join("manifest.json.tmp").exists(), "temp file renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
