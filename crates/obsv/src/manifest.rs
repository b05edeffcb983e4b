//! Run manifests: seed, model parameters, git revision, wall-clock totals,
//! and a final metrics snapshot — everything needed to identify and compare
//! runs after the fact.

#![expect(
    clippy::disallowed_types,
    reason = "a manifest times its own lifetime, independent of when the obsv process epoch was first read"
)]

use crate::event::{push_json_number, push_json_string};
use crate::metrics::Snapshot;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Provenance record for one run of a binary. Serialize with
/// [`RunManifest::to_json`] once the run completes.
#[derive(Debug)]
pub struct RunManifest {
    /// Human-readable run name, e.g. `"repro"`.
    pub name: String,
    /// Master RNG seed for the run.
    pub seed: u64,
    /// Git revision of the working tree (`None` outside a checkout).
    pub git_revision: Option<String>,
    /// Model parameters — Hurst `h`, SRD decay `beta`, knee `kt`,
    /// attenuation `a`, and any others, as `(name, value)` pairs.
    pub params: Vec<(String, f64)>,
    /// Free-form annotations appended during the run — the resilience
    /// layer records every recovery (retry after a panic, degraded
    /// generator tier, ESS collapse, resume-from-checkpoint) here so a
    /// completed run is never silently "clean" when it wasn't.
    pub notes: Vec<String>,
    started_wall: Option<u64>,
    started: Instant,
}

impl RunManifest {
    /// Start a manifest now; reads the git revision from `root`.
    #[expect(
        clippy::disallowed_methods,
        reason = "a manifest times its own lifetime, independent of when the obsv process epoch was first read"
    )]
    pub fn new(name: &str, seed: u64, root: &Path) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock start is run metadata only; it never feeds an RNG or the sample path"
        )]
        let started_wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .ok()
            .map(|d| d.as_secs());
        Self {
            name: name.to_string(),
            seed,
            git_revision: git_revision(root),
            params: Vec::new(),
            notes: Vec::new(),
            started_wall,
            started: Instant::now(),
        }
    }

    /// Record (or overwrite) a named model parameter.
    pub fn set_param(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.params.iter_mut().find(|(k, _)| k == name) {
            slot.1 = value;
        } else {
            self.params.push((name.to_string(), value));
        }
    }

    /// Append a free-form annotation (e.g. a recovery record).
    pub fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Seconds since the manifest was created (the run's wall-clock total).
    pub fn wall_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Serialize the manifest plus a metrics snapshot as pretty-ish JSON.
    pub fn to_json(&self, metrics: &Snapshot) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n  \"name\": ");
        push_json_string(&mut out, &self.name);
        out.push_str(&format!(",\n  \"seed\": {}", self.seed));
        out.push_str(",\n  \"git_revision\": ");
        match &self.git_revision {
            Some(rev) => push_json_string(&mut out, rev),
            None => out.push_str("null"),
        }
        if let Some(t) = self.started_wall {
            out.push_str(&format!(",\n  \"started_unix_secs\": {t}"));
        }
        out.push_str(&format!(",\n  \"wall_secs\": {:.6}", self.wall_secs()));
        out.push_str(",\n  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, k);
            out.push_str(": ");
            push_json_number(&mut out, *v);
        }
        out.push_str("\n  },\n  \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, note);
        }
        out.push_str("\n  ],\n  \"counters\": {");
        for (i, (k, v)) in metrics.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, k);
            out.push_str(&format!(": {v}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in metrics.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, k);
            out.push_str(": ");
            push_json_number(&mut out, *v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in metrics.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_json_string(&mut out, k);
            out.push_str(&format!(
                ": {{\"count\": {}, \"sum\": {}, \"mean\": ",
                h.count, h.sum
            ));
            push_json_number(&mut out, h.mean());
            out.push('}');
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Write the manifest JSON to `path`.
    pub fn write(&self, path: &Path, metrics: &Snapshot) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json(metrics))
    }
}

/// Resolve the current git revision by reading `.git/HEAD` (and the ref it
/// points at) starting from `root` and walking up. Pure file reads — no
/// subprocess — so it works in sandboxes without a `git` binary.
pub fn git_revision(root: &Path) -> Option<String> {
    let mut dir = Some(root);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return read_head(&git);
        }
        dir = d.parent();
    }
    None
}

fn read_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(sha) = std::fs::read_to_string(git_dir.join(refname)) {
            return Some(sha.trim().to_string());
        }
        // Packed refs fallback.
        let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some((sha, name)) = line.split_once(' ') {
                if name.trim() == refname {
                    return Some(sha.trim().to_string());
                }
            }
        }
        None
    } else {
        Some(head.to_string())
    }
}
