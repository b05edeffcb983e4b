//! The metric and alert registries in DESIGN.md agree with the code.
//!
//! Metric and alert-rule names are string literals at their call sites, so
//! nothing but this test ties them to the documented tables:
//!
//! * every `svbr_obsv::{counter, gauge, histogram}[_with]("…")` call under
//!   `crates/` (spelled `crate::…` inside this crate) is scanned for its
//!   name, kind and inline `&[("key", …)]` label keys, and compared in both
//!   directions with the DESIGN §7b table: an undocumented name, a row no
//!   code registers, a kind mismatch and a label key on one side only all
//!   fail, as do names off the `prefix.dotted.lower_snake` convention and
//!   label sets that are malformed, wider than three keys or use the
//!   reserved `other` key;
//! * the rules of [`svbr_obsv::alerts::default_rules`] are compared in both
//!   directions, with their severities, against the §7c alert table.
//!
//! The scan is textual: `//` comment lines are skipped, and a name or label
//! slice passed through a variable is invisible to it, so such a metric
//! shows up as a dead row. Pass literals at the call site.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Allowed first segments of a metric name.
const PREFIXES: &[&str] = &[
    "par",
    "cache",
    "is",
    "queue",
    "pipeline",
    "lrd",
    "resilience",
    "obsv",
    "serve",
    "trace",
    "alert",
];

/// Most label keys one call site may carry: every key multiplies the series
/// count, and the per-name cardinality cap folds overflow into `other`.
const MAX_LABEL_KEYS: usize = 3;

/// The label key `svbr-obsv` reserves for cardinality-cap overflow.
const RESERVED_LABEL_KEY: &str = "other";

/// One registration call found in the source.
struct Site {
    at: String,
    kind: &'static str,
    name: String,
    labels: Vec<String>,
}

/// One row of the §7b table.
struct Row {
    kind: String,
    labels: BTreeSet<String>,
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The string literal `s` opens with (after whitespace), and the rest.
fn literal(s: &str) -> Option<(&str, &str)> {
    s.trim_start().strip_prefix('"')?.split_once('"')
}

/// The first element of each tuple in the inline slice that follows a
/// labeled call's name literal (`, &[("key", value), …]`).
fn label_keys(rest: &str) -> Vec<String> {
    let Some(slice) = rest
        .trim_start()
        .strip_prefix(',')
        .and_then(|s| s.trim_start().strip_prefix("&["))
    else {
        return Vec::new();
    };
    let mut keys = Vec::new();
    let (mut parens, mut brackets, mut in_str) = (0u32, 0u32, false);
    for (i, c) in slice.char_indices() {
        match c {
            '"' => in_str = !in_str,
            _ if in_str => {}
            '(' => {
                parens += 1;
                if parens == 1 && brackets == 0 {
                    if let Some((key, _)) = literal(&slice[i + 1..]) {
                        keys.push(key.to_string());
                    }
                }
            }
            ')' => parens = parens.saturating_sub(1),
            '[' => brackets += 1,
            ']' if brackets == 0 => break,
            ']' => brackets -= 1,
            _ => {}
        }
    }
    keys
}

/// Every registration call in one file's source.
fn scan(file: &str, src: &str) -> Vec<Site> {
    let mut code = String::with_capacity(src.len());
    for line in src.lines() {
        if !line.trim_start().starts_with("//") {
            code.push_str(line);
        }
        code.push('\n');
    }
    let mut sites = Vec::new();
    for prefix in ["svbr_obsv::", "crate::"] {
        for (at, _) in code.match_indices(prefix) {
            let after = &code[at + prefix.len()..];
            let Some(kind) = ["counter", "gauge", "histogram"]
                .into_iter()
                .find(|k| after.starts_with(k))
            else {
                continue;
            };
            let after = &after[kind.len()..];
            let (labeled, after) = match after.strip_prefix("_with") {
                Some(rest) => (true, rest),
                None => (false, after),
            };
            let Some((name, rest)) = after.strip_prefix('(').and_then(literal) else {
                continue;
            };
            let line = code[..at].matches('\n').count() + 1;
            sites.push(Site {
                at: format!("{file}:{line}"),
                kind,
                name: name.to_string(),
                labels: if labeled {
                    label_keys(rest)
                } else {
                    Vec::new()
                },
            });
        }
    }
    sites
}

/// The rows of the markdown table under the heading that starts with
/// `heading`, each split into its trimmed cells with backticks removed.
fn table(design: &str, heading: &str) -> Vec<Vec<String>> {
    let section = design
        .split("\n#")
        .find(|s| s.trim_start_matches('#').trim_start().starts_with(heading))
        .unwrap_or_else(|| panic!("DESIGN.md has no section `{heading}`"));
    section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().replace('`', ""))
                .collect()
        })
        .collect()
}

fn design() -> String {
    std::fs::read_to_string(workspace_root().join("DESIGN.md")).expect("DESIGN.md is readable")
}

fn is_lower_snake(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

fn is_metric_name(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && PREFIXES.contains(&segments[0])
        && segments.iter().all(|s| is_lower_snake(s))
}

#[test]
fn scan_reads_names_kinds_and_label_keys() {
    // Spelled with placeholders so the workspace scan does not count this
    // fixture as call sites.
    let src = r#"
        // OBSV::counter("commented.out").inc();
        OBSV::counter("par.runs").inc();
        CRATE::histogram_with("lrd.fft.len", &[]).record(1);
        OBSV::counter_with(
            "cache.lookups",
            &[("backend", backend), ("outcome", &format!("{}", x.f("(")))],
        )
        .inc();
        OBSV::gauge_with("queue.source.mean", &labels).set(1.0);
        OBSV::counters("not.a.call");
    "#
    .replace("OBSV::", "svbr_obsv::")
    .replace("CRATE::", "crate::");
    let sites = scan("f.rs", &src);
    let found: Vec<(&str, &str, Vec<String>)> = sites
        .iter()
        .map(|s| (s.kind, s.name.as_str(), s.labels.clone()))
        .collect();
    let keys = |k: &[&str]| k.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    assert_eq!(
        found,
        vec![
            ("counter", "par.runs", keys(&[])),
            ("counter", "cache.lookups", keys(&["backend", "outcome"])),
            ("gauge", "queue.source.mean", keys(&[])),
            ("histogram", "lrd.fft.len", keys(&[])),
        ]
    );
    assert_eq!(sites[1].at, "f.rs:5");
}

#[test]
fn metric_registry_matches_design_table() {
    let root = workspace_root();
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    files.sort();
    let mut sites = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("source is readable");
        let rel = path.strip_prefix(&root).unwrap_or(path);
        sites.extend(scan(&rel.to_string_lossy(), &src));
    }

    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    let mut problems = Vec::new();
    for cells in table(&design(), "7b.") {
        let [name, kind, labels, ..] = cells.as_slice() else {
            problems.push(format!("DESIGN §7b: malformed row {cells:?}"));
            continue;
        };
        let labels = match labels.as_str() {
            "-" => BTreeSet::new(),
            l => l.split(',').map(|k| k.trim().to_string()).collect(),
        };
        let row = Row {
            kind: kind.clone(),
            labels,
        };
        if rows.insert(name.clone(), row).is_some() {
            problems.push(format!("DESIGN §7b: `{name}` has two rows"));
        }
    }
    assert!(rows.len() > 50, "parsed only {} §7b rows", rows.len());

    let mut used_keys: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for site in &sites {
        let Site {
            at,
            kind,
            name,
            labels,
        } = site;
        if !is_metric_name(name) {
            problems.push(format!(
                "{at}: `{name}` is not `prefix.dotted.lower_snake` under one of {PREFIXES:?}"
            ));
        }
        if labels.len() > MAX_LABEL_KEYS {
            problems.push(format!(
                "{at}: `{name}` carries {} label keys (at most {MAX_LABEL_KEYS})",
                labels.len()
            ));
        }
        for key in labels {
            if key == RESERVED_LABEL_KEY || !is_lower_snake(key) {
                problems.push(format!(
                    "{at}: `{name}` label key `{key}` is reserved or not lower_snake"
                ));
            }
        }
        let Some(row) = rows.get(name) else {
            problems.push(format!(
                "{at}: {kind} `{name}` is not in the DESIGN §7b table"
            ));
            continue;
        };
        if row.kind != *kind {
            problems.push(format!(
                "{at}: `{name}` is registered as a {kind}, DESIGN §7b says {}",
                row.kind
            ));
        }
        for key in labels {
            if !row.labels.contains(key) {
                problems.push(format!(
                    "{at}: `{name}` label key `{key}` is not in its DESIGN §7b labels column"
                ));
            }
        }
        used_keys
            .entry(name)
            .or_default()
            .extend(labels.iter().map(String::as_str));
    }
    for (name, row) in &rows {
        let Some(keys) = used_keys.get(name.as_str()) else {
            problems.push(format!("DESIGN §7b: `{name}` is registered by no code"));
            continue;
        };
        for key in &row.labels {
            if !keys.contains(key.as_str()) {
                problems.push(format!(
                    "DESIGN §7b: `{name}` documents label key `{key}` that no call site uses"
                ));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "{} registry problem(s):\n{}",
        problems.len(),
        problems.join("\n")
    );
}

#[test]
fn alert_rules_match_design_table() {
    let documented: BTreeSet<(String, String)> = table(&design(), "7c.")
        .into_iter()
        .map(|cells| (cells[0].clone(), cells[1].clone()))
        .collect();
    let coded: BTreeSet<(String, String)> = svbr_obsv::alerts::default_rules(0.9)
        .iter()
        .map(|r| (r.name.to_string(), r.severity.as_str().to_string()))
        .collect();
    let undocumented: Vec<_> = coded.difference(&documented).collect();
    let dead: Vec<_> = documented.difference(&coded).collect();
    assert!(
        undocumented.is_empty() && dead.is_empty(),
        "alert rules (name, severity) in default_rules but not in DESIGN §7c: {undocumented:?}; \
         in DESIGN §7c but not in default_rules: {dead:?}"
    );
}
