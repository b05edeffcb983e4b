//! `svbr-xtask analyze` — the cross-file determinism & numeric-safety audit.
//!
//! Everything clippy can enforce is clippy's job (`clippy.toml` and the CI
//! clippy passes; DESIGN.md §3b). `analyze` covers the repo-specific rest:
//! it builds a [`FileModel`] per file and enforces these rule families
//! across the workspace:
//!
//! | ID                         | what it flags                                            |
//! |----------------------------|----------------------------------------------------------|
//! | `det-float-reduction`      | `.sum()`/`.fold()`/… chained onto a `par_*` adapter      |
//! | `seed-flow`                | a seeded `pub fn` leaking ambient entropy, or a dead seed |
//! | `panic-surface`            | arithmetic slice indexing inside a loop body             |
//! | `metric-name`              | a metric name outside the `<prefix>.<path>` convention   |
//! | `metric-kind-conflict`     | one name registered as two kinds (or vs. DESIGN.md)      |
//! | `metric-undocumented`      | a registered metric missing from DESIGN.md's registry    |
//! | `metric-dead`              | a DESIGN.md registry row no code registers               |
//! | `metric-labels`            | label keys off the documented set, malformed, reserved, or over the per-site cap |
//! | `alert-rule-undocumented`  | an `AlertRule::new("…")` name missing from DESIGN.md's alert table |
//! | `alloc-in-hot-loop`        | a heap allocation (`Vec::new`/`vec!`/`collect`/`to_vec`/`Box::new`) in a loop body of a bit-identity crate |
//! | `unused-waiver`            | an `svbr-analyze:` waiver that suppressed no finding     |
//!
//! The determinism, panic-surface and allocation families apply only to
//! the crates that promise bit-identical output ([`AUDITED_CRATES`]);
//! seed-flow and the metric registry are workspace-wide. Waivers are
//! `// svbr-analyze: allow(<id>) <invariant>` comments (see
//! [`crate::waivers`]). The allocation rule additionally inspects the
//! waiver's invariant text: it must say why the allocation is bounded or
//! happens once, so a bare waiver cannot excuse a per-sample allocation.

use crate::model::{find_token_from, has_token, line_of, FileClass, FileModel, MetricKind};
use crate::waivers::{collect_waivers, WaiverBook};
use std::path::Path;

/// Crates whose public results must be bit-identical across thread counts
/// and checkpoint resume: the determinism, panic-surface and allocation
/// families apply to their library code.
pub const AUDITED_CRATES: &[&str] = &["par", "lrd", "is", "queue", "core", "resilience"];

/// Allowed first segments of an `svbr_obsv` metric name.
pub const METRIC_PREFIXES: &[&str] = &[
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

/// Most label keys a single call site may carry. Every key multiplies the
/// potential series count, and the registry's per-name cardinality cap
/// turns overflow into a lossy `other` bucket — more than this many
/// dimensions on one metric is a design smell, not an instrumentation
/// detail.
pub const MAX_METRIC_LABEL_KEYS: usize = 3;

/// The label key reserved by `svbr_obsv` for cardinality-cap overflow.
pub const RESERVED_LABEL_KEY: &str = "other";

/// Rule IDs.
pub const DET_FLOAT_REDUCTION: &str = "det-float-reduction";
pub const SEED_FLOW: &str = "seed-flow";
pub const PANIC_SURFACE: &str = "panic-surface";
pub const METRIC_NAME: &str = "metric-name";
pub const METRIC_KIND_CONFLICT: &str = "metric-kind-conflict";
pub const METRIC_UNDOCUMENTED: &str = "metric-undocumented";
pub const METRIC_DEAD: &str = "metric-dead";
pub const METRIC_LABELS: &str = "metric-labels";
pub const ALERT_RULE_UNDOCUMENTED: &str = "alert-rule-undocumented";
pub const ALLOC_IN_HOT_LOOP: &str = "alloc-in-hot-loop";
pub const UNUSED_WAIVER: &str = "unused-waiver";

/// The per-site-waivable subset this pass owns for the waiver audit
/// (`metric-dead` anchors in DESIGN.md, which has no waiver comments).
pub const ANALYZE_WAIVABLE_IDS: &[&str] = &[
    DET_FLOAT_REDUCTION,
    SEED_FLOW,
    PANIC_SURFACE,
    METRIC_NAME,
    METRIC_KIND_CONFLICT,
    METRIC_UNDOCUMENTED,
    METRIC_LABELS,
    ALERT_RULE_UNDOCUMENTED,
    ALLOC_IN_HOT_LOOP,
];

/// One analyze diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`DESIGN.md` for registry-side findings).
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// Stable rule ID.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Aggregated result over the whole tree.
#[derive(Debug, Default)]
pub struct AnalyzeReport {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files modeled.
    pub files_scanned: usize,
    /// Number of distinct metric names registered outside tests.
    pub metric_names: usize,
}

/// Analyze every `.rs` file under `root` plus the DESIGN.md registry.
pub fn analyze_tree(root: &Path) -> AnalyzeReport {
    let mut paths = Vec::new();
    crate::collect_rs_files(root, &mut paths);
    paths.sort();
    let mut files: Vec<(String, String)> = Vec::with_capacity(paths.len());
    for path in paths {
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, src));
    }
    let borrowed: Vec<(&str, &str)> = files
        .iter()
        .map(|(r, s)| (r.as_str(), s.as_str()))
        .collect();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).ok();
    analyze_sources(&borrowed, design.as_deref())
}

/// Analyze in-memory sources (the testable core of [`analyze_tree`]).
pub fn analyze_sources(files: &[(&str, &str)], design: Option<&str>) -> AnalyzeReport {
    let mut ctxs: Vec<(FileModel, WaiverBook)> = files
        .iter()
        .map(|(rel, src)| {
            let model = FileModel::build(rel, src);
            let book = WaiverBook::new(collect_waivers(&model.masked.comments));
            (model, book)
        })
        .collect();

    let mut findings = Vec::new();
    for (model, book) in ctxs.iter_mut() {
        file_rules(model, book, &mut findings);
    }
    let metric_names = metric_rules(&mut ctxs, design, &mut findings);
    alert_rule_rules(&mut ctxs, files, design, &mut findings);
    for (model, book) in &ctxs {
        findings.extend(
            book.unused(ANALYZE_WAIVABLE_IDS)
                .into_iter()
                .map(|w| Finding {
                    file: model.rel_path.clone(),
                    line: w.line,
                    rule: UNUSED_WAIVER,
                    message: format!(
                        "waiver for `{}` matched no finding: the code it excused was \
                 fixed or moved — delete the stale waiver",
                        w.ids.join(", ")
                    ),
                }),
        );
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    AnalyzeReport {
        findings,
        files_scanned: ctxs.len(),
        metric_names,
    }
}

/// The per-file families: determinism, panic-surface, allocation,
/// seed-flow.
fn file_rules(model: &FileModel, book: &mut WaiverBook, out: &mut Vec<Finding>) {
    alloc_rules(model, book, out);
    let audited =
        model.class == FileClass::Library && AUDITED_CRATES.contains(&model.crate_name.as_str());
    let mut push = |line: usize, rule: &'static str, message: String| {
        if !book.suppresses(line, rule) {
            out.push(Finding {
                file: model.rel_path.clone(),
                line,
                rule,
                message,
            });
        }
    };

    if audited {
        for (idx, lt) in model.masked.code.lines().enumerate() {
            let line_no = idx + 1;
            if model.in_test(line_no) || !model.in_loop(line_no) {
                continue;
            }
            if let Some(expr) = arithmetic_index(lt) {
                push(
                    line_no,
                    PANIC_SURFACE,
                    format!(
                        "arithmetic slice index `[{expr}]` inside a loop: \
                         prefer `get`/iterators/`split_at`, or waive with \
                         the bounds invariant"
                    ),
                );
            }
        }
        for (line, chain) in float_reductions(&model.masked.code, model) {
            push(
                line,
                DET_FLOAT_REDUCTION,
                format!(
                    "float reduction `{chain}` over a parallel adapter: \
                     summation order is nondeterministic — merge per-block \
                     results in index order (svbr_par-style) instead"
                ),
            );
        }
    }

    if model.class == FileClass::Library {
        seed_flow_rules(model, &mut push);
    }
}

/// `alloc-in-hot-loop`: heap allocation inside a loop body of a
/// bit-identity crate's library code. A per-iteration `Vec::new`/`vec!`/
/// `.collect()`/`.to_vec()`/`Box::new` turns the sample loop into an
/// allocator benchmark — hoist the buffer out of the loop (arena, scratch
/// struct, `clear()` + reuse) or take an `_into(&mut out)` parameter. A
/// waiver only counts if its invariant text states *why* the allocation is
/// acceptable: either a capacity argument ("capacity is …", "bounded by
/// …") or a one-time/amortized argument ("one-time", "once per …",
/// "amortized") — a bare waiver cannot excuse a per-sample allocation.
fn alloc_rules(model: &FileModel, book: &mut WaiverBook, out: &mut Vec<Finding>) {
    let scoped =
        model.class == FileClass::Library && AUDITED_CRATES.contains(&model.crate_name.as_str());
    if !scoped {
        return;
    }
    for (idx, lt) in model.masked.code.lines().enumerate() {
        let line_no = idx + 1;
        if model.in_test(line_no) || !model.in_loop(line_no) {
            continue;
        }
        let Some(what) = loop_allocation(lt) else {
            continue;
        };
        if book.suppresses(line_no, ALLOC_IN_HOT_LOOP) {
            let reason = book
                .reason_at(line_no, ALLOC_IN_HOT_LOOP)
                .unwrap_or_default();
            let lower = reason.to_lowercase();
            let capacity_invariant = lower.contains("capacit") || lower.contains("bound");
            let one_time_invariant = lower.contains("one-time")
                || lower.contains("one time")
                || lower.contains("once")
                || lower.contains("amortiz");
            if !(capacity_invariant || one_time_invariant) {
                // Pushed directly: the waiver that failed the invariant
                // check must not also suppress the check's own finding.
                out.push(Finding {
                    file: model.rel_path.clone(),
                    line: line_no,
                    rule: ALLOC_IN_HOT_LOOP,
                    message: format!(
                        "waiver for {what} must state a capacity or one-time \
                         invariant (why this allocation is bounded or happens \
                         once, e.g. \"one-time per …\", \"capacity bounded by \
                         …\"); found: \"{reason}\""
                    ),
                });
            }
            continue;
        }
        out.push(Finding {
            file: model.rel_path.clone(),
            line: line_no,
            rule: ALLOC_IN_HOT_LOOP,
            message: format!(
                "{what} inside a loop in bit-identity crate `{}`: hoist the \
                 buffer (scratch/arena/`_into` parameter) or waive with the \
                 capacity/one-time invariant",
                model.crate_name
            ),
        });
    }
}

/// What makes a line a per-iteration heap allocation, if anything.
fn loop_allocation(lt: &str) -> Option<&'static str> {
    if lt.contains("Vec::new(") || lt.contains("VecDeque::new(") {
        return Some("`Vec::new` allocation");
    }
    if lt.contains("vec!") {
        return Some("`vec!` allocation");
    }
    if lt.contains(".collect(") || lt.contains(".collect::<") {
        return Some("`.collect()` allocation");
    }
    if lt.contains(".to_vec(") {
        return Some("`.to_vec()` allocation");
    }
    if lt.contains("Box::new(") {
        return Some("`Box::new` allocation");
    }
    None
}

/// `seed-flow`: a `pub fn` that accepts a seed must thread it somewhere and
/// must not reach ambient entropy inside its body.
fn seed_flow_rules(model: &FileModel, push: &mut impl FnMut(usize, &'static str, String)) {
    const ENTROPY: &[&str] = &["thread_rng", "from_entropy", "SystemTime", "RandomState"];
    for f in &model.fns {
        if !f.is_pub || model.in_test(f.line) {
            continue;
        }
        let seed_params: Vec<&str> = f
            .params
            .iter()
            .map(String::as_str)
            .filter(|n| *n == "seed" || *n == "master_seed" || n.ends_with("_seed"))
            .collect();
        if seed_params.is_empty() {
            continue;
        }
        let Some((b0, b1)) = f.body else {
            continue;
        };
        let body = &model.masked.code[b0..b1];
        for tok in ENTROPY {
            if let Some(p) = find_token_from(body, tok, 0) {
                push(
                    line_of(&model.masked.code, b0 + p),
                    SEED_FLOW,
                    format!(
                        "`{}` takes `{}` but reaches ambient entropy `{tok}`: \
                         every random/temporal input on a seeded path must \
                         derive from the seed",
                        f.name, seed_params[0]
                    ),
                );
            }
        }
        for name in seed_params {
            if !has_token(body, name) {
                push(
                    f.line,
                    SEED_FLOW,
                    format!(
                        "`{}` accepts `{name}` but never uses it: a dead seed \
                         parameter means the output cannot be replayed from \
                         the recorded seed",
                        f.name
                    ),
                );
            }
        }
    }
}

/// `[…]` with an arithmetic index expression (`i + 1`, `2 * k - j`, …) on a
/// masked line. Array types/repeats (`[0.0; n]`) and attribute lines are
/// skipped; plain `[i]` is considered bounds-reviewed and allowed.
fn arithmetic_index(line: &str) -> Option<String> {
    let bytes = line.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'[' {
            i += 1;
            continue;
        }
        let mut p = i;
        while p > 0 && bytes[p - 1] == b' ' {
            p -= 1;
        }
        let prev = if p > 0 { bytes[p - 1] } else { b' ' };
        let indexes_value =
            prev.is_ascii_alphanumeric() || prev == b'_' || prev == b']' || prev == b')';
        // Find the matching bracket on this line.
        let mut depth = 0i32;
        let mut close = None;
        let mut j = i;
        while j < bytes.len() {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let close = close?;
        if indexes_value {
            let interior = &line[i + 1..close];
            let structural =
                interior.contains(';') || interior.contains('{') || interior.contains('|');
            let arith = interior.bytes().any(|b| matches!(b, b'+' | b'-' | b'*'));
            let has_var = interior.bytes().any(|b| b.is_ascii_alphabetic());
            if !structural && arith && has_var {
                return Some(interior.trim().to_string());
            }
        }
        i = close + 1;
    }
    None
}

/// Statement-level scan for float reductions chained onto parallel
/// adapters. Statements are delimited by `;`/`{`/`}` on masked code, so a
/// multi-line builder chain stays one statement.
fn float_reductions(code: &str, model: &FileModel) -> Vec<(usize, String)> {
    const PAR: &[&str] = &["par_iter", "into_par_iter", "par_bridge", "par_chunks"];
    const REDUCE: &[&str] = &[".sum(", ".fold(", ".reduce(", ".product("];
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut seg_start = 0usize;
    let mut i = 0usize;
    while i <= bytes.len() {
        let boundary = i == bytes.len() || matches!(bytes[i], b';' | b'{' | b'}');
        if boundary {
            let seg = &code[seg_start..i];
            if PAR.iter().any(|t| has_token(seg, t)) {
                for red in REDUCE {
                    if let Some(p) = seg.find(red) {
                        let line = line_of(code, seg_start + p);
                        if !model.in_test(line) {
                            let name = red.trim_start_matches('.').trim_end_matches('(');
                            out.push((line, format!("par_*…{name}()")));
                        }
                        break;
                    }
                }
            }
            seg_start = i + 1;
        }
        i += 1;
    }
    out
}

/// One parsed row of DESIGN.md's "Metric registry" table.
#[derive(Debug)]
struct RegistryRow {
    name: String,
    kind: String,
    /// Documented label keys (4-column table form). Empty for unlabeled
    /// metrics (`-` cell) and for legacy 3-column rows.
    labels: Vec<String>,
    line: usize,
}

/// Parse the machine-readable registry table under a heading containing
/// "Metric registry". Returns `None` when no such heading exists. Rows
/// may be the legacy 3-column `name | kind | meaning` form or the
/// 4-column `name | kind | labels | meaning` form; a labels cell of `-`
/// means the metric carries no labels.
fn parse_metric_registry(text: &str) -> Option<Vec<RegistryRow>> {
    let mut rows = Vec::new();
    let mut in_section = false;
    let mut found = false;
    for (idx, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('#') {
            in_section = t.to_ascii_lowercase().contains("metric registry");
            found |= in_section;
            continue;
        }
        if !in_section || !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t
            .trim_start_matches('|')
            .trim_end_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 2 || !cells[0].starts_with('`') {
            continue; // header or separator row
        }
        let name = cells[0].trim_matches('`').to_string();
        let kind = cells[1].to_ascii_lowercase();
        let labels = if cells.len() >= 4 {
            parse_label_cell(cells[2])
        } else {
            Vec::new()
        };
        if !name.is_empty() && ["counter", "gauge", "histogram"].contains(&kind.as_str()) {
            rows.push(RegistryRow {
                name,
                kind,
                labels,
                line: idx + 1,
            });
        }
    }
    if found {
        Some(rows)
    } else {
        None
    }
}

/// Split a registry `labels` cell into keys: backtick-quoted or bare,
/// comma-separated; `-` (or empty) means none.
fn parse_label_cell(cell: &str) -> Vec<String> {
    if cell == "-" || cell.is_empty() {
        return Vec::new();
    }
    cell.split(',')
        .map(|k| k.trim().trim_matches('`').to_string())
        .filter(|k| !k.is_empty())
        .collect()
}

/// Is a label key well-formed (`lower_snake`, starting with a letter)?
fn label_key_ok(key: &str) -> bool {
    key.as_bytes().first().is_some_and(u8::is_ascii_lowercase)
        && key
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Does a metric name follow `<prefix>.<lower_snake[.lower_snake…]>`?
fn metric_name_ok(name: &str) -> bool {
    let Some((prefix, rest)) = name.split_once('.') else {
        return false;
    };
    METRIC_PREFIXES.contains(&prefix)
        && !rest.is_empty()
        && rest.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

/// One non-test metric registration site, flattened for the rule passes.
#[derive(Clone)]
struct MetricSite {
    idx: usize,
    line: usize,
    kind: MetricKind,
    name: String,
    labels: Vec<String>,
}

/// The metric-registry family: naming, kind uniqueness, label-key
/// validation, and the bidirectional DESIGN.md cross-check. Returns the
/// distinct-name count.
fn metric_rules(
    ctxs: &mut [(FileModel, WaiverBook)],
    design: Option<&str>,
    out: &mut Vec<Finding>,
) -> usize {
    let mut sites: Vec<MetricSite> = Vec::new();
    for (idx, (model, _)) in ctxs.iter().enumerate() {
        for m in &model.metrics {
            if !m.in_test {
                sites.push(MetricSite {
                    idx,
                    line: m.line,
                    kind: m.kind,
                    name: m.name.clone(),
                    labels: m.labels.clone(),
                });
            }
        }
    }
    let mut push = |ctxs: &mut [(FileModel, WaiverBook)],
                    idx: usize,
                    line: usize,
                    rule: &'static str,
                    message: String| {
        let (model, book) = &mut ctxs[idx];
        if !book.suppresses(line, rule) {
            out.push(Finding {
                file: model.rel_path.clone(),
                line,
                rule,
                message,
            });
        }
    };

    // Naming convention.
    for s in sites.clone() {
        if !metric_name_ok(&s.name) {
            let name = &s.name;
            push(
                ctxs,
                s.idx,
                s.line,
                METRIC_NAME,
                format!(
                    "metric `{name}` violates the naming convention \
                     `<prefix>.<lower_snake…>` with prefix one of {}",
                    METRIC_PREFIXES.join("/")
                ),
            );
        }
    }
    // Per-site label-key hygiene: well-formed keys, no reserved key, and
    // a hard per-site dimension cap (cardinality guard).
    for s in sites.clone() {
        let name = &s.name;
        for key in &s.labels {
            if key == RESERVED_LABEL_KEY {
                let msg = format!(
                    "metric `{name}` uses label key `{RESERVED_LABEL_KEY}`, which \
                     svbr_obsv reserves for cardinality-cap overflow series"
                );
                push(ctxs, s.idx, s.line, METRIC_LABELS, msg);
            } else if !label_key_ok(key) {
                let msg = format!(
                    "metric `{name}` label key `{key}` is not lower_snake \
                     starting with a letter"
                );
                push(ctxs, s.idx, s.line, METRIC_LABELS, msg);
            }
        }
        if s.labels.len() > MAX_METRIC_LABEL_KEYS {
            let msg = format!(
                "metric `{name}` carries {} label keys; more than \
                 {MAX_METRIC_LABEL_KEYS} multiplies series cardinality past \
                 the registry's per-name cap",
                s.labels.len()
            );
            push(ctxs, s.idx, s.line, METRIC_LABELS, msg);
        }
    }
    // Kind uniqueness across code sites.
    let mut first_kind: std::collections::BTreeMap<String, (MetricKind, String, usize)> =
        std::collections::BTreeMap::new();
    for s in sites.clone() {
        let here = (ctxs[s.idx].0.rel_path.clone(), s.line);
        match first_kind.get(&s.name) {
            None => {
                first_kind.insert(s.name, (s.kind, here.0, here.1));
            }
            Some((k0, f0, l0)) if *k0 != s.kind => {
                let name = &s.name;
                let msg = format!(
                    "metric `{name}` registered as {} here but as {} at {f0}:{l0}: \
                     one name must map to one instrument",
                    s.kind.name(),
                    k0.name()
                );
                push(ctxs, s.idx, s.line, METRIC_KIND_CONFLICT, msg);
            }
            Some(_) => {}
        }
    }
    // Per-name union of statically visible label keys across sites.
    let mut used_keys: std::collections::BTreeMap<String, Vec<String>> =
        std::collections::BTreeMap::new();
    for s in &sites {
        let entry = used_keys.entry(s.name.clone()).or_default();
        for key in &s.labels {
            if !entry.contains(key) {
                entry.push(key.clone());
            }
        }
    }
    // DESIGN.md cross-check.
    match design.and_then(parse_metric_registry) {
        None => {
            if !sites.is_empty() {
                out.push(Finding {
                    file: String::from("DESIGN.md"),
                    line: 0,
                    rule: METRIC_UNDOCUMENTED,
                    message: format!(
                        "{} metric name(s) registered but DESIGN.md has no \
                         `Metric registry` table to cross-check them against",
                        first_kind.len()
                    ),
                });
            }
        }
        Some(rows) => {
            let by_name: std::collections::BTreeMap<&str, &RegistryRow> =
                rows.iter().map(|r| (r.name.as_str(), r)).collect();
            for s in sites.clone() {
                let name = &s.name;
                match by_name.get(s.name.as_str()) {
                    None => {
                        let msg = format!(
                            "metric `{name}` is not in DESIGN.md's `Metric registry` \
                             table: document it (name, kind, meaning) or remove it"
                        );
                        push(ctxs, s.idx, s.line, METRIC_UNDOCUMENTED, msg);
                    }
                    Some(row) if row.kind != s.kind.name() => {
                        let msg = format!(
                            "metric `{name}` registered as {} but DESIGN.md \
                             documents it as {} (row at DESIGN.md:{})",
                            s.kind.name(),
                            row.kind,
                            row.line
                        );
                        push(ctxs, s.idx, s.line, METRIC_KIND_CONFLICT, msg);
                    }
                    Some(row) => {
                        // Code→DESIGN: every key used at this site must be
                        // documented in the row's labels column.
                        let undocumented: Vec<&String> = s
                            .labels
                            .iter()
                            .filter(|k| !row.labels.iter().any(|d| d == *k))
                            .collect();
                        if !undocumented.is_empty() {
                            let keys = undocumented
                                .iter()
                                .map(|k| format!("`{k}`"))
                                .collect::<Vec<_>>()
                                .join(", ");
                            let msg = format!(
                                "metric `{name}` uses label key(s) {keys} not in \
                                 DESIGN.md's labels column (row at DESIGN.md:{})",
                                row.line
                            );
                            push(ctxs, s.idx, s.line, METRIC_LABELS, msg);
                        }
                    }
                }
            }
            for row in &rows {
                if !first_kind.contains_key(&row.name) {
                    out.push(Finding {
                        file: String::from("DESIGN.md"),
                        line: row.line,
                        rule: METRIC_DEAD,
                        message: format!(
                            "documented metric `{}` is registered nowhere in the \
                             workspace: delete the row or restore the instrumentation",
                            row.name
                        ),
                    });
                    continue;
                }
                // DESIGN→code: every documented label key must be visible at
                // some registration site of that name.
                let used = used_keys.get(&row.name);
                for key in &row.labels {
                    if !used.is_some_and(|u| u.contains(key)) {
                        out.push(Finding {
                            file: String::from("DESIGN.md"),
                            line: row.line,
                            rule: METRIC_LABELS,
                            message: format!(
                                "documented label key `{key}` of metric `{}` \
                                 appears at no registration site: drop it from \
                                 the labels column or label the call sites",
                                row.name
                            ),
                        });
                    }
                }
            }
        }
    }
    first_kind.len()
}

/// Every `AlertRule::new("…")` construction site in masked code. The rule
/// name is read from the *original* source at the masked literal's byte
/// span (masking is length-preserving), mirroring the metric extraction.
fn alert_rule_sites(model: &FileModel, src: &str) -> Vec<(String, usize)> {
    const PAT: &str = "AlertRule::new(";
    let code = model.masked.code.as_str();
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(rel) = code[from..].find(PAT) {
        let at = from + rel;
        from = at + PAT.len();
        let j = crate::model::skip_ws(bytes, from);
        if bytes.get(j) != Some(&b'"') {
            continue;
        }
        let q1 = j + 1;
        let Some(q2rel) = code[q1..].find('"') else {
            continue;
        };
        let name = src.get(q1..q1 + q2rel).unwrap_or("").to_string();
        if !name.is_empty() {
            out.push((name, line_of(code, at)));
        }
    }
    out
}

/// Parse the rule-name column of DESIGN.md's alert table (under a heading
/// containing "alert rules"): the first backticked cell of each row.
/// Returns `None` when no such heading exists.
fn parse_alert_rule_table(text: &str) -> Option<Vec<String>> {
    let mut names = Vec::new();
    let mut in_section = false;
    let mut found = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('#') {
            in_section = t.to_ascii_lowercase().contains("alert rules");
            found |= in_section;
            continue;
        }
        if !in_section || !t.starts_with('|') {
            continue;
        }
        let first = t
            .trim_start_matches('|')
            .split('|')
            .next()
            .unwrap_or("")
            .trim();
        if first.starts_with('`') {
            let name = first.trim_matches('`');
            if !name.is_empty() {
                names.push(name.to_string());
            }
        }
    }
    found.then_some(names)
}

/// The alert-rule registry cross-check: every `AlertRule::new("…")`
/// outside tests must name a rule documented in DESIGN.md's `Alert rules`
/// table. Fired alerts land in run manifests and the `/alerts` endpoint,
/// so a name nobody documented is an unreviewable operator signal.
fn alert_rule_rules(
    ctxs: &mut [(FileModel, WaiverBook)],
    files: &[(&str, &str)],
    design: Option<&str>,
    out: &mut Vec<Finding>,
) {
    let table = design.and_then(parse_alert_rule_table);
    for (idx, (model, book)) in ctxs.iter_mut().enumerate() {
        for (name, line) in alert_rule_sites(model, files[idx].1) {
            if model.in_test(line) || book.suppresses(line, ALERT_RULE_UNDOCUMENTED) {
                continue;
            }
            let message = match &table {
                Some(rows) if rows.iter().any(|r| r == &name) => continue,
                Some(_) => format!(
                    "alert rule `{name}` is not in DESIGN.md's `Alert rules` \
                     table: document it (name, severity, fires when) or remove it"
                ),
                None => format!(
                    "alert rule `{name}` is constructed but DESIGN.md has no \
                     `Alert rules` table to cross-check it against"
                ),
            };
            out.push(Finding {
                file: model.rel_path.clone(),
                line,
                rule: ALERT_RULE_UNDOCUMENTED,
                message,
            });
        }
    }
}

impl AnalyzeReport {
    /// Plain-text rendering (one `file:line: [rule] message` per finding,
    /// then a summary line).
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            if f.line == 0 {
                s.push_str(&format!("{}: [{}] {}\n", f.file, f.rule, f.message));
            } else {
                s.push_str(&format!(
                    "{}:{}: [{}] {}\n",
                    f.file, f.line, f.rule, f.message
                ));
            }
        }
        s.push_str(&format!(
            "svbr-analyze: {} file(s) scanned, {} metric name(s), {} finding(s)\n",
            self.files_scanned,
            self.metric_names,
            self.findings.len()
        ));
        s
    }

    /// JSON rendering: `{files_scanned, metric_names, findings: [...]}`.
    pub fn render_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"files_scanned\":{},", self.files_scanned));
        s.push_str(&format!("\"metric_names\":{},", self.metric_names));
        s.push_str("\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                crate::json_escape(&f.file),
                f.line,
                f.rule,
                crate::json_escape(&f.message)
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(files: &[(&str, &str)], design: Option<&str>) -> Vec<Finding> {
        analyze_sources(files, design).findings
    }

    fn of_rule<'a>(fs: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
        fs.iter().filter(|f| f.rule == rule).collect()
    }

    // ---- determinism family ---------------------------------------------

    #[test]
    fn fixture_det_float_reduction_fires() {
        let src = "\
pub fn total(chunks: &Chunks) -> f64 {
    chunks
        .par_iter()
        .map(|c| c.energy())
        .sum()
}
";
        let fs = findings(&[("crates/is/src/lib.rs", src)], None);
        let hits = of_rule(&fs, DET_FLOAT_REDUCTION);
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].line, 5,
            "reported at the reduction, not the adapter"
        );
        // Sequential iterator reductions are fine.
        let clean = "pub fn total(xs: &[f64]) -> f64 {\n    xs.iter().map(|x| x * 2.0).sum()\n}\n";
        let fs = findings(&[("crates/is/src/lib.rs", clean)], None);
        assert!(of_rule(&fs, DET_FLOAT_REDUCTION).is_empty());
    }

    // ---- seed-flow family -----------------------------------------------

    #[test]
    fn fixture_seed_flow_fires_on_entropy_and_dead_seed() {
        let entropy = "\
pub fn generate(seed: u64, n: usize) -> Vec<f64> {
    let _forgot = seed;
    let mut rng = rand::thread_rng();
    draw(&mut rng, n)
}
";
        let fs = findings(&[("crates/lrd/src/gen.rs", entropy)], None);
        let hits = of_rule(&fs, SEED_FLOW);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 3);
        assert!(hits[0].message.contains("thread_rng"));

        let dead = "\
pub fn generate(master_seed: u64, n: usize) -> Vec<f64> {
    vec![0.0; n]
}
";
        let fs = findings(&[("crates/lrd/src/gen.rs", dead)], None);
        let hits = of_rule(&fs, SEED_FLOW);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 1);
        assert!(hits[0].message.contains("never uses it"));

        let clean = "\
pub fn generate(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    draw(&mut rng, n)
}
";
        let fs = findings(&[("crates/lrd/src/gen.rs", clean)], None);
        assert!(of_rule(&fs, SEED_FLOW).is_empty());
        // Private fns and support files are out of scope.
        let private = entropy.replace("pub fn", "fn");
        let fs = findings(&[("crates/lrd/src/gen.rs", private.as_str())], None);
        assert!(of_rule(&fs, SEED_FLOW).is_empty());
        let fs = findings(&[("examples/demo.rs", entropy)], None);
        assert!(of_rule(&fs, SEED_FLOW).is_empty());
    }

    // ---- alloc-in-hot-loop family ---------------------------------------

    #[test]
    fn fixture_alloc_in_hot_loop_fires_in_loops_of_audited_library_code() {
        let src = "\
pub fn paths(n: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for _ in 0..n {
        let mut p = Vec::new();
        let q = vec![0.0; 8];
        let r: Vec<f64> = q.iter().map(|x| x + 1.0).collect();
        let s = q.to_vec();
        let b = Box::new(1.0f64);
        p.push(q[0] + r[0] + s[0] + *b);
        out.push(p);
    }
    out
}
";
        let fs = findings(&[("crates/queue/src/gen.rs", src)], None);
        let hits = of_rule(&fs, ALLOC_IN_HOT_LOOP);
        assert_eq!(
            hits.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![4, 5, 6, 7, 8],
            "every in-loop allocator fires; the hoisted Vec::new on line 2 does not"
        );
        // Out-of-scope locations never fire: unaudited crates, tests.
        let fs = findings(&[("crates/bench/src/gen.rs", src)], None);
        assert!(of_rule(&fs, ALLOC_IN_HOT_LOOP).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        let fs = findings(&[("crates/queue/src/gen.rs", in_test.as_str())], None);
        assert!(of_rule(&fs, ALLOC_IN_HOT_LOOP).is_empty());
    }

    #[test]
    fn fixture_alloc_in_hot_loop_waiver_needs_capacity_or_one_time_invariant() {
        // A stated capacity/one-time invariant suppresses…
        let waived = "\
pub fn restore(lines: &[&str]) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    for l in lines {
        // svbr-analyze: allow(alloc-in-hot-loop) one-time restore path, bounded by checkpoint size
        let row: Vec<f64> = l.split(',').map(|_| 0.0).collect();
        out.push(row);
    }
    out
}
";
        let fs = findings(&[("crates/resilience/src/ck.rs", waived)], None);
        assert!(of_rule(&fs, ALLOC_IN_HOT_LOOP).is_empty());
        assert!(of_rule(&fs, UNUSED_WAIVER).is_empty());
        // …a bare waiver does not: the invariant check fires instead.
        let bare = waived.replace(
            "one-time restore path, bounded by checkpoint size",
            "reviewed, looks fine",
        );
        let fs = findings(&[("crates/resilience/src/ck.rs", bare.as_str())], None);
        let hits = of_rule(&fs, ALLOC_IN_HOT_LOOP);
        assert_eq!(hits.len(), 1);
        assert!(hits[0]
            .message
            .contains("must state a capacity or one-time"));
    }

    // ---- panic-surface family -------------------------------------------

    #[test]
    fn fixture_panic_surface_fires_in_loops_only() {
        let src = "\
pub fn acf(w: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 1..w.len() {
        acc += w[i - 1] * w[i];
    }
    let edge = w[w.len() - 1];
    acc + edge
}
";
        let fs = findings(&[("crates/lrd/src/acf.rs", src)], None);
        let hits = of_rule(&fs, PANIC_SURFACE);
        assert_eq!(
            hits.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![4],
            "arithmetic index in the loop fires; outside the loop it does not"
        );
        // Plain `w[i]` carries no arithmetic: allowed.
        let plain = "pub fn s(w: &[f64]) -> f64 {\n    let mut a = 0.0;\n    for i in 0..w.len() {\n        a += w[i];\n    }\n    a\n}\n";
        let fs = findings(&[("crates/lrd/src/acf.rs", plain)], None);
        assert!(of_rule(&fs, PANIC_SURFACE).is_empty());
        // Array-repeat syntax `[0.0; n]` is not an index.
        let repeat = "pub fn z(n: usize) -> Vec<f64> {\n    let mut v = vec![0.0; n];\n    for i in 0..n {\n        v[i] = [0.0f64; 4][i % 4] + 0.0;\n    }\n    v\n}\n";
        let fs = findings(&[("crates/lrd/src/acf.rs", repeat)], None);
        // `[i % 4]` has no +-*: clean. (% is integer-safe modulo.)
        assert!(of_rule(&fs, PANIC_SURFACE).is_empty());
        // A waiver with the bounds invariant suppresses.
        let waived = "\
pub fn acf(w: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 1..w.len() {
        // svbr-analyze: allow(panic-surface) i ranges over 1..len so i-1 is in bounds
        acc += w[i - 1] * w[i];
    }
    acc
}
";
        let fs = findings(&[("crates/lrd/src/acf.rs", waived)], None);
        assert!(of_rule(&fs, PANIC_SURFACE).is_empty());
        assert!(of_rule(&fs, UNUSED_WAIVER).is_empty());
    }

    // ---- metric-registry family -----------------------------------------

    const DESIGN_OK: &str = "\
# DESIGN

## 7b. Metric registry

| name | kind | meaning |
|------|------|---------|
| `par.tasks` | counter | tasks executed |
| `cache.bytes` | gauge | resident cache size |

## next section

| `not.a.metric` | counter | outside the registry section |
";

    #[test]
    fn fixture_metric_family_cross_checks_design() {
        let code = "\
pub fn f() {
    svbr_obsv::counter(\"par.tasks\").add(1);
    svbr_obsv::gauge(\"par.tasks\").set(1);
    svbr_obsv::counter(\"par.undocumented\").add(1);
    svbr_obsv::counter(\"BadName\").add(1);
}
";
        let fs = findings(&[("crates/par/src/lib.rs", code)], Some(DESIGN_OK));
        // Kind conflict: gauge vs the counter registered first.
        let kc = of_rule(&fs, METRIC_KIND_CONFLICT);
        assert!(kc
            .iter()
            .any(|f| f.line == 3 && f.message.contains("par.tasks")));
        // Undocumented code-side name.
        let un = of_rule(&fs, METRIC_UNDOCUMENTED);
        assert!(un.iter().any(|f| f.line == 4));
        // Naming convention.
        let nm = of_rule(&fs, METRIC_NAME);
        assert_eq!(nm.len(), 1);
        assert_eq!(nm[0].line, 5);
        // Documented-but-dead row (cache.bytes never registered), and the
        // table outside the registry section is ignored.
        let dead = of_rule(&fs, METRIC_DEAD);
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("cache.bytes"));
        assert_eq!(dead[0].file, "DESIGN.md");
    }

    #[test]
    fn fixture_metric_family_clean_and_missing_table() {
        let code = "\
pub fn f() {
    svbr_obsv::counter(\"par.tasks\").add(1);
    svbr_obsv::gauge(\"cache.bytes\").set(1);
}
";
        let report = analyze_sources(&[("crates/par/src/lib.rs", code)], Some(DESIGN_OK));
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.metric_names, 2);
        // Registrations inside #[cfg(test)] are invisible to the registry.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() {\n        svbr_obsv::counter(\"scratch.x\").add(1);\n    }\n}\n";
        let fs = findings(&[("crates/par/src/lib.rs", test_only)], Some(DESIGN_OK));
        assert!(of_rule(&fs, METRIC_UNDOCUMENTED).is_empty());
        // No registry table at all: one aggregate finding.
        let fs = findings(&[("crates/par/src/lib.rs", code)], None);
        let un = of_rule(&fs, METRIC_UNDOCUMENTED);
        assert_eq!(un.len(), 1);
        assert_eq!(un[0].file, "DESIGN.md");
        assert_eq!(un[0].line, 0);
    }

    const DESIGN_LABELED: &str = "\
# DESIGN

## 7b. Metric registry

| name | kind | labels | meaning |
|------|------|--------|---------|
| `cache.lookups` | counter | `backend`, `outcome` | cache lookups |
| `queue.source.mean` | gauge | `source` | per-source mean |
| `par.tasks` | counter | - | tasks executed |
";

    #[test]
    fn fixture_metric_labels_cross_check_is_bidirectional() {
        // Clean: keys at the sites match the labels column exactly.
        let clean = "\
pub fn f(id: &str) {
    svbr_obsv::counter_with(\"cache.lookups\", &[(\"backend\", id), (\"outcome\", \"hit\")]).add(1);
    svbr_obsv::gauge_with(\"queue.source.mean\", &[(\"source\", id)]).set(1.0);
    svbr_obsv::counter(\"par.tasks\").add(1);
}
";
        let fs = findings(&[("crates/queue/src/lib.rs", clean)], Some(DESIGN_LABELED));
        assert!(fs.is_empty(), "{fs:?}");
        // Code→DESIGN: an undocumented key at a call site fires there.
        let extra_key = clean.replace("(\"source\", id)", "(\"region\", id)");
        let fs = findings(
            &[("crates/queue/src/lib.rs", extra_key.as_str())],
            Some(DESIGN_LABELED),
        );
        let ml = of_rule(&fs, METRIC_LABELS);
        assert_eq!(ml.len(), 2, "{ml:?}");
        // …once for the undocumented `region`, once for the now-unused
        // documented `source` on the DESIGN.md row.
        assert!(ml
            .iter()
            .any(|f| f.line == 3 && f.message.contains("`region`")));
        assert!(ml
            .iter()
            .any(|f| f.file == "DESIGN.md" && f.message.contains("`source`")));
        // DESIGN→code: dropping a documented key's call-site usage fires
        // on the table row.
        let missing_outcome = clean.replace(", (\"outcome\", \"hit\")", "");
        let fs = findings(
            &[("crates/queue/src/lib.rs", missing_outcome.as_str())],
            Some(DESIGN_LABELED),
        );
        let ml = of_rule(&fs, METRIC_LABELS);
        assert_eq!(ml.len(), 1, "{ml:?}");
        assert_eq!(ml[0].file, "DESIGN.md");
        assert!(ml[0].message.contains("`outcome`"));
        // A waiver on the call site suppresses the code-side finding.
        let waived = extra_key.replace(
            "    svbr_obsv::gauge_with",
            "    // svbr-analyze: allow(metric-labels) region key lands in DESIGN next PR\n    svbr_obsv::gauge_with",
        );
        let fs = findings(
            &[("crates/queue/src/lib.rs", waived.as_str())],
            Some(DESIGN_LABELED),
        );
        let ml = of_rule(&fs, METRIC_LABELS);
        assert_eq!(ml.len(), 1, "{ml:?}");
        assert_eq!(ml[0].file, "DESIGN.md");
        assert!(of_rule(&fs, UNUSED_WAIVER).is_empty());
    }

    // ---- alert-rule registry --------------------------------------------

    const DESIGN_ALERTS: &str = "\
# DESIGN

## 7b. Metric registry

| name | kind | meaning |
|------|------|---------|
| `par.tasks` | counter | tasks executed |

## 7c. Alert rules

| rule | severity | fires when |
|------|----------|------------|
| `latency-slo-chunk` | warning | chunk p95 over budget |
| `hurst-band` | critical | MAVAR Hurst outside band |
";

    #[test]
    fn fixture_alert_rules_cross_check_design_table() {
        let code = "\
pub fn rules() -> Vec<AlertRule> {
    vec![
        AlertRule::new(\"latency-slo-chunk\", Severity::Warning, kind()),
        AlertRule::new(\"made-up-rule\", Severity::Critical, kind()),
    ]
}
";
        let fs = findings(&[("crates/obsv/src/alerts.rs", code)], Some(DESIGN_ALERTS));
        let hits = of_rule(&fs, ALERT_RULE_UNDOCUMENTED);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4);
        assert!(hits[0].message.contains("`made-up-rule`"));
        // Documented names are clean.
        let clean = code.replace("made-up-rule", "hurst-band");
        let fs = findings(
            &[("crates/obsv/src/alerts.rs", clean.as_str())],
            Some(DESIGN_ALERTS),
        );
        assert!(of_rule(&fs, ALERT_RULE_UNDOCUMENTED).is_empty());
        // Constructions inside #[cfg(test)] are exempt: tests may invent
        // throwaway rule names.
        let test_only = "#[cfg(test)]\nmod tests {\n    fn t() {\n        let _ = AlertRule::new(\"scratch-rule\", Severity::Warning, kind());\n    }\n}\n";
        let fs = findings(
            &[("crates/obsv/src/alerts.rs", test_only)],
            Some(DESIGN_ALERTS),
        );
        assert!(of_rule(&fs, ALERT_RULE_UNDOCUMENTED).is_empty());
        // A waiver on the construction site suppresses.
        let waived = code.replace(
            "        AlertRule::new(\"made-up-rule\"",
            "        // svbr-analyze: allow(alert-rule-undocumented) table row lands next PR\n        AlertRule::new(\"made-up-rule\"",
        );
        let fs = findings(
            &[("crates/obsv/src/alerts.rs", waived.as_str())],
            Some(DESIGN_ALERTS),
        );
        assert!(of_rule(&fs, ALERT_RULE_UNDOCUMENTED).is_empty());
        assert!(of_rule(&fs, UNUSED_WAIVER).is_empty());
    }

    #[test]
    fn fixture_alert_rules_without_design_table_fire_per_site() {
        let code = "pub fn r() -> AlertRule {\n    AlertRule::new(\"latency-slo-chunk\", Severity::Warning, kind())\n}\n";
        // DESIGN_OK has a metric registry but no alert table: every
        // non-test construction fires, naming the missing table.
        let fs = findings(&[("crates/obsv/src/alerts.rs", code)], Some(DESIGN_OK));
        let hits = of_rule(&fs, ALERT_RULE_UNDOCUMENTED);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("no `Alert rules` table"));
        // trace./alert. are valid metric prefixes now.
        assert!(metric_name_ok("trace.spans"));
        assert!(metric_name_ok("alert.fired"));
    }

    #[test]
    fn fixture_metric_labels_site_hygiene() {
        // Reserved key, malformed key, and the per-site cap each fire.
        let code = "\
pub fn f(id: &str) {
    svbr_obsv::counter_with(\"par.tasks\", &[(\"other\", id)]).add(1);
    svbr_obsv::counter_with(\"par.tasks\", &[(\"BadKey\", id)]).add(1);
    svbr_obsv::counter_with(\"par.tasks\", &[(\"a\", id), (\"b\", id), (\"c\", id), (\"d\", id)]).add(1);
}
";
        let fs = findings(&[("crates/par/src/lib.rs", code)], None);
        let ml = of_rule(&fs, METRIC_LABELS);
        assert!(ml
            .iter()
            .any(|f| f.line == 2 && f.message.contains("reserve")));
        assert!(ml
            .iter()
            .any(|f| f.line == 3 && f.message.contains("lower_snake")));
        assert!(ml
            .iter()
            .any(|f| f.line == 4 && f.message.contains("cardinality")));
    }

    // ---- waiver audit ----------------------------------------------------

    #[test]
    fn unused_analyze_waivers_surface() {
        let unused = "// svbr-analyze: allow(seed-flow) nothing here needs it\npub fn ok() {}\n";
        let fs = findings(&[("crates/lrd/src/gen.rs", unused)], None);
        let uw = of_rule(&fs, UNUSED_WAIVER);
        assert_eq!(uw.len(), 1);
        assert_eq!(uw[0].line, 1);
    }

    // ---- report rendering -----------------------------------------------

    #[test]
    fn report_renders_text_and_json() {
        let src = "pub fn generate(seed: u64) {}\n";
        let report = analyze_sources(&[("crates/par/src/lib.rs", src)], None);
        let text = report.render_text();
        assert!(text.contains("crates/par/src/lib.rs:1: [seed-flow]"));
        assert!(text.contains("svbr-analyze: 1 file(s) scanned"));
        let json = report.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"rule\":\"seed-flow\""));
        assert!(json.contains("\"files_scanned\":1"));
        let clean = analyze_sources(&[("crates/par/src/lib.rs", "pub fn ok() {}\n")], None);
        assert!(clean.findings.is_empty());
        assert!(clean.render_json().contains("\"findings\":[]"));
    }

    #[test]
    fn metric_name_convention() {
        for ok in [
            "par.tasks",
            "cache.hosking.bytes",
            "queue.depth_p99",
            "is.ci_width",
        ] {
            assert!(metric_name_ok(ok), "{ok}");
        }
        for bad in [
            "",
            "par",
            "par.",
            ".tasks",
            "demo.items",
            "par.Tasks",
            "par.a b",
        ] {
            assert!(!metric_name_ok(bad), "{bad}");
        }
    }
}
