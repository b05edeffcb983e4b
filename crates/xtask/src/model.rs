//! A lightweight per-file symbol/import model for `svbr-xtask analyze`.
//!
//! Built on the masking lexer: every scan below runs over masked code
//! (strings and comments blanked, line structure preserved), so prose and
//! fixture sources embedded in string literals never register. The model
//! deliberately stops far short of a real parser — it extracts exactly the
//! facts the cross-file rule families need:
//!
//! * every `fn` signature: name, `pub`-ness, parameter names, and the
//!   byte span of the body (for the seed-flow audit);
//! * every `svbr_obsv::counter/gauge/histogram[_with]("…")` registration
//!   with its metric name — and any inline label keys — read back from the
//!   *original* source (masking is length-preserving, so byte offsets
//!   line up);
//! * which lines sit inside a `for`/`while`/`loop` body (for the
//!   panic-surface audit).

use crate::lexer::{mask_source, test_scopes, Masked};

/// How strictly a file is analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// `crates/*/src/**` and `src/**` (excluding `src/bin/**`): the code
    /// `cargo clippy --workspace --lib` builds.
    Library,
    /// Examples, tests, benches, binaries.
    Support,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileClass {
    let is_crate_src = rel_path.starts_with("crates/")
        && rel_path.contains("/src/")
        && !rel_path.contains("/src/bin/");
    let is_root_src = rel_path.starts_with("src/") && !rel_path.starts_with("src/bin/");
    if is_crate_src || is_root_src {
        FileClass::Library
    } else {
        FileClass::Support
    }
}

/// Kind of an `svbr_obsv` metric registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// `svbr_obsv::counter(…)`.
    Counter,
    /// `svbr_obsv::gauge(…)`.
    Gauge,
    /// `svbr_obsv::histogram(…)`.
    Histogram,
}

impl MetricKind {
    /// Lowercase kind name as used in diagnostics and DESIGN.md tables.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One metric-name registration site.
#[derive(Debug, Clone)]
pub struct MetricUse {
    /// Which registry constructor was called.
    pub kind: MetricKind,
    /// The metric name literal, read from the original source.
    pub name: String,
    /// Label keys of a `*_with` call, read from an inline
    /// `&[("key", …), …]` slice literal. Empty for unlabeled calls and
    /// for labeled calls whose slice is not an inline literal (dynamic
    /// labels are invisible to the static model).
    pub labels: Vec<String>,
    /// 1-based line of the call.
    pub line: usize,
    /// Whether the call sits inside a `#[cfg(test)]` scope.
    pub in_test: bool,
}

/// One function signature with its body span.
#[derive(Debug, Clone)]
pub struct FnSig {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Whether the signature line carries `pub` (any visibility form).
    pub is_pub: bool,
    /// Named parameters, in order (patterns and `self` receivers are
    /// skipped).
    pub params: Vec<String>,
    /// Byte span of the body in the masked code (between `{` and its
    /// matching `}`), or `None` for trait-method declarations.
    pub body: Option<(usize, usize)>,
}

/// Everything `analyze` knows about one file.
#[derive(Debug)]
pub struct FileModel {
    /// Workspace-relative path (forward slashes).
    pub rel_path: String,
    /// Crate directory name (`lrd` for `crates/lrd/…`, `svbr` for `src/…`,
    /// empty for top-level support files).
    pub crate_name: String,
    /// Library vs. support classification.
    pub class: FileClass,
    /// Masked source + extracted comments.
    pub masked: Masked,
    /// `#[cfg(test)]` line ranges.
    pub scopes: Vec<(usize, usize)>,
    /// Every function signature found.
    pub fns: Vec<FnSig>,
    /// Every metric registration found.
    pub metrics: Vec<MetricUse>,
    /// `loop_lines[line]` is true when the 1-based line sits in a loop body.
    loop_lines: Vec<bool>,
}

impl FileModel {
    /// Build the model for one file.
    pub fn build(rel_path: &str, src: &str) -> FileModel {
        let masked = mask_source(src);
        let scopes = test_scopes(&masked.code);
        let fns = parse_fns(&masked.code);
        let crate_name = crate_of(rel_path);
        let metrics = extract_metrics(&masked.code, src, &scopes, &crate_name);
        let loop_lines = compute_loop_lines(&masked.code);
        FileModel {
            rel_path: rel_path.to_string(),
            crate_name,
            class: classify(rel_path),
            masked,
            scopes,
            fns,
            metrics,
            loop_lines,
        }
    }

    /// Is this 1-based line inside a `#[cfg(test)]` scope?
    pub fn in_test(&self, line: usize) -> bool {
        self.scopes.iter().any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// Is this 1-based line inside a `for`/`while`/`loop` body?
    pub fn in_loop(&self, line: usize) -> bool {
        self.loop_lines.get(line).copied().unwrap_or(false)
    }
}

/// Crate directory name for a workspace-relative path.
pub fn crate_of(rel_path: &str) -> String {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else if rel_path.starts_with("src/") {
        String::from("svbr")
    } else {
        String::new()
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Find `needle` as a whole identifier token in `hay`, starting at `from`.
pub fn find_token_from(hay: &str, needle: &str, from: usize) -> Option<usize> {
    let bytes = hay.as_bytes();
    let nb = needle.as_bytes();
    if nb.is_empty() {
        return None;
    }
    let mut i = from;
    while i + nb.len() <= bytes.len() {
        if &bytes[i..i + nb.len()] == nb {
            let prev_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
            let next = bytes.get(i + nb.len()).copied().unwrap_or(b' ');
            if prev_ok && !is_ident_byte(next) {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

/// Does `hay` contain `needle` as a whole identifier token?
pub fn has_token(hay: &str, needle: &str) -> bool {
    find_token_from(hay, needle, 0).is_some()
}

/// 1-based line number of a byte offset.
pub fn line_of(text: &str, pos: usize) -> usize {
    1 + text.as_bytes()[..pos.min(text.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

/// Which 1-based lines sit inside a `for … in`/`while`/`loop` body.
/// Brace-stack scan on masked code; an `impl Trait for Type { … }` block is
/// *not* a loop (the `for` keyword only opens a loop frame when a
/// standalone `in` token appears between it and the opening brace).
fn compute_loop_lines(code: &str) -> Vec<bool> {
    #[derive(Clone, Copy, PartialEq)]
    enum Pending {
        None,
        Loop,
        For(usize),
    }
    let bytes = code.as_bytes();
    let mut marks = vec![false; code.lines().count() + 2];
    let mut stack: Vec<bool> = Vec::new();
    let mut pending = Pending::None;
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b'{' => {
                let inherited = stack.last().copied().unwrap_or(false);
                let opens_loop = match pending {
                    Pending::Loop => true,
                    Pending::For(at) => has_token(&code[at..i], "in"),
                    Pending::None => false,
                };
                stack.push(inherited || opens_loop);
                pending = Pending::None;
            }
            b'}' => {
                stack.pop();
            }
            b';' => pending = Pending::None,
            _ => {
                if is_ident_byte(b) && (i == 0 || !is_ident_byte(bytes[i - 1])) {
                    let start = i;
                    let mut j = i;
                    while j < bytes.len() && is_ident_byte(bytes[j]) {
                        j += 1;
                    }
                    match &code[start..j] {
                        "while" | "loop" => pending = Pending::Loop,
                        "for" => pending = Pending::For(j),
                        _ => {}
                    }
                    if stack.last().copied().unwrap_or(false) {
                        if let Some(m) = marks.get_mut(line) {
                            *m = true;
                        }
                    }
                    i = j;
                    continue;
                }
            }
        }
        if stack.last().copied().unwrap_or(false) && b != b'}' {
            if let Some(m) = marks.get_mut(line) {
                *m = true;
            }
        }
        i += 1;
    }
    marks
}

pub(crate) fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Parse every `fn` signature out of masked code.
fn parse_fns(code: &str) -> Vec<FnSig> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(at) = find_token_from(code, "fn", from) {
        from = at + 2;
        let line = line_of(code, at);
        let line_start = code[..at].rfind('\n').map(|p| p + 1).unwrap_or(0);
        let is_pub = has_token(&code[line_start..at], "pub");
        // Name.
        let mut j = skip_ws(bytes, at + 2);
        let name_start = j;
        while j < bytes.len() && is_ident_byte(bytes[j]) {
            j += 1;
        }
        if j == name_start {
            continue;
        }
        let name = code[name_start..j].to_string();
        // Generics: skip a balanced `<…>`, treating `->` as not-a-closer.
        j = skip_ws(bytes, j);
        if bytes.get(j) == Some(&b'<') {
            let mut depth = 0i32;
            while j < bytes.len() {
                match bytes[j] {
                    b'<' => depth += 1,
                    b'>' if j > 0 && bytes[j - 1] != b'-' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j = skip_ws(bytes, j);
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        // Parameters: balanced parens.
        let p_start = j + 1;
        let mut depth = 0i32;
        let mut p_end = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        p_end = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(p_end) = p_end else {
            continue;
        };
        let params = split_params(&code[p_start..p_end]);
        // Body: the first top-level `{` after the parameter list (return
        // types and `where` clauses contain no braces); `;` means a
        // declaration with no body.
        let mut k = p_end + 1;
        let mut body = None;
        while k < bytes.len() {
            match bytes[k] {
                b';' => break,
                b'{' => {
                    let mut d = 0i32;
                    let mut m = k;
                    while m < bytes.len() {
                        match bytes[m] {
                            b'{' => d += 1,
                            b'}' => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        m += 1;
                    }
                    body = Some((k + 1, m.min(bytes.len())));
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        out.push(FnSig {
            name,
            line,
            is_pub,
            params,
            body,
        });
        from = j;
    }
    out
}

/// Split a parameter list on top-level commas into parameter names;
/// `self` receivers and pattern parameters are skipped.
fn split_params(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut parts = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for i in 0..bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] != b'-' => depth -= 1,
            b',' if depth == 0 => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    let mut out = Vec::new();
    for part in parts {
        let p = part.trim();
        let Some(colon) = p.find(':') else {
            continue; // `self`, `&mut self`, …
        };
        let name = p[..colon].trim().trim_start_matches("mut ").trim();
        if name.is_empty() || !name.bytes().all(is_ident_byte) {
            continue; // pattern parameter or lifetime-only oddity
        }
        out.push(name.to_string());
    }
    out
}

/// Extract every `svbr_obsv::counter/gauge/histogram[_with]("…")` call.
/// The name is read from the *original* source at the masked literal's
/// byte span (masking is length-preserving). Inside the `obsv` crate
/// itself the same constructors are reached as `crate::counter(…)` etc.,
/// so those prefixes are honored there too.
fn extract_metrics(
    code: &str,
    src: &str,
    scopes: &[(usize, usize)],
    crate_name: &str,
) -> Vec<MetricUse> {
    let mut out = Vec::new();
    let mut pats: Vec<(MetricKind, String, bool)> = Vec::new();
    let prefixes: &[&str] = if crate_name == "obsv" {
        &["svbr_obsv::", "crate::"]
    } else {
        &["svbr_obsv::"]
    };
    for prefix in prefixes {
        for (kind, stem) in [
            (MetricKind::Counter, "counter"),
            (MetricKind::Gauge, "gauge"),
            (MetricKind::Histogram, "histogram"),
        ] {
            pats.push((kind, format!("{prefix}{stem}("), false));
            pats.push((kind, format!("{prefix}{stem}_with("), true));
        }
    }
    let bytes = code.as_bytes();
    for (kind, pat, labeled) in pats {
        let mut from = 0usize;
        while let Some(rel) = code[from..].find(&pat) {
            let at = from + rel;
            from = at + pat.len();
            let j = skip_ws(bytes, at + pat.len());
            if bytes.get(j) != Some(&b'"') {
                continue;
            }
            let q1 = j + 1;
            let Some(q2rel) = code[q1..].find('"') else {
                continue;
            };
            let name = src.get(q1..q1 + q2rel).unwrap_or("").to_string();
            if name.is_empty() {
                continue;
            }
            let labels = if labeled {
                extract_label_keys(code, src, q1 + q2rel + 1)
            } else {
                Vec::new()
            };
            let line = line_of(code, at);
            out.push(MetricUse {
                kind,
                name,
                labels,
                line,
                in_test: scopes.iter().any(|&(lo, hi)| line >= lo && line <= hi),
            });
        }
    }
    out.sort_by_key(|m| m.line);
    out
}

/// Label keys of a `*_with` call: the first string literal of each tuple
/// in an inline `&[("key", …), …]` slice argument. `i` points just past
/// the name literal's closing quote, inside the call's parentheses.
/// Returns empty when the slice is not an inline literal (e.g. a
/// `&labels` variable) — such calls carry no statically visible keys.
fn extract_label_keys(code: &str, src: &str, mut i: usize) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut keys = Vec::new();
    // Find the `[` opening the slice literal, staying inside the call.
    let mut depth = 1i32;
    loop {
        match bytes.get(i) {
            None => return keys,
            Some(b'(') => depth += 1,
            Some(b')') => {
                depth -= 1;
                if depth == 0 {
                    return keys; // call closed without a slice literal
                }
            }
            Some(b'[') if depth == 1 => break,
            _ => {}
        }
        i += 1;
    }
    i += 1;
    let mut bdepth = 1i32;
    while bdepth > 0 {
        match bytes.get(i) {
            None => break,
            Some(b'[') => bdepth += 1,
            Some(b']') => bdepth -= 1,
            Some(b'(') if bdepth == 1 => {
                // The key is the first string literal of this tuple.
                let mut j = i + 1;
                while matches!(bytes.get(j), Some(b) if !matches!(b, b'"' | b',' | b')')) {
                    j += 1;
                }
                if bytes.get(j) == Some(&b'"') {
                    let q1 = j + 1;
                    if let Some(q2rel) = code[q1..].find('"') {
                        if let Some(k) = src.get(q1..q1 + q2rel) {
                            keys.push(k.to_string());
                        }
                    }
                }
                // Skip past the tuple's matching `)`.
                let mut pd = 1i32;
                i += 1;
                while pd > 0 {
                    match bytes.get(i) {
                        None => return keys,
                        Some(b'(') => pd += 1,
                        Some(b')') => pd -= 1,
                        _ => {}
                    }
                    i += 1;
                }
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fn_signatures_and_bodies() {
        let src = "\
pub fn seeded(master_seed: u64, n: usize) -> Vec<f64> {
    let rng = StdRng::seed_from_u64(master_seed);
    run(rng, n)
}
fn private_helper<F: Fn(usize) -> f64>(f: F, xs: &[f64]) -> f64 {
    f(xs.len())
}
pub(crate) fn visible(x: u8) {}
trait T {
    fn decl_only(&self, seed: u64);
}
";
        let m = FileModel::build("crates/lrd/src/gen.rs", src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["seeded", "private_helper", "visible", "decl_only"]
        );
        let seeded = &m.fns[0];
        assert!(seeded.is_pub);
        assert_eq!(seeded.line, 1);
        assert_eq!(seeded.params, vec!["master_seed", "n"]);
        let (b0, b1) = seeded.body.expect("body");
        assert!(m.masked.code[b0..b1].contains("seed_from_u64"));
        assert!(!m.fns[1].is_pub);
        // Generic bound with `->` must not derail paren matching.
        assert_eq!(m.fns[1].params.len(), 2);
        assert!(m.fns[2].is_pub);
        // Trait declaration: no body, but the seed param is visible.
        assert!(m.fns[3].body.is_none());
        assert_eq!(m.fns[3].params, vec!["seed"]);
    }

    #[test]
    fn loop_lines_cover_bodies_but_not_impl_blocks() {
        let src = "\
impl Iterator for Counter {
    fn next(&mut self) -> Option<u32> {
        self.n += 1;
        for i in 0..3 {
            let _ = i;
        }
        while self.n < 10 {
            self.n += 2;
        }
        None
    }
}
";
        let m = FileModel::build("crates/lrd/src/gen.rs", src);
        assert!(!m.in_loop(3), "impl/fn body is not a loop");
        assert!(m.in_loop(5), "for body");
        assert!(m.in_loop(8), "while body");
        assert!(!m.in_loop(10), "after the loops");
    }

    #[test]
    fn extracts_metric_names_from_original_source() {
        let src = "\
pub fn f() {
    svbr_obsv::counter(\"par.tasks\").add(1);
    svbr_obsv::gauge(\"cache.bytes\").set(7);
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        svbr_obsv::histogram(\"scratch.test_only\").record(1.0);
    }
}
";
        let m = FileModel::build("crates/par/src/lib.rs", src);
        assert_eq!(m.metrics.len(), 3);
        assert_eq!(m.metrics[0].name, "par.tasks");
        assert_eq!(m.metrics[0].kind, MetricKind::Counter);
        assert_eq!(m.metrics[0].line, 2);
        assert!(!m.metrics[0].in_test);
        assert!(m.metrics[0].labels.is_empty());
        assert_eq!(m.metrics[1].name, "cache.bytes");
        assert_eq!(m.metrics[1].kind, MetricKind::Gauge);
        assert_eq!(m.metrics[2].name, "scratch.test_only");
        assert!(m.metrics[2].in_test);
    }

    #[test]
    fn extracts_label_keys_from_labeled_calls() {
        let src = "\
pub fn f(id: &str) {
    svbr_obsv::counter_with(\"cache.lookups\", &[(\"backend\", id), (\"outcome\", \"hit\")]).add(1);
    svbr_obsv::gauge_with(\"queue.source.mean\", &[(\"source\", id)]).set(1.0);
    svbr_obsv::histogram_with(
        \"queue.depth\",
        &[(\"source\", id)],
    )
    .record(3);
    let labels = [(\"shard\", id)];
    svbr_obsv::counter_with(\"par.shard.items\", &labels).add(1);
}
";
        let m = FileModel::build("crates/queue/src/lib.rs", src);
        assert_eq!(m.metrics.len(), 4);
        assert_eq!(m.metrics[0].name, "cache.lookups");
        assert_eq!(m.metrics[0].labels, vec!["backend", "outcome"]);
        assert_eq!(m.metrics[1].name, "queue.source.mean");
        assert_eq!(m.metrics[1].labels, vec!["source"]);
        // Multiline calls still yield their keys.
        assert_eq!(m.metrics[2].name, "queue.depth");
        assert_eq!(m.metrics[2].labels, vec!["source"]);
        // A non-literal slice argument carries no statically visible keys.
        assert_eq!(m.metrics[3].name, "par.shard.items");
        assert!(m.metrics[3].labels.is_empty());
    }

    #[test]
    fn crate_prefixed_calls_count_only_inside_obsv() {
        let src = "\
pub fn install() {
    crate::counter(\"obsv.cardinality_dropped\").add(0);
}
";
        let m = FileModel::build("crates/obsv/src/lib.rs", src);
        assert_eq!(m.metrics.len(), 1);
        assert_eq!(m.metrics[0].name, "obsv.cardinality_dropped");
        // Outside obsv, `crate::counter` is some other crate's own helper.
        let m = FileModel::build("crates/par/src/lib.rs", src);
        assert!(m.metrics.is_empty());
    }

    #[test]
    fn crate_names_and_tokens() {
        assert_eq!(crate_of("crates/lrd/src/cache.rs"), "lrd");
        assert_eq!(crate_of("src/lib.rs"), "svbr");
        assert_eq!(crate_of("examples/demo.rs"), "");
        assert!(has_token("use std::collections::BTreeMap;", "BTreeMap"));
        assert!(!has_token("MyBTreeMapLike", "BTreeMap"));
        assert!(!has_token("BTreeMapx", "BTreeMap"));
    }

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/lrd/src/hosking.rs"), FileClass::Library);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
        assert_eq!(
            classify("crates/bench/src/bin/repro.rs"),
            FileClass::Support
        );
        assert_eq!(classify("src/bin/main.rs"), FileClass::Support);
        assert_eq!(classify("examples/demo.rs"), FileClass::Support);
        assert_eq!(classify("tests/e2e.rs"), FileClass::Support);
        assert_eq!(classify("crates/lrd/benches/b.rs"), FileClass::Support);
    }
}
