//! `analyze` waiver comments.
//!
//! A waiver is a comment of the form
//!
//! ```text
//! // svbr-analyze: allow(rule-a, rule-b) <invariant>
//! ```
//!
//! It suppresses any listed rule on its own line or the line below. The
//! trailing text must state the invariant that makes the flagged pattern
//! sound.
//!
//! After a pass runs, every waiver that names an `analyze` rule but
//! suppressed nothing is reported as `unused-waiver`: the code it excused
//! has moved or been fixed, and the stale waiver would otherwise silently
//! excuse the *next* violation near it.
//!
//! Waivers are collected from comments only (the masking lexer strips
//! string literals), so fixture sources embedded in test strings never
//! register as workspace waivers. Rule IDs that `analyze` does not own —
//! e.g. the `<id>` placeholders in documentation — are ignored.

use crate::lexer::Comment;

/// One parsed waiver comment.
#[derive(Debug)]
pub struct Waiver {
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// Rule IDs listed inside `allow(…)`.
    pub ids: Vec<String>,
    /// The stated invariant: the free text after `allow(…)`. Rules that
    /// demand a specific kind of justification — e.g. `alloc-in-hot-loop`
    /// requires a capacity or one-time invariant — inspect this.
    pub reason: String,
}

/// Parse every waiver out of a file's comments.
pub fn collect_waivers(comments: &[Comment]) -> Vec<Waiver> {
    // A multi-line block comment could carry a waiver on an inner line;
    // attribute it to the comment's first line (violations next to
    // block-comment waivers are rare enough that this is fine).
    comments
        .iter()
        .filter_map(|c| parse_waiver_line(&c.text, c.line))
        .collect()
}

/// Parse one comment text as a waiver.
fn parse_waiver_line(text: &str, line: usize) -> Option<Waiver> {
    const MARKER: &str = "svbr-analyze:";
    let rest = &text[text.find(MARKER)? + MARKER.len()..];
    let rest = &rest[rest.find("allow(")? + "allow(".len()..];
    let close = rest.find(')')?;
    let ids: Vec<String> = rest[..close]
        .split(',')
        .map(|id| id.trim().to_string())
        .filter(|id| !id.is_empty())
        .collect();
    if ids.is_empty() {
        return None;
    }
    Some(Waiver {
        line,
        ids,
        reason: rest[close + 1..].trim().to_string(),
    })
}

/// Per-file waiver book-keeping: answers "is this finding waived?" while
/// recording which waivers earned their keep.
#[derive(Debug)]
pub struct WaiverBook {
    waivers: Vec<Waiver>,
    used: Vec<bool>,
}

impl WaiverBook {
    /// Build the book for one file from its parsed waivers.
    pub fn new(waivers: Vec<Waiver>) -> Self {
        let used = vec![false; waivers.len()];
        Self { waivers, used }
    }

    /// Would a finding of `rule_id` on `line` be suppressed? A waiver
    /// naming the rule on the same line or the line above suppresses (and
    /// is marked used).
    pub fn suppresses(&mut self, line: usize, rule_id: &str) -> bool {
        let mut hit = false;
        for (w, used) in self.waivers.iter().zip(self.used.iter_mut()) {
            if covers(w, line, rule_id) {
                *used = true;
                hit = true;
            }
        }
        hit
    }

    /// The stated invariant of the waiver covering `rule_id` on `line`
    /// (same window as [`WaiverBook::suppresses`]), for rules that check
    /// *what* the justification says, not just that one exists. Does not
    /// mark the waiver used — call `suppresses` first.
    pub fn reason_at(&self, line: usize, rule_id: &str) -> Option<&str> {
        self.waivers
            .iter()
            .find(|w| covers(w, line, rule_id))
            .map(|w| w.reason.as_str())
    }

    /// Waivers naming at least one rule in `own_rules` that suppressed
    /// nothing (foreign and placeholder IDs are skipped).
    pub fn unused(&self, own_rules: &[&str]) -> Vec<&Waiver> {
        self.waivers
            .iter()
            .zip(&self.used)
            .filter(|(w, used)| !**used && w.ids.iter().any(|id| own_rules.contains(&id.as_str())))
            .map(|(w, _)| w)
            .collect()
    }
}

/// Does waiver `w` cover a `rule_id` finding on `line`?
fn covers(w: &Waiver, line: usize, rule_id: &str) -> bool {
    (w.line == line || w.line + 1 == line) && w.ids.iter().any(|id| id == rule_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(line: usize, text: &str) -> Comment {
        Comment {
            line,
            text: text.to_string(),
        }
    }

    #[test]
    fn parses_ids_and_reason() {
        let w = parse_waiver_line(
            "// svbr-analyze: allow(seed-flow, panic-surface) bounded above",
            7,
        )
        .expect("waiver");
        assert_eq!(w.ids, vec!["seed-flow", "panic-surface"]);
        assert_eq!(w.line, 7);
        assert_eq!(w.reason, "bounded above");
        // Not a waiver at all.
        assert!(parse_waiver_line("// plain comment", 1).is_none());
        assert!(parse_waiver_line("// svbr-analyze: allow() empty", 1).is_none());
    }

    #[test]
    fn suppression_window_and_usage() {
        let waivers = collect_waivers(&[comment(3, "// svbr-analyze: allow(seed-flow) just set")]);
        let mut book = WaiverBook::new(waivers);
        assert_eq!(book.unused(&["seed-flow"]).len(), 1);
        assert!(book.suppresses(3, "seed-flow"));
        assert!(book.suppresses(4, "seed-flow"));
        assert!(!book.suppresses(5, "seed-flow"));
        assert!(!book.suppresses(3, "panic-surface"));
        assert!(book.unused(&["seed-flow"]).is_empty(), "marked used");
        // reason_at uses the same window and reads back the invariant.
        assert_eq!(book.reason_at(4, "seed-flow"), Some("just set"));
        assert_eq!(book.reason_at(5, "seed-flow"), None);
        assert_eq!(book.reason_at(3, "panic-surface"), None);
    }

    #[test]
    fn unused_skips_foreign_and_placeholder_ids() {
        let waivers = collect_waivers(&[
            comment(1, "// svbr-analyze: allow(<id>[, <id>…]) doc example"),
            comment(5, "// svbr-analyze: allow(seed-flow) owned by analyze"),
        ]);
        let book = WaiverBook::new(waivers);
        assert!(book.unused(&["panic-surface"]).is_empty());
        let unused = book.unused(&["seed-flow"]);
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].line, 5);
    }
}
