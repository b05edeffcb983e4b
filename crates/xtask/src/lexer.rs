//! A minimal Rust source "masker": replaces the interior of comments and
//! string/char literals with spaces so downstream pattern scans only ever
//! see real code, and collects comment text separately (for waiver
//! parsing).
//!
//! This is deliberately not a full lexer — it only needs to be right about
//! where comments and literals begin and end, which is a regular-enough
//! sublanguage: line comments, nested block comments, plain/raw/byte
//! strings, and char literals (disambiguated from lifetimes).

/// One comment found in the source, with its starting line (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// The raw comment text, including the `//` / `/*` markers.
    pub text: String,
}

/// Result of masking: code with literals/comments blanked, plus the
/// extracted comments.
#[derive(Debug)]
pub struct Masked {
    /// Source text of identical length/line structure, with the interior
    /// of every comment and string/char literal replaced by spaces.
    pub code: String,
    /// Every comment in the file, in order.
    pub comments: Vec<Comment>,
}

/// Mask `src`. Newlines are always preserved so line numbers computed on
/// the masked text match the original.
pub fn mask_source(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    // Push a masked byte: newlines survive (line structure), everything
    // else becomes a space.
    fn push_masked(out: &mut Vec<u8>, b: u8, line: &mut usize) {
        if b == b'\n' {
            out.push(b'\n');
            *line += 1;
        } else {
            out.push(b' ');
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        // Line comment.
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            let start_line = line;
            let mut text = Vec::new();
            while i < bytes.len() && bytes[i] != b'\n' {
                text.push(bytes[i]);
                push_masked(&mut out, bytes[i], &mut line);
                i += 1;
            }
            comments.push(Comment {
                line: start_line,
                text: String::from_utf8_lossy(&text).into_owned(),
            });
            continue;
        }
        // Block comment (nested).
        if b == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let start_line = line;
            let mut text = Vec::new();
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    text.extend_from_slice(b"/*");
                    push_masked(&mut out, bytes[i], &mut line);
                    push_masked(&mut out, bytes[i + 1], &mut line);
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    text.extend_from_slice(b"*/");
                    push_masked(&mut out, bytes[i], &mut line);
                    push_masked(&mut out, bytes[i + 1], &mut line);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(bytes[i]);
                    push_masked(&mut out, bytes[i], &mut line);
                    i += 1;
                }
            }
            comments.push(Comment {
                line: start_line,
                text: String::from_utf8_lossy(&text).into_owned(),
            });
            continue;
        }
        // Raw (and raw-byte) strings: r"…", r#"…"#, br##"…"##, …
        if b == b'r' || (b == b'b' && i + 1 < bytes.len() && bytes[i + 1] == b'r') {
            let r_at = if b == b'b' { i + 1 } else { i };
            // Only treat as a raw string when `r` is followed by hashes/quote
            // and not preceded by an identifier char (e.g. `var` ends in r).
            let prev_ident = i > 0 && is_ident_byte(bytes[i - 1]);
            let mut j = r_at + 1;
            while j < bytes.len() && bytes[j] == b'#' {
                j += 1;
            }
            if !prev_ident && j < bytes.len() && bytes[j] == b'"' && bytes[r_at] == b'r' {
                let hashes = j - (r_at + 1);
                // Emit the prefix (b, r, hashes, opening quote) as-is so the
                // masked text still "looks like" a literal starts here.
                while i <= j {
                    out.push(bytes[i]);
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                // Mask until closing quote followed by `hashes` hashes.
                'raw: while i < bytes.len() {
                    if bytes[i] == b'"' {
                        let mut k = i + 1;
                        let mut seen = 0usize;
                        while seen < hashes && k < bytes.len() && bytes[k] == b'#' {
                            k += 1;
                            seen += 1;
                        }
                        if seen == hashes {
                            out.extend_from_slice(&bytes[i..k]);
                            i = k;
                            break 'raw;
                        }
                    }
                    push_masked(&mut out, bytes[i], &mut line);
                    i += 1;
                }
                continue;
            }
        }
        // Plain (and byte) strings.
        if b == b'"' {
            out.push(b'"');
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    push_masked(&mut out, bytes[i], &mut line);
                    push_masked(&mut out, bytes[i + 1], &mut line);
                    i += 2;
                } else if bytes[i] == b'"' {
                    out.push(b'"');
                    i += 1;
                    break;
                } else {
                    push_masked(&mut out, bytes[i], &mut line);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs. lifetime: 'a' is a literal, 'a (no closing
        // quote) is a lifetime. An escape after the quote always means a
        // literal.
        if b == b'\'' {
            let is_char = if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                true
            } else {
                // 'x' — closing quote two ahead (covers every 1-byte char;
                // multibyte chars in char literals are rare in this codebase
                // and would only cost us a few masked identifier bytes).
                i + 2 < bytes.len() && bytes[i + 2] == b'\''
            };
            if is_char {
                out.push(b'\'');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        push_masked(&mut out, bytes[i], &mut line);
                        push_masked(&mut out, bytes[i + 1], &mut line);
                        i += 2;
                    } else if bytes[i] == b'\'' {
                        out.push(b'\'');
                        i += 1;
                        break;
                    } else {
                        push_masked(&mut out, bytes[i], &mut line);
                        i += 1;
                    }
                }
                continue;
            }
        }
        if b == b'\n' {
            line += 1;
        }
        out.push(b);
        i += 1;
    }

    Masked {
        // Masking only ever replaces bytes with ASCII spaces or copies the
        // original, so the result is valid UTF-8 whenever the input was —
        // except where a multibyte char spans a copy boundary, which
        // from_utf8_lossy tolerates.
        code: String::from_utf8_lossy(&out).into_owned(),
        comments,
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]`-gated items.
/// Computed on *masked* code so braces inside strings/comments don't
/// confuse the matcher.
pub fn test_scopes(masked_code: &str) -> Vec<(usize, usize)> {
    let bytes = masked_code.as_bytes();
    let mut scopes = Vec::new();
    let needle = b"#[cfg(test)]";
    let mut i = 0usize;
    while i + needle.len() <= bytes.len() {
        if &bytes[i..i + needle.len()] == needle {
            let start_line = line_of(bytes, i);
            // Find the opening brace of the gated item, then match it.
            let mut j = i + needle.len();
            while j < bytes.len() && bytes[j] != b'{' {
                // A `;` before any `{` means the attribute gated a
                // brace-less item (e.g. `mod tests;`) — no inline scope.
                if bytes[j] == b';' {
                    break;
                }
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'{' {
                let mut depth = 0usize;
                let mut k = j;
                while k < bytes.len() {
                    match bytes[k] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let end_line = line_of(bytes, k.min(bytes.len().saturating_sub(1)));
                scopes.push((start_line, end_line));
                i = k;
                continue;
            }
        }
        i += 1;
    }
    scopes
}

fn line_of(bytes: &[u8], pos: usize) -> usize {
    1 + bytes[..pos.min(bytes.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_block_comments() {
        let src = "let x = 1; // unwrap() here\n/* expect( */ let y = 2;\n";
        let m = mask_source(src);
        assert!(!m.code.contains("unwrap"));
        assert!(!m.code.contains("expect"));
        assert!(m.code.contains("let y = 2;"));
        assert_eq!(m.comments.len(), 2);
        assert!(m.comments[0].text.contains("unwrap() here"));
        assert_eq!(m.comments[1].line, 2);
    }

    #[test]
    fn masks_nested_block_comment() {
        let src = "/* a /* b */ c */ let z = 3;";
        let m = mask_source(src);
        assert!(m.code.contains("let z = 3;"));
        assert!(!m.code.contains('a'));
    }

    #[test]
    fn masks_strings_and_preserves_lines() {
        let src = "let s = \"call .unwrap() == 1.0\";\nlet t = 5;\n";
        let m = mask_source(src);
        assert!(!m.code.contains("unwrap"));
        assert!(!m.code.contains("=="));
        assert_eq!(m.code.lines().count(), src.lines().count());
        assert!(m
            .code
            .lines()
            .nth(1)
            .is_some_and(|l| l.contains("let t = 5;")));
    }

    #[test]
    fn masks_raw_strings() {
        let src = "let s = r#\"x.unwrap()\"#; let u = r\"thread_rng\";";
        let m = mask_source(src);
        assert!(!m.code.contains("unwrap"));
        assert!(!m.code.contains("thread_rng"));
    }

    #[test]
    fn masks_char_literals_but_not_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\n'; }";
        let m = mask_source(src);
        assert!(m.code.contains("fn f<'a>(x: &'a str)"));
        // The double-quote inside the char literal must not open a string.
        assert!(m.code.contains("let d ="));
    }

    #[test]
    fn escaped_quote_does_not_close_string() {
        let src = "let s = \"a\\\"b.unwrap()\"; let after = 1;";
        let m = mask_source(src);
        assert!(!m.code.contains("unwrap"));
        assert!(m.code.contains("let after = 1;"));
    }

    #[test]
    fn finds_cfg_test_scope() {
        let src = "\
pub fn real() {}
#[cfg(test)]
mod tests {
    fn inner() { x.unwrap(); }
}
pub fn after() {}
";
        let m = mask_source(src);
        let scopes = test_scopes(&m.code);
        assert_eq!(scopes, vec![(2, 5)]);
    }

    #[test]
    fn cfg_test_on_braceless_item_is_not_a_scope() {
        let src = "#[cfg(test)]\nmod tests;\nfn f() {}\n";
        let m = mask_source(src);
        assert!(test_scopes(&m.code).is_empty());
    }
}
