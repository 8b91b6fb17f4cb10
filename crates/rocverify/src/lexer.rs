//! A small, self-contained Rust lexer for `roclock`.
//!
//! The build environment vendors no parser crates, so the lock-discipline
//! rules run over a token stream produced here instead of a full AST. The
//! lexer strips comments and literals (so `".lock()"` in a string never
//! fires a rule) and tracks line numbers; `roclock` finds the `#[...]`
//! attribute groups and brace-balanced items in the stream to skip
//! `#[cfg(test)]` / `#[test]` code.

/// One significant token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub text: String,
    pub line: usize,
}

impl Tok {
    fn new(text: impl Into<String>, line: usize) -> Self {
        Tok {
            text: text.into(),
            line,
        }
    }
}

/// Tokenize Rust source into identifiers and single-character punctuation,
/// discarding comments, whitespace, and the contents of string/char
/// literals. Numeric literals come out as identifier-like tokens; that is
/// fine for the rules, which only match known names and punctuation.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let b: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            // Line comment (also swallows doc comments).
            '/' if b.get(i + 1) == Some(&'/') => {
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
            }
            // Block comment, nested.
            '/' if b.get(i + 1) == Some(&'*') => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            // Raw strings: r"..." / r#"..."# / br#"..."# etc.
            'r' | 'b' if starts_raw_string(&b, i) => {
                let start = if b[i] == 'b' { i + 1 } else { i };
                let mut j = start + 1; // past 'r'
                let mut hashes = 0;
                while b.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // past opening quote
                let closer: String =
                    std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
                while j < b.len() {
                    if b[j] == '\n' {
                        line += 1;
                    }
                    if b[j] == '"' && matches_at(&b, j, &closer) {
                        j += closer.len();
                        break;
                    }
                    j += 1;
                }
                i = j;
            }
            // Byte string b"..."
            'b' if b.get(i + 1) == Some(&'"') => {
                i = skip_string(&b, i + 1, &mut line);
            }
            '"' => {
                i = skip_string(&b, i, &mut line);
            }
            // Char literal vs lifetime: 'x' / '\n' are literals, 'a in
            // generics is a lifetime (no closing quote right after).
            '\'' => {
                if is_char_literal(&b, i) {
                    i += 1; // opening quote
                    if b.get(i) == Some(&'\\') {
                        i += 2;
                        // \u{...} escapes
                        while i < b.len() && b[i] != '\'' {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                    i += 1; // closing quote
                } else {
                    // Lifetime: skip the quote; the identifier tokenizes
                    // normally (harmless).
                    i += 1;
                }
            }
            c if c.is_alphanumeric() || c == '_' => {
                let start = i;
                while i < b.len() && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::new(b[start..i].iter().collect::<String>(), line));
            }
            _ => {
                toks.push(Tok::new(c.to_string(), line));
                i += 1;
            }
        }
    }
    toks
}

fn matches_at(b: &[char], at: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, pc)| b.get(at + k) == Some(&pc))
}

fn starts_raw_string(b: &[char], i: usize) -> bool {
    let j = if b[i] == 'b' {
        if b.get(i + 1) != Some(&'r') {
            return false;
        }
        i + 2
    } else {
        i + 1
    };
    // r" or r#...#"
    let mut k = j;
    while b.get(k) == Some(&'#') {
        k += 1;
    }
    b.get(k) == Some(&'"')
}

fn is_char_literal(b: &[char], i: usize) -> bool {
    match b.get(i + 1) {
        Some('\\') => true,
        Some(_) => b.get(i + 2) == Some(&'\''),
        None => false,
    }
}

fn skip_string(b: &[char], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            '\\' => {
                // An escaped newline (a string continued on the next
                // line) still ends a source line.
                if b.get(i + 1) == Some(&'\n') {
                    *line += 1;
                }
                i += 2;
            }
            '\n' => {
                *line += 1;
                i += 1;
            }
            '"' => return i + 1,
            _ => i += 1,
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        tokenize(src).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let src = r#"
            // Instant::now in a comment
            /* rand::random in /* nested */ block */
            let x = "Instant::now()"; // string content dropped
            let y = foo.unwrap();
        "#;
        let t = texts(src);
        assert!(!t.contains(&"Instant".to_string()));
        assert!(!t.contains(&"rand".to_string()));
        assert!(t.contains(&"unwrap".to_string()));
    }

    #[test]
    fn tracks_lines() {
        let toks = tokenize("a\nb\n  c");
        assert_eq!(
            toks.iter().map(|t| (t.text.as_str(), t.line)).collect::<Vec<_>>(),
            vec![("a", 1), ("b", 2), ("c", 3)]
        );
    }

    #[test]
    fn a_continued_string_keeps_the_line_count() {
        let toks = tokenize("let s = \"a \\\n   b\";\nx");
        assert_eq!(toks.last().map(|t| (t.text.as_str(), t.line)), Some(("x", 3)));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let t = texts("fn f<'a>(x: &'a str) { let c = 'q'; let n = '\\n'; }");
        assert!(t.contains(&"a".to_string())); // lifetime ident survives
        assert!(!t.contains(&"q".to_string())); // char literal content dropped
    }

    #[test]
    fn raw_strings() {
        let t = texts(r##"let s = r#"panic! inside "raw" text"#; s.expect("x")"##);
        assert!(!t.contains(&"panic".to_string()));
        assert!(t.contains(&"expect".to_string()));
    }
}
