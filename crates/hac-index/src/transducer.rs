//! Attribute transducers.
//!
//! The MIT Semantic File System (which the paper builds on conceptually)
//! extracts typed attribute/value pairs from files with *transducers*. HAC
//! inherits the idea for its indexing pass: a transducer turns a file's
//! bytes into the token stream the index stores. The registry picks a
//! transducer per file by name/extension, defaulting to plain text.

use std::borrow::Cow;
use std::ops::ControlFlow;

use crate::token::{fold_ascii, scan_words, Token, TokenRef};

/// Receives a transducer's tokens one at a time; breaking stops the scan.
pub type TokenSink<'s> = dyn FnMut(TokenRef<'_>) -> ControlFlow<()> + 's;

/// Converts file content into indexable tokens.
pub trait Transducer: Send + Sync {
    /// A short identifier for diagnostics.
    fn name(&self) -> &'static str;

    /// Whether this transducer wants files with the given name.
    fn matches(&self, file_name: &str) -> bool;

    /// Streams the tokens of `content` to `sink` in order, case-folded, and
    /// stops as soon as `sink` breaks (returning the break). This is the
    /// one tokenization path: indexing collects it through
    /// [`Transducer::extract`], and candidate verification consumes it
    /// directly, so a query can stop at its first matching token.
    fn visit(&self, file_name: &str, content: &[u8], sink: &mut TokenSink<'_>) -> ControlFlow<()>;

    /// Collects every token [`Transducer::visit`] streams. Implementors
    /// should not override this: the index and the verifier must see the
    /// same tokens.
    fn extract(&self, file_name: &str, content: &[u8]) -> Vec<Token> {
        collect(|sink| self.visit(file_name, content, sink))
    }
}

/// Runs a visit and collects every token it streams.
pub fn collect(visit: impl FnOnce(&mut TokenSink<'_>) -> ControlFlow<()>) -> Vec<Token> {
    let mut tokens = Vec::new();
    let _ = visit(&mut |t| {
        tokens.push(t.to_token());
        ControlFlow::Continue(())
    });
    tokens
}

/// Streams the words of `content` as word tokens.
fn visit_words(content: &[u8], sink: &mut TokenSink<'_>) -> ControlFlow<()> {
    scan_words(content, |w| sink(TokenRef::Word(w)))
}

/// Plain text: every word, no fields. The fallback for unknown types.
#[derive(Debug, Default)]
pub struct PlainText;

impl Transducer for PlainText {
    fn name(&self) -> &'static str {
        "text"
    }

    fn matches(&self, _file_name: &str) -> bool {
        true
    }

    fn visit(&self, _file_name: &str, content: &[u8], sink: &mut TokenSink<'_>) -> ControlFlow<()> {
        visit_words(content, sink)
    }
}

/// RFC-822-ish mail: header lines become field tokens (`from:`, `to:`,
/// `subject:`, `date:`), the body is tokenized as text. Subject words are
/// additionally indexed as plain words — that is how the paper's email
/// examples ("email messages from a certain user or about a certain topic")
/// become queryable both ways.
#[derive(Debug, Default)]
pub struct MailTransducer;

/// Header names [`MailTransducer`] turns into fields.
pub const MAIL_HEADERS: &[&str] = &["from", "to", "cc", "subject", "date"];

impl Transducer for MailTransducer {
    fn name(&self) -> &'static str {
        "mail"
    }

    fn matches(&self, file_name: &str) -> bool {
        file_name.ends_with(".eml") || file_name.ends_with(".mail")
    }

    fn visit(&self, _file_name: &str, content: &[u8], sink: &mut TokenSink<'_>) -> ControlFlow<()> {
        let text = String::from_utf8_lossy(content);
        let mut body_start = 0;
        for (offset, line) in split_lines(&text) {
            if line.is_empty() {
                body_start = offset + 1;
                break;
            }
            body_start = offset + line.len() + 1;
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim();
            let Some(&name) = MAIL_HEADERS.iter().find(|h| h.eq_ignore_ascii_case(name)) else {
                continue;
            };
            let value = value.trim().as_bytes();
            // Address-ish headers index each word of the value as a
            // separate field token so `from:alice` matches
            // "Alice Liddell <alice@example.org>".
            scan_words(value, |w| sink(TokenRef::Field { name, value: w }))?;
            if name == "subject" {
                visit_words(value, sink)?;
            }
        }
        visit_words(&text.as_bytes()[body_start.min(text.len())..], sink)
    }
}

fn split_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut offset = 0;
    text.split('\n').map(move |line| {
        let start = offset;
        offset += line.len() + 1;
        (start, line.trim_end_matches('\r'))
    })
}

/// C-like source: `#include` targets and defined function names become
/// fields; everything is also indexed as words (identifiers matter).
#[derive(Debug, Default)]
pub struct CSourceTransducer;

/// Control keywords that look like `name(` but never define a function.
const C_KEYWORDS: &[&str] = &["if", "while", "for", "switch", "return", "sizeof"];

/// The characters of `s` that `keep` accepts, borrowed when it accepts
/// them all.
fn keep_chars(s: &str, keep: impl Fn(char) -> bool) -> Cow<'_, str> {
    if s.chars().all(&keep) {
        Cow::Borrowed(s)
    } else {
        Cow::Owned(s.chars().filter(|c| keep(*c)).collect())
    }
}

impl Transducer for CSourceTransducer {
    fn name(&self) -> &'static str {
        "csource"
    }

    fn matches(&self, file_name: &str) -> bool {
        file_name.ends_with(".c") || file_name.ends_with(".h")
    }

    fn visit(&self, _file_name: &str, content: &[u8], sink: &mut TokenSink<'_>) -> ControlFlow<()> {
        let text = String::from_utf8_lossy(content);
        for line in text.lines() {
            let trimmed = line.trim_start();
            if let Some(rest) = trimmed.strip_prefix("#include") {
                let target =
                    keep_chars(rest, |c| c.is_ascii_alphanumeric() || c == '.' || c == '_');
                if !target.is_empty() {
                    sink(TokenRef::Field {
                        name: "include",
                        value: &fold_ascii(&target),
                    })?;
                }
            }
            // A crude function-definition heuristic: `name(` at the start of
            // a line that is not a control keyword.
            if !trimmed.ends_with('{') {
                continue;
            }
            let Some(paren) = trimmed.find('(') else {
                continue;
            };
            let Some(ident) = trimmed[..paren].split_whitespace().last() else {
                continue;
            };
            let ident = keep_chars(ident, |c| c.is_ascii_alphanumeric() || c == '_');
            if !ident.is_empty() && !C_KEYWORDS.contains(&ident.as_ref()) {
                sink(TokenRef::Field {
                    name: "func",
                    value: &fold_ascii(&ident),
                })?;
            }
        }
        visit_words(content, sink)
    }
}

/// Picks the first matching transducer for each file.
pub struct TransducerRegistry {
    transducers: Vec<Box<dyn Transducer>>,
    fallback: PlainText,
}

impl Default for TransducerRegistry {
    fn default() -> Self {
        TransducerRegistry {
            transducers: vec![Box::new(MailTransducer), Box::new(CSourceTransducer)],
            fallback: PlainText,
        }
    }
}

impl TransducerRegistry {
    /// The default registry: mail + C source + plain-text fallback.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry (plain text only).
    pub fn plain_only() -> Self {
        TransducerRegistry {
            transducers: Vec::new(),
            fallback: PlainText,
        }
    }

    /// Registers a user-defined transducer ahead of the built-ins — the
    /// paper's SFS lineage "allows users to define their own transducers".
    pub fn register(&mut self, t: Box<dyn Transducer>) {
        self.transducers.insert(0, t);
    }

    /// The transducer that handles `file_name`.
    fn pick(&self, file_name: &str) -> &dyn Transducer {
        self.transducers
            .iter()
            .find(|t| t.matches(file_name))
            .map_or(&self.fallback as &dyn Transducer, |t| t.as_ref())
    }

    /// Streams a file's tokens to `sink`, choosing a transducer by name
    /// (see [`Transducer::visit`]).
    pub fn visit(
        &self,
        file_name: &str,
        content: &[u8],
        sink: &mut TokenSink<'_>,
    ) -> ControlFlow<()> {
        self.pick(file_name).visit(file_name, content, sink)
    }

    /// Extracts tokens for a file, choosing a transducer by name.
    pub fn extract(&self, file_name: &str, content: &[u8]) -> Vec<Token> {
        collect(|sink| self.visit(file_name, content, sink))
    }

    /// The transducer name that would handle `file_name` (diagnostics).
    pub fn route(&self, file_name: &str) -> &'static str {
        self.pick(file_name).name()
    }
}

impl std::fmt::Debug for TransducerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.transducers.iter().map(|t| t.name()).collect();
        f.debug_struct("TransducerRegistry")
            .field("transducers", &names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAIL: &[u8] = b"From: Alice Liddell <alice@example.org>\n\
To: bob@example.org\n\
Subject: Fingerprint project status\n\
Date: 1999-02-03\n\
\n\
The minutiae extraction pipeline is done.\n";

    #[test]
    fn mail_headers_become_fields() {
        let tokens = MailTransducer.extract("m.eml", MAIL);
        assert!(tokens.contains(&Token::field("from", "alice")));
        assert!(tokens.contains(&Token::field("to", "bob")));
        assert!(tokens.contains(&Token::field("subject", "fingerprint")));
        // Subject words are also plain words.
        assert!(tokens.contains(&Token::word("fingerprint")));
        // Body words are indexed.
        assert!(tokens.contains(&Token::word("minutiae")));
        // Header words other than subject do NOT leak into plain words.
        assert!(!tokens.contains(&Token::word("liddell")));
    }

    #[test]
    fn mail_without_body_separator_is_all_headers() {
        let tokens = MailTransducer.extract("m.eml", b"From: carol@x.org\nSubject: hi there");
        assert!(tokens.contains(&Token::field("from", "carol")));
        assert!(tokens.contains(&Token::field("subject", "hi")));
    }

    #[test]
    fn csource_extracts_includes_and_functions() {
        let src = b"#include <stdio.h>\n#include \"match.h\"\n\nint match_minutiae(int a) {\n  return a;\n}\n";
        let tokens = CSourceTransducer.extract("match.c", src);
        assert!(tokens.contains(&Token::field("include", "stdio.h")));
        assert!(tokens.contains(&Token::field("include", "match.h")));
        assert!(tokens.contains(&Token::field("func", "match_minutiae")));
        assert!(tokens.contains(&Token::word("match_minutiae")));
        // Control keywords are not functions.
        assert!(!tokens.contains(&Token::field("func", "return")));
    }

    #[test]
    fn registry_routes_by_extension() {
        let reg = TransducerRegistry::new();
        assert_eq!(reg.route("a.eml"), "mail");
        assert_eq!(reg.route("a.c"), "csource");
        assert_eq!(reg.route("a.txt"), "text");
        assert_eq!(reg.route("README"), "text");
    }

    #[test]
    fn custom_transducer_takes_precedence() {
        struct Custom;
        impl Transducer for Custom {
            fn name(&self) -> &'static str {
                "custom"
            }
            fn matches(&self, f: &str) -> bool {
                f.ends_with(".eml")
            }
            fn visit(&self, _f: &str, _c: &[u8], sink: &mut TokenSink<'_>) -> ControlFlow<()> {
                sink(TokenRef::Word("custom"))
            }
        }
        let mut reg = TransducerRegistry::new();
        reg.register(Box::new(Custom));
        assert_eq!(reg.route("a.eml"), "custom");
        assert_eq!(reg.extract("a.eml", MAIL), vec![Token::word("custom")]);
    }
}
