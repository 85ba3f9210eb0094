//! Tokenization.
//!
//! Glimpse indexes words; our tokenizer lowercases ASCII-alphanumeric runs
//! and drops a small stop list. Transducers (see [`crate::transducer`])
//! additionally emit *field* tokens — typed attribute/value pairs in the
//! style of the MIT Semantic File System's transducers, which the paper
//! cites as the standard way to feed attribute queries.

use std::borrow::Cow;
use std::ops::ControlFlow;

use serde::{Deserialize, Serialize};

/// Words shorter than this are not indexed.
pub const MIN_WORD_LEN: usize = 2;

/// Words longer than this are truncated (defends the lexicon against
/// binary junk).
pub const MAX_WORD_LEN: usize = 48;

/// The stop list: high-frequency words that add index bulk but no
/// discriminating power.
pub const STOP_WORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "he", "in", "is", "it",
    "its", "of", "on", "that", "the", "to", "was", "were", "will", "with",
];

/// One indexable token.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Token {
    /// A plain content word (already case-folded).
    Word(String),
    /// A typed attribute extracted by a transducer, e.g. `from:alice`.
    Field {
        /// Attribute name (case-folded).
        name: String,
        /// Attribute value (case-folded).
        value: String,
    },
}

impl Token {
    /// Builds a word token, folding case.
    pub fn word(w: &str) -> Token {
        Token::Word(w.to_ascii_lowercase())
    }

    /// Builds a field token, folding case on both sides.
    pub fn field(name: &str, value: &str) -> Token {
        Token::Field {
            name: name.to_ascii_lowercase(),
            value: value.to_ascii_lowercase(),
        }
    }

    /// The lexicon key for this token. Field tokens are namespaced with an
    /// unprintable separator so they can never collide with content words.
    pub fn key(&self) -> String {
        match self {
            Token::Word(w) => w.clone(),
            Token::Field { name, value } => format!("{name}\u{1f}{value}"),
        }
    }

    /// Builds the lexicon key for a field query without allocating a token.
    pub fn field_key(name: &str, value: &str) -> String {
        format!(
            "{}\u{1f}{}",
            name.to_ascii_lowercase(),
            value.to_ascii_lowercase()
        )
    }

    /// The word content, if this is a word token.
    pub fn as_word(&self) -> Option<&str> {
        match self {
            Token::Word(w) => Some(w),
            Token::Field { .. } => None,
        }
    }

    /// A borrowed view of this token.
    pub fn as_ref(&self) -> TokenRef<'_> {
        match self {
            Token::Word(w) => TokenRef::Word(w),
            Token::Field { name, value } => TokenRef::Field { name, value },
        }
    }

    /// Whether [`Token::key`] equals `key`, without building the key.
    pub fn key_eq(&self, key: &str) -> bool {
        self.as_ref().key_eq(key)
    }
}

/// A borrowed, already case-folded token, as a transducer streams it (see
/// [`crate::transducer::Transducer::visit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenRef<'a> {
    /// A plain content word.
    Word(&'a str),
    /// A typed attribute.
    Field {
        /// Attribute name.
        name: &'a str,
        /// Attribute value.
        value: &'a str,
    },
}

impl TokenRef<'_> {
    /// The owned token.
    pub fn to_token(self) -> Token {
        match self {
            TokenRef::Word(w) => Token::Word(w.to_string()),
            TokenRef::Field { name, value } => Token::Field {
                name: name.to_string(),
                value: value.to_string(),
            },
        }
    }

    /// Whether this token's lexicon key ([`Token::key`]) equals `key`.
    pub fn key_eq(self, key: &str) -> bool {
        match self {
            TokenRef::Word(w) => w == key,
            TokenRef::Field { name, value } => {
                let k = key.as_bytes();
                let n = name.len();
                k.len() == n + 1 + value.len()
                    && &k[..n] == name.as_bytes()
                    && k[n] == 0x1f
                    && &k[n + 1..] == value.as_bytes()
            }
        }
    }
}

/// Whether a word survives the stop list and length limits.
pub fn is_indexable(word: &str) -> bool {
    word.len() >= MIN_WORD_LEN && !is_stop_word(word.as_bytes())
}

/// Longest stop word, in bytes: every stop word packs into one `u32`.
const STOP_KEY_LEN: usize = 4;

/// [`STOP_WORDS`] packed little-endian into zero-padded `u32`s. A word never
/// holds a NUL byte, so the padding makes the packing unambiguous, and a
/// stop-list check is a handful of integer compares instead of string
/// comparisons — it runs once per scanned word.
const STOP_KEYS: [u32; STOP_WORDS.len()] = {
    let mut keys = [0u32; STOP_WORDS.len()];
    let mut i = 0;
    while i < STOP_WORDS.len() {
        let w = STOP_WORDS[i].as_bytes();
        assert!(
            w.len() <= STOP_KEY_LEN,
            "stop word longer than a packed key"
        );
        let mut j = 0;
        while j < w.len() {
            keys[i] |= (w[j] as u32) << (8 * j);
            j += 1;
        }
        i += 1;
    }
    keys
};

fn is_stop_word(word: &[u8]) -> bool {
    if word.len() > STOP_KEY_LEN {
        return false;
    }
    let mut packed = [0u8; STOP_KEY_LEN];
    packed[..word.len()].copy_from_slice(word);
    STOP_KEYS.contains(&u32::from_le_bytes(packed))
}

/// Byte → its case-folded form when it belongs in a word (ASCII
/// alphanumerics and `_`), or 0 when it separates words.
const WORD_BYTE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        if c.is_ascii_alphanumeric() || c == b'_' {
            table[b] = c.to_ascii_lowercase();
        }
        b += 1;
    }
    table
};

/// Folds a query word to the form the tokenizer stores it in: ASCII case
/// folded and cut to [`MAX_WORD_LEN`] bytes. Word terms, phrase words and
/// prefixes all go through this one rule, so a query for a word longer than
/// the limit probes and verifies the same truncated key the index holds.
///
/// ```
/// use hac_index::token::{normalize_word, MAX_WORD_LEN};
///
/// let long = "X".repeat(60);
/// assert_eq!(normalize_word(&long), "x".repeat(MAX_WORD_LEN));
/// assert_eq!(normalize_word("Glimpse"), "glimpse");
/// ```
pub fn normalize_word(word: &str) -> String {
    let mut end = word.len().min(MAX_WORD_LEN);
    while !word.is_char_boundary(end) {
        end -= 1;
    }
    word[..end].to_ascii_lowercase()
}

/// `s` with ASCII case folded, borrowed when it has no uppercase letter.
pub fn fold_ascii(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Streams the indexable words of `content` to `f`, in order, and stops as
/// soon as `f` breaks. Words are lowercase ASCII-alphanumeric (plus `_`)
/// runs cut to [`MAX_WORD_LEN`] bytes. A run that is already lowercase and
/// short enough is handed out as a slice of `content`; any other is folded
/// into a stack buffer — the scan allocates nothing.
pub fn scan_words(content: &[u8], mut f: impl FnMut(&str) -> ControlFlow<()>) -> ControlFlow<()> {
    // One validation of the whole buffer lets words be sliced out of it
    // without a check per word; binary content falls back to that check.
    let text = std::str::from_utf8(content).ok();
    let mut buf = [0u8; MAX_WORD_LEN];
    let mut i = 0;
    while i < content.len() {
        if WORD_BYTE[content[i] as usize] == 0 {
            i += 1;
            continue;
        }
        let start = i;
        let mut folded = false;
        while let Some(&b) = content.get(i) {
            let c = WORD_BYTE[b as usize];
            if c == 0 {
                break;
            }
            folded |= c != b;
            i += 1;
        }
        let run = &content[start..i];
        let word = if !folded && run.len() <= MAX_WORD_LEN {
            match text {
                Some(text) => &text[start..i],
                None => std::str::from_utf8(run).expect("word bytes are ASCII"),
            }
        } else {
            let len = run.len().min(MAX_WORD_LEN);
            for (dst, &b) in buf.iter_mut().zip(&run[..len]) {
                *dst = WORD_BYTE[b as usize];
            }
            std::str::from_utf8(&buf[..len]).expect("word bytes are ASCII")
        };
        if is_indexable(word) {
            f(word)?;
        }
    }
    ControlFlow::Continue(())
}

/// Tokenizes plain text into lowercase words, applying the stop list.
///
/// # Examples
///
/// ```
/// use hac_index::token::tokenize_text;
///
/// let words = tokenize_text(b"The Fingerprint-Matching ALGORITHM, v2!");
/// let strs: Vec<&str> = words.iter().filter_map(|t| t.as_word()).collect();
/// assert_eq!(strs, vec!["fingerprint", "matching", "algorithm", "v2"]);
/// ```
pub fn tokenize_text(content: &[u8]) -> Vec<Token> {
    let mut out = Vec::new();
    let _ = scan_words(content, |w| {
        out.push(Token::Word(w.to_string()));
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_folds_case_and_splits_punctuation() {
        let toks = tokenize_text(b"Hello, WORLD! foo_bar x");
        let words: Vec<&str> = toks.iter().filter_map(Token::as_word).collect();
        // "x" is below MIN_WORD_LEN.
        assert_eq!(words, vec!["hello", "world", "foo_bar"]);
    }

    #[test]
    fn stop_words_are_dropped() {
        let toks = tokenize_text(b"the cat and the hat");
        let words: Vec<&str> = toks.iter().filter_map(Token::as_word).collect();
        assert_eq!(words, vec!["cat", "hat"]);
    }

    #[test]
    fn long_runs_are_truncated_not_dropped() {
        let long = vec![b'a'; 200];
        let toks = tokenize_text(&long);
        assert_eq!(toks.len(), 1);
        assert_eq!(toks[0].as_word().unwrap().len(), MAX_WORD_LEN);
    }

    #[test]
    fn field_keys_cannot_collide_with_words() {
        let f = Token::field("From", "Alice");
        assert_eq!(f.key(), "from\u{1f}alice");
        assert_eq!(Token::field_key("FROM", "ALICE"), f.key());
        let w = Token::word("from");
        assert_ne!(w.key(), Token::field_key("from", ""));
    }

    #[test]
    fn packed_stop_list_agrees_with_the_list() {
        for w in STOP_WORDS {
            assert!(!is_indexable(w), "{w}");
        }
        for w in ["ab", "fo", "form", "thee", "witha", "ana", "i_s", "the_"] {
            assert!(is_indexable(w), "{w}");
        }
    }

    #[test]
    fn key_eq_matches_key_without_allocating() {
        for t in [
            Token::word("glimpse"),
            Token::field("from", "alice"),
            Token::field("", ""),
        ] {
            assert!(t.key_eq(&t.key()), "{t:?}");
        }
        let f = Token::field("from", "alice");
        for other in [
            "from",
            "alice",
            "from\u{1f}alic",
            "from\u{1f}alicex",
            "fro\u{1f}malice",
        ] {
            assert!(!f.key_eq(other), "{other:?}");
        }
        assert!(!Token::word("from").key_eq("from\u{1f}"));
    }

    #[test]
    fn scan_words_stops_when_told() {
        let mut seen = Vec::new();
        let flow = scan_words(b"alpha beta gamma delta", |w| {
            seen.push(w.to_string());
            if w == "beta" {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(flow.is_break());
        assert_eq!(seen, vec!["alpha", "beta"]);
    }

    #[test]
    fn normalize_word_matches_the_tokenizer() {
        let long = format!("Long_{}", "Identifier".repeat(6));
        let stored = tokenize_text(long.as_bytes());
        assert_eq!(stored[0].as_word(), Some(normalize_word(&long).as_str()));
        // Never cuts inside a character.
        let wide = "é".repeat(30);
        assert!(normalize_word(&wide).len() <= MAX_WORD_LEN);
    }

    #[test]
    fn empty_and_binary_input() {
        assert!(tokenize_text(b"").is_empty());
        let toks = tokenize_text(&[0u8, 1, 2, 255, b' ', b'o', b'k']);
        let words: Vec<&str> = toks.iter().filter_map(Token::as_word).collect();
        assert_eq!(words, vec!["ok"]);
    }
}
