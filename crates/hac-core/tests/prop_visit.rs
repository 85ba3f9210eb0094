//! Property tests: the streaming token visitor against a frozen copy of the
//! collect-then-compare extraction it replaced.
//!
//! Over random mail, C and plain-text content under random file names:
//!
//! * `extract_tokens` returns exactly the tokens the old extraction did;
//! * the index's key check, which now streams the file by id through
//!   [`VfsProvider`] and stops at the first match, agrees with
//!   `extract_tokens(..).any(|t| t.key() == key)` for every extracted key
//!   and for random absent ones;
//! * streamed phrase verification agrees with the old windowed match over
//!   the collected word sequence.

use std::collections::BTreeMap;

use proptest::prelude::*;

use hac_core::state::{extract_tokens, VfsProvider};
use hac_index::{Bitmap, ContentExpr, DocId, Granularity, Index, Token, TransducerRegistry};
use hac_vfs::{VPath, Vfs};

/// Content fragments: words in every case, stop words, separators, long
/// runs, mail headers, C lines, non-ASCII text and invalid UTF-8. Few
/// distinct words, so phrases and partial phrase matches repeat often.
const FRAGMENTS: &[&[u8]] = &[
    b"ab",
    b"cd",
    b"Ab",
    b"CD",
    b"ridge",
    b"Ridge",
    b"the",
    b"a",
    b"x",
    b"foo_bar",
    b"v2",
    b"ab ab ab cd ",
    b"ab cd ab cd ab ridge ",
    b" ",
    b" ",
    b" ",
    b"  ",
    b", ",
    b"-",
    b".",
    b"\n",
    b"\n",
    b"\r\n",
    b"\n\n",
    b"\t",
    b"From: Alice Liddell <alice@example.org>\n",
    b"to: bob@x.org\n",
    b"Subject: ab cd Ridge\n",
    b"CC : Carol\r\n",
    b"X-Other: ab\n",
    b"Date: 1999-02-03\n",
    b"subject:ab ab cd\n",
    b"#include <Stdio.H>\n",
    b"  #include \"match_ab.h\"\n",
    b"int Match_AB(int a) {\n",
    b"if (ab) {\n",
    b"static void cd (void){\n",
    b"return(ab);\n",
    b"MatchTheEnrolledTemplateAgainstTheRidgeCountOfTheProbe",
    b"caf\xc3\xa9 ab",
    b"\xc2\xa0from: ab\n",
    b"\xff\xfe ab \x80",
    b"\x00",
];

const STEMS: &[&str] = &[
    "m",
    "note",
    "Lib",
    "README",
    "Report.Final",
    "ab_cd",
    "trailing",
    "caf\u{e9}",
];
const EXTS: &[&str] = &[
    ".eml", ".mail", ".MAIL", ".c", ".h", ".H", ".txt", ".TxT", ".", "",
];

/// Words phrases and absent keys are drawn from (with a stop word that is
/// never a token). Repeats make self-overlapping needles like `ab ab cd`
/// common: they need the matcher to fall back to a shorter partial match.
const PHRASE_VOCAB: &[&str] = &[
    "ab", "ab", "cd", "cd", "ridge", "foo_bar", "v2", "the", "zz",
];

fn content_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..FRAGMENTS.len(), 0..48).prop_map(|ix| {
        ix.iter()
            .flat_map(|&i| FRAGMENTS[i].iter().copied())
            .collect()
    })
}

fn name_strategy() -> impl Strategy<Value = String> {
    (0..STEMS.len(), 0..EXTS.len()).prop_map(|(s, e)| format!("{}{}", STEMS[s], EXTS[e]))
}

/// Needles as indexes into the document's word sequence (a window that is
/// present) or into [`PHRASE_VOCAB`] (usually absent).
fn needles_strategy() -> impl Strategy<Value = Vec<(bool, usize, Vec<usize>)>> {
    proptest::collection::vec(
        (
            0..2u8,
            0..64usize,
            proptest::collection::vec(0..PHRASE_VOCAB.len(), 1..5),
        )
            .prop_map(|(window, at, words)| (window == 0, at, words)),
        1..6,
    )
}

/// The extraction as it stood before the streaming visitor, kept verbatim
/// as the reference.
mod reference {
    use hac_index::Token;

    const MAX_WORD_LEN: usize = 48;
    const STOP_WORDS: &[&str] = &[
        "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has", "he", "in", "is",
        "it", "its", "of", "on", "that", "the", "to", "was", "were", "will", "with",
    ];
    const MAIL_HEADERS: &[&str] = &["from", "to", "cc", "subject", "date"];

    fn is_indexable(word: &str) -> bool {
        word.len() >= 2 && !STOP_WORDS.contains(&word)
    }

    pub fn tokenize_text(content: &[u8]) -> Vec<Token> {
        let mut out = Vec::new();
        let mut word = String::new();
        for &b in content {
            let c = b as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                if word.len() < MAX_WORD_LEN {
                    word.push(c.to_ascii_lowercase());
                }
            } else if !word.is_empty() {
                if is_indexable(&word) {
                    out.push(Token::Word(std::mem::take(&mut word)));
                } else {
                    word.clear();
                }
            }
        }
        if !word.is_empty() && is_indexable(&word) {
            out.push(Token::Word(word));
        }
        out
    }

    fn split_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
        let mut offset = 0;
        text.split('\n').map(move |line| {
            let start = offset;
            offset += line.len() + 1;
            (start, line.trim_end_matches('\r'))
        })
    }

    fn mail(content: &[u8]) -> Vec<Token> {
        let text = String::from_utf8_lossy(content);
        let mut tokens = Vec::new();
        let mut body_start = 0;
        for (offset, line) in split_lines(&text) {
            if line.is_empty() {
                body_start = offset + 1;
                break;
            }
            body_start = offset + line.len() + 1;
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                if MAIL_HEADERS.contains(&name.as_str()) {
                    let value = value.trim();
                    for word in tokenize_text(value.as_bytes()) {
                        if let Token::Word(w) = word {
                            tokens.push(Token::field(&name, &w));
                        }
                    }
                    if name == "subject" {
                        tokens.extend(tokenize_text(value.as_bytes()));
                    }
                }
            }
        }
        let body = &text[body_start.min(text.len())..];
        tokens.extend(tokenize_text(body.as_bytes()));
        tokens
    }

    fn csource(content: &[u8]) -> Vec<Token> {
        let text = String::from_utf8_lossy(content);
        let mut tokens = Vec::new();
        for line in text.lines() {
            let trimmed = line.trim_start();
            if let Some(rest) = trimmed.strip_prefix("#include") {
                let target: String = rest
                    .chars()
                    .filter(|c| c.is_ascii_alphanumeric() || *c == '.' || *c == '_')
                    .collect();
                if !target.is_empty() {
                    tokens.push(Token::field("include", &target));
                }
            }
            if let Some(paren) = trimmed.find('(') {
                let head = &trimmed[..paren];
                if let Some(ident) = head.split_whitespace().last() {
                    let ident: String = ident
                        .chars()
                        .filter(|c| c.is_ascii_alphanumeric() || *c == '_')
                        .collect();
                    if !ident.is_empty()
                        && !["if", "while", "for", "switch", "return", "sizeof"]
                            .contains(&ident.as_str())
                        && trimmed.ends_with('{')
                    {
                        tokens.push(Token::field("func", &ident));
                    }
                }
            }
        }
        tokens.extend(tokenize_text(content));
        tokens
    }

    pub fn extract_tokens(file_name: &str, content: &[u8]) -> Vec<Token> {
        let mut tokens = if file_name.ends_with(".eml") || file_name.ends_with(".mail") {
            mail(content)
        } else if file_name.ends_with(".c") || file_name.ends_with(".h") {
            csource(content)
        } else {
            tokenize_text(content)
        };
        for word in tokenize_text(file_name.as_bytes()) {
            if let Some(w) = word.as_word() {
                tokens.push(Token::field("name", w));
            }
        }
        if let Some((_, ext)) = file_name.rsplit_once('.') {
            if !ext.is_empty() {
                tokens.push(Token::field("ext", ext));
            }
        }
        tokens
    }

    /// The old phrase check: a window over the collected word sequence.
    pub fn has_phrase(tokens: &[Token], needle: &[String]) -> bool {
        let seq: Vec<&str> = tokens.iter().filter_map(Token::as_word).collect();
        seq.windows(needle.len())
            .any(|w| w.iter().zip(needle.iter()).all(|(a, b)| *a == b))
    }
}

/// The query expression that probes exactly `token`'s key.
fn probe(token: &Token) -> ContentExpr {
    match token {
        Token::Word(w) => ContentExpr::Term(w.clone()),
        Token::Field { name, value } => ContentExpr::Field(name.clone(), value.clone()),
    }
}

/// Indexes `content` as `/name` next to a decoy in the same block that
/// carries every probed key, so the file is always a candidate and every
/// answer comes from streaming verification; then checks each probe and
/// each phrase against the collected tokens.
fn check(name: &str, content: &[u8], probes: &BTreeMap<String, Token>, needles: &[Vec<String>]) {
    let registry = TransducerRegistry::new();
    let tokens = extract_tokens(&registry, name, content);
    let vfs = Vfs::new();
    let id = vfs
        .save(&VPath::parse(&format!("/{name}")).unwrap(), content)
        .unwrap();
    let doc = DocId(id.0);

    let mut decoy: Vec<Token> = probes.values().cloned().collect();
    decoy.extend(needles.iter().flatten().map(|w| Token::word(w)));
    let mut index = Index::new(Granularity::Block { docs_per_block: 2 });
    index.add_doc(doc, 1, &tokens);
    // No node has the next id, so the decoy itself never verifies.
    index.add_doc(DocId(doc.0 + 1), 1, &decoy);
    let provider = VfsProvider {
        vfs: &vfs,
        registry: &registry,
    };
    let universe = Bitmap::from_ids([doc]);
    let text = String::from_utf8_lossy(content);

    for token in probes.values() {
        let want = tokens.iter().any(|t| t.key() == token.key());
        let got = index
            .eval(&probe(token), &universe, &provider)
            .contains(doc);
        assert_eq!(got, want, "key {token:?} in {name} {text:?}");
    }
    for needle in needles {
        let want = reference::has_phrase(&tokens, needle);
        let got = index
            .eval(&ContentExpr::Phrase(needle.clone()), &universe, &provider)
            .contains(doc);
        assert_eq!(got, want, "phrase {needle:?} in {name} {text:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_verification_agrees_with_collected_tokens(
        content in content_strategy(),
        name in name_strategy(),
        absent in proptest::collection::vec((0..PHRASE_VOCAB.len(), 0..4u8), 1..6),
        needles in needles_strategy(),
    ) {
        let tokens = extract_tokens(&TransducerRegistry::new(), &name, &content);
        prop_assert_eq!(&tokens, &reference::extract_tokens(&name, &content), "{name}");

        // Every extracted key, plus words and fields the file may lack.
        let mut probes: BTreeMap<String, Token> =
            tokens.iter().map(|t| (t.key(), t.clone())).collect();
        for &(w, kind) in &absent {
            let w = PHRASE_VOCAB[w];
            let token = match kind {
                0 => Token::word(w),
                1 => Token::field("from", w),
                2 => Token::field("name", w),
                _ => Token::field("func", w),
            };
            probes.insert(token.key(), token);
        }
        let words: Vec<&str> = tokens.iter().filter_map(Token::as_word).collect();
        let needles: Vec<Vec<String>> = needles
            .iter()
            .map(|(window, at, vocab)| {
                if *window && !words.is_empty() {
                    let start = at % words.len();
                    let end = (start + vocab.len()).min(words.len());
                    words[start..end].iter().map(|w| w.to_string()).collect()
                } else {
                    vocab.iter().map(|&i| PHRASE_VOCAB[i].to_string()).collect()
                }
            })
            .collect();
        check(&name, &content, &probes, &needles);
    }

    /// Texts and needles over two words: nearly every needle overlaps
    /// itself, so a match is often found only by falling back from a
    /// longer partial match to a shorter one.
    #[test]
    fn phrase_matching_agrees_on_two_word_texts(
        text in proptest::collection::vec(0..3usize, 0..16),
        needles in proptest::collection::vec(proptest::collection::vec(0..2usize, 1..6), 1..8),
    ) {
        const WORDS: [&str; 3] = ["ab", "cd", "Ab"];
        let content = text.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" ");
        let needles: Vec<Vec<String>> = needles
            .iter()
            .map(|n| n.iter().map(|&w| WORDS[w].to_string()).collect())
            .collect();
        check("t.txt", content.as_bytes(), &BTreeMap::new(), &needles);
    }
}
