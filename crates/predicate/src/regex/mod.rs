//! A from-scratch regular-expression engine.
//!
//! The LAION workload in the ACORN paper issues `regex-match` predicates of
//! 2–10 tokens (e.g. `^[0-9]`) against image captions, and a query that
//! materializes one evaluates it on every row. The offline-crate policy of
//! this reproduction rules out the `regex` crate, so [`Regex::new`] runs this
//! pipeline once per pattern:
//!
//! 1. [`parser`] — recursive-descent parse into an AST supporting literals,
//!    `.`, character classes (`[a-z0-9]`, `[^...]`, `[\d_]`), anchors (`^`,
//!    `$`), quantifiers (`*`, `+`, `?`), alternation (`|`), grouping, and the
//!    escapes `\d \D \w \W \s \S` plus punctuation escapes.
//! 2. [`nfa`] — Thompson construction compiled to a small instruction
//!    program.
//! 3. `dfa` — subset construction over that program and the pattern's own
//!    character classes, so a match is one table lookup per character with
//!    no allocation. The states are capped; past the cap the pattern keeps
//!    the program alone.
//! 4. A literal prefilter read off the AST: a pattern that is a literal or
//!    an alternation of literals is answered by substring search outright
//!    (steps 2 and 3 are skipped for it), and a run of literal characters
//!    every match must contain rejects rows by substring search before the
//!    table is walked.
//!
//! The program's Pike-style virtual machine (`O(len · states)`, no
//! backtracking and therefore no pathological inputs) is what step 3 caches:
//! it supplies the construction's closures and steps, answers for patterns
//! past the cap, and is the oracle the table is tested against.
//!
//! Matching is *unanchored search* semantics: `is_match` reports whether any
//! substring matches, with `^`/`$` asserting text boundaries — the same
//! semantics the paper's FAISS-based implementation gets from `std::regex`.
//!
//! [`naive`] contains an independent backtracking matcher used as a
//! property-test oracle.

mod dfa;
pub mod naive;
pub mod nfa;
pub mod parser;

pub use parser::{Ast, ParseError};

use std::sync::Arc;

use dfa::Dfa;
use nfa::Program;

/// A compiled regular expression; clones share the compiled state.
#[derive(Debug, Clone)]
pub struct Regex {
    compiled: Arc<Compiled>,
}

#[derive(Debug)]
struct Compiled {
    pattern: String,
    prefilter: Prefilter,
    /// `None` under an exact prefilter: `is_match` answers by substring
    /// search alone and never walks an automaton, so none is built.
    engine: Option<Engine>,
}

#[derive(Debug)]
enum Engine {
    Dfa(Dfa),
    /// The pattern needs more DFA states than the cap.
    Vm(Program),
}

/// What substring search says about a pattern.
#[derive(Debug, PartialEq)]
enum Prefilter {
    /// The pattern is an alternation of these literals: a text matches iff
    /// it contains one.
    Exact(Vec<String>),
    /// Every match contains this literal.
    Required(String),
    None,
}

impl Regex {
    /// Compile `pattern`.
    pub fn new(pattern: &str) -> Result<Self, ParseError> {
        let ast = parser::parse(pattern)?;
        let prefilter = Prefilter::of(&ast);
        let engine = (!matches!(prefilter, Prefilter::Exact(_))).then(|| {
            let program = Program::compile(&ast);
            match Dfa::build(&program) {
                Some(dfa) => Engine::Dfa(dfa),
                None => Engine::Vm(program),
            }
        });
        let compiled = Compiled { pattern: pattern.to_string(), prefilter, engine };
        Ok(Self { compiled: Arc::new(compiled) })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.compiled.pattern
    }

    /// True if any substring of `text` matches the pattern.
    pub fn is_match(&self, text: &str) -> bool {
        match &self.compiled.prefilter {
            Prefilter::Exact(literals) => {
                return literals.iter().any(|l| text.contains(l.as_str()))
            }
            Prefilter::Required(literal) if !text.contains(literal.as_str()) => return false,
            _ => {}
        }
        match &self.compiled.engine {
            Some(Engine::Dfa(dfa)) => dfa.is_match(text),
            Some(Engine::Vm(program)) => program.is_match(text),
            None => unreachable!("an exact prefilter answered above"),
        }
    }
}

impl Prefilter {
    fn of(ast: &Ast) -> Self {
        let branches = match ast {
            Ast::Alt(branches) => branches.as_slice(),
            other => std::slice::from_ref(other),
        };
        if let Some(literals) = branches.iter().map(literal).collect() {
            return Prefilter::Exact(literals);
        }
        // The longest run of literals in the top-level sequence. A run right
        // after `^` is left to the automaton, which checks it in place and
        // stops at the first mismatch; searching for it would scan the row.
        let sequence = match ast {
            Ast::Concat(sequence) => sequence.as_slice(),
            other => std::slice::from_ref(other),
        };
        let mut best = String::new();
        let mut anchored = false;
        for chunk in sequence.split_inclusive(|node| literal(node).is_none()) {
            let run: String = chunk.iter().map_while(literal).collect();
            if !anchored && run.len() > best.len() {
                best = run;
            }
            anchored = chunk.last() == Some(&Ast::StartAnchor);
        }
        if best.is_empty() {
            Prefilter::None
        } else {
            Prefilter::Required(best)
        }
    }
}

/// The one string `ast` matches, if it is a literal.
fn literal(ast: &Ast) -> Option<String> {
    match ast {
        Ast::Empty => Some(String::new()),
        Ast::Char(c) => Some(c.to_string()),
        Ast::Concat(sequence) => sequence.iter().map(literal).collect(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::new(pat).unwrap().is_match(text)
    }

    #[test]
    fn literal_substring_search() {
        assert!(m("cat", "a cat sat"));
        assert!(!m("dog", "a cat sat"));
        assert!(m("", "anything"), "empty pattern matches everywhere");
    }

    #[test]
    fn dot_matches_any_single_char() {
        assert!(m("c.t", "cut"));
        assert!(m("c.t", "cat"));
        assert!(!m("c.t", "ct"));
    }

    #[test]
    fn classes_and_ranges() {
        assert!(m("[0-9]", "abc7"));
        assert!(!m("[0-9]", "abc"));
        assert!(m("[a-cx]", "x"));
        assert!(m("[^0-9]", "5a"));
        assert!(!m("[^0-9]", "55"));
    }

    #[test]
    fn anchors() {
        assert!(m("^ab", "abc"));
        assert!(!m("^bc", "abc"));
        assert!(m("bc$", "abc"));
        assert!(!m("ab$", "abc"));
        assert!(m("^abc$", "abc"));
        assert!(!m("^abc$", "abcd"));
        assert!(m("^$", ""));
        assert!(!m("^$", "x"));
    }

    #[test]
    fn quantifiers() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(m("ab+c", "abc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(!m("ab?c", "abbc"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(m("cat|dog", "hotdog"));
        assert!(m("a(b|c)d", "acd"));
        assert!(!m("a(b|c)d", "aed"));
        assert!(m("(ab)+", "xabab"));
        assert!(m("^(a|b)*$", "abba"));
        assert!(!m("^(a|b)*$", "abca"));
    }

    #[test]
    fn shorthand_escapes_inside_classes() {
        assert!(m(r"[\d]", "5"));
        assert!(!m(r"[\d]", "d"));
        assert!(m(r"^[\w-]+$", "snake_case-2"));
        assert!(!m(r"^[\w-]+$", "two words"));
        assert!(m(r"a[\s,]b", "a,b"));
        assert!(!m(r"a[\s,]b", "asb"));
        assert!(Regex::new(r"[\D]").is_err());
    }

    #[test]
    fn escape_classes() {
        assert!(m(r"\d+", "id 42"));
        assert!(!m(r"^\d", "x1"));
        assert!(m(r"\w+", "hello"));
        assert!(m(r"\s", "a b"));
        assert!(m(r"\D", "1a"));
        assert!(m(r"a\.b", "a.b"));
        assert!(!m(r"a\.b", "axb"));
    }

    #[test]
    fn paper_style_patterns() {
        // "2-10 regex tokens (e.g. ^[0-9])" — §7.1.2.
        assert!(m("^[0-9]", "3 dogs"));
        assert!(!m("^[0-9]", "three dogs"));
        assert!(m("a photo of .* dog", "a photo of a large dog"));
        assert!(m("(sunny|cloudy) day", "a cloudy day outside"));
    }

    #[test]
    fn no_pathological_backtracking() {
        // Classic catastrophic case for backtrackers: (a+)+b vs "aaaa...c".
        let text = "a".repeat(64) + "c";
        let re = Regex::new("(a+)+b").unwrap();
        let t0 = std::time::Instant::now();
        assert!(!re.is_match(&text));
        assert!(t0.elapsed().as_millis() < 500, "NFA must not backtrack exponentially");
    }

    #[test]
    fn unicode_chars_work() {
        assert!(m("héllo", "well héllo there"));
        assert!(m("^.$", "é"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(Regex::new("a(b").is_err());
        assert!(Regex::new("[a-").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new(r"a\").is_err());
    }

    fn prefilter(pat: &str) -> Prefilter {
        Prefilter::of(&parser::parse(pat).unwrap())
    }

    #[test]
    fn prefilter_reads_literals_off_the_pattern() {
        let exact = |lits: &[&str]| Prefilter::Exact(lits.iter().map(|l| l.to_string()).collect());
        let required = |lit: &str| Prefilter::Required(lit.to_string());
        assert_eq!(prefilter("mountain"), exact(&["mountain"]));
        assert_eq!(prefilter("(dog|cat)"), exact(&["dog", "cat"]));
        assert_eq!(prefilter("(re)d|"), exact(&["red", ""]));
        assert_eq!(prefilter(""), exact(&[""]));
        assert_eq!(prefilter("forest .*person"), required("forest "));
        assert_eq!(prefilter("red .*yellow"), required("yellow"));
        assert_eq!(prefilter("photo .*(red|blue) dog$"), required("photo "));
        // The run behind `^` is the automaton's to check.
        assert_eq!(prefilter("^a photo of .*dog"), required("dog"));
        assert_eq!(prefilter("^[0-9]"), Prefilter::None);
        assert_eq!(prefilter("^abc"), Prefilter::None);
        assert_eq!(prefilter("(dog|c.t)"), Prefilter::None);
        assert_eq!(prefilter("(ab)+c"), required("c"));
    }

    #[test]
    fn clones_share_the_compiled_pattern() {
        let re = Regex::new("^a photo of .*dog").unwrap();
        assert!(Arc::ptr_eq(&re.compiled, &re.clone().compiled));
        assert!(matches!(re.compiled.engine, Some(Engine::Dfa(_))));
    }

    #[test]
    fn exact_prefilter_builds_no_automaton() {
        let re = Regex::new("(dog|cat)").unwrap();
        assert!(re.compiled.engine.is_none());
        assert!(re.is_match("a cat on a mat") && !re.is_match("a cow on a mat"));
    }

    #[test]
    fn pattern_past_the_state_cap_answers_through_the_vm() {
        let pat = format!("(a|b)*a{}c", "(a|b)".repeat(12));
        let re = Regex::new(&pat).unwrap();
        assert!(matches!(re.compiled.engine, Some(Engine::Vm(_))));
        assert_eq!(re.compiled.prefilter, Prefilter::Required("a".to_string()));
        assert!(re.is_match(&format!("ba{}c", "ab".repeat(6))));
        assert!(!re.is_match(&format!("bb{}c", "ab".repeat(6))));
        assert!(!re.is_match(&"ab".repeat(20)));
    }

    /// A pattern made of whole words (so literal runs are common) and a
    /// string its pieces were written to match.
    fn wordy_pattern() -> impl Strategy<Value = (String, String)> {
        let piece = || {
            prop::sample::select(vec![
                ("ab", "ab"),
                ("c", "c"),
                ("ca", "ca"),
                ("é日", "é日"),
                (" ", " "),
                (".*", "b c"),
                (".*", ""),
                ("[ab]+", "ba"),
                ("(ab|c)", "c"),
                ("(ca)", "ca"),
                ("b?", ""),
                ("^", ""),
                ("$", ""),
            ])
        };
        let sequence = || {
            prop::collection::vec(piece(), 0..5).prop_map(|pieces| {
                let (pattern, witness): (Vec<_>, Vec<_>) = pieces.into_iter().unzip();
                (pattern.concat(), witness.concat())
            })
        };
        prop_oneof![
            4 => sequence(),
            1 => (sequence(), sequence()).prop_map(|((a, witness), (b, _))| (format!("{a}|{b}"), witness)),
        ]
    }

    fn words(most: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(prop::sample::select(vec!["ab", "c", "a", "é日", " ", "b"]), 0..=most)
            .prop_map(|v| v.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_accepted_text_contains_the_derived_literal(
            pattern in wordy_pattern(),
            around in (words(2), words(2)),
            unrelated in words(10),
        ) {
            let (pat, witness) = pattern;
            let ast = parser::parse(&pat).expect("generated pattern must parse");
            let program = Program::compile(&ast);
            for txt in [format!("{}{witness}{}", around.0, around.1), unrelated] {
                let accepted = program.is_match(&txt);
                match Prefilter::of(&ast) {
                    Prefilter::Exact(literals) => {
                        let found = literals.iter().any(|l| txt.contains(l.as_str()));
                        prop_assert_eq!(found, accepted, "literals {:?} text {:?}", literals, txt);
                    }
                    Prefilter::Required(literal) => {
                        prop_assert!(
                            !accepted || txt.contains(&literal),
                            "literal {:?} text {:?}",
                            literal,
                            txt
                        );
                    }
                    Prefilter::None => {}
                }
            }
        }
    }
}
