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
//!    (steps 2 and 3 are skipped for it); otherwise every run of literal
//!    characters in the top-level sequence is one every match must contain,
//!    and a row must contain all of them before the table is walked. Over a
//!    block of rows ([`Regex::match_block`]) each literal is one block scan
//!    of the column's [`TextArena`] ([`literal_block`]: AVX2 on 32 bytes a
//!    step), so the automaton runs only on the rows that hold every run.
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

use crate::attrs::TextArena;
use crate::kernels::{literal_block, KernelPath};

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

impl Engine {
    fn is_match(&self, text: &str) -> bool {
        match self {
            Engine::Dfa(dfa) => dfa.is_match(text),
            Engine::Vm(program) => program.is_match(text),
        }
    }
}

/// What substring search says about a pattern.
#[derive(Debug, PartialEq)]
enum Prefilter {
    /// The pattern is an alternation of these literals: a text matches iff
    /// it contains one.
    Exact(Vec<String>),
    /// Every match contains each of these literals (non-empty, none inside
    /// another, longest first).
    Required(Vec<String>),
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
            Prefilter::Required(runs) if !runs.iter().all(|r| text.contains(r.as_str())) => {
                return false
            }
            _ => {}
        }
        self.engine().is_match(text)
    }

    /// [`is_match`](Self::is_match) for the rows `base + i` of `arena`, one
    /// per set bit `i` of `active`, as bit `i` of the result. `active` may
    /// only name rows of the arena.
    ///
    /// Each prefilter literal is one [`literal_block`] scan on `path`'s
    /// body. An alternation of literals ORs the scans, each over the rows
    /// no earlier literal matched. Otherwise the required runs are ANDed,
    /// longest first, each scanning only the rows every earlier run left
    /// set, and the automaton then runs on the surviving rows alone, each
    /// read as a `&str` slice of the arena.
    pub fn match_block(
        &self,
        path: KernelPath,
        arena: &TextArena,
        base: usize,
        active: u64,
    ) -> u64 {
        let mut live = active;
        match &self.compiled.prefilter {
            Prefilter::Exact(literals) => {
                let mut hits = 0u64;
                for literal in literals {
                    if live == 0 {
                        break;
                    }
                    let w = literal_block(path, arena, base, live, literal);
                    hits |= w;
                    live &= !w;
                }
                return hits;
            }
            Prefilter::Required(runs) => {
                for run in runs {
                    if live == 0 {
                        return 0;
                    }
                    live = literal_block(path, arena, base, live, run);
                }
            }
            Prefilter::None => {}
        }
        let engine = self.engine();
        let mut hits = 0u64;
        while live != 0 {
            let i = live.trailing_zeros();
            live &= live - 1;
            hits |= u64::from(engine.is_match(arena.row(base + i as usize))) << i;
        }
        hits
    }

    /// The automaton; every pattern without an exact prefilter has one.
    fn engine(&self) -> &Engine {
        self.compiled.engine.as_ref().expect("only an exact prefilter builds no automaton")
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
        // Every run of literals in the top-level sequence, longest first,
        // dropping any a longer one contains. A run right after `^` is left
        // to the automaton, which checks it in place and stops at the first
        // mismatch; searching for it would scan the row.
        let sequence = match ast {
            Ast::Concat(sequence) => sequence.as_slice(),
            other => std::slice::from_ref(other),
        };
        let mut runs: Vec<String> = Vec::new();
        let mut anchored = false;
        for chunk in sequence.split_inclusive(|node| literal(node).is_none()) {
            let run: String = chunk.iter().map_while(literal).collect();
            if !anchored && !run.is_empty() {
                runs.push(run);
            }
            anchored = chunk.last() == Some(&Ast::StartAnchor);
        }
        runs.sort_by_key(|run| std::cmp::Reverse(run.len()));
        let mut required: Vec<String> = Vec::new();
        for run in runs {
            if !required.iter().any(|longer| longer.contains(run.as_str())) {
                required.push(run);
            }
        }
        if required.is_empty() {
            Prefilter::None
        } else {
            Prefilter::Required(required)
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
        let required =
            |runs: &[&str]| Prefilter::Required(runs.iter().map(|r| r.to_string()).collect());
        assert_eq!(prefilter("mountain"), exact(&["mountain"]));
        assert_eq!(prefilter("(dog|cat)"), exact(&["dog", "cat"]));
        assert_eq!(prefilter("(re)d|"), exact(&["red", ""]));
        assert_eq!(prefilter(""), exact(&[""]));
        // Every run, longest first (ties keep pattern order).
        assert_eq!(prefilter("forest .*person"), required(&["forest ", "person"]));
        assert_eq!(prefilter("red .*yellow"), required(&["yellow", "red "]));
        assert_eq!(prefilter("photo .*(red|blue) dog$"), required(&["photo ", " dog"]));
        // The run behind `^` is the automaton's to check.
        assert_eq!(prefilter("^a photo of .*dog"), required(&["dog"]));
        assert_eq!(prefilter("^[0-9]"), Prefilter::None);
        assert_eq!(prefilter("^abc"), Prefilter::None);
        assert_eq!(prefilter("(dog|c.t)"), Prefilter::None);
        assert_eq!(prefilter("(ab)+c"), required(&["c"]));
        // A run inside a longer one adds nothing.
        assert_eq!(prefilter("cat.*a cat.*at"), required(&["a cat"]));
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
        assert_eq!(re.compiled.prefilter, Prefilter::Required(vec!["a".into(), "c".into()]));
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
                    Prefilter::Required(runs) => {
                        for run in runs {
                            prop_assert!(
                                !accepted || txt.contains(&run),
                                "run {:?} text {:?}",
                                run,
                                txt
                            );
                        }
                    }
                    Prefilter::None => {}
                }
            }
        }
    }
}
