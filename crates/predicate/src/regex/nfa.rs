//! Thompson construction and Pike-VM execution.
//!
//! The AST is compiled to a flat instruction program; execution maintains the
//! set of live NFA states per input position (a "thread list"), giving
//! `O(len(text) · len(program))` worst-case matching with zero backtracking.
//!
//! [`Regex`](super::Regex) answers through the DFA that `super::dfa`
//! determinizes from a program's `add_thread` (closure) and `Inst::consumes`
//! (step); the VM here runs patterns whose DFA exceeds the state cap, and is
//! the oracle the DFA is tested against.

use super::parser::Ast;

/// One NFA instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Consume one specific character.
    Char(char),
    /// Consume any one character.
    Any,
    /// Consume one character inside (or outside, if negated) the ranges.
    Class {
        /// True for negated classes.
        negated: bool,
        /// Inclusive ranges.
        ranges: Box<[(char, char)]>,
    },
    /// Fork execution to both targets (epsilon).
    Split(u32, u32),
    /// Jump to target (epsilon).
    Jmp(u32),
    /// Zero-width start-of-text assertion.
    AssertStart,
    /// Zero-width end-of-text assertion.
    AssertEnd,
    /// Accept.
    Match,
}

impl Inst {
    /// True if this instruction consumes the code point `c` (a `u32` so the
    /// DFA construction can probe interval representatives that are not
    /// `char`s, such as the first surrogate).
    pub(super) fn consumes(&self, c: u32) -> bool {
        match self {
            Inst::Char(want) => *want as u32 == c,
            Inst::Any => true,
            Inst::Class { negated, ranges } => {
                let inside = ranges.iter().any(|&(lo, hi)| c >= lo as u32 && c <= hi as u32);
                inside != *negated
            }
            _ => false,
        }
    }
}

/// The consuming instructions live at one text position, in insertion order,
/// with the visited marks that keep each epsilon closure linear.
#[derive(Debug)]
pub(super) struct Threads {
    pub(super) pcs: Vec<u32>,
    visited: Vec<bool>,
}

impl Threads {
    pub(super) fn new(program: &Program) -> Self {
        let n = program.insts.len();
        Self { pcs: Vec::with_capacity(n), visited: vec![false; n] }
    }

    pub(super) fn clear(&mut self) {
        self.pcs.clear();
        self.visited.fill(false);
    }
}

/// A compiled regex program.
#[derive(Debug, Clone)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Compile an AST via Thompson construction.
    pub fn compile(ast: &Ast) -> Self {
        let mut insts = Vec::new();
        emit(ast, &mut insts);
        insts.push(Inst::Match);
        Self { insts }
    }

    /// Number of instructions (used by tests and complexity accounting).
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the program is trivially empty (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    pub(super) fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Unanchored search: does any substring of `text` match?
    pub fn is_match(&self, text: &str) -> bool {
        let mut current = Threads::new(self);
        let mut next = Threads::new(self);
        let mut chars = text.chars();
        let mut upcoming = chars.next();

        // Start a thread at position 0.
        if self.add_thread(0, true, upcoming.is_none(), &mut current) {
            return true;
        }

        while let Some(c) = upcoming {
            upcoming = chars.next();
            let at_end = upcoming.is_none();
            next.clear();
            for &pc in &current.pcs {
                if self.insts[pc as usize].consumes(c as u32)
                    && self.add_thread(pc + 1, false, at_end, &mut next)
                {
                    return true;
                }
            }
            std::mem::swap(&mut current, &mut next);
            // Unanchored search: seed a fresh attempt starting after `c`.
            if self.add_thread(0, false, at_end, &mut current) {
                return true;
            }
        }
        false
    }

    /// Follow epsilon transitions from `pc`, adding consuming instructions to
    /// `threads`; `at_start` / `at_end` say whether the position is the first
    /// / one past the last of the text. Returns `true` if a `Match` is reached.
    pub(super) fn add_thread(
        &self,
        pc: u32,
        at_start: bool,
        at_end: bool,
        threads: &mut Threads,
    ) -> bool {
        if std::mem::replace(&mut threads.visited[pc as usize], true) {
            return false;
        }
        match &self.insts[pc as usize] {
            Inst::Jmp(t) => self.add_thread(*t, at_start, at_end, threads),
            Inst::Split(a, b) => {
                self.add_thread(*a, at_start, at_end, threads)
                    || self.add_thread(*b, at_start, at_end, threads)
            }
            Inst::AssertStart => at_start && self.add_thread(pc + 1, at_start, at_end, threads),
            Inst::AssertEnd => at_end && self.add_thread(pc + 1, at_start, at_end, threads),
            Inst::Match => true,
            _ => {
                threads.pcs.push(pc);
                false
            }
        }
    }
}

/// Emit instructions for `ast` into `out` (Thompson construction).
fn emit(ast: &Ast, out: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(c) => out.push(Inst::Char(*c)),
        Ast::Any => out.push(Inst::Any),
        Ast::Class { negated, ranges } => {
            out.push(Inst::Class { negated: *negated, ranges: ranges.clone().into_boxed_slice() })
        }
        Ast::StartAnchor => out.push(Inst::AssertStart),
        Ast::EndAnchor => out.push(Inst::AssertEnd),
        Ast::Concat(seq) => {
            for node in seq {
                emit(node, out);
            }
        }
        Ast::Alt(branches) => {
            // Chain of splits; each branch jumps to the common end.
            let mut jmp_slots = Vec::new();
            for (i, branch) in branches.iter().enumerate() {
                let last = i + 1 == branches.len();
                if last {
                    emit(branch, out);
                } else {
                    let split_at = out.len();
                    out.push(Inst::Split(0, 0)); // patched below
                    emit(branch, out);
                    let jmp_at = out.len();
                    out.push(Inst::Jmp(0)); // patched below
                    jmp_slots.push(jmp_at);
                    let next_branch = out.len() as u32;
                    out[split_at] = Inst::Split(split_at as u32 + 1, next_branch);
                }
            }
            let end = out.len() as u32;
            for slot in jmp_slots {
                out[slot] = Inst::Jmp(end);
            }
        }
        Ast::Star(inner) => {
            let split_at = out.len();
            out.push(Inst::Split(0, 0));
            emit(inner, out);
            out.push(Inst::Jmp(split_at as u32));
            let end = out.len() as u32;
            out[split_at] = Inst::Split(split_at as u32 + 1, end);
        }
        Ast::Plus(inner) => {
            let start = out.len() as u32;
            emit(inner, out);
            let split_at = out.len();
            out.push(Inst::Split(start, split_at as u32 + 1));
        }
        Ast::Opt(inner) => {
            let split_at = out.len();
            out.push(Inst::Split(0, 0));
            emit(inner, out);
            let end = out.len() as u32;
            out[split_at] = Inst::Split(split_at as u32 + 1, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parser::parse;

    fn prog(pat: &str) -> Program {
        Program::compile(&parse(pat).unwrap())
    }

    #[test]
    fn compile_sizes_are_linear() {
        assert_eq!(prog("abc").len(), 4); // 3 chars + Match
        assert_eq!(prog("a*").len(), 4); // Split, Char, Jmp, Match
        assert_eq!(prog("a|b").len(), 5); // Split, a, Jmp, b, Match
    }

    #[test]
    fn star_accepts_zero_and_many() {
        let p = prog("^a*$");
        assert!(p.is_match(""));
        assert!(p.is_match("aaaa"));
        assert!(!p.is_match("ab"));
    }

    #[test]
    fn alternation_branch_order_irrelevant() {
        for pat in ["^(abc|abd)$", "^(abd|abc)$"] {
            let p = prog(pat);
            assert!(p.is_match("abc"));
            assert!(p.is_match("abd"));
            assert!(!p.is_match("abe"));
        }
    }

    #[test]
    fn unanchored_restart_finds_late_matches() {
        let p = prog("aab");
        assert!(p.is_match("aaaab"));
        assert!(p.is_match("xxaabxx"));
        assert!(!p.is_match("aba ab"));
    }

    #[test]
    fn thread_dedup_keeps_lists_bounded() {
        // (a|a|a)* explodes in a naive NFA walker; thread dedup keeps it linear.
        let p = prog("(a|a|a)*b");
        let text = "a".repeat(2000);
        assert!(!p.is_match(&text));
        assert!(p.is_match(&(text + "b")));
    }

    #[test]
    fn end_anchor_mid_pattern() {
        let p = prog("a$b");
        assert!(!p.is_match("ab"), "nothing can follow $");
    }
}
