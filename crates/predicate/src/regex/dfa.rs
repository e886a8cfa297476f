//! Eager determinization of a [`Program`]: the Pike VM's thread sets,
//! computed once per pattern instead of once per text position.
//!
//! A DFA state is what the VM would hold before reading the next character:
//! the sorted set of live consuming instructions (the closure of the previous
//! step's targets plus a fresh seed at instruction 0, which is what makes the
//! search unanchored) and whether that closure reaches `Match` when the text
//! ends here. `^` holds only in the start state's closure; `$` never holds in
//! a thread set (another character is coming) and always in the end bit, so
//! both closures come from [`Program::add_thread`] with the flags the VM
//! would pass and `$^` on `""` answers as it does there.
//!
//! The alphabet is the pattern's own: every `Char` and `Class` edge cuts the
//! code-point line, and two characters between the same cuts step every
//! instruction alike. Text of any script walks the same table.

use std::collections::HashMap;

use super::nfa::{Inst, Program, Threads};

/// Most states a DFA may have (ids fit the table's `u8`); a pattern that
/// needs more keeps answering through the Pike VM.
const MAX_STATES: usize = 256;
const _: () = assert!(MAX_STATES <= u8::MAX as usize + 1);

/// No thread is live and none can start: every text from here is rejected.
/// This is where a `^`-anchored pattern lands at its first mismatch.
const DEAD: u8 = 0;
/// A `Match` was reached: every text from here is accepted.
const MATCH: u8 = 1;
/// States below this id have the verdict already.
const FIRST_LIVE: u8 = 2;

/// A table-driven matcher equivalent to [`Program::is_match`].
#[derive(Debug)]
pub(super) struct Dfa {
    /// Sorted code points at which some instruction's accepted set begins or
    /// ends; character class `k` is the interval below `cuts[k]` and from
    /// `cuts[k - 1]`.
    cuts: Box<[u32]>,
    /// Class of each ASCII code point (the `cuts` lookup, precomputed).
    ascii: [u8; 128],
    /// `transitions[state * classes + class]`.
    transitions: Box<[u8]>,
    classes: usize,
    /// Per state: does the text match if it ends here?
    accepts_at_end: Box<[bool]>,
    start: u8,
}

impl Dfa {
    /// Subset construction; `None` if it needs more than [`MAX_STATES`].
    pub(super) fn build(program: &Program) -> Option<Self> {
        let cuts = cuts(program);
        let classes = cuts.len() + 1;
        let mut b = Builder {
            program,
            // No threads, end bit clear.
            ids: HashMap::from([(vec![0], DEAD)]),
            states: vec![Vec::new(); FIRST_LIVE as usize],
            accepts_at_end: vec![false, true],
            live: Threads::new(program),
            ended: Threads::new(program),
            key: Vec::new(),
        };
        let start = b.intern(&[0], true)?;

        let mut transitions = vec![DEAD; FIRST_LIVE as usize * classes];
        transitions[MATCH as usize * classes..].fill(MATCH);
        let mut targets = Vec::new();
        let mut state = FIRST_LIVE as usize;
        while state < b.states.len() {
            // One probe per class: its lowest code point.
            for probe in std::iter::once(0).chain(cuts.iter().copied()) {
                targets.clear();
                targets.extend(
                    b.states[state]
                        .iter()
                        .filter(|&&pc| program.insts()[pc as usize].consumes(probe))
                        .map(|&pc| pc + 1),
                );
                targets.push(0);
                transitions.push(b.intern(&targets, false)?);
            }
            state += 1;
        }

        let mut ascii = [0u8; 128];
        for (c, class) in ascii.iter_mut().enumerate() {
            *class = cuts.partition_point(|&cut| cut <= c as u32) as u8;
        }
        Some(Self {
            cuts: cuts.into(),
            ascii,
            transitions: transitions.into(),
            classes,
            accepts_at_end: b.accepts_at_end.into(),
            start,
        })
    }

    /// Unanchored search: one table lookup per character, no allocation.
    pub(super) fn is_match(&self, text: &str) -> bool {
        let mut state = self.start;
        for c in text.chars() {
            if state < FIRST_LIVE {
                break;
            }
            let c = c as u32;
            let class = match self.ascii.get(c as usize) {
                Some(&class) => class as usize,
                None => self.cuts.partition_point(|&cut| cut <= c),
            };
            state = self.transitions[state as usize * self.classes + class];
        }
        self.accepts_at_end[state as usize]
    }
}

/// The code points where some instruction's accepted set begins or ends,
/// sorted and deduplicated.
fn cuts(program: &Program) -> Vec<u32> {
    let mut cuts = Vec::new();
    for inst in program.insts() {
        match inst {
            Inst::Char(c) => cuts.extend([*c as u32, *c as u32 + 1]),
            Inst::Class { ranges, .. } => {
                cuts.extend(ranges.iter().flat_map(|&(lo, hi)| [lo as u32, hi as u32 + 1]));
            }
            _ => {}
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Subset-construction state: the states found so far and the scratch the
/// closures run in.
struct Builder<'p> {
    program: &'p Program,
    /// A state's identity — its sorted thread set followed by its end bit —
    /// to its id.
    ids: HashMap<Vec<u32>, u8>,
    /// Thread set per id (empty for the two sentinels, which are never
    /// expanded).
    states: Vec<Vec<u32>>,
    accepts_at_end: Vec<bool>,
    live: Threads,
    ended: Threads,
    key: Vec<u32>,
}

impl Builder<'_> {
    /// The id of the state the VM is in after adding threads at `targets`,
    /// allocating it if new; `None` past [`MAX_STATES`].
    fn intern(&mut self, targets: &[u32], at_start: bool) -> Option<u8> {
        self.live.clear();
        self.ended.clear();
        let mut accepts_at_end = false;
        for &pc in targets {
            if self.program.add_thread(pc, at_start, false, &mut self.live) {
                return Some(MATCH);
            }
            accepts_at_end |= self.program.add_thread(pc, at_start, true, &mut self.ended);
        }
        self.key.clear();
        self.key.extend_from_slice(&self.live.pcs);
        self.key.sort_unstable();
        let threads = self.key.len();
        self.key.push(u32::from(accepts_at_end));
        if let Some(&id) = self.ids.get(&self.key) {
            return Some(id);
        }
        if self.states.len() == MAX_STATES {
            return None;
        }
        let id = self.states.len() as u8;
        self.ids.insert(self.key.clone(), id);
        self.states.push(self.key[..threads].to_vec());
        self.accepts_at_end.push(accepts_at_end);
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::parser::parse;

    fn dfa(pat: &str) -> Dfa {
        Dfa::build(&Program::compile(&parse(pat).unwrap())).expect("under the cap")
    }

    #[test]
    fn start_anchored_pattern_dies_at_first_mismatch() {
        let d = dfa("^[0-9]");
        let class = d.ascii[b'a' as usize] as usize;
        assert_eq!(d.transitions[d.start as usize * d.classes + class], DEAD);
        assert!(d.is_match("3 dogs"));
        assert!(!d.is_match("three 3"));
    }

    #[test]
    fn empty_match_is_the_match_sentinel() {
        assert_eq!(dfa("").start, MATCH);
        assert_eq!(dfa("a*").start, MATCH);
        assert_eq!(dfa("$a").start, DEAD);
    }

    #[test]
    fn non_ascii_text_takes_the_same_table() {
        let d = dfa("[à-ü]+日");
        assert!(d.is_match("caf\u{e9}日本"));
        assert!(!d.is_match("cafe日本"));
        assert!(!d.is_match("\u{e9}本"));
        // A cut one past U+D7FF is probed as the surrogate U+D800.
        assert!(dfa("\u{d7ff}").is_match("x\u{d7ff}"));
    }

    #[test]
    fn workload_shapes_need_few_states() {
        for pat in ["^[0-9]", "mountain", "(dog|cat)", "forest .*person", "^a photo of .*flower"] {
            let states = dfa(pat).accepts_at_end.len();
            assert!((3..=24).contains(&states), "{pat:?}: {states} states");
        }
    }
}
