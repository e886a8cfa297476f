//! Property tests: three engines, one verdict. [`Regex`] (literal prefilter,
//! then DFA), the Pike VM it was determinized from, and the independent
//! backtracking oracle must agree on randomly generated patterns and texts.

use acorn_predicate::regex::nfa::Program;
use acorn_predicate::regex::{naive, parser, Regex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn quantified(atom: impl Strategy<Value = String> + 'static) -> impl Strategy<Value = String> {
    let quantifier = prop_oneof![
        5 => Just(""),
        1 => Just("*"),
        1 => Just("+"),
        1 => Just("?"),
    ];
    (atom, quantifier).prop_map(|(a, q)| format!("{a}{q}"))
}

/// An alternation of 1–2 concatenations of 0–4 quantified atoms.
fn alternation(atom: impl Strategy<Value = String> + 'static) -> impl Strategy<Value = String> {
    let concat = prop::collection::vec(quantified(atom), 0..5).prop_map(|v| v.concat());
    prop::collection::vec(concat, 1..3).prop_map(|v| v.join("|"))
}

/// One-character atoms over an alphabet with multi-byte members, two class
/// shapes (plain ranges; shorthand and non-ASCII members), and anchors
/// wherever an atom may stand.
fn atom() -> impl Strategy<Value = String> {
    prop_oneof![
        8 => prop::sample::select(vec!["a", "b", "c", "0", "1", "é", "日"]).prop_map(str::to_string),
        1 => Just(".".to_string()),
        1 => Just("[ab]".to_string()),
        1 => Just("[^a]".to_string()),
        1 => Just("[0-9]".to_string()),
        1 => Just(r"[\d_é]".to_string()),
        1 => Just("[^b-c日]".to_string()),
        1 => Just(r"\d".to_string()),
        1 => Just(r"\w".to_string()),
        1 => Just(r"\S".to_string()),
        1 => Just("^".to_string()),
        1 => Just("$".to_string()),
    ]
}

/// Strategy producing syntactically valid patterns, the empty one included.
fn pattern() -> impl Strategy<Value = String> {
    let group = alternation(atom()).prop_map(|inner| format!("({inner})"));
    let core = alternation(prop_oneof![6 => atom(), 1 => group]);
    // Optionally anchor the whole thing.
    (core, any::<bool>(), any::<bool>()).prop_map(|(core, anchor_start, anchor_end)| {
        let mut s = String::new();
        if anchor_start {
            s.push('^');
        }
        s.push_str(&core);
        if anchor_end {
            s.push('$');
        }
        s
    })
}

fn text() -> impl Strategy<Value = String> {
    let alphabet = vec!['a', 'b', 'c', '0', '1', ' ', '_', 'é', '日'];
    prop::collection::vec(prop::sample::select(alphabet), 0..12)
        .prop_map(|v| v.into_iter().collect())
}

/// Fails the case unless all three engines give one verdict.
fn verdict(pat: &str, txt: &str) -> TestCaseResult {
    let ast = parser::parse(pat).expect("generated pattern must parse");
    let re = Regex::new(pat).expect("generated pattern must compile");
    let want = naive::is_match(&ast, txt);
    prop_assert_eq!(Program::compile(&ast).is_match(txt), want, "VM: {:?} on {:?}", pat, txt);
    prop_assert_eq!(re.is_match(txt), want, "Regex: {:?} on {:?}", pat, txt);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn nfa_agrees_with_backtracking_oracle(pat in pattern(), txt in text()) {
        verdict(&pat, &txt)?;
        verdict(&pat, "")?;
        verdict("", &txt)?;
    }

    #[test]
    fn anchors_in_odd_places_agree(txt in text()) {
        for pat in ["^", "$", "^$", "$^", "^$^", "a|^b", "(^a|b)c", "a$|b", "a$b", "^*a", "(a|$)+", "é$|^日"] {
            verdict(pat, &txt)?;
            verdict(pat, "")?;
        }
    }

    #[test]
    fn literal_patterns_equal_substring_search(txt in text(), needle in text()) {
        // Patterns with no metacharacters are plain substring search.
        if needle.chars().all(|c| c.is_alphanumeric() || c == ' ' || c == '_') {
            let re = Regex::new(&needle).unwrap();
            prop_assert_eq!(re.is_match(&txt), txt.contains(&needle));
        }
    }

    #[test]
    fn match_is_invariant_under_text_extension(pat in pattern(), txt in text()) {
        // Unanchored-or-start-anchored matches survive appending text, unless
        // the pattern contains an end anchor.
        if !pat.contains('$') {
            let re = Regex::new(&pat).unwrap();
            if re.is_match(&txt) {
                let extended = format!("{txt}zzz");
                prop_assert!(re.is_match(&extended), "pattern {:?}", pat);
            }
        }
    }
}

/// `(a|b)*a(a|b){n}` — "the n-th character from the end is `a`" — needs 2^n
/// DFA states: the construction must give up at its cap, quickly, and the
/// pattern must keep the VM's answers.
#[test]
fn pattern_past_the_state_cap_compiles_fast_and_agrees_with_the_vm() {
    let pat = format!("(a|b)*a{}$", "(a|b)".repeat(14));
    let t0 = std::time::Instant::now();
    let re = Regex::new(&pat).unwrap();
    let took = t0.elapsed();
    assert!(took.as_millis() < 50, "Regex::new took {took:?}");

    let vm = Program::compile(&parser::parse(&pat).unwrap());
    let mut rng = StdRng::seed_from_u64(22);
    let mut accepted = 0;
    for _ in 0..1000 {
        let len = rng.gen_range(0..40);
        let txt: String = (0..len).map(|_| if rng.gen_bool(0.5) { 'a' } else { 'b' }).collect();
        let want = vm.is_match(&txt);
        assert_eq!(re.is_match(&txt), want, "{txt:?}");
        accepted += usize::from(want);
    }
    assert!((200..800).contains(&accepted), "{accepted} of 1000 texts accepted");
}
