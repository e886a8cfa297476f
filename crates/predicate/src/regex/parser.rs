//! Recursive-descent parser producing the regex AST.
//!
//! Grammar (standard precedence: alternation < concatenation < repetition):
//!
//! ```text
//! alt    := concat ('|' concat)*
//! concat := repeat*
//! repeat := atom ('*' | '+' | '?')*
//! atom   := '(' alt ')' | class | '.' | '^' | '$' | escape | literal
//! class  := '[' '^'? item+ ']'    item := c | c '-' c | '\d' | '\w' | '\s'
//! ```

use std::fmt;

/// Regex syntax tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ast {
    /// Matches the empty string.
    Empty,
    /// A single literal character.
    Char(char),
    /// `.` — any single character.
    Any,
    /// A character class; `ranges` are inclusive, `negated` flips membership.
    Class {
        /// True for `[^...]`.
        negated: bool,
        /// Inclusive character ranges (single chars are `(c, c)`).
        ranges: Vec<(char, char)>,
    },
    /// `^` — start-of-text assertion.
    StartAnchor,
    /// `$` — end-of-text assertion.
    EndAnchor,
    /// Sequence.
    Concat(Vec<Ast>),
    /// Alternation.
    Alt(Vec<Ast>),
    /// Zero or more.
    Star(Box<Ast>),
    /// One or more.
    Plus(Box<Ast>),
    /// Zero or one.
    Opt(Box<Ast>),
}

impl Ast {
    /// True if `c` is a member of this class node.
    ///
    /// # Panics
    /// Panics when called on a non-class node.
    pub fn class_contains(&self, c: char) -> bool {
        match self {
            Ast::Class { negated, ranges } => {
                let inside = ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
                inside != *negated
            }
            _ => panic!("class_contains on non-class node"),
        }
    }
}

/// A regex syntax error with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Character offset where the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

/// Parse `pattern` into an [`Ast`].
pub fn parse(pattern: &str) -> Result<Ast, ParseError> {
    let mut p = Parser { chars: pattern.chars().collect(), pos: 0 };
    let ast = p.alt()?;
    if p.pos != p.chars.len() {
        return Err(p.err("unexpected trailing input (unbalanced ')'?)"));
    }
    Ok(ast)
}

impl Parser {
    fn err(&self, msg: &str) -> ParseError {
        ParseError { message: msg.to_string(), position: self.pos }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn alt(&mut self) -> Result<Ast, ParseError> {
        let mut branches = vec![self.concat()?];
        while self.peek() == Some('|') {
            self.bump();
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 { branches.pop().unwrap() } else { Ast::Alt(branches) })
    }

    fn concat(&mut self) -> Result<Ast, ParseError> {
        let mut seq = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            seq.push(self.repeat()?);
        }
        Ok(match seq.len() {
            0 => Ast::Empty,
            1 => seq.pop().unwrap(),
            _ => Ast::Concat(seq),
        })
    }

    fn repeat(&mut self) -> Result<Ast, ParseError> {
        let mut node = self.atom()?;
        while let Some(c) = self.peek() {
            node = match c {
                '*' => Ast::Star(Box::new(node)),
                '+' => Ast::Plus(Box::new(node)),
                '?' => Ast::Opt(Box::new(node)),
                _ => break,
            };
            self.bump();
        }
        Ok(node)
    }

    fn atom(&mut self) -> Result<Ast, ParseError> {
        match self.peek() {
            None => Err(self.err("expected an atom, found end of pattern")),
            Some('*') | Some('+') | Some('?') => Err(self.err("quantifier with nothing to repeat")),
            Some('(') => {
                self.bump();
                let inner = self.alt()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unclosed group: expected ')'"));
                }
                Ok(inner)
            }
            Some('[') => self.class(),
            Some('.') => {
                self.bump();
                Ok(Ast::Any)
            }
            Some('^') => {
                self.bump();
                Ok(Ast::StartAnchor)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::EndAnchor)
            }
            Some('\\') => {
                self.bump();
                self.escape()
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Char(c))
            }
        }
    }

    fn escape(&mut self) -> Result<Ast, ParseError> {
        let Some(c) = self.bump() else {
            return Err(self.err("dangling backslash"));
        };
        if let Some(ranges) = shorthand(c.to_ascii_lowercase()) {
            return Ok(Ast::Class { negated: c.is_ascii_uppercase(), ranges: ranges.to_vec() });
        }
        Ok(match c {
            'n' => Ast::Char('\n'),
            't' => Ast::Char('\t'),
            'r' => Ast::Char('\r'),
            // Any punctuation escapes to itself: \. \* \( \[ \\ \| etc.
            c if !c.is_alphanumeric() => Ast::Char(c),
            c => return Err(self.err(&format!("unknown escape: \\{c}"))),
        })
    }

    fn class(&mut self) -> Result<Ast, ParseError> {
        debug_assert_eq!(self.peek(), Some('['));
        self.bump();
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut first = true;
        loop {
            match self.peek() {
                None => return Err(self.err("unclosed character class: expected ']'")),
                Some(']') if !first => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            first = false;
            let lo = match self.class_item()? {
                ClassItem::Char(c) => c,
                ClassItem::Set(set) => {
                    ranges.extend_from_slice(set);
                    continue;
                }
            };
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.bump(); // consume '-'
                let ClassItem::Char(hi) = self.class_item()? else {
                    return Err(self.err("a shorthand class cannot end a range"));
                };
                if hi < lo {
                    return Err(self.err(&format!("invalid class range {lo}-{hi}")));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        if ranges.is_empty() {
            return Err(self.err("empty character class"));
        }
        Ok(Ast::Class { negated, ranges })
    }

    fn class_item(&mut self) -> Result<ClassItem, ParseError> {
        match self.bump() {
            None => Err(self.err("unclosed character class")),
            Some('\\') => match self.bump() {
                None => Err(self.err("dangling backslash in class")),
                Some('n') => Ok(ClassItem::Char('\n')),
                Some('t') => Ok(ClassItem::Char('\t')),
                Some('r') => Ok(ClassItem::Char('\r')),
                Some(c) => match shorthand(c) {
                    Some(set) => Ok(ClassItem::Set(set)),
                    // As outside a class, except that a negated shorthand
                    // has no ranges to add to a (possibly negated) class.
                    None if c.is_alphanumeric() => {
                        Err(self.err(&format!("unknown escape in class: \\{c}")))
                    }
                    None => Ok(ClassItem::Char(c)),
                },
            },
            Some(c) => Ok(ClassItem::Char(c)),
        }
    }
}

/// One member of a `[...]` class.
enum ClassItem {
    /// A character, possibly one end of a range.
    Char(char),
    /// A shorthand class's ranges.
    Set(&'static [(char, char)]),
}

/// The ranges of `\d`, `\w` and `\s`, by letter.
fn shorthand(c: char) -> Option<&'static [(char, char)]> {
    match c {
        'd' => Some(&[('0', '9')]),
        'w' => Some(&[('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')]),
        's' => Some(&[(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')]),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literal_concat() {
        assert_eq!(parse("ab").unwrap(), Ast::Concat(vec![Ast::Char('a'), Ast::Char('b')]));
    }

    #[test]
    fn precedence_alt_lowest() {
        // a|bc == a | (bc)
        let ast = parse("a|bc").unwrap();
        match ast {
            Ast::Alt(branches) => {
                assert_eq!(branches[0], Ast::Char('a'));
                assert_eq!(branches[1], Ast::Concat(vec![Ast::Char('b'), Ast::Char('c')]));
            }
            other => panic!("expected Alt, got {other:?}"),
        }
    }

    #[test]
    fn star_binds_tighter_than_concat() {
        // ab* == a(b*)
        let ast = parse("ab*").unwrap();
        assert_eq!(ast, Ast::Concat(vec![Ast::Char('a'), Ast::Star(Box::new(Ast::Char('b')))]));
    }

    #[test]
    fn class_with_ranges_and_negation() {
        let ast = parse("[^a-z0]").unwrap();
        assert_eq!(ast, Ast::Class { negated: true, ranges: vec![('a', 'z'), ('0', '0')] });
        assert!(ast.class_contains('A'));
        assert!(!ast.class_contains('m'));
        assert!(!ast.class_contains('0'));
    }

    #[test]
    fn literal_dash_at_class_end() {
        let ast = parse("[a-]").unwrap();
        assert_eq!(ast, Ast::Class { negated: false, ranges: vec![('a', 'a'), ('-', '-')] });
    }

    #[test]
    fn class_leading_bracket_is_literal() {
        let ast = parse("[]a]").unwrap();
        assert_eq!(ast, Ast::Class { negated: false, ranges: vec![(']', ']'), ('a', 'a')] });
    }

    #[test]
    fn shorthand_escapes_expand_inside_a_class() {
        let class = |pat: &str| parse(pat).unwrap();
        assert_eq!(class(r"[\d]"), Ast::Class { negated: false, ranges: vec![('0', '9')] });
        assert!(class(r"[\d]").class_contains('5'));
        assert!(!class(r"[\d]").class_contains('d'));
        // `-` after a shorthand is a literal, as at the end of a class.
        let word_dash = class(r"[\w-]");
        assert!("aZ0_-".chars().all(|c| word_dash.class_contains(c)));
        assert!(!word_dash.class_contains(' '));
        let space_comma = class(r"[\s,]");
        assert!(" \t\n\r,".chars().all(|c| space_comma.class_contains(c)));
        assert!(!space_comma.class_contains('s'));
        assert!(!class(r"[^\d\s]").class_contains('7'));
        assert!(class(r"[^\d\s]").class_contains('d'));
        assert_eq!(class(r"[\d-z]"), class(r"[0-9\-z]"));
    }

    #[test]
    fn unsupported_escapes_inside_a_class_are_errors() {
        for pat in [r"[\D]", r"[\W]", r"[\S]", r"[a\b]", r"[\x41]", r"[\é]"] {
            let e = parse(pat).unwrap_err();
            assert!(e.message.contains("unknown escape in class"), "{pat}: {e}");
        }
        let e = parse(r"[a-\d]").unwrap_err();
        assert!(e.message.contains("cannot end a range"), "{e}");
        // Punctuation and control escapes keep working.
        assert_eq!(
            parse(r"[\]\n\-]").unwrap(),
            Ast::Class { negated: false, ranges: vec![(']', ']'), ('\n', '\n'), ('-', '-')] }
        );
    }

    #[test]
    fn error_positions() {
        let e = parse("ab(c").unwrap_err();
        assert!(e.message.contains("unclosed group"), "{e}");
        let e = parse("[z-a]").unwrap_err();
        assert!(e.message.contains("invalid class range"), "{e}");
        let e = parse("a)b").unwrap_err();
        assert!(e.message.contains("trailing"), "{e}");
    }

    #[test]
    fn nested_quantifiers_parse() {
        assert!(parse("(a*)+?").is_ok());
    }

    #[test]
    fn empty_pattern_is_empty_node() {
        assert_eq!(parse("").unwrap(), Ast::Empty);
        assert_eq!(parse("a|").unwrap(), Ast::Alt(vec![Ast::Char('a'), Ast::Empty]));
    }
}
