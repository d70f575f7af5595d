//! Wildcard pattern matching for the es shell.
//!
//! Es inherits rc's pattern language, used in two places:
//!
//! * the `~ subject pattern...` matching command (the paper: "the
//!   matching is a bit more sophisticated, for the pattern may include
//!   wildcards"), and
//! * filename (glob) expansion of unquoted words.
//!
//! The metacharacters are `*` (any run of characters), `?` (any single
//! character) and `[...]` character classes with ranges; a class
//! beginning with `~` (rc style) or `!` is negated, and a `]`
//! immediately after the opening (or after the negation marker) is a
//! literal member. An unterminated `[` matches itself literally, as in
//! rc.
//!
//! Shell quoting decides which characters are *live*: `echo '*'` must
//! not glob. A [`Pattern`] is therefore compiled either from a plain
//! string (everything live, used for `~` patterns that arrive as
//! already-evaluated strings) or from quoted/unquoted segments as the
//! lexer saw them ([`Pattern::from_segments`]).
//!
//! # Examples
//!
//! ```
//! use es_match::Pattern;
//!
//! let p = Pattern::parse("ab[c-e]*");
//! assert!(p.matches("abd-tail"));
//! assert!(!p.matches("abz"));
//!
//! // A quoted star is a literal star.
//! let q = Pattern::from_segments(&[("a", false), ("*", true)]);
//! assert!(q.matches("a*"));
//! assert!(!q.matches("ab"));
//! ```

#[cfg(test)]
mod tests;

/// One element of a compiled pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Item {
    /// A literal character (possibly a quoted metacharacter).
    Char(char),
    /// `?` — any one character.
    Any,
    /// `*` — any (possibly empty) run of characters.
    Star,
    /// `[...]` — a character class.
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
}

/// A compiled wildcard pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    items: Vec<Item>,
    /// True if any live metacharacter was present.
    wild: bool,
}

impl Pattern {
    /// Compiles a pattern where every metacharacter is live.
    pub fn parse(pattern: &str) -> Pattern {
        Pattern::from_segments(&[(pattern, false)])
    }

    /// Compiles a pattern from `(text, quoted)` segments; quoted
    /// segments contribute only literal characters.
    pub fn from_segments(segments: &[(&str, bool)]) -> Pattern {
        let mut items = Vec::new();
        let mut wild = false;
        for (text, quoted) in segments {
            if *quoted {
                items.extend(text.chars().map(Item::Char));
                continue;
            }
            let chars: Vec<char> = text.chars().collect();
            let mut i = 0;
            while i < chars.len() {
                match chars[i] {
                    '?' => {
                        items.push(Item::Any);
                        wild = true;
                        i += 1;
                    }
                    '*' => {
                        // Runs of stars collapse to one.
                        if items.last() != Some(&Item::Star) {
                            items.push(Item::Star);
                        }
                        wild = true;
                        i += 1;
                    }
                    '[' => match parse_class(&chars, i) {
                        Some((item, next)) => {
                            items.push(item);
                            wild = true;
                            i = next;
                        }
                        None => {
                            items.push(Item::Char('['));
                            i += 1;
                        }
                    },
                    c => {
                        items.push(Item::Char(c));
                        i += 1;
                    }
                }
            }
        }
        Pattern { items, wild }
    }

    /// Returns true if the pattern contains a live metacharacter.
    /// Words without wildcards skip glob expansion entirely.
    pub fn has_wildcards(&self) -> bool {
        self.wild
    }

    /// If the pattern is purely literal, returns the literal string.
    pub fn as_literal(&self) -> Option<String> {
        if self.wild {
            return None;
        }
        Some(
            self.items
                .iter()
                .map(|it| match it {
                    Item::Char(c) => *c,
                    _ => unreachable!("non-literal item in literal pattern"),
                })
                .collect(),
        )
    }

    /// Matches the pattern against an entire subject string.
    pub fn matches(&self, subject: &str) -> bool {
        match_here(&self.items, subject)
    }
}

/// Parses a `[...]` class starting at `chars[start] == '['`. Returns
/// the class and the index just past the closing `]`, or `None` if the
/// class is unterminated (in which case `[` is literal, as in rc).
fn parse_class(chars: &[char], start: usize) -> Option<(Item, usize)> {
    let mut i = start + 1;
    let mut negated = false;
    if i < chars.len() && (chars[i] == '~' || chars[i] == '!') {
        negated = true;
        i += 1;
    }
    let mut ranges = Vec::new();
    let mut first = true;
    loop {
        if i >= chars.len() {
            return None; // unterminated
        }
        let c = chars[i];
        if c == ']' && !first {
            return Some((Item::Class { negated, ranges }, i + 1));
        }
        first = false;
        // Range `a-z` (a trailing `-` is a literal member).
        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
            let lo = c;
            let hi = chars[i + 2];
            ranges.push(if lo <= hi { (lo, hi) } else { (hi, lo) });
            i += 3;
        } else {
            ranges.push((c, c));
            i += 1;
        }
    }
}

fn class_matches(negated: bool, ranges: &[(char, char)], c: char) -> bool {
    let hit = ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
    hit != negated
}

/// Iterative glob match with single-star backtracking (the classic
/// two-pointer algorithm): linear except across `*` boundaries. The
/// subject is walked in place, by byte offset, so a match allocates
/// nothing.
fn match_here(items: &[Item], subj: &str) -> bool {
    let next_char = |si: usize| subj[si..].chars().next();
    let (mut pi, mut si) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None; // (pattern idx after *, subj offset consumed to)
    loop {
        if pi < items.len() {
            match (&items[pi], next_char(si)) {
                (Item::Star, _) => {
                    star = Some((pi + 1, si));
                    pi += 1;
                    continue;
                }
                (Item::Any, Some(c)) => {
                    pi += 1;
                    si += c.len_utf8();
                    continue;
                }
                (Item::Char(p), Some(c)) if c == *p => {
                    pi += 1;
                    si += c.len_utf8();
                    continue;
                }
                (Item::Class { negated, ranges }, Some(c))
                    if class_matches(*negated, ranges, c) =>
                {
                    pi += 1;
                    si += c.len_utf8();
                    continue;
                }
                _ => {}
            }
        } else if si == subj.len() {
            return true;
        }
        // Mismatch: backtrack to the last star, consuming one more char.
        let Some((after, consumed)) = star else {
            return false;
        };
        let Some(c) = next_char(consumed) else {
            return false;
        };
        si = consumed + c.len_utf8();
        star = Some((after, si));
        pi = after;
    }
}

/// Convenience: does any of `patterns` match `subject`?
///
/// # Examples
///
/// ```
/// let pats = [es_match::Pattern::parse("a*"), es_match::Pattern::parse("b*")];
/// assert!(es_match::match_any(&pats, "banana"));
/// assert!(!es_match::match_any(&pats, "cherry"));
/// ```
pub fn match_any(patterns: &[Pattern], subject: &str) -> bool {
    patterns.iter().any(|p| p.matches(subject))
}
