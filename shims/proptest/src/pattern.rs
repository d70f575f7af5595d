//! Parser/generator for the regex-like string patterns used as
//! strategies: a single character class with a repetition count,
//! `"[a-z0-9]{1,8}"`.
//!
//! Supported syntax — exactly what the workspace's tests use:
//!
//! * character classes `[...]` with literal characters, ranges
//!   (`a-z`, ` -~`), and backslash escapes (`\[`, `\]`, `\\`, ...);
//! * class intersection `[X&&[^Y]]` (subtracting the inner negated
//!   class, as in `"[ -~&&[^\u{1}]]"`);
//! * repetition `{n}` / `{m,n}` (inclusive), defaulting to one.

use crate::Rng;

/// A compiled pattern: the candidate characters and the length range.
#[derive(Debug, Clone)]
pub struct ClassPattern {
    chars: Vec<char>,
    min: usize,
    max: usize,
}

impl ClassPattern {
    /// Compiles `pattern`, rejecting anything outside the subset.
    pub fn parse(pattern: &str) -> Result<ClassPattern, String> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pos = 0usize;
        let set = parse_class(&chars, &mut pos)?;
        let (min, max) = parse_quant(&chars, &mut pos)?;
        if pos != chars.len() {
            return Err(format!("trailing pattern syntax at {pos}"));
        }
        if set.is_empty() {
            return Err("empty character class".into());
        }
        Ok(ClassPattern {
            chars: set,
            min,
            max,
        })
    }

    /// Draws one string.
    pub fn generate(&self, rng: &mut Rng) -> String {
        let len = self.min + rng.below((self.max - self.min + 1) as u64) as usize;
        (0..len)
            .map(|_| self.chars[rng.below(self.chars.len() as u64) as usize])
            .collect()
    }
}

/// Parses `[...]` starting at `*pos` (which must point at `[`).
fn parse_class(chars: &[char], pos: &mut usize) -> Result<Vec<char>, String> {
    if chars.get(*pos) != Some(&'[') {
        return Err("pattern must start with a character class".into());
    }
    *pos += 1;
    let negated = chars.get(*pos) == Some(&'^');
    if negated {
        *pos += 1;
    }
    let mut set: Vec<char> = Vec::new();
    loop {
        match chars.get(*pos) {
            None => return Err("unterminated character class".into()),
            Some(']') => {
                *pos += 1;
                break;
            }
            Some('&') if chars.get(*pos + 1) == Some(&'&') => {
                // Intersection: `X&&[Y]` (the inner class handles its
                // own `[^...]` negation by complementing).
                *pos += 2;
                let inner = parse_class(chars, pos)?;
                set.retain(|c| inner.contains(c));
                if chars.get(*pos) != Some(&']') {
                    return Err("intersection must end the class".into());
                }
                *pos += 1;
                break;
            }
            Some(_) => {
                let lo = class_char(chars, pos)?;
                // Range `a-z` (a `-` before `]` is a literal dash).
                if chars.get(*pos) == Some(&'-') && chars.get(*pos + 1).is_some_and(|c| *c != ']') {
                    *pos += 1;
                    let hi = class_char(chars, pos)?;
                    if hi < lo {
                        return Err(format!("inverted range {lo:?}-{hi:?}"));
                    }
                    set.extend(lo..=hi);
                } else {
                    set.push(lo);
                }
            }
        }
    }
    if negated {
        // Negations only appear on the right side of `&&` in our
        // corpus; complement within the printable-ASCII domain.
        let domain: Vec<char> = (' '..='~').collect();
        set = domain.into_iter().filter(|c| !set.contains(c)).collect();
    }
    set.dedup();
    Ok(set)
}

/// One (possibly escaped) class member character.
fn class_char(chars: &[char], pos: &mut usize) -> Result<char, String> {
    match chars.get(*pos) {
        None => Err("unterminated class".into()),
        Some('\\') => {
            let c = *chars
                .get(*pos + 1)
                .ok_or_else(|| "dangling backslash".to_string())?;
            *pos += 2;
            Ok(match c {
                'n' => '\n',
                't' => '\t',
                'r' => '\r',
                other => other,
            })
        }
        Some(&c) => {
            *pos += 1;
            Ok(c)
        }
    }
}

/// Parses `{n}` / `{m,n}`; absent means exactly one.
fn parse_quant(chars: &[char], pos: &mut usize) -> Result<(usize, usize), String> {
    if chars.get(*pos) != Some(&'{') {
        return Ok((1, 1));
    }
    *pos += 1;
    let text: String = chars[*pos..].iter().take_while(|c| **c != '}').collect();
    *pos += text.chars().count();
    if chars.get(*pos) != Some(&'}') {
        return Err("unterminated repetition".into());
    }
    *pos += 1;
    let parts: Vec<&str> = text.split(',').collect();
    let parse = |s: &str| {
        s.trim()
            .parse::<usize>()
            .map_err(|_| format!("bad repetition count {s:?}"))
    };
    match parts.as_slice() {
        [n] => {
            let n = parse(n)?;
            Ok((n, n))
        }
        [m, n] => {
            let (m, n) = (parse(m)?, parse(n)?);
            if n < m {
                return Err("inverted repetition range".into());
            }
            Ok((m, n))
        }
        _ => Err("bad repetition".into()),
    }
}
