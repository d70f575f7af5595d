//! Pattern text → AST.

use std::fmt;

/// Parse error for a malformed pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    msg: String,
}

impl RegexError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        RegexError { msg: msg.into() }
    }
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error: {}", self.msg)
    }
}

impl std::error::Error for RegexError {}

/// Regex AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Ast {
    Empty,
    Char(char),
    Dot,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Opt(Box<Ast>),
    Group(usize, Box<Ast>),
    Bol,
    Eol,
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    next_group: usize,
}

/// Parses a pattern; returns the AST and the number of capture groups.
pub(crate) fn parse(pattern: &str) -> Result<(Ast, usize), RegexError> {
    let mut p = Parser {
        chars: pattern.chars().collect(),
        pos: 0,
        next_group: 1,
    };
    let ast = p.alternation()?;
    if p.pos != p.chars.len() {
        return Err(RegexError::new(format!(
            "unexpected `{}` at position {}",
            p.chars[p.pos], p.pos
        )));
    }
    Ok((ast, p.next_group))
}

impl Parser {
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

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut alts = vec![self.concat()?];
        while self.peek() == Some('|') {
            self.bump();
            alts.push(self.concat()?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().expect("one alternative")
        } else {
            Ast::Alt(alts)
        })
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().expect("one item"),
            _ => Ast::Concat(items),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        match self.peek() {
            Some('*') => {
                self.bump();
                self.reject_double_repeat()?;
                Ok(Ast::Star(Box::new(atom)))
            }
            Some('+') => {
                self.bump();
                self.reject_double_repeat()?;
                Ok(Ast::Plus(Box::new(atom)))
            }
            Some('?') => {
                self.bump();
                self.reject_double_repeat()?;
                Ok(Ast::Opt(Box::new(atom)))
            }
            _ => Ok(atom),
        }
    }

    fn reject_double_repeat(&self) -> Result<(), RegexError> {
        if matches!(self.peek(), Some('*') | Some('+')) {
            return Err(RegexError::new("nested repetition operator"));
        }
        Ok(())
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            None => Err(RegexError::new("unexpected end of pattern")),
            Some('(') => {
                let g = self.next_group;
                self.next_group += 1;
                let inner = self.alternation()?;
                if self.bump() != Some(')') {
                    return Err(RegexError::new("unclosed group"));
                }
                Ok(Ast::Group(g, Box::new(inner)))
            }
            Some('[') => self.class(),
            Some('.') => Ok(Ast::Dot),
            Some('^') => Ok(Ast::Bol),
            Some('$') => Ok(Ast::Eol),
            Some('*') => Err(RegexError::new("repetition with nothing to repeat")),
            Some('+') => Err(RegexError::new("repetition with nothing to repeat")),
            Some('?') => Err(RegexError::new("repetition with nothing to repeat")),
            Some('\\') => self.escape(),
            Some(c) => Ok(Ast::Char(c)),
        }
    }

    fn escape(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            None => Err(RegexError::new("trailing backslash")),
            Some('n') => Ok(Ast::Char('\n')),
            Some('t') => Ok(Ast::Char('\t')),
            Some('r') => Ok(Ast::Char('\r')),
            Some('d') => Ok(Ast::Class {
                negated: false,
                ranges: vec![('0', '9')],
            }),
            Some('w') => Ok(Ast::Class {
                negated: false,
                ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
            }),
            Some('s') => Ok(Ast::Class {
                negated: false,
                ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
            }),
            Some(c) => Ok(Ast::Char(c)),
        }
    }

    fn class(&mut self) -> Result<Ast, RegexError> {
        let mut negated = false;
        if self.peek() == Some('^') {
            negated = true;
            self.bump();
        }
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            let c = match self.bump() {
                None => return Err(RegexError::new("unclosed character class")),
                Some(c) => c,
            };
            if c == ']' && !first {
                break;
            }
            first = false;
            let c = if c == '\\' {
                match self.bump() {
                    None => return Err(RegexError::new("trailing backslash in class")),
                    Some('n') => '\n',
                    Some('t') => '\t',
                    Some(other) => other,
                }
            } else {
                c
            };
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.bump(); // consume '-'
                let hi = match self.bump() {
                    None => return Err(RegexError::new("unclosed character class")),
                    Some(h) => h,
                };
                ranges.push(if c <= hi { (c, hi) } else { (hi, c) });
            } else {
                ranges.push((c, c));
            }
        }
        Ok(Ast::Class { negated, ranges })
    }
}
