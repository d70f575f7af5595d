//! The lexer: rc-style quoting, shell operators, adjacency tracking.
//!
//! Notable rules inherited from rc/es:
//!
//! * `'...'` quotes everything; a doubled `''` inside is a literal
//!   quote. There are no double quotes and backslash is not an escape:
//!   a `\` is an ordinary word character, except that `\` + newline is
//!   a continuation (it ends a word and reads as a space).
//! * `#` starts a comment to end of line.
//! * `=` is special (so `x=foo` lexes as three tokens, which is how
//!   the paper can write `es> x=foo bar`).
//! * Adjacency matters: `$x.c` is an implicit concatenation, so every
//!   token records whether whitespace preceded it.
//! * `~ ! @` are operators when they begin a token (`!cmd`, `!~`);
//!   mid-word they are ordinary characters (`a~b` is one word).
//!
//! The lexer scans bytes. Every special character is ASCII, so a run
//! of word bytes always ends on a char boundary, and the bytes of a
//! non-ASCII char (all `>= 0x80`) are word bytes. Each run of a word,
//! quoted or not, is copied into the word's one string with a single
//! `push_str` of the source slice, and token positions are byte
//! offsets.

use crate::ast::Word;
use std::fmt;

/// A redirection operator token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirOp {
    /// `>[fd]`
    Create(u32),
    /// `>>[fd]`
    Append(u32),
    /// `<[fd]`
    Open(u32),
    /// `>[a=b]`
    Dup(u32, u32),
    /// `>[a=]`
    CloseFd(u32),
    /// `<<[fd]` heredoc
    Here(u32),
}

/// One token.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// A word, as the tree holds it.
    Word(Word),
    /// `$`
    Dollar,
    /// `$#`
    DollarCount,
    /// `$^`
    DollarFlat,
    /// `$&name`
    Prim(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// newline
    Newline,
    /// `&`
    Amp,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `|[out=in]` (defaults 1=0)
    Pipe(u32, u32),
    /// `!`
    Bang,
    /// `~`
    Tilde,
    /// `@`
    At,
    /// `=`
    Eq,
    /// `^`
    Caret,
    /// `` ` ``
    Backquote,
    /// `<>` (immediately before `{`)
    CmdSub,
    /// A redirection operator.
    Redir(RedirOp),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Word(w) => write!(f, "word `{}`", w.text()),
            Tok::Dollar => write!(f, "`$`"),
            Tok::DollarCount => write!(f, "`$#`"),
            Tok::DollarFlat => write!(f, "`$^`"),
            Tok::Prim(n) => write!(f, "`$&{n}`"),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Newline => write!(f, "newline"),
            Tok::Amp => write!(f, "`&`"),
            Tok::AndAnd => write!(f, "`&&`"),
            Tok::OrOr => write!(f, "`||`"),
            Tok::Pipe(..) => write!(f, "`|`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::Tilde => write!(f, "`~`"),
            Tok::At => write!(f, "`@`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Caret => write!(f, "`^`"),
            Tok::Backquote => write!(f, "backquote"),
            Tok::CmdSub => write!(f, "`<>`"),
            Tok::Redir(_) => write!(f, "redirection"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token plus layout information.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token.
    pub tok: Tok,
    /// Whitespace (or line start) immediately before it?
    pub space_before: bool,
    /// Byte offset in the source (for error messages).
    pub pos: usize,
}

/// Lexer error (always a quoting problem; everything else is a word).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub msg: String,
    /// True if more input could fix it (unterminated quote).
    pub incomplete: bool,
    /// Byte offset in the source where the bad construct starts: the
    /// opening quote of an unterminated quote, the operator of a bad
    /// fd designator, the `$&` of a missing primitive name.
    pub pos: usize,
}

/// How a byte reads in a word.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Part of a plain word: every byte `>= 0x80` too, and `\r`, which
    /// reads as space only where a token would start.
    Word,
    /// Ends a word: whitespace, operators, quotes, comments.
    Special,
    /// `~ ! @`: an operator at the start of a token, a word byte inside
    /// a word.
    Inner,
    /// `\`: a word byte, unless a newline follows (a continuation).
    Backslash,
}

/// The class of each byte.
static CLASS: [Class; 256] = {
    let mut t = [Class::Word; 256];
    let special = b" \t\n#;&|^$=`'{}()<>";
    let mut i = 0;
    while i < special.len() {
        t[special[i] as usize] = Class::Special;
        i += 1;
    }
    t[b'~' as usize] = Class::Inner;
    t[b'!' as usize] = Class::Inner;
    t[b'@' as usize] = Class::Inner;
    t[b'\\' as usize] = Class::Backslash;
    t
};

/// True if `b[i]` can start a plain word run: a word byte, or a `\`
/// that does not begin a continuation.
fn starts_word(b: &[u8], i: usize) -> bool {
    match b.get(i).map(|&c| CLASS[c as usize]) {
        Some(Class::Word) => true,
        Some(Class::Backslash) => b.get(i + 1) != Some(&b'\n'),
        _ => false,
    }
}

/// The end of the plain run starting at `b[i]`: word bytes, `~ ! @`,
/// and `\` not followed by a newline.
fn word_run(b: &[u8], mut i: usize) -> usize {
    while let Some(&c) = b.get(i) {
        match CLASS[c as usize] {
            Class::Word | Class::Inner => i += 1,
            Class::Backslash if b.get(i + 1) != Some(&b'\n') => i += 1,
            _ => break,
        }
    }
    i
}

/// Splits `src` into tokens.
pub fn tokens(src: &str) -> Result<Vec<Token>, LexError> {
    // A word's quoted ranges are `u32` byte offsets.
    if u32::try_from(src.len()).is_err() {
        return Err(LexError {
            msg: "input longer than 4 GiB".into(),
            incomplete: false,
            pos: 0,
        });
    }
    let b = src.as_bytes();
    // A token and its spacing take 2 to 6 bytes of a typical line, so
    // this holds most lines' tokens in one allocation.
    let mut out = Vec::with_capacity(b.len() / 3 + 2);
    let mut i = 0usize;
    let mut space = true;
    while i < b.len() {
        let c = b[i];
        // Whitespace and comments.
        if c == b' ' || c == b'\t' || c == b'\r' {
            i += 1;
            space = true;
            continue;
        }
        if c == b'\\' && b.get(i + 1) == Some(&b'\n') {
            i += 2;
            space = true;
            continue;
        }
        if c == b'#' {
            i = b[i..]
                .iter()
                .position(|&c| c == b'\n')
                .map_or(b.len(), |n| i + n);
            continue;
        }
        let pos = i;
        let push = |out: &mut Vec<Token>, tok: Tok, space: bool| {
            out.push(Token {
                tok,
                space_before: space,
                pos,
            });
        };
        let next = b.get(i + 1).copied();
        match c {
            b'\n' => {
                push(&mut out, Tok::Newline, space);
                i += 1;
                space = true;
                continue;
            }
            b';' => {
                push(&mut out, Tok::Semi, space);
                i += 1;
            }
            b'(' => {
                push(&mut out, Tok::LParen, space);
                i += 1;
            }
            b')' => {
                push(&mut out, Tok::RParen, space);
                i += 1;
            }
            b'{' => {
                push(&mut out, Tok::LBrace, space);
                i += 1;
            }
            b'}' => {
                push(&mut out, Tok::RBrace, space);
                i += 1;
            }
            b'=' => {
                // A single `=` is the assignment operator; runs like
                // `===` are ordinary words (banner lines in scripts).
                if next == Some(b'=') {
                    let end = b[i..]
                        .iter()
                        .position(|&c| c != b'=')
                        .map_or(b.len(), |n| i + n);
                    push(&mut out, Tok::Word(Word::bare(&src[i..end])), space);
                    i = end;
                } else {
                    push(&mut out, Tok::Eq, space);
                    i += 1;
                }
            }
            b'^' => {
                push(&mut out, Tok::Caret, space);
                i += 1;
            }
            b'`' => {
                push(&mut out, Tok::Backquote, space);
                i += 1;
            }
            b'&' => {
                if next == Some(b'&') {
                    push(&mut out, Tok::AndAnd, space);
                    i += 2;
                } else {
                    push(&mut out, Tok::Amp, space);
                    i += 1;
                }
            }
            b'|' => {
                if next == Some(b'|') {
                    push(&mut out, Tok::OrOr, space);
                    i += 2;
                } else if next == Some(b'[') {
                    let (nums, end) = bracket_numbers(src, i, i + 1)?;
                    let (a, b) = match nums {
                        Bracket::One(n) => (n, 0),
                        Bracket::Two(a, b) => (a, b),
                        Bracket::CloseMark(_) => {
                            return Err(LexError {
                                msg: "bad pipe fd designator".into(),
                                incomplete: false,
                                pos: i,
                            })
                        }
                    };
                    push(&mut out, Tok::Pipe(a, b), space);
                    i = end;
                } else {
                    push(&mut out, Tok::Pipe(1, 0), space);
                    i += 1;
                }
            }
            b'$' => match next {
                Some(b'#') => {
                    push(&mut out, Tok::DollarCount, space);
                    i += 2;
                }
                Some(b'^') => {
                    push(&mut out, Tok::DollarFlat, space);
                    i += 2;
                }
                Some(b'&') => {
                    let mut end = i + 2;
                    while starts_word(b, end) {
                        end += 1;
                    }
                    if end == i + 2 {
                        return Err(LexError {
                            msg: "missing primitive name after $&".into(),
                            incomplete: false,
                            pos: i,
                        });
                    }
                    push(&mut out, Tok::Prim(src[i + 2..end].to_string()), space);
                    i = end;
                }
                _ => {
                    push(&mut out, Tok::Dollar, space);
                    i += 1;
                }
            },
            b'<' => {
                if next == Some(b'>') {
                    push(&mut out, Tok::CmdSub, space);
                    i += 2;
                } else if next == Some(b'<') {
                    if b.get(i + 2) == Some(&b'[') {
                        let (nums, end) = bracket_numbers(src, i, i + 2)?;
                        let fd = bracket_single(nums, i)?;
                        push(&mut out, Tok::Redir(RedirOp::Here(fd)), space);
                        i = end;
                    } else {
                        push(&mut out, Tok::Redir(RedirOp::Here(0)), space);
                        i += 2;
                    }
                } else if next == Some(b'[') {
                    let (nums, end) = bracket_numbers(src, i, i + 1)?;
                    let fd = bracket_single(nums, i)?;
                    push(&mut out, Tok::Redir(RedirOp::Open(fd)), space);
                    i = end;
                } else {
                    push(&mut out, Tok::Redir(RedirOp::Open(0)), space);
                    i += 1;
                }
            }
            b'>' => {
                if next == Some(b'>') {
                    if b.get(i + 2) == Some(&b'[') {
                        let (nums, end) = bracket_numbers(src, i, i + 2)?;
                        let fd = bracket_single(nums, i)?;
                        push(&mut out, Tok::Redir(RedirOp::Append(fd)), space);
                        i = end;
                    } else {
                        push(&mut out, Tok::Redir(RedirOp::Append(1)), space);
                        i += 2;
                    }
                } else if next == Some(b'[') {
                    let (nums, end) = bracket_numbers(src, i, i + 1)?;
                    let op = match nums {
                        Bracket::One(fd) => RedirOp::Create(fd),
                        Bracket::Two(a, b) => RedirOp::Dup(a, b),
                        Bracket::CloseMark(fd) => RedirOp::CloseFd(fd),
                    };
                    push(&mut out, Tok::Redir(op), space);
                    i = end;
                } else {
                    push(&mut out, Tok::Redir(RedirOp::Create(1)), space);
                    i += 1;
                }
            }
            b'!' | b'@' | b'~' => {
                // Operators whenever they *begin* a token (`!cmd`,
                // `!~`, `~ subj pat`); mid-word they are plain
                // characters (`a~b`). Quote a leading `~` or `!` to
                // get a literal.
                let tok = match c {
                    b'!' => Tok::Bang,
                    b'@' => Tok::At,
                    _ => Tok::Tilde,
                };
                push(&mut out, tok, space);
                i += 1;
            }
            _ => {
                // A word byte, a quote, or a `\` that is not a
                // continuation: each starts a word of at least one byte.
                let (word, end) = lex_word(src, i)?;
                push(&mut out, Tok::Word(word), space);
                i = end;
            }
        }
        space = false;
    }
    out.push(Token {
        tok: Tok::Eof,
        space_before: true,
        pos: b.len(),
    });
    Ok(out)
}

enum Bracket {
    One(u32),
    Two(u32, u32),
    CloseMark(u32),
}

/// Parses `[n]`, `[n=m]` or `[n=]` starting at `src[start] == '['`,
/// the designator of the operator at `src[op]` (where errors point).
fn bracket_numbers(src: &str, op: usize, start: usize) -> Result<(Bracket, usize), LexError> {
    let b = src.as_bytes();
    let digits = |from: usize| {
        b[from..]
            .iter()
            .position(|c| !c.is_ascii_digit())
            .map_or(b.len(), |n| from + n)
    };
    let bad_fd = || LexError {
        msg: "bad fd number".into(),
        incomplete: false,
        pos: op,
    };
    let unterminated = || LexError {
        msg: "unterminated fd designator".into(),
        incomplete: false,
        pos: op,
    };
    let mut i = digits(start + 1);
    let a: u32 = src[start + 1..i].parse().map_err(|_| bad_fd())?;
    match b.get(i) {
        Some(b']') => Ok((Bracket::One(a), i + 1)),
        Some(b'=') => {
            let from = i + 1;
            i = digits(from);
            if b.get(i) != Some(&b']') {
                return Err(unterminated());
            }
            if i == from {
                Ok((Bracket::CloseMark(a), i + 1))
            } else {
                let b: u32 = src[from..i].parse().map_err(|_| bad_fd())?;
                Ok((Bracket::Two(a, b), i + 1))
            }
        }
        _ => Err(unterminated()),
    }
}

fn bracket_single(b: Bracket, op: usize) -> Result<u32, LexError> {
    match b {
        Bracket::One(n) => Ok(n),
        _ => Err(LexError {
            msg: "unexpected `=` in fd designator".into(),
            incomplete: false,
            pos: op,
        }),
    }
}

/// Lexes one word starting at `src[start]`: plain runs and quoted runs,
/// each copied into the word's string with one `push_str`, the quoted
/// ones recorded as byte ranges.
fn lex_word(src: &str, start: usize) -> Result<(Word, usize), LexError> {
    let b = src.as_bytes();
    let mut word = Word::default();
    let mut i = start;
    loop {
        if b.get(i) == Some(&b'\'') {
            let from = word.text.len() as u32;
            let open = i;
            i += 1;
            loop {
                let Some(n) = b[i..].iter().position(|&c| c == b'\'') else {
                    return Err(LexError {
                        msg: "unterminated quote".into(),
                        incomplete: true,
                        pos: open,
                    });
                };
                word.text.push_str(&src[i..i + n]);
                i += n + 1;
                // `''` inside quotes is a literal quote.
                if b.get(i) != Some(&b'\'') {
                    break;
                }
                word.text.push('\'');
                i += 1;
            }
            word.quoted.push((from, word.text.len() as u32));
            // A closing quote is never followed by a quote, and `~ ! @`
            // right after one end the word.
            if !starts_word(b, i) {
                break;
            }
        } else {
            let end = word_run(b, i);
            word.text.push_str(&src[i..end]);
            i = end;
            // A quote directly adjacent to word chars continues the word.
            if b.get(i) != Some(&b'\'') {
                break;
            }
        }
    }
    Ok((word, i))
}
