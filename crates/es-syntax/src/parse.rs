//! Recursive-descent parser: tokens → surface AST.
//!
//! Precedence, loosest to tightest:
//!
//! ```text
//! seq:        cmd ; cmd \n cmd &
//! andor:      pipeline && pipeline || pipeline
//! pipeline:   unit | unit
//! unit:       ! unit  |  command-with-redirections
//! command:    assignment | fn | for | let | local | ~ match | simple
//! expr:       atom ^ atom (and implicit adjacency concatenation)
//! ```

use crate::ast::{Expr, Lambda, Node, Redirect, Word};
use crate::lex::{self, RedirOp, Tok, Token};
use std::fmt;
use std::rc::Rc;

/// A parse error; `incomplete` signals that more input could complete
/// the command (the REPL's `%parse` keeps reading in that case, which
/// is how multi-line commands work in Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub msg: String,
    /// More input could fix this (unterminated brace/quote).
    pub incomplete: bool,
    /// Byte offset.
    pub pos: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a whole program (a sequence of commands). The result is a
/// *surface* tree; run [`crate::lower()`] before evaluating.
pub fn parse_program(src: &str) -> Result<Node, ParseError> {
    let toks = lex::tokens(src).map_err(|e| ParseError {
        msg: e.msg,
        incomplete: e.incomplete,
        pos: e.pos,
    })?;
    let mut p = Parser { toks, i: 0 };
    let body = p.seq(&[Tok::Eof])?;
    p.expect(Tok::Eof)?;
    Ok(body)
}

struct Parser {
    toks: Vec<Token>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn peek_tok(&self) -> &Token {
        &self.toks[self.i]
    }

    /// Consumes the current token and returns it. The parser only
    /// moves forward (its one lookahead is `i + 1`), so the token is
    /// moved out rather than cloned; the last token, `Eof`, stays put.
    fn bump(&mut self) -> Token {
        if self.i + 1 == self.toks.len() {
            return self.toks[self.i].clone();
        }
        let t = &mut self.toks[self.i];
        let taken = Token {
            tok: std::mem::replace(&mut t.tok, Tok::Eof),
            space_before: t.space_before,
            pos: t.pos,
        };
        self.i += 1;
        taken
    }

    /// Consumes the current token, which the caller has just seen is a
    /// word, and returns it.
    fn bump_word(&mut self) -> Word {
        match self.bump().tok {
            Tok::Word(w) => w,
            other => unreachable!("bump_word on {other}"),
        }
    }

    fn pos(&self) -> usize {
        self.toks[self.i].pos
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let at_eof = matches!(self.peek(), Tok::Eof);
        Err(ParseError {
            msg: msg.into(),
            incomplete: at_eof,
            pos: self.pos(),
        })
    }

    fn expect(&mut self, want: Tok) -> Result<Token, ParseError> {
        if std::mem::discriminant(self.peek()) == std::mem::discriminant(&want) {
            Ok(self.bump())
        } else {
            self.err(format!("expected {}, found {}", want, self.peek()))
        }
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Tok::Newline) {
            self.bump();
        }
    }

    fn skip_seps(&mut self) {
        while matches!(self.peek(), Tok::Newline | Tok::Semi) {
            self.bump();
        }
    }

    // ----- sequences ----------------------------------------------------------

    /// Parses commands until one of `stop` (not consumed). `;` and
    /// newline separate; a trailing `&` backgrounds the preceding
    /// command.
    fn seq(&mut self, stop: &[Tok]) -> Result<Node, ParseError> {
        // The latest command stays out of `cmds`, so a one-command body
        // (most braces) allocates no vector.
        let mut last = None;
        let mut cmds = Vec::new();
        loop {
            self.skip_seps();
            if stop
                .iter()
                .any(|s| std::mem::discriminant(self.peek()) == std::mem::discriminant(s))
            {
                break;
            }
            let mut cmd = self.andor()?;
            if matches!(self.peek(), Tok::Amp) {
                self.bump();
                cmd = Node::Background(Box::new(cmd));
            }
            if let Some(prev) = last.replace(cmd) {
                cmds.push(prev);
            }
            match self.peek() {
                Tok::Semi | Tok::Newline => continue,
                _ => break,
            }
        }
        Ok(match last {
            None => Node::empty(),
            Some(only) if cmds.is_empty() => only,
            Some(last) => {
                cmds.push(last);
                Node::SurfaceSeq(cmds)
            }
        })
    }

    fn andor(&mut self) -> Result<Node, ParseError> {
        let first = self.pipeline()?;
        match self.peek() {
            Tok::AndAnd => {
                let mut parts = vec![first];
                while matches!(self.peek(), Tok::AndAnd) {
                    self.bump();
                    self.skip_newlines();
                    parts.push(self.pipeline()?);
                }
                // Mixed chains (a && b || c) associate left by nesting.
                if matches!(self.peek(), Tok::OrOr) {
                    let lhs = Node::AndAnd(parts);
                    let mut or_parts = vec![lhs];
                    while matches!(self.peek(), Tok::OrOr) {
                        self.bump();
                        self.skip_newlines();
                        or_parts.push(self.pipeline()?);
                    }
                    return Ok(Node::OrOr(or_parts));
                }
                Ok(Node::AndAnd(parts))
            }
            Tok::OrOr => {
                let mut parts = vec![first];
                while matches!(self.peek(), Tok::OrOr) {
                    self.bump();
                    self.skip_newlines();
                    parts.push(self.pipeline()?);
                }
                if matches!(self.peek(), Tok::AndAnd) {
                    let lhs = Node::OrOr(parts);
                    let mut and_parts = vec![lhs];
                    while matches!(self.peek(), Tok::AndAnd) {
                        self.bump();
                        self.skip_newlines();
                        and_parts.push(self.pipeline()?);
                    }
                    return Ok(Node::AndAnd(and_parts));
                }
                Ok(Node::OrOr(parts))
            }
            _ => Ok(first),
        }
    }

    fn pipeline(&mut self) -> Result<Node, ParseError> {
        let first = self.unit()?;
        if !matches!(self.peek(), Tok::Pipe(..)) {
            return Ok(first);
        }
        let mut segments = vec![first];
        let mut fds = Vec::new();
        while let Tok::Pipe(out, inp) = *self.peek() {
            self.bump();
            self.skip_newlines();
            fds.push((out, inp));
            segments.push(self.unit()?);
        }
        Ok(Node::Pipe(segments, fds))
    }

    fn unit(&mut self) -> Result<Node, ParseError> {
        if matches!(self.peek(), Tok::Bang) {
            self.bump();
            let inner = self.unit()?;
            return Ok(Node::Bang(Box::new(inner)));
        }
        self.command()
    }

    // ----- commands -----------------------------------------------------------

    fn command(&mut self) -> Result<Node, ParseError> {
        // Keywords are unquoted words at command start.
        if let Tok::Word(w) = self.peek() {
            if w.is_bare() {
                match w.text() {
                    "fn" => return self.fn_def(),
                    "for" => return self.binding_form(BindKind::For),
                    "let" => return self.binding_form(BindKind::Let),
                    "local" => return self.binding_form(BindKind::Local),
                    _ => {}
                }
            }
        }
        if matches!(self.peek(), Tok::Tilde) {
            self.bump();
            let subject = self.expr()?;
            let mut patterns = Vec::new();
            while self.starts_expr() {
                patterns.push(self.expr()?);
            }
            return Ok(Node::Match(subject, patterns));
        }
        self.simple()
    }

    fn fn_def(&mut self) -> Result<Node, ParseError> {
        self.bump(); // `fn`
        if !self.starts_expr() {
            return self.err("expected function name after fn");
        }
        let name = self.expr()?;
        let mut params = Vec::new();
        loop {
            match self.peek() {
                Tok::Word(_) => params.push(Word::bare(self.bump_word().into_text())),
                Tok::LBrace => {
                    self.bump();
                    let body = self.seq(&[Tok::RBrace])?;
                    self.expect(Tok::RBrace)?;
                    // `fn f {body}` is `@ * {body}`: the arguments
                    // bind to `$*` (unlike a bare `{body}` thunk).
                    let lambda = Lambda {
                        params: if params.is_empty() {
                            Some(vec![Word::bare("*")])
                        } else {
                            Some(params)
                        },
                        body,
                    };
                    return Ok(Node::FnDef(name, Some(Rc::new(lambda))));
                }
                _ => {
                    if params.is_empty() {
                        // `fn name` alone: undefine.
                        return Ok(Node::FnDef(name, None));
                    }
                    return self.err("expected { after fn parameters");
                }
            }
        }
    }

    fn binding_form(&mut self, kind: BindKind) -> Result<Node, ParseError> {
        self.bump(); // keyword
        self.expect(Tok::LParen)?;
        let mut bindings = Vec::new();
        loop {
            self.skip_seps();
            if matches!(self.peek(), Tok::RParen) {
                self.bump();
                break;
            }
            let name = self.expr()?;
            self.expect(Tok::Eq)?;
            let mut values = Vec::new();
            while self.starts_expr() {
                values.push(self.expr()?);
            }
            bindings.push((name, values));
            match self.peek() {
                Tok::Semi | Tok::Newline => continue,
                Tok::RParen => {
                    self.bump();
                    break;
                }
                _ => return self.err("expected ; or ) in binding list"),
            }
        }
        self.skip_newlines();
        let body = if self.starts_command() {
            self.andor()?
        } else {
            Node::Seq(Vec::new())
        };
        Ok(match kind {
            BindKind::Let => Node::Let(bindings, Box::new(body)),
            BindKind::Local => Node::Local(bindings, Box::new(body)),
            BindKind::For => Node::For(bindings, Box::new(body)),
        })
    }

    /// A simple command: interleaved words and redirections; an `=`
    /// after the first word turns it into an assignment.
    fn simple(&mut self) -> Result<Node, ParseError> {
        let mut redirs: Vec<Redirect> = Vec::new();
        let mut words: Vec<Expr> = Vec::new();
        // Leading redirections.
        while let Tok::Redir(_) = self.peek() {
            redirs.push(self.redirect()?);
        }
        if !self.starts_expr() {
            if redirs.is_empty() {
                return self.err(format!("unexpected {}", self.peek()));
            }
            return Ok(Node::Redir(redirs, Box::new(Node::Seq(Vec::new()))));
        }
        let first = self.expr()?;
        // Assignment?
        if matches!(self.peek(), Tok::Eq) {
            self.bump();
            let mut values = Vec::new();
            loop {
                if self.starts_expr() {
                    values.push(self.expr()?);
                } else if matches!(self.peek(), Tok::Eq) {
                    // Allow literal `=` inside values (e.g. watch's
                    // `echo old $var '=' ...` keeps it quoted, but a
                    // stray `=` in a value list is a user error).
                    return self.err("unexpected `=` in assignment values");
                } else {
                    break;
                }
            }
            let node = Node::Assign(first, values);
            return if redirs.is_empty() {
                Ok(node)
            } else {
                Ok(Node::Redir(redirs, Box::new(node)))
            };
        }
        words.push(first);
        loop {
            if self.starts_expr() {
                words.push(self.expr()?);
            } else if let Tok::Redir(_) = self.peek() {
                redirs.push(self.redirect()?);
            } else {
                break;
            }
        }
        let call = Node::Call(words);
        if redirs.is_empty() {
            Ok(call)
        } else {
            Ok(Node::Redir(redirs, Box::new(call)))
        }
    }

    fn redirect(&mut self) -> Result<Redirect, ParseError> {
        let op = match self.bump().tok {
            Tok::Redir(op) => op,
            other => return self.err(format!("expected redirection, found {other}")),
        };
        Ok(match op {
            RedirOp::Create(fd) => Redirect::Create(fd, self.redir_target()?),
            RedirOp::Append(fd) => Redirect::Append(fd, self.redir_target()?),
            RedirOp::Open(fd) => Redirect::Open(fd, self.redir_target()?),
            RedirOp::Dup(a, b) => Redirect::Dup(a, b),
            RedirOp::CloseFd(fd) => Redirect::Close(fd),
            RedirOp::Here(fd) => {
                // Simplified here document: the body is the (usually
                // quoted) word that follows.
                let word = self.expr()?;
                match word {
                    Expr::Word(w) => Redirect::Here(fd, w.into_text()),
                    _ => return self.err("here document body must be a word"),
                }
            }
        })
    }

    fn redir_target(&mut self) -> Result<Expr, ParseError> {
        if !self.starts_expr() {
            return self.err("expected file name after redirection");
        }
        self.expr()
    }

    fn starts_command(&self) -> bool {
        self.starts_expr() || matches!(self.peek(), Tok::Bang | Tok::Tilde | Tok::Redir(_))
    }

    // ----- expressions ----------------------------------------------------------

    fn starts_expr(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Word(_)
                | Tok::Dollar
                | Tok::DollarCount
                | Tok::DollarFlat
                | Tok::Prim(_)
                | Tok::LParen
                | Tok::LBrace
                | Tok::At
                | Tok::Backquote
                | Tok::CmdSub
        )
    }

    /// An expression: atoms joined by `^` or adjacency.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.atom()?;
        loop {
            if matches!(self.peek(), Tok::Caret) {
                self.bump();
                let rhs = self.atom()?;
                e = Expr::Concat(Box::new(e), Box::new(rhs));
            } else if self.starts_expr() && !self.peek_tok().space_before {
                // Implicit concatenation (`$x.c`, `fn-$func`).
                let rhs = self.atom()?;
                e = Expr::Concat(Box::new(e), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Word(w) => {
                // `%closure(...)@ params {body}` — the unparsed-closure
                // literal (environment decoding and `whatis` output).
                if w.is_bare()
                    && w.text() == "%closure"
                    && matches!(self.toks.get(self.i + 1).map(|t| &t.tok), Some(Tok::LParen))
                    && !self.toks[self.i + 1].space_before
                {
                    return self.closure_lit();
                }
                Ok(Expr::Word(self.bump_word()))
            }
            Tok::Dollar => {
                self.bump();
                let target = self.var_target()?;
                // Immediate parenthesis = subscript.
                if matches!(self.peek(), Tok::LParen) && !self.peek_tok().space_before {
                    // ...unless the target itself was parenthesised
                    // (then the parens were consumed by var_target).
                    self.bump();
                    let mut subs = Vec::new();
                    self.skip_newlines();
                    while self.starts_expr() {
                        subs.push(self.expr()?);
                        self.skip_newlines();
                    }
                    self.expect(Tok::RParen)?;
                    return Ok(Expr::VarSub(Box::new(Expr::Var(Box::new(target))), subs));
                }
                Ok(Expr::Var(Box::new(target)))
            }
            Tok::DollarCount => {
                self.bump();
                let target = self.var_target()?;
                Ok(Expr::VarCount(Box::new(target)))
            }
            Tok::DollarFlat => {
                self.bump();
                let target = self.var_target()?;
                Ok(Expr::VarFlat(Box::new(target)))
            }
            Tok::Prim(_) => match self.bump().tok {
                Tok::Prim(name) => Ok(Expr::Prim(name)),
                other => unreachable!("prim token became {other}"),
            },
            Tok::LParen => {
                self.bump();
                let mut items = Vec::new();
                self.skip_newlines();
                while self.starts_expr() {
                    items.push(self.expr()?);
                    self.skip_newlines();
                }
                self.expect(Tok::RParen)?;
                Ok(Expr::List(items))
            }
            Tok::LBrace => {
                self.bump();
                let body = self.seq(&[Tok::RBrace])?;
                self.expect(Tok::RBrace)?;
                Ok(Expr::Lambda(Rc::new(Lambda { params: None, body })))
            }
            Tok::At => {
                self.bump();
                let mut params = Vec::new();
                loop {
                    match self.peek() {
                        Tok::Word(_) => params.push(Word::bare(self.bump_word().into_text())),
                        Tok::LBrace => break,
                        _ => return self.err("expected parameter or { after @"),
                    }
                }
                self.expect(Tok::LBrace)?;
                let body = self.seq(&[Tok::RBrace])?;
                self.expect(Tok::RBrace)?;
                // `@ {...}` and `@ * {...}` both bind everything to
                // `$*`; only a bare `{...}` block is a transparent
                // thunk (params: None).
                Ok(Expr::Lambda(Rc::new(Lambda {
                    params: if params.is_empty() {
                        Some(vec![Word::bare("*")])
                    } else {
                        Some(params)
                    },
                    body,
                })))
            }
            Tok::Backquote => {
                self.bump();
                match self.peek() {
                    Tok::LBrace => {
                        self.bump();
                        let body = self.seq(&[Tok::RBrace])?;
                        self.expect(Tok::RBrace)?;
                        Ok(Expr::Backquote(Box::new(body)))
                    }
                    Tok::Word(_) => {
                        let word = Expr::Word(self.bump_word());
                        Ok(Expr::Backquote(Box::new(Node::Call(vec![word]))))
                    }
                    other => self.err(format!("expected {{ or word after `, found {other}")),
                }
            }
            Tok::CmdSub => {
                self.bump();
                self.expect(Tok::LBrace)?;
                let body = self.seq(&[Tok::RBrace])?;
                self.expect(Tok::RBrace)?;
                Ok(Expr::CmdSub(Box::new(body)))
            }
            other => self.err(format!("unexpected {other}")),
        }
    }

    /// Characters allowed in a `$name` reference; everything else ends
    /// the name (so `echo $h, $w` reads variables `h` and `w`, as in
    /// the paper). Composite names use parens: `$(fn-$func)`.
    fn is_var_name_char(c: char) -> bool {
        c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '%' | '*')
    }

    /// If the upcoming word token starts with var-name characters but
    /// continues with others, split it in two so only the name part is
    /// consumed as the variable (the remainder concatenates by
    /// adjacency).
    fn split_var_word(&mut self) {
        let Tok::Word(w) = &mut self.toks[self.i].tok else {
            return;
        };
        // The plain text before the first quoted range; a word that
        // starts with a quote (`$'quoted name'`) names the variable
        // literally.
        let run = w.quoted_start().unwrap_or(w.text().len());
        if run == 0 {
            return;
        }
        // The name ends at the first non-name character, or at the end
        // of the plain run when a quoted range follows (`$x'>'` is
        // `$x ^ '>'`).
        let cut = match w.text()[..run].find(|c| !Self::is_var_name_char(c)) {
            Some(0) => return,
            Some(cut) => cut,
            None if !w.is_bare() => run,
            None => return,
        };
        let rest = w.split_off(cut);
        let pos = self.toks[self.i].pos + cut;
        self.toks.insert(
            self.i + 1,
            Token {
                tok: Tok::Word(rest),
                space_before: false,
                pos,
            },
        );
    }

    /// The target of a `$`-reference: a word, a parenthesised
    /// expression list, or another `$`-reference (`$$x`).
    fn var_target(&mut self) -> Result<Expr, ParseError> {
        self.split_var_word();
        match self.peek() {
            Tok::Word(_) => {
                // Composite names need parens (`$(fn-$func)`);
                // `$a$b` is handled by the adjacency rule in expr()
                // as `$a ^ $b`, like rc.
                Ok(Expr::Word(self.bump_word()))
            }
            Tok::LParen => {
                self.bump();
                let mut items = Vec::new();
                self.skip_newlines();
                while self.starts_expr() {
                    items.push(self.expr()?);
                    self.skip_newlines();
                }
                self.expect(Tok::RParen)?;
                Ok(Expr::List(items))
            }
            Tok::Dollar => {
                self.bump();
                let inner = self.var_target()?;
                Ok(Expr::Var(Box::new(inner)))
            }
            other => self.err(format!("expected variable name after $, found {other}")),
        }
    }

    /// `%closure(name=value;...)@ params {body}`.
    fn closure_lit(&mut self) -> Result<Expr, ParseError> {
        self.bump(); // %closure
        self.expect(Tok::LParen)?;
        let mut bindings = Vec::new();
        loop {
            self.skip_seps();
            if matches!(self.peek(), Tok::RParen) {
                self.bump();
                break;
            }
            let name = match self.peek() {
                Tok::Word(_) => self.bump_word().into_text(),
                other => return self.err(format!("expected binding name, found {other}")),
            };
            self.expect(Tok::Eq)?;
            let mut values = Vec::new();
            while self.starts_expr() {
                values.push(self.expr()?);
            }
            bindings.push((name, values));
            match self.peek() {
                Tok::Semi | Tok::Newline => continue,
                Tok::RParen => {
                    self.bump();
                    break;
                }
                _ => return self.err("expected ; or ) in closure bindings"),
            }
        }
        // The code part: either `@ params {body}` or a bare `{body}`.
        let lambda = match self.atom()? {
            Expr::Lambda(l) => l,
            _ => return self.err("expected lambda after %closure(...)"),
        };
        Ok(Expr::ClosureLit { bindings, lambda })
    }
}

enum BindKind {
    Let,
    Local,
    For,
}
