//! The abstract syntax tree.
//!
//! One tree covers both the *surface* language (pipes, redirections,
//! `&&`, `fn` — everything [`crate::lower`] removes) and the *core*
//! language the evaluator executes (calls, lambdas, assignments,
//! bindings, matches). The evaluator rejects surface nodes, which
//! keeps the sugar→core boundary honest.

use std::borrow::Cow;
use std::rc::Rc;

/// One quoting segment of a word: `quoted` text contributes no live
/// glob metacharacters and never triggers expansion.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Seg {
    /// The literal text.
    pub text: String,
    /// True if the segment came from inside `'...'`.
    pub quoted: bool,
}

/// A (possibly partially quoted) word.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Word {
    /// The quoting segments, in order.
    pub segs: Vec<Seg>,
}

impl Word {
    /// An unquoted word.
    pub fn bare(text: impl Into<String>) -> Word {
        Word {
            segs: vec![Seg {
                text: text.into(),
                quoted: false,
            }],
        }
    }

    /// A fully quoted word (no live metacharacters).
    pub fn quoted(text: impl Into<String>) -> Word {
        Word {
            segs: vec![Seg {
                text: text.into(),
                quoted: true,
            }],
        }
    }

    /// The flattened text, ignoring quoting. Borrowed for a
    /// one-segment word (every unquoted word); only a word that quoting
    /// split into segments is joined into a new string.
    pub fn text(&self) -> Cow<'_, str> {
        match self.segs.as_slice() {
            [one] => Cow::Borrowed(&one.text),
            segs => Cow::Owned(segs.iter().map(|s| s.text.as_str()).collect()),
        }
    }

    /// True if any unquoted segment contains a glob metacharacter.
    pub fn has_live_glob(&self) -> bool {
        self.segs
            .iter()
            .any(|s| !s.quoted && s.text.contains(['*', '?', '[']))
    }

    /// Segment view for the pattern compiler.
    pub fn seg_refs(&self) -> Vec<(&str, bool)> {
        self.segs.iter().map(|s| (s.text.as_str(), s.quoted)).collect()
    }
}

/// A lambda: `@ params { body }`, a bare `{ body }` fragment, or the
/// right-hand side of a `fn` definition.
///
/// `params: None` is the paper's `@ *` form — no named parameters, the
/// arguments are available only as `$*`. Named parameters bind
/// one-to-one with leftovers going to the last parameter (and `$*`
/// always holds the full argument list).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lambda {
    /// Named parameters, or `None` for `@ *`.
    pub params: Option<Vec<String>>,
    /// The body.
    pub body: Node,
}

/// An expression: evaluates to a *list* of terms (strings/closures).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal word; unquoted metacharacters glob in argument
    /// position.
    Word(Word),
    /// `$x` — variable reference; the target may itself be an
    /// expression (`$$x`, `$(fn-$f)`).
    Var(Box<Expr>),
    /// `$#x` — count of elements.
    VarCount(Box<Expr>),
    /// `$^x` — flatten into one word, space separated.
    VarFlat(Box<Expr>),
    /// `$x(i j)` — subscripts (1-based).
    VarSub(Box<Expr>, Vec<Expr>),
    /// `a^b` and implicit adjacent concatenation (pairwise/cartesian
    /// list distribution, as in rc).
    Concat(Box<Expr>, Box<Expr>),
    /// `(a b c)` — grouping; splices its members.
    List(Vec<Expr>),
    /// `@ params { body }` or `{ body }`.
    Lambda(Rc<Lambda>),
    /// `$&name` — an unoverridable primitive.
    Prim(String),
    /// `<>{cmd}` — the command's rich return value.
    CmdSub(Box<Node>),
    /// `` `{cmd} `` — surface form; lowered to
    /// `<>{%backquote {cmd}}`.
    Backquote(Box<Node>),
    /// `%closure(a=b;...)@ params {body}` — the unparsed-closure
    /// literal used when functions travel through the environment.
    ClosureLit {
        /// Captured bindings: name → value expressions.
        bindings: Vec<(String, Vec<Expr>)>,
        /// The code.
        lambda: Rc<Lambda>,
    },
}

/// A redirection as parsed (surface only).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Redirect {
    /// `>[fd] file` — `%create fd file {cmd}`.
    Create(u32, Expr),
    /// `>>[fd] file` — `%append fd file {cmd}`.
    Append(u32, Expr),
    /// `<[fd] file` — `%open fd file {cmd}`.
    Open(u32, Expr),
    /// `>[a=b]` — `%dup a b {cmd}`.
    Dup(u32, u32),
    /// `>[a=]` — `%close a {cmd}`.
    Close(u32),
    /// `<<[fd] tag ... tag` — here document: `%here fd text {cmd}`.
    Here(u32, String),
}

/// A command node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// Core: evaluate the expressions to one list and apply it as a
    /// command (head closure/function/program, rest arguments).
    Call(Vec<Expr>),
    /// Core: `lhs = values`. The left side evaluates to one or more
    /// variable names (paired against the value list like parameters).
    Assign(Expr, Vec<Expr>),
    /// Core: `let (n = v; ...) body` — lexical bindings.
    Let(Vec<(Expr, Vec<Expr>)>, Box<Node>),
    /// Core: `local (n = v; ...) body` — dynamic bindings.
    Local(Vec<(Expr, Vec<Expr>)>, Box<Node>),
    /// Core: `for (n = list; ...) body` — parallel iteration.
    For(Vec<(Expr, Vec<Expr>)>, Box<Node>),
    /// Core: `~ subject patterns` — wildcard match (patterns do not
    /// glob against the filesystem).
    Match(Expr, Vec<Expr>),
    /// Core: a sequence of commands; value of the last one. Lowering
    /// rewrites *surface* sequences to `%seq` calls, but the body of
    /// every lambda keeps one top-level Seq so `%seq` spoofing cannot
    /// turn the whole interpreter inside out.
    Seq(Vec<Node>),

    // ----- surface-only nodes, removed by lower() -------------------------

    /// `a | b | c` with fd designators: segments joined by
    /// `(out, in)` pairs. Lowered to one variadic `%pipe` call.
    Pipe(Vec<Node>, Vec<(u32, u32)>),
    /// A command with redirections hanging off it.
    Redir(Vec<Redirect>, Box<Node>),
    /// `a && b [&& c ...]` — `%and {a} {b} ...`.
    AndAnd(Vec<Node>),
    /// `a || b [|| c ...]` — `%or {a} {b} ...`.
    OrOr(Vec<Node>),
    /// `! cmd` — `%not {cmd}`.
    Bang(Box<Node>),
    /// `cmd &` — `%background {cmd}`.
    Background(Box<Node>),
    /// `fn name params { body }` — `fn-name = @ params { body }`;
    /// `fn name` (no body) — `fn-name = ()`.
    FnDef(Expr, Option<Rc<Lambda>>),
    /// Surface `a ; b` sequencing — `%seq {a} {b}`.
    SurfaceSeq(Vec<Node>),
}

impl Node {
    /// The empty program (value: true).
    pub fn empty() -> Node {
        Node::Seq(Vec::new())
    }
}
