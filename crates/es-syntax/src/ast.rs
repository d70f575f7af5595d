//! The abstract syntax tree.
//!
//! One tree covers both the *surface* language (pipes, redirections,
//! `&&`, `fn` — everything [`crate::lower()`] removes) and the *core*
//! language the evaluator executes (calls, lambdas, assignments,
//! bindings, matches). The evaluator rejects surface nodes, which
//! keeps the sugar→core boundary honest.

use std::rc::Rc;

/// The symbol of a word that names nothing, or of a tree lowered
/// without an interner (see [`crate::lower::lower_with`]).
pub(crate) const NO_SYM: u32 = u32::MAX;

/// A (possibly partially quoted) word: its text, and the byte ranges
/// of that text that came from inside `'...'`. Quoted text contributes
/// no live glob metacharacters and never triggers expansion.
///
/// The ranges are sorted and never touch one another (a quote right
/// after a closing quote is a literal `''`, so two quoted runs cannot
/// meet). An empty range marks a `''`. A word has one allocation, its
/// string: an unquoted word has no ranges, and a word with one quoted
/// run keeps it inline.
///
/// A word in a name position also carries the symbols its interpreter
/// resolves, given by [`crate::lower::lower_with`]: see [`Word::sym`]
/// and [`Word::prefixed_sym`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Word {
    pub(crate) text: String,
    pub(crate) quoted: Quoted,
    pub(crate) sym: u32,
    pub(crate) pre: u32,
}

impl Default for Word {
    fn default() -> Word {
        Word {
            text: String::new(),
            quoted: Quoted::None,
            sym: NO_SYM,
            pre: NO_SYM,
        }
    }
}

/// The quoted byte ranges of a [`Word`], in order. Nearly every quoted
/// word has one, so one is kept inline; only a word with two or more
/// quoted runs (`'a'b'c'`) allocates a `Vec`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub(crate) enum Quoted {
    #[default]
    None,
    One((u32, u32)),
    Many(Vec<(u32, u32)>),
}

impl Quoted {
    fn as_slice(&self) -> &[(u32, u32)] {
        match self {
            Quoted::None => &[],
            Quoted::One(r) => std::slice::from_ref(r),
            Quoted::Many(v) => v,
        }
    }

    /// Appends a range after every range held.
    pub(crate) fn push(&mut self, r: (u32, u32)) {
        match self {
            Quoted::None => *self = Quoted::One(r),
            Quoted::One(first) => *self = Quoted::Many(vec![*first, r]),
            Quoted::Many(v) => v.push(r),
        }
    }
}

impl Word {
    /// An unquoted word.
    pub fn bare(text: impl Into<String>) -> Word {
        Word {
            text: text.into(),
            ..Word::default()
        }
    }

    /// A fully quoted word (no live metacharacters).
    pub fn quoted(text: impl Into<String>) -> Word {
        let text = text.into();
        let len = u32::try_from(text.len()).expect("a word is shorter than 4 GiB");
        let quoted = Quoted::One((0, len));
        Word {
            text,
            quoted,
            ..Word::default()
        }
    }

    /// The text, ignoring quoting.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The text, moved out.
    pub fn into_text(self) -> String {
        self.text
    }

    /// The symbol of the text, where the word names a variable: a
    /// `$`-reference's target, an assigned name, a `let`, `local` or
    /// `for` name, or a lambda parameter. `None` anywhere else, or if
    /// the tree was lowered without an interner.
    pub fn sym(&self) -> Option<u32> {
        (self.sym != NO_SYM).then_some(self.sym)
    }

    /// The symbol of the text behind the prefix its position implies:
    /// `fn-` for the literal head of a call (one with no live glob),
    /// `set-` for an assigned name or a `local` name. `None` anywhere
    /// else, or if the tree was lowered without an interner.
    pub fn prefixed_sym(&self) -> Option<u32> {
        (self.pre != NO_SYM).then_some(self.pre)
    }

    /// True if no part of the word was quoted.
    pub fn is_bare(&self) -> bool {
        self.quoted == Quoted::None
    }

    /// The quoting segments in order, as `(text, quoted)`: the runs
    /// between quoted ranges (never empty) and every quoted range
    /// (empty for `''`).
    pub fn segments(&self) -> impl Iterator<Item = (&str, bool)> {
        let text = self.text.as_str();
        let ranges = self.quoted.as_slice();
        let tail = ranges.last().map_or(0, |&(_, b)| b as usize);
        let mut at = 0;
        ranges
            .iter()
            .flat_map(move |&(a, b)| {
                let (a, b) = (a as usize, b as usize);
                let plain = (a > at).then(|| (&text[at..a], false));
                at = b;
                plain
                    .into_iter()
                    .chain(std::iter::once((&text[a..b], true)))
            })
            .chain((tail < text.len()).then(|| (&text[tail..], false)))
    }

    /// True if any unquoted segment contains a glob metacharacter.
    pub fn has_live_glob(&self) -> bool {
        self.segments()
            .any(|(text, quoted)| !quoted && text.contains(['*', '?', '[']))
    }

    /// Segment view for the pattern compiler.
    pub fn seg_refs(&self) -> Vec<(&str, bool)> {
        self.segments().collect()
    }

    /// The byte offset where the first quoted range starts, if any.
    pub(crate) fn quoted_start(&self) -> Option<usize> {
        self.quoted.as_slice().first().map(|&(a, _)| a as usize)
    }

    /// Splits the word at byte `at`, which must not fall inside a
    /// quoted range: `self` keeps the text before it, and the rest is
    /// returned with its quoted ranges.
    pub(crate) fn split_off(&mut self, at: usize) -> Word {
        let mut rest = Word::bare(self.text.split_off(at));
        let at = at as u32;
        for &(a, b) in std::mem::take(&mut self.quoted).as_slice() {
            if a < at {
                self.quoted.push((a, b));
            } else {
                rest.quoted.push((a - at, b - at));
            }
        }
        rest
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
    pub params: Option<Vec<Word>>,
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
