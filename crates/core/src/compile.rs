//! A bytecode compiler: core AST → compact op sequences.
//!
//! Nothing in the interpreter runs this code: the tree walker in
//! `es-core::eval` is the only evaluator. The module is kept, with its
//! public API, only because the `perfbench` benchmark times and counts
//! it for its `compile.*` calibration rows; it goes once a benchmark
//! change drops those rows.
//!
//! It compiles a [`Node`] into a flat [`Code`] vector, baking in:
//!
//! * **Slot references.** Where the lexical binding structure is
//!   static (closure parameters, `let`/`for` bindings with literal
//!   names), a `$name` reference compiles to [`ArgC::Slot`] — a hop
//!   count into the runtime binding chain — instead of a name search.
//! * **Hook sites.** A call whose head is a literal `%hook` word bound
//!   to a primitive at boot gets a [`HookSite`]. The table of those
//!   hooks, [`HOOK_PRIMS`], lives here: the evaluator has no use for
//!   it, since it resolves every hook through its `fn-%name` binding.
//!
//! Statements it does not specialise (`Assign`, `Match`, and the
//! surface forms that should have been lowered) are carried as
//! [`Op::Node`].

use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use es_syntax::ast::{Expr, Lambda, Node, Word};

/// Hooks bound to bare primitives by `initial.es` at boot: a call
/// whose head is one of these names compiles to a [`HookSite`].
/// `%prompt` is deliberately absent: boot binds it to an (empty)
/// closure, not a primitive.
pub const HOOK_PRIMS: &[(&str, &str)] = &[
    ("%seq", "seq"),
    ("%and", "and"),
    ("%or", "or"),
    ("%not", "not"),
    ("%background", "background"),
    ("%create", "create"),
    ("%open", "open"),
    ("%append", "append"),
    ("%dup", "dup"),
    ("%close", "close"),
    ("%here", "here"),
    ("%pipe", "pipe"),
    ("%backquote", "backquote"),
    ("%pathsearch", "pathsearch"),
    ("%flatten", "flatten"),
    ("%fsplit", "fsplit"),
    ("%split", "split"),
    ("%parse", "parse"),
    ("%cd", "cd"),
    ("%limit", "limit"),
];

/// Cache key for compiled lambdas: pointer identity fast path (the
/// same parse tree shared by `Rc` hits without a deep compare),
/// structural equality slow path (re-parsed identical source reuses
/// the same code).
#[derive(Debug, Clone)]
pub struct LambdaKey(pub Rc<Lambda>);

impl PartialEq for LambdaKey {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for LambdaKey {}

impl Hash for LambdaKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// A compiled argument expression.
#[derive(Debug)]
pub enum ArgC {
    /// A literal word: pre-flattened to its text.
    Word(String),
    /// A word with live glob metacharacters: expanded at runtime
    /// (through the `%glob` hook when one is defined).
    Glob(Word),
    /// `$name` resolved to a lexical slot: the value sits `hops`
    /// binding frames into the environment chain. The name rides
    /// along so the frame can be verified (with a fallback to a
    /// lookup if the chain ever disagrees).
    Slot { hops: usize, name: String },
    /// A lambda literal: closes over the current environment.
    Lambda(Rc<Lambda>),
    /// Anything else: evaluated by the shared tree evaluator.
    Expr { expr: Expr, glob: bool },
}

/// A binding name in `let`/`local`/`for`: literal or computed.
#[derive(Debug)]
pub enum BindName {
    Static(String),
    Dyn(Expr),
}

/// One inline-cached hook call site. `ic` holds the hook generation
/// this site last dispatched directly under (`u64::MAX` = never).
#[derive(Debug)]
pub struct HookSite {
    /// The hook's surface name (`%pipe`), for the slow path.
    pub name: String,
    /// The primitive boot binds it to (`pipe`).
    pub prim: &'static str,
    /// Last generation this site dispatched directly under.
    pub ic: Cell<u64>,
}

/// One compiled statement.
#[derive(Debug)]
pub enum Op {
    /// A command call: charge the governor, evaluate the arguments,
    /// apply. With `hook: Some`, the head word is *not* in `args`;
    /// the site dispatches through the inline cache.
    Call {
        args: Vec<ArgC>,
        hook: Option<HookSite>,
    },
    /// `let (n = v; ...) body` — lexical bindings, tail propagates
    /// into the body.
    Let {
        bindings: Vec<(BindName, Vec<ArgC>)>,
        body: Rc<Code>,
    },
    /// `local (n = v; ...) body` — dynamic bindings via the machine's
    /// dynamics stack; settors fire.
    Local {
        bindings: Vec<(BindName, Vec<ArgC>)>,
        body: Rc<Code>,
    },
    /// `for (n = list; ...) body` — parallel iteration, `break`able,
    /// one governor charge per trip.
    For {
        bindings: Vec<(BindName, Vec<ArgC>)>,
        body: Rc<Code>,
    },
    /// Delegated to the tree walker (`Assign`, `Match`, surface
    /// nodes): one implementation, shared cold path.
    Node(Node),
}

/// A compiled statement sequence. Executing an empty `Code` yields
/// an empty list, like an empty `Seq`.
#[derive(Debug, Default)]
pub struct Code {
    pub ops: Vec<Op>,
}

/// The compile-time model of the runtime binding chain, innermost
/// first. `Some(name)` is a binding whose name is known statically;
/// `None` poisons the frame from that depth outward (a computed name
/// could shadow anything, so slot resolution must stop there).
type Frame = Vec<Option<String>>;

/// Compiles a whole lambda body against the frame its invocation
/// will build (see `apply_closure_inner`: parameters, then `*`
/// unless it is a parameter, then `0`).
pub fn compile_lambda(lambda: &Rc<Lambda>) -> Code {
    let frame = match &lambda.params {
        Some(params) => {
            let mut f: Frame = vec![Some("0".to_string())];
            if !params.iter().any(|p| p == "*") {
                f.push(Some("*".to_string()));
            }
            f.extend(params.iter().rev().map(|p| Some(p.clone())));
            f
        }
        // A bare block binds `*` only when called with arguments, so
        // the chain shape is unknowable here.
        None => vec![None],
    };
    Code {
        ops: compile_node_frame(&lambda.body, &frame),
    }
}

/// Compiles a free-standing node (top-level input, `eval`, `.`):
/// nothing is known about the environment.
pub fn compile_node(node: &Node) -> Code {
    Code {
        ops: compile_node_frame(node, &[None]),
    }
}

fn compile_node_frame(node: &Node, frame: &[Option<String>]) -> Vec<Op> {
    match node {
        Node::Call(exprs) => {
            // A literal boot-primitive hook name in head position
            // becomes an inline-cached site; the head word is then
            // implied by the site rather than compiled as an arg.
            if let Some(Expr::Word(w)) = exprs.first() {
                if !w.has_live_glob() {
                    let text = w.text();
                    if let Some((name, prim)) =
                        HOOK_PRIMS.iter().find(|(h, _)| *h == text)
                    {
                        return vec![Op::Call {
                            args: exprs[1..]
                                .iter()
                                .map(|e| compile_expr(e, true, frame))
                                .collect(),
                            hook: Some(HookSite {
                                name: (*name).to_string(),
                                prim,
                                ic: Cell::new(u64::MAX),
                            }),
                        }];
                    }
                }
            }
            vec![Op::Call {
                args: exprs
                    .iter()
                    .map(|e| compile_expr(e, true, frame))
                    .collect(),
                hook: None,
            }]
        }
        Node::Let(bindings, body) => {
            // Binding i's value is evaluated under bindings 0..i, so
            // thread the frame through as each name lands.
            let mut inner: Frame = frame.to_vec();
            let mut compiled = Vec::with_capacity(bindings.len());
            for (name_expr, value_exprs) in bindings {
                let name = compile_bind_name(name_expr);
                let values = value_exprs
                    .iter()
                    .map(|e| compile_expr(e, false, &inner))
                    .collect();
                inner.insert(
                    0,
                    match &name {
                        BindName::Static(s) => Some(s.clone()),
                        BindName::Dyn(_) => None,
                    },
                );
                compiled.push((name, values));
            }
            vec![Op::Let {
                bindings: compiled,
                body: Rc::new(Code {
                    ops: compile_node_frame(body, &inner),
                }),
            }]
        }
        Node::Local(bindings, body) => {
            // Dynamic bindings never enter the lexical chain: values
            // compile against the outer frame and so does the body.
            let compiled = bindings
                .iter()
                .map(|(name_expr, value_exprs)| {
                    (
                        compile_bind_name(name_expr),
                        value_exprs
                            .iter()
                            .map(|e| compile_expr(e, false, frame))
                            .collect(),
                    )
                })
                .collect();
            vec![Op::Local {
                bindings: compiled,
                body: Rc::new(Code {
                    ops: compile_node_frame(body, frame),
                }),
            }]
        }
        Node::For(bindings, body) => {
            // Lists are evaluated once, up front, in the outer scope;
            // each iteration then pushes the bindings in order, so the
            // body sees them innermost-last-first.
            let compiled: Vec<(BindName, Vec<ArgC>)> = bindings
                .iter()
                .map(|(name_expr, value_exprs)| {
                    (
                        compile_bind_name(name_expr),
                        value_exprs
                            .iter()
                            .map(|e| compile_expr(e, false, frame))
                            .collect(),
                    )
                })
                .collect();
            let mut inner: Frame = compiled
                .iter()
                .rev()
                .map(|(name, _)| match name {
                    BindName::Static(s) => Some(s.clone()),
                    BindName::Dyn(_) => None,
                })
                .collect();
            inner.extend_from_slice(frame);
            vec![Op::For {
                bindings: compiled,
                body: Rc::new(Code {
                    ops: compile_node_frame(body, &inner),
                }),
            }]
        }
        Node::Seq(nodes) => nodes
            .iter()
            .flat_map(|n| compile_node_frame(n, frame))
            .collect(),
        // Assign, Match, and any surface node that escaped lowering:
        // share the tree walker's implementation verbatim.
        other => vec![Op::Node(other.clone())],
    }
}

fn compile_bind_name(expr: &Expr) -> BindName {
    match expr {
        Expr::Word(w) if !w.has_live_glob() => BindName::Static(w.text().to_string()),
        other => BindName::Dyn(other.clone()),
    }
}

fn compile_expr(expr: &Expr, glob: bool, frame: &[Option<String>]) -> ArgC {
    match expr {
        Expr::Word(w) => {
            if glob && w.has_live_glob() {
                ArgC::Glob(w.clone())
            } else {
                ArgC::Word(w.text().to_string())
            }
        }
        Expr::Var(target) => {
            if let Expr::Word(w) = &**target {
                if !w.has_live_glob() {
                    let name = w.text();
                    // All-digit names index `$*` when unbound — that
                    // fallback lives in the general evaluator.
                    if !name.chars().all(|c| c.is_ascii_digit()) {
                        for (hops, entry) in frame.iter().enumerate() {
                            match entry {
                                Some(n) if *n == name => {
                                    return ArgC::Slot { hops, name: name.to_string() };
                                }
                                Some(_) => continue,
                                // A computed name may shadow anything
                                // beneath it: stop resolving.
                                None => break,
                            }
                        }
                    }
                }
            }
            ArgC::Expr {
                expr: expr.clone(),
                glob,
            }
        }
        Expr::Lambda(code) => ArgC::Lambda(Rc::clone(code)),
        Expr::Prim(name) => ArgC::Word(format!("$&{name}")),
        other => ArgC::Expr {
            expr: other.clone(),
            glob,
        },
    }
}
