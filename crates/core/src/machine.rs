//! The shell machine: heap, variables, descriptors, input sources.

use crate::env;
use crate::eval;
use crate::exception::{EsError, EsResult};
use crate::governor::{Governor, Kind, Limits};
use crate::value::{self, Term};
use es_gc::{PermSlot, Ref, RootSlot, Sym};
use es_os::{Desc, Os};
use es_syntax::ast::{Lambda, Node};
use es_syntax::{lower_with, parse_program, ParseError};
use std::cell::OnceCell;
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::rc::Rc;

/// The interpreter heap: closure payloads are shared lambda ASTs.
pub type Heap = es_gc::Heap<Rc<Lambda>>;

/// The names the interpreter itself binds or resolves, interned first
/// in every machine's table so that their symbols are constants.
pub(crate) mod sym {
    use es_gc::Sym;

    /// `$*`, bound by every call.
    pub(crate) const STAR: Sym = Sym::from_raw(0);
    /// `$0`, bound by every call.
    pub(crate) const ZERO: Sym = Sym::from_raw(1);
    /// The path-search hook.
    pub(crate) const FN_PATHSEARCH: Sym = Sym::from_raw(2);
    /// The glob hook.
    pub(crate) const FN_GLOB: Sym = Sym::from_raw(3);
    /// `$apid`, set by `$&background`.
    pub(crate) const APID: Sym = Sym::from_raw(4);
    /// `$bqstatus`, set by `$&backquote`.
    pub(crate) const BQSTATUS: Sym = Sym::from_raw(5);

    /// The names, in symbol order.
    pub(super) const NAMES: [&str; 6] =
        ["*", "0", "fn-%pathsearch", "fn-%glob", "apid", "bqstatus"];
}

/// How many bytes of name a [`NameBuf`] holds without a malloc.
const NAME_BUF: usize = 40;

/// A name assembled on the stack: a command name copied out of the
/// heap so that it outlives the allocations its application makes, or
/// a `$&name` term built from a primitive's name. Only a name longer
/// than [`NAME_BUF`] bytes is built in a `String`.
pub(crate) enum NameBuf {
    Short(u8, [u8; NAME_BUF]),
    Long(String),
}

impl NameBuf {
    /// The concatenation of `parts`.
    pub(crate) fn new(parts: &[&str]) -> NameBuf {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        if len > NAME_BUF {
            return NameBuf::Long(parts.concat());
        }
        let mut bytes = [0; NAME_BUF];
        let mut at = 0;
        for p in parts {
            bytes[at..at + p.len()].copy_from_slice(p.as_bytes());
            at += p.len();
        }
        NameBuf::Short(len as u8, bytes)
    }

    /// The name.
    pub(crate) fn as_str(&self) -> &str {
        match self {
            NameBuf::Short(len, bytes) => {
                std::str::from_utf8(&bytes[..*len as usize]).expect("joined from whole strs")
            }
            NameBuf::Long(s) => s,
        }
    }
}

/// Tunable interpreter behaviour.
#[derive(Debug, Clone)]
pub struct Options {
    /// Proper tail calls (the paper's future work). With `false` the
    /// evaluator recurses on tail calls like the 1993 implementation,
    /// which experiment E6 measures.
    pub tail_calls: bool,
    /// Resource limits the machine boots with. The default arms only
    /// the recursion-depth guard at 150 — deep enough for real shell
    /// programs, shallow enough that the guard fires before the Rust
    /// stack runs out even on a 2 MiB test thread in debug builds.
    /// Raise it (with a bigger thread stack) for deliberately deep
    /// non-tail recursion.
    pub limits: Limits,
    /// Reported by `$&isinteractive`.
    pub interactive: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            tail_calls: true,
            limits: Limits::default_interpreter(),
            interactive: false,
        }
    }
}

/// What a [`Yield`] hook tells the interpreter to do at a charge
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldAction {
    /// Keep running (possibly after a pause — the hook may suspend the
    /// machine's caller, say a fiber, until a scheduler grants another
    /// timeslice).
    Run,
    /// Stop this machine now. The interpreter unwinds with the
    /// *uncatchable* `EsError::Exit` so tenant code cannot intercept
    /// a cancellation the way it can catch a `limit` breach.
    Cancel,
}

/// A cooperative-yield hook, consulted once per
/// [`crate::governor::charge`] — the interpreter's clock-tick /
/// signal-poll / step-count seam. An external scheduler (es-serve's
/// run loop) installs one per machine to timeslice many sessions
/// fairly: when the current slice is spent, `tick` suspends the
/// machine's caller (es-serve runs each machine on a fiber) and returns
/// when the next one is granted. `tick` must not touch the machine —
/// it only observes/updates scheduler state — so yielding is invisible
/// to the virtual clock and the replay oracle.
pub trait Yield {
    /// Called once per eval step; may suspend. See [`YieldAction`].
    fn tick(&self) -> YieldAction;
}

/// A global variable: the root slot holding its value, and that
/// value's environment encoding once an export has computed it.
/// [`Machine::assign_raw`], the only place a global is stored, resets
/// the encoding (and the machine's shared export) and adds the name to
/// the machine's touched set. Boot fills the encoding of every global
/// whose encoding can be cached, so after the freeze an export fills
/// only the cells of globals stored since; nothing but `assign_raw`
/// changes a boot global.
#[derive(Clone)]
pub(crate) struct Global {
    pub(crate) slot: PermSlot,
    pub(crate) export: OnceCell<Rc<str>>,
}

/// Two globals are equal when they have the same slot and the same
/// cached encoding (the same `Rc`, or both uncached). A recycled
/// machine shares its encodings with the boot image, so comparing
/// them reads no string.
impl PartialEq for Global {
    fn eq(&self, other: &Global) -> bool {
        self.slot == other.slot
            && match (self.export.get(), other.export.get()) {
                (Some(a), Some(b)) => Rc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }
}

/// The symbols of the globals touched since the freeze. std's hasher
/// with its default (zero) key, so the set drains in the same order on
/// every run.
type Touched = HashSet<Sym, BuildHasherDefault<DefaultHasher>>;

/// An input source for `$&parse` / `$&dot`.
#[derive(Debug, Clone)]
pub enum Input {
    /// In-memory text (scripts, `eval`).
    Text { src: String, pos: usize },
    /// The shell's standard input, with a lookahead buffer.
    Console { pending: String },
}

/// The es shell machine, generic over the kernel backend.
///
/// `O: Clone` because `fork` clones the whole machine — heap, globals,
/// descriptors, and kernel — exactly the image a real `fork(2)` would
/// produce.
#[derive(Clone)]
pub struct Machine<O: Os + Clone> {
    /// The garbage-collected value heap (public for stats/benches).
    pub heap: Heap,
    /// Evaluator options.
    pub opts: Options,
    os: O,
    /// The global variables, indexed by the symbol of their name: a
    /// global is found with one index, and no name is compared.
    globals: Vec<Option<Global>>,
    /// The symbols of the globals, sorted by name: the order of the
    /// export, of `$&vars` and of the hook list.
    by_name: Vec<Sym>,
    /// The symbols of the globals stored, created or removed since the
    /// freeze or the last recycle: what [`Machine::recycle`] restores.
    /// A name the image lacks leaves the set when it is removed, so the
    /// set never holds more names than the session touched and left
    /// live, plus the boot names it touched. It keeps its capacity, so
    /// a store makes no malloc once the set is warm.
    touched: Touched,
    /// The whole environment export, shared by every launch until
    /// [`Machine::assign_raw`] next creates, stores or removes a
    /// global. See [`env::build_environment`] for when it is used.
    shared_export: OnceCell<Rc<[(String, String)]>>,
    /// Dynamic-binding stack: `(name, value slot)`, innermost last.
    dynamics: Vec<(Sym, RootSlot)>,
    /// The shell's fd table: shell fd → kernel descriptor.
    fds: BTreeMap<u32, Desc>,
    inputs: Vec<Input>,
    /// Current non-tail application depth and high-water mark (E6).
    pub depth: usize,
    /// Deepest application nesting seen (E6 measures this).
    pub max_depth_seen: usize,
    bg_pid: i32,
    /// Resource accounting and armed limits (see [`crate::governor`]).
    governor: Governor,
    /// Cooperative-yield hook (see [`Yield`]); `None` outside a
    /// scheduler. Forked children share the parent's hook, so a
    /// session's forks charge against the same timeslice.
    yielder: Option<Rc<dyn Yield>>,
    /// The machine as it was the moment boot finished (hooks bound,
    /// environment imported, default limits armed). [`Machine::recycle`]
    /// restores this image in place; pooled session slots use it to
    /// hand every tenant a provably cold-equivalent machine. Shared by
    /// `Rc` so forks and clones don't duplicate it.
    boot_image: Option<Rc<Machine<O>>>,
}

impl<O: Os + Clone> Machine<O> {
    /// Boots a machine: imports the kernel environment, runs the
    /// embedded `initial.es`, and re-applies imported variables so the
    /// `path`/`PATH` settors fire (which is how `$path` appears).
    pub fn new(os: O) -> EsResult<Machine<O>> {
        Machine::with_options(os, Options::default())
    }

    /// Boots with explicit [`Options`].
    pub fn with_options(os: O, opts: Options) -> EsResult<Machine<O>> {
        let governor = Governor::new(opts.limits);
        let mut m = Machine {
            heap: Heap::new(),
            opts,
            os,
            globals: Vec::new(),
            by_name: Vec::new(),
            touched: Touched::default(),
            shared_export: OnceCell::new(),
            dynamics: Vec::new(),
            fds: BTreeMap::new(),
            inputs: Vec::new(),
            depth: 0,
            max_depth_seen: 0,
            bg_pid: 9000,
            governor,
            yielder: None,
            boot_image: None,
        };
        m.fds.insert(0, es_os::STDIN);
        m.fds.insert(1, es_os::STDOUT);
        m.fds.insert(2, es_os::STDERR);
        for (i, name) in sym::NAMES.iter().enumerate() {
            assert_eq!(
                m.heap.intern("", name).index(),
                i,
                "fixed symbols come first"
            );
        }
        // Variables the interpreter itself relies on.
        m.set_global_strs("ifs", &[" \t\n"]);
        let pid = 5000.to_string();
        m.set_global_strs("pid", &[&pid]);
        m.run_text(crate::INITIAL_ES)
            .map_err(|e| m.render_boot_error(e))?;
        env::import_environment(&mut m)?;
        // Encode every global now, exported or not, so the frozen
        // image — and every recycled slot and fork cloned from it —
        // starts with every cacheable encoding and the shared export
        // filled, and a later export fills only the cells of globals
        // stored since (which the touched set names).
        env::fill_export_caches(&m);
        env::build_environment(&m);
        // Move what boot left live into the heap's shared boot space,
        // then freeze the finished boot state so pooled slots can
        // restore it. The image's own `boot_image` is `None` (no
        // recursion); `recycle` keeps the `Rc` it restores from.
        m.heap.freeze();
        // Boot grew the globals one symbol at a time; a session that
        // creates a global grows them again, once per machine.
        m.globals.shrink_to_fit();
        m.by_name.shrink_to_fit();
        m.boot_image = Some(Rc::new(m.clone()));
        Ok(m)
    }

    /// Restores this machine to its boot image: boot hook bindings,
    /// default limits re-armed, globals, heap, fd table, inputs, and
    /// the kernel itself all return to the exact post-boot state —
    /// a recycled pooled slot is indistinguishable from a cold-started
    /// machine (the serve suite proves this bit-for-bit on a probe
    /// script). Returns `false` (and does nothing) on a machine with no
    /// boot image, i.e. one that is itself a boot image.
    ///
    /// The restore is field by field, from an exhaustive destructuring
    /// of the image, into the buffers this machine already has: the
    /// heap goes back to the shared boot space with an empty young
    /// space and the boot symbols, the globals named in the touched set
    /// are restored by [`Machine::restore_globals`], and everything else
    /// is copied with `clone_from`. Nothing is copied or visited per
    /// boot object, global or program, so the cost depends on what the
    /// session changed, not on the size of the boot state.
    pub fn recycle(&mut self) -> bool {
        let Some(image) = self.boot_image.take() else {
            return false;
        };
        let Machine {
            heap,
            opts,
            os,
            globals,
            // Restored with the globals.
            by_name: _,
            // The image's set is empty.
            touched: _,
            shared_export,
            dynamics,
            fds,
            inputs,
            depth,
            max_depth_seen,
            bg_pid,
            governor,
            // The hook is the scheduler's, not the session's.
            yielder: _,
            boot_image: _,
        } = &*image;
        // The globals first: putting a global back in name order reads
        // the names of the young symbols the heap's restore drops.
        self.restore_globals(globals);
        self.heap.clone_from(heap);
        self.opts.clone_from(opts);
        self.os.clone_from(os);
        self.shared_export.clone_from(shared_export);
        self.dynamics.clone_from(dynamics);
        if self.fds != *fds {
            self.fds.clone_from(fds);
        }
        self.inputs.clone_from(inputs);
        self.depth = *depth;
        self.max_depth_seen = *max_depth_seen;
        self.bg_pid = *bg_pid;
        self.governor.clone_from(governor);
        debug_assert!(
            self.heap.boot_space_intact(),
            "the boot space changed after the freeze"
        );
        debug_assert!(
            self.same_globals(&image),
            "recycled globals differ from the boot image's"
        );
        self.boot_image = Some(image);
        true
    }

    /// Makes the globals equal to `boot`'s by restoring each symbol in
    /// the touched set, and empties the set. Every other global is the
    /// image's already: only [`Machine::assign_raw`] changes a global
    /// after the freeze, and it adds the symbol to the set. (The values
    /// themselves live in the heap's persistent roots, which the heap
    /// restores.) A global the image lacks has a young symbol or one the
    /// image leaves empty, so once it is gone, cutting the vector back
    /// to the image's length leaves only empty entries behind.
    fn restore_globals(&mut self, boot: &[Option<Global>]) {
        for sym in self.touched.drain() {
            let Some(mine) = self.globals.get_mut(sym.index()) else {
                continue;
            };
            match (
                mine.as_mut(),
                boot.get(sym.index()).and_then(Option::as_ref),
            ) {
                (Some(mine), Some(g)) => mine.clone_from(g),
                (None, Some(g)) => {
                    *mine = Some(g.clone());
                    list(&mut self.by_name, &self.heap, sym);
                }
                (Some(_), None) => {
                    *mine = None;
                    unlist(&mut self.by_name, sym);
                }
                (None, None) => {}
            }
        }
        self.globals.truncate(boot.len());
    }

    /// True if the globals are exactly `image`'s: the same symbols,
    /// slots and cached encodings, in the same name order. Recycle's
    /// oracle.
    fn same_globals(&self, image: &Machine<O>) -> bool {
        self.globals == image.globals && self.by_name == image.by_name
    }

    /// True if the globals are the boot image's, as a recycle leaves
    /// them.
    #[cfg(test)]
    pub(crate) fn globals_are_boot(&self) -> bool {
        let image = self.boot_image.as_ref().expect("a booted machine");
        self.same_globals(image)
    }

    /// The number of names in the touched set.
    #[cfg(test)]
    pub(crate) fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Installs (or with `None`, removes) the cooperative-yield hook.
    pub fn set_yielder(&mut self, y: Option<Rc<dyn Yield>>) {
        self.yielder = y;
    }

    /// The installed cooperative-yield hook, if any.
    #[inline]
    pub fn yielder(&self) -> Option<&Rc<dyn Yield>> {
        self.yielder.as_ref()
    }

    fn render_boot_error(&mut self, e: EsError) -> EsError {
        if let EsError::Throw(list) = e {
            let msg = value::read_strings(&self.heap, list).join(" ");
            let _ = self.write_fd(2, format!("es: initial.es failed: {msg}\n").as_bytes());
        }
        e
    }

    /// Allocates a fake pid for a background job (`$apid`).
    pub fn next_bg_pid(&mut self) -> i32 {
        self.bg_pid += 1;
        self.bg_pid
    }

    /// Adopts a forked child's kernel-level effects (terminal output,
    /// filesystem writes, clock) back into this machine's kernel.
    pub fn absorb_fork_output(&mut self, child: &mut Machine<O>) {
        let child_os = child.os.clone();
        self.os.absorb_fork(child_os);
    }

    /// Encodes all exportable shell state as environment strings —
    /// what every external command (and child es) receives. Closures
    /// travel as `%closure(...)` strings (paper, "The Environment").
    /// Between stores to globals, launches share one export.
    pub fn export_environment(&self) -> Rc<[(String, String)]> {
        env::build_environment(self)
    }

    /// The kernel backend (mutable).
    pub fn os_mut(&mut self) -> &mut O {
        &mut self.os
    }

    /// The kernel backend.
    pub fn os(&self) -> &O {
        &self.os
    }

    /// The resource governor.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// The resource governor (mutable).
    pub fn governor_mut(&mut self) -> &mut Governor {
        &mut self.governor
    }

    /// Arms `kind` at `value`, resolved as `%limit` resolves it (the
    /// CLI's `--limit` flag, and a served session before each
    /// command). This is a raw set — it may raise an existing limit,
    /// unlike the scoped `%limit` form which only tightens.
    pub fn arm_limit(&mut self, kind: Kind, value: u64) {
        let abs = crate::governor::resolve(self, kind, value);
        self.governor.set(kind, Some(abs));
    }

    // ----- running code --------------------------------------------------------

    /// Parses, lowers, and evaluates `src` in the global scope,
    /// returning the (unrooted) value list.
    pub fn run_text(&mut self, src: &str) -> EsResult<Ref> {
        // The paper disables collection while its yacc parser runs,
        // because the parser's stack cannot be registered as roots;
        // this parser builds a Rust tree and allocates nothing in the
        // heap, so there is nothing to protect.
        let node = match self.parse(src) {
            Ok(node) => node,
            Err(e) => return Err(self.error(&format!("parse error: {}", e.msg))),
        };
        let base = self.heap.roots_len();
        let env = self.heap.push_root(Ref::NIL);
        let result = eval::eval_node(self, &node, env, None);
        let out = match result {
            Ok(flow) => Ok(eval::must_value(flow)),
            Err(e) => Err(e),
        };
        self.heap.truncate_roots(base);
        out
    }

    /// Like [`Machine::run_text`] but returns the value as strings
    /// (closures unparsed) — the convenient form for tests and
    /// examples.
    pub fn run(&mut self, src: &str) -> Result<Vec<String>, String> {
        match self.run_text(src) {
            Ok(v) => Ok(value::read_strings(&self.heap, v)),
            Err(EsError::Throw(list)) => Err(value::read_strings(&self.heap, list).join(" ")),
            Err(EsError::Exit(code)) => Err(format!("exit {code}")),
        }
    }

    /// Like [`Machine::run`] but discards the value without
    /// stringifying it — the right call in benchmarks and loops where
    /// values can be large closure graphs.
    pub fn run_quiet(&mut self, src: &str) -> Result<(), String> {
        match self.run_text(src) {
            Ok(_) => Ok(()),
            Err(EsError::Throw(list)) => Err(value::read_strings(&self.heap, list).join(" ")),
            Err(EsError::Exit(code)) => Err(format!("exit {code}")),
        }
    }

    /// Runs the interactive loop (`%interactive-loop`, Figure 3) until
    /// EOF or exit; returns the shell's exit status.
    pub fn repl(&mut self) -> i32 {
        self.opts.interactive = true;
        self.inputs.push(Input::Console {
            pending: String::new(),
        });
        let result = self.run_text("%interactive-loop");
        self.inputs.pop();
        self.exit_status(result).unwrap_or_else(|msg| {
            let _ = self.write_fd(2, format!("es: uncaught exception: {msg}\n").as_bytes());
            1
        })
    }

    /// The exit status a shell reports for what [`Machine::run_text`]
    /// returned: 0 for a true value and 1 for a false one, or an
    /// `exit`'s own status. An uncaught exception is the `Err` of its
    /// message, which the caller reports before exiting 1.
    pub fn exit_status(&self, result: EsResult<Ref>) -> Result<i32, String> {
        match result {
            Ok(v) => Ok(i32::from(!value::truth(&self.heap, v))),
            Err(EsError::Exit(code)) => Ok(code),
            Err(EsError::Throw(list)) => Err(value::read_strings(&self.heap, list).join(" ")),
        }
    }

    // ----- exceptions -----------------------------------------------------------

    /// Builds an `error` exception.
    pub fn error(&mut self, msg: &str) -> EsError {
        let list = value::list_from_strs(&mut self.heap, &["error", msg]);
        EsError::Throw(list)
    }

    /// Builds an arbitrary exception from string parts.
    pub fn exception(&mut self, parts: &[&str]) -> EsError {
        let list = value::list_from_strs(&mut self.heap, parts);
        EsError::Throw(list)
    }

    // ----- variables -------------------------------------------------------------

    /// Parses and lowers `src`, interning every name the tree's words
    /// bind or resolve (see [`es_syntax::lower_with`]): the one way
    /// source becomes a tree this machine evaluates. Running the same
    /// text again interns nothing new.
    pub(crate) fn parse(&mut self, src: &str) -> Result<Node, ParseError> {
        let program = parse_program(src)?;
        let heap = &mut self.heap;
        Ok(lower_with(program, &mut |prefix, name| {
            heap.intern(prefix, name).raw()
        }))
    }

    /// Resolves the variable whose name has the symbol `sym`: the
    /// lexical chain, then dynamic bindings, then globals. A command
    /// `f` resolves as the symbol of `fn-f`, a settor as that of
    /// `set-x`. Every binding holds a symbol, so a hop is one integer
    /// compare, and a global is one index. The returned ref is valid
    /// until the next allocation.
    pub fn lookup(&self, env: Ref, sym: Sym) -> Option<Ref> {
        let mut cur = env;
        let found = loop {
            if cur.is_nil() {
                break self
                    .dynamic(sym)
                    .or_else(|| self.global(sym).map(|g| self.heap.perm(g.slot)));
            }
            let (bsym, value, next) = self.heap.binding(cur);
            if bsym == sym {
                break Some(value);
            }
            cur = next;
        };
        debug_assert_eq!(
            found,
            self.lookup_by_name(env, self.heap.sym_name(sym)),
            "lookup of {sym:?} disagrees with a lookup of its name {:?}",
            self.heap.sym_name(sym)
        );
        found
    }

    /// Resolves `prefix` followed by `name` through [`Machine::lookup`],
    /// for a name known only as text: a computed name, a command named
    /// by a string in the heap. A name never interned is bound nowhere,
    /// so it resolves to `None` without a walk.
    pub fn lookup_name(&self, env: Ref, prefix: &str, name: &str) -> Option<Ref> {
        let sym = self.heap.find_sym(prefix, name)?;
        self.lookup(env, sym)
    }

    /// The oracle for [`Machine::lookup`] in debug builds: the same
    /// search, comparing every binding's name with `full` as text, and
    /// finding the global through the symbol table's own by-name search.
    fn lookup_by_name(&self, env: Ref, full: &str) -> Option<Ref> {
        let mut cur = env;
        while !cur.is_nil() {
            let (bname, value, next) = self.heap.binding_parts(cur);
            if bname == full {
                return Some(value);
            }
            cur = next;
        }
        self.dynamics
            .iter()
            .rev()
            .find(|(dsym, _)| self.heap.sym_name(*dsym) == full)
            .map(|(_, slot)| self.heap.root(*slot))
            .or_else(|| {
                let sym = self.heap.find_sym("", full)?;
                self.global(sym).map(|g| self.heap.perm(g.slot))
            })
    }

    /// The value of the innermost dynamic (`local`) binding of `sym`.
    pub(crate) fn dynamic(&self, sym: Sym) -> Option<Ref> {
        self.dynamics
            .iter()
            .rev()
            .find(|(dsym, _)| *dsym == sym)
            .map(|(_, slot)| self.heap.root(*slot))
    }

    /// The global named by `sym`.
    fn global(&self, sym: Sym) -> Option<&Global> {
        self.globals.get(sym.index())?.as_ref()
    }

    /// The global hook bindings (`fn-%*`), by name, each with the
    /// environment encoding of its value: what a pooled slot's reset
    /// audit compares with the boot image's through
    /// [`Machine::hooks_match`].
    pub fn hook_bindings(&self) -> Vec<(Sym, Rc<str>)> {
        self.hooks()
            .map(|(sym, g)| {
                let encoded = match g.export.get() {
                    Some(cached) => Rc::clone(cached),
                    None => Rc::from(self.encode_global(g)),
                };
                (sym, encoded)
            })
            .collect()
    }

    /// True if the global hook bindings are exactly `boot`, as
    /// [`Machine::hook_bindings`] returned them on this machine or its
    /// boot image: the same names, each bound to a value with the same
    /// encoding. The hooks are a run of the globals in name order, so
    /// this compares that run's symbols with `boot`'s and checks that
    /// no hook follows it: no name is read past the run's start. `Rc`'s
    /// `==` compares pointers first, and a recycled machine shares its
    /// cached encodings with the boot image, so checking one clones no
    /// `Rc` and makes no malloc.
    pub fn hooks_match(&self, boot: &[(Sym, Rc<str>)]) -> bool {
        let start = self.hooks_start();
        let Some(mine) = self.by_name.get(start..start + boot.len()) else {
            return false;
        };
        let more = self.globals_from(start + boot.len()).next();
        !more.is_some_and(|(name, ..)| name.starts_with("fn-%"))
            && mine
                .iter()
                .zip(boot)
                .all(|(&sym, (boot_sym, boot_encoded))| {
                    let g = self.global(sym).expect("a listed global exists");
                    sym == *boot_sym
                        && match g.export.get() {
                            Some(cached) => cached == boot_encoded,
                            None => *self.encode_global(g) == **boot_encoded,
                        }
                })
    }

    /// The `fn-%*` globals, by name.
    fn hooks(&self) -> impl Iterator<Item = (Sym, &Global)> {
        self.globals_from(self.hooks_start())
            .take_while(|(name, ..)| name.starts_with("fn-%"))
            .map(|(_, sym, g)| (sym, g))
    }

    /// Where the `fn-%*` globals start in name order.
    fn hooks_start(&self) -> usize {
        self.by_name
            .partition_point(|&s| self.heap.sym_name(s) < "fn-%")
    }

    /// The globals from the `start`-th by name on: each one's name,
    /// symbol and global.
    fn globals_from(&self, start: usize) -> impl Iterator<Item = (&str, Sym, &Global)> {
        self.by_name[start..].iter().map(|&sym| {
            let g = self.global(sym).expect("a listed global exists");
            (self.heap.sym_name(sym), sym, g)
        })
    }

    /// A fresh encoding of a global's value.
    fn encode_global(&self, g: &Global) -> String {
        env::encode_value(self, self.heap.perm(g.slot)).0
    }

    /// The global variables, sorted by name: each one's name, symbol
    /// and global.
    pub(crate) fn globals(&self) -> impl Iterator<Item = (&str, Sym, &Global)> {
        self.globals_from(0)
    }

    /// The export shared by launches while no global changes.
    pub(crate) fn shared_export(&self) -> &OnceCell<Rc<[(String, String)]>> {
        &self.shared_export
    }

    /// Assigns `value` to the variable named by `sym`: mutates the
    /// innermost lexical binding, else the innermost dynamic binding,
    /// else the global (creating or, when the value is empty, deleting
    /// it).
    ///
    /// Settor dispatch (`set-name`) is the *evaluator's* job, because
    /// it must run es code; this method is the raw store. After the
    /// freeze it adds the symbol of each global it stores, creates or
    /// removes to the touched set, for [`Machine::recycle`]; removing
    /// a global the image lacks takes it out again.
    pub fn assign_raw(&mut self, env: Ref, sym: Sym, value: Ref) {
        let mut cur = env;
        while !cur.is_nil() {
            let (bsym, _, next) = self.heap.binding(cur);
            if bsym == sym {
                self.heap.set_binding_value(cur, value);
                return;
            }
            cur = next;
        }
        for (dsym, slot) in self.dynamics.iter().rev() {
            if *dsym == sym {
                let slot = *slot;
                self.heap.set_root(slot, value);
                return;
            }
        }
        self.shared_export.take();
        let i = sym.index();
        if value.is_nil() {
            // Assigning the empty list removes a global (this is how
            // `fn-x =` undefines a function and how `recache` flushes
            // the Figure 2 path cache).
            if let Some(g) = self.globals.get_mut(i).and_then(Option::take) {
                self.heap.free_perm(g.slot);
                unlist(&mut self.by_name, sym);
                // A boot name stays in the set, so that recycle puts
                // it back; a name the session created leaves it.
                if let Some(image) = &self.boot_image {
                    if image.global(sym).is_some() {
                        self.touched.insert(sym);
                    } else {
                        self.touched.remove(&sym);
                    }
                }
            }
            return;
        }
        if self.boot_image.is_some() {
            self.touched.insert(sym);
        }
        if let Some(Some(g)) = self.globals.get_mut(i) {
            self.heap.set_perm(g.slot, value);
            g.export.take();
            return;
        }
        let slot = self.heap.alloc_perm(value);
        if self.globals.len() <= i {
            self.globals.resize(i + 1, None);
        }
        self.globals[i] = Some(Global {
            slot,
            export: OnceCell::new(),
        });
        list(&mut self.by_name, &self.heap, sym);
    }

    /// Sets a global to a list of strings (bootstrap convenience).
    pub fn set_global_strs(&mut self, name: &str, items: &[&str]) {
        let list = value::list_from_strs(&mut self.heap, items);
        let sym = self.heap.intern("", name);
        self.assign_raw(Ref::NIL, sym, list);
    }

    /// Reads a variable as strings (tests/examples convenience).
    pub fn get_var(&self, name: &str) -> Vec<String> {
        match self.lookup_name(Ref::NIL, "", name) {
            Some(v) => value::read_strings(&self.heap, v),
            None => Vec::new(),
        }
    }

    /// Sorted global variable names (`$&vars`).
    pub fn global_names(&self) -> Vec<String> {
        self.globals().map(|(name, ..)| name.to_string()).collect()
    }

    /// Pushes a dynamic binding of the variable named by `sym` (used by
    /// `local`); pop with [`Machine::pop_dynamics`].
    pub fn push_dynamic(&mut self, sym: Sym, value: Ref) {
        let slot = self.heap.push_root(value);
        self.dynamics.push((sym, slot));
    }

    /// Current dynamic stack depth (for scoped restore).
    pub fn dynamics_len(&self) -> usize {
        self.dynamics.len()
    }

    /// Pops dynamic bindings down to `len`. The caller must truncate
    /// the matching root scope itself (bindings own root slots).
    pub fn pop_dynamics(&mut self, len: usize) {
        self.dynamics.truncate(len);
    }

    // ----- descriptors ------------------------------------------------------------

    /// The kernel descriptor for shell fd `fd`.
    pub fn fd(&self, fd: u32) -> Option<Desc> {
        self.fds.get(&fd).copied()
    }

    /// Replaces shell fd `fd`, returning the previous descriptor (the
    /// caller restores it after the redirected body runs).
    pub(crate) fn set_fd(&mut self, fd: u32, d: Desc) -> Option<Desc> {
        self.fds.insert(fd, d)
    }

    /// Removes shell fd `fd`, returning the previous descriptor.
    pub(crate) fn remove_fd(&mut self, fd: u32) -> Option<Desc> {
        self.fds.remove(&fd)
    }

    /// The current fd layout, for passing to [`Os::run`].
    pub fn fd_layout(&self) -> Vec<(u32, Desc)> {
        self.fds.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Writes all of `data` to shell fd `fd`, looping on partial
    /// writes and retrying interrupted ones (bounded). On failure the
    /// error reports how many bytes made it out first.
    pub fn write_fd(&mut self, fd: u32, data: &[u8]) -> Result<usize, es_os::WriteError> {
        let result = match self.fd(fd) {
            Some(d) => es_os::write_fully(&mut self.os, d, data),
            None => Err(es_os::WriteError {
                written: 0,
                cause: es_os::OsError::BadF,
            }),
        };
        // Bytes that made it out count against the output quota even
        // when the write ultimately failed partway.
        match &result {
            Ok(n) => self.governor.note_output(*n),
            Err(e) => self.governor.note_output(e.written),
        }
        result
    }

    /// Closes a kernel descriptor, retrying interrupted closes so an
    /// injected `EINTR` cannot leak the slot. Other errors (already
    /// closed, bad descriptor) are ignored — on cleanup paths there is
    /// nothing further to do with them.
    pub fn close_desc(&mut self, d: Desc) {
        let _ = es_os::retry_intr(|| self.os.close(d));
    }

    /// Runs `body` with shell fd `fd` pointing at `d`, then — on every
    /// exit path, value or exception — closes `d` and restores the
    /// previous table entry. This is the one scope guard under every
    /// primitive that points an fd at a new descriptor: the
    /// redirections, `%here`, backquote and each `%pipe` stage (one
    /// guard for its input, one nested inside for its output); `%close`
    /// only removes an entry and puts it back. Exception safety here is
    /// what makes `catch` and redirections compose.
    pub fn with_fd<R>(&mut self, fd: u32, d: Desc, body: impl FnOnce(&mut Self) -> R) -> R {
        let saved = self.set_fd(fd, d);
        let result = body(self);
        self.close_desc(d);
        match saved {
            Some(old) => {
                self.set_fd(fd, old);
            }
            None => {
                self.remove_fd(fd);
            }
        }
        result
    }

    // ----- input sources -------------------------------------------------------------

    /// Pushes an input source (scripts, eval) for `$&parse`.
    pub fn push_input(&mut self, input: Input) {
        self.inputs.push(input);
    }

    /// Pops the current input source.
    pub fn pop_input(&mut self) {
        self.inputs.pop();
    }

    /// Reads one line (without the newline) from the current input
    /// source; `None` at end of input (→ the `eof` exception).
    pub fn read_line(&mut self) -> Option<String> {
        if let Input::Text { src, pos } = self.inputs.last_mut()? {
            if *pos >= src.len() {
                return None;
            }
            let rest = &src[*pos..];
            return Some(match rest.find('\n') {
                Some(i) => {
                    let line = rest[..i].to_string();
                    *pos += i + 1;
                    line
                }
                None => {
                    let line = rest.to_string();
                    *pos = src.len();
                    line
                }
            });
        }
        loop {
            // Serve a buffered line if we have one.
            if let Some(Input::Console { pending }) = self.inputs.last_mut() {
                if let Some(i) = pending.find('\n') {
                    let line = pending[..i].to_string();
                    pending.drain(..=i);
                    return Some(line);
                }
            }
            let desc = self.fds.get(&0).copied()?;
            let mut buf = [0u8; 1024];
            // Bounded EINTR retry: an interrupted console read must
            // not end the REPL. Any other error reads as EOF.
            match es_os::retry_intr(|| self.os.read(desc, &mut buf)) {
                Ok(0) | Err(_) => {
                    // EOF: flush any unterminated final line.
                    if let Some(Input::Console { pending }) = self.inputs.last_mut() {
                        if !pending.is_empty() {
                            return Some(std::mem::take(pending));
                        }
                    }
                    return None;
                }
                Ok(n) => {
                    let text = String::from_utf8_lossy(&buf[..n]).into_owned();
                    if let Some(Input::Console { pending }) = self.inputs.last_mut() {
                        pending.push_str(&text);
                    }
                }
            }
        }
    }

    // ----- convenience for prims --------------------------------------------------

    /// Reads the terms of the list in a root slot.
    pub fn terms_at(&self, slot: RootSlot) -> Vec<Term> {
        value::read_terms(&self.heap, self.heap.root(slot))
    }

    /// Reads the strings of the list in a root slot.
    pub fn strings_at(&self, slot: RootSlot) -> Vec<String> {
        value::read_strings(&self.heap, self.heap.root(slot))
    }
}

/// Adds `sym` to `by_name`, in name order.
fn list(by_name: &mut Vec<Sym>, heap: &Heap, sym: Sym) {
    let name = heap.sym_name(sym);
    let at = by_name.partition_point(|&s| heap.sym_name(s) < name);
    by_name.insert(at, sym);
}

/// Takes `sym` out of `by_name`.
fn unlist(by_name: &mut Vec<Sym>, sym: Sym) {
    if let Some(at) = by_name.iter().position(|&s| s == sym) {
        by_name.remove(at);
    }
}
