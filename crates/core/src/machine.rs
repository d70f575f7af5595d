//! The shell machine: heap, variables, descriptors, input sources.

use crate::env;
use crate::eval;
use crate::exception::{EsError, EsResult};
use crate::governor::{Governor, Kind, Limits};
use crate::value::{self, Term};
use es_gc::{PermSlot, Ref, RootSlot};
use es_os::{Desc, Os};
use es_syntax::ast::Lambda;
use es_syntax::{lower, parse_program};
use std::collections::BTreeMap;
use std::rc::Rc;

/// The interpreter heap: closure payloads are shared lambda ASTs.
pub type Heap = es_gc::Heap<Rc<Lambda>>;

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
    /// Keep running (possibly after having blocked for a while — the
    /// hook is allowed to park the calling thread until a scheduler
    /// grants another timeslice).
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
/// fairly: `tick` blocks when the current slice is spent and returns
/// when the next one is granted. `tick` must not touch the machine —
/// it only observes/updates scheduler state — so yielding is invisible
/// to the virtual clock and the replay oracle.
pub trait Yield {
    /// Called once per eval step; may block. See [`YieldAction`].
    fn tick(&self) -> YieldAction;
}

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
pub struct Machine<O: Os + Clone> {
    /// The garbage-collected value heap (public for stats/benches).
    pub heap: Heap,
    /// Evaluator options.
    pub opts: Options,
    os: O,
    globals: BTreeMap<String, PermSlot>,
    /// Dynamic-binding stack: `(name, value slot)`, innermost last.
    dynamics: Vec<(String, RootSlot)>,
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
    /// Hook-generation counter: bumped whenever any `fn-%*` binding is
    /// created, mutated, or removed (globals, dynamics, lexicals, and
    /// closure parameters alike).
    hook_gen: u64,
    /// The counter's value right after `initial.es` bound the stock
    /// hooks — while `hook_gen` still equals it, every hook provably
    /// carries its boot binding (`fn-%pipe = $&pipe`, …).
    hook_boot_gen: u64,
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

impl<O: Os + Clone> Clone for Machine<O> {
    fn clone(&self) -> Self {
        Machine {
            heap: self.heap.clone(),
            opts: self.opts.clone(),
            os: self.os.clone(),
            globals: self.globals.clone(),
            dynamics: self.dynamics.clone(),
            fds: self.fds.clone(),
            inputs: self.inputs.clone(),
            depth: self.depth,
            max_depth_seen: self.max_depth_seen,
            bg_pid: self.bg_pid,
            governor: self.governor.clone(),
            hook_gen: self.hook_gen,
            hook_boot_gen: self.hook_boot_gen,
            yielder: self.yielder.clone(),
            boot_image: self.boot_image.clone(),
        }
    }
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
            globals: BTreeMap::new(),
            dynamics: Vec::new(),
            fds: BTreeMap::new(),
            inputs: Vec::new(),
            depth: 0,
            max_depth_seen: 0,
            bg_pid: 9000,
            governor,
            hook_gen: 0,
            hook_boot_gen: 0,
            yielder: None,
            boot_image: None,
        };
        m.fds.insert(0, es_os::STDIN);
        m.fds.insert(1, es_os::STDOUT);
        m.fds.insert(2, es_os::STDERR);
        // Variables the interpreter itself relies on.
        m.set_global_strs("ifs", &[" \t\n"]);
        let pid = 5000.to_string();
        m.set_global_strs("pid", &[&pid]);
        m.run_text(crate::INITIAL_ES)
            .map_err(|e| m.render_boot_error(e))?;
        // Hooks are now exactly their boot bindings; anything later —
        // including a `fn-%*` closure inherited through the
        // environment import below — dirties the generation.
        m.hook_boot_gen = m.hook_gen;
        env::import_environment(&mut m)?;
        // Freeze the finished boot state so pooled slots can restore
        // it. The image's own `boot_image` is `None` (no recursion);
        // `recycle` puts the `Rc` back after restoring from it.
        m.boot_image = Some(Rc::new(m.clone()));
        Ok(m)
    }

    /// Restores this machine to its boot image: boot hook bindings,
    /// default limits re-armed, globals, heap, fd table, inputs, and
    /// the kernel itself all return to the exact post-boot state —
    /// a recycled pooled slot is indistinguishable from a cold-started
    /// machine (the serve suite proves this bit-for-bit on a probe
    /// script). Returns `false` (and does nothing) on a machine with
    /// no boot image, i.e. one that is itself a boot image.
    pub fn recycle(&mut self) -> bool {
        let Some(image) = self.boot_image.take() else {
            return false;
        };
        let yielder = self.yielder.take();
        *self = (*image).clone();
        self.boot_image = Some(image);
        self.yielder = yielder;
        true
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
    pub fn export_environment(&self) -> Vec<(String, String)> {
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

    /// Arms a limit from a `kind=value` style pair (the CLI's
    /// `--limit` flag). This is a raw set — it may raise an existing
    /// limit, unlike the scoped `%limit` form which only tightens.
    pub fn arm_limit(&mut self, kind: &str, value: u64) -> Result<(), String> {
        let k = Kind::parse(kind).ok_or_else(|| {
            format!(
                "unknown limit kind '{kind}' (expected one of depth, steps, heap, fds, output, time)"
            )
        })?;
        let abs = crate::governor::resolve(self, k, value);
        self.governor.set(k, Some(abs));
        Ok(())
    }

    // ----- hook generation -----------------------------------------------------

    /// Records that a binding named `name` was created, mutated, or
    /// removed. Every binding site funnels through this (or calls it
    /// alongside) so `fn-%*` changes can never escape the counter.
    #[inline]
    pub fn note_binding(&mut self, name: &str) {
        if name.starts_with("fn-%") {
            self.hook_gen += 1;
        }
    }

    /// The current hook generation.
    #[inline]
    pub fn hook_gen(&self) -> u64 {
        self.hook_gen
    }

    /// True while no `fn-%*` binding has changed since boot — the
    /// state in which every hook provably still means its primitive
    /// and dispatch may skip the environment lookup entirely.
    #[inline]
    pub fn hooks_pristine(&self) -> bool {
        self.hook_gen == self.hook_boot_gen
    }

    // ----- running code --------------------------------------------------------

    /// Parses, lowers, and evaluates `src` in the global scope,
    /// returning the (unrooted) value list.
    pub fn run_text(&mut self, src: &str) -> EsResult<Ref> {
        // The paper disables collection while the yacc parser runs;
        // our parser allocates nothing in the GC heap, but we keep the
        // discipline so the stats show the same phase structure.
        self.heap.gc_disable();
        let parsed = parse_program(src);
        self.heap.gc_enable();
        let node = match parsed {
            Ok(p) => lower(p),
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
            Err(EsError::Throw(list)) => {
                Err(value::read_strings(&self.heap, list).join(" "))
            }
            Err(EsError::Exit(code)) => Err(format!("exit {code}")),
        }
    }

    /// Like [`Machine::run`] but discards the value without
    /// stringifying it — the right call in benchmarks and loops where
    /// values can be large closure graphs.
    pub fn run_quiet(&mut self, src: &str) -> Result<(), String> {
        match self.run_text(src) {
            Ok(_) => Ok(()),
            Err(EsError::Throw(list)) => {
                Err(value::read_strings(&self.heap, list).join(" "))
            }
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
        match result {
            Ok(v) => {
                if value::truth(&self.heap, v) {
                    0
                } else {
                    1
                }
            }
            Err(EsError::Exit(code)) => code,
            Err(EsError::Throw(list)) => {
                let msg = value::read_strings(&self.heap, list).join(" ");
                let _ = self.write_fd(2, format!("es: uncaught exception: {msg}\n").as_bytes());
                1
            }
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

    /// Resolves a variable: lexical chain, then dynamic bindings, then
    /// globals. The returned ref is valid until the next allocation.
    pub fn lookup(&self, env: Ref, name: &str) -> Option<Ref> {
        let mut cur = env;
        while !cur.is_nil() {
            let (bname, value, next) = self.heap.binding_parts(cur);
            if bname == name {
                return Some(value);
            }
            cur = next;
        }
        for (dname, slot) in self.dynamics.iter().rev() {
            if dname == name {
                return Some(self.heap.root(*slot));
            }
        }
        self.globals.get(name).map(|slot| self.heap.perm(*slot))
    }

    /// Assigns `value` to `name`: mutates the innermost lexical
    /// binding, else the innermost dynamic binding, else the global
    /// (creating or, when the value is empty, deleting it).
    ///
    /// Settor dispatch (`set-name`) is the *evaluator's* job, because
    /// it must run es code; this method is the raw store.
    pub fn assign_raw(&mut self, env: Ref, name: &str, value: Ref) {
        self.note_binding(name);
        let mut cur = env;
        while !cur.is_nil() {
            let (bname, _, next) = self.heap.binding_parts(cur);
            if bname == name {
                self.heap.set_binding_value(cur, value);
                return;
            }
            cur = next;
        }
        for (dname, slot) in self.dynamics.iter().rev() {
            if dname == name {
                let slot = *slot;
                self.heap.set_root(slot, value);
                return;
            }
        }
        if value.is_nil() {
            // Assigning the empty list removes a global (this is how
            // `fn-x =` undefines a function and how `recache` flushes
            // the Figure 2 path cache).
            if let Some(slot) = self.globals.remove(name) {
                self.heap.free_perm(slot);
            }
            return;
        }
        match self.globals.get(name) {
            Some(slot) => self.heap.set_perm(*slot, value),
            None => {
                let slot = self.heap.alloc_perm(value);
                self.globals.insert(name.to_string(), slot);
            }
        }
    }

    /// Sets a global to a list of strings (bootstrap convenience).
    pub fn set_global_strs(&mut self, name: &str, items: &[&str]) {
        let list = value::list_from_strs(&mut self.heap, items);
        self.assign_raw(Ref::NIL, name, list);
    }

    /// Reads a variable as strings (tests/examples convenience).
    pub fn get_var(&self, name: &str) -> Vec<String> {
        match self.lookup(Ref::NIL, name) {
            Some(v) => value::read_strings(&self.heap, v),
            None => Vec::new(),
        }
    }

    /// Sorted global variable names (`$&vars`).
    pub fn global_names(&self) -> Vec<String> {
        self.globals.keys().cloned().collect()
    }

    /// Pushes a dynamic binding (used by `local`); pop with
    /// [`Machine::pop_dynamics`].
    pub fn push_dynamic(&mut self, name: &str, value: Ref) {
        self.note_binding(name);
        let slot = self.heap.push_root(value);
        self.dynamics.push((name.to_string(), slot));
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
    pub fn set_fd(&mut self, fd: u32, d: Desc) -> Option<Desc> {
        self.fds.insert(fd, d)
    }

    /// Removes shell fd `fd`, returning the previous descriptor.
    pub fn remove_fd(&mut self, fd: u32) -> Option<Desc> {
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
    /// previous table entry. This is the scope guard all redirection
    /// primitives hang off: exception safety here is what makes
    /// `catch` and redirections compose.
    pub fn with_fd<R>(
        &mut self,
        fd: u32,
        d: Desc,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
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
