//! The traced op runner: splits each op's time across the layers that
//! produce it, by timing the benchmark's own calls into each layer's
//! public functions.
//!
//! - `es-os`: every launch and syscall, through [`TracingOs`].
//! - `es-gc`: the collector's pause time and counts, from
//!   `heap.stats()` before and after the op.
//! - `es-core::governor`: eval steps, from `governor().steps()`.
//! - `es-syntax` and `es-core::compile`: `parse_program` + `lower` and
//!   `compile_node`, timed on the op's exact text (best of five, so the
//!   estimate does not exceed the warm cost the op pays).
//! - `es-core::env`: `Machine::export_environment`, timed on the
//!   machine's state right after the op, once per launch it made.
//! - the interpreter (vm/eval/prims): self time, the op's span minus
//!   all of the above.

use crate::gen::Op;
use crate::report::{quantile, ratio, us, Metric};
use crate::trace::{Recorder, TracingOs};
use es_core::compile::{self, Code};
use es_core::Machine;
use es_os::{Os, SimOs};
use es_syntax::ast::{Expr, Lambda, Node, Redirect};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// A machine whose kernel reports to the tracer.
pub type TracedMachine = Machine<TracingOs<SimOs>>;

/// Work counts: deterministic for a given seed, so two runs must agree
/// on them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub steps: u64,
    pub allocs: u64,
    pub collections: u64,
    pub copied: u64,
    pub launches: u64,
    pub env_bytes: u64,
    pub syscalls: u64,
    pub fallback_ops: u64,
}

/// Wall time per layer, in nanoseconds, summed over the ops run
/// since timing (re)started, with the op and step counts to divide by.
#[derive(Debug, Clone, Copy, Default)]
struct Times {
    ops: u64,
    steps: u64,
    op: u64,
    parse: u64,
    compile: u64,
    export: u64,
    export_calls: u64,
    launch: u64,
    syscall: u64,
    gc_pause: u64,
}

/// Best-of-five front-end cost of one op's text.
#[derive(Clone, Copy)]
struct FrontEnd {
    parse_ns: u64,
    compile_ns: u64,
    fallback_ops: u64,
}

pub struct Tracer {
    rec: Rc<RefCell<Recorder>>,
    front: HashMap<String, FrontEnd>,
    counts: Counts,
    times: Times,
    gc_pause_max_ns: u64,
    next_op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            rec: Recorder::new(),
            front: HashMap::new(),
            counts: Counts::default(),
            times: Times::default(),
            gc_pause_max_ns: 0,
            next_op: 0,
        }
    }

    /// Wraps `os` so that it reports to this tracer.
    pub fn kernel(&self, os: SimOs) -> TracingOs<SimOs> {
        TracingOs {
            inner: os,
            rec: Rc::clone(&self.rec),
        }
    }

    /// Counts so far (take one after a fixed prefix of ops for the
    /// determinism check).
    pub fn counts(&self) -> Counts {
        self.counts
    }

    /// Forgets the times so far (say, of a cold first pass); counts
    /// keep accumulating.
    pub fn restart_timing(&mut self) {
        self.times = Times::default();
        self.rec.borrow_mut().launch_ns.clear();
    }

    /// Runs one op traced; returns whether its output was right and
    /// its span in nanoseconds.
    pub fn run(&mut self, m: &mut TracedMachine, op: &Op) -> (bool, u64) {
        let gc0 = m.heap.stats().clone();
        let steps0 = m.governor().steps();
        let t0 = Instant::now();
        self.rec.borrow_mut().begin_op(self.next_op, t0);
        let result = m.run_quiet(&op.line);
        let t1 = Instant::now();
        let work = self.rec.borrow_mut().end_op(t1);
        self.next_op += 1;
        let (out, err) = m.os_mut().take_console();
        let ok = op.accepts(&result, &out, &err);
        let gc1 = m.heap.stats();
        let span = t1.duration_since(t0).as_nanos() as u64;

        let front = match self.front.get(&op.line) {
            Some(f) => *f,
            None => {
                let f = self.front_end(&op.line);
                self.front.insert(op.line.clone(), f);
                f
            }
        };
        let export = if work.launches > 0 { self.export(m) } else { 0 };

        let steps = m.governor().steps() - steps0;
        let c = &mut self.counts;
        c.ops += 1;
        c.steps += steps;
        c.allocs += gc1.allocated - gc0.allocated;
        c.collections += gc1.collections - gc0.collections;
        c.copied += gc1.copied - gc0.copied;
        c.launches += work.launches;
        c.env_bytes += work.env_bytes;
        c.syscalls += work.syscalls;
        c.fallback_ops += front.fallback_ops;
        let t = &mut self.times;
        t.ops += 1;
        t.steps += steps;
        t.op += span;
        t.parse += front.parse_ns;
        t.compile += front.compile_ns;
        t.export += export * work.launches;
        t.export_calls += work.launches;
        t.launch += work.launch_ns;
        t.syscall += work.syscall_ns;
        t.gc_pause += (gc1.pause_total - gc0.pause_total).as_nanos() as u64;
        self.gc_pause_max_ns = self.gc_pause_max_ns.max(gc1.pause_max.as_nanos() as u64);
        (ok, span)
    }

    /// Times `parse_program` + `lower`, then `compile_node` and
    /// `compile_lambda` on every lambda literal in it, on `line`. The
    /// interpreter compiles a lambda's body when the lambda is first
    /// called, and each op parses afresh, so the op pays for these
    /// inside its span (for every lambda it calls).
    fn front_end(&mut self, line: &str) -> FrontEnd {
        let mut best = FrontEnd {
            parse_ns: u64::MAX,
            compile_ns: u64::MAX,
            fallback_ops: 0,
        };
        let mut spans = Vec::new();
        for _ in 0..5 {
            let t0 = Instant::now();
            let node =
                es_syntax::lower(black_box(es_syntax::parse_program(line)).expect("ops parse"));
            let t1 = Instant::now();
            let mut lambdas = Vec::new();
            node_lambdas(&node, &mut lambdas);
            let t2 = Instant::now();
            let mut fallback_ops = node_fallbacks(&black_box(compile::compile_node(&node)));
            for lambda in &lambdas {
                fallback_ops += node_fallbacks(&black_box(compile::compile_lambda(lambda)));
            }
            let t3 = Instant::now();
            best.parse_ns = best.parse_ns.min(t1.duration_since(t0).as_nanos() as u64);
            best.compile_ns = best.compile_ns.min(t3.duration_since(t2).as_nanos() as u64);
            best.fallback_ops = fallback_ops;
            spans.push((t0, t1, t2, t3));
        }
        let mut rec = self.rec.borrow_mut();
        for (t0, t1, t2, t3) in spans {
            rec.child("calib.parse_lower", t0, t1);
            rec.child("calib.compile", t2, t3);
        }
        best
    }

    /// Best of two `export_environment` calls on the machine's state.
    fn export(&mut self, m: &TracedMachine) -> u64 {
        let mut best = u64::MAX;
        for _ in 0..2 {
            let t0 = Instant::now();
            black_box(m.export_environment());
            let t1 = Instant::now();
            self.rec.borrow_mut().child("calib.export", t0, t1);
            best = best.min(t1.duration_since(t0).as_nanos() as u64);
        }
        best
    }

    /// Interpreter self time: op spans minus every child layer. The
    /// children are disjoint parts of the op (kernel spans, collector
    /// pauses) or warm best-case estimates of it (front end, export),
    /// so this is never negative in a correct measurement.
    pub fn self_ns(&self) -> i64 {
        let t = &self.times;
        t.op as i64 - (t.parse + t.compile + t.export + t.launch + t.syscall + t.gc_pause) as i64
    }

    /// The per-layer metrics. Count ratios come from `counts`, taken
    /// over a fixed prefix of ops; times from the ops run since timing
    /// (re)started.
    pub fn metrics(&self, counts: &Counts) -> Vec<Metric> {
        let t = &self.times;
        let n = t.ops as f64;
        let c = counts;
        let per = |x: u64| ratio(x as f64, c.ops as f64);
        let launch_ns = &self.rec.borrow().launch_ns;
        vec![
            (
                "syntax.parse_lower_us_per_op",
                us(ratio(t.parse as f64, n)),
                "us",
            ),
            ("compile.us_per_op", us(ratio(t.compile as f64, n)), "us"),
            (
                "compile.node_fallback_ops_per_op",
                per(c.fallback_ops),
                "count",
            ),
            ("governor.steps_per_op", per(c.steps), "count"),
            (
                "interp.self_us_per_op",
                us(ratio(self.self_ns() as f64, n)),
                "us",
            ),
            (
                "interp.ns_per_step",
                ratio(self.self_ns() as f64, t.steps as f64),
                "ns",
            ),
            ("gc.allocs_per_op", per(c.allocs), "count"),
            (
                "gc.collections_per_kop",
                1000.0 * per(c.collections),
                "count",
            ),
            ("gc.pause_us_per_op", us(ratio(t.gc_pause as f64, n)), "us"),
            ("gc.pause_max_us", us(self.gc_pause_max_ns as f64), "us"),
            (
                "gc.survival_ratio",
                ratio(c.copied as f64, c.allocs as f64),
                "ratio",
            ),
            (
                "env.export_us_per_call",
                us(ratio(t.export as f64, t.export_calls as f64)),
                "us",
            ),
            ("env.export_us_per_op", us(ratio(t.export as f64, n)), "us"),
            (
                "env.bytes_per_launch",
                ratio(c.env_bytes as f64, c.launches as f64),
                "bytes",
            ),
            ("os.launches_per_op", per(c.launches), "count"),
            ("os.launch_us_p50", us(quantile(launch_ns, 0.5)), "us"),
            ("os.launch_us_per_op", us(ratio(t.launch as f64, n)), "us"),
            ("os.syscalls_per_op", per(c.syscalls), "count"),
            ("os.syscall_us_per_op", us(ratio(t.syscall as f64, n)), "us"),
        ]
    }

    /// Writes the kept spans under the build directory; returns where.
    pub fn write_spans(&self, workload: &str, seed: u64) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
        )
        .join("perfbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("spans-{workload}-{seed}.tsv"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        self.rec.borrow().write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)?;
        Ok(path)
    }
}

/// `Op::Node` statements in compiled code: the forms the compiler
/// hands back to the tree walker.
fn node_fallbacks(code: &Code) -> u64 {
    code.ops
        .iter()
        .map(|op| match op {
            compile::Op::Node(_) => 1,
            compile::Op::Let { body, .. }
            | compile::Op::Local { body, .. }
            | compile::Op::For { body, .. } => node_fallbacks(body),
            compile::Op::Call { .. } => 0,
        })
        .sum()
}

/// Every lambda literal in `node`, nested ones included.
fn node_lambdas(node: &Node, out: &mut Vec<Rc<Lambda>>) {
    match node {
        Node::Call(exprs) => exprs.iter().for_each(|e| expr_lambdas(e, out)),
        Node::Assign(lhs, values) | Node::Match(lhs, values) => {
            expr_lambdas(lhs, out);
            values.iter().for_each(|e| expr_lambdas(e, out));
        }
        Node::Let(bindings, body) | Node::Local(bindings, body) | Node::For(bindings, body) => {
            for (name, values) in bindings {
                expr_lambdas(name, out);
                values.iter().for_each(|e| expr_lambdas(e, out));
            }
            node_lambdas(body, out);
        }
        Node::Seq(nodes)
        | Node::Pipe(nodes, _)
        | Node::AndAnd(nodes)
        | Node::OrOr(nodes)
        | Node::SurfaceSeq(nodes) => nodes.iter().for_each(|n| node_lambdas(n, out)),
        Node::Redir(redirects, body) => {
            for r in redirects {
                match r {
                    Redirect::Create(_, e) | Redirect::Append(_, e) | Redirect::Open(_, e) => {
                        expr_lambdas(e, out)
                    }
                    Redirect::Dup(..) | Redirect::Close(_) | Redirect::Here(..) => {}
                }
            }
            node_lambdas(body, out);
        }
        Node::Bang(body) | Node::Background(body) => node_lambdas(body, out),
        Node::FnDef(name, lambda) => {
            expr_lambdas(name, out);
            if let Some(l) = lambda {
                out.push(Rc::clone(l));
                node_lambdas(&l.body, out);
            }
        }
    }
}

fn expr_lambdas(expr: &Expr, out: &mut Vec<Rc<Lambda>>) {
    match expr {
        Expr::Word(_) | Expr::Prim(_) => {}
        Expr::Var(e) | Expr::VarCount(e) | Expr::VarFlat(e) => expr_lambdas(e, out),
        Expr::VarSub(e, subs) => {
            expr_lambdas(e, out);
            subs.iter().for_each(|s| expr_lambdas(s, out));
        }
        Expr::Concat(a, b) => {
            expr_lambdas(a, out);
            expr_lambdas(b, out);
        }
        Expr::List(items) => items.iter().for_each(|e| expr_lambdas(e, out)),
        Expr::Lambda(l) => {
            out.push(Rc::clone(l));
            node_lambdas(&l.body, out);
        }
        Expr::ClosureLit { bindings, lambda } => {
            for (_, values) in bindings {
                values.iter().for_each(|e| expr_lambdas(e, out));
            }
            out.push(Rc::clone(lambda));
            node_lambdas(&lambda.body, out);
        }
        Expr::CmdSub(n) | Expr::Backquote(n) => node_lambdas(n, out),
    }
}

/// Times `SimOs::fingerprint` and `Machine::recycle` on a machine in
/// its current (used) state; returns `(fingerprint_ns, recycle_ns)`.
pub fn release_costs(m: &mut TracedMachine) -> (u64, u64) {
    let t0 = Instant::now();
    black_box(m.os().inner.fingerprint());
    let t1 = Instant::now();
    m.recycle();
    let t2 = Instant::now();
    (
        t1.duration_since(t0).as_nanos() as u64,
        t2.duration_since(t1).as_nanos() as u64,
    )
}
