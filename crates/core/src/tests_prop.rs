//! Property tests: algebraic laws of the es value/evaluation model,
//! checked against randomly generated data — many under GC stress
//! mode, which collects on every allocation (the paper's debugging
//! collector), so any missed root dies loudly.

use crate::governor::Kind;
use crate::machine::Machine;
use es_os::SimOs;
use es_syntax::print::quote;
use proptest::prelude::*;

fn machine() -> Machine<SimOs> {
    Machine::new(SimOs::new()).expect("machine boots")
}

fn stress_machine() -> Machine<SimOs> {
    let mut m = machine();
    m.heap.set_stress(true);
    m
}

/// es word strategy: printable, no newline (quoting handles the rest).
fn word() -> impl Strategy<Value = String> {
    "[ -~]{0,12}"
}

fn words() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(word(), 0..8)
}

/// A machine booted from `parent`'s exported environment.
fn child_of(parent: &Machine<SimOs>) -> Machine<SimOs> {
    let mut os = SimOs::new();
    os.set_initial_env(parent.export_environment().to_vec());
    Machine::new(os).expect("child boots")
}

fn quoted_list(items: &[String]) -> String {
    items.iter().map(|w| quote(w)).collect::<Vec<_>>().join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `result <list>` is the identity on lists.
    #[test]
    fn prop_result_is_identity(items in words()) {
        let mut m = machine();
        let got = m.run(&format!("result {}", quoted_list(&items))).unwrap();
        prop_assert_eq!(got, items);
    }

    /// Assignment then reference round-trips any list (under GC
    /// stress, so every value moves many times).
    #[test]
    fn prop_assign_lookup_roundtrip(items in words()) {
        let mut m = stress_machine();
        m.run(&format!("v = {}", quoted_list(&items))).unwrap();
        prop_assert_eq!(m.get_var("v"), items);
    }

    /// `$#v` is the length and `$v(i)` is 1-based indexing.
    #[test]
    fn prop_count_and_subscript(items in words(), idx in 1usize..12) {
        let mut m = machine();
        m.run(&format!("v = {}", quoted_list(&items))).unwrap();
        let count = m.run("result $#v").unwrap();
        prop_assert_eq!(count, vec![items.len().to_string()]);
        let got = m.run(&format!("result $v({idx})")).unwrap();
        match items.get(idx - 1) {
            Some(w) => prop_assert_eq!(got, vec![w.clone()]),
            None => prop_assert!(got.is_empty()),
        }
    }

    /// `$^v` equals the elements joined with single spaces.
    #[test]
    fn prop_flatten_joins(items in words()) {
        let mut m = machine();
        m.run(&format!("v = {}", quoted_list(&items))).unwrap();
        let got = m.run("result $^v").unwrap();
        prop_assert_eq!(got, vec![items.join(" ")]);
    }

    /// Distributive concatenation: single ^ list = elementwise prefix.
    #[test]
    fn prop_concat_distributes(prefix in "[a-z]{1,5}", items in proptest::collection::vec("[a-z]{1,6}", 1..6)) {
        let mut m = machine();
        m.run(&format!("v = {}", items.join(" "))).unwrap();
        let got = m.run(&format!("result {prefix}^$v")).unwrap();
        let want: Vec<String> = items.iter().map(|w| format!("{prefix}{w}")).collect();
        prop_assert_eq!(got, want);
    }

    /// Pairwise concatenation of equal-length lists.
    #[test]
    fn prop_concat_pairwise(pairs in proptest::collection::vec(("[a-z]{1,4}", "[0-9]{1,4}"), 1..6)) {
        let mut m = machine();
        let left: Vec<String> = pairs.iter().map(|(a, _)| a.clone()).collect();
        let right: Vec<String> = pairs.iter().map(|(_, b)| b.clone()).collect();
        m.run(&format!("l = {}", left.join(" "))).unwrap();
        m.run(&format!("r = {}", right.join(" "))).unwrap();
        let got = m.run("result $l^$r").unwrap();
        let want: Vec<String> = pairs.iter().map(|(a, b)| format!("{a}{b}")).collect();
        prop_assert_eq!(got, want);
    }

    /// echo prints its arguments space-joined plus newline.
    #[test]
    fn prop_echo_roundtrip(items in proptest::collection::vec("[a-zA-Z0-9_.,:/-]{1,10}", 0..6)) {
        let mut m = machine();
        m.run(&format!("echo {}", quoted_list(&items))).unwrap();
        prop_assert_eq!(m.os_mut().take_output(), format!("{}\n", items.join(" ")));
    }

    /// A lambda returning its arguments is the identity under `<>`.
    #[test]
    fn prop_lambda_identity(items in words()) {
        let mut m = stress_machine();
        m.run("fn id { result $* }").unwrap();
        let got = m.run(&format!("result <>{{id {}}}", quoted_list(&items))).unwrap();
        prop_assert_eq!(got, items);
    }

    /// for-loop visits every element in order (accumulating into a
    /// global), regardless of contents.
    #[test]
    fn prop_for_visits_in_order(items in proptest::collection::vec("[a-z]{1,6}", 0..10)) {
        let mut m = machine();
        m.run(&format!("src = {}", quoted_list(&items))).unwrap();
        m.run("acc =").unwrap();
        m.run("for (i = $src) { acc = $acc $i }").unwrap();
        prop_assert_eq!(m.get_var("acc"), items);
    }

    /// let-scoping restores the outer value, always.
    #[test]
    fn prop_let_restores(outer in words(), inner in words()) {
        let mut m = machine();
        m.run(&format!("v = {}", quoted_list(&outer))).unwrap();
        m.run(&format!("let (v = {}) {{ result $v }}", quoted_list(&inner))).unwrap();
        prop_assert_eq!(m.get_var("v"), outer);
    }

    /// local-scoping too, via dynamic binding.
    #[test]
    fn prop_local_restores(outer in words(), inner in words()) {
        let mut m = machine();
        m.run(&format!("v = {}", quoted_list(&outer))).unwrap();
        m.run(&format!("local (v = {}) {{ result $v }}", quoted_list(&inner))).unwrap();
        prop_assert_eq!(m.get_var("v"), outer);
    }

    /// Exceptions carry arbitrary payloads through catch unchanged.
    #[test]
    fn prop_throw_catch_payload(items in proptest::collection::vec("[a-z0-9]{1,8}", 1..6)) {
        let mut m = machine();
        let got = m
            .run(&format!(
                "catch @ e {{ result $e }} {{ throw {} }}",
                items.join(" ")
            ))
            .unwrap();
        prop_assert_eq!(got, items);
    }

    /// The environment codec is a lossless round trip for plain
    /// variables with arbitrary printable contents, the list separator
    /// and its escape among them.
    #[test]
    fn prop_env_roundtrip_plain_vars(items in proptest::collection::vec("[ -~\u{1}\u{2}]{0,10}", 0..5)) {
        let mut parent = machine();
        parent.run(&format!("payload = {}", quoted_list(&items))).unwrap();
        let child = child_of(&parent);
        prop_assert_eq!(child.get_var("payload"), parent.get_var("payload"));
    }

    /// The same holds for the words a function captured.
    #[test]
    fn prop_env_roundtrip_captured_vars(items in proptest::collection::vec("[ -~\u{1}\u{2}]{0,10}", 0..5)) {
        let mut parent = machine();
        parent.run(&format!("let (c = {}) fn f {{ result $c }}", quoted_list(&items))).unwrap();
        let mut child = child_of(&parent);
        prop_assert_eq!(child.run("f").unwrap(), items);
    }

    /// whatis output reparses to an equivalent definition: define,
    /// unparse, redefine from the text, compare behaviour.
    #[test]
    fn prop_unparse_reparse_functions(
        captured in "[a-z]{1,6}",
        arg in "[a-z]{1,6}",
    ) {
        let mut m = machine();
        let def = format!("let (c = {captured}) fn f {{ echo $c $* }}");
        m.run(&def).unwrap();
        let env = m.export_environment();
        let encoded = env
            .iter()
            .find(|(k, _)| k == "fn-f")
            .map(|(_, v)| v)
            .expect("fn-f exported");
        m.run(&format!("fn-g = {encoded}")).unwrap();
        m.run(&format!("f {arg}; g {arg}")).unwrap();
        let out = m.os_mut().take_output();
        let lines: Vec<&str> = out.lines().collect();
        prop_assert_eq!(lines.len(), 2);
        prop_assert_eq!(lines[0], lines[1], "f and its reparsed copy agree");
    }

    /// ~ matching agrees with the es-match crate on literal patterns.
    #[test]
    fn prop_match_agrees_with_es_match(subject in "[a-z]{0,8}", pattern in "[a-z*?]{1,8}") {
        let mut m = machine();
        let got = m
            .run(&format!("~ {} {}", quote(&subject), pattern))
            .unwrap();
        let want = es_match::Pattern::parse(&pattern).matches(&subject);
        prop_assert_eq!(got == vec!["0".to_string()], want);
    }

    /// Deterministic replay: the same program in two fresh machines
    /// produces identical output and heap statistics shape.
    #[test]
    fn prop_deterministic(items in proptest::collection::vec("[a-z]{1,5}", 1..5)) {
        let program = format!(
            "v = {}; for (i = $v) {{ echo $i }}; echo $#v",
            items.join(" ")
        );
        let mut m1 = machine();
        let mut m2 = machine();
        m1.run(&program).unwrap();
        m2.run(&program).unwrap();
        prop_assert_eq!(m1.os_mut().take_output(), m2.os_mut().take_output());
        prop_assert_eq!(m1.heap.stats().allocated, m2.heap.stats().allocated);
    }
}

// --------------------------------------------------------------------------
// Literal and computed variable references. A literal target (`$n`)
// is looked up by the word's own text; a computed one (`$$h` with
// `h = n`) is evaluated first. Both must name the same binding, for
// every way a name can be bound.
// --------------------------------------------------------------------------

/// How the name under test is bound.
#[derive(Debug, Clone, Copy)]
enum BindingKind {
    Global,
    Let,
    Local,
    Param,
    /// `$*`, bound by `@ {...}`.
    Star,
    /// An unbound all-digit name: indexes `$*`.
    Positional,
}

const BINDING_KINDS: [BindingKind; 6] = [
    BindingKind::Global,
    BindingKind::Let,
    BindingKind::Local,
    BindingKind::Param,
    BindingKind::Star,
    BindingKind::Positional,
];

/// The name `kind` binds: `name` itself, `*`, or the digits of `index`.
fn bound_name(kind: BindingKind, name: &str, index: usize) -> String {
    match kind {
        BindingKind::Star => "*".into(),
        BindingKind::Positional => index.to_string(),
        _ => name.into(),
    }
}

/// A program that binds `kind`'s name to `values` and then runs `body`.
fn bind(kind: BindingKind, name: &str, values: &str, body: &str) -> String {
    match kind {
        BindingKind::Global => format!("{name} = {values}; {body}"),
        BindingKind::Let => format!("let ({name} = {values}) {{{body}}}"),
        BindingKind::Local => format!("local ({name} = {values}) {{{body}}}"),
        BindingKind::Param => format!("@ {name} {{{body}}} {values}"),
        BindingKind::Star | BindingKind::Positional => format!("@ {{{body}}} {values}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `$n` reads what was bound, and `$n`, `$#n`, `$^n` and `$n(i)`
    /// equal `$$h`, `$#$h`, `$^$h` and `$$h(i)` with `h = n`.
    #[test]
    fn prop_literal_and_computed_references_agree(
        kind in 0usize..BINDING_KINDS.len(),
        name in "[a-g]{1,3}",
        index in 1usize..6,
        items in words(),
        sub in 0usize..7,
    ) {
        let kind = BINDING_KINDS[kind];
        let values = quoted_list(&items);
        let n = bound_name(kind, &name, index);
        let read = bind(kind, &name, &values, &format!("result ${n}"));
        let want = match kind {
            BindingKind::Positional => items.get(index - 1).into_iter().cloned().collect(),
            _ => items.clone(),
        };
        prop_assert_eq!(machine().run(&read), Ok(want), "{}", read);
        let forms = [
            (format!("${n}"), "$$h".to_string()),
            (format!("$#{n}"), "$#$h".to_string()),
            (format!("$^{n}"), "$^$h".to_string()),
            (format!("${n}({sub})"), format!("$$h({sub})")),
        ];
        for (literal, computed) in forms {
            let lit = bind(kind, &name, &values, &format!("result {literal}"));
            let comp = bind(
                kind,
                &name,
                &values,
                &format!("let (h = {}) result {computed}", quote(&n)),
            );
            let want = machine().run(&lit);
            prop_assert_eq!(stress_machine().run(&comp), want, "{} vs {}", lit, comp);
        }
    }

    /// `$x` shares the bound list; rebinding `x` afterwards leaves a
    /// copy taken by `y = $x` unchanged, whether the copy went through
    /// a settor or a closure captured it.
    #[test]
    fn prop_shared_lists_stay_put(first in words(), second in words()) {
        let (a, b) = (quoted_list(&first), quoted_list(&second));
        let programs = [
            format!("x = {a}; y = $x; x = {b}; result $y"),
            format!("let (x = {a}) {{y = $x; x = {b}; result $y}}"),
            format!("set-y = @ {{result $*}}; x = {a}; y = $x; x = {b}; result $y"),
            format!("x = {a}; let (y = $x) f = {{result $y}}; x = {b}; $f"),
            format!("let (x = {a}) {{f = {{result $x}}; y = <>{{$f}}; x = {b}; result $y}}"),
        ];
        for program in &programs {
            prop_assert_eq!(stress_machine().run(program), Ok(first.clone()), "{}", program);
        }
    }
}

// --------------------------------------------------------------------------
// The touched set behind `Machine::recycle`: whatever a session
// stores, creates and removes, a recycle gives back the boot globals,
// and the set never names more globals than the session touched.
// --------------------------------------------------------------------------

/// Boot globals and names boot never made.
const TOUCH_NAMES: [&str; 6] = ["prompt", "home", "fn-echo", "fresh", "extra", "fn-new"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each step is a recycle, a removal (`name =`) or a store, which
    /// creates the name if it is missing. After each recycle the
    /// globals and the environment are a cold machine's. At every step
    /// the set is no longer than the list of distinct names touched
    /// since the last recycle; it holds just those of them that boot
    /// made or that are live.
    #[test]
    fn prop_touched_set_restores_and_stays_bounded(
        steps in proptest::collection::vec((0usize..5, 0usize..TOUCH_NAMES.len()), 0..40),
    ) {
        let cold = machine().export_environment();
        let mut m = machine();
        let boot = m.global_names();
        let mut touched = std::collections::BTreeSet::new();
        for (i, (op, at)) in steps.into_iter().enumerate() {
            let name = TOUCH_NAMES[at];
            match op {
                0 => {
                    prop_assert!(m.recycle());
                    touched.clear();
                    prop_assert!(m.globals_are_boot(), "step {}", i);
                    prop_assert_eq!(&*m.export_environment(), &*cold, "step {}", i);
                }
                1 => {
                    let sym = m.heap.intern("", name);
                    m.assign_raw(es_gc::Ref::NIL, sym, es_gc::Ref::NIL);
                    touched.insert(name);
                }
                _ => {
                    m.set_global_strs(name, &[&i.to_string()]);
                    touched.insert(name);
                }
            }
            prop_assert!(
                m.touched_len() <= touched.len(),
                "step {}: {} names in the set, {} touched",
                i,
                m.touched_len(),
                touched.len()
            );
            let kept = touched
                .iter()
                .filter(|n| boot.iter().any(|b| b == *n) || !m.get_var(n).is_empty())
                .count();
            prop_assert_eq!(m.touched_len(), kept, "step {}", i);
        }
    }
}

// --------------------------------------------------------------------------
// Fault-injection soak (experiment E10): hundreds of seeded fault
// plans against a scripted session exercising the whole I/O surface.
// Three invariants per seed: the interpreter never panics, the kernel
// descriptor table returns to its baseline (no fd leaks on any error
// or exception path), and a second run of the same seed is
// byte-identical (outputs, command results, and the fault log).
// --------------------------------------------------------------------------

/// The session every soak seed runs: redirections, appends, pipes,
/// here-docs, backquote, functions, catch, externals, and cleanup —
/// each a path where an injected fault historically could leak a
/// descriptor or corrupt the fd table.
const SOAK_SESSION: &[&str] = &[
    "cd /tmp",
    "echo alpha > soak.txt",
    "echo beta >> soak.txt",
    "cat soak.txt",
    "cat soak.txt | tr a-z A-Z | sort",
    "fn shout words { echo $words'!' }",
    "shout soak run",
    "x = `{cat soak.txt}; echo $#x",
    "cat << 'from a here doc'",
    "catch @ e { echo caught $e } { cat /no/such/file }",
    "catch @ e { echo caught $e } { echo trapped > soak.txt; cat soak.txt }",
    "ls | wc -l",
    "rm -f soak.txt",
];

/// One full soak run: boots a clean machine, arms the seeded plan, and
/// drives the session through the shared harness (errors are data
/// here, not failures). Returns the trace plus the fault log.
fn soak_run(seed: u64) -> (crate::harness::SessionTrace, Vec<String>) {
    let mut m = machine();
    m.os_mut()
        .set_fault_plan(Some(es_os::FaultPlan::new(seed).uniform_rate(200)));
    let trace = crate::harness::run_session(&mut m, SOAK_SESSION);
    let log: Vec<String> = m
        .os_mut()
        .take_fault_log()
        .iter()
        .map(|e| e.to_string())
        .collect();
    (trace, log)
}

#[test]
fn soak_fault_plans_no_panic_no_leak_deterministic_replay() {
    let mut injected_total = 0usize;
    for seed in 0..256u64 {
        let (trace, log) = soak_run(seed);
        assert_eq!(
            trace.fd_delta(),
            0,
            "seed {seed} leaked descriptors (fault log: {log:?})"
        );
        injected_total += log.len();
        // Byte-identical replay from the same seed.
        let (trace2, log2) = soak_run(seed);
        assert_eq!(trace, trace2, "seed {seed} trace diverges on replay");
        assert_eq!(log, log2, "seed {seed} fault log diverges on replay");
    }
    assert!(
        injected_total > 1000,
        "the soak should see plenty of weather, saw {injected_total} injections"
    );
}

// --------------------------------------------------------------------------
// Governor soak (ISSUE 4): seeded fault plans *and* a tight step
// budget at the same time. Limit breaches, injected syscall faults,
// and caught exceptions all interleave; the invariants are the same
// as the E10 soak — no panic, no descriptor leak, byte-identical
// replay — plus the budget actually firing often enough to matter.
// --------------------------------------------------------------------------

/// A session built to trip budgets: runaway loops under catch, deep
/// recursion, output floods, and ordinary I/O for the fault plan to
/// chew on. Every command re-arms a fresh step budget (a breach
/// disarms the tripped kind so the handler itself can run).
const LIMIT_SOAK_SESSION: &[&str] = &[
    "cd /tmp",
    "catch @ e kind used max {echo caught $e $kind} {forever {echo spin > spin.txt}}",
    "fn f { f; result x }",
    "catch @ e kind used max {echo caught $e $kind} {f}",
    "catch @ e kind used max {echo caught $e $kind} {forever {x = $x pad}}",
    "echo alpha > soak.txt",
    "catch @ e {echo caught $e} {cat soak.txt | tr a-z A-Z}",
    "catch @ e {echo caught $e} {y = `{cat soak.txt}; echo $#y}",
    "catch @ e {echo caught $e} {while {true} {}}",
    "rm -f soak.txt spin.txt",
];

/// One governed soak run for a seed: a fault plan (as in E10) plus a
/// step budget that varies with the seed, tight enough that the loop
/// commands always breach it. The budget is re-armed before every
/// command via the harness hook (a breach disarms the tripped kind).
fn limit_soak_run(seed: u64) -> (crate::harness::SessionTrace, Vec<String>) {
    let mut m = machine();
    m.os_mut()
        .set_fault_plan(Some(es_os::FaultPlan::new(seed).uniform_rate(150)));
    let budget = 400 + (seed % 7) * 100;
    let trace = crate::harness::run_session_with(&mut m, LIMIT_SOAK_SESSION, |m| {
        m.arm_limit(Kind::Steps, budget);
    });
    let log: Vec<String> = m
        .os_mut()
        .take_fault_log()
        .iter()
        .map(|e| e.to_string())
        .collect();
    (trace, log)
}

#[test]
fn soak_limits_no_panic_no_leak_deterministic_replay() {
    let mut breaches = 0usize;
    for seed in 0..256u64 {
        let (trace, log) = limit_soak_run(seed);
        assert_eq!(
            trace.fd_delta(),
            0,
            "seed {seed} leaked descriptors (fault log: {log:?})"
        );
        breaches += trace
            .outcomes
            .iter()
            .filter(|o| o.contains("limit"))
            .count()
            + trace.stdout.matches("caught limit").count();
        // Byte-identical replay from the same seed.
        let (trace2, log2) = limit_soak_run(seed);
        assert_eq!(trace, trace2, "seed {seed} trace diverges on replay");
        assert_eq!(log, log2, "seed {seed} fault log diverges on replay");
    }
    assert!(
        breaches > 256,
        "the step budget should trip constantly, saw {breaches} breaches"
    );
}

// --------------------------------------------------------------------------
// Name resolution. Every name is interned once and compared as a
// symbol; which symbol a name gets depends on what the machine interned
// before. So a program must behave the same on a fresh machine, on a
// recycled one whose table was filled by other sessions first, and
// under GC stress.
// --------------------------------------------------------------------------

/// Names a generated program binds and resolves: short, past the 40
/// bytes a stack-built name holds, and non-ASCII.
const RESOLVED_NAMES: [&str; 6] = [
    "a",
    "bb",
    "a_variable_name_that_is_longer_than_forty_bytes",
    "ñame",
    "日本",
    "x1",
];

/// One statement of a generated program, over names `n` and `o` and a
/// distinguishing number `i`: bindings of every kind, settors on
/// global and lexical names, function definitions and calls, and
/// computed names. Errors (an unbound command) are part of the outcome.
fn name_statement(kind: usize, n: &str, o: &str, i: usize) -> String {
    match kind {
        0 => format!("{n} = v{i} w{i}"),
        1 => format!("let ({n} = l{i}) {{ echo let ${n} $#{o} }}"),
        2 => format!("local ({n} = d{i}) {{ echo local $^{n} $^{o} }}"),
        3 => format!("for ({n} = f{i} g{i}; {o} = h{i}) {{ echo for ${n} $#{o} }}"),
        4 => format!("@ {n} {o} {{ echo lambda $^{n} $^{o} $#* }} p{i} q{i} r{i}"),
        5 => format!("set-{n} = @ {{ result set{i}-$* }}"),
        6 => format!("{n} = s{i}; echo assigned $^{n}"),
        7 => format!("let ({n} = o{i}) {{ {n} = n{i}; echo lexical $^{n} }}"),
        8 => format!("let (set-{n} = @ {{ result L{i}$* }}) {{ {n} = z{i}; echo lexset $^{n} }}"),
        9 => format!("fn {n} p {{ echo fn{i} $^p $^{o} }}"),
        10 => format!("{n} c{i}"),
        11 => format!("h = {n}; echo computed $^$h $#$h"),
        12 => format!("h = {n}; $(fn-$h) comp{i}"),
        13 => format!("fn-{n} ="),
        14 => format!("set-{n} ="),
        15 => format!("local (set-{n} = ) {{ {n} = q{i}; echo unset $^{n} }}"),
        _ => format!("catch @ e {{ echo caught $e }} {{ whatis {n} }}"),
    }
}

/// Runs `program` one statement at a time; returns each outcome, then
/// stdout and stderr.
fn name_outcomes(m: &mut Machine<SimOs>, program: &[String]) -> Vec<String> {
    let mut out: Vec<String> = program.iter().map(|s| format!("{:?}", m.run(s))).collect();
    out.push(m.os_mut().take_output());
    out.push(m.os_mut().take_error());
    out
}

/// A machine recycled after a session that bound other names, and that
/// has since interned more names without binding any: the program's
/// names get other symbols than on a fresh machine.
fn reinterned_machine() -> Machine<SimOs> {
    let mut m = machine();
    m.run("for (i = 1 2 3 4 5 6 7 8 9 10) { v$i = $i; fn-f$i = {} }")
        .unwrap();
    for name in RESOLVED_NAMES {
        m.run(&format!(
            "fn pre-{name} {{}}; {name} = 1; let (set-{name} = ) {{}}"
        ))
        .unwrap();
    }
    assert!(m.recycle());
    let mut unbound: Vec<String> = RESOLVED_NAMES.iter().map(|n| format!("$#{n}")).collect();
    unbound.reverse();
    m.run(&format!(
        "let (t1 = 1; t2 = 2) {{ result $u1 $#u2 {} }}",
        unbound.join(" ")
    ))
    .unwrap();
    m.os_mut().take_output();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Outcomes, stdout and stderr agree between a fresh machine, a
    /// recycled one that interned other names first, and GC stress.
    #[test]
    fn prop_names_resolve_alike_whatever_was_interned_first(
        statements in proptest::collection::vec(
            (0usize..17, 0usize..RESOLVED_NAMES.len(), 0usize..RESOLVED_NAMES.len()),
            1..12,
        ),
    ) {
        let program: Vec<String> = statements
            .iter()
            .enumerate()
            .map(|(i, &(kind, n, o))| name_statement(kind, RESOLVED_NAMES[n], RESOLVED_NAMES[o], i))
            .collect();
        let want = name_outcomes(&mut machine(), &program);
        prop_assert_eq!(
            &name_outcomes(&mut reinterned_machine(), &program),
            &want,
            "recycled: {:?}",
            program
        );
        prop_assert_eq!(
            &name_outcomes(&mut stress_machine(), &program),
            &want,
            "stress: {:?}",
            program
        );
    }
}
