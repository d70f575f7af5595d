//! Counted mallocs for evaluation: reading a variable, calling a
//! function and assigning through a settor copy no name, so 64 of
//! them make as many mallocs as one. Boot state is shared, not
//! copied: a launch makes as many mallocs with 64 more exported
//! globals, and a recycled session's first file write as many with 64
//! more boot files. A pipe reads only its descriptor words, so one
//! under a `let` of 64 words makes as many mallocs as under one, and
//! `~` and `^` read their words in place, so matching or concatenating
//! 64 words makes as many as one.
//!
//! A line's *evaluation-only* mallocs are those of `run_text(line)`
//! minus those of `lower(parse_program(line))` on the same text. They
//! are counted after a first run of the line and a `$&collect`, so the
//! heap's space, its text arena and the root stack are already big
//! enough and a second run grows none of them.
//!
//! A counting global allocator tallies the allocations made on the
//! calling thread (the test harness runs tests on parallel threads),
//! so every count below repeats exactly.

use es_core::Machine;
use es_os::SimOs;
use es_syntax::{lower, parse_program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    /// Allocations made on this thread.
    static MALLOCS: Cell<u64> = const { Cell::new(0) };
}

// The default `realloc` calls `alloc` and `dealloc` on this allocator,
// so a reallocation counts as one malloc.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread's locals
        // are being torn down.
        let _ = MALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`
        // (every allocation above is forwarded there).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns the mallocs it made on this thread.
fn counted(f: impl FnOnce()) -> u64 {
    let before = MALLOCS.with(Cell::get);
    f();
    MALLOCS.with(Cell::get) - before
}

/// Mallocs made parsing and lowering `line`.
fn front_end_mallocs(line: &str) -> u64 {
    counted(|| {
        black_box(lower(parse_program(line).expect("line parses")));
    })
}

/// A machine that has run `setup`.
fn machine(setup: &str) -> Machine<SimOs> {
    machine_on(SimOs::new(), setup)
}

/// A machine booted on `os` that has run `setup`.
fn machine_on(os: SimOs, setup: &str) -> Machine<SimOs> {
    let mut m = Machine::new(os).expect("machine boots");
    m.run_quiet(setup).expect("setup runs");
    m
}

/// Evaluation-only mallocs of `line` on a machine that has run
/// `setup` (see the module docs).
fn eval_mallocs(setup: &str, line: &str) -> u64 {
    let mut m = machine(setup);
    m.run_quiet(line).expect("line runs");
    m.run_quiet("$&collect").expect("collect runs");
    let total = counted(|| assert!(m.run_text(line).is_ok(), "line runs"));
    total - front_end_mallocs(line)
}

/// `n` copies of `item`, joined by `sep`.
fn repeat(item: &str, sep: &str, n: usize) -> String {
    vec![item; n].join(sep)
}

#[test]
fn variable_reads_make_no_malloc_per_read() {
    // `result` leaves its list to the collector; a list kept in a
    // variable would outgrow the space the first run left.
    let setup = "x = a b c";
    let one = eval_mallocs(setup, "result $x");
    let many = eval_mallocs(setup, &format!("result {}", repeat("$x", " ", 64)));
    assert_eq!(many, one, "64 reads of $x vs 1");
}

#[test]
fn function_calls_make_no_malloc_per_call() {
    let setup = "fn f {}";
    let one = eval_mallocs(setup, "f");
    let many = eval_mallocs(setup, &repeat("f", "; ", 64));
    assert_eq!(many, one, "64 calls of f vs 1");
}

#[test]
fn settor_assignments_make_no_malloc_per_assignment() {
    let setup = "set-s = @ v { result $v }";
    let one = eval_mallocs(setup, "s = a");
    let many = eval_mallocs(setup, &repeat("s = a", "; ", 64));
    assert_eq!(many, one, "64 assignments through set-s vs 1");
}

/// `n` exported globals, one assignment each.
fn globals(n: usize) -> String {
    (0..n)
        .map(|i| format!("extra-{i} = value-{i}"))
        .collect::<Vec<_>>()
        .join("; ")
}

#[test]
fn launches_make_no_malloc_per_exported_global() {
    // Debug builds check every shared-export hit against a rebuild,
    // which mallocs per global; an export on the same state makes the
    // same check, so its count is the check's.
    fn launch_mallocs(setup: &str) -> u64 {
        let check = if cfg!(debug_assertions) {
            let m = machine(setup);
            counted(|| {
                black_box(m.export_environment());
            })
        } else {
            0
        };
        eval_mallocs(setup, "/bin/true") - check
    }
    let few = launch_mallocs("x = a");
    let many = launch_mallocs(&format!("x = a; {}", globals(64)));
    assert_eq!(many, few, "/bin/true with 64 more exported globals vs none");
}

#[test]
fn first_write_after_recycle_makes_no_malloc_per_boot_file() {
    fn first_write_mallocs(os: SimOs) -> u64 {
        let line = "echo a > /tmp/s";
        let mut m = machine_on(os, line);
        assert!(m.recycle());
        let total = counted(|| assert!(m.run_text(line).is_ok(), "line runs"));
        total - front_end_mallocs(line)
    }
    let mut big = SimOs::new();
    for i in 0..64 {
        big.vfs_mut()
            .put_file(&format!("/srv/blob-{i}"), &[b'x'; 1024])
            .expect("file written");
    }
    let boot = first_write_mallocs(SimOs::new());
    let bigger = first_write_mallocs(big);
    assert_eq!(
        bigger, boot,
        "first write with 64 more 1-KiB boot files vs none"
    );
}

#[test]
fn pipes_make_no_malloc_per_captured_word() {
    // Each stage is a closure over the `let`, so rendering a stage
    // renders every word it captured.
    fn pipe_mallocs(n: usize) -> u64 {
        let words: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
        eval_mallocs(
            "",
            &format!("let (v = {}) {{ true | true }}", words.join(" ")),
        )
    }
    assert_eq!(
        pipe_mallocs(64),
        pipe_mallocs(1),
        "`true | true` under a 64-word let vs 1"
    );
}

#[test]
fn matches_and_concatenations_make_no_malloc_per_word() {
    // No word of `$x` matches, so `~` tries every one.
    fn word_mallocs(n: usize, line: &str) -> u64 {
        let words: Vec<String> = (0..n).map(|i| format!("w{i}")).collect();
        eval_mallocs(&format!("x = {}", words.join(" ")), line)
    }
    for line in ["~ $x abc", "~ $x a*", "result $x^-s"] {
        assert_eq!(
            word_mallocs(64, line),
            word_mallocs(1, line),
            "`{line}` with 64 words in $x vs 1"
        );
    }
}

/// Lexing makes one string per word, the parser moves it into the
/// tree, and lowering works in place, so this count changes only with
/// the front end's data layout.
#[test]
fn parse_and_lower_mallocs_are_pinned() {
    let words: Vec<String> = (1..32).map(|i| format!("w{i}")).collect();
    let line = format!("echo {}", words.join(" "));
    assert_eq!(line.split(' ').count(), 32);
    assert_eq!(front_end_mallocs(&line), 37);
}

/// A word keeps its quoted byte ranges beside its one string, the
/// first range inline, so quoting a word costs no malloc.
#[test]
fn quoting_costs_no_malloc() {
    let bare: Vec<String> = (0..32).map(|i| format!("w{i}")).collect();
    let quoted: Vec<&str> = (0..32)
        .map(|i| if i % 2 == 0 { "'a''b'c" } else { "x'y'" })
        .collect();
    assert_eq!(
        front_end_mallocs(&quoted.join(" ")),
        front_end_mallocs(&bare.join(" ")),
        "32 words with quoting vs 32 bare words"
    );
}

/// `lower` rewrites only surface nodes; a core tree (here nested
/// `let`/`local`, `<>{}` and lambdas) is walked in place.
#[test]
fn lowering_a_core_tree_makes_no_malloc() {
    let src = "let (a = <>{b}) { local (c = @ x { let (d = e) { <>{f $x} } }) { g {h}; i } }";
    let core = lower(parse_program(src).expect("line parses"));
    assert_eq!(counted(|| drop(black_box(lower(core)))), 0);
}
