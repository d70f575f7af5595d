//! Counted mallocs for evaluation: reading a variable, calling a
//! function and assigning through a settor copy no name, so 64 of
//! them make as many mallocs as one.
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
    let mut m = Machine::new(SimOs::new()).expect("machine boots");
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

/// Lexing makes one string per word and the parser moves it into the
/// tree, so this count changes only with the front end's data layout.
#[test]
fn parse_and_lower_mallocs_are_pinned() {
    let words: Vec<String> = (1..32).map(|i| format!("w{i}")).collect();
    let line = format!("echo {}", words.join(" "));
    assert_eq!(line.split(' ').count(), 32);
    assert_eq!(front_end_mallocs(&line), 77);
}
