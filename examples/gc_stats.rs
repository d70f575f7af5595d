//! The copying collector at work (paper section "Garbage Collection",
//! experiment E4).
//!
//! Runs a loop-heavy shell workload — the paper's observation (2):
//! "command execution can consume large amounts of memory for a short
//! time, especially when loops are involved" — and reports the
//! collector's statistics, including the pause fraction the paper
//! quotes as "roughly 4% of the running time of the shell".
//!
//! Run with: `cargo run --release --example gc_stats`

use es_core::Machine;
use es_os::SimOs;
use std::time::Instant;

fn workload(m: &mut Machine<SimOs>) {
    // Closure churn: build and drop lots of closures and lists.
    m.run("fn mk n { return @ { result $n $n $n } }").unwrap();
    m.run(
        "for (i = 1 2 3 4 5 6 7 8 9 10) {
            acc =
            for (j = a b c d e f g h i j k l m n o p q r s t) {
                acc = $acc <>{mk $i^$j} $i^$j
            }
            keep = $acc(1 5 9)
        }",
    )
    .unwrap();
    m.os_mut().take_output();
}

fn main() {
    let mut m = Machine::new(SimOs::new()).expect("machine boots");

    println!("semispace copying collector — live statistics\n");
    let t0 = Instant::now();
    for round in 1..=20 {
        workload(&mut m);
        if round % 5 == 0 {
            let s = m.heap.stats();
            println!(
                "round {round:2}: {} collections, {} objs allocated, live now ~{}, \
                 total pause {:?}",
                s.collections, s.allocated, s.live_after_last, s.pause_total
            );
        }
    }
    let elapsed = t0.elapsed();
    let s = m.heap.stats().clone();

    println!("\n--- totals ---");
    println!("wall time:            {elapsed:?}");
    println!("collections:          {}", s.collections);
    println!("objects allocated:    {}", s.allocated);
    println!(
        "objects copied:       {} (avg {:.1}/collection)",
        s.copied,
        s.avg_copied()
    );
    println!("text bytes copied:    {}", s.bytes_copied);
    println!(
        "survival rate:        {:.2}% of allocations",
        100.0 * s.survival_rate()
    );
    println!("max pause:            {:?}", s.pause_max);
    println!(
        "gc fraction:          {:.2}% of running time (paper: \"roughly 4%\")",
        100.0 * s.pause_fraction(elapsed)
    );

    // The debug mode the paper recommends: collect at *every*
    // allocation; any missed-rootset bug dies immediately.
    println!("\n--- stress mode (the paper's debugging collector) ---");
    let mut m = Machine::new(SimOs::new()).expect("machine boots");
    m.heap.set_stress(true);
    let t0 = Instant::now();
    m.run("for (i = 1 2 3 4 5) { x = $i <>{result a b c} }")
        .unwrap();
    println!(
        "5 iterations under collect-per-allocation: {} collections in {:?} — all refs survived",
        m.heap.stats().collections,
        t0.elapsed()
    );
}
