//! Rich return values as data structures: the paper's `cons`/`car`/
//! `cdr` example, where pairs are closures and selection is function
//! application — a lambda calculus running in a shell.
//!
//! Run with: `cargo run --example church_lists`

use es_core::Machine;
use es_os::SimOs;

fn main() {
    let mut m = Machine::new(SimOs::new()).expect("machine boots");

    // The three functions, verbatim from the paper.
    m.run("fn cons a d { return @ f { $f $a $d } }").unwrap();
    m.run("fn car p { $p @ a d { return $a } }").unwrap();
    m.run("fn cdr p { $p @ a d { return $d } }").unwrap();

    println!("cons/car/cdr as shell functions (closures as pairs):\n");

    // The paper's nested example.
    let v = m
        .run("result <>{car <>{cdr <>{cons 1 <>{cons 2 <>{cons 3 nil}}}}}")
        .unwrap();
    println!(
        "car (cdr (cons 1 (cons 2 (cons 3 nil))))  =>  {}",
        v.join(" ")
    );

    // Build a longer list with a loop and sum-style traversal.
    m.run(
        "fn build n {
            if {~ $#n 0} {
                return nil
            } {
                return <>{cons $n(1) <>{build $n(2 3 4 5 6 7 8 9)}}
            }
        }",
    )
    .unwrap();
    m.run(
        "fn walk p acc {
            if {~ <>{result $p} nil} {
                return $acc
            } {
                walk <>{cdr $p} $acc <>{car $p}
            }
        }",
    )
    .unwrap();
    m.run("lst = <>{build a b c d e}").unwrap();
    let walked = m.run("result <>{walk $lst}").unwrap();
    println!(
        "walk (build a b c d e)                    =>  {}",
        walked.join(" ")
    );

    // What a pair looks like when unparsed (whatis-style).
    let pair = m.run("result <>{cons hd tl}").unwrap();
    println!("\na cons cell is a closure capturing its parts:");
    println!("  {}", pair.join(" "));

    // GC matters here: build garbage pairs, collect, survivors intact.
    m.heap.collect();
    let before = m.heap.stats().live_after_last;
    m.run("for (i = 1 2 3 4 5 6 7 8 9 0) { tmp = <>{build $i $i $i} }")
        .unwrap();
    m.run("tmp =").unwrap();
    m.heap.collect();
    let after = m.heap.stats().live_after_last;
    println!("\nheap live objects: {before} -> {after} after dropping temporary lists");
    println!("collections so far: {}", m.heap.stats().collections);
}
