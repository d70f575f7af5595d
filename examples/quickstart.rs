//! Quickstart: boot an es machine on the simulated kernel and walk
//! through the language features the paper introduces.
//!
//! Run with: `cargo run --example quickstart`

use es_core::Machine;
use es_os::SimOs;

fn show(m: &mut Machine<SimOs>, src: &str) {
    println!("es> {src}");
    match m.run(src) {
        Ok(_) => {
            let out = m.os_mut().take_output();
            if !out.is_empty() {
                print!("{out}");
            }
            let err = m.os_mut().take_error();
            if !err.is_empty() {
                print!("{err}");
            }
        }
        Err(e) => println!("exception: {e}"),
    }
}

fn main() {
    let mut m = Machine::new(SimOs::new()).expect("machine boots");

    println!("--- simple commands (es looks like any shell) ---");
    show(&mut m, "echo hello, world");
    show(&mut m, "pwd");
    show(&mut m, "echo one two | wc -l");

    println!("\n--- functions and lambdas ---");
    show(&mut m, "fn d { date +%y-%m-%d }");
    show(&mut m, "d");
    show(&mut m, "fn apply cmd args { for (i = $args) $cmd $i }");
    show(&mut m, "apply echo testing 1.. 2.. 3..");
    show(&mut m, "apply @ i {echo [$i]} a b");

    println!("\n--- code fragments are data ---");
    show(&mut m, "silly-command = {echo hi}");
    show(&mut m, "$silly-command");
    show(&mut m, "mixed = {ls /} hello, {wc} world");
    show(&mut m, "echo $mixed(2) $mixed(4)");

    println!("\n--- lexical vs dynamic binding ---");
    show(&mut m, "x = foo");
    show(&mut m, "let (x = bar) { echo $x; fn lexical { echo $x } }");
    show(&mut m, "lexical");
    show(&mut m, "local (x = baz) { fn dynamic { echo $x } }");
    show(&mut m, "dynamic");

    println!("\n--- rich return values ---");
    show(&mut m, "fn hello-world { return 'hello, world' }");
    show(&mut m, "echo <>{hello-world}");

    println!("\n--- exceptions ---");
    show(
        &mut m,
        "catch @ e msg { echo caught: $e $msg } { throw error oops }",
    );

    println!("\n--- spoofing: noclobber in five lines ---");
    show(
        &mut m,
        "let (create = $fn-%create) fn %create fd file cmd { if {test -f $file} { throw error $file exists } { $create $fd $file $cmd } }",
    );
    show(&mut m, "echo first > /tmp/f");
    show(&mut m, "echo second > /tmp/f");
    show(&mut m, "cat /tmp/f");

    println!("\n--- the whole shell state, as an environment ---");
    let env = m.export_environment();
    println!(
        "{} variables exported, including function definitions:",
        env.len()
    );
    for (k, v) in env.iter().filter(|(k, _)| k == "fn-d") {
        println!("  {k}={v}");
    }
}
