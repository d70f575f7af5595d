//! "Variables can hold a list of commands, or even a list of lambdas.
//! This makes variables into versatile tools. For example, a variable
//! could be used as a function dispatch table." — the paper, made
//! concrete: a tiny task-runner application whose subcommands live in
//! a pair of parallel es lists, with `expr` doing the bookkeeping.
//!
//! Run with: `cargo run --example dispatch_table`

use es_core::Machine;
use es_os::SimOs;

const APP: &str = r#"
# A dispatch table: names in one list, lambdas in the other.
commands = status add done help
handlers = @ {
    echo $#todo task(s) pending:
    for (t = $todo) echo ' *' $t
} @ {
    todo = $todo $^*
    echo added: $^*
} @ {
    echo finished: $todo(1)
    todo = $todo(2 3 4 5 6 7 8 9)
} @ {
    echo usage: task ($commands)
}

fn task cmd args {
    # Find cmd in $commands; dispatch to the matching handler.
    n = 1
    for (c = $commands) {
        if {~ $c $cmd} {
            $handlers($n) $args
            return
        }
        n = `{expr $n + 1}
    }
    $handlers($#commands)    # unknown -> help (last entry)
}
"#;

fn show(m: &mut Machine<SimOs>, cmd: &str) {
    println!("es> {cmd}");
    m.run(cmd).unwrap_or_else(|e| panic!("`{cmd}` failed: {e}"));
    let out = m.os_mut().take_output();
    for line in out.lines() {
        println!("    {line}");
    }
}

fn main() {
    let mut m = Machine::new(SimOs::new()).expect("machine boots");
    m.run(APP).expect("app installs");

    println!("a task list driven by a lambda dispatch table:\n");
    show(&mut m, "task add write the parser");
    show(&mut m, "task add fix the collector");
    show(&mut m, "task status");
    show(&mut m, "task done");
    show(&mut m, "task status");
    show(&mut m, "task bogus");

    // The table is data: extending the app is list surgery.
    println!("\nextending the table at runtime:");
    m.run("commands = $commands clear").unwrap();
    m.run("handlers = $handlers @ { todo = ; echo cleared }")
        .unwrap();
    show(&mut m, "task clear");
    show(&mut m, "task status");
}
