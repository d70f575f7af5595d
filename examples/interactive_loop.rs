//! Figure 3 of the paper: the default interactive loop is written in
//! es and can be replaced like any other function.
//!
//! This example drives the stock `%interactive-loop` with a scripted
//! session (including an error, which the loop reports and survives via
//! the `retry` exception), then replaces the whole loop with a
//! numbered-prompt variant — the paper's point being that the REPL
//! itself is just a hook.
//!
//! Run with: `cargo run --example interactive_loop`

use es_core::Machine;
use es_os::SimOs;

fn main() {
    // --- session 1: the stock Figure 3 loop -----------------------------
    let mut m = Machine::new(SimOs::new()).expect("machine boots");
    println!("--- stock %interactive-loop (Figure 3), scripted session ---");
    let session = "echo one\n\
                   bogus-command\n\
                   echo {\n\
                   multi line\n\
                   }\n\
                   echo done\n";
    print!("{}", prefix_lines(session, "stdin | "));
    m.os_mut().push_input(session);
    let status = m.repl();
    println!(
        "stdout> {}",
        m.os_mut().take_output().replace('\n', "\nstdout> ")
    );
    println!(
        "stderr> {}",
        m.os_mut().take_error().replace('\n', "\nstderr> ")
    );
    println!("exit status: {status}");
    println!("(note the `; ` prompts, the reported error, and the loop surviving it)\n");

    // --- session 2: replace the loop entirely ---------------------------
    let mut m = Machine::new(SimOs::new()).expect("machine boots");
    println!("--- a custom loop: numbered prompts, logs every command ---");
    m.run(
        "fn %interactive-loop {
            n = 1
            catch @ e rest {
                if {~ $e eof} { return 0 } { throw $e $rest }
            } {
                forever {
                    let (cmd = <>{%parse <>{%flatten '' cmd- $n '> '}}) {
                        history = $history <>{%flatten '' $n}
                        $cmd
                        n = <>{%flatten '' $n i}
                    }
                }
            }
        }",
    )
    .expect("custom loop installs");
    let session = "echo alpha\necho beta\n";
    print!("{}", prefix_lines(session, "stdin | "));
    m.os_mut().push_input(session);
    let status = m.repl();
    println!(
        "stdout> {}",
        m.os_mut().take_output().replace('\n', "\nstdout> ")
    );
    println!(
        "stderr> {}",
        m.os_mut().take_error().replace('\n', "\nstderr> ")
    );
    println!("exit status: {status}");
    println!("history variable: {:?}", m.get_var("history"));
}

fn prefix_lines(text: &str, prefix: &str) -> String {
    text.lines().map(|l| format!("{prefix}{l}\n")).collect()
}
