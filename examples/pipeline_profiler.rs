//! Figure 1 of the paper: timing pipeline elements by spoofing `%pipe`.
//!
//! The spoof redefines the pipeline hook so every stage is wrapped in
//! `time`, reproducing Jon Bentley's pipeline profiler in a few lines
//! of shell — something the paper highlights as impossible in
//! traditional shells. The output below has the same shape as the
//! paper's: the word-frequency list on stdout, one timing line per
//! stage on stderr.
//!
//! Run with: `cargo run --example pipeline_profiler`

use es_core::Machine;
use es_os::SimOs;

/// A deterministic stand-in for the paper's `paper9` troff source:
/// the generated text has a Zipf-flavored word distribution so the
/// frequency table looks like real prose statistics.
fn synthesize_paper() -> String {
    let common = ["the", "a", "to", "of", "is", "and"];
    let rare = [
        "shell",
        "function",
        "closure",
        "exception",
        "lambda",
        "pipe",
        "spoof",
        "garbage",
        "collector",
        "environment",
        "binding",
        "syntax",
        "rewrite",
        "primitive",
        "hook",
    ];
    let mut out = String::new();
    let mut n: u64 = 42;
    for line in 0..120 {
        for word in 0..10 {
            n = n
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (n >> 33) as usize;
            // Common words ~4x more often than rare ones.
            if !pick.is_multiple_of(5) {
                out.push_str(common[pick % common.len()]);
            } else {
                out.push_str(rare[(pick / 7) % rare.len()]);
            }
            out.push(if word == 9 { '\n' } else { ' ' });
        }
        let _ = line;
    }
    out
}

fn main() {
    let mut os = SimOs::new();
    os.vfs_mut()
        .put_file("/home/user/paper9", synthesize_paper().as_bytes())
        .expect("vfs accepts the document");
    let mut m = Machine::new(os).expect("machine boots");

    // The spoof, verbatim from the paper.
    m.run(
        "let (pipe = $fn-%pipe) {
            fn %pipe first out in rest {
                if {~ $#out 0} {
                    time $first
                } {
                    $pipe {time $first} $out $in {%pipe $rest}
                }
            }
        }",
    )
    .expect("spoof installs");

    println!("es> cat paper9 | tr -cs a-zA-Z0-9 '\\012' | sort | uniq -c | sort -nr | sed 6q");
    m.run("cat paper9 | tr -cs a-zA-Z0-9 '\\012' | sort | uniq -c | sort -nr | sed 6q")
        .expect("pipeline runs");

    // stdout: the six most frequent words.
    print!("{}", m.os_mut().take_output());
    // stderr: one `Nr N.Nu N.Ns cmd` line per stage (Figure 1's shape).
    print!("{}", m.os_mut().take_error());

    println!();
    println!("(virtual times from the simulated kernel; the shape — sort");
    println!(" costlier than cat, every stage individually timed — is the");
    println!(" paper's result, independent of 1993 hardware)");
}
