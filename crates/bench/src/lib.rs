//! Shared workload builders for the benchmark harness.
//!
//! One Criterion bench target exists per experiment in DESIGN.md §5:
//!
//! | target            | reproduces                                      |
//! |-------------------|--------------------------------------------------|
//! | `fig1_pipeline`   | Figure 1 — `%pipe` spoof timing pipeline stages  |
//! | `fig2_pathcache`  | Figure 2 — `%pathsearch` lookup cache            |
//! | `fig3_repl`       | Figure 3 — es-coded interactive loop             |
//! | `e4_gc_overhead`  | "GC takes roughly 4% of the running time"        |
//! | `e5_startup`      | "shell startup becomes very quick" via the env   |
//! | `e6_tailcall`     | tail calls consume stack (future work: fixed)    |
//! | `e7_hook_ablation`| cost of routing redirections through hooks       |
//! | `e8_rich_returns` | closure-encoded data structures (cons/car/cdr)   |
//! | `e9_unparse`      | closure unparse → reparse round trip             |

use es_core::{Machine, Options};
use es_os::SimOs;

/// A booted machine on a fresh simulated kernel.
pub fn machine() -> Machine<SimOs> {
    Machine::new(SimOs::new()).expect("machine boots")
}

/// A machine with explicit evaluator options.
pub fn machine_with(opts: Options) -> Machine<SimOs> {
    Machine::with_options(SimOs::new(), opts).expect("machine boots")
}

/// Runs a command, asserting success, and drops its console output.
pub fn run(m: &mut Machine<SimOs>, src: &str) {
    m.run_quiet(src)
        .unwrap_or_else(|e| panic!("`{src}` failed: {e}"));
    m.os_mut().take_output();
    m.os_mut().take_error();
}

/// Generates a deterministic ~`words`-word document with a skewed
/// word-frequency distribution (the Figure 1 corpus).
pub fn synth_document(words: usize) -> String {
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
    ];
    let mut out = String::with_capacity(words * 5);
    let mut n: u64 = 42;
    for i in 0..words {
        n = n
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pick = (n >> 33) as usize;
        if !pick.is_multiple_of(5) {
            out.push_str(common[pick % common.len()]);
        } else {
            out.push_str(rare[(pick / 7) % rare.len()]);
        }
        out.push(if i % 10 == 9 { '\n' } else { ' ' });
    }
    out
}

/// Installs the Figure 1 `%pipe` timing spoof.
pub const FIG1_SPOOF: &str = "
let (pipe = $fn-%pipe) {
    fn %pipe first out in rest {
        if {~ $#out 0} {
            time $first
        } {
            $pipe {time $first} $out $in {%pipe $rest}
        }
    }
}";

/// The Figure 1 pipeline itself.
pub const FIG1_PIPELINE: &str =
    "cat paper9 | tr -cs a-zA-Z0-9 '\\012' | sort | uniq -c | sort -nr | sed 6q";

/// Installs the Figure 2 `%pathsearch` cache + `recache`.
pub const FIG2_CACHE: &str = "
let (search = $fn-%pathsearch) {
    fn %pathsearch prog {
        let (file = <>{$search $prog}) {
            if {~ $#file 1 && ~ $file /*} {
                path-cache = $path-cache $prog
                fn-$prog = $file
            }
            return $file
        }
    }
}
fn recache {
    for (i = $path-cache)
        fn-$i =
    path-cache =
}";

/// A machine whose `$path` has `extra_dirs` empty directories before
/// `/bin` — makes uncached path search proportionally expensive.
pub fn machine_with_long_path(extra_dirs: usize) -> Machine<SimOs> {
    let mut os = SimOs::new();
    let mut dirs = Vec::new();
    for i in 0..extra_dirs {
        let d = format!("/opt/pkg{i:03}/bin");
        os.vfs_mut().mkdir_all(&d).expect("mkdir");
        dirs.push(d);
    }
    dirs.push("/bin".to_string());
    os.set_initial_env(vec![
        ("HOME".into(), "/home/user".into()),
        ("PATH".into(), dirs.join(":")),
    ]);
    Machine::new(os).expect("machine boots")
}

/// A machine with `paper9` of about `words` words in the home
/// directory (the Figure 1 corpus).
pub fn machine_with_paper(words: usize) -> Machine<SimOs> {
    let mut os = SimOs::new();
    os.vfs_mut()
        .put_file("/home/user/paper9", synth_document(words).as_bytes())
        .expect("vfs accepts document");
    Machine::new(os).expect("machine boots")
}
