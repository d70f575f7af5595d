//! Figure 2 of the paper: a path-lookup cache by spoofing `%pathsearch`.
//!
//! Es deliberately has no built-in command hashing; the paper shows a
//! user adding it in ten lines by wrapping the `%pathsearch` hook:
//! successful absolute-path lookups are memoised as `fn-$prog = $file`,
//! and `recache` flushes. This example installs the spoof, shows the
//! cache filling, and measures the speedup on repeated lookups with a
//! long `$path`.
//!
//! Run with: `cargo run --example path_cache`

use es_core::Machine;
use es_os::{Os, SimOs};

const FIGURE_2: &str = "
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
}
";

fn main() {
    let mut os = SimOs::new();
    // A long search path of empty directories in front of /bin makes
    // uncached lookups expensive, like a big $PATH on a real system.
    let mut dirs = Vec::new();
    for i in 0..40 {
        let d = format!("/opt/pkg{i:02}/bin");
        os.vfs_mut().mkdir_all(&d).expect("mkdir");
        dirs.push(d);
    }
    dirs.push("/bin".to_string());
    let path = dirs.join(":");
    os.set_initial_env(vec![
        ("HOME".into(), "/home/user".into()),
        ("PATH".into(), path),
    ]);
    let mut m = Machine::new(os).expect("machine boots");

    m.run(FIGURE_2).expect("Figure 2 installs");

    println!("path has {} directories; /bin is last.\n", 41);

    // One lookup fills the cache.
    m.run("ls /tmp").expect("ls runs");
    m.os_mut().take_output();
    println!(
        "after one `ls`:   path-cache = {:?}",
        m.get_var("path-cache")
    );
    println!("                  fn-ls      = {:?}", m.get_var("fn-ls"));

    // Measure: repeated command lookups, cached vs not (virtual time
    // measures the work the simulated kernel saw; the is_executable
    // probes of an uncached search do not charge time, so measure in
    // wall-clock terms instead).
    let reps = 400;
    m.run("recache").expect("recache");
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        m.run("recache; ls /tmp").expect("uncached run"); // flush each time
        m.os_mut().take_output();
    }
    let uncached = t0.elapsed();

    m.run("ls /tmp").expect("fill cache");
    m.os_mut().take_output();
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        m.run("ls /tmp").expect("cached run");
        m.os_mut().take_output();
    }
    let cached = t0.elapsed();

    println!("\n{reps} invocations of `ls` through 41 path entries:");
    println!("  uncached (recache each time): {uncached:>10.2?}");
    println!("  cached   (fn-ls memoised):    {cached:>10.2?}");
    println!(
        "  speedup: {:.1}x",
        uncached.as_secs_f64() / cached.as_secs_f64().max(1e-9)
    );

    // recache drops the memoisation.
    m.run("recache").expect("recache");
    println!(
        "\nafter recache:    path-cache = {:?}",
        m.get_var("path-cache")
    );
    println!("                  fn-ls      = {:?}", m.get_var("fn-ls"));
    let _ = m.os().cwd();
}
