//! End-to-end shell sessions spanning every crate: syntax → core →
//! simulated kernel, driven through the public API exactly as a user
//! embedding es would.

use es_core::Machine;
use es_os::{Os, SimOs};

fn machine() -> Machine<SimOs> {
    Machine::new(SimOs::new()).expect("machine boots")
}

fn session(cmds: &[&str]) -> (String, String) {
    let mut m = machine();
    for c in cmds {
        if let Err(e) = m.run(c) {
            let out = m.os_mut().take_output();
            let err = m.os_mut().take_error();
            panic!("`{c}` failed: {e}\nstdout so far: {out}\nstderr: {err}");
        }
    }
    (m.os_mut().take_output(), m.os_mut().take_error())
}

#[test]
fn a_working_day_in_es() {
    // A realistic mixed session: files, pipes, functions, globs.
    let (out, err) = session(&[
        "cd /tmp",
        "echo alpha > a.txt",
        "echo beta > b.txt",
        "echo gamma >> a.txt",
        "cat a.txt b.txt | sort",
        "fn count-files { ls | wc -l }",
        "count-files",
        "rm *.txt",
        "count-files",
    ]);
    // `wc -l` on stdin prints the bare count, as GNU wc does.
    assert_eq!(out, "alpha\nbeta\ngamma\n2\n0\n", "stderr: {err}");
}

#[test]
fn word_frequency_figure_1_end_to_end() {
    let mut m = machine();
    let text = "to be or not to be that is the question\n".repeat(30);
    m.os_mut()
        .vfs_mut()
        .put_file("/tmp/hamlet", text.as_bytes())
        .unwrap();
    m.run("cat /tmp/hamlet | tr -cs a-zA-Z0-9 '\\012' | sort | uniq -c | sort -nr | sed 3q")
        .unwrap();
    let out = m.os_mut().take_output();
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3);
    // "to" and "be" both appear 60 times; ties sort by count desc.
    assert!(lines[0].trim().starts_with("60"), "{out}");
    assert!(lines[1].trim().starts_with("60"), "{out}");
    assert!(lines[2].trim().starts_with("30"), "{out}");
}

#[test]
fn remote_pipe_spoof_concept() {
    // The paper suggests "a %pipe to run pipeline elements on
    // (different) remote machines". Simulate the concept: a spoof
    // that logs where each stage "runs" while delegating locally.
    let (out, err) = session(&[
        "hosts = alpha beta gamma",
        "let (pipe = $fn-%pipe) {
            fn %pipe first out in rest {
                echo >[1=2] dispatching stage to $hosts(1)
                hosts = $hosts(2 3) $hosts(1)
                if {~ $#out 0} {
                    $first
                } {
                    $pipe $first $out $in {%pipe $rest}
                }
            }
        }",
        "echo data | cat | wc -l",
    ]);
    assert_eq!(out, "1\n");
    assert!(err.contains("dispatching stage to alpha"), "{err}");
    assert!(err.contains("dispatching stage to beta"), "{err}");
    assert!(err.contains("dispatching stage to gamma"), "{err}");
}

#[test]
fn spelling_correction_pathsearch_spoof() {
    // Another suggested spoof: "program execution which tries spelling
    // correction if files are not found".
    let (out, err) = session(&[
        "let (search = $fn-%pathsearch) {
            fn %pathsearch prog {
                catch @ e msg {
                    if {~ $e error && ~ $prog sl} {
                        echo >[1=2] 'did you mean ls?'
                        $search ls
                    } {
                        throw $e $msg
                    }
                } {
                    $search $prog
                }
            }
        }",
        "sl /bin",
    ]);
    assert!(err.contains("did you mean ls?"), "{err}");
    assert!(out.contains("cat"), "corrected to ls, listing /bin: {out}");
}

#[test]
fn autoload_functions_spoof() {
    // "automatic loading of shell functions" via %pathsearch: if a
    // file /lib/fn-NAME exists, source it and use the definition.
    let mut m = machine();
    m.os_mut()
        .vfs_mut()
        .put_file("/lib/fn-greet", b"fn greet { echo hello from autoload }\n")
        .unwrap();
    // NB: the spoof must not run external commands (like `test`)
    // itself — those would resolve through %pathsearch and recurse
    // forever. Try to source the autoload file; fall back on error.
    m.run(
        "let (search = $fn-%pathsearch) {
            fn %pathsearch prog {
                catch @ e msg {
                    $search $prog
                } {
                    . /lib/fn-$prog
                    result $(fn-$prog)
                }
            }
        }",
    )
    .unwrap();
    m.run("greet").unwrap();
    assert_eq!(m.os_mut().take_output(), "hello from autoload\n");
    // Second call goes straight through fn-greet, no re-sourcing.
    assert_eq!(m.get_var("fn-greet").len(), 1);
}

#[test]
fn environment_round_trip_preserves_everything() {
    let mut parent = machine();
    parent.run("fn triple x { result $x^$x^$x }").unwrap();
    parent.run("greeting = 'hello from parent'").unwrap();
    parent
        .run("let (sep = ::) fn joined { echo $sep^$* }")
        .unwrap();
    let env = parent.export_environment().to_vec();

    let mut os = SimOs::new();
    os.set_initial_env(env);
    let mut child = Machine::new(os).expect("child boots");
    assert_eq!(child.get_var("greeting"), vec!["hello from parent"]);
    child.run("echo <>{triple i}").unwrap();
    child.run("joined x").unwrap();
    assert_eq!(child.os_mut().take_output(), "iii\n::x\n");
}

#[test]
fn deep_env_nesting_three_generations() {
    let mut g1 = machine();
    g1.run("fn lineage { echo generation $* }").unwrap();
    g1.run("depth = one").unwrap();
    let env1 = g1.export_environment().to_vec();

    let mut os2 = SimOs::new();
    os2.set_initial_env(env1);
    let mut g2 = Machine::new(os2).expect("g2 boots");
    g2.run("depth = $depth two").unwrap();
    let env2 = g2.export_environment().to_vec();

    let mut os3 = SimOs::new();
    os3.set_initial_env(env2);
    let mut g3 = Machine::new(os3).expect("g3 boots");
    assert_eq!(g3.get_var("depth"), vec!["one", "two"]);
    g3.run("lineage $depth").unwrap();
    assert_eq!(g3.os_mut().take_output(), "generation one two\n");
}

#[test]
fn repl_session_with_figure_2_cache_installed_interactively() {
    let mut m = machine();
    m.os_mut().push_input(
        "let (search = $fn-%pathsearch) fn %pathsearch prog { let (file = <>{$search $prog}) { path-cache = $path-cache $prog; fn-$prog = $file; return $file } }\n\
         ls /etc\n\
         echo cache: $path-cache\n",
    );
    let status = m.repl();
    assert_eq!(status, 0);
    let out = m.os_mut().take_output();
    assert!(out.contains("motd"), "{out}");
    assert!(out.contains("cache: ls"), "{out}");
}

#[test]
fn signals_interrupt_loops_interactively() {
    let mut m = machine();
    // kill -2 targets the shell's own pid from inside a loop body.
    m.run("n =").unwrap();
    let err = m
        .run("while {true} { n = $n x; if {~ $#n 3} {kill -2 5000}; true }")
        .unwrap_err();
    assert_eq!(err, "signal sigint");
    assert_eq!(m.get_var("n").len(), 3, "loop ran until the signal");
}

#[test]
fn nested_redirections_and_dup() {
    let (out, err) = session(&[
        "fn complain { echo problem >[1=2] }",
        "complain",
        "{ echo captured; complain } > /tmp/log >[2=1]",
        "cat /tmp/log",
    ]);
    assert_eq!(out, "captured\nproblem\n");
    assert_eq!(err, "problem\n");
}

#[test]
fn background_jobs_and_apid() {
    let mut m = machine();
    m.run("echo first &").unwrap();
    let pid1 = m.get_var("apid");
    m.run("echo second &").unwrap();
    let pid2 = m.get_var("apid");
    assert_ne!(pid1, pid2);
    assert_eq!(m.os_mut().take_output(), "first\nsecond\n");
}

#[test]
fn fork_with_spoofs_active() {
    // A spoof installed in the parent is live in forked children.
    let mut m = machine();
    m.run(
        "let (create = $fn-%create) fn %create fd file cmd {
            log = $log $file
            $create $fd $file $cmd
        }",
    )
    .unwrap();
    m.run("fork {echo child > /tmp/c1}").unwrap();
    m.run("echo parent > /tmp/p1").unwrap();
    // Parent log only has the parent's write (fork isolation)...
    assert_eq!(m.get_var("log"), vec!["/tmp/p1"]);
    // ...but both files exist (shared filesystem).
    assert!(m.os().is_file("/tmp/c1"));
    assert!(m.os().is_file("/tmp/p1"));
}

#[test]
fn gc_stress_through_full_session() {
    let mut m = machine();
    m.heap.set_stress(true);
    let (_, _) = {
        for c in [
            "fn mk n { return @ { result $n } }",
            "for (i = a b c d e) { fns = $fns <>{mk $i} }",
            "echo <>{$fns(3)} | cat",
            "x = `{echo from backquote}",
        ] {
            m.run(c)
                .unwrap_or_else(|e| panic!("`{c}` failed under stress gc: {e}"));
        }
        (m.os_mut().take_output(), m.os_mut().take_error())
    };
    assert_eq!(m.get_var("x"), vec!["from", "backquote"]);
    assert!(m.heap.stats().collections > 100);
}

#[test]
fn whatis_matches_paper_format() {
    let mut m = machine();
    m.run("let (a=b) fn foo {echo $a}").unwrap();
    m.run("whatis foo").unwrap();
    assert_eq!(m.os_mut().take_output(), "%closure(a=b)@ * {echo $a}\n");
}

#[test]
fn es_script_files_run_like_programs() {
    let mut m = machine();
    m.os_mut()
        .vfs_mut()
        .put_file(
            "/home/user/deploy.es",
            b"fn stage name { echo === $name === }\n\
              stage build\n\
              echo compiling $1\n\
              stage test\n\
              echo testing $1\n",
        )
        .unwrap();
    m.run(". deploy.es webapp").unwrap();
    assert_eq!(
        m.os_mut().take_output(),
        "=== build ===\ncompiling webapp\n=== test ===\ntesting webapp\n"
    );
}

#[test]
fn exception_inside_redirected_block_restores_fd_layout() {
    // An exception thrown inside `{ ... } > file` must unwind the
    // redirection: stdout goes back to the console, the temporary
    // descriptor is closed, and the shell keeps working.
    let mut m = machine();
    let baseline = m.os().open_desc_count();
    m.run("fn boom { throw error kaboom }").unwrap();
    let caught = m
        .run("catch @ e { result $e } { { echo doomed; boom } > /tmp/red.txt }")
        .unwrap();
    assert_eq!(caught, vec!["error", "kaboom"]);
    // The redirection wrote before the throw, then unwound cleanly.
    m.run("cat /tmp/red.txt").unwrap();
    m.run("echo back-on-console").unwrap();
    assert_eq!(m.os_mut().take_output(), "doomed\nback-on-console\n");
    assert_eq!(
        m.os().open_desc_count(),
        baseline,
        "redirection descriptor closed on the exception path"
    );
}

#[test]
fn catch_observes_injected_enospc_as_error_exception() {
    use es_os::{FaultKind, FaultPlan, Syscall};
    // A full disk surfaces from `%create` (the > redirection) as a
    // plain catchable `error` exception, not a crash.
    let mut m = machine();
    let baseline = m.os().open_desc_count();
    m.os_mut().set_fault_plan(Some(FaultPlan::new(11).scheduled(
        Syscall::Open,
        1,
        FaultKind::NoSpc,
    )));
    let caught = m
        .run("catch @ e { result $e } { echo doomed > /tmp/full.txt }")
        .unwrap();
    assert_eq!(
        caught,
        vec!["error", "/tmp/full.txt: No space left on device"]
    );
    // The disk "recovers" (the schedule only hits the first open) and
    // the same redirection now succeeds with the fd table intact.
    m.run("echo survived > /tmp/full.txt").unwrap();
    m.run("cat /tmp/full.txt").unwrap();
    assert_eq!(m.os_mut().take_output(), "survived\n");
    assert_eq!(m.os().open_desc_count(), baseline, "no leaked descriptor");
    let log = m.os_mut().take_fault_log();
    assert_eq!(log.len(), 1, "exactly the scheduled fault fired: {log:?}");
}
