//! Interpreter tests: every example in the paper, plus semantics
//! corners.

use crate::governor::Kind;
use crate::machine::{Machine, Options};
use es_os::{Os, SimOs};

fn machine() -> Machine<SimOs> {
    Machine::new(SimOs::new()).expect("machine boots")
}

/// Runs `src` and returns captured stdout.
fn output(m: &mut Machine<SimOs>, src: &str) -> String {
    m.run(src).unwrap_or_else(|e| panic!("`{src}` failed: {e}"));
    m.os_mut().take_output()
}

/// Runs `src` and returns the command's value as strings.
fn val(m: &mut Machine<SimOs>, src: &str) -> Vec<String> {
    m.run(src).unwrap_or_else(|e| panic!("`{src}` failed: {e}"))
}

#[test]
fn boot_runs_initial_es() {
    let m = machine();
    // The hooks are bound...
    assert_eq!(m.get_var("fn-%create"), vec!["$&create"]);
    assert_eq!(m.get_var("fn-%pipe"), vec!["$&pipe"]);
    // ...and the PATH import fired the settor, populating $path.
    assert_eq!(m.get_var("path"), vec!["/bin", "/usr/bin"]);
    assert_eq!(m.get_var("PATH"), vec!["/bin:/usr/bin"]);
    assert_eq!(m.get_var("home"), vec!["/home/user"]);
}

/// `prims::NAMES` (what `$&primitives` lists) and `prims::call`'s
/// match are kept by hand: they name the same primitives, every
/// `$&name` boot binds and every hook the compiler resolves is among
/// them, and none raises `unknown primitive` when called bare.
#[test]
fn primitive_names_match_their_dispatch() {
    use crate::prims::NAMES;
    let mut names: Vec<&str> = NAMES.to_vec();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names, NAMES, "NAMES is sorted, each name once");
    let dispatched: Vec<&str> = include_str!("prims/mod.rs")
        .lines()
        .filter_map(|l| l.trim().strip_prefix('"')?.split_once("\" => "))
        .map(|(name, _)| name)
        .collect();
    let mut sorted = dispatched.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, NAMES, "the names `call` matches");
    let spelled = include_str!("initial.es")
        .split("$&")
        .skip(1)
        .map(|rest| {
            rest.split(|c: char| !c.is_ascii_alphanumeric())
                .next()
                .unwrap_or("")
        })
        .filter(|name| !name.is_empty());
    let hooked = crate::compile::HOOK_PRIMS.iter().map(|(_, prim)| *prim);
    for name in spelled.chain(hooked) {
        assert!(NAMES.contains(&name), "$&{name} is not in NAMES");
    }
    for name in NAMES {
        let mut m = machine();
        m.arm_limit(Kind::Steps, 1000);
        if let Err(err) = m.run(&format!("$&{name}")) {
            assert!(!err.contains("unknown primitive"), "$&{name}: {err}");
        }
    }
}

#[test]
fn echo_builtin() {
    let mut m = machine();
    assert_eq!(output(&mut m, "echo hello, world"), "hello, world\n");
    assert_eq!(output(&mut m, "echo -n x"), "x");
}

#[test]
fn backslash_is_an_ordinary_character() {
    let mut m = machine();
    assert_eq!(output(&mut m, "echo a\\b \\ c\\"), "a\\b \\ c\\\n");
    // Backslash-newline is still a continuation.
    assert_eq!(output(&mut m, "echo a \\\n b"), "a b\n");
}

#[test]
fn external_commands_run() {
    let mut m = machine();
    assert_eq!(output(&mut m, "/bin/echo direct"), "direct\n");
    // Via %pathsearch.
    assert_eq!(output(&mut m, "pwd"), "/home/user\n");
    let err = m.run("no-such-cmd").unwrap_err();
    assert!(err.contains("no-such-cmd: command not found"), "{err}");
}

#[test]
fn simple_pipeline_and_redirection() {
    let mut m = machine();
    assert_eq!(output(&mut m, "echo hi | wc -l"), "1\n");
    m.run("echo stored > /tmp/f").unwrap();
    assert_eq!(output(&mut m, "cat /tmp/f"), "stored\n");
    m.run("echo more >> /tmp/f").unwrap();
    assert_eq!(output(&mut m, "cat < /tmp/f"), "stored\nmore\n");
}

/// `$&pipe` takes its descriptors as numeric words: a closure or a
/// non-number in either fd position is refused before any stage runs.
#[test]
fn pipe_refuses_non_numeric_fds() {
    let mut m = machine();
    for src in [
        "$&pipe {echo a} {x} 0 {cat}",
        "$&pipe {echo a} 1 @ {x} {cat}",
        "$&pipe {echo a} one 0 {cat}",
    ] {
        let err = m.run(src).unwrap_err();
        assert!(err.contains("pipe: bad fd"), "{src}: {err}");
        assert_eq!(m.os_mut().take_output(), "", "{src}: a stage ran");
    }
    assert_eq!(output(&mut m, "$&pipe {echo a} 1 0 {cat}"), "a\n");
}

/// Stage k+1 reads on the `in` fd of the pair between stages k and
/// k+1, and fd 0 keeps its own descriptor unless that pair names it.
#[test]
fn pipe_stage_reads_on_the_in_fd_of_its_pair() {
    let mut m = machine();
    let open = m.os().open_desc_count();
    for src in [
        "$&pipe {echo hi} 1 3 {$&dup 0 3 {cat}}",
        "$&pipe {echo hi} 1 3 {$&dup 0 3 {cat}} 1 3 {$&dup 0 3 {cat}}",
        "$&pipe {echo hi} 1 3 {$&dup 0 3 {tr a-z A-Z}} 1 0 {cat}",
        "echo hi |[1=3] cat >[0=3]",
    ] {
        let want = if src.contains("tr") { "HI\n" } else { "hi\n" };
        assert_eq!(output(&mut m, src), want, "{src}");
        assert_eq!(m.os().open_desc_count(), open, "{src}: a descriptor leaked");
    }
    // Nothing is piped into the last stage's fd 0.
    assert_eq!(output(&mut m, "echo hi |[1=3] cat"), "");
    let err = m.run("echo hi | cat >[0=3]").unwrap_err();
    assert!(err.contains("fd 3 is not open"), "{err}");
}

#[test]
fn intro_example_kill_pipeline() {
    // ps aux | grep '^byron' | awk '{print $2}' | xargs kill -9
    let mut m = machine();
    m.run("ps aux | grep '^byron' | awk '{print $2}' | xargs kill -9")
        .unwrap();
    let out = output(&mut m, "ps aux");
    assert!(!out.contains("byron"), "byron processes killed:\n{out}");
}

// --------------------------------------------------------------------------
// Functions, lambdas, scoping (paper sections "Functions", "Binding").
// --------------------------------------------------------------------------

#[test]
fn fn_d_prints_date() {
    let mut m = machine();
    m.run("fn d { date +%y-%m-%d }").unwrap();
    assert_eq!(output(&mut m, "d"), "93-01-25\n");
}

#[test]
fn apply_with_leftover_args() {
    let mut m = machine();
    m.run("fn apply cmd args { for (i = $args) $cmd $i }")
        .unwrap();
    assert_eq!(
        output(&mut m, "apply echo testing 1.. 2.. 3.."),
        "testing\n1..\n2..\n3..\n"
    );
}

#[test]
fn rev3_parameter_binding() {
    let mut m = machine();
    m.run("fn rev3 a b c { echo $c $b $a }").unwrap();
    // Leftovers to the last parameter.
    assert_eq!(output(&mut m, "rev3 1 2 3 4 5"), "3 4 5 2 1\n");
    // Missing parameters are null.
    assert_eq!(output(&mut m, "rev3 1"), "1\n");
}

#[test]
fn lambda_applied_inline() {
    let mut m = machine();
    m.os_mut().vfs_mut().put_file("/tmp/x1", b"").unwrap();
    m.os_mut().vfs_mut().put_file("/usr/tmp/x2", b"").unwrap();
    m.run("fn apply cmd args { for (i = $args) $cmd $i }")
        .unwrap();
    m.run("apply @ i {cd $i; rm -f *} /tmp /usr/tmp").unwrap();
    assert!(!m.os().is_file("/tmp/x1"), "files in /tmp removed");
    assert!(!m.os().is_file("/usr/tmp/x2"), "files in /usr/tmp removed");
    // Lexical scoping: the lambda's `i` did not leak.
    assert_eq!(m.get_var("i"), Vec::<String>::new());
    // And the shell did not actually change directory (cd in the
    // lambda... actually it did — es has no implicit subshell).
    assert_eq!(m.os().cwd(), "/usr/tmp");
}

#[test]
fn fn_is_sugar_for_fn_variable() {
    let mut m = machine();
    m.run("fn echon args {echo -n $args}").unwrap();
    let v1 = m.get_var("fn-echon");
    let mut m2 = machine();
    m2.run("fn-echon = @ args {echo -n $args}").unwrap();
    assert_eq!(v1, m2.get_var("fn-echon"));
    assert_eq!(output(&mut m, "echon a b"), "a b");
}

#[test]
fn dollar_deref_runs_fragment() {
    let mut m = machine();
    m.run("silly-command = {echo hi}").unwrap();
    assert_eq!(output(&mut m, "$silly-command"), "hi\n");
}

#[test]
fn mixed_list_of_fragments_and_strings() {
    let mut m = machine();
    m.run("mixed = {ls} hello, {wc} world").unwrap();
    assert_eq!(output(&mut m, "echo $mixed(2) $mixed(4)"), "hello, world\n");
    // $mixed(1) | $mixed(3) — a pipeline of closures from a variable.
    let out = output(&mut m, "cd /; $mixed(1) | $mixed(3)");
    let nums: Vec<&str> = out.split_whitespace().collect();
    assert_eq!(nums.len(), 3, "wc prints lines words bytes: {out}");
}

#[test]
fn let_lexical_binding() {
    let mut m = machine();
    m.run("x = foo").unwrap();
    assert_eq!(output(&mut m, "let (x = bar) { echo $x }"), "bar\n");
    assert_eq!(m.get_var("x"), vec!["foo"]);
}

#[test]
fn closures_capture_lexical_scope() {
    // The paper's hi = { echo $h, $w } example.
    let mut m = machine();
    m.run("let (h=hello; w=world) { hi = { echo $h, $w } }")
        .unwrap();
    assert_eq!(output(&mut m, "$hi"), "hello, world\n");
}

#[test]
fn lexical_vs_dynamic_binding() {
    // The paper's `lexical` vs `dynamic` example, verbatim.
    let mut m = machine();
    m.run("x = foo").unwrap();
    let out = output(&mut m, "let (x = bar) { echo $x; fn lexical { echo $x } }");
    assert_eq!(out, "bar\n");
    assert_eq!(output(&mut m, "lexical"), "bar\n");
    let out = output(
        &mut m,
        "local (x = baz) { echo $x; fn dynamic { echo $x } }",
    );
    assert_eq!(out, "baz\n");
    assert_eq!(output(&mut m, "dynamic"), "foo\n");
}

#[test]
fn lexical_assignment_mutates_shared_binding() {
    // Two closures sharing a frame see each other's assignments.
    let mut m = machine();
    m.run("let (n = 0) { fn bump { n = 1 }; fn show { echo $n } }")
        .unwrap();
    assert_eq!(output(&mut m, "show"), "0\n");
    m.run("bump").unwrap();
    assert_eq!(output(&mut m, "show"), "1\n");
}

#[test]
fn trace_redefines_functions() {
    // The paper's trace + echo-nl example.
    let mut m = machine();
    m.run(
        "fn trace functions {
            for (func = $functions)
                let (old = $(fn-$func))
                    fn $func args {
                        echo calling $func $args
                        $old $args
                    }
        }",
    )
    .unwrap();
    m.run(
        "fn echo-nl head tail {
            if {!~ $#head 0} {
                echo $head
                echo-nl $tail
            }
        }",
    )
    .unwrap();
    assert_eq!(output(&mut m, "echo-nl a b c"), "a\nb\nc\n");
    m.run("trace echo-nl").unwrap();
    assert_eq!(
        output(&mut m, "echo-nl a b c"),
        "calling echo-nl a b c\na\ncalling echo-nl b c\nb\ncalling echo-nl c\nc\ncalling echo-nl\n"
    );
}

// --------------------------------------------------------------------------
// Settor variables.
// --------------------------------------------------------------------------

#[test]
fn watch_settor_example() {
    let mut m = machine();
    m.run(
        "fn watch vars {
            for (var = $vars) {
                set-$var = @ {
                    echo old $var '=' $$var
                    echo new $var '=' $*
                    return $*
                }
            }
        }",
    )
    .unwrap();
    m.run("watch x").unwrap();
    assert_eq!(output(&mut m, "x=foo bar"), "old x =\nnew x = foo bar\n");
    assert_eq!(
        output(&mut m, "x=fubar"),
        "old x = foo bar\nnew x = fubar\n"
    );
    assert_eq!(m.get_var("x"), vec!["fubar"]);
}

#[test]
fn path_settors_stay_in_sync() {
    let mut m = machine();
    m.run("path = /bin /tmp").unwrap();
    assert_eq!(m.get_var("PATH"), vec!["/bin:/tmp"]);
    m.run("PATH = /usr/bin:/bin").unwrap();
    assert_eq!(m.get_var("path"), vec!["/usr/bin", "/bin"]);
}

// --------------------------------------------------------------------------
// Rich return values (paper section "Return Values").
// --------------------------------------------------------------------------

#[test]
fn hello_world_return() {
    let mut m = machine();
    m.run("fn hello-world { return 'hello, world' }").unwrap();
    assert_eq!(output(&mut m, "echo <>{hello-world}"), "hello, world\n");
}

#[test]
fn cons_car_cdr() {
    // Closures as data: the paper's hierarchical-list example.
    let mut m = machine();
    m.run("fn cons a d { return @ f { $f $a $d } }").unwrap();
    m.run("fn car p { $p @ a d { return $a } }").unwrap();
    m.run("fn cdr p { $p @ a d { return $d } }").unwrap();
    assert_eq!(
        output(
            &mut m,
            "echo <>{car <>{cdr <>{cons 1 <>{cons 2 <>{cons 3 nil}}}}}"
        ),
        "2\n"
    );
}

#[test]
fn external_status_as_value() {
    let mut m = machine();
    assert_eq!(val(&mut m, "true"), vec!["0"]);
    assert_eq!(val(&mut m, "false"), vec!["1"]);
    assert_eq!(val(&mut m, "result a b c"), vec!["a", "b", "c"]);
}

// --------------------------------------------------------------------------
// Exceptions (paper section "Exceptions").
// --------------------------------------------------------------------------

#[test]
fn throw_and_catch_error() {
    let mut m = machine();
    m.run(
        "fn in dir cmd {
            if {~ $#dir 0} {
                throw error 'usage: in dir cmd'
            }
            catch @ e msg {
                if {~ $e error} {
                    echo >[1=2] in $dir: $msg
                } {
                    throw $e $msg
                }
            } {
                cd $dir
                $cmd
            }
        }",
    )
    .unwrap();
    // Usage error propagates.
    let err = m.run("in").unwrap_err();
    assert_eq!(err, "error usage: in dir cmd");
    // Successful use.
    m.os_mut()
        .vfs_mut()
        .put_file("/tmp/webster.socket", b"")
        .unwrap();
    assert_eq!(output(&mut m, "in /tmp ls"), "webster.socket\n");
    // Failure: the handler reformats the message, like the paper's
    // `in /temp: chdir /temp: No such file or directory`.
    m.run("in /temp ls").unwrap();
    let err_out = m.os_mut().take_error();
    assert_eq!(
        err_out,
        "in /temp: chdir /temp: No such file or directory\n"
    );
}

#[test]
fn catch_passes_body_value_through() {
    let mut m = machine();
    assert_eq!(
        val(&mut m, "catch @ e {echo handler} {result ok}"),
        vec!["ok"]
    );
}

#[test]
fn retry_reruns_body() {
    let mut m = machine();
    m.run("tries = 0").unwrap();
    let out = val(
        &mut m,
        "catch @ e {
            throw retry
        } {
            tries = <>{%flatten '' $tries x}
            if {!~ $tries 0xxx} {throw again}
            result $tries
        }",
    );
    assert_eq!(out, vec!["0xxx"], "the body was retried until it succeeded");
}

#[test]
fn break_exits_loops() {
    let mut m = machine();
    assert_eq!(
        output(
            &mut m,
            "for (i = 1 2 3 4 5) { if {~ $i 3} {break}; echo $i }"
        ),
        "1\n2\n"
    );
    assert_eq!(
        output(
            &mut m,
            "n = a; while {!~ $n aaaa} { n = $n^a; if {~ $n aaa} {break}; echo $n }"
        ),
        "aa\n"
    );
}

#[test]
fn return_exits_function_not_if() {
    let mut m = machine();
    m.run("fn f { if {true} { return early }; echo not-reached }")
        .unwrap();
    assert_eq!(val(&mut m, "result <>{f}"), vec!["early"]);
    assert_eq!(m.os_mut().take_output(), "");
}

#[test]
fn uncaught_exception_reported() {
    let mut m = machine();
    let err = m.run("throw custom a b").unwrap_err();
    assert_eq!(err, "custom a b");
}

#[test]
fn signal_becomes_exception() {
    let mut m = machine();
    m.os_mut().raise_signal(es_os::Signal::Int);
    let err = m.run("echo never").unwrap_err();
    assert_eq!(err, "signal sigint");
    // Catchable like any exception: the body interrupts itself (kill
    // targets the shell's own pid) and the next command's signal poll
    // turns it into a throw inside the catch body.
    assert_eq!(
        val(
            &mut m,
            "catch @ e {result caught $e} {kill -2 5000; echo hi}"
        ),
        vec!["caught", "signal", "sigint"]
    );
}

// --------------------------------------------------------------------------
// Spoofing (paper section "Spoofing").
// --------------------------------------------------------------------------

#[test]
fn noclobber_create_spoof() {
    let mut m = machine();
    m.run(
        "let (create = $fn-%create)
            fn %create fd file cmd {
                if {test -f $file} {
                    throw error $file exists
                } {
                    $create $fd $file $cmd
                }
            }",
    )
    .unwrap();
    m.run("echo first > /tmp/noclob").unwrap();
    assert_eq!(output(&mut m, "cat /tmp/noclob"), "first\n");
    let err = m.run("echo second > /tmp/noclob").unwrap_err();
    assert_eq!(err, "error /tmp/noclob exists");
    assert_eq!(output(&mut m, "cat /tmp/noclob"), "first\n", "unclobbered");
    // The underlying primitive is still reachable.
    m.run("$&create 1 /tmp/noclob {echo forced}").unwrap();
    assert_eq!(output(&mut m, "cat /tmp/noclob"), "forced\n");
}

#[test]
fn cd_title_spoof() {
    let mut m = machine();
    // `title` is hypothetical in the paper; fake it with a variable.
    m.run("fn title { last-title = $* }").unwrap();
    m.run(
        "let (cd = $fn-cd)
            fn cd {
                $cd $*
                title `{pwd}
            }",
    )
    .unwrap();
    m.run("cd /tmp").unwrap();
    assert_eq!(m.os().cwd(), "/tmp");
    assert_eq!(m.get_var("last-title"), vec!["/tmp"]);
}

#[test]
fn figure1_pipe_timing_spoof() {
    let mut m = machine();
    let text = "the a the b the a to of is and the a to to a of\n".repeat(16);
    m.os_mut()
        .vfs_mut()
        .put_file("/home/user/paper9", text.as_bytes())
        .unwrap();
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
    .unwrap();
    m.run("cat paper9 | tr -cs a-zA-Z0-9 '\\012' | sort | uniq -c | sort -nr | sed 6q")
        .unwrap();
    let out = m.os_mut().take_output();
    let err = m.os_mut().take_error();
    // Output: six word-frequency lines, most frequent first.
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6, "out: {out}");
    assert!(lines[0].trim().starts_with("64"), "the: {}", lines[0]);
    assert!(lines[0].ends_with("the"));
    // Stderr: one timing line per pipeline stage, like Figure 1.
    let timings: Vec<&str> = err.lines().collect();
    assert_eq!(timings.len(), 6, "err: {err}");
    assert!(timings.iter().any(|l| l.contains("cat paper9")), "{err}");
    assert!(timings.iter().any(|l| l.contains("sed 6q")), "{err}");
    for l in &timings {
        assert!(l.contains('r') && l.contains('u') && l.contains('s'), "{l}");
    }
}

#[test]
fn figure2_pathsearch_cache() {
    let mut m = machine();
    m.run(
        "let (search = $fn-%pathsearch) {
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
        }",
    )
    .unwrap();
    assert_eq!(m.get_var("fn-ls"), Vec::<String>::new());
    assert_eq!(output(&mut m, "ls /tmp"), "");
    // The lookup was cached.
    assert_eq!(m.get_var("fn-ls"), vec!["/bin/ls"]);
    assert_eq!(m.get_var("path-cache"), vec!["ls"]);
    // Cached invocation still works.
    m.os_mut().vfs_mut().put_file("/tmp/seen", b"").unwrap();
    assert_eq!(output(&mut m, "ls /tmp"), "seen\n");
    // recache flushes.
    m.run("recache").unwrap();
    assert_eq!(m.get_var("fn-ls"), Vec::<String>::new());
    assert_eq!(m.get_var("path-cache"), Vec::<String>::new());
}

// --------------------------------------------------------------------------
// Figure 3: the interactive loop, driven through the REPL.
// --------------------------------------------------------------------------

#[test]
fn repl_runs_commands_and_reports_errors() {
    let mut m = machine();
    m.os_mut().push_input("echo one\nbogus-cmd\necho two\n");
    let status = m.repl();
    assert_eq!(status, 0, "last command succeeded");
    assert_eq!(m.os_mut().take_output(), "one\ntwo\n");
    let err = m.os_mut().take_error();
    assert!(
        err.contains("bogus-cmd: command not found"),
        "error printed, loop retried: {err}"
    );
    assert!(err.contains("; "), "prompts printed on stderr: {err}");
}

#[test]
fn repl_multiline_commands_use_prompt2() {
    let mut m = machine();
    m.run("prompt = ('; ' '.. ')").unwrap();
    m.os_mut().push_input("echo {\nnested\n}\n");
    // `echo {` is incomplete; %parse keeps reading with prompt2.
    let status = m.repl();
    assert_eq!(status, 0);
    let out = m.os_mut().take_output();
    assert!(out.contains("{nested}"), "closure printed: {out}");
    let err = m.os_mut().take_error();
    assert!(err.contains(".. "), "continuation prompt shown: {err}");
}

#[test]
fn repl_loop_is_spoofable() {
    // The whole interactive loop is just a function; replace it.
    let mut m = machine();
    m.run("fn %interactive-loop { echo custom loop; result 7 }")
        .unwrap();
    m.os_mut().push_input("ignored\n");
    let status = m.repl();
    assert_eq!(m.os_mut().take_output(), "custom loop\n");
    assert_eq!(status, 1, "value 7 is false in es terms");
}

#[test]
fn repl_exit_status_propagates() {
    let mut m = machine();
    m.os_mut().push_input("exit 3\necho never\n");
    assert_eq!(m.repl(), 3);
    assert_eq!(m.os_mut().take_output(), "");
}

// --------------------------------------------------------------------------
// The environment (paper section "The Environment").
// --------------------------------------------------------------------------

#[test]
fn whatis_shows_closure_encoding() {
    let mut m = machine();
    m.run("let (a = b) fn foo { echo $a }").unwrap();
    assert_eq!(output(&mut m, "whatis foo"), "%closure(a=b)@ * {echo $a}\n");
}

#[test]
fn functions_travel_through_environment() {
    let mut m = machine();
    m.run("fn greet who { echo hello, $who }").unwrap();
    m.run("let (a = captured) fn closed { echo $a }").unwrap();
    m.run("plain = some value").unwrap();
    let env = crate::env::build_environment(&m).to_vec();
    // Boot a child shell from that environment: no rc files, full state.
    let mut child_os = SimOs::new();
    child_os.set_initial_env(env.clone());
    let mut child = Machine::new(child_os).expect("child boots");
    assert_eq!(child.get_var("plain"), vec!["some", "value"]);
    child.run("greet world").unwrap();
    child.run("closed").unwrap();
    assert_eq!(child.os_mut().take_output(), "hello, world\ncaptured\n");
}

/// An element holding the list separator, or the escape that stands
/// for it, comes back whole: in a plain variable, and in a string a
/// closure captured.
#[test]
fn separator_inside_an_element_survives_the_environment() {
    let mut m = machine();
    m.run("u = a '<\u{1}>' b '\u{2}a' '\u{2}'").unwrap();
    m.run("let (c = x '<\u{1}>' y) fn f { echo $#c $c(2) }")
        .unwrap();
    let env = crate::env::build_environment(&m).to_vec();
    let mut child_os = SimOs::new();
    child_os.set_initial_env(env);
    let mut child = Machine::new(child_os).expect("child boots");
    assert_eq!(child.get_var("u"), m.get_var("u"));
    assert_eq!(child.get_var("u").len(), 5);
    assert_eq!(output(&mut m, "f"), "3 <\u{1}>\n");
    assert_eq!(output(&mut child, "f"), "3 <\u{1}>\n");
}

#[test]
fn lexical_sharing_lost_across_environment() {
    // The paper: two functions defined in the same scope share the
    // binding in the parent, but the connection is lost when they are
    // exported in separate environment strings.
    let mut m = machine();
    m.run("let (n = 0) { fn bump { n = bumped }; fn show { echo $n } }")
        .unwrap();
    m.run("bump").unwrap();
    assert_eq!(output(&mut m, "show"), "bumped\n");
    let env = crate::env::build_environment(&m).to_vec();
    let mut child_os = SimOs::new();
    child_os.set_initial_env(env);
    let mut child = Machine::new(child_os).expect("child boots");
    child.run("bump").unwrap();
    assert_eq!(
        output(&mut child, "show"),
        "bumped\n",
        "child imported the already-bumped value"
    );
    // But now the scopes are separate: re-import shows the values are
    // snapshots, not shared bindings... demonstrate by bumping to a
    // new value in the child's `bump` and observing `show` UNchanged.
    child
        .run("let (x = 1) { fn bump2 { x = 2 }; fn show2 { echo $x } }")
        .unwrap();
    let env2 = crate::env::build_environment(&child).to_vec();
    let mut gchild_os = SimOs::new();
    gchild_os.set_initial_env(env2);
    let mut gchild = Machine::new(gchild_os).expect("grandchild boots");
    gchild.run("bump2").unwrap();
    assert_eq!(
        output(&mut gchild, "show2"),
        "1\n",
        "bump2 and show2 no longer share a frame after env transit"
    );
}

#[test]
fn fork_isolates_shell_state() {
    let mut m = machine();
    m.run("x = parent").unwrap();
    m.run("fork {x = child; echo in child $x}").unwrap();
    assert_eq!(m.os_mut().take_output(), "in child child\n");
    assert_eq!(
        m.get_var("x"),
        vec!["parent"],
        "fork isolated the assignment"
    );
    // cd in the child does not move the parent...
    m.run("fork {cd /tmp}").unwrap();
    assert_eq!(m.os().cwd(), "/home/user");
    // ...but file writes are shared (one filesystem).
    m.run("fork {echo shared > /tmp/from-child}").unwrap();
    assert_eq!(output(&mut m, "cat /tmp/from-child"), "shared\n");
}

#[test]
fn subshell_exception_prints_and_returns_false() {
    let mut m = machine();
    let v = val(&mut m, "fork {throw error oops}");
    assert_eq!(v, vec!["1"], "false status from subshell exception");
    let err = m.os_mut().take_error();
    assert!(err.contains("oops"), "{err}");
}

// --------------------------------------------------------------------------
// Word/list semantics.
// --------------------------------------------------------------------------

#[test]
fn list_flattening_and_concat() {
    let mut m = machine();
    m.run("l = a b c").unwrap();
    assert_eq!(val(&mut m, "result $l^x"), vec!["ax", "bx", "cx"]);
    assert_eq!(val(&mut m, "result x^$l"), vec!["xa", "xb", "xc"]);
    m.run("r = 1 2 3").unwrap();
    assert_eq!(val(&mut m, "result $l^$r"), vec!["a1", "b2", "c3"]);
    let err = m.run("result $l^(1 2)").unwrap_err();
    assert!(err.contains("bad concatenation"), "{err}");
    assert_eq!(val(&mut m, "result $^l"), vec!["a b c"]);
    assert_eq!(val(&mut m, "result $#l"), vec!["3"]);
}

#[test]
fn subscripts() {
    let mut m = machine();
    m.run("l = a b c d").unwrap();
    assert_eq!(val(&mut m, "result $l(2)"), vec!["b"]);
    assert_eq!(val(&mut m, "result $l(4 1)"), vec!["d", "a"]);
    assert_eq!(val(&mut m, "result $l(9)"), Vec::<String>::new());
}

#[test]
fn double_deref() {
    let mut m = machine();
    m.run("name = target; target = hit").unwrap();
    assert_eq!(val(&mut m, "result $$name"), vec!["hit"]);
}

#[test]
fn computed_deref_with_parens() {
    let mut m = machine();
    m.run("fn-thing = {result found}").unwrap();
    m.run("which = thing").unwrap();
    assert_eq!(val(&mut m, "result $(fn-$which)"), vec!["{result found}"]);
}

#[test]
fn glob_expansion() {
    let mut m = machine();
    for f in ["/tmp/Ex1", "/tmp/Ex2", "/tmp/other", "/tmp/.hidden"] {
        m.os_mut().vfs_mut().put_file(f, b"").unwrap();
    }
    m.run("cd /tmp").unwrap();
    assert_eq!(val(&mut m, "result Ex*"), vec!["Ex1", "Ex2"]);
    assert_eq!(val(&mut m, "result *"), vec!["Ex1", "Ex2", "other"]);
    assert_eq!(val(&mut m, "result .h*"), vec![".hidden"]);
    assert_eq!(
        val(&mut m, "result '*'"),
        vec!["*"],
        "quoted star is literal"
    );
    assert_eq!(val(&mut m, "result /tmp/E?1"), vec!["/tmp/Ex1"]);
    assert_eq!(val(&mut m, "result nomatch*"), vec!["nomatch*"]);
    m.run("rm Ex*").unwrap();
    assert_eq!(val(&mut m, "result *"), vec!["other"]);
}

#[test]
fn match_command() {
    let mut m = machine();
    assert_eq!(val(&mut m, "~ foo foo"), vec!["0"]);
    assert_eq!(val(&mut m, "~ foo bar"), vec!["1"]);
    assert_eq!(val(&mut m, "~ /bin/ls /*"), vec!["0"]);
    assert_eq!(val(&mut m, "~ (a b c) b"), vec!["0"]);
    assert_eq!(val(&mut m, "~ () ()"), vec!["0"]);
    assert_eq!(val(&mut m, "~ x a b x"), vec!["0"]);
    assert_eq!(val(&mut m, "!~ foo f*"), vec!["1"]);
}

#[test]
fn backquote_splits_on_ifs() {
    let mut m = machine();
    assert_eq!(
        val(&mut m, "result `{echo a b; echo c}"),
        vec!["a", "b", "c"]
    );
    m.run("ifs = ':'").unwrap();
    assert_eq!(val(&mut m, "result `{echo -n a:b:c}"), vec!["a", "b", "c"]);
}

#[test]
fn multi_assignment() {
    let mut m = machine();
    m.run("(a b) = 1 2 3").unwrap();
    assert_eq!(m.get_var("a"), vec!["1"]);
    assert_eq!(m.get_var("b"), vec!["2", "3"]);
}

#[test]
fn heredoc() {
    let mut m = machine();
    assert_eq!(output(&mut m, "cat << 'l1\nl2\n'"), "l1\nl2\n");
}

#[test]
fn dup_redirect_to_stderr() {
    let mut m = machine();
    m.run("echo oops >[1=2]").unwrap();
    assert_eq!(m.os_mut().take_output(), "");
    assert_eq!(m.os_mut().take_error(), "oops\n");
}

#[test]
fn dot_sources_scripts() {
    let mut m = machine();
    m.os_mut()
        .vfs_mut()
        .put_file(
            "/home/user/script.es",
            b"echo script ran with $*\nscript-var = set\n",
        )
        .unwrap();
    m.run(". script.es one two").unwrap();
    assert_eq!(m.os_mut().take_output(), "script ran with one two\n");
    assert_eq!(m.get_var("script-var"), vec!["set"]);
}

#[test]
fn eval_command() {
    let mut m = machine();
    m.run("cmd = echo; arg = built").unwrap();
    assert_eq!(output(&mut m, "eval $cmd $arg up"), "built up\n");
}

// --------------------------------------------------------------------------
// Tail calls (paper "Future Work"; experiment E6).
// --------------------------------------------------------------------------

#[test]
fn tail_calls_do_not_grow_depth() {
    let mut m = machine();
    m.run("fn loop n { if {~ $n xxxxx} {result done} {loop $n^x} }")
        .unwrap();
    m.max_depth_seen = 0;
    assert_eq!(val(&mut m, "result <>{loop ''}"), vec!["done"]);
    assert!(
        m.max_depth_seen <= 3,
        "tail-recursive loop ran in constant depth, saw {}",
        m.max_depth_seen
    );
}

#[test]
fn naive_mode_grows_depth() {
    let mut os = SimOs::new();
    os.set_initial_env(vec![("PATH".into(), "/bin".into())]);
    let mut m = Machine::with_options(os, Options { tail_calls: false }).expect("machine boots");
    m.arm_limit(Kind::Depth, 64);
    m.run("fn loop n { if {~ $n xxxxxxxxxx} {result done} {loop $n^x} }")
        .unwrap();
    m.max_depth_seen = 0;
    m.run("loop ''").unwrap();
    assert!(
        m.max_depth_seen >= 10,
        "naive mode consumed stack per call: {}",
        m.max_depth_seen
    );
    // And deep recursion exhausts the stack, as the paper laments.
    m.run("fn deep n { if {~ $#n 400} {result done} {deep $n $n(1)} }")
        .unwrap();
    // (the governor's depth limit converts the would-be crash into a
    // catchable `limit depth` exception well before the real stack
    // runs out)
    let err = m.run("deep seed").unwrap_err();
    assert!(err.contains("limit depth"), "{err}");
}

// --------------------------------------------------------------------------
// Garbage collection behaviours visible from the shell.
// --------------------------------------------------------------------------

#[test]
fn gc_survives_shell_workload() {
    let mut m = machine();
    m.heap.set_stress(true);
    m.run("fn mk n { return @ { result $n } }").unwrap();
    m.run("fns = <>{mk 1} <>{mk 2} <>{mk 3}").unwrap();
    assert_eq!(val(&mut m, "$fns(2)"), vec!["2"]);
    assert_eq!(val(&mut m, "map @ f {$f} $fns"), vec!["1", "2", "3"]);
    m.heap.set_stress(false);
    // The exact count moves with every allocation the evaluator saves,
    // so the floor is what matters.
    assert!(
        m.heap.stats().collections > 50,
        "stress mode collected (saw {})",
        m.heap.stats().collections
    );
}

#[test]
fn gc_collect_primitive_and_stats() {
    let mut m = machine();
    m.run("collect").unwrap();
    let stats = val(&mut m, "result <>{gcstats}");
    assert!(stats.contains(&"collections".to_string()));
    let n_before = m.heap.stats().collections;
    m.run("for (i = 1 2 3 4 5) { x = $i; collect }").unwrap();
    assert!(m.heap.stats().collections >= n_before + 5);
    // A live string's bytes are copied at every collection, and
    // `bytes-copied` says so.
    let bytes_copied = |m: &mut Machine<SimOs>| -> u64 {
        let stats = val(m, "result <>{gcstats}");
        let at = stats
            .iter()
            .position(|k| k == "bytes-copied")
            .expect("bytes-copied key");
        stats[at + 1].parse().expect("a count")
    };
    let before = bytes_copied(&mut m);
    m.run(&format!("big = {}; collect", "x".repeat(10 * 1024)))
        .unwrap();
    let after = bytes_copied(&mut m);
    assert!(
        after >= before + 10 * 1024,
        "a live 10 KiB string was copied: {before} -> {after}"
    );
}

#[test]
fn cyclic_closures_are_collected() {
    let mut m = machine();
    // A closure that references itself through a lexical binding.
    m.run("let (self = ) { self = @ { result $self }; cyc = $self }")
        .unwrap();
    let live_with = {
        m.heap.collect();
        m.heap.stats().live_after_last
    };
    m.run("cyc =").unwrap();
    m.heap.collect();
    let live_without = m.heap.stats().live_after_last;
    assert!(
        live_without < live_with,
        "cycle reclaimed: {live_with} -> {live_without}"
    );
}

// --------------------------------------------------------------------------
// Background jobs and time.
// --------------------------------------------------------------------------

#[test]
fn background_sets_apid() {
    let mut m = machine();
    m.run("echo bg &").unwrap();
    assert_eq!(m.os_mut().take_output(), "bg\n");
    assert_eq!(m.get_var("apid"), vec!["9001"]);
}

#[test]
fn time_reports_child_usage() {
    let mut m = machine();
    m.run("time cat /etc/motd").unwrap();
    let err = m.os_mut().take_error();
    assert!(err.contains("cat /etc/motd"), "{err}");
    assert!(err.contains('u') && err.contains('s'), "{err}");
}

#[test]
fn whatis_falls_back_to_path() {
    let mut m = machine();
    assert_eq!(output(&mut m, "whatis ls"), "/bin/ls\n");
}

// --------------------------------------------------------------------------
// The %glob hook — the paper's "future work" on exposing wildcard
// expansion, implemented as an extension.
// --------------------------------------------------------------------------

#[test]
fn glob_hook_spoofs_wildcard_expansion() {
    let mut m = machine();
    for f in ["/tmp/a.c", "/tmp/b.c"] {
        m.os_mut().vfs_mut().put_file(f, b"").unwrap();
    }
    m.run("cd /tmp").unwrap();
    // Native behaviour first.
    assert_eq!(val(&mut m, "result *.c"), vec!["a.c", "b.c"]);
    // Replace expansion wholesale: uppercase every match.
    m.run("fn %glob pat { result SPOOFED $pat }").unwrap();
    assert_eq!(val(&mut m, "result *.c"), vec!["SPOOFED", "*.c"]);
    // Remove the spoof: native expansion returns.
    m.run("fn-%glob =").unwrap();
    assert_eq!(val(&mut m, "result *.c"), vec!["a.c", "b.c"]);
}

#[test]
fn glob_hook_can_wrap_native_expansion() {
    // A useful spoof: log every expansion but keep the result by
    // delegating to ls-style matching via the native path (the hook
    // removes itself during the nested expansion).
    let mut m = machine();
    for f in ["/tmp/x1", "/tmp/x2"] {
        m.os_mut().vfs_mut().put_file(f, b"").unwrap();
    }
    m.run("cd /tmp").unwrap();
    m.run(
        "fn %glob pat {
            glob-log = $glob-log $pat
            local (fn-%glob = ) {
                result <>{eval result $pat}
            }
        }",
    )
    .unwrap();
    assert_eq!(val(&mut m, "result x*"), vec!["x1", "x2"]);
    assert_eq!(m.get_var("glob-log"), vec!["x*"]);
}

#[test]
fn expr_enables_arithmetic_in_es() {
    let mut m = machine();
    m.run("fn add a b { result `{expr $a + $b} }").unwrap();
    assert_eq!(val(&mut m, "result <>{add 17 25}"), vec!["42"]);
    // A counting loop in classic Bourne style.
    m.run("n = 0").unwrap();
    m.run("while {~ `{expr $n '<' 5} 1} { n = `{expr $n + 1} }")
        .unwrap();
    assert_eq!(m.get_var("n"), vec!["5"]);
}

// --------------------------------------------------------------------------
// Additional semantic corners.
// --------------------------------------------------------------------------

#[test]
fn return_transparent_through_bare_blocks() {
    // A bare {block} is not a return boundary; function forms are.
    let mut m = machine();
    m.run("fn f { { return inner }; result after }").unwrap();
    assert_eq!(val(&mut m, "result <>{f}"), vec!["inner"]);
    // But an @-form lambda IS a boundary.
    m.run("fn g { dispatch = @ { return from-lambda }; $dispatch; result after }")
        .unwrap();
    assert_eq!(val(&mut m, "result <>{g}"), vec!["after"]);
}

#[test]
fn dollar_zero_and_star() {
    let mut m = machine();
    m.run("fn who { echo name: $0, args: $* }").unwrap();
    assert_eq!(output(&mut m, "who a b"), "name: who, args: a b\n");
    // $* stays visible inside nested control flow.
    m.run("fn v { if {true} { echo $* } }").unwrap();
    assert_eq!(output(&mut m, "v x y"), "x y\n");
    // And inside while bodies.
    m.run("fn w { once = yes; while {~ $once yes} { once = no; echo $* } }")
        .unwrap();
    assert_eq!(output(&mut m, "w p q"), "p q\n");
}

#[test]
fn bqstatus_records_backquote_command_value() {
    let mut m = machine();
    m.run("x = `{echo hi; false}").unwrap();
    assert_eq!(m.get_var("bqstatus"), vec!["1"]);
    m.run("x = `{echo hi}").unwrap();
    assert_eq!(m.get_var("bqstatus"), vec!["0"]);
}

#[test]
fn close_redirection() {
    let mut m = machine();
    // With fd 1 closed, echo's write fails -> error exception.
    let err = m.run("echo hidden >[1=]").unwrap_err();
    assert!(err.contains("echo"), "{err}");
    assert_eq!(m.os_mut().take_output(), "");
    // But the shell survives and fd 1 is restored.
    assert_eq!(output(&mut m, "echo visible"), "visible\n");
}

#[test]
fn here_document_feeds_stdin() {
    let mut m = machine();
    assert_eq!(output(&mut m, "wc -l << 'a\nb\nc\n'"), "3\n");
}

#[test]
fn prompt_variable_is_used_by_parse() {
    let mut m = machine();
    m.run("prompt = ('es> ' '... ')").unwrap();
    m.os_mut().push_input("echo done\n");
    m.repl();
    let err = m.os_mut().take_error();
    assert!(err.contains("es> "), "{err}");
}

#[test]
fn settors_fire_on_local_bindings() {
    let mut m = machine();
    m.run("fn watch-x { set-x = @ { hits = $hits 1; return $* } }")
        .unwrap();
    m.run("watch-x").unwrap();
    m.run("local (x = a) { result $x }").unwrap();
    assert_eq!(
        m.get_var("hits"),
        vec!["1"],
        "settor ran for the local binding"
    );
}

#[test]
fn noexport_variable_respected() {
    let mut m = machine();
    m.run("secret = hidden").unwrap();
    m.run("noexport = $noexport secret").unwrap();
    let env = m.export_environment();
    assert!(!env.iter().any(|(k, _)| k == "secret"));
    assert!(
        env.iter().any(|(k, _)| k == "fn-%pipe"),
        "functions still export"
    );
}

/// Exports `m`'s environment, checking every entry against a fresh,
/// uncached encode of the value `lookup` sees.
fn export_checked(m: &Machine<SimOs>) -> std::rc::Rc<[(String, String)]> {
    let env = m.export_environment();
    for (name, encoded) in env.iter() {
        let value = m
            .lookup_name(es_gc::Ref::NIL, "", name)
            .expect("exported names are bound");
        assert_eq!(
            *encoded,
            crate::env::encode_value(m, value).0,
            "stale export of {name}"
        );
    }
    env
}

fn exported(env: &[(String, String)], name: &str) -> Option<String> {
    env.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
}

/// What the `env` program prints for `env`.
fn env_listing(env: &[(String, String)]) -> String {
    env.iter().map(|(k, v)| format!("{k}={v}\n")).collect()
}

/// The per-global export cache and the shared export follow every
/// kind of store: global reassignment and deletion, function
/// redefinition, a lexical assignment to a captured binding,
/// `$noexport` changes, and a recycle. At each step a launched `env`
/// receives exactly the checked export.
#[test]
fn export_cache_tracks_every_store() {
    let mut m = machine();
    let steps: &[(&str, &str, Option<&str>)] = &[
        ("x = a", "x", Some("a")),
        ("x = b c", "x", Some("b\u{1}c")),
        ("x =", "x", None),
        ("x = d", "x", Some("d")),
        ("fn f v { echo one $v }", "fn-f", Some("@ v {echo one $v}")),
        ("fn f v { echo two $v }", "fn-f", Some("@ v {echo two $v}")),
        (
            "let (k = 1) fn g { k = 2 }",
            "fn-g",
            Some("%closure(k=1)@ * {k = 2}"),
        ),
        ("g", "fn-g", Some("%closure(k=2)@ * {k = 2}")),
        ("noexport = x", "x", None),
        ("noexport =", "x", Some("d")),
    ];
    for (cmd, name, want) in steps {
        m.run(cmd).unwrap();
        let seen = output(&mut m, "env");
        let env = export_checked(&m);
        assert_eq!(seen, env_listing(&env), "launch after `{cmd}`");
        assert_eq!(exported(&env, name).as_deref(), *want, "after `{cmd}`");
    }
    assert!(m.recycle());
    let seen = output(&mut m, "env");
    let env = export_checked(&m);
    assert_eq!(seen, env_listing(&env), "launch after recycle");
    assert_eq!(
        exported(&env, "x"),
        None,
        "recycle restores the boot export"
    );
}

/// A `local` binding shadows a cached global in what a launched
/// program sees, and the global's cached entry is intact afterwards:
/// a launch after the block returns, in the same command, sees the
/// global again.
#[test]
fn export_cache_defers_to_local_bindings() {
    let mut m = machine();
    m.run("x = global").unwrap();
    export_checked(&m);
    let seen = output(&mut m, "local (x = shadow) { env; x = changed; env }; env");
    let xs: Vec<&str> = seen.lines().filter(|l| l.starts_with("x=")).collect();
    assert_eq!(xs, ["x=shadow", "x=changed", "x=global"]);
    assert!(output(&mut m, "env").lines().any(|l| l == "x=global"));
    assert_eq!(
        exported(&export_checked(&m), "x").as_deref(),
        Some("global")
    );
}

/// A forked child's assignments never reach the parent's export.
#[test]
fn export_cache_is_per_fork() {
    let mut m = machine();
    m.run("x = parent").unwrap();
    export_checked(&m);
    let child = output(&mut m, "fork { x = child; fn-h = { echo h }; env }");
    assert!(child.lines().any(|l| l == "x=child"), "{child}");
    let env = export_checked(&m);
    assert_eq!(exported(&env, "x").as_deref(), Some("parent"));
    assert_eq!(exported(&env, "fn-h"), None);
}

#[test]
fn whatis_multiple_names() {
    let mut m = machine();
    m.run("fn one { result 1 }").unwrap();
    assert_eq!(output(&mut m, "whatis one ls"), "@ * {result 1}\n/bin/ls\n");
}

#[test]
fn empty_pattern_list_matches_empty_subject_only() {
    let mut m = machine();
    assert_eq!(val(&mut m, "~ ()"), vec!["0"]);
    assert_eq!(val(&mut m, "~ x"), vec!["1"]);
}

#[test]
fn division_of_labor_if_branches() {
    let mut m = machine();
    // Multi-arm if from Figure 3: first true condition wins.
    let src = "fn classify e {
        if {~ $e eof} { result end-of-file } \
           {~ $e error} { result user-error } \
           { result unknown }
    }";
    m.run(src).unwrap();
    assert_eq!(val(&mut m, "result <>{classify eof}"), vec!["end-of-file"]);
    assert_eq!(val(&mut m, "result <>{classify error}"), vec!["user-error"]);
    assert_eq!(val(&mut m, "result <>{classify retry}"), vec!["unknown"]);
}

#[test]
fn fork_inside_pipeline() {
    let mut m = machine();
    assert_eq!(
        output(&mut m, "fork {echo from subshell} | tr a-z A-Z"),
        "FROM SUBSHELL\n"
    );
}

#[test]
fn exceptions_restore_redirections() {
    let mut m = machine();
    let err = m.run("{ throw error boom } > /tmp/out").unwrap_err();
    assert_eq!(err, "error boom");
    // fd 1 must be back on the console.
    assert_eq!(output(&mut m, "echo back"), "back\n");
}

#[test]
fn exceptions_restore_dynamic_bindings() {
    let mut m = machine();
    m.run("x = outer").unwrap();
    let err = m.run("local (x = inner) { throw error bye }").unwrap_err();
    assert_eq!(err, "error bye");
    assert_eq!(m.get_var("x"), vec!["outer"]);
}

#[test]
fn deeply_nested_closures_survive_collection() {
    let mut m = machine();
    m.run("fn wrap f { return @ { result wrapped <>{$f} } }")
        .unwrap();
    m.run("g = @ { result base }").unwrap();
    for _ in 0..10 {
        m.run("g = <>{wrap $g}").unwrap();
    }
    m.heap.collect();
    let got = val(&mut m, "result <>{$g}");
    assert_eq!(got.len(), 11);
    assert!(got.iter().take(10).all(|w| w == "wrapped"));
    assert_eq!(got[10], "base");
}

#[test]
fn interactive_flag_primitive() {
    let mut m = machine();
    assert_eq!(val(&mut m, "$&isinteractive"), vec!["1"]);
    m.push_input(crate::machine::Input::Console {
        pending: String::new(),
    });
    assert_eq!(val(&mut m, "$&isinteractive"), vec!["0"]);
}

#[test]
fn version_and_primitives_lists() {
    let mut m = machine();
    let v = val(&mut m, "version");
    assert!(v.join(" ").contains("USENIX 1993"));
    let prims = val(&mut m, "primitives");
    assert!(prims.contains(&"create".to_string()));
    assert!(prims.contains(&"catch".to_string()));
    assert!(prims.len() > 30);
}

// --------------------------------------------------------------------------
// The higher-order library shipped in initial.es.
// --------------------------------------------------------------------------

#[test]
fn stdlib_map_filter_fold() {
    let mut m = machine();
    assert_eq!(
        val(&mut m, "result <>{map @ x {result $x$x} a b c}"),
        vec!["aa", "bb", "cc"]
    );
    assert_eq!(
        val(&mut m, "result <>{filter @ x {~ $x *o*} foo bar box}"),
        vec!["foo", "box"]
    );
    assert_eq!(
        val(&mut m, "result <>{fold @ a x {result $a$x} '' 1 2 3}"),
        vec!["123"]
    );
    // And with externals through backquotes: numeric fold via expr.
    assert_eq!(
        val(
            &mut m,
            "result <>{fold @ a x {result `{expr $a + $x}} 0 1 2 3 4}"
        ),
        vec!["10"]
    );
}

#[test]
fn stdlib_apply_matches_paper_definition() {
    let mut m = machine();
    assert_eq!(
        output(&mut m, "apply echo testing 1.. 2.. 3.."),
        "testing\n1..\n2..\n3..\n"
    );
}

#[test]
fn stdlib_functions_compose() {
    let mut m = machine();
    // map over the output of filter, folded into one string.
    let v = val(
        &mut m,
        "result <>{fold @ a x {result $a$x} '' <>{map @ x {result '<'$x'>'} <>{filter @ x {!~ $x b} a b c}}}",
    );
    assert_eq!(v, vec!["<a><c>"]);
}

// --------------------------------------------------------------------------
// The resource governor: catchable limits, the watchdog deadline, and
// prompt interrupt delivery (ISSUE 4).
// --------------------------------------------------------------------------

/// The issue's acceptance scenario: a runaway `forever` under a step
/// budget terminates with a catchable `limit` exception, leaks no
/// descriptors, and moves the virtual clock (every eval step charges
/// time, so even pure-CPU loops are visible to the deadline watchdog).
#[test]
fn limit_steps_breach_is_catchable_no_fd_leak_time_advances() {
    let mut m = machine();
    let baseline = m.os().open_desc_count();
    let t0 = m.os().now_ns();
    assert_eq!(
        output(
            &mut m,
            "catch @ e kind used max {echo caught $e $kind} \
             {%limit steps 1000 {forever {true}}}"
        ),
        "caught limit steps\n"
    );
    assert_eq!(
        m.os().open_desc_count(),
        baseline,
        "breach leaked a descriptor"
    );
    assert!(m.os().now_ns() > t0, "virtual time did not advance");
}

/// The two-argument form arms a limit permanently; the three-argument
/// form only tightens for the body and restores on every exit path.
#[test]
fn scoped_limit_restores_outer_limits() {
    let mut m = machine();
    m.run("%limit steps 5000000").unwrap();
    let outer = m.governor().limits().get(Kind::Steps);
    assert!(outer.is_some());
    // Value path restores.
    assert_eq!(
        val(&mut m, "result <>{%limit steps 100000 {result ok}}"),
        vec!["ok"]
    );
    assert_eq!(m.governor().limits().get(Kind::Steps), outer);
    // Exception path restores too.
    let _ = val(
        &mut m,
        "catch @ e {result $e} {%limit steps 50 {forever {true}}}",
    );
    assert_eq!(m.governor().limits().get(Kind::Steps), outer);
}

/// A sandbox cannot loosen an enclosing budget: the scoped form takes
/// the minimum of the inner and outer limits.
#[test]
fn scoped_limit_only_tightens() {
    let mut m = machine();
    assert_eq!(
        val(
            &mut m,
            "catch @ e kind used max {result $e $kind} \
             {%limit steps 200 {%limit steps 999999999 {forever {true}}}}"
        ),
        vec!["limit", "steps"]
    );
}

/// Deep non-tail recursion trips the depth limit (the old hard
/// `max_depth` error, now an ordinary catchable exception), and the
/// guard stays armed afterwards.
#[test]
fn limit_depth_breach_is_catchable_and_rearms() {
    let mut m = machine();
    m.run("fn f { f; result x }").unwrap();
    for _ in 0..2 {
        assert_eq!(
            val(&mut m, "catch @ e kind used max {result $e $kind} {f}"),
            vec!["limit", "depth"]
        );
    }
}

/// The output quota counts every byte the shell writes.
#[test]
fn limit_output_quota_trips() {
    let mut m = machine();
    assert_eq!(
        val(
            &mut m,
            "catch @ e kind used max {result $e $kind} \
             {%limit output 200 {forever {echo 0123456789}}}"
        ),
        vec!["limit", "output"]
    );
}

/// The fd budget sees descriptors opened by redirections; the guard
/// fires while they are held and the scope machinery still closes them.
#[test]
fn limit_fds_budget_trips_without_leak() {
    let mut m = machine();
    let baseline = m.os().open_desc_count();
    let src = format!(
        "catch @ e kind used max {{result $e $kind}} \
         {{{{%limit fds {baseline} {{forever {{true}}}}}} > /tmp/fdlimit}}"
    );
    assert_eq!(val(&mut m, &src), vec!["limit", "fds"]);
    assert_eq!(m.os().open_desc_count(), baseline);
}

/// The heap budget forces a collection first, so only genuinely live
/// objects can breach it; a loop that retains everything does.
#[test]
fn limit_heap_budget_trips_on_live_growth() {
    let mut m = machine();
    let budget = m.heap.len() as u64 + 2000;
    let src = format!(
        "catch @ e kind used max {{result $e $kind}} \
         {{%limit heap {budget} {{forever {{x = $x yyyyyyyy}}}}}}"
    );
    assert_eq!(val(&mut m, &src), vec!["limit", "heap"]);
    assert!(m.heap.stats().budget_collections > 0);
}

/// The virtual-time deadline is a watchdog: it rides the signal path
/// as `signal sigalrm` rather than the `limit` family.
#[test]
fn limit_time_deadline_delivers_sigalrm() {
    let mut m = machine();
    assert_eq!(
        val(
            &mut m,
            "catch @ e sig {result $e $sig} {%limit time 5 {forever {true}}}"
        ),
        vec!["signal", "sigalrm"]
    );
}

/// Crossing 90% of a budget warns once on stderr; the breach itself
/// does not repeat the warning.
#[test]
fn limit_soft_warning_once_on_stderr() {
    let mut m = machine();
    let _ = val(
        &mut m,
        "catch @ e {result $e} {%limit steps 2000 {forever {true}}}",
    );
    let err = m.os_mut().take_error();
    assert_eq!(
        err.matches("es: warning: steps limit").count(),
        1,
        "expected exactly one soft warning, stderr was: {err:?}"
    );
}

/// `limits` reports one `(kind used max)` row per limit kind.
#[test]
fn limits_prim_reports_all_kinds() {
    let mut m = machine();
    let rows = val(&mut m, "result <>{limits}");
    assert_eq!(rows.len(), 18, "six kinds, three columns: {rows:?}");
    assert!(rows.contains(&"depth".to_string()));
    assert_eq!(rows[2], "150", "default depth limit");
    assert!(rows.contains(&"unlimited".to_string()));
}

/// `Machine::arm_limit` (the `--limit KIND=N` backend) arms every
/// kind the CLI parses, and may raise limits (unlike the scoped form).
#[test]
fn arm_limit_parses_kinds_and_can_raise() {
    let mut m = machine();
    for name in ["depth", "steps", "heap", "fds", "output", "time"] {
        let kind = Kind::parse(name).expect(name);
        m.arm_limit(kind, 100_000);
        assert!(m.governor().limits().get(kind).is_some(), "{name}");
    }
    m.arm_limit(Kind::Depth, 500);
    assert_eq!(m.governor().limits().get(Kind::Depth), Some(500));
}

/// Every kind's name parses back to it, and nothing else parses.
#[test]
fn kind_names_round_trip() {
    for kind in Kind::ALL {
        assert_eq!(Kind::parse(kind.name()), Some(kind));
    }
    assert_eq!(Kind::parse("bogus"), None);
}

/// `%limit` names every kind when it rejects one.
#[test]
fn limit_unknown_kind_lists_the_kinds() {
    let mut m = machine();
    assert_eq!(
        val(&mut m, "catch @ e msg {result $e $msg} {%limit bogus 1}"),
        vec![
            "error",
            "limit: unknown kind 'bogus' (expected depth, steps, heap, fds, output, or time)"
        ]
    );
}

/// A signal scheduled on the virtual clock interrupts `while {true} {}`
/// promptly — the loop body never dispatches a command, so the loop
/// itself must poll (the old starvation bug).
#[test]
fn scheduled_signal_interrupts_empty_while_loop() {
    let mut m = machine();
    let baseline = m.os().open_desc_count();
    let at = m.os().now_ns() + 1_000_000;
    m.os_mut().schedule_signal(at, es_os::Signal::Int);
    let err = m.run("while {true} {}").unwrap_err();
    assert_eq!(err, "signal sigint");
    assert_eq!(m.os().open_desc_count(), baseline);
}

/// A signal that becomes deliverable while backquote is draining its
/// pipe (here: after `sleep` pushes the clock past the schedule) is
/// delivered from the read loop, and the read end does not leak.
#[test]
fn backquote_drain_interrupted_by_scheduled_signal() {
    let mut m = machine();
    let baseline = m.os().open_desc_count();
    let at = m.os().now_ns() + 500_000_000;
    m.os_mut().schedule_signal(at, es_os::Signal::Int);
    let err = m.run("x = `{sleep 1}").unwrap_err();
    assert_eq!(err, "signal sigint");
    assert_eq!(
        m.os().open_desc_count(),
        baseline,
        "backquote leaked its read end"
    );
}

// --------------------------------------------------------------------------
// Hook bindings: every hook call resolves `fn-%name`.
// --------------------------------------------------------------------------

/// Stdout of `src`, followed by its error if it failed.
fn output_or_error(m: &mut Machine<SimOs>, src: &str) -> String {
    let result = m.run(src);
    let mut out = m.os_mut().take_output();
    if let Err(e) = result {
        out.push_str(&e);
    }
    out
}

/// A hook bound at any binding site is seen by the next call inside
/// the binding's scope, and is gone once that scope ends: every hook
/// call looks its binding up, so no site needs to report a change.
#[test]
fn hook_bound_at_any_site_is_seen_in_its_scope_and_gone_after() {
    // (hook, its boot binding, a spoof, a call that uses the hook,
    // that call's output when spoofed, and with the boot binding)
    let hooks = [
        (
            "%seq",
            "$&seq",
            "@ * {echo seq}",
            "{echo a; echo b}",
            "seq\n",
            "a\nb\n",
        ),
        (
            "%pipe",
            "$&pipe",
            "@ * {echo pipe}",
            "echo a | tr a b",
            "pipe\n",
            "b\n",
        ),
        (
            "%create",
            "$&create",
            "@ * {echo create}",
            "echo a > /tmp/f",
            "create\n",
            "",
        ),
        (
            "%pathsearch",
            "$&pathsearch",
            "@ * {result echo found}",
            "nosuch x",
            "found x\n",
            "error nosuch: command not found",
        ),
        (
            "%glob",
            "",
            "@ * {result globbed}",
            "echo q*z",
            "globbed\n",
            "q*z\n",
        ),
    ];
    // Each site binds `fn-HOOK` to SPOOF around USE; a global binding
    // lasts until the boot binding is assigned back.
    let sites = [
        ("global", "fn-HOOK = SPOOF; USE; fn-HOOK = BOOT"),
        ("let", "let (fn-HOOK = SPOOF) {USE}"),
        ("local", "local (fn-HOOK = SPOOF) {USE}"),
        ("for", "for (fn-HOOK = SPOOF) {USE}"),
        ("parameter", "@ fn-HOOK {USE} SPOOF"),
        ("closure literal", "%closure(fn-HOOK=SPOOF) {USE}"),
    ];
    let mut m = machine();
    for (hook, boot, spoof, call, spoofed, plain) in hooks {
        assert_eq!(output_or_error(&mut m, call), plain, "{hook} at boot");
        for (site, form) in sites {
            let src = form
                .replace("HOOK", hook)
                .replace("SPOOF", spoof)
                .replace("USE", call)
                .replace("BOOT", boot);
            assert_eq!(
                output_or_error(&mut m, &src),
                spoofed,
                "{hook} bound by {site}"
            );
            assert_eq!(output_or_error(&mut m, call), plain, "{hook} after {site}");
        }
    }
    // A spoofed hook sees its own name as `$0`, however the evaluator
    // reaches it.
    for (src, want) in [
        (
            "fn %pipe { echo $0 }; echo a | tr a b; fn-%pipe = $&pipe",
            "%pipe\n",
        ),
        (
            "fn %pathsearch { result echo $0 }; nosuch x",
            "%pathsearch x\n",
        ),
        ("fn %glob { result $0 }; echo q*z", "%glob\n"),
    ] {
        assert_eq!(output_or_error(&mut m, src), want, "{src}");
    }
}

/// A definition that names a command bound to nothing resolves
/// through `%pathsearch` again; the count of definitions resolved ends
/// that as a "function definition loop" error, as it ends two
/// functions naming each other, before the Rust stack runs out. The
/// machine serves the next line normally.
#[test]
fn pathsearch_naming_an_unbound_command_is_a_definition_loop() {
    let mut m = machine();
    for src in [
        "fn-%pathsearch = nosuch; nosuch2",
        "fn-%pathsearch = nosuch nosuch; nosuch2",
        "fn-a = b; fn-b = a; a",
    ] {
        let err = m.run(src).unwrap_err();
        assert!(err.contains("function definition loop"), "{src}: {err}");
        m.run("fn-%pathsearch = $&pathsearch").unwrap();
        assert_eq!(output(&mut m, "echo still here"), "still here\n");
    }
}

/// `fn-%pipe` defined, redefined, and restored mid-session takes
/// effect on the very next pipeline: every pipeline looks `fn-%pipe`
/// up.
#[test]
fn pipe_spoof_defined_redefined_and_restored_mid_session() {
    let mut m = machine();

    // A hook bound to its primitive costs what the primitive call
    // does: the `fn-%seq` lookup allocates nothing, and there is no
    // `$&seq ++ args` splice.
    let allocs = |m: &mut Machine<SimOs>, src: &str| {
        let before = m.heap.stats().allocated;
        m.run(src).unwrap();
        m.heap.stats().allocated - before
    };
    assert_eq!(
        allocs(&mut m, "{true; true; true}"),
        allocs(&mut m, "{$&seq {true} {true} {true}}"),
        "%seq allocates like $&seq"
    );

    assert_eq!(output(&mut m, "echo hi | wc -l"), "1\n");

    // Define: the next pipeline uses the spoof.
    m.run("fn %pipe { echo spoofed }").unwrap();
    assert_eq!(output(&mut m, "echo hi | wc -l"), "spoofed\n");

    // Redefine: the new spoof wins, not the first one.
    m.run("fn %pipe { echo respoofed }").unwrap();
    assert_eq!(output(&mut m, "echo hi | wc -l"), "respoofed\n");

    // Unset entirely: the hook is gone.
    m.run("fn-%pipe =").unwrap();
    let err = m.run("echo hi | wc -l").unwrap_err();
    assert!(err.contains("%pipe"), "{err}");

    // Restore the primitive: pipelines work again.
    m.run("fn-%pipe = $&pipe").unwrap();
    assert_eq!(output(&mut m, "echo hi | wc -l"), "1\n");
}

/// Heap objects `src` allocates on `m`.
fn heap_allocs(m: &mut Machine<SimOs>, src: &str) -> u64 {
    let before = m.heap.stats().allocated;
    m.run(src).unwrap_or_else(|e| panic!("`{src}` failed: {e}"));
    m.heap.stats().allocated - before
}

/// A builtin is a function bound to its primitive (`fn-echo =
/// $&echo`), and calling it costs what calling the primitive does: no
/// `$&echo ++ args` splice.
#[test]
fn builtin_call_allocates_like_its_primitive() {
    let mut m = machine();
    assert_eq!(
        heap_allocs(&mut m, "echo a b c"),
        heap_allocs(&mut m, "$&echo a b c"),
        "echo allocates like $&echo"
    );
}

/// A word is pushed straight into its call's list: one string and one
/// cell, with no one-word list to copy it out of.
#[test]
fn each_word_of_a_call_allocates_a_string_and_a_cell() {
    let mut m = machine();
    let words = |n: usize| {
        (1..=n)
            .map(|i| format!("w{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let one = heap_allocs(&mut m, &format!("$&result {}", words(1)));
    let many = heap_allocs(&mut m, &format!("$&result {}", words(32)));
    assert_eq!(many - one, 2 * 31, "31 more words");
}

/// A hook spoofed from inside a command substitution in the argument
/// list of the very call being dispatched must be seen: the hook is
/// looked up after argument evaluation.
#[test]
fn hook_spoof_from_argument_evaluation_is_not_missed() {
    let mut m = machine();
    assert_eq!(output(&mut m, "echo <>{%flatten : a b}"), "a:b\n");
    // Spoof it from a backquote evaluated while building that same
    // call's separator argument. The redefinition lands before
    // dispatch, so dispatch must use it.
    assert_eq!(
        output(
            &mut m,
            "echo <>{%flatten `{fn %flatten {echo GOT; result X}; echo -n :} a b}"
        ),
        "GOT\nX\n"
    );
}

// ----- serving substrate: recycle, cooperative yield, warning routing ------

/// `Machine::recycle` restores the frozen boot image: globals, hook
/// bindings, limits, fd table, and the whole kernel (files, clock,
/// consoles) return to the exact post-boot state.
#[test]
fn recycle_restores_boot_state() {
    let boot_hooks = machine().hook_bindings();
    let mut m = machine();
    m.run("x = dirty; fn leak { echo leak }; fn-%pipe = @ { echo hook }")
        .unwrap();
    m.run("echo contaminant > /tmp/leak").unwrap();
    m.arm_limit(Kind::Steps, 1234);
    assert_ne!(m.hook_bindings(), boot_hooks);
    assert!(m.recycle());
    assert_eq!(
        m.hook_bindings(),
        boot_hooks,
        "hook bindings must return to boot"
    );
    assert_eq!(m.get_var("x"), Vec::<String>::new());
    assert_eq!(m.get_var("fn-leak"), Vec::<String>::new());
    assert_eq!(m.get_var("fn-%pipe"), vec!["$&pipe"]);
    assert_eq!(
        m.governor().limits().get(Kind::Steps),
        None,
        "limits re-armed to boot defaults"
    );
    // The kernel was restored too: the file is gone.
    assert_eq!(val(&mut m, "cat /tmp/leak"), vec!["1"]);
    assert_eq!(
        m.os_mut().take_error(),
        "cat: /tmp/leak: No such file or directory\n"
    );
}

/// A closure imported through the environment is frozen with its
/// captured binding into the heap's boot space; assigning the binding
/// goes through the write barrier to the overlay, which recycle
/// empties. `bump` then answers as on a cold machine.
#[test]
fn recycle_forgets_assignments_to_boot_bindings() {
    fn boot() -> Machine<SimOs> {
        let mut os = SimOs::new();
        let mut env = os.initial_env();
        env.push((
            "fn-bump".into(),
            "%closure(n=0)@ * {n = $n x; result $#n}".into(),
        ));
        os.set_initial_env(env);
        Machine::new(os).expect("machine boots")
    }
    let mut cold = boot();
    let mut m = boot();
    let bump = m
        .lookup_name(es_gc::Ref::NIL, "fn-", "bump")
        .expect("fn-bump imported");
    let closure = m.heap.pair_head(bump);
    assert!(
        m.heap.closure_bindings(closure).is_boot(),
        "the captured binding lives in the boot space"
    );
    assert_eq!(val(&mut m, "bump"), vec!["2"]);
    m.run("$&collect").unwrap();
    assert_eq!(
        val(&mut m, "bump"),
        vec!["3"],
        "the overlay survives a collection"
    );
    assert!(m.recycle());
    for _ in 0..2 {
        assert_eq!(val(&mut m, "bump"), val(&mut cold, "bump"));
    }
    assert_eq!(m.get_var("fn-bump"), cold.get_var("fn-bump"));
}

/// Recycle restores only the globals the session stored, so boot must
/// leave no encoding cell that a session can fill without a store.
/// `prompt` is hidden by `$noexport` at boot; clearing `$noexport` and
/// launching `env` exports it, and without boot's fill of every
/// cacheable encoding its cell would be filled here and survive the
/// recycle.
#[test]
fn recycle_restores_encodings_an_export_filled() {
    let mut m = machine();
    assert!(m.get_var("noexport").contains(&"prompt".to_string()));
    let seen = output(&mut m, "noexport = ; env");
    assert!(seen.lines().any(|l| l.starts_with("prompt=")), "{seen}");
    assert!(m.recycle());
    assert!(
        m.globals_are_boot(),
        "recycled globals differ from the image's"
    );
}

/// The touched set names each global once: storing one boot global
/// and creating and removing one new name 10 000 times each leaves it
/// two entries long, and the recycle after it is exact.
#[test]
fn touched_log_stays_bounded() {
    let mut m = machine();
    m.run("fresh = 0; extra = 1; fresh =").unwrap();
    assert!(m.recycle());
    assert_eq!(m.touched_len(), 0, "recycle empties the log");
    for i in 0..10_000 {
        let n = i.to_string();
        m.set_global_strs("prompt", &[&n]);
        m.set_global_strs("fresh", &[&n]);
        let fresh = m.heap.intern("", "fresh");
        m.assign_raw(es_gc::Ref::NIL, fresh, es_gc::Ref::NIL);
    }
    m.run("other = 1; fresh = 2; other =; prompt =; prompt = back")
        .unwrap();
    assert_eq!(m.get_var("fresh"), vec!["2"]);
    assert!(m.touched_len() <= 2, "{} entries", m.touched_len());
    assert!(m.recycle());
    assert!(
        m.globals_are_boot(),
        "recycled globals differ from the image's"
    );
    assert_eq!(m.get_var("fresh"), Vec::<String>::new());
    assert_eq!(m.get_var("prompt"), machine().get_var("prompt"));
}

/// The symbol table stays bounded: 1000 sessions, each binding 100
/// computed names no other session binds, leave it at its boot length
/// after every recycle, as a served slot is recycled between tenants.
#[test]
fn recycle_returns_the_symbol_table_to_its_boot_length() {
    let mut m = machine();
    let boot = m.heap.symbols_len();
    let numbers: Vec<String> = (0..100).map(|i| i.to_string()).collect();
    let numbers = numbers.join(" ");
    for session in 0..1000 {
        m.run(&format!("for (i = {numbers}) {{ s{session}-$i = $i }}"))
            .unwrap();
        assert_eq!(m.get_var(&format!("s{session}-99")), vec!["99"]);
        assert!(m.heap.symbols_len() >= boot + 100, "session {session}");
        assert!(m.recycle());
        assert_eq!(m.heap.symbols_len(), boot, "after session {session}");
    }
}

/// Running one line again interns nothing new: 10 000 runs of a line
/// that binds, assigns, calls and resolves computed names leave the
/// table as the first run did.
#[test]
fn rerunning_a_line_interns_nothing() {
    let line = "let (y = 1) { fn f p { result $p $y } }; x = <>{f 2}; \
                h = x; local (z = $$h) { g = f; result <>{$(fn-$g) 3} $#z }; \
                for (w = a b) { w2 = $w }";
    let mut m = machine();
    m.run(line).unwrap();
    let after_first = m.heap.symbols_len();
    for _ in 0..10_000 {
        m.run_quiet(line).unwrap();
    }
    assert_eq!(m.heap.symbols_len(), after_first);
}

/// Satellite: a recycled machine is bit-for-bit equivalent to a
/// cold-started one — identical kernel fingerprints and an identical
/// `SessionTrace` on a probe script that exercises variables, hooks,
/// pipes, redirections, and the filesystem, after a dirty session that
/// wrote, made a directory and removed a `/bin` program.
#[test]
fn recycled_machine_is_bit_for_bit_cold_equivalent() {
    let probe = [
        "echo $x $path",
        "fn p a { echo [$a] }; p 1",
        "echo probe | wc -l",
        "echo w > /tmp/p; cat /tmp/p",
        "result 7",
    ];
    let mut cold = machine();
    let mut recycled = machine();
    crate::harness::run_session(
        &mut recycled,
        &[
            "x = stale",
            "fn junk { echo junk }",
            "fn-%pipe = @ { echo hooked }",
            "echo residue > /tmp/residue",
            "mkdir /tmp/made",
            "rm /bin/tr",
            "junk",
            "env",
        ],
    );
    assert!(recycled.recycle());
    assert_eq!(
        recycled.os().fingerprint(),
        cold.os().fingerprint(),
        "recycled kernel differs from a cold boot"
    );
    assert_eq!(
        export_checked(&recycled),
        export_checked(&cold),
        "the tenant's globals leaked into the recycled export"
    );
    let a = crate::harness::run_session(&mut cold, &probe);
    let b = crate::harness::run_session(&mut recycled, &probe);
    assert_eq!(a, b, "probe script diverged between cold and recycled");
    assert_eq!(
        recycled.os().fingerprint(),
        cold.os().fingerprint(),
        "kernels diverged after running the same probe"
    );
}

/// A machine with no boot image (the image itself) refuses to recycle;
/// the yield hook survives recycling (it belongs to the slot, not the
/// session).
#[test]
fn recycle_preserves_yielder() {
    use crate::machine::{Yield, YieldAction};
    struct Free;
    impl Yield for Free {
        fn tick(&self) -> YieldAction {
            YieldAction::Run
        }
    }
    let mut m = machine();
    m.set_yielder(Some(std::rc::Rc::new(Free)));
    assert!(m.recycle());
    assert!(
        m.yielder().is_some(),
        "recycle must keep the slot's yield hook"
    );
    assert_eq!(output(&mut m, "echo still gated"), "still gated\n");
}

/// The cooperative-yield hook is consulted every charge; `Cancel`
/// unwinds with the uncatchable exit so tenant `catch` cannot swallow
/// a scheduler's cancellation.
#[test]
fn yield_cancel_is_uncatchable() {
    use crate::governor::CANCEL_EXIT;
    use crate::machine::{Yield, YieldAction};
    use std::cell::Cell;
    struct Budget(Cell<u64>);
    impl Yield for Budget {
        fn tick(&self) -> YieldAction {
            if self.0.get() == 0 {
                return YieldAction::Cancel;
            }
            self.0.set(self.0.get() - 1);
            YieldAction::Run
        }
    }
    let mut m = machine();
    m.set_yielder(Some(std::rc::Rc::new(Budget(Cell::new(100_000)))));
    assert_eq!(output(&mut m, "echo gated"), "gated\n");
    // Exhaust the budget inside a catch-all handler: the cancel must
    // sail straight through it.
    m.set_yielder(Some(std::rc::Rc::new(Budget(Cell::new(50)))));
    let err = m
        .run_text("catch @ e { result caught $e } { while {true} {} }")
        .unwrap_err();
    assert!(
        matches!(err, crate::EsError::Exit(c) if c == CANCEL_EXIT),
        "cancel must unwind as the uncatchable exit, got {err:?}"
    );
}

/// Satellite regression: the governor's 90% warning reaches the
/// session's console stderr even when the tenant redirected fd 2 —
/// the warning belongs to the session's owner, not to whatever file
/// the tenant pointed stderr at. It also does not count against the
/// tenant's own output quota.
#[test]
fn limit_warning_survives_fd2_redirection() {
    let mut m = machine();
    m.arm_limit(Kind::Output, 200);
    let long = "a".repeat(185);
    m.run(&format!("{{echo {long}; echo ok}} >[2] /tmp/quiet"))
        .unwrap();
    let err = m.os_mut().take_error();
    assert!(
        err.contains("es: warning: output limit at"),
        "warning must land on the console stderr, got {err:?}"
    );
    m.os_mut().take_output(); // drain the echoes themselves
    assert_eq!(
        output(&mut m, "cat /tmp/quiet"),
        "",
        "warning must not follow the tenant's fd 2 redirection"
    );
}

// ---------------------------------------------------------------------------
// A call builds its list once (DESIGN.md §4e): the shortcuts behave as
// the general paths they replace.
// ---------------------------------------------------------------------------

/// Runs `src` on a fresh machine: its stdout, stderr and value (or
/// exception).
fn outcome(src: &str) -> (String, String, Result<Vec<String>, String>) {
    let mut m = machine();
    let r = m.run(src);
    (m.os_mut().take_output(), m.os_mut().take_error(), r)
}

/// Words pushed in place, linked last lists, direct primitive calls,
/// cursors in `for` and the control primitives, and `^`/`~` read in
/// place each give what building every list by copying gave. The
/// expected outcomes were recorded from the copying evaluator.
#[test]
fn call_shortcuts_print_and_return_what_copying_did() {
    type Row = (
        &'static str,
        &'static str,
        &'static str,
        Result<&'static [&'static str], &'static str>,
    );
    #[rustfmt::skip]
    let rows: &[Row] = &[
        ("for (i = a b c; j = x) { echo $i $j }", "a x\nb\nc\n", "", Ok(&["0"])),
        ("for (i = 1 2 3) { if {~ $i 2} { break found $i } }", "", "", Ok(&["found", "2"])),
        ("for (i = ) { echo never }", "", "", Ok(&[])),
        ("echo {a}^x", "{a}x\n", "", Ok(&["0"])),
        ("echo (a b)^(c d e)", "", "", Err("error bad concatenation: 2 words and 3 words")),
        ("echo <>{result a b}^x", "ax bx\n", "", Ok(&["0"])),
        ("echo a^(b c)^d (a b)^(c d) a^() ()^x", "abd acd ac bd\n", "", Ok(&["0"])),
        ("let (x = 1) { echo {echo $x}^<>{x = 2; result y} }", "%closure(x=1){echo $x}y\n", "", Ok(&["0"])),
        ("~ ()", "", "", Ok(&["0"])),
        ("~ () a", "", "", Ok(&["1"])),
        ("x = {a}; ~ $x {a}", "", "", Ok(&["0"])),
        ("~ '*' '*'", "", "", Ok(&["0"])),
        ("~ x '*'", "", "", Ok(&["1"])),
        ("~ (x y abc) a* b*", "", "", Ok(&["0"])),
        ("~ xy x[a-z]", "", "", Ok(&["0"])),
        ("let (x = 1) { ~ {echo $x} <>{x = 2; result '%closure(x=1){echo $x}'} }", "", "", Ok(&["0"])),
        ("fn-e = $&echo pre; e a", "pre a\n", "", Ok(&["0"])),
        ("fn-e = $&nosuch; e", "", "", Err("error unknown primitive $&nosuch")),
        ("fn-e = '$&'; e", "", "", Err("error unknown primitive $&")),
        ("let (fn-echo = @ { result shadowed }) { echo x }", "", "", Ok(&["shadowed"])),
        ("local (fn-echo = @ { result local $* }) { echo x }", "", "", Ok(&["local", "x"])),
        ("fn echo { result spoofed $* }; echo x", "", "", Ok(&["spoofed", "x"])),
        ("x = a b; y = c $x; x = z; echo $y", "c a b\n", "", Ok(&["0"])),
        ("fn f a b { result $a - $b - $* }; f 1 2 3 4", "", "", Ok(&["1", "-", "2", "3", "4", "-", "1", "2", "3", "4"])),
        ("fn f a b { result $a - $b - $* }; f 1", "", "", Ok(&["1", "-", "-", "1"])),
        ("fn f { return a b c }; f", "", "", Ok(&["a", "b", "c"])),
        ("if {false} {echo a} {true} {echo b} {echo c}", "b\n", "", Ok(&["0"])),
        ("if {false} {echo a}", "", "", Ok(&[])),
        ("$&and {true} {false} {echo no}", "", "", Ok(&["1"])),
        ("$&or {false} {result 7} {echo no}", "no\n", "", Ok(&["0"])),
        ("$&seq {echo a} {echo b} {result c}", "a\nb\n", "", Ok(&["c"])),
        ("set-v = @ { result x $* }; v = a b; echo $v", "x a b\n", "", Ok(&["0"])),
        ("catch @ e { echo caught $e } { throw boom a }", "caught boom a\n", "", Ok(&["0"])),
        ("catch echo { throw boom a }", "boom a\n", "", Ok(&["0"])),
        ("fn-%pathsearch = @ { result /bin/echo via }; nosuchcmd a", "via a\n", "", Ok(&["0"])),
    ];
    for (src, stdout, stderr, value) in rows {
        let want = (
            stdout.to_string(),
            stderr.to_string(),
            value
                .map(|v| v.iter().map(|w| w.to_string()).collect())
                .map_err(str::to_string),
        );
        assert_eq!(outcome(src), want, "{src}");
    }
}

/// Every boot `fn-X` bound to `$&X` is called directly; `X args`
/// must do what `$&X args` does, for each builtin that neither exits
/// nor forks. `$&gcstats` counts the heap objects allocated so far, so
/// it also checks that both forms allocate alike.
#[test]
fn builtins_do_what_their_primitives_do() {
    let boot = machine();
    let builtins: Vec<&str> = crate::prims::NAMES
        .iter()
        .copied()
        .filter(|name| !matches!(*name, "exit" | "fork"))
        .filter(|name| boot.get_var(&format!("fn-{name}")) == vec![format!("$&{name}")])
        .collect();
    assert!(builtins.len() >= 15, "{builtins:?}");
    for name in builtins {
        for args in [
            "",
            "a b",
            "{break 1} {echo body} z",
            "{echo once; break 2} {echo body}",
        ] {
            let (out, err, value) = outcome(&format!("{name} {args}"));
            let (prim_out, prim_err, prim_value) = outcome(&format!("$&{name} {args}"));
            // Collection pauses are wall-clock times.
            let timeless = |v: Result<Vec<String>, String>| {
                v.map(|mut words| {
                    if name == "gcstats" {
                        words.truncate(12);
                    }
                    words
                })
            };
            assert_eq!(
                (out, err, timeless(value)),
                (prim_out, prim_err, timeless(prim_value)),
                "`{name} {args}` vs `$&{name} {args}`"
            );
        }
    }
}

/// `fn-a1 = a2; …; fn-a<n> = target`: a chain of `n` aliases.
fn alias_chain(n: usize, target: &str) -> String {
    let mut src: String = (1..n).map(|i| format!("fn-a{i} = a{}; ", i + 1)).collect();
    src.push_str(&format!("fn-a{n} = {target}; "));
    src
}

/// Each way a command's head is applied binds `$0` as it did, and
/// counts the definitions it resolves against the same bound: 64
/// aliases resolve on every route, a primitive is called past the
/// bound, and a 65th alias ending in a path is a definition loop.
#[test]
fn application_binds_dollar_zero_and_bounds_alias_chains() {
    #[rustfmt::skip]
    let zero = [
        ("fn who { echo $0 }; who", "who\n"),
        ("fn-w = @ { echo $0 } x; w", "<closure>\n"),
        ("fn-a = b; fn b { echo $0 }; a", "b\n"),
        ("catch @ { echo $0 } { throw e }", "<thunk>\n"),
        ("set-v = @ { echo $0; result $* }; v = a", "<closure>\n"),
        ("fn t { u }; fn u { echo $0 }; t", "<tail>\n"),
        ("fn %pathsearch { echo $0; result @ { echo $0 } }; nosuch", "%pathsearch\n<closure>\n"),
        ("fn %pathsearch { result @ { echo $0 $* } x }; nosuch y", "<closure> x y\n"),
    ];
    for (src, want) in zero {
        assert_eq!(outcome(src).0, want, "{src}");
    }
    for (n, target, call) in [
        (64, "$&echo", "a1 hi"),
        (65, "$&echo", "a1 hi"),
        (64, "/bin/echo", "a1 hi"),
        (64, "/bin/echo", "set-x = a1; x = hi"),
        (64, "/bin/echo", "catch a1 { throw hi }"),
    ] {
        let src = alias_chain(n, target) + call;
        let (out, err, value) = outcome(&src);
        assert!(value.is_ok(), "{n} {target} {call}: {value:?}");
        assert_eq!(
            (out.as_str(), err.as_str()),
            ("hi\n", ""),
            "{n} {target} {call}"
        );
    }
    for (n, target, call) in [
        (66, "$&echo", "a1 hi"),
        (65, "/bin/echo", "a1 hi"),
        (65, "/bin/echo", "set-x = a1; x = hi"),
        (65, "/bin/echo", "catch a1 { throw hi }"),
    ] {
        let src = alias_chain(n, target) + call;
        let (out, _, value) = outcome(&src);
        let err = value.expect_err(&src);
        assert!(
            out.is_empty() && err.contains("function definition loop"),
            "{n} {target} {call}: {err}"
        );
    }
}
